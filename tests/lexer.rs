//! The lexer and the statement spans against a checked-in listing: every
//! token with its line and column, and the `(line, column)` of every rule
//! and query `parse_program_spanned` reports, for the example corpus
//! (`examples/programs/*.pl`) and the texts under `tests/fixtures/lexer/`
//! — the programs of the `model_dump` example, the first company text of
//! `pathbench --workload program_load --quick --seed 42`, and a text of the
//! lexer's edge paths (non-ASCII names, escapes, the three comment forms,
//! extreme integers, a string across lines).
//!
//! The listing, `tests/fixtures/lexer/tokens.golden`, was written by the
//! char-at-a-time lexer the byte lexer replaced; the byte lexer must
//! reproduce it exactly.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pathlog::parser::{parse_program_spanned, tokenize};

/// The listing of one text.
fn listing(label: &str, text: &str) -> String {
    let mut out = format!("== {label}\n");
    match tokenize(text) {
        Ok(tokens) => {
            for t in tokens {
                writeln!(out, "{}:{} {:?}", t.line, t.column, t.token).unwrap();
            }
        }
        Err(e) => writeln!(out, "error {e}").unwrap(),
    }
    match parse_program_spanned(text) {
        Ok(p) => writeln!(out, "rules {:?}\nqueries {:?}", p.rule_spans, p.query_spans).unwrap(),
        Err(e) => writeln!(out, "parse error {e}").unwrap(),
    }
    out
}

/// The `.pl` files of `dir`, sorted by name.
fn programs(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("a fixture directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "pl"))
        .collect();
    files.sort();
    files
}

/// The listing of every text, in order: the example corpus, then the
/// fixtures.
fn corpus_listing(root: &Path) -> String {
    let dirs = ["examples/programs", "tests/fixtures/lexer"];
    let mut out = String::new();
    for dir in dirs {
        for path in programs(&root.join(dir)) {
            let text = std::fs::read_to_string(&path).expect("a readable program");
            let name = path.file_name().expect("a file name").to_string_lossy();
            out.push_str(&listing(&format!("{dir}/{name}"), &text));
        }
    }
    out
}

#[test]
fn tokens_and_spans_match_the_golden_listing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listing = corpus_listing(root);
    let golden = std::fs::read_to_string(root.join("tests/fixtures/lexer/tokens.golden")).expect("the golden listing");
    if listing != golden {
        let (line, (got, want)) = listing
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(golden.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("listings of different lengths differ in a line");
        panic!(
            "the token listing differs from tokens.golden at line {}: got `{got}`, want `{want}`",
            line + 1
        );
    }
}
