//! Print the contrast tables recorded in `EXPERIMENTS.md`: a loop over
//! [`pathlog_bench::CASES`].
//!
//! Per case and scale point the runner builds the input once, runs every arm
//! once to warm up and five times under the clock, and reports each arm's
//! count with the median time and (slowest − fastest) / median beside it.  It
//! panics — a non-zero exit — when an arm's count varies between runs or the
//! arms a case says must agree do not, so a full run is an end-to-end
//! correctness gate.  `--only <id>` runs one case; `--json <path>` also
//! writes the rows as JSON (`BENCH_results.json` by convention).
//!
//! These timings contrast formulations inside one process on one input.
//! Whether a change made the system faster or slower is a question for
//! `pathbench`, never for this table.

use pathlog_bench::{run_case, Row, CASES};

/// Timed runs per arm; the reported time is their median.
const TIMED_RUNS: usize = 5;

fn main() {
    let (only, json) = parse_args();
    // A partial run must not clobber the committed full document.
    if let (Some(_), Some(path)) = (&only, &json) {
        if path.ends_with("BENCH_results.json") {
            eprintln!("refusing to overwrite {path} with a partial (--only) run; choose another --json path");
            std::process::exit(2);
        }
    }
    let mut tables = Vec::new();
    for case in CASES.iter().filter(|c| only.as_deref().is_none_or(|id| id == c.id)) {
        println!("\n== {} ==", case.title);
        let rows: Vec<Row> = case
            .scales
            .iter()
            .map(|scale| {
                let row = run_case(case, scale, TIMED_RUNS);
                println!("{row}");
                row
            })
            .collect();
        tables.push((case, rows));
    }
    println!("\nEvery arm repeated its count, and the arms that must agree did.");
    if let Some(path) = json {
        let tables: Vec<String> = tables
            .iter()
            .map(|(case, rows)| {
                let rows: Vec<String> = rows.iter().map(row_json).collect();
                format!(
                    "    {{\n      \"id\": {:?},\n      \"name\": {:?},\n      \"rows\": [\n{}\n      ]\n    }}",
                    case.id,
                    case.title,
                    rows.join(",\n")
                )
            })
            .collect();
        let document = format!(
            "{{\n  \"meta\": {{\"timed_runs\": {TIMED_RUNS}}},\n  \"experiments\": [\n{}\n  ]\n}}\n",
            tables.join(",\n")
        );
        std::fs::write(&path, document).expect("write JSON results");
        println!("Wrote machine-readable results to {path}");
    }
}

/// One row as a JSON object.  Names are the table's own ASCII identifiers,
/// for which Rust's string `Debug` form is the JSON form.
fn row_json(row: &Row) -> String {
    let arms: Vec<String> = row
        .arms
        .iter()
        .map(|arm| {
            format!(
                "{:?}: {{\"count\": {}, \"median_ms\": {:.4}, \"spread\": {:.4}}}",
                arm.name, arm.count, arm.median_ms, arm.spread
            )
        })
        .collect();
    let counts: Vec<String> = row
        .counts
        .iter()
        .map(|(name, count)| format!("{name:?}: {count}"))
        .collect();
    format!(
        "        {{\"scale\": {:?}, \"arms\": {{{}}}, \"counts\": {{{}}}}}",
        row.scale,
        arms.join(", "),
        counts.join(", ")
    )
}

/// Parse `[--only <case id>] [--json <path>]`; exits with usage on anything
/// else.
fn parse_args() -> (Option<String>, Option<String>) {
    let (mut only, mut json) = (None, None);
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match (flag.as_str(), raw.next()) {
            ("--json", Some(path)) => json = Some(path),
            ("--only", Some(id)) if CASES.iter().any(|c| c.id == id) => only = Some(id),
            _ => {
                let ids: Vec<&str> = CASES.iter().map(|c| c.id).collect();
                eprintln!("usage: experiments [--only {}] [--json <path>]", ids.join("|"));
                std::process::exit(2);
            }
        }
    }
    (only, json)
}
