//! Model dump: everything a program run leaves behind, in one text, so that
//! two builds can be compared with `diff`.
//!
//! Runs every `examples/programs/*.pl`, the rules of the `tc_fixpoint`
//! benchmark workload over its tree of stored facts at depth 6, a program
//! whose full solve enumerates its solutions in another order than the
//! canonical one, one whose facts mint objects between its rules' firings,
//! two with every head shape a commit runs between them, the rules of the
//! `program_load` workload over a small company, and four whose heads nest
//! assertions in their values, each installed by the engine both through
//! `Engine::install_checked` and `Engine::load_program`, and loaded by the
//! reference fixpoint (`pathlog::core::semantics::fixpoint`), and prints per
//! run its strata, iterations and model counters by name, the number of
//! answers of each query (the reference's by the written-order
//! `solve_body`), the `canonical_dump()`, the set-member insertion log and
//! the mutation journal.
//!
//! It is a gate: it exits non-zero, after printing everything, unless each
//! engine run left exactly what the reference left — every printed line but
//! the stats, and the stats' model counters.  Two builds evaluate
//! identically when their outputs are equal:
//!
//! ```sh
//! cargo run -q --offline --release --example model_dump > after.txt
//! # the same in a checkout of the other revision, into before.txt
//! diff before.txt after.txt
//! ```
//!
//! Object ids and the order of the logs follow the order in which an
//! evaluation commits.  With `--normalised` every object is printed by what
//! defines it — a name as written, a virtual object as the path that minted
//! it, `receiver.method@(args)` with each part printed the same way — and
//! the dump, the insertion log and the journal as sorted lines: two builds
//! that commit in different orders but derive the same model print the
//! same text.
//!
//! ```sh
//! cargo run -q --offline --release --example model_dump -- --normalised > after.txt
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use pathlog::core::semantics::{fixpoint, solve_body};
use pathlog::parser::parse_program;
use pathlog::prelude::*;

/// The rules and queries of the `tc_fixpoint` workload.
const TREE_RULES: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].
X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
X[sdesc ->> {Y}] <- X[desc ->> {Y}], Y : special, X : special.
X : parent <- X[kids ->> {Y}].
X : leaf <- X : person, not X : parent.
X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].
?- p0[desc ->> {Y}].
?- X : leaf.
?- X[sdesc ->> {Y}].
";

/// Three `tag` objects minted by the full solve of a rule above a negation:
/// written order enumerates `B[m -> A]` `B`-major (`b1` names `a3` first),
/// the canonical order is `A`-major.
const TAGS: &str = "a1 : thing. a2 : thing. a3 : thing.
b1[m -> a3]. b2[m -> a1]. b3[m -> a2].
b9 : skip.
X : skip <- X : skipper.
A.tag[of -> B] <- B[m -> A], not B : skip.
?- X.tag[of -> Y].
";

/// One stratum whose facts mint virtual objects between the rules' firings:
/// over a stored `q : person[city -> paris]`, the first iteration mints
/// `p1.boss` (a fact), `q.address` (the rule written after it) and `p2.boss`
/// (a fact written after that rule), in that order.
const INTERLEAVED: &str = "p1 : employee.
X : person <- X : employee.
p1.boss[age -> 50].
X.address[city -> C] <- X : person[city -> C].
p1[city -> berlin].
p2.boss[age -> 40].
p2 : employee.
?- X.address[city -> C].
";

/// Every head shape a commit runs but a set right-hand side: a fact with a
/// head path and a signature fact; a virtual method (`(M.tc)`, the paper's
/// generic closure); a nested minting chain; two undefined paths minted in
/// one head; a head path with an argument; an explicit set written out of
/// ascending order (`zeta` is registered before `alpha`); and a signature
/// head.
const HEADS: &str = "tim : person. ann : person. bob : person. kim : person.
tim[kids ->> {bob, ann}]. ann[kids ->> {kim}].
tim.boss[name -> \"big\"].
person[age => integer; kids =>> person].
kids : baseMethod.
X[(M.tc) ->> {Y}] <- M : baseMethod, X[M ->> {Y}].
X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}].
X.boss.car[color -> red] <- X : person.
X.home[near -> X.office] <- X[kids ->> {Y}].
X.rank@(Y)[of -> X; by -> Y] <- X[kids ->> {Y}].
X[tags ->> {zeta, Y, alpha}] <- X[kids ->> {Y}].
C[size => integer] <- X : C, X[kids ->> {Y}].
?- X.boss.car[color -> C].
?- X[(kids.tc) ->> {Y}].
";

/// Set right-hand sides in heads: one stored application (`Y..kids`) and
/// one that is not (`X..kids..kids`).  The generic closure of `HEADS`
/// defines an unknown key, which these set-at-a-time reads would depend on,
/// so they are a program of their own.
const SET_HEADS: &str = "tim[kids ->> {bob, ann}]. ann[kids ->> {kim}]. bob[kids ->> {eve, dan}].
X : person <- X[kids ->> {Y}].
X[friends ->> Y..kids] <- X[kids ->> {Y}].
X[grand ->> X..kids..kids] <- X : person.
X.circle[of -> X; members ->> X..kids..kids] <- X : person.
?- X[grand ->> {Y}].
";

/// The rule statements of the `program_load` workload over a small written
/// company: the subclass rules, the two virtual-object rules of Section 6
/// (`X.address` mints `X.street` and `X.city` where they are undefined) and
/// the query.
const COMPANY: &str = "d1 : department. d2 : department.
e1 : employee[worksFor -> d1; street -> \"1 Main St\"; city -> boston].
e2 : manager[worksFor -> d2; city -> paris].
e3 : employee[worksFor -> d1].
a1 : automobile[color -> red].
X : employee <- X : manager.
X : person <- X : employee.
X : vehicle <- X : automobile.
X.address[street -> X.street; city -> X.city] <- X : employee.
X.mentor[worksFor -> D] <- X : employee[worksFor -> D].
?- X : employee.mentor[worksFor -> D].
";

/// Assertions nested in head values, which stratify by what the head
/// writes: an is-a inside a scalar value and inside an explicit set, each
/// negated by a later rule (`d` is `{b2}`); a set right-hand side inside a
/// nested molecule, read whole after its definer (`n(b1)` is `{b1}`); and a
/// scalar assigned inside one head's value and at the top of another's,
/// which conflict.
const NESTED: [(&str, &str); 4] = [
    (
        "nested is-a",
        "a1 : a. b1 : b. b2 : b. a1[partner -> b1].
X[m -> Y : c] <- X : a, X[partner -> Y].
Z : d <- Z : b, not Z : c.
?- Z : d.
",
    ),
    (
        "nested is-a in a set",
        "a1 : a. b1 : b. b2 : b. a1[partner -> b1].
X[m ->> {Y : c}] <- X : a, X[partner -> Y].
Z : d <- Z : b, not Z : c.
?- Z : d.
",
    ),
    (
        "nested set head",
        "a1 : a. b1 : b. a1[partner -> b1]. b1[k ->> {b1}].
X[m -> Y[n ->> Y..q]] <- X : a, X[partner -> Y].
Y[q ->> {Z}] <- Y[k ->> {Z}].
?- b1[n ->> {N}].
",
    ),
    (
        "nested conflict",
        "a1 : a. b1 : b. a1[partner -> b1].
X[m -> Y[n -> 1]] <- X : a, X[partner -> Y].
Y[n -> 2] <- Y : b.
",
    ),
];

/// The `tc_fixpoint` workload's stored facts, built the way it builds them:
/// a complete binary tree of depth `depth` whose node `i` is `p<i>`, a
/// `person`, `special` when `i` is a multiple of 37, with the kids `2i + 1`
/// and `2i + 2`.
fn tree(depth: u32) -> Structure {
    let nodes = (1usize << (depth + 1)) - 1;
    let mut s = Structure::new();
    let (person, special, kids) = (s.atom("person"), s.atom("special"), s.atom("kids"));
    let oids: Vec<Oid> = (0..nodes).map(|i| s.atom(&format!("p{i}"))).collect();
    for i in 0..nodes {
        s.add_isa(oids[i], person);
        if i % 37 == 0 {
            s.add_isa(oids[i], special);
        }
        for kid in [2 * i + 1, 2 * i + 2].into_iter().filter(|&k| k < nodes) {
            s.assert_set_member(kids, oids[i], &[], oids[kid]);
        }
    }
    s
}

/// Every object of `s` by what defines it: a named object by its name, a
/// virtual object by the first scalar fact that has it as its result — the
/// one it was minted for — as `receiver.method@(args)`, a virtual method in
/// parentheses.  Those parts existed before the object was minted, so they
/// have lower ids and are labelled first.
fn labels(s: &Structure) -> Vec<String> {
    let mut minted: HashMap<Oid, (Oid, Oid, Vec<Oid>)> = HashMap::new();
    for f in s.facts().scalar_facts().filter(|f| s.is_virtual(f.result)) {
        minted
            .entry(f.result)
            .or_insert_with(|| (f.receiver, f.method, f.args.to_vec()));
    }
    let mut labels: Vec<String> = Vec::with_capacity(s.num_objects());
    for oid in s.objects() {
        let label = match (s.name_of(oid), minted.get(&oid)) {
            (Some(name), _) => name.to_string(),
            (None, Some((receiver, method, args))) => {
                let method = if s.is_virtual(*method) {
                    format!("({})", labels[method.index()])
                } else {
                    labels[method.index()].clone()
                };
                let args: Vec<&str> = args.iter().map(|a| labels[a.index()].as_str()).collect();
                match args.as_slice() {
                    [] => format!("{}.{method}", labels[receiver.index()]),
                    args => format!("{}.{method}@({})", labels[receiver.index()], args.join(", ")),
                }
            }
            (None, None) => s.display_name(oid).into_owned(),
        };
        labels.push(label);
    }
    labels
}

/// `canonical_dump()`, the insertion log and the journal of `s` with every
/// object printed by its label, each section as sorted lines.
fn normalised(out: &mut String, s: &Structure) {
    let labels = labels(s);
    let l = |o: Oid| labels[o.index()].as_str();
    let list = |oids: &[Oid]| oids.iter().map(|&o| l(o)).collect::<Vec<_>>().join(", ");
    let facts = s.facts();
    let mut lines: Vec<String> = s.objects().map(|o| format!("object {}", l(o))).collect();
    for f in facts.scalar_facts() {
        let (m, r, args, result) = (l(f.method), l(f.receiver), list(f.args), l(f.result));
        lines.push(format!("scalar {m} {r} [{args}] -> {result}"));
    }
    for f in facts.set_facts() {
        let (m, r, args) = (l(f.method), l(f.receiver), list(f.args));
        lines.extend(
            f.members
                .iter()
                .map(|&x| format!("member {m} {r} [{args}] ->> {}", l(x))),
        );
    }
    lines.extend(
        s.isa()
            .pairs_since(0)
            .map(|(sub, sup)| format!("isa {} : {}", l(sub), l(sup))),
    );
    for (app, member) in facts.set_members_since(0) {
        let f = facts.set_fact_at(app);
        let (m, r, args) = (l(f.method), l(f.receiver), list(f.args));
        lines.push(format!("log {m} {r} [{args}] ->> {}", l(member)));
    }
    lines.sort_unstable();
    writeln!(out, "objects: {}", s.num_objects()).unwrap();
    for line in lines {
        writeln!(out, "{line}").unwrap();
    }
    let mut journal: Vec<&str> = facts.mutation_keys_since(0).map(l).collect();
    journal.sort_unstable();
    writeln!(out, "journal {}", journal.join(" ")).unwrap();
}

/// What loads a program in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loader {
    /// The engine, through `Engine::install_checked`.
    Checked,
    /// The engine, through `Engine::load_program`.
    Loaded,
    /// The reference fixpoint.
    Reference,
}

impl Loader {
    fn label(self) -> &'static str {
        match self {
            Loader::Checked => "engine install_checked",
            Loader::Loaded => "engine load_program",
            Loader::Reference => "reference",
        }
    }
}

/// A run's stats, or its error.
type Outcome = std::result::Result<EvalStats, String>;

/// One run of `program` over a copy of `base`: its outcome and the rest of
/// its block — answer counts, dump, insertion log and journal.
fn dump_run(base: &Structure, program: &Program, loader: Loader, norm: bool) -> (Outcome, String) {
    let engine = Engine::new();
    let mut structure = base.clone();
    let stats = match loader {
        Loader::Checked => engine.install_checked(&mut structure, program).map(|(stats, _)| stats),
        Loader::Loaded => engine.load_program(&mut structure, program),
        Loader::Reference => fixpoint(&mut structure, program, &EvalOptions::default()),
    };
    let mut out = String::new();
    let answers: Vec<String> = program
        .queries
        .iter()
        .map(|q| {
            let answers = match loader {
                Loader::Reference => solve_body(&structure, &q.body, &Bindings::new()).map(|a| a.len()),
                _ => engine.query(&structure, q).map(|a| a.len()),
            };
            match answers {
                Ok(n) => n.to_string(),
                Err(e) => format!("error {e}"),
            }
        })
        .collect();
    writeln!(out, "answers [{}]", answers.join(", ")).unwrap();
    if norm {
        normalised(&mut out, &structure);
    } else {
        out.push_str(&structure.canonical_dump());
        let facts = structure.facts();
        for (app, member) in facts.set_members_since(0) {
            writeln!(out, "log {app} {member}").unwrap();
        }
        let journal: Vec<String> = facts.mutation_keys_since(0).map(|m| m.to_string()).collect();
        writeln!(out, "journal {}", journal.join(" ")).unwrap();
    }
    (stats.map_err(|e| e.to_string()), out)
}

fn main() {
    let norm = std::env::args().skip(1).any(|arg| arg == "--normalised");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/programs exists")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "pl"))
        .collect();
    files.sort();
    let mut runs: Vec<(String, Structure, String)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().expect("a file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(path).expect("a readable program");
            (name, Structure::new(), text)
        })
        .collect();
    runs.push(("tc_fixpoint depth 6".to_string(), tree(6), TREE_RULES.to_string()));
    runs.push(("tags".to_string(), Structure::new(), TAGS.to_string()));
    let mut stored = Structure::new();
    let q = parse_program("q : person[city -> paris].").expect("the stored fact parses");
    Engine::new()
        .load_program(&mut stored, &q)
        .expect("the stored fact loads");
    runs.push(("interleaved".to_string(), stored, INTERLEAVED.to_string()));
    runs.push(("heads".to_string(), Structure::new(), HEADS.to_string()));
    runs.push(("set heads".to_string(), Structure::new(), SET_HEADS.to_string()));
    runs.push(("company".to_string(), Structure::new(), COMPANY.to_string()));
    for (name, text) in NESTED {
        runs.push((name.to_string(), Structure::new(), text.to_string()));
    }

    let mut out = String::new();
    let mut mismatches: Vec<String> = Vec::new();
    for (name, base, text) in &runs {
        let program = match parse_program(text) {
            Ok(program) => program,
            Err(e) => {
                writeln!(out, "== {name}: parse error {e}").unwrap();
                continue;
            }
        };
        let (reference_stats, reference) = dump_run(base, &program, Loader::Reference, norm);
        let counters = |stats: &Outcome| stats.as_ref().map(EvalStats::model_counters).map_err(String::clone);
        for loader in [Loader::Checked, Loader::Loaded, Loader::Reference] {
            let (stats, block) = match loader {
                Loader::Reference => (reference_stats.clone(), reference.clone()),
                _ => dump_run(base, &program, loader, norm),
            };
            writeln!(out, "== {name} {}", loader.label()).unwrap();
            match &stats {
                Ok(s) => writeln!(
                    out,
                    "stats strata {} iterations {} firings {} scalar_facts {} set_members {} isa_edges {} \
                     signatures {} virtual_objects {}",
                    s.strata,
                    s.iterations,
                    s.firings,
                    s.scalar_facts,
                    s.set_members,
                    s.isa_edges,
                    s.signatures,
                    s.virtual_objects
                )
                .unwrap(),
                Err(e) => writeln!(out, "error {e}").unwrap(),
            }
            out.push_str(&block);
            if block != reference || counters(&stats) != counters(&reference_stats) {
                mismatches.push(format!("{name} {}", loader.label()));
            }
        }
    }
    print!("{out}");
    if !mismatches.is_empty() {
        eprintln!(
            "model_dump: these runs differ from the reference: {}",
            mismatches.join("; ")
        );
        std::process::exit(1);
    }
}
