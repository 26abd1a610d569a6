//! An interactive PathLog shell: type facts, rules and queries and see the
//! answers immediately.
//!
//! Run with `cargo run --example pathlog_shell`, then e.g.:
//!
//! ```text
//! pathlog> peter[kids ->> {tim, mary}].
//! pathlog> tim[kids ->> {sally}].
//! pathlog> X[desc ->> {Y}] <- X[kids ->> {Y}].
//! pathlog> X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
//! pathlog> ?- peter[desc ->> {Z}].
//! Z = tim
//! Z = mary
//! Z = sally
//! ```
//!
//! Commands: `:stats` prints structure statistics, `:check` runs the type
//! checker, `:quit` exits.
//!
//! `--reactive` skips the interactive loop and runs the active-database
//! demo instead: salary updates pushed through an ECA trigger fan-out,
//! cross-checked against a second run of the same store.
//!
//! `--check FILE...` skips the interactive loop too and runs the static
//! analyzer over each program file instead, printing one
//! `path:line:col: PLxxx severity: message` line per diagnostic (or one
//! JSON object per file with `--json`) and exiting non-zero when any file
//! fails to parse or carries an `Error`-severity diagnostic — the lint
//! gate CI runs over the example corpus.
//!
//! `--explain FILE...` (alone or combined with `--check`) additionally
//! prints, next to the PL0xx diagnostics, the plans the engine runs the
//! file's bodies by over the file's own facts: for every `?-` query the
//! query's plan, and for every proper rule the plan of its delta pass with
//! every positive literal drivable and a one-entry window, with its seed
//! side (delta-driven, or flipped to a shorter stored posting list).  A plan
//! is the literal order and, per literal, the order of its atoms, each with
//! the cardinality — the length of the index it walks — it was chosen at.
//! With `--json` the per-file object gains a `"plans"` and a `"queries"`
//! array carrying the same information.

use std::io::{self, BufRead, Write};

use pathlog::core::names::Name;
use pathlog::core::program::Literal;
use pathlog::prelude::*;
use pathlog::reactive::{ActiveStats, ActiveStore, EcaAction, EcaRule, Event};

/// What the command line asked for.
enum ShellMode {
    /// The interactive read-eval loop.
    Interactive,
    /// The `--reactive` active-database demo.
    Reactive,
    /// `--check`/`--explain [--json] FILE...`: run the static analyzer
    /// over each file, optionally explaining the join plans.
    Check {
        files: Vec<String>,
        json: bool,
        explain: bool,
    },
}

/// Parse `--reactive` / `--check`/`--explain [--json] FILE...`.
fn mode_from_args() -> ShellMode {
    let mut reactive = false;
    let mut check = false;
    let mut explain = false;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let usage = || -> ! {
        eprintln!("usage: pathlog_shell [--reactive] [--check|--explain [--json] FILE...]");
        std::process::exit(2);
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--reactive" => reactive = true,
            "--check" => check = true,
            "--explain" => explain = true,
            "--json" => json = true,
            path if (check || explain) && !path.starts_with('-') => files.push(path.to_string()),
            _ => usage(),
        }
    }
    if json && !(check || explain) {
        usage();
    }
    if (check || explain) && (files.is_empty() || reactive) {
        usage();
    }
    if check || explain {
        ShellMode::Check { files, json, explain }
    } else if reactive {
        ShellMode::Reactive
    } else {
        ShellMode::Interactive
    }
}

/// One body's plan over the file's facts: a `?-` query's, or a proper rule's
/// delta pass (see [`pathlog::core::plan::plan_pass`]).
struct Explanation {
    /// The statement as source text.
    label: String,
    /// Statement start position.
    span: Option<(usize, usize)>,
    /// For a rule: does its pass seed from the delta (`false`: a seed flip to
    /// a shorter posting list)?  `None` for a query.
    seeded_from_delta: Option<bool>,
    /// The literals in execution order: positives, then the negated ones.
    literals: Vec<ExplainedLiteral>,
}

/// One literal of an [`Explanation`].
struct ExplainedLiteral {
    body_index: usize,
    text: String,
    positive: bool,
    /// What the literal was ordered by.
    cost: usize,
    /// Its atoms in execution order, each with the cardinality it was
    /// chosen at.
    atoms: Vec<(String, usize)>,
}

/// Explain `plan`, of the compiled `body` written as `literals`.
fn explanation(
    label: String,
    span: Option<(usize, usize)>,
    literals: &[Literal],
    body: &pathlog::core::plan::CompiledRule,
    plan: &pathlog::core::plan::BodyPlan,
    seeded_from_delta: Option<bool>,
) -> Explanation {
    let literal = |steps: &pathlog::core::plan::LiteralSteps| {
        let (written, lit) = (&literals[steps.body_index], body.literal(steps.body_index));
        ExplainedLiteral {
            body_index: steps.body_index,
            text: written.to_string(),
            positive: written.positive,
            cost: steps.cost,
            atoms: steps
                .atoms
                .iter()
                .map(|s| (body.atom_text(&lit.atoms[s.atom]), s.cardinality))
                .collect(),
        }
    };
    Explanation {
        label,
        span,
        seeded_from_delta,
        literals: plan.positives.iter().chain(&plan.negations).map(literal).collect(),
    }
}

/// Plan every proper rule of `program` against `facts` as a delta pass with
/// every positive literal drivable and a one-entry window.
fn explain_rules(
    program: &pathlog::core::program::Program,
    spans: &[(usize, usize)],
    facts: &Structure,
) -> Vec<Explanation> {
    use pathlog::core::plan::{compile, plan_pass};

    let rules = program.rules.iter().enumerate().filter(|(_, r)| !r.is_fact());
    rules
        .map(|(i, rule)| {
            let body = compile(rule);
            let drivable: Vec<usize> = body.positives().iter().map(|p| p.body_index).collect();
            let plan = plan_pass(facts, &body, &drivable, 1);
            let seeded = Some(plan.seeded_from_delta);
            explanation(
                rule.to_string(),
                spans.get(i).copied(),
                &rule.body,
                &body,
                &plan,
                seeded,
            )
        })
        .collect()
}

/// Plan every query of `program` against `facts`.
fn explain_queries(
    program: &pathlog::core::program::Program,
    spans: &[(usize, usize)],
    facts: &Structure,
) -> Vec<Explanation> {
    use pathlog::core::plan::{compile_query, plan_query};

    let explain = |(q, query): (usize, &Query)| {
        let body = compile_query(query.body.iter().map(|l| (l.positive, &l.term)));
        let plan = plan_query(facts, &body);
        explanation(
            query.to_string(),
            spans.get(q).copied(),
            &query.body,
            &body,
            &plan,
            None,
        )
    };
    program.queries.iter().enumerate().map(explain).collect()
}

/// A cardinality as text: `usize::MAX` is a built-in ranging over the
/// universe.
fn cardinality_text(n: usize) -> String {
    if n == usize::MAX {
        "universe".to_string()
    } else {
        n.to_string()
    }
}

/// Print one plan, `path:line:col:`-prefixed so the lines sit greppably next
/// to the PL0xx diagnostics.
fn print_plan(path: &str, e: &Explanation) {
    let prefix = match e.span {
        Some((l, c)) => format!("{path}:{l}:{c}"),
        None => path.to_string(),
    };
    match e.seeded_from_delta {
        Some(seeded) => {
            println!("{prefix}: plan: {}", e.label);
            let seed = if seeded {
                "delta-driven"
            } else {
                "stored index (seed flip)"
            };
            println!("{prefix}:   seed: {seed}");
        }
        None => println!("{prefix}: query plan: {}", e.label),
    }
    for l in &e.literals {
        let atoms: Vec<String> = l
            .atoms
            .iter()
            .map(|(atom, n)| format!("{atom} ({})", cardinality_text(*n)))
            .collect();
        let role = if l.positive { "join" } else { "anti-join" };
        println!(
            "{prefix}:   {role} [{}] {} (cost {}): {}",
            l.body_index,
            l.text,
            cardinality_text(l.cost),
            atoms.join(" ; ")
        );
    }
}

/// Serialize one plan as a JSON object (`null`: the universe).
fn plan_to_json(e: &Explanation) -> String {
    use pathlog::core::analysis::json_escape;

    let number = |n: usize| {
        if n == usize::MAX {
            "null".to_string()
        } else {
            n.to_string()
        }
    };
    let (line, column) = match e.span {
        Some((l, c)) => (l.to_string(), c.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    let literals: Vec<String> = e
        .literals
        .iter()
        .map(|l| {
            let atoms: Vec<String> = l
                .atoms
                .iter()
                .map(|(atom, n)| format!("{{\"atom\":\"{}\",\"cardinality\":{}}}", json_escape(atom), number(*n)))
                .collect();
            format!(
                "{{\"index\":{},\"literal\":\"{}\",\"positive\":{},\"cost\":{},\"atoms\":[{}]}}",
                l.body_index,
                json_escape(&l.text),
                l.positive,
                number(l.cost),
                atoms.join(",")
            )
        })
        .collect();
    let (kind, seed) = match e.seeded_from_delta {
        Some(true) => ("rule", ",\"seed\":\"delta\""),
        Some(false) => ("rule", ",\"seed\":\"index\""),
        None => ("query", ""),
    };
    format!(
        "{{\"{kind}\":\"{}\",\"line\":{line},\"column\":{column}{seed},\"literals\":[{}]}}",
        json_escape(&e.label),
        literals.join(",")
    )
}

/// `--check` / `--explain` mode: parse and statically analyze each file.
/// Prints one line (or, with `json`, one JSON object) per diagnostic — plus,
/// with `explain`, the plan of each proper rule's delta pass and of each
/// query over the file's facts — and returns the process exit code: 0 when every file parses and carries no `Error`-severity
/// diagnostic, 1 otherwise.
///
/// With `json` the document is an object, not a bare array: a `"meta"`
/// block records the invocation's serving-layer counters
/// (`epochs_published`, `snapshots_pinned` and `snapshots_reclaimed` from
/// [`SnapshotStats`]), then the per-file entries follow under `"files"`.  The static gate performs
/// no evaluation, so its counters are zero; the keys exist so downstream
/// tooling reads one stable schema whether or not a shell invocation
/// evaluated anything.
fn check_files(files: &[String], json: bool, explain: bool) -> i32 {
    use pathlog::core::analysis::{json_escape, AnalysisInput};
    use pathlog::parser::parse_program_spanned;

    let mut failed = false;
    let mut json_entries: Vec<String> = Vec::new();
    for path in files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                failed = true;
                if json {
                    json_entries.push(format!(
                        "{{\"file\":\"{}\",\"error\":\"{}\"}}",
                        json_escape(path),
                        json_escape(&e.to_string())
                    ));
                } else {
                    eprintln!("{path}: error: {e}");
                }
                continue;
            }
        };
        match parse_program_spanned(&source) {
            Ok(spanned) => {
                // Explain mode plans over the program's own facts: load just
                // the fact statements into a scratch structure, which the
                // analyzer reads for liveness too.
                let facts_structure = explain.then(|| {
                    let facts = pathlog::core::program::Program {
                        rules: spanned.program.rules.iter().filter(|r| r.is_fact()).cloned().collect(),
                        queries: Vec::new(),
                    };
                    let mut s = Structure::new();
                    let _ = Engine::new().load_program(&mut s, &facts);
                    s
                });
                let mut input = AnalysisInput::new()
                    .program(&spanned.program)
                    .rule_spans(&spanned.rule_spans)
                    .query_spans(&spanned.query_spans);
                if let Some(s) = &facts_structure {
                    input = input.structure(s);
                }
                let analysis = input.run();
                failed |= !analysis.no_errors();
                let (plans, queries) = match &facts_structure {
                    Some(facts) => (
                        explain_rules(&spanned.program, &spanned.rule_spans, facts),
                        explain_queries(&spanned.program, &spanned.query_spans, facts),
                    ),
                    None => (Vec::new(), Vec::new()),
                };
                if json {
                    let plans_json = if explain {
                        let entries: Vec<String> = plans.iter().map(plan_to_json).collect();
                        let asked: Vec<String> = queries.iter().map(plan_to_json).collect();
                        format!(",\"plans\":[{}],\"queries\":[{}]", entries.join(","), asked.join(","))
                    } else {
                        String::new()
                    };
                    json_entries.push(format!(
                        "{{\"file\":\"{}\",\"errors\":{},\"warnings\":{},\"diagnostics\":{}{}}}",
                        json_escape(path),
                        analysis.diagnostics.error_count(),
                        analysis.diagnostics.warning_count(),
                        analysis.diagnostics.to_json(),
                        plans_json
                    ));
                } else {
                    for d in analysis.diagnostics.iter() {
                        println!("{path}:{d}");
                    }
                    for e in plans.iter().chain(&queries) {
                        print_plan(path, e);
                    }
                }
            }
            Err(e) => {
                // A file that does not parse cannot be analyzed: report the
                // parse error at its position and count it as a failure.
                failed = true;
                if json {
                    json_entries.push(format!(
                        "{{\"file\":\"{}\",\"parse_error\":{{\"line\":{},\"column\":{},\"message\":\"{}\"}}}}",
                        json_escape(path),
                        e.line,
                        e.column,
                        json_escape(&e.message)
                    ));
                } else {
                    println!("{path}:{}:{}: parse error: {}", e.line, e.column, e.message);
                }
            }
        }
    }
    if json {
        let stats = SnapshotStats::default();
        println!(
            "{{\"meta\":{{\"epochs_published\":{},\"snapshots_pinned\":{},\"snapshots_reclaimed\":{}}},\
             \"files\":[{}]}}",
            stats.epochs_published,
            stats.snapshots_pinned,
            stats.snapshots_reclaimed,
            json_entries.join(",")
        );
    }
    i32::from(failed)
}

/// An active store over a tiny payroll with a salary-event fan-out (three
/// rules on one event, one cascaded audit rule).
fn demo_store() -> ActiveStore {
    let mut s = Structure::new();
    let employee = s.atom("employee");
    for name in ["ann", "bob", "cleo"] {
        let p = s.atom(name);
        s.add_isa(p, employee);
    }
    let mut store = ActiveStore::new(s);
    store.add_rule(EcaRule::new(
        "mark-paid",
        Event::ScalarAsserted(Name::atom("salary")),
        vec![Literal::pos(Term::var("Receiver").isa("employee"))],
        vec![EcaAction::AddIsA {
            object: Term::var("Receiver"),
            class: Name::atom("paid"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "keep-history",
        Event::ScalarAsserted(Name::atom("salary")),
        vec![Literal::pos(Term::var("Receiver").isa("employee"))],
        vec![EcaAction::AddSetMember {
            receiver: Term::var("Receiver"),
            method: Name::atom("payHistory"),
            member: Term::var("Value"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "derive-bonus",
        Event::ScalarAsserted(Name::atom("salary")),
        vec![],
        vec![EcaAction::AssertScalar {
            receiver: Term::var("Receiver"),
            method: Name::atom("bonusBase"),
            value: Term::var("Value"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "audit",
        Event::ScalarAsserted(Name::atom("bonusBase")),
        vec![],
        vec![EcaAction::AddIsA {
            object: Term::var("Receiver"),
            class: Name::atom("audited"),
        }],
    ));
    store
}

/// Push the demo's salary updates through `store`, printing per-mutation
/// firings; returns the aggregate stats and the final canonical dump.
fn run_demo(store: &mut ActiveStore, verbose: bool) -> (ActiveStats, String) {
    let salary = store.oid("salary");
    let mut total = ActiveStats::default();
    for (name, pay) in [("ann", 900), ("bob", 1500), ("cleo", 2000)] {
        let p = store.oid(name);
        let amount = store.int(pay);
        let stats = store.assert_scalar(salary, p, amount).expect("triggers run");
        if verbose {
            println!(
                "  {name}[salary -> {pay}]: {} firings, {} mutations, depth {}",
                stats.firings, stats.mutations, stats.max_depth_reached
            );
        }
        total.merge(&stats);
    }
    (total, store.structure().canonical_dump())
}

/// The `--reactive` demo: the salary updates through the trigger fan-out,
/// twice (the results must be bit-identical).
fn reactive_demo() {
    println!("reactive demo: depth-first trigger cascades");
    let mut store = demo_store();
    let (total, dump) = run_demo(&mut store, true);
    println!(
        "quiescent: {} firings, {} mutations, max cascade depth {}",
        total.firings, total.mutations, total.max_depth_reached
    );
    let mut reference = demo_store();
    let (ref_total, ref_dump) = run_demo(&mut reference, false);
    assert_eq!(total, ref_total, "a second run must repeat the stats");
    assert_eq!(dump, ref_dump, "a second run must repeat the structure");
    println!("cross-check: bit-identical to a second run");
    let structure = store.into_structure();
    let audited = structure.lookup_name(&Name::atom("audited")).expect("audited class");
    println!("audited employees: {}", structure.instances_of(audited).count());
}

fn main() {
    match mode_from_args() {
        ShellMode::Check { files, json, explain } => std::process::exit(check_files(&files, json, explain)),
        ShellMode::Reactive => {
            reactive_demo();
            return;
        }
        ShellMode::Interactive => {}
    }
    let mut structure = Structure::new();
    let engine = Engine::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout();

    println!("PathLog shell — facts, rules (head <- body.) and queries (?- body.)");
    print!("pathlog> ");
    stdout.flush().unwrap();

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let input = line.trim();
        match input {
            "" => {}
            ":quit" | ":q" => break,
            ":stats" => println!("{}", structure.stats()),
            ":check" => {
                let errors = pathlog::core::typing::type_check(&structure);
                if errors.is_empty() {
                    println!("no type violations");
                } else {
                    for e in errors {
                        println!("type violation: {e}");
                    }
                }
            }
            _ => match parse_program(input) {
                Ok(program) => {
                    if !program.rules.is_empty() {
                        match engine.load_program(&mut structure, &program) {
                            Ok(stats) => {
                                println!(
                                    "ok ({} facts derived, {} virtual objects)",
                                    stats.derived(),
                                    stats.virtual_objects
                                )
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    for query in &program.queries {
                        match engine.query(&structure, query) {
                            Ok(solutions) if solutions.is_empty() => println!("no"),
                            Ok(solutions) => {
                                for row in solutions.iter() {
                                    let bindings = row.bindings();
                                    if bindings.is_empty() {
                                        println!("yes");
                                    } else {
                                        let line: Vec<String> = bindings
                                            .iter()
                                            .map(|(v, o)| format!("{v} = {}", structure.display_name(o)))
                                            .collect();
                                        println!("{}", line.join(", "));
                                    }
                                }
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                }
                Err(e) => println!("error: {e}"),
            },
        }
        print!("pathlog> ");
        stdout.flush().unwrap();
    }
    println!("\nbye");
}
