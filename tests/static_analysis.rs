//! Integration tests for the static-analysis subsystem: golden diagnostics
//! per PL0xx code over the fixture corpus, a bit-identical regression of the
//! refactored stratifier against the original relaxation fixpoint, a
//! property test that analyzer-accepted programs never trip runtime safety
//! errors, the static-vs-dynamic cascade fixture, and the analyzer-clean
//! sweep over the shipped example programs.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pathlog::core::analysis::{AnalysisInput, CascadeBound, DiagCode, Severity};
use pathlog::core::engine::assert_head;
use pathlog::core::engine::{stratify, Stratification};
use pathlog::core::program::{rule_info, validate_program, DepKey, RuleInfo};
use pathlog::core::structure::Oid;
use pathlog::parser::parse_program_spanned;
use pathlog::prelude::*;
use pathlog::reactive::{ActiveOptions, ActiveStore, EcaAction, EcaRule, Event, ReactiveError};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/diagnostics/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn analyze_source(source: &str) -> pathlog::core::analysis::Analysis {
    let spanned = parse_program_spanned(source).expect("fixture parses");
    AnalysisInput::new()
        .program(&spanned.program)
        .rule_spans(&spanned.rule_spans)
        .query_spans(&spanned.query_spans)
        .run()
}

// ---------------------------------------------------------------------------
// Golden diagnostics: each fixture fires exactly its own code, anchored at
// the documented line.
// ---------------------------------------------------------------------------

#[test]
fn each_fixture_fires_exactly_its_own_code() {
    // (file, code, severity, line of the offending statement; None = whole program)
    let golden: &[(&str, DiagCode, Severity, Option<usize>)] = &[
        ("pl001_ill_formed.pl", DiagCode::IllFormed, Severity::Error, Some(4)),
        (
            "pl002_set_valued_head.pl",
            DiagCode::SetValuedHead,
            Severity::Error,
            Some(3),
        ),
        (
            "pl003_unsafe_head_variable.pl",
            DiagCode::UnsafeHeadVariable,
            Severity::Error,
            Some(4),
        ),
        (
            "pl004_negation_only_variable.pl",
            DiagCode::UnsafeNegationVariable,
            Severity::Error,
            Some(4),
        ),
        (
            "pl005_not_stratifiable.pl",
            DiagCode::NotStratifiable,
            Severity::Error,
            None,
        ),
        (
            "pl006_always_empty.pl",
            DiagCode::AlwaysEmptyLiteral,
            Severity::Warning,
            Some(4),
        ),
        ("pl007_dead_rule.pl", DiagCode::DeadRule, Severity::Warning, Some(7)),
        (
            "pl008_singleton_variable.pl",
            DiagCode::SingletonVariable,
            Severity::Warning,
            Some(5),
        ),
        (
            "pl009_scalar_conflict.pl",
            DiagCode::ScalarConflict,
            Severity::Warning,
            Some(6),
        ),
    ];
    for &(file, code, severity, line) in golden {
        let analysis = analyze_source(&fixture(file));
        let codes: BTreeSet<DiagCode> = analysis.diagnostics.codes().into_iter().collect();
        assert_eq!(
            codes,
            [code].into_iter().collect::<BTreeSet<_>>(),
            "{file} should fire exactly {code}, got: {}",
            analysis.diagnostics
        );
        for d in analysis.diagnostics.iter() {
            assert_eq!(d.severity, severity, "{file}: {d}");
            assert_eq!(
                d.span.map(|s| s.line),
                line,
                "{file}: diagnostic anchored at the wrong statement: {d}"
            );
            assert!(!d.message.is_empty() && !d.subject.is_empty(), "{file}: {d}");
        }
    }
}

#[test]
fn fixture_corpus_covers_at_least_eight_distinct_codes() {
    let dir = format!("{}/tests/fixtures/diagnostics", env!("CARGO_MANIFEST_DIR"));
    let mut codes = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "pl") {
            let source = std::fs::read_to_string(&path).unwrap();
            codes.extend(analyze_source(&source).diagnostics.codes());
        }
    }
    assert!(codes.len() >= 8, "only {} distinct codes fired: {codes:?}", codes.len());
}

// ---------------------------------------------------------------------------
// Stratification regression: the shared-graph stratifier must be
// bit-identical to the original relaxation fixpoint it replaced.
// ---------------------------------------------------------------------------

/// The stratification algorithm exactly as the engine implemented it before
/// it moved onto the shared dependency graph, kept here as the oracle.
fn reference_stratify(infos: &[RuleInfo]) -> Option<Stratification> {
    fn intersect(defines: &BTreeSet<DepKey>, uses: &BTreeSet<DepKey>) -> bool {
        if defines.is_empty() || uses.is_empty() {
            return false;
        }
        if defines.contains(&DepKey::Unknown) || uses.contains(&DepKey::Unknown) {
            return true;
        }
        defines.iter().any(|k| uses.contains(k))
    }
    let n = infos.len();
    let mut stratum = vec![1usize; n];
    if n == 0 {
        return Some(Stratification {
            strata: Vec::new(),
            stratum_of: stratum,
        });
    }
    loop {
        let mut changed = false;
        for r in 0..n {
            for s in 0..n {
                if intersect(&infos[s].defines, &infos[r].uses) && stratum[r] < stratum[s] {
                    stratum[r] = stratum[s];
                    changed = true;
                }
                if intersect(&infos[s].defines, &infos[r].strict_uses) && stratum[r] < stratum[s] + 1 {
                    stratum[r] = stratum[s] + 1;
                    changed = true;
                }
            }
            if stratum[r] > n {
                return None;
            }
        }
        if !changed {
            break;
        }
    }
    let max = stratum.iter().copied().max().unwrap_or(1);
    let mut strata = vec![Vec::new(); max];
    for (r, &s) in stratum.iter().enumerate() {
        strata[s - 1].push(r);
    }
    let strata: Vec<Vec<usize>> = strata.into_iter().filter(|s| !s.is_empty()).collect();
    let mut stratum_of = vec![0usize; n];
    for (i, group) in strata.iter().enumerate() {
        for &r in group {
            stratum_of[r] = i;
        }
    }
    Some(Stratification { strata, stratum_of })
}

#[test]
fn strata_are_bit_identical_to_the_reference_fixpoint() {
    // Programs exercising every interesting shape: paper examples
    // (transitive closure, the Section 6 set-valued path), strict chains,
    // negation, wildcard (generic) rules, and a non-stratifiable one.
    let sources = [
        // Example 4.1-style transitive closure: ordinary recursion.
        "tim[kids ->> {sally}]. sally[kids ->> {pam}].
         X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Z}] <- X[kids ->> {Y}], Y[desc ->> {Z}].",
        // Section 6: a set-valued path in a body forces a later stratum.
        "p1[assistants ->> {ann}]. ann : person.
         X[helpers ->> {Y}] <- X[assistants ->> {Y}].
         X[friends ->> p1..helpers] <- X : person.",
        // Stratified negation plus a strict chain.
        "a : person. a[salary -> 10].
         X : paid <- X : person[salary -> S].
         X : unpaid <- X : person, not X : paid.
         X : flagged <- X : unpaid.",
        // Generic rules with Unknown keys on both sides.
        "a[tc -> b]. X[(M.tc) -> Y] <- X[M -> Y].
         X[(M.tc) -> Z] <- X[M -> Y], Y[(M.tc) -> Z].",
        // Not stratifiable: both sides must agree on the error too.
        "a : person. X : odd <- X : person, not X : odd.",
    ];
    for source in sources {
        let program = parse_program(source).unwrap();
        let infos = validate_program(&program).unwrap();
        let actual = stratify(&infos);
        match reference_stratify(&infos) {
            Some(expected) => {
                let actual =
                    actual.unwrap_or_else(|e| panic!("reference stratifies {source:?} but engine errors: {e}"));
                assert_eq!(actual, expected, "strata differ on {source:?}");
            }
            None => {
                assert!(actual.is_err(), "reference rejects {source:?} but engine stratified");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: programs the analyzer accepts never trip runtime safety errors.
// ---------------------------------------------------------------------------

/// A pool of statements, some safe and some not, from which random programs
/// are assembled.  The property below needs both kinds: accepted programs
/// must load, and the generator must actually produce rejected ones too for
/// the test to mean anything.
const STATEMENT_POOL: &[&str] = &[
    "mary : employee.",
    "peter : employee[salary -> 100].",
    "tim[kids ->> {sally, pam}].",
    "X : person <- X : employee.",
    "X[desc ->> {Y}] <- X[kids ->> {Y}].",
    "X[desc ->> {Z}] <- X[kids ->> {Y}], Y[desc ->> {Z}].",
    "X : paid <- X : employee[salary -> _S].",
    "X : unpaid <- X : employee, not X : paid.",
    "?- X : person.",
    "?- X[desc ->> {Y}].",
    // unsafe: head variable not bound by a positive literal (PL003)
    "X[bonus -> Y] <- X : employee.",
    // unsafe: variable only under negation (PL004)
    "a : flagged <- not X : person.",
    // ill-formed: scalar filter with a set-valued value (PL001)
    "house[owner -> tim..kids].",
    // not stratifiable (PL005)
    "X : odd <- X : employee, not X : odd.",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// If the analyzer reports no `Error`-severity diagnostic, loading and
    /// evaluating the program cannot fail: every runtime safety /
    /// stratification error is anticipated statically.
    #[test]
    fn accepted_programs_never_trip_runtime_errors(
        picks in prop::collection::vec(0..STATEMENT_POOL.len(), 1..7)
    ) {
        let source: String = picks.iter().map(|&i| STATEMENT_POOL[i]).collect::<Vec<_>>().join("\n");
        let program = parse_program(&source).unwrap();
        let engine = Engine::new();
        let analysis = engine.analyze(None, &program);
        if analysis.no_errors() {
            let mut structure = Structure::new();
            engine
                .load_program(&mut structure, &program)
                .unwrap_or_else(|e| panic!("analyzer accepted but runtime rejected {source:?}: {e}"));
        }
    }
}

#[test]
fn the_pool_exercises_both_accepted_and_rejected_programs() {
    let engine = Engine::new();
    let accepted = parse_program("mary : employee. X : person <- X : employee.").unwrap();
    assert!(engine.analyze(None, &accepted).no_errors());
    let rejected = parse_program("X[bonus -> Y] <- X : employee.").unwrap();
    assert!(!engine.analyze(None, &rejected).no_errors());
}

// ---------------------------------------------------------------------------
// Cascade: the analyzer flags statically what the runtime only catches
// mid-cascade, after mutations already committed.
// ---------------------------------------------------------------------------

#[test]
fn unbounded_cascade_is_flagged_statically_before_runtime_catches_it() {
    let mut store = ActiveStore::with_options(
        Structure::new(),
        ActiveOptions {
            max_cascade_depth: 8,
            ..ActiveOptions::default()
        },
    );
    // Each rule retracts its own trigger before asserting the other
    // method, so every hop re-inserts a fresh fact and the ping-pong never
    // converges on its own.
    let forward = EcaRule::new(
        "ping",
        Event::ScalarAsserted(Name::atom("a")),
        vec![],
        vec![
            EcaAction::RetractScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("a"),
            },
            EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("b"),
                value: Term::var("Value"),
            },
        ],
    );
    let back = EcaRule::new(
        "pong",
        Event::ScalarAsserted(Name::atom("b")),
        vec![],
        vec![
            EcaAction::RetractScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("b"),
            },
            EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("a"),
                value: Term::var("Value"),
            },
        ],
    );
    store.add_rule(forward);
    store.add_rule(back);

    // Static: the trigger cycle and the unbounded cascade are reported
    // before any mutation happens.
    let analysis = store.analyze();
    let codes = analysis.diagnostics.codes();
    assert!(codes.contains(&DiagCode::CascadeCycle), "{}", analysis.diagnostics);
    assert!(codes.contains(&DiagCode::CascadeBound), "{}", analysis.diagnostics);
    assert_eq!(
        analysis.cascade.expect("cascade analyzed").bound,
        CascadeBound::Unbounded
    );

    // Dynamic: the runtime only notices when the depth limit trips — with
    // every mutation applied before the limit already committed.
    let a = store.oid("a");
    let obj = store.oid("obj");
    let v = store.int(1);
    let err = store.assert_scalar(a, obj, v).unwrap_err();
    assert!(
        matches!(err, ReactiveError::LimitExceeded(_)),
        "expected the cascade depth limit, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Shipped corpus: every example program is analyzer-clean; install_checked
// installs a clean program and rejects an unsafe one with the analyzer's
// message.
// ---------------------------------------------------------------------------

#[test]
fn shipped_example_programs_are_analyzer_clean() {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "pl") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        let analysis = analyze_source(&source);
        assert!(
            analysis.diagnostics.is_clean(),
            "{} is not analyzer-clean:\n{}",
            path.display(),
            analysis.diagnostics
        );
    }
    assert!(seen >= 4, "expected the shipped corpus, found {seen} programs");
}

#[test]
fn enforce_mode_gates_installation_on_the_analysis() {
    // The analysis is attached, and a program it finds an invalid rule in is
    // rejected by the engine's validation, which runs the same checks.
    let engine = Engine::new();
    // clean program: installs, analysis comes back alongside the stats
    let clean = parse_program("mary : employee. X : person <- X : employee. ?- X : person.").unwrap();
    let mut structure = Structure::new();
    let (_stats, analysis) = engine.install_checked(&mut structure, &clean).unwrap();
    assert!(analysis.no_errors());

    // unsafe program: rejected with the analyzer's message before any fact
    // lands in the structure
    let source = "mary : employee. X[bonus -> Y] <- X : employee.";
    let unsafe_program = parse_program(source).unwrap();
    let mut untouched = Structure::new();
    let err = engine.install_checked(&mut untouched, &unsafe_program).unwrap_err();
    let report = analyze_source(source).diagnostics;
    let first_error = report.iter().find(|d| d.severity == Severity::Error).expect("PL003");
    assert_eq!(first_error.code, DiagCode::UnsafeHeadVariable);
    assert_eq!(err, Error::InvalidRule(first_error.message.clone()));
    assert_eq!(
        untouched.num_objects(),
        Structure::new().num_objects(),
        "rejection precedes installation: only the builtins remain"
    );
}

/// A rule with two `Error` diagnostics of one code: the analyzer's report
/// leads with the one `validate_rule` (and so `install_checked`) reports —
/// the head's ill-formed filter before the body's, `Z` before `A`.
#[test]
fn the_first_of_two_errors_of_one_code_is_the_one_validation_reports() {
    for text in [
        "X[boss -> p1..assistants] <- X[boss -> p1..assistants].",
        "X[b -> Z; a -> A] <- X : person.",
    ] {
        let program = parse_program(text).expect("parses");
        let analysis = AnalysisInput::new().program(&program).run();
        let errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.len() >= 2, "`{text}`: {errors:?}");
        assert_eq!(errors[0].code, errors[1].code, "`{text}`");
        let err = pathlog::core::program::validate_rule(&program.rules[0]).unwrap_err();
        assert_eq!(err, Error::InvalidRule(errors[0].message.clone()), "`{text}`");
    }
}

#[test]
fn validate_rule_rejects_with_the_analyzers_first_error() {
    let person = || Literal::pos(Term::var("X").isa("person"));
    let cases = [
        (DiagCode::UnsafeHeadVariable, Rule::fact(Term::var("X").isa("person"))),
        (
            DiagCode::SetValuedHead,
            Rule::new(
                Term::var("X").set("kids").filter(Filter::scalar("age", Term::int(5))),
                vec![person()],
            ),
        ),
        (
            DiagCode::UnsafeHeadVariable,
            Rule::new(
                Term::var("X").filter(Filter::scalar("likes", Term::var("Y"))),
                vec![person()],
            ),
        ),
        (
            DiagCode::UnsafeNegationVariable,
            Rule::new(
                Term::var("X").isa("lonely"),
                vec![person(), Literal::neg(Term::var("Y").isa("friendOf"))],
            ),
        ),
        (
            DiagCode::IllFormed,
            Rule::fact(Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants")))),
        ),
    ];
    for (code, rule) in cases {
        let mut program = Program::new();
        program.push_rule(rule.clone());
        let analysis = AnalysisInput::new().program(&program).run();
        let first_error = analysis
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .unwrap_or_else(|| panic!("no error diagnostic for `{rule}`"));
        assert_eq!(first_error.code, code, "`{rule}`");
        let err = pathlog::core::program::validate_rule(&rule).unwrap_err();
        assert_eq!(err, Error::InvalidRule(first_error.message.clone()), "`{rule}`");
    }
}

#[test]
fn install_checked_installs_a_program_whose_only_error_is_in_a_query() {
    let program = parse_program("mary : employee. X : person <- X : employee. ?- X : person, not Y : boss.").unwrap();
    let mut structure = Structure::new();
    let (stats, analysis) = Engine::new().install_checked(&mut structure, &program).unwrap();
    let errors: Vec<DiagCode> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    assert_eq!(
        errors,
        vec![DiagCode::UnsafeNegationVariable],
        "{}",
        analysis.diagnostics
    );
    assert_eq!(stats.firings, 2, "the fact and mary : person");
    let (mary, person) = (structure.atom("mary"), structure.atom("person"));
    assert!(structure.in_class(mary, person));
}

// ---------------------------------------------------------------------------
// The head walk: a head defines every key `assert_head` writes under.
// ---------------------------------------------------------------------------

/// A cursor over generated choices; past the end every choice is 0, so a
/// decoded term always ends.
struct Choices<'a>(std::slice::Iter<'a, u8>);

impl Choices<'_> {
    /// A choice in `0..n`.
    fn pick(&mut self, n: u8) -> u8 {
        self.0.next().map_or(0, |c| c % n)
    }
}

/// A name among `k0`..`k3`, which serve as objects, methods and classes
/// alike.
fn name_term(c: &mut Choices) -> Term {
    Term::name(format!("k{}", c.pick(4)).as_str())
}

/// A reference of depth at most `depth`: a name, a variable (`X`, `Y` bound
/// to objects, `M` to a method), a scalar path with zero or one argument,
/// an is-a, or a molecule of one or two filters — scalar, explicit-set,
/// set-ref or signature — each part decoded at `depth - 1`.
fn head_term(c: &mut Choices, depth: u32) -> Term {
    let shape = if depth == 0 { c.pick(2) } else { c.pick(5) };
    match shape {
        0 => name_term(c),
        1 => Term::var(["X", "Y", "M"][c.pick(3) as usize]),
        2 => {
            let receiver = head_term(c, depth - 1);
            let method = method_term(c, depth - 1);
            receiver.scalar_args(method, args_term(c, depth - 1))
        }
        3 => head_term(c, depth - 1).isa(method_term(c, depth - 1)),
        _ => {
            let receiver = head_term(c, depth - 1);
            let filters = (0..=c.pick(2)).map(|_| filter_term(c, depth - 1)).collect();
            receiver.filters(filters)
        }
    }
}

/// A method or class position: mostly a name, else the variable `M` or a
/// parenthesised reference (a virtual method such as `(M.tc)`).
fn method_term(c: &mut Choices, depth: u32) -> Term {
    match c.pick(6) {
        0 => Term::var("M"),
        1 => head_term(c, depth).paren(),
        _ => name_term(c),
    }
}

/// Zero or one argument.
fn args_term(c: &mut Choices, depth: u32) -> Vec<Term> {
    (0..c.pick(2)).map(|_| head_term(c, depth)).collect()
}

fn filter_term(c: &mut Choices, depth: u32) -> Filter {
    let method = method_term(c, depth);
    let args = args_term(c, depth);
    let value = match c.pick(4) {
        0 => FilterValue::Scalar(head_term(c, depth)),
        1 => FilterValue::SetExplicit((0..=c.pick(2)).map(|_| head_term(c, depth)).collect()),
        2 => FilterValue::SetRef(head_term(c, depth).set(method_term(c, depth))),
        _ => FilterValue::SigScalar(vec![head_term(c, depth)]),
    };
    Filter { method, args, value }
}

/// The method or class of every scalar fact, set member, is-a edge and
/// signature `after` holds beyond `before` (which it extends).
fn keys_written(before: &Structure, after: &Structure) -> BTreeSet<Oid> {
    let (old, new) = (before.facts(), after.facts());
    let scalars: BTreeSet<_> = old
        .scalar_facts()
        .map(|f| (f.method, f.receiver, f.args.to_vec(), f.result))
        .collect();
    let mut keys: BTreeSet<Oid> = new
        .scalar_facts()
        .filter(|f| !scalars.contains(&(f.method, f.receiver, f.args.to_vec(), f.result)))
        .map(|f| f.method)
        .collect();
    let members = old.set_members_since(0).count();
    keys.extend(
        new.set_members_since(members)
            .map(|(app, _)| new.set_fact_at(app).method),
    );
    let edges: BTreeSet<_> = before.isa().direct_edges().collect();
    keys.extend(
        after
            .isa()
            .direct_edges()
            .filter(|e| !edges.contains(e))
            .map(|(_, class)| class),
    );
    let sigs = before.signatures().len();
    keys.extend(after.signatures().iter().skip(sigs).map(|s| s.method));
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Over generated heads of depth at most 3, asserted over a structure
    /// with set, scalar and is-a facts to find, every key `assert_head`
    /// adds a fact under — succeeding or failing midway on a scalar
    /// conflict — is one the head walk reports in `defines`, or the head
    /// defines `DepKey::Unknown`.
    #[test]
    fn head_walk_defines_every_key_assert_head_writes(
        choices in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let head = head_term(&mut Choices(choices.iter()), 3);
        let mut before = Structure::new();
        let names = parse_program("o0[k0 ->> {o1}; k1 -> o1]. o1[k0 ->> {o0}]. o0 : k2. k3 : k2.").unwrap();
        Engine::new().load_program(&mut before, &names).unwrap();
        let bindings = Bindings::from_pairs([
            (Var::new("X"), before.atom("o0")),
            (Var::new("Y"), before.atom("o1")),
            (Var::new("M"), before.atom("k0")),
        ])
        .unwrap();
        let mut after = before.clone();
        let _ = assert_head(&mut after, &head, &bindings);
        let defines = rule_info(&Rule::fact(head.clone())).defines;
        if !defines.contains(&DepKey::Unknown) {
            for key in keys_written(&before, &after) {
                let name = after.name_of(key).cloned();
                prop_assert!(
                    name.is_some_and(|n| defines.contains(&DepKey::Known(n))),
                    "`{head}` writes under `{}`, which its walk misses: {defines:?}",
                    after.display_name(key)
                );
            }
        }
    }
}
