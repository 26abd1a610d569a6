//! Property-based tests for the engine's delta passes: they run through
//! compiled slot-frame rule bodies in planner-chosen literal order
//! (`pathlog_core::plan`), and the result must be *bit-identical* to the
//! naive oracle (`delta_driven: false`, every rule re-solved in full, in
//! written order, each iteration), on random trees and random (possibly
//! cyclic) graphs.

use proptest::prelude::*;

use pathlog::core::structure::{Oid, Structure};
use pathlog::prelude::*;

/// The recursive closure program both evaluators run: a 2-literal recursive
/// rule, the non-linear closure rule — both of its literals read `desc`, so
/// every iteration that grows `desc` runs two delta passes for it and the
/// writer merges two sorted runs — a second stratum over the closure, a
/// 3-literal join with a deliberately bad written order (the big `desc`
/// relation first), a negation, and two bodies whose built-in guard
/// *enumerates* — `self` binds `Y` to `X`, `neq` runs `Y` over every other
/// object before `Y : parent` filters — which the planner must leave in
/// written order.
const PROGRAM: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                       X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
                       X[desc ->> {Z}] <- X[desc ->> {Y}], Y[desc ->> {Z}].\n\
                       X : parent <- X[kids ->> {Y}].\n\
                       X[gk ->> {Z}] <- X[desc ->> {Z}], Z[kids ->> {W}], Z : parent.\n\
                       X : grandparent <- X[gk ->> {Z}].\n\
                       X : onlyparent <- X : parent, not X : grandparent.\n\
                       X[same ->> {Y}] <- X : grandparent, X[self -> Y], Y : parent.\n\
                       X[peer ->> {Y}] <- X : grandparent, X[neq@(Y) -> X], Y : parent.\n";

/// The proper rules of `PROGRAM`.
const RULES: usize = 9;

/// Load `PROGRAM` with the given options; returns the model dump and stats.
fn run(structure: &Structure, options: EvalOptions) -> (String, EvalStats) {
    let program = parse_program(PROGRAM).expect("program parses");
    let mut s = structure.clone();
    let stats = Engine::with_options(options)
        .load_program(&mut s, &program)
        .expect("evaluation succeeds");
    (s.canonical_dump(), stats)
}

/// Assert `engine ≡ oracle` on `structure`: the naive run is the reference;
/// the engine must reproduce its model byte for byte and its model counters
/// exactly, and a second engine run must repeat the first's whole `EvalStats`
/// (scheduling and planner counters included).
fn assert_engine_matches_oracle(structure: &Structure) {
    let (oracle_dump, oracle_stats) = run(
        structure,
        EvalOptions {
            delta_driven: false,
            ..EvalOptions::default()
        },
    );
    assert_eq!(
        (oracle_stats.delta_solves, oracle_stats.plans_compiled),
        (0, 0),
        "the oracle runs full solves only"
    );

    let (dump, stats) = run(structure, EvalOptions::default());
    assert_eq!(dump, oracle_dump, "model must be byte-identical to the oracle");
    assert_eq!(stats.model_counters(), oracle_stats.model_counters());
    assert!(stats.plans_compiled > 0, "delta passes run compiled");
    let (again_dump, again) = run(structure, EvalOptions::default());
    assert_eq!(again_dump, dump);
    assert_eq!(again, stats, "stats must repeat run to run");
}

/// Facts written in the text are data to the planner: only the proper rules
/// of `PROGRAM` are ever compiled, solved or skipped, however many `kids`
/// facts precede them, and the model still equals the oracle's.
#[test]
fn facts_in_the_text_are_never_planned_or_scheduled() {
    let facts: String = (0..60)
        .map(|i| format!("n{i}[kids ->> {{n{}, n{}}}].\n", 2 * i + 1, 2 * i + 2))
        .collect();
    let program = parse_program(&format!("{facts}{PROGRAM}")).expect("program parses");
    let run = |delta_driven: bool| {
        let mut s = Structure::new();
        let options = EvalOptions {
            delta_driven,
            ..EvalOptions::default()
        };
        let stats = Engine::with_options(options)
            .load_program(&mut s, &program)
            .expect("evaluation succeeds");
        (s.canonical_dump(), stats)
    };
    let (oracle_dump, oracle) = run(false);
    let (planned_dump, planned) = run(true);
    assert_eq!(planned_dump, oracle_dump);
    assert_eq!(planned.model_counters(), oracle.model_counters());

    assert!(planned.plans_compiled > 0);
    assert!(planned.plans_compiled <= RULES * (1 + planned.replans), "{planned:?}");
    let scheduled = planned.full_solves + planned.delta_solves + planned.rules_skipped;
    assert!(scheduled <= RULES * planned.iterations, "{planned:?}");
    assert_eq!(planned.full_solves, RULES, "one full solve per proper rule");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planned_equals_unplanned_on_random_trees(
        depth in 1usize..5,
        fanout in 1usize..4,
        seed in 0u64..300,
    ) {
        let structure = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        assert_engine_matches_oracle(&structure);
    }

    #[test]
    fn planned_equals_unplanned_on_random_graphs(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
    ) {
        // Cyclic graphs: convergence takes a different number of iterations
        // per strongly connected component, exercising re-planning and the
        // seed-flip decision on non-tree shapes.
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        assert_engine_matches_oracle(&structure);
    }
}
