//! Property-based tests for the cost-based join planner (PR 9): with the
//! planner on, delta passes run through compiled slot-frame rule bodies in
//! planner-chosen literal order — and the result must be *bit-identical*
//! to the interpreted written-order path ([`Planner::Off`]), on random
//! trees and random (possibly cyclic) graphs, sequentially and at 1/2/4/8
//! workers on both the pooled and the scoped executor.

use proptest::prelude::*;

use pathlog::core::structure::{Oid, Structure};
use pathlog::prelude::*;

/// The recursive closure program both planner arms evaluate: a 2-literal
/// recursive rule, a second stratum over the closure, a 3-literal join with
/// a deliberately bad written order (the big `desc` relation first), and a
/// negation.
const PROGRAM: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                       X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
                       X : parent <- X[kids ->> {Y}].\n\
                       X[gk ->> {Z}] <- X[desc ->> {Z}], Z[kids ->> {W}], Z : parent.\n\
                       X : grandparent <- X[gk ->> {Z}].\n\
                       X : onlyparent <- X : parent, not X : grandparent.\n";

/// Load `PROGRAM` with the given options; returns the model dump and stats.
fn run(structure: &Structure, options: EvalOptions) -> (String, EvalStats) {
    let program = parse_program(PROGRAM).expect("program parses");
    let mut s = structure.clone();
    let stats = Engine::with_options(options)
        .load_program(&mut s, &program)
        .expect("evaluation succeeds");
    (s.canonical_dump(), stats)
}

/// Zero the planner-only counters so planned and unplanned stats become
/// comparable: everything else (firings, derived facts, iterations, virtual
/// objects, delta/full solves) must be identical across the two arms.
fn without_planner_counters(mut stats: EvalStats) -> EvalStats {
    stats.plans_compiled = 0;
    stats.replans = 0;
    stats.seed_flips = 0;
    stats
}

/// Assert `CostBased ≡ Off` on `structure`: the sequential unplanned run is
/// the reference; every planned run — sequential and 1/2/4/8 workers on
/// both executors — must reproduce its model byte for byte and its
/// non-planner stats exactly, and the planner counters themselves must not
/// depend on mode, executor or worker count.
fn assert_planner_transparent(structure: &Structure) {
    let (ref_dump, ref_stats) = run(
        structure,
        EvalOptions {
            planner: Planner::Off,
            ..EvalOptions::default()
        },
    );
    assert_eq!(ref_stats.plans_compiled, 0, "Planner::Off must compile nothing");
    assert_eq!(ref_stats.seed_flips, 0);

    let mut planned_counters: Option<(usize, usize, usize)> = None;
    let mut check = |options: EvalOptions, what: &str| {
        let (dump, stats) = run(structure, options);
        assert_eq!(
            dump, ref_dump,
            "{what}: model must be byte-identical to unplanned sequential"
        );
        assert_eq!(
            without_planner_counters(stats),
            without_planner_counters(ref_stats),
            "{what}: non-planner stats must be identical to unplanned sequential"
        );
        let counters = (stats.plans_compiled, stats.replans, stats.seed_flips);
        match planned_counters {
            None => {
                assert!(
                    stats.plans_compiled > 0,
                    "{what}: the planner must compile this program"
                );
                planned_counters = Some(counters);
            }
            Some(expected) => assert_eq!(
                counters, expected,
                "{what}: planner counters must not depend on mode, executor or worker count"
            ),
        }
    };

    check(
        EvalOptions {
            planner: Planner::CostBased,
            ..EvalOptions::default()
        },
        "planned sequential",
    );
    for workers in [1usize, 2, 4, 8] {
        for executor in [ExecutorKind::Pooled, ExecutorKind::Scoped] {
            check(
                EvalOptions {
                    planner: Planner::CostBased,
                    mode: EvalMode::Parallel { workers },
                    executor,
                    ..EvalOptions::default()
                },
                &format!("planned {executor:?} x{workers}"),
            );
        }
    }
}

/// Facts written in the text are data to the planner: only the six proper
/// rules of `PROGRAM` are ever compiled, solved or skipped, however many
/// `kids` facts precede them, and the planned model still equals the
/// unplanned one.
#[test]
fn facts_in_the_text_are_never_planned_or_scheduled() {
    let facts: String = (0..60)
        .map(|i| format!("n{i}[kids ->> {{n{}, n{}}}].\n", 2 * i + 1, 2 * i + 2))
        .collect();
    let program = parse_program(&format!("{facts}{PROGRAM}")).expect("program parses");
    let run = |planner: Planner| {
        let mut s = Structure::new();
        let options = EvalOptions {
            planner,
            ..EvalOptions::default()
        };
        let stats = Engine::with_options(options)
            .load_program(&mut s, &program)
            .expect("evaluation succeeds");
        (s.canonical_dump(), stats)
    };
    let (unplanned_dump, unplanned) = run(Planner::Off);
    let (planned_dump, planned) = run(Planner::CostBased);
    assert_eq!(planned_dump, unplanned_dump);
    assert_eq!(without_planner_counters(planned), without_planner_counters(unplanned));

    const RULES: usize = 6;
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
        assert_planner_transparent(&structure);
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
        assert_planner_transparent(&structure);
    }
}
