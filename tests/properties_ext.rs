//! Property-based tests for the extension layers added around the core
//! reproduction: retraction in the fact store, the object-SQL frontend, the
//! F-logic translation, the equivalence of naive and semi-naive
//! (per-literal delta-join) evaluation, the run-to-run identity of repeated
//! evaluations on one engine, and the equivalence of the production engine's
//! incremental matching with re-solving every rule every cycle.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pathlog::core::engine::{binding_key, BindingKey};
use pathlog::core::semantics::{fixpoint, solve_body, Bindings};
use pathlog::core::structure::{Oid, Structure};
use pathlog::core::term::Term;
use pathlog::flogic::{lower, Translator};
use pathlog::prelude::*;
use pathlog::reactive::{apply_action, Action, Firing, ProductionOptions};
use pathlog::sqlfront;

// ---------------------------------------------------------------------------
// 1. Retraction: the fact store behaves like a map / multimap model under any
//    interleaving of asserts and retracts (this exercises the swap-remove
//    index maintenance added for the reactive layer).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    AssertScalar { method: u8, receiver: u8, value: u8 },
    RetractScalar { method: u8, receiver: u8 },
    AddMember { method: u8, receiver: u8, member: u8 },
    RemoveMember { method: u8, receiver: u8, member: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let m = 0u8..3;
    let o = 0u8..5;
    prop_oneof![
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, value)| Op::AssertScalar {
            method,
            receiver,
            value
        }),
        (m.clone(), o.clone()).prop_map(|(method, receiver)| Op::RetractScalar { method, receiver }),
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, member)| Op::AddMember {
            method,
            receiver,
            member
        }),
        (m, o.clone(), o).prop_map(|(method, receiver, member)| Op::RemoveMember {
            method,
            receiver,
            member
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fact_store_with_retraction_matches_a_map_model(ops in prop::collection::vec(op_strategy(), 0..80)) {
        let mut structure = Structure::new();
        let methods: Vec<Oid> = (0..3).map(|i| structure.atom(&format!("m{i}"))).collect();
        let objects: Vec<Oid> = (0..5).map(|i| structure.atom(&format!("o{i}"))).collect();

        let mut scalar_model: BTreeMap<(u8, u8), u8> = BTreeMap::new();
        let mut set_model: BTreeMap<(u8, u8), BTreeSet<u8>> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::AssertScalar { method, receiver, value } => {
                    let outcome = structure.assert_scalar(
                        methods[method as usize], objects[receiver as usize], &[], objects[value as usize]);
                    match scalar_model.get(&(method, receiver)) {
                        Some(&existing) if existing != value => prop_assert!(outcome.is_err(),
                            "conflicting scalar assert must be rejected"),
                        _ => {
                            prop_assert!(outcome.is_ok());
                            scalar_model.insert((method, receiver), value);
                        }
                    }
                }
                Op::RetractScalar { method, receiver } => {
                    let removed = structure.retract_scalar(methods[method as usize], objects[receiver as usize], &[]);
                    let expected = scalar_model.remove(&(method, receiver));
                    prop_assert_eq!(removed, expected.map(|v| objects[v as usize]));
                }
                Op::AddMember { method, receiver, member } => {
                    structure.assert_set_member(
                        methods[method as usize], objects[receiver as usize], &[], objects[member as usize]);
                    set_model.entry((method, receiver)).or_default().insert(member);
                }
                Op::RemoveMember { method, receiver, member } => {
                    let removed = structure.retract_set_member(
                        methods[method as usize], objects[receiver as usize], &[], objects[member as usize]);
                    let expected = set_model.get_mut(&(method, receiver)).map(|s| s.remove(&member)).unwrap_or(false);
                    prop_assert_eq!(removed, expected);
                }
            }
        }

        // Final states agree on every (method, receiver) application.
        for m in 0u8..3 {
            for r in 0u8..5 {
                let stored = structure.apply_scalar(methods[m as usize], objects[r as usize], &[]);
                let expected = scalar_model.get(&(m, r)).map(|&v| objects[v as usize]);
                prop_assert_eq!(stored, expected);
                let stored_members: BTreeSet<Oid> = structure
                    .apply_set(methods[m as usize], objects[r as usize], &[])
                    .map(|run| run.iter().copied().collect())
                    .unwrap_or_default();
                let expected_members: BTreeSet<Oid> = set_model
                    .get(&(m, r))
                    .map(|s| s.iter().map(|&v| objects[v as usize]).collect())
                    .unwrap_or_default();
                prop_assert_eq!(stored_members, expected_members);
            }
        }
        // Counters never go negative / stale.
        prop_assert_eq!(structure.facts().num_scalar(), scalar_model.len());
        let expected_members: usize = set_model.values().map(BTreeSet::len).sum();
        prop_assert_eq!(structure.facts().num_set_members(), expected_members);
    }
}

// ---------------------------------------------------------------------------
// 2. Object-SQL path expressions: print -> parse is the identity, and the
//    compiled PathLog reference is always well-formed.
// ---------------------------------------------------------------------------

fn sql_attr() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "vehicles",
        "color",
        "boss",
        "city",
        "kids",
        "producedBy",
        "president",
    ])
    .prop_map(str::to_string)
}

fn sql_base() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["mary", "peter", "employee", "X", "Y"]).prop_map(str::to_string)
}

#[derive(Debug, Clone)]
enum SqlStep {
    Scalar(String),
    Set(String),
    Selector(String),
    Filter(String, i64),
}

fn sql_step() -> impl Strategy<Value = SqlStep> {
    prop_oneof![
        sql_attr().prop_map(SqlStep::Scalar),
        sql_attr().prop_map(SqlStep::Set),
        prop::sample::select(vec!["Z", "W", "4"]).prop_map(|s| SqlStep::Selector(s.to_string())),
        (sql_attr(), 0i64..100).prop_map(|(a, v)| SqlStep::Filter(a, v)),
    ]
}

fn render_sql_expr(base: &str, steps: &[SqlStep]) -> String {
    let mut text = base.to_string();
    for step in steps {
        match step {
            SqlStep::Scalar(attr) => text.push_str(&format!(".{attr}")),
            SqlStep::Set(attr) => text.push_str(&format!("..{attr}")),
            SqlStep::Selector(sel) => text.push_str(&format!("[{sel}]")),
            SqlStep::Filter(attr, value) => text.push_str(&format!("[{attr} -> {value}]")),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sql_path_expressions_round_trip_and_compile_well_formed(
        base in sql_base(),
        steps in prop::collection::vec(sql_step(), 0..6),
    ) {
        let text = render_sql_expr(&base, &steps);
        let parsed = sqlfront::parse_expression(&text).expect("generated expression parses");
        let printed = parsed.to_string();
        let reparsed = sqlfront::parse_expression(&printed).expect("printed expression parses");
        prop_assert_eq!(&parsed, &reparsed, "print -> parse is the identity for `{}`", printed);

        // Compilation always yields a well-formed PathLog reference.
        let catalog = Catalog::with_set_attrs(["vehicles", "kids"]);
        let mut compiler = sqlfront::Compiler::new(&catalog);
        let term = compiler.term(&parsed).expect("expression compiles");
        prop_assert!(pathlog::core::wellformed::is_well_formed(&term), "`{}` compiled to an ill-formed reference", text);
    }
}

// ---------------------------------------------------------------------------
// 3. F-logic translation: one flat atom per navigation step, and equivalence
//    of the lowered translation with the direct semantics on a table of
//    reference shapes over generated genealogies and company data.
// ---------------------------------------------------------------------------

/// The generated data a shape reads: `person`s with `age` and `kids`, or the
/// company workload.
#[derive(Debug, Clone, Copy)]
enum Data {
    Genealogy,
    Company,
}

/// Translated ≡ direct: each program's one query is compared on its named
/// projections.
const FLOGIC_SHAPES: &[(Data, &str)] = &[
    // Chains of `.` and `..`.
    (Data::Genealogy, "?- X..kids..kids[Z]."),
    (Data::Company, "?- X : employee.boss.worksFor[D]."),
    (Data::Company, "?- X..vehicles.producedBy.president.city[C]."),
    // Molecules with several filters.
    (Data::Genealogy, "?- X : person[age -> A; kids ->> {Y}]."),
    (
        Data::Company,
        "?- X : employee[city -> C; worksFor -> D]..vehicles : automobile[cylinders -> 4; color -> K].",
    ),
    // `[Z]` selectors (`self`).
    (Data::Genealogy, "?- X..kids[Y].age[A]."),
    // A comparison built-in.
    (Data::Genealogy, "?- X[age -> A]..kids[age -> B], B.lt@(A)."),
    (Data::Company, "?- X : employee[age -> A], A.ge@(40)."),
    // `not` over one atom, and over a path of several (an auxiliary rule).
    (Data::Genealogy, "?- X[age -> A]..kids[Y], not Y[age -> A]."),
    (Data::Genealogy, "?- X : person, not X..kids..kids."),
    (Data::Company, "?- X : employee, not X.boss.boss."),
    // A virtual-object head rule.
    (
        Data::Company,
        "X.address[city -> X.city] <- X : employee.\n?- X : employee.address[city -> C].",
    ),
];

/// The answers of `text`'s one query over `base`, by variable and display
/// name: directly, or translated, lowered and projected.
fn named_flogic_answers(base: &Structure, text: &str, translated: bool) -> BTreeSet<BTreeMap<String, String>> {
    let program = parse_program(text).expect("shape parses");
    let (flat, _) = Translator::new().program(&program).expect("shape translates");
    let lowered = lower::lower(&flat);
    let mut structure = base.clone();
    let engine = Engine::new();
    let answers = if translated {
        engine
            .load_program(&mut structure, &lowered)
            .expect("lowered program runs");
        let variables = &flat.queries[0].answer_variables;
        lower::answers(&engine, &structure, &lowered.queries[0], variables)
    } else {
        engine
            .load_program(&mut structure, &program)
            .expect("direct program runs");
        let answers = engine.query(&structure, &program.queries[0]);
        answers.map(|a| a.iter().map(|row| row.bindings()).collect())
    };
    let name = |(v, o): (&Var, Oid)| (v.name().to_string(), structure.display_name(o).into_owned());
    let answers = answers.expect("query evaluates").into_iter();
    answers.map(|b| b.iter().map(name).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn translation_produces_one_atom_per_step(
        scalar_steps in 0usize..5,
        filters in 0usize..4,
        set_steps in 0usize..3,
    ) {
        let mut term = Term::name("mary");
        for i in 0..scalar_steps {
            term = term.scalar(format!("s{i}").as_str());
        }
        for i in 0..set_steps {
            term = term.set(format!("m{i}").as_str());
        }
        for i in 0..filters {
            term = term.filter(pathlog::core::term::Filter::scalar(format!("f{i}").as_str(), Term::int(i as i64)));
        }
        let translation = Translator::new().reference(&term).expect("chain references translate");
        prop_assert_eq!(translation.conjuncts(), scalar_steps + set_steps + filters);
    }

    #[test]
    fn direct_and_translated_agree_on_random_genealogies(
        depth in 1usize..4,
        fanout in 1usize..4,
        seed in 0u64..500,
    ) {
        let genealogy = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        let company = pathlog::datagen::company_structure(&CompanyParams { seed, ..CompanyParams::scaled(30) });
        for &(data, text) in FLOGIC_SHAPES {
            let base = match data {
                Data::Genealogy => &genealogy,
                Data::Company => &company,
            };
            let direct = named_flogic_answers(base, text, false);
            prop_assert_eq!(&direct, &named_flogic_answers(base, text, true), "`{}`", text);
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Naive vs semi-naive evaluation: the engine's per-literal delta joins
//    must reach exactly the structure that the reference fixpoint's naive
//    re-evaluation reaches, on randomized recursive programs over random
//    graphs (trees from the genealogy generator plus arbitrary — possibly
//    cyclic — edge sets).
// ---------------------------------------------------------------------------

/// Optional extra rules layered over the two closure rules, exercising
/// is-a heads, virtual-object creation and a second stratum.
const EXTRA_RULES: &[&str] = &[
    "X : parent <- X[kids ->> {Y}].",
    "X[anc ->> {Y}] <- Y[desc ->> {X}].",
    "X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].",
    "X : deepFamily <- X..desc..desc[self -> Y].",
];

/// Load the program with the engine and with the reference [`fixpoint`]:
/// the reference's result must be a model of the program, and the engine's
/// must be byte-identical to it.
fn run_both_modes(structure: &Structure, program_text: &str) -> (Structure, Structure, EvalStats, EvalStats) {
    let program = parse_program(program_text).expect("generated program parses");
    let mut semi = structure.clone();
    let semi_stats = Engine::new()
        .load_program(&mut semi, &program)
        .expect("semi-naive evaluation succeeds");
    let mut naive = structure.clone();
    let naive_stats = fixpoint(&mut naive, &program, &EvalOptions::default()).expect("naive evaluation succeeds");
    assert!(
        is_model(&naive, &program).expect("the rules check"),
        "the reference reached no model"
    );
    assert_eq!(
        semi.canonical_dump(),
        naive.canonical_dump(),
        "the engine's model is not the reference's"
    );
    (semi, naive, semi_stats, naive_stats)
}

/// A production rule from concrete syntax: `body` is a rule body, and each
/// action an assert (`+reference`) or a retract (`-molecule`).
fn production_rule(name: &str, body: &str, actions: &[&str]) -> ProductionRule {
    let condition = parse_rule(&format!("p <- {body}.")).expect("condition parses").body;
    let actions = actions
        .iter()
        .map(|action| {
            let term = parse_term(&action[1..]).expect("action parses");
            if action.starts_with('+') {
                Action::Assert(term)
            } else {
                Action::Retract(term)
            }
        })
        .collect();
    ProductionRule::new(name, condition, actions)
}

/// Rule sets over a company, one per shape a refresh of a condition treats
/// differently: retract + assert of the fact the condition reads, negated
/// literals, a path receiver (re-solved whole when the salary it reads
/// through a temporary is touched), a negated literal read through a
/// variable no positive literal binds (`Y`, read existentially, so touching
/// `boss` re-solves the condition whole), and an assert that mints virtual
/// objects which a second condition reads.
fn company_rule_sets() -> Vec<ProductionEngine> {
    let sets = [
        vec![production_rule(
            "minimum-wage",
            "X : employee[salary -> S], S.lt@(60000)",
            &["-X[salary -> S]", "+X[salary -> 60000]"],
        )],
        vec![
            production_rule("staff", "X : employee, not X : manager", &["+X : staff"]),
            production_rule(
                "cap",
                "X : staff[salary -> S], S.ge@(100000), not X : capped",
                &["-X[salary -> S]", "+X[salary -> 100000]", "+X : capped"],
            ),
        ],
        vec![
            production_rule(
                "raise",
                "X : manager[salary -> S], S.lt@(100000)",
                &["-X[salary -> S]", "+X[salary -> 100000]"],
            )
            .with_priority(1),
            production_rule(
                "poorly-bossed",
                "X : employee, X.boss[salary -> S], S.lt@(60000)",
                &["+X : poorlyBossed"],
            ),
        ],
        vec![
            production_rule("idle", "X : employee, not Y[boss -> X]", &["+X : idle"]),
            production_rule(
                "self-managed",
                "X : manager[boss -> B]",
                &["-X[boss -> B]", "+X[boss -> X]"],
            ),
        ],
        vec![
            production_rule("office", "X : manager[worksFor -> D]", &["+X.office[building -> D]"]),
            production_rule("seated", "X.office[building -> D], D : department", &["+X : seated"]),
        ],
    ];
    sets.into_iter()
        .map(|rules| {
            let mut engine = ProductionEngine::new();
            for rule in rules {
                engine.add_rule(rule);
            }
            engine
        })
        .collect()
}

/// What `engine` must do to `s`, re-solving every rule's condition every
/// cycle on the written-order reference matcher ([`solve_body`]) and firing
/// the first unfired solution in priority-then-rule-then-key order: the
/// firing trace.
fn full_rematch(engine: &ProductionEngine, s: &mut Structure) -> Vec<Firing> {
    let max_cycles = engine.options().max_cycles;
    let mut fired: Vec<BTreeSet<BindingKey>> = vec![BTreeSet::new(); engine.rules().len()];
    let mut trace = Vec::new();
    for cycle in 1..=max_cycles {
        let mut best: Option<(i64, usize, BindingKey, Bindings)> = None;
        for (r, rule) in engine.rules().iter().enumerate() {
            let solutions = solve_body(s, &rule.condition, &Bindings::new()).expect("reference solve");
            let keyed = solutions.into_iter().map(|b| (binding_key(&b), b));
            let unfired = keyed.filter(|(key, _)| !fired[r].contains(key));
            if let Some((key, bindings)) = unfired.min_by(|a, b| a.0.cmp(&b.0)) {
                let better = best
                    .as_ref()
                    .is_none_or(|b| (b.0, b.1, &b.2) > (-rule.priority, r, &key));
                if better {
                    best = Some((-rule.priority, r, key, bindings));
                }
            }
        }
        let Some((_, r, key, bindings)) = best else {
            return trace;
        };
        for action in &engine.rules()[r].actions {
            apply_action(s, action, &bindings).expect("reference action");
        }
        trace.push(Firing {
            cycle,
            rule: engine.rules()[r].name.clone(),
            bindings: key.iter().map(|(v, o)| (v.to_string(), Oid(*o))).collect(),
        });
        fired[r].insert(key);
    }
    panic!("the reference found no quiescence in {max_cycles} cycles")
}

/// Run `engine` and the reference over copies of `structure`: equal firings,
/// traces and final structures.
fn assert_matches_full_rematch(
    engine: &ProductionEngine,
    structure: &Structure,
) -> std::result::Result<pathlog::reactive::ProductionStats, TestCaseError> {
    let mut s = structure.clone();
    let (stats, trace) = engine.run_traced(&mut s).expect("production run reaches quiescence");
    let mut reference = structure.clone();
    let want = full_rematch(engine, &mut reference);
    prop_assert_eq!(stats.firings, want.len());
    prop_assert_eq!(
        &trace,
        &want,
        "rules: {:?}",
        engine.rules().iter().map(|r| &r.name).collect::<Vec<_>>()
    );
    prop_assert_eq!(s.canonical_dump(), reference.canonical_dump());
    Ok(stats)
}

/// Compare everything that identifies the least fixpoint: structure-level
/// counts plus the answers of the closure query (named objects get identical
/// oids in both runs, so binding sets are comparable exactly).  Panics on
/// mismatch, which the proptest harness reports as a failing case.
fn assert_equivalent(semi: &Structure, naive: &Structure, query: &str) {
    let s1 = semi.stats();
    let s2 = naive.stats();
    assert_eq!(s1.objects, s2.objects, "universe sizes differ");
    assert_eq!(s1.virtuals, s2.virtuals, "virtual-object counts differ");
    assert_eq!(s1.scalar_facts, s2.scalar_facts, "scalar fact counts differ");
    assert_eq!(s1.set_members, s2.set_members, "set member counts differ");
    assert_eq!(s1.isa_edges, s2.isa_edges, "isa edge counts differ");

    let q = parse_program(query).expect("query parses");
    let answers = |s: &Structure| -> BTreeSet<Vec<(String, u32)>> {
        Engine::new()
            .query(s, &q.queries[0])
            .expect("query evaluates")
            .iter()
            .map(|row| row.key().into_iter().map(|(v, o)| (v.to_string(), o)).collect())
            .collect()
    };
    assert_eq!(answers(semi), answers(naive), "query answers differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn naive_and_semi_naive_agree_on_random_genealogies(
        depth in 1usize..5,
        fanout in 1usize..4,
        seed in 0u64..300,
        extras in prop::collection::vec(0usize..4, 0..3),
    ) {
        let structure = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        let mut program = String::from(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n");
        let mut chosen: Vec<usize> = extras;
        chosen.sort();
        chosen.dedup();
        for i in chosen {
            program.push_str(EXTRA_RULES[i]);
            program.push('\n');
        }
        let (semi, naive, semi_stats, naive_stats) = run_both_modes(&structure, &program);
        prop_assert_eq!(semi_stats.derived(), naive_stats.derived());
        assert_equivalent(&semi, &naive, "?- X[desc ->> {Y}].");
    }

    #[test]
    fn reused_pooled_engine_matches_fresh_sequential_engines_on_random_trees(
        depth in 1usize..5,
        fanout in 1usize..4,
        seed in 0u64..300,
    ) {
        // One long-lived engine serving every `load_program` call; each run
        // must be canonical_dump()- and EvalStats-identical to a throwaway
        // engine on the same input (an engine carries nothing between runs).
        let reused = Engine::new();
        let structure = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        let program = parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
             X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].\n").unwrap();
        for round in 0..3 {
            let mut again = structure.clone();
            let again_stats = reused.load_program(&mut again, &program).expect("repeated run succeeds");
            let mut fresh = structure.clone();
            let fresh_stats = Engine::new().load_program(&mut fresh, &program).expect("fresh run succeeds");
            prop_assert_eq!(again_stats, fresh_stats, "EvalStats must match in round {}", round);
            prop_assert_eq!(again.canonical_dump(), fresh.canonical_dump(),
                "models must be byte-identical in round {}", round);
        }
    }

    #[test]
    fn reused_pooled_engine_matches_fresh_sequential_engines_on_random_graphs(
        edges in prop::collection::vec((0u8..10, 0u8..10), 1..30),
    ) {
        // Cyclic graphs: convergence takes a different number of iterations
        // per strongly connected component.
        let reused = Engine::new();
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let nodes: Vec<Oid> = (0..10).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        let program = parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
             X : parent <- X[kids ->> {Y}].\n").unwrap();
        for round in 0..2 {
            let mut again = structure.clone();
            let again_stats = reused.load_program(&mut again, &program).expect("repeated run succeeds");
            let mut fresh = structure.clone();
            let fresh_stats = Engine::new().load_program(&mut fresh, &program).expect("fresh run succeeds");
            prop_assert_eq!(again_stats, fresh_stats, "EvalStats must match in round {}", round);
            prop_assert_eq!(again.canonical_dump(), fresh.canonical_dump(),
                "models must be byte-identical in round {}", round);
        }
    }

    // -----------------------------------------------------------------------
    // 5. Production recognise phases: incremental matching must fire
    //    exactly what re-solving every rule every cycle fires, on random
    //    trees.
    // -----------------------------------------------------------------------

    #[test]
    fn pooled_production_matches_sequential_on_random_trees(
        depth in 1usize..4,
        fanout in 1usize..4,
        seed in 0u64..300,
    ) {
        let structure = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        // The desc closure as production rules, plus a key-disjoint
        // classification phase (parents get marked once desc exists).
        let rules = parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
             X : lineage <- X[desc ->> {Y}].\n").unwrap().rules;
        let mut engine = ProductionEngine::with_options(
            ProductionOptions { max_cycles: 100_000 });
        for rule in &rules {
            engine.add_rule(ProductionRule::new(
                "r",
                rule.body.clone(),
                vec![Action::Assert(rule.head.clone())],
            ));
        }
        let stats = assert_matches_full_rematch(&engine, &structure)?;
        prop_assert!(stats.condition_solves <= stats.cycles * rules.len(),
            "incremental matching may only reduce solves ({} in {} cycles)", stats.condition_solves, stats.cycles);
    }

    #[test]
    fn production_matches_a_full_rematch_reference(
        employees in 4usize..20,
        seed in 0u64..500,
    ) {
        let mut structure = pathlog::datagen::company_structure(
            &CompanyParams { employees, seed, manager_fraction: 0.3, ..CompanyParams::default() });
        // The comparisons' thresholds must be objects of the universe.
        for threshold in [60_000, 100_000] {
            structure.int(threshold);
        }
        for engine in company_rule_sets() {
            assert_matches_full_rematch(&engine, &structure)?;
        }
    }

    #[test]
    fn naive_and_semi_naive_agree_on_random_graphs(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
    ) {
        // Arbitrary directed graphs — self-loops, cycles and shared
        // sub-structures included — exercising convergence paths the tree
        // generator cannot produce.  The EDB `parent isa creature` edge
        // makes every derived `X : parent` also reach the superclass, so a
        // rule reading only `creature` (ordered first, before anything is
        // derived) checks the closure-growth wake-up.
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let (parent, creature) = (structure.atom("parent"), structure.atom("creature"));
        structure.add_isa(parent, creature);
        let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        let program =
            "X : found <- X : creature.\n\
             X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
             X : parent <- X[kids ->> {Y}].\n";
        let (semi, naive, _, _) = run_both_modes(&structure, program);
        assert_equivalent(&semi, &naive, "?- X[desc ->> {Y}].");
        assert_equivalent(&semi, &naive, "?- X : found.");
    }
}

// ---------------------------------------------------------------------------
// 6. Production matching on a fixed payroll against the same reference: the
//    rules a firing does not touch are skipped, and a rule that retracts
//    what its own condition read does not refire on it.
// ---------------------------------------------------------------------------

/// Three employees with salaries, and the thresholds the rules compare with
/// (a comparison literal valuates only objects of the universe).
fn payroll() -> Structure {
    let mut s = Structure::new();
    let employee = s.atom("employee");
    let salary = s.atom("salary");
    for (name, pay) in [("ann", 900), ("bob", 1500), ("cleo", 2000)] {
        let p = s.atom(name);
        let v = s.int(pay);
        s.add_isa(p, employee);
        s.assert_scalar(salary, p, &[], v).unwrap();
    }
    for threshold in [1000, 1600] {
        s.int(threshold);
    }
    s
}

#[test]
fn incremental_matching_skips_unaffected_rules_without_changing_the_run() {
    // A three-phase classification cascade whose later phases stop touching
    // the earlier phases' read keys.
    let mut engine = ProductionEngine::new();
    engine.add_rule(production_rule("staff", "X : employee", &["+X : staff"]));
    engine.add_rule(production_rule(
        "low-band",
        "X : staff[salary -> S], S.lt@(1600)",
        &["+X : lowBand"],
    ));
    engine.add_rule(production_rule(
        "high-band",
        "X : staff[salary -> S], S.ge@(1600)",
        &["+X : highBand"],
    ));
    let stats = assert_matches_full_rematch(&engine, &payroll()).unwrap();
    assert_eq!(stats.firings, 6, "3 staff + 2 low-band + 1 high-band");
    assert_eq!(stats.cycles, stats.firings + 1, "the last cycle finds nothing to fire");
    // The reference re-solves every rule every cycle; the engine only
    // re-solves rules whose read keys the last firing touched.
    assert_eq!(stats.condition_solves + stats.condition_skips, stats.cycles * 3);
    assert!(
        stats.condition_solves < stats.cycles * 3,
        "incremental matching must reduce solves ({} of {})",
        stats.condition_solves,
        stats.cycles * 3
    );
    assert!(stats.condition_skips > 0);
}

#[test]
fn retraction_invalidates_cached_conditions() {
    // The minimum-wage rule retracts the fact its own condition reads; the
    // engine must re-solve after the retraction or it would refire on the
    // stale cached instantiation.
    let mut engine = ProductionEngine::new();
    engine.add_rule(production_rule(
        "minimum-wage",
        "X : employee[salary -> S], S.lt@(1000)",
        &["-X[salary -> S]", "+X[salary -> 1000]"],
    ));
    let stats = assert_matches_full_rematch(&engine, &payroll()).unwrap();
    assert_eq!(stats.firings, 1, "only ann is below minimum wage");
}
