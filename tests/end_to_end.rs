//! End-to-end integration across crates: workload generation -> object store
//! -> persistence -> semantic structure -> rule evaluation -> queries ->
//! baseline comparison.

use std::collections::BTreeSet;

use pathlog::baseline::relational::{queries as relq, tc};
use pathlog::baseline::{evaluate_onedim, OneDimQuery, RelationalDb};
use pathlog::core::semantics::fixpoint;
use pathlog::prelude::*;

#[test]
fn generated_store_survives_persistence_and_conversion() {
    let params = CompanyParams {
        employees: 60,
        seed: 7,
        ..CompanyParams::default()
    };
    let db = pathlog::datagen::generate_company(&params);
    db.integrity_check().unwrap();

    // dump -> load -> dump is stable
    let text = pathlog::oodb::dump(&db);
    let reloaded = pathlog::oodb::load(&text).unwrap();
    assert_eq!(pathlog::oodb::dump(&reloaded), text);
    reloaded.integrity_check().unwrap();

    // conversion preserves counts
    let s1 = db.to_structure();
    let s2 = reloaded.to_structure();
    assert_eq!(s1.stats().scalar_facts, s2.stats().scalar_facts);
    assert_eq!(s1.stats().set_members, s2.stats().set_members);
}

#[test]
fn pathlog_engine_and_baselines_agree_on_generated_data() {
    let structure = pathlog::datagen::company_structure(&CompanyParams {
        employees: 150,
        seed: 3,
        ..CompanyParams::default()
    });
    let engine = Engine::new();
    let db = RelationalDb::from_structure(&structure);

    // E1: colours of employees' automobiles
    let term = parse_term("X : employee..vehicles : automobile.color[Z]").unwrap();
    let pathlog_colours: BTreeSet<Oid> = engine
        .query_term(&structure, &term)
        .unwrap()
        .iter()
        .filter_map(|a| a.object())
        .collect();
    let relational = relq::employee_automobile_colours(&db);
    assert_eq!(pathlog_colours.len(), relational.len());

    let onedim = evaluate_onedim(
        &structure,
        &OneDimQuery::new()
            .from_class("X", "employee")
            .from_set("Y", "X", "vehicles")
            .where_isa("Y", "automobile")
            .select_path("Y", &["color"]),
    );
    assert_eq!(pathlog_colours.len(), onedim.len());

    // E3: the manager query
    let term = parse_term("X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]").unwrap();
    let pathlog_managers: BTreeSet<Oid> = engine
        .query_term(&structure, &term)
        .unwrap()
        .iter()
        .filter_map(|a| a.get(&Var::new("X")))
        .collect();
    let relational = relq::manager_red_detroit_presidents(&structure, &db);
    assert_eq!(pathlog_managers, relational);
}

#[test]
fn transitive_closure_agrees_with_relational_baseline_on_generated_trees() {
    for (depth, fanout) in [(3usize, 3usize), (6, 2), (1, 5)] {
        let structure = pathlog::datagen::genealogy_structure(&GenealogyParams {
            roots: 2,
            depth,
            fanout,
            seed: 11,
        });
        let mut s = structure.clone();
        let program = parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
        )
        .unwrap();
        let stats = Engine::new().load_program(&mut s, &program).unwrap();

        let db = RelationalDb::from_structure(&structure);
        let closure = tc::transitive_closure(&db.attr("kids", "parent", "child"));
        assert_eq!(stats.set_members, closure.len(), "depth={depth} fanout={fanout}");
    }
}

#[test]
fn virtual_objects_on_generated_data_are_typed_and_countable() {
    let structure = pathlog::datagen::company_structure(&CompanyParams {
        employees: 80,
        seed: 5,
        ..CompanyParams::default()
    });
    let mut s = structure.clone();
    let engine = Engine::new();
    let program = parse_program("X.address[street -> X.street; city -> X.city] <- X : employee.").unwrap();
    let stats = engine.load_program(&mut s, &program).unwrap();
    assert_eq!(stats.virtual_objects, 80, "one address per employee");

    // every address is reachable through the path and carries the city
    let term = parse_term("X : employee.address.city[C]").unwrap();
    let solutions = engine.query(&s, &Query::single(term)).unwrap();
    assert_eq!(
        solutions
            .iter()
            .map(|b| b.get(&Var::new("X")).unwrap())
            .collect::<BTreeSet<_>>()
            .len(),
        80
    );

    // the generated extensional data plus the derived virtual objects type-check
    let errors = pathlog::core::typing::type_check(&s);
    assert!(errors.is_empty(), "unexpected type violations: {errors:?}");
}

#[test]
fn queries_through_the_full_stack_with_parsed_program() {
    // Build a store, convert, load a parsed program with rules and queries,
    // and answer the program's own queries.
    let mut db = ObjectStore::with_schema(Schema::genealogy());
    for p in ["peter", "tim", "mary", "sally", "tom", "paul"] {
        db.create(p, "person").unwrap();
    }
    db.add("peter", "kids", Value::obj("tim")).unwrap();
    db.add("peter", "kids", Value::obj("mary")).unwrap();
    db.add("tim", "kids", Value::obj("sally")).unwrap();
    db.add("mary", "kids", Value::obj("tom")).unwrap();
    db.add("mary", "kids", Value::obj("paul")).unwrap();

    let mut structure = db.to_structure();
    let program = parse_program(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
         ?- peter[desc ->> {Z}].
         ?- mary[desc ->> {Z}].",
    )
    .unwrap();
    let engine = Engine::new();
    engine.load_program(&mut structure, &program).unwrap();

    let answers = engine.query(&structure, &program.queries[0]).unwrap();
    assert_eq!(answers.len(), 5);
    let answers = engine.query(&structure, &program.queries[1]).unwrap();
    assert_eq!(answers.len(), 2);
}

/// Regression for the determinism bugfix sweep: two evaluations of the same
/// program — in the same process, so every hash map gets a different random
/// seed — must produce byte-identical canonical dumps and equal `EvalStats`.
/// Before solutions were merged in canonical order, virtual objects were
/// allocated in hash-map iteration order and the dumps differed run-to-run.
#[test]
fn repeated_and_parallel_runs_emit_byte_identical_models() {
    let structure = pathlog::datagen::genealogy_structure(&pathlog::datagen::GenealogyParams {
        roots: 1,
        depth: 6,
        fanout: 2,
        seed: 11,
    });
    let program = parse_program(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
         X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].",
    )
    .unwrap();
    let run = || {
        let mut s = structure.clone();
        let stats = Engine::new().load_program(&mut s, &program).unwrap();
        (s.canonical_dump(), stats)
    };
    let (dump1, stats1) = run();
    let (dump2, stats2) = run();
    assert_eq!(dump1, dump2, "two runs must emit identical bytes");
    assert_eq!(stats1, stats2);
    assert!(stats1.virtual_objects > 0, "the summary rule creates virtual objects");
}

#[test]
fn engine_options_affect_behaviour_but_not_answers() {
    let structure = pathlog::datagen::genealogy_structure(&GenealogyParams {
        roots: 1,
        depth: 5,
        fanout: 2,
        seed: 1,
    });
    let program = parse_program(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
    )
    .unwrap();
    let mut engine = structure.clone();
    let mut reference = structure.clone();
    Engine::new().load_program(&mut engine, &program).unwrap();
    fixpoint(&mut reference, &program, &EvalOptions::default()).unwrap();
    assert_eq!(engine.stats().set_members, reference.stats().set_members);

    // the address rule mints an address object per employee; a derived-fact
    // budget smaller than that turns it into an error
    let address_rule = parse_program("X.address[city -> X.city] <- X : employee.").unwrap();
    let mut s = pathlog::datagen::company_structure(&CompanyParams::scaled(10));
    let employee = s.atom("employee");
    let employees = s.instances_of(employee).count();
    let stats = Engine::new().load_program(&mut s, &address_rule).unwrap();
    assert!(stats.virtual_objects >= employees, "{stats:?}");
    let mut s = pathlog::datagen::company_structure(&CompanyParams::scaled(10));
    let tight = Engine::with_options(EvalOptions {
        max_derived: 5,
        ..EvalOptions::default()
    });
    let err = tight.load_program(&mut s, &address_rule).unwrap_err();
    assert!(matches!(err, Error::LimitExceeded { .. }), "{err}");
}
