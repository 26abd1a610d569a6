//! Integration tests reproducing every numbered example of the paper
//! end-to-end: concrete syntax -> parser -> engine -> answers.
//!
//! The experiment ids (E1..E9) refer to the index in `DESIGN.md` /
//! `EXPERIMENTS.md`.

use std::collections::BTreeSet;

use pathlog::prelude::*;

/// The hand-built world the Sections 1–2 examples talk about: employees with
/// vehicles, automobiles with colours/cylinders, producers with presidents.
fn company_world() -> Structure {
    let mut db = ObjectStore::with_schema(Schema::company());
    db.create("dept1", "department").unwrap();
    db.create("mary", "employee").unwrap();
    db.create("john", "employee").unwrap();
    db.create("frank", "manager").unwrap();
    db.set("mary", "age", Value::Int(30)).unwrap();
    db.set("mary", "city", Value::Atom("newYork".into())).unwrap();
    db.set("john", "age", Value::Int(30)).unwrap();
    db.set("john", "city", Value::Atom("detroit".into())).unwrap();
    db.set("frank", "age", Value::Int(50)).unwrap();
    db.set("frank", "city", Value::Atom("detroit".into())).unwrap();
    db.set("mary", "boss", Value::obj("frank")).unwrap();
    db.set("john", "boss", Value::obj("frank")).unwrap();
    db.set("mary", "worksFor", Value::obj("dept1")).unwrap();
    db.set("john", "worksFor", Value::obj("dept1")).unwrap();
    db.set("frank", "worksFor", Value::obj("dept1")).unwrap();

    db.create("comp1", "company").unwrap();
    db.set("comp1", "cityOf", Value::Atom("detroit".into())).unwrap();
    db.set("comp1", "president", Value::obj("frank")).unwrap();
    db.create("comp2", "company").unwrap();
    db.set("comp2", "cityOf", Value::Atom("boston".into())).unwrap();

    // mary: a red 4-cylinder automobile and a blue plain vehicle
    db.create("a1", "automobile").unwrap();
    db.set("a1", "color", Value::Atom("red".into())).unwrap();
    db.set("a1", "cylinders", Value::Int(4)).unwrap();
    db.set("a1", "producedBy", Value::obj("comp2")).unwrap();
    db.create("v1", "vehicle").unwrap();
    db.set("v1", "color", Value::Atom("blue".into())).unwrap();
    db.add("mary", "vehicles", Value::obj("a1")).unwrap();
    db.add("mary", "vehicles", Value::obj("v1")).unwrap();

    // john: a green 6-cylinder automobile
    db.create("a2", "automobile").unwrap();
    db.set("a2", "color", Value::Atom("green".into())).unwrap();
    db.set("a2", "cylinders", Value::Int(6)).unwrap();
    db.add("john", "vehicles", Value::obj("a2")).unwrap();

    // frank (the manager): a red automobile produced by the Detroit company
    // he presides over.
    db.create("a3", "automobile").unwrap();
    db.set("a3", "color", Value::Atom("red".into())).unwrap();
    db.set("a3", "cylinders", Value::Int(8)).unwrap();
    db.set("a3", "producedBy", Value::obj("comp1")).unwrap();
    db.add("frank", "vehicles", Value::obj("a3")).unwrap();

    db.integrity_check().unwrap();
    db.to_structure()
}

fn names(structure: &Structure, oids: impl IntoIterator<Item = Oid>) -> BTreeSet<String> {
    oids.into_iter()
        .map(|o| structure.display_name(o).into_owned())
        .collect()
}

#[test]
fn e1_colours_of_employee_automobiles() {
    // Queries (1.1)-(1.3): SELECT Y.color FROM X IN employee, Y IN X.vehicles
    // WHERE Y IN automobile.
    let s = company_world();
    let engine = Engine::new();
    let term = parse_term("X : employee..vehicles : automobile.color[Z]").unwrap();
    let colours = names(
        &s,
        engine.query_term(&s, &term).unwrap().iter().filter_map(|a| a.object()),
    );
    // a1 red (mary), a2 green (john), a3 red (frank, a manager and therefore
    // an employee); v1 is not an automobile.
    assert_eq!(colours, ["red", "green"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn e1_query_1_4_adds_the_cylinder_condition() {
    let s = company_world();
    let engine = Engine::new();
    let term = parse_term("X : employee..vehicles : automobile[cylinders -> 4].color[Z]").unwrap();
    let colours = names(
        &s,
        engine.query_term(&s, &term).unwrap().iter().filter_map(|a| a.object()),
    );
    assert_eq!(colours, ["red"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn e2_two_dimensional_reference_2_1() {
    // (2.1): X:employee[age->30; city->newYork]..vehicles:automobile[cylinders->4].color[Z]
    let s = company_world();
    let engine = Engine::new();
    let term =
        parse_term("X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]").unwrap();
    let answers = engine.query_term(&s, &term).unwrap();
    assert_eq!(answers.len(), 1);
    let answer = answers.iter().next().unwrap();
    let x = answer.get(&Var::new("X")).unwrap();
    let z = answer.get(&Var::new("Z")).unwrap();
    assert_eq!(s.display_name(x), "mary");
    assert_eq!(s.display_name(z), "red");
}

#[test]
fn e2_nested_path_2_3_boss_city() {
    // (2.3): [city -> X.boss.city] — only employees living in the same city
    // as their boss qualify.  frank (the boss) lives in detroit, so john
    // qualifies and mary (newYork) does not.
    let s = company_world();
    let engine = Engine::new();
    let term = parse_term("X : employee[city -> X.boss.city]").unwrap();
    let xs = names(
        &s,
        engine.query_term(&s, &term).unwrap().iter().filter_map(|a| a.object()),
    );
    assert_eq!(xs, ["john"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn e3_manager_query_single_reference() {
    // Section 2: managers with a red vehicle produced by a company in
    // Detroit whose president is the manager.
    let s = company_world();
    let engine = Engine::new();
    let term = parse_term("X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]").unwrap();
    let managers: BTreeSet<String> = engine
        .query_term(&s, &term)
        .unwrap()
        .iter()
        .filter_map(|a| a.get(&Var::new("X")))
        .map(|o| s.display_name(o).into_owned())
        .collect();
    assert_eq!(managers, ["frank"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn e4_address_rule_2_4_creates_virtual_objects() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "anna : person[street -> \"Main St\"; city -> newYork].
         bert : person[street -> \"2nd Ave\"; city -> detroit].
         X.address[street -> X.street; city -> X.city] <- X : person.",
    )
    .unwrap();
    let stats = engine.load_program(&mut s, &program).unwrap();
    assert_eq!(stats.virtual_objects, 2);
    // The address object is referenced by applying the method address to X.
    let cities = engine
        .eval_ground(&s, &parse_term("anna.address.city").unwrap())
        .unwrap();
    assert_eq!(names(&s, cities), ["newYork"].iter().map(|s| s.to_string()).collect());
    // Re-running the rule does not create further objects (idempotence).
    let stats2 = engine.run_rules(&mut s, &program.rules).unwrap();
    assert_eq!(stats2.virtual_objects, 0);
}

#[test]
fn e5_set_valued_references_section_4() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "p1[assistants ->> {anna, bert}].
         anna[salary -> 1000]. bert[salary -> 2000].
         anna[projects ->> {proj1}]. bert[projects ->> {proj2, proj3}].
         p1[vehicles ->> {car1, car2}].
         p1[paidFor@(car1) -> 100]. p1[paidFor@(car2) -> 200].
         p2[friends ->> p1..assistants].",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();

    // (4.1) p1..assistants
    let assistants = engine.eval_ground(&s, &parse_term("p1..assistants").unwrap()).unwrap();
    assert_eq!(assistants.len(), 2);
    // (4.2) p1..assistants[salary -> 1000] — only anna
    let t = parse_term("p1..assistants[salary -> 1000]").unwrap();
    assert_eq!(
        names(&s, engine.eval_ground(&s, &t).unwrap()),
        ["anna"].iter().map(|s| s.to_string()).collect()
    );
    // (4.4) the assistants of p1 are friends of p2
    let friends = engine.eval_ground(&s, &parse_term("p2..friends").unwrap()).unwrap();
    assert_eq!(friends.len(), 2);
    // p1..assistants.salary — the set of salaries
    let salaries = engine
        .eval_ground(&s, &parse_term("p1..assistants.salary").unwrap())
        .unwrap();
    assert_eq!(salaries.len(), 2);
    // p1..assistants..projects — the set of projects of all assistants
    let projects = engine
        .eval_ground(&s, &parse_term("p1..assistants..projects").unwrap())
        .unwrap();
    assert_eq!(projects.len(), 3);
    // p1.paidFor@(p1..vehicles) — the set of prices paid
    let prices = engine
        .eval_ground(&s, &parse_term("p1.paidFor@(p1..vehicles)").unwrap())
        .unwrap();
    assert_eq!(prices.len(), 2);
    // accessing the assistants one by one through a variable
    let t = parse_term("p1[assistants ->> {X[salary -> 1000]}]").unwrap();
    let solutions = engine.query(&s, &Query::single(t)).unwrap();
    assert_eq!(solutions.len(), 1);
    let solution = solutions.iter().next().unwrap();
    assert_eq!(s.display_name(solution.get(&Var::new("X")).unwrap()), "anna");
}

#[test]
fn e5_ill_formed_example_4_5_is_rejected() {
    // p2[boss -> p1..assistants] — a set-valued reference as the result of a
    // scalar method is not well-formed.
    let term = parse_term("p2[boss -> p1..assistants]").unwrap();
    assert!(!pathlog::core::wellformed::is_well_formed(&term));
    // and using it as a fact is an invalid rule
    let rule = parse_rule("p2[boss -> p1..assistants].").unwrap();
    assert!(pathlog::core::program::validate_rule(&rule).is_err());
}

#[test]
fn e5_scalarity_classification_of_paper_terms() {
    use pathlog::core::scalarity::is_set_valued;
    assert!(!is_set_valued(&parse_term("p1.age").unwrap()));
    assert!(is_set_valued(&parse_term("p1..assistants").unwrap()));
    assert!(is_set_valued(&parse_term("p1..assistants[salary -> 1000]").unwrap()));
    assert!(!is_set_valued(&parse_term("p2[friends ->> p1..assistants]").unwrap()));
    assert!(is_set_valued(&parse_term("p1..assistants.salary").unwrap()));
    assert!(is_set_valued(&parse_term("p1.paidFor@(p1..vehicles)").unwrap()));
    assert!(is_set_valued(&parse_term("john..kids..kids").unwrap()));
}

#[test]
fn e6_intensional_power_method() {
    // X[power -> Y] <- X : automobile.engineOf[power -> Y].
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "a1 : automobile[engineOf -> m100]. m100[power -> 90].
         a2 : automobile[engineOf -> m200]. m200[power -> 120].
         X[power -> Y] <- X : automobile.engineOf[power -> Y].",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let p = engine.eval_ground(&s, &parse_term("a1.power").unwrap()).unwrap();
    assert_eq!(names(&s, p), ["90"].iter().map(|s| s.to_string()).collect());
    let p = engine.eval_ground(&s, &parse_term("a2.power").unwrap()).unwrap();
    assert_eq!(names(&s, p), ["120"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn e6_rule_6_1_vs_6_2() {
    // (6.1) creates a virtual boss for p1; (6.2) only annotates existing bosses.
    let engine = Engine::new();

    let mut s1 = Structure::new();
    let program = parse_program(
        "p1 : employee[worksFor -> cs1].
         X.boss[worksFor -> D] <- X : employee[worksFor -> D].",
    )
    .unwrap();
    let stats = engine.load_program(&mut s1, &program).unwrap();
    assert_eq!(stats.virtual_objects, 1);
    let dept = engine
        .eval_ground(&s1, &parse_term("p1.boss.worksFor").unwrap())
        .unwrap();
    assert_eq!(names(&s1, dept), ["cs1"].iter().map(|s| s.to_string()).collect());

    let mut s2 = Structure::new();
    let program = parse_program(
        "p1 : employee[worksFor -> cs1].
         p2 : employee[worksFor -> cs2; boss -> bert].
         Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].",
    )
    .unwrap();
    let stats = engine.load_program(&mut s2, &program).unwrap();
    assert_eq!(stats.virtual_objects, 0);
    let dept = engine.eval_ground(&s2, &parse_term("bert.worksFor").unwrap()).unwrap();
    assert_eq!(names(&s2, dept), ["cs2"].iter().map(|s| s.to_string()).collect());
    assert!(engine
        .eval_ground(&s2, &parse_term("p1.boss").unwrap())
        .unwrap()
        .is_empty());
}

#[test]
fn e7_transitive_closure_6_4_and_generic_tc() {
    let engine = Engine::new();
    let facts = "peter[kids ->> {tim, mary}]. tim[kids ->> {sally}]. mary[kids ->> {tom, paul}].";

    // (6.4) desc rules
    let mut s = Structure::new();
    let program = parse_program(&format!(
        "{facts}
         X[desc ->> {{Y}}] <- X[kids ->> {{Y}}].
         X[desc ->> {{Y}}] <- X..desc[kids ->> {{Y}}]."
    ))
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let desc = engine.eval_ground(&s, &parse_term("peter..desc").unwrap()).unwrap();
    assert_eq!(
        names(&s, desc),
        ["tim", "mary", "sally", "tom", "paul"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    );

    // generic kids.tc (guarded; see DESIGN.md) reproduces the paper's answer
    // peter[(kids.tc) ->> {tim, mary, sally, tom, paul}].
    let mut s = Structure::new();
    let program = parse_program(&format!(
        "{facts}
         kids : baseMethod.
         X[(M.tc) ->> {{Y}}] <- M : baseMethod, X[M ->> {{Y}}].
         X[(M.tc) ->> {{Y}}] <- M : baseMethod, X..(M.tc)[M ->> {{Y}}]."
    ))
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let closure = engine
        .eval_ground(&s, &parse_term("peter..(kids.tc)").unwrap())
        .unwrap();
    assert_eq!(
        names(&s, closure),
        ["tim", "mary", "sally", "tom", "paul"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    );
    // the derived method is itself referenced through a path — no new name
    // and no function symbol was needed.
    assert!(s.lookup_name(&Name::atom("desc")).is_none());
}

#[test]
fn e8_stratification_requirement() {
    // The paper: a rule whose body uses X[friends ->> p1..assistants] may
    // only run once assistants is complete.  A program where assistants
    // depends on friends the same way cannot be stratified.
    let program = parse_program(
        "p1[reports ->> {anna, bert}].
         p1[assistants ->> {Y}] <- p1[reports ->> {Y}].
         p2 : sociable <- p2[friends ->> p1..assistants].
         p2[friends ->> {anna}].",
    )
    .unwrap();
    let mut s = Structure::new();
    let engine = Engine::new();
    // stratifiable: assistants (stratum 1) before the friends test (stratum 2)
    engine.load_program(&mut s, &program).unwrap();

    let bad = parse_program(
        "p1[assistants ->> {Y}] <- p1[friends ->> {Y}].
         p1[friends ->> p1..assistants] <- p1[assistants ->> {Y}].",
    )
    .unwrap();
    let mut s = Structure::new();
    assert!(matches!(
        engine.load_program(&mut s, &bad),
        Err(Error::NotStratifiable(_))
    ));
}

#[test]
fn e9_xsql_view_6_3_vs_pathlog_virtual_objects() {
    use pathlog::baseline::{materialize, ViewDef};
    // The same derived information through both mechanisms.
    let base = {
        let mut s = Structure::new();
        let engine = Engine::new();
        let program = parse_program("p1 : employee[worksFor -> cs1]. p2 : employee[worksFor -> cs2].").unwrap();
        engine.load_program(&mut s, &program).unwrap();
        s
    };

    // XSQL: CREATE VIEW EmployeeBoss ... OID FUNCTION OF X
    let mut with_view = base.clone();
    let stats = materialize(
        &mut with_view,
        &ViewDef::new("EmployeeBoss", "employee").attr("WorksFor", &["worksFor"]),
    );
    assert_eq!(stats.objects, 2);
    // the derived object needs the function-symbol-style name EmployeeBoss(p1)
    assert!(with_view.lookup_name(&Name::atom("EmployeeBoss(p1)")).is_some());

    // PathLog: the method boss references the virtual object, no new name needed.
    let mut with_rule = base.clone();
    let engine = Engine::new();
    let program = parse_program("X.boss[worksFor -> D] <- X : employee[worksFor -> D].").unwrap();
    let stats = engine.load_program(&mut with_rule, &program).unwrap();
    assert_eq!(stats.virtual_objects, 2);
    let boss_dept = engine
        .eval_ground(&with_rule, &parse_term("p1.boss.worksFor").unwrap())
        .unwrap();
    assert_eq!(
        names(&with_rule, boss_dept),
        ["cs1"].iter().map(|s| s.to_string()).collect()
    );
}

#[test]
fn signatures_make_virtual_objects_type_checkable() {
    // The paper's argument for method-based virtual objects: signatures and
    // type checking apply to them.  Declare boss's worksFor to be a
    // department and give it a non-department: the checker complains.
    let mut s = Structure::new();
    let engine = Engine::new();
    // Note: the virtual bosses are put into their own class `bossObj` rather
    // than into `employee`, because `X.boss : employee <- X : employee` would
    // make every virtual boss an employee and thereby feed the rule that
    // creates bosses — an unbounded cascade of bosses-of-bosses.
    let program = parse_program(
        "employee[worksFor => department].
         bossObj[worksFor => department].
         cs1 : department.
         p1 : employee[worksFor -> cs1].
         p9 : employee[worksFor -> garbage].
         X.boss[worksFor -> D] <- X : employee[worksFor -> D].
         X.boss : bossObj <- X : employee.",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let errors = pathlog::core::typing::type_check(&s);
    // p9's own fact and p9's virtual boss both violate the signature.
    assert_eq!(errors.len(), 2);
    assert!(
        errors.iter().any(|e| s.is_virtual(e.receiver)),
        "a virtual object is among the offenders"
    );
}
