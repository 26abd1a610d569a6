//! Cross-crate integration of the production / active rule layer: synthetic
//! workloads from `pathlog-datagen`, conditions written in concrete PathLog
//! syntax (via `pathlog-parser`), deductive pre-processing by the core
//! engine, and reactive post-processing by `pathlog-reactive`.

use std::collections::BTreeSet;

use pathlog::core::names::Name;
use pathlog::core::program::Literal;
use pathlog::core::term::{Filter, Term};
use pathlog::prelude::*;
use pathlog::reactive::{ActiveStore, EcaAction, Event, ProductionOptions};

/// Conditions can be written in concrete PathLog syntax and reused as
/// production-rule conditions: the body of a parsed rule is a `Vec<Literal>`.
fn body_of(rule_text: &str) -> Vec<Literal> {
    parse_rule(rule_text).expect("rule parses").body
}

#[test]
fn production_rules_with_parsed_conditions_close_over_deductive_output() {
    // Deductive phase: give every employee a virtual address (rule 2.4).
    let mut structure = pathlog::datagen::company::generate_structure(&CompanyParams::scaled(60));
    let program = parse_program("X.address[city -> X.city] <- X : employee.").unwrap();
    let engine = Engine::new();
    let deductive = engine.load_program(&mut structure, &program).unwrap();
    assert!(deductive.virtual_objects > 0);

    // Reactive phase: a production rule that marks every employee whose
    // (virtual) address is in Detroit as a commuter candidate.
    let mut production = ProductionEngine::new();
    production.add_rule(ProductionRule::new(
        "commuters",
        body_of("X : commuter <- X : employee.address[city -> detroit]."),
        vec![Action::Assert(Term::var("X").isa("commuter"))],
    ));
    let stats = production.run(&mut structure).unwrap();

    // The production rule found exactly the employees whose city is Detroit.
    let detroit_employees: BTreeSet<Oid> = engine
        .query_term(&structure, &parse_term("X : employee[city -> detroit]").unwrap())
        .unwrap()
        .iter()
        .filter_map(|a| a.get(&Var::new("X")))
        .collect();
    let commuter = structure.lookup_name(&Name::atom("commuter")).unwrap();
    let commuters: BTreeSet<Oid> = structure.instances_of(commuter).collect();
    assert_eq!(commuters, detroit_employees);
    assert_eq!(stats.firings, commuters.len());
}

#[test]
fn production_retraction_then_deduction_stays_a_model() {
    // Retract all boss facts with a production rule, then check that the
    // structure still satisfies the (boss-free) program — i.e. retraction
    // leaves a consistent structure behind.
    let mut structure = pathlog::datagen::company::generate_structure(&CompanyParams::scaled(30));
    let mut production = ProductionEngine::new();
    production.add_rule(ProductionRule::new(
        "drop-bosses",
        vec![Literal::pos(
            Term::var("X")
                .isa("employee")
                .filter(Filter::scalar("boss", Term::var("B"))),
        )],
        vec![Action::Retract(
            Term::var("X").filter(Filter::scalar("boss", Term::var("B"))),
        )],
    ));
    let stats = production.run(&mut structure).unwrap();
    assert!(stats.retracted > 0);
    let remaining = Engine::new()
        .query_term(&structure, &parse_term("X : employee.boss").unwrap())
        .unwrap();
    assert!(remaining.is_empty(), "no boss facts survive");

    // The deductive engine still works on the mutated structure.
    let program = parse_program("X.boss[worksFor -> D] <- X : employee[worksFor -> D].").unwrap();
    let redo = Engine::new().load_program(&mut structure, &program).unwrap();
    assert!(redo.virtual_objects > 0, "every employee now gets a fresh virtual boss");
    let violations = pathlog::core::semantics::violations(&structure, &program).unwrap();
    assert!(violations.is_empty(), "the fixpoint is a model of the program");
}

#[test]
fn active_triggers_keep_a_derived_attribute_in_sync() {
    // The trigger layer maintains carCount for every employee as vehicles are
    // added and removed.
    let base = pathlog::datagen::company::generate_structure(&CompanyParams::scaled(10));
    let mut store = ActiveStore::new(base);
    store.add_rule(EcaRule::new(
        "on-add",
        Event::SetMemberAdded(Name::atom("vehicles")),
        vec![Literal::pos(Term::var("Receiver").isa("employee"))],
        vec![EcaAction::AddIsA {
            object: Term::var("Member"),
            class: Name::atom("tracked"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "on-remove",
        Event::SetMemberRemoved(Name::atom("vehicles")),
        vec![],
        vec![EcaAction::AddSetMember {
            receiver: Term::var("Receiver"),
            method: Name::atom("formerVehicles"),
            member: Term::var("Member"),
        }],
    ));

    let vehicles = store.oid("vehicles");
    let e0 = store.oid("e0");
    let bike = store.oid("newBike");
    let add = store.add_set_member(vehicles, e0, bike).unwrap();
    assert_eq!(add.firings, 1);
    let remove = store.remove_set_member(vehicles, e0, bike).unwrap();
    assert_eq!(remove.firings, 1);

    let structure = store.into_structure();
    let tracked = structure.lookup_name(&Name::atom("tracked")).unwrap();
    let bike = structure.lookup_name(&Name::atom("newBike")).unwrap();
    assert!(structure.in_class(bike, tracked));
    let former = structure.lookup_name(&Name::atom("formerVehicles")).unwrap();
    let e0 = structure.lookup_name(&Name::atom("e0")).unwrap();
    assert!(structure.apply_set(former, e0, &[]).unwrap().contains(&bike));
}

#[test]
fn production_and_deductive_engines_agree_on_monotone_rule_sets() {
    // For a purely additive rule set (no retraction), running it as
    // production rules or as deductive rules derives the same facts — the
    // "evaluation strategy is orthogonal" claim made concrete.
    let base = pathlog::datagen::genealogy::paper_family().to_structure();

    // Deductive: desc as transitive closure of kids.
    let mut deductive = base.clone();
    let program = parse_program(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
    )
    .unwrap();
    Engine::new().load_program(&mut deductive, &program).unwrap();

    // Production: the same two rules as condition/action pairs.
    let mut produced = base.clone();
    let mut engine = ProductionEngine::with_options(ProductionOptions { max_cycles: 1_000 });
    for rule in &program.rules {
        engine.add_rule(ProductionRule::new(
            "desc",
            rule.body.clone(),
            vec![Action::Assert(rule.head.clone())],
        ));
    }
    engine.run(&mut produced).unwrap();

    let collect = |s: &Structure| -> BTreeSet<(String, String)> {
        let desc = s.lookup_name(&Name::atom("desc")).unwrap();
        s.facts()
            .set_facts_of_method(desc)
            .flat_map(|f| {
                let receiver = s.display_name(f.receiver).into_owned();
                f.members
                    .iter()
                    .map(move |&m| (receiver.clone(), s.display_name(m).into_owned()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(collect(&deductive), collect(&produced));
    assert_eq!(
        collect(&deductive).len(),
        8,
        "the paper family has eight descendant pairs"
    );
}
