//! Cross-crate integration of the production / active rule layer: synthetic
//! workloads from `pathlog-datagen`, conditions written in concrete PathLog
//! syntax (via `pathlog-parser`), deductive pre-processing by the core
//! engine, and reactive post-processing by `pathlog-reactive`.

use std::collections::BTreeSet;

use pathlog::core::names::Name;
use pathlog::core::program::Literal;
use pathlog::core::structure::Structure;
use pathlog::core::term::{Filter, Term};
use pathlog::prelude::*;
use pathlog::reactive::{ActiveStore, EcaAction, Event, ProductionOptions};
use proptest::prelude::*;

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

// ------------------------------------------------- ECA differential property

mod eca_reference {
    //! The written-order trigger matcher the compiled trigger programs are
    //! checked against: per event a seed of the reserved variables, the
    //! rules found by a scan of names, each condition solved by
    //! `solve_body` from the seed with its solutions sorted into canonical
    //! key order, and each action term valuated under its solution.

    use pathlog::core::engine::binding_key;
    use pathlog::core::names::{Name, Var};
    use pathlog::core::semantics::{solve_body, valuate, Bindings};
    use pathlog::core::structure::{Oid, Structure};
    use pathlog::core::term::Term;
    use pathlog::reactive::{
        ActiveOptions, ActiveStats, EcaAction, EcaRule, Event, Notification, NotificationKind, ReactiveError,
    };

    /// A primitive mutation.
    #[derive(Debug, Clone, Copy)]
    pub enum Mutation {
        AssertScalar(Oid, Oid, Oid),
        RetractScalar(Oid, Oid),
        AddSetMember(Oid, Oid, Oid),
        RemoveSetMember(Oid, Oid, Oid),
        AddIsA(Oid, Oid),
    }

    type Result<T> = std::result::Result<T, ReactiveError>;

    pub struct ReferenceStore {
        pub structure: Structure,
        pub rules: Vec<EcaRule>,
        pub options: ActiveOptions,
        pub epoch: u64,
        pub notifications: Vec<Notification>,
    }

    impl ReferenceStore {
        pub fn run_external(&mut self, mutation: Mutation) -> Result<ActiveStats> {
            self.epoch += 1;
            let snapshot = self.options.rollback_on_error.then(|| self.structure.clone());
            let mut stats = ActiveStats::default();
            match self.mutate(mutation, 0, &mut stats) {
                Ok(()) => {
                    self.notify(stats.max_depth_reached, NotificationKind::Quiescent { stats });
                    Ok(stats)
                }
                Err(e) => {
                    if let Some(saved) = snapshot {
                        self.structure = saved;
                    }
                    let reason = e.to_string();
                    self.notify(stats.max_depth_reached, NotificationKind::Aborted { reason });
                    Err(e)
                }
            }
        }

        fn notify(&mut self, round: usize, kind: NotificationKind) {
            self.notifications.push(Notification {
                epoch: self.epoch,
                round,
                kind,
            });
        }

        /// Apply `mutation`: `None` when the structure did not change, else
        /// the event it raises (`None` for an anonymous method) and its seed.
        fn apply(&mut self, mutation: Mutation) -> Result<Option<(Option<Event>, Bindings)>> {
            let seed = |a: &str, x: Oid, b: &str, y: Oid| {
                Bindings::from_pairs([(Var::new(a), x), (Var::new(b), y)]).expect("distinct")
            };
            let s = &mut self.structure;
            let (changed, event, watched, seed): (bool, fn(Name) -> Event, Oid, Bindings) = match mutation {
                Mutation::AssertScalar(m, r, v) => (
                    s.assert_scalar(m, r, &[], v)?.is_new(),
                    Event::ScalarAsserted,
                    m,
                    seed("Receiver", r, "Value", v),
                ),
                Mutation::RetractScalar(m, r) => match s.retract_scalar(m, r, &[]) {
                    Some(old) => (true, Event::ScalarRetracted, m, seed("Receiver", r, "Value", old)),
                    None => return Ok(None),
                },
                Mutation::AddSetMember(m, r, x) => (
                    s.assert_set_member(m, r, &[], x).is_new(),
                    Event::SetMemberAdded,
                    m,
                    seed("Receiver", r, "Member", x),
                ),
                Mutation::RemoveSetMember(m, r, x) => (
                    s.retract_set_member(m, r, &[], x),
                    Event::SetMemberRemoved,
                    m,
                    seed("Receiver", r, "Member", x),
                ),
                Mutation::AddIsA(o, c) => (s.add_isa(o, c), Event::ClassAdded, c, seed("Object", o, "Class", c)),
            };
            Ok(changed.then(|| (s.name_of(watched).cloned().map(event), seed)))
        }

        fn mutate(&mut self, mutation: Mutation, depth: usize, stats: &mut ActiveStats) -> Result<()> {
            if depth > self.options.max_cascade_depth {
                return Err(ReactiveError::LimitExceeded(format!(
                    "trigger cascade exceeded depth {}",
                    self.options.max_cascade_depth
                )));
            }
            stats.max_depth_reached = stats.max_depth_reached.max(depth);
            let Some((event, seed)) = self.apply(mutation)? else {
                return Ok(());
            };
            stats.mutations += 1;
            let Some(event) = event else { return Ok(()) };
            self.notify(depth, NotificationKind::Change { event: event.clone() });
            let mut matching: Vec<usize> = (0..self.rules.len())
                .filter(|&i| self.rules[i].event == event)
                .collect();
            matching.sort_by_key(|&i| (-self.rules[i].priority, i));
            for index in matching {
                let rule = self.rules[index].clone();
                let mut solutions = solve_body(&self.structure, &rule.condition, &seed)?;
                solutions.sort_by_key(binding_key);
                for solution in solutions {
                    stats.firings += 1;
                    if stats.firings > self.options.max_total_firings {
                        return Err(ReactiveError::LimitExceeded(format!(
                            "more than {} trigger firings for one mutation",
                            self.options.max_total_firings
                        )));
                    }
                    self.notify(
                        depth,
                        NotificationKind::Firing {
                            rule: rule.name.clone(),
                        },
                    );
                    for action in &rule.actions {
                        let next = self.compile_action(action, &solution)?;
                        self.mutate(next, depth + 1, stats)?;
                    }
                }
            }
            Ok(())
        }

        fn compile_action(&mut self, action: &EcaAction, b: &Bindings) -> Result<Mutation> {
            Ok(match action {
                EcaAction::AssertScalar {
                    receiver,
                    method,
                    value,
                } => {
                    let m = self.structure.ensure_name(method);
                    let r = self.single(receiver, b, "action receiver")?;
                    Mutation::AssertScalar(m, r, self.single(value, b, "action value")?)
                }
                EcaAction::AddSetMember {
                    receiver,
                    method,
                    member,
                } => {
                    let m = self.structure.ensure_name(method);
                    let r = self.single(receiver, b, "action receiver")?;
                    Mutation::AddSetMember(m, r, self.single(member, b, "action member")?)
                }
                EcaAction::AddIsA { object, class } => {
                    let c = self.structure.ensure_name(class);
                    Mutation::AddIsA(self.single(object, b, "action object")?, c)
                }
                EcaAction::RetractScalar { receiver, method } => {
                    let m = self.structure.ensure_name(method);
                    Mutation::RetractScalar(m, self.single(receiver, b, "action receiver")?)
                }
                EcaAction::RemoveSetMember {
                    receiver,
                    method,
                    member,
                } => {
                    let m = self.structure.ensure_name(method);
                    let r = self.single(receiver, b, "action receiver")?;
                    Mutation::RemoveSetMember(m, r, self.single(member, b, "action member")?)
                }
            })
        }

        fn single(&mut self, term: &Term, bindings: &Bindings, what: &str) -> Result<Oid> {
            if let Term::Name(n) = term {
                return Ok(self.structure.ensure_name(n));
            }
            let objects = valuate(&self.structure, term, bindings)?;
            match objects.len() {
                1 => Ok(objects.into_iter().next().expect("len checked")),
                0 => Err(ReactiveError::InvalidAction(format!(
                    "{what} `{term}` denotes no object"
                ))),
                n => Err(ReactiveError::InvalidAction(format!(
                    "{what} `{term}` denotes {n} objects, expected one"
                ))),
            }
        }
    }
}

/// The rules a case picks from: every condition shape and every action
/// shape a trigger program lowers differently.
fn eca_catalogue() -> Vec<EcaRule> {
    use pathlog::reactive::EcaRule;
    let v = |x: &str| Term::var(x);
    let atom = |x: &str| Name::atom(x);
    let on = |method: &str| Event::ScalarAsserted(atom(method));
    let classify = |object: Term, class: &str| EcaAction::AddIsA {
        object,
        class: atom(class),
    };
    let employee = |x: &str| Literal::pos(v(x).isa("employee"));
    let vehicles_of = |x: &str, member: &str| Literal::pos(v(x).filter(Filter::set("vehicles", vec![v(member)])));
    vec![
        // An empty condition; an action on a variable.
        EcaRule::new("paid", on("salary"), vec![], vec![classify(v("Receiver"), "paid")]),
        // `Receiver : c`; a name as the action's value.
        EcaRule::new(
            "tag",
            on("salary"),
            vec![employee("Receiver")],
            vec![EcaAction::AssertScalar {
                receiver: v("Receiver"),
                method: atom("tag"),
                value: Term::name("tagged"),
            }],
        )
        .with_priority(1),
        // A reserved variable only under `not`: no positive literal.
        EcaRule::new(
            "keep-history",
            Event::ScalarRetracted(atom("salary")),
            vec![Literal::neg(v("Receiver").isa("manager"))],
            vec![EcaAction::AddSetMember {
                receiver: v("Receiver"),
                method: atom("history"),
                member: v("Value"),
            }],
        ),
        // A built-in guard on `Value`.
        EcaRule::new(
            "low",
            on("salary"),
            vec![Literal::pos(v("Value").scalar_args("lt", vec![Term::int(90_000)]))],
            vec![classify(v("Receiver"), "lowPaid")],
        ),
        // A further variable with several solutions; a path receiver, which
        // is valuated.
        EcaRule::new(
            "fleet",
            Event::SetMemberAdded(atom("vehicles")),
            vec![vehicles_of("Receiver", "V")],
            vec![EcaAction::AddSetMember {
                receiver: v("Receiver").scalar("worksFor"),
                method: atom("fleet"),
                member: v("V"),
            }],
        ),
        // A class name the structure does not know until the next rule's
        // action interns it.
        EcaRule::new(
            "regular",
            on("salary"),
            vec![Literal::pos(v("Receiver").isa("seen"))],
            vec![classify(v("Receiver"), "regular")],
        )
        .with_priority(2),
        EcaRule::new(
            "seen",
            Event::ClassAdded(atom("paid")),
            vec![],
            vec![classify(v("Object"), "seen")],
        ),
        // A reserved variable of another event kind: `Member` is free on a
        // scalar event.
        EcaRule::new(
            "insure",
            on("salary"),
            vec![vehicles_of("Receiver", "Member")],
            vec![classify(v("Member"), "insured")],
        ),
        // An unbound variable: the action errs.
        EcaRule::new(
            "ghost",
            Event::ClassAdded(atom("vip")),
            vec![],
            vec![classify(v("Nobody"), "ghost")],
        ),
        // Removal events, retractions and a second cascade level.
        EcaRule::new(
            "untag",
            Event::SetMemberRemoved(atom("vehicles")),
            vec![Literal::neg(v("Member").isa("automobile"))],
            vec![EcaAction::RetractScalar {
                receiver: v("Receiver"),
                method: atom("tag"),
            }],
        ),
        EcaRule::new(
            "forget",
            on("tag"),
            vec![employee("Receiver")],
            vec![EcaAction::RemoveSetMember {
                receiver: v("Receiver"),
                method: atom("history"),
                member: Term::int(70_000),
            }],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eca_matches_a_solve_body_reference(
        seed in 0u64..1_000,
        picks in proptest::collection::vec(0usize..11, 2..9),
        events in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64), 1..24),
        depth in 1usize..5,
        rollback in any::<bool>(),
        few_firings in any::<bool>(),
    ) {
        use eca_reference::{Mutation, ReferenceStore};
        use pathlog::reactive::ActiveOptions;

        let mut base = pathlog::datagen::company::generate_structure(&CompanyParams { seed, ..CompanyParams::scaled(6) });
        let amounts = [50_000, 70_000, 90_000, 120_000].map(|a| base.int(a));
        let extent = |s: &Structure, classes: &[&str]| {
            let found = classes.iter().filter_map(|c| s.lookup_name(&Name::atom(*c)));
            let objects: BTreeSet<_> = found.flat_map(|c| s.instances_of(c).collect::<Vec<_>>()).collect();
            objects.into_iter().collect::<Vec<_>>()
        };
        let employees = extent(&base, &["employee", "manager"]);
        let vehicles = extent(&base, &["vehicle", "automobile"]);
        let (salary, vehicles_m) = (base.atom("salary"), base.atom("vehicles"));
        let classes = [base.atom("manager"), base.atom("vip"), base.atom("paid")];
        // A salary update retracts the old salary first, so that the assert
        // does not conflict with it.
        let mutations: Vec<Mutation> = events
            .iter()
            .flat_map(|&(kind, who, what)| {
                let e = employees[who % employees.len()];
                let x = vehicles[what % vehicles.len()];
                let retract = Mutation::RetractScalar(salary, e);
                match kind {
                    0 => vec![retract, Mutation::AssertScalar(salary, e, amounts[what % amounts.len()])],
                    1 => vec![retract],
                    2 => vec![Mutation::AddSetMember(vehicles_m, e, x)],
                    3 => vec![Mutation::RemoveSetMember(vehicles_m, e, x)],
                    _ => vec![Mutation::AddIsA(e, classes[what % classes.len()])],
                }
            })
            .collect();

        let options = ActiveOptions {
            max_cascade_depth: depth,
            max_total_firings: if few_firings { 4 } else { 100_000 },
            rollback_on_error: rollback,
        };
        let catalogue = eca_catalogue();
        let rules: Vec<_> = picks.iter().map(|&i| catalogue[i].clone()).collect();
        let mut store = ActiveStore::with_options(base.clone(), options);
        for rule in &rules {
            store.add_rule(rule.clone());
        }
        let stream = store.subscribe();
        let mut reference = ReferenceStore {
            structure: base,
            rules,
            options,
            epoch: 0,
            notifications: Vec::new(),
        };
        let case = format!("company seed {seed}, rules {picks:?}, {options:?}");
        for (i, &mutation) in mutations.iter().enumerate() {
            let got = match mutation {
                Mutation::AssertScalar(m, r, v) => store.assert_scalar(m, r, v),
                Mutation::RetractScalar(m, r) => store.retract_scalar(m, r),
                Mutation::AddSetMember(m, r, x) => store.add_set_member(m, r, x),
                Mutation::RemoveSetMember(m, r, x) => store.remove_set_member(m, r, x),
                Mutation::AddIsA(o, c) => store.add_isa(o, c),
            };
            let want = reference.run_external(mutation);
            let text = |r: pathlog::reactive::Result<_>| r.map_err(|e| e.to_string());
            prop_assert_eq!(text(got), text(want), "{case}: event {i} {mutation:?}");
        }
        prop_assert_eq!(stream.drain(), reference.notifications, "{case}: notification streams");
        prop_assert_eq!(
            store.structure().canonical_dump(),
            reference.structure.canonical_dump(),
            "{case}: the structures"
        );
    }
}
