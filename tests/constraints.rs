//! Integrity constraints: property tests for the incremental checker, the
//! check-on-commit guard, tolerant evaluation, and the fault-hardened
//! executor.
//!
//! The central property (the E20 contract): **incremental checking is
//! observationally identical to full re-checking** — after any sequence of
//! mutations, [`ConstraintChecker::check`] returns exactly the violations
//! (same list, same order) that a from-scratch [`ConstraintChecker::check_full`]
//! computes, at every worker count.  The fault tests assert that injected
//! worker panics never change a solve's outcome: the structure's
//! `canonical_dump()` stays bit-identical and the recovery is surfaced in
//! `EvalStats`.

use proptest::prelude::*;

use pathlog::core::builtins::{GT, LT};
use pathlog::core::names::Name;
use pathlog::core::structure::Oid;
use pathlog::datagen::{generate_company, generate_genealogy, CompanyParams, GenealogyParams};
use pathlog::prelude::*;

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// `S < limit`, with `S` already bound to an integer.
fn lt_filter(var: &str, limit: i64) -> Literal {
    Literal::pos(Term::var(var).filter(Filter {
        method: Term::name(LT),
        args: vec![Term::int(limit)],
        value: FilterValue::Scalar(Term::var(var)),
    }))
}

/// `S > limit`, with `S` already bound to an integer.
fn gt_filter(var: &str, limit: i64) -> Literal {
    Literal::pos(Term::var(var).filter(Filter {
        method: Term::name(GT),
        args: vec![Term::int(limit)],
        value: FilterValue::Scalar(Term::var(var)),
    }))
}

/// The company constraint set: no underpaid managers, no self-friendship,
/// no kid-managers.
fn company_constraints() -> ConstraintSet {
    [
        Constraint::new(
            "underpaid_manager",
            vec![
                Literal::pos(Term::var("X").isa("manager")),
                Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
                lt_filter("S", 40_000),
            ],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
        Constraint::new(
            "self_friend",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
        Constraint::new(
            "kid_manager",
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::pos(Term::var("Y").isa("manager")),
            ],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
    ]
    .into_iter()
    .collect()
}

/// The genealogy constraint set: nobody is their own kid, no ancient kids.
fn genealogy_constraints() -> ConstraintSet {
    [
        Constraint::new(
            "self_kid",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
        Constraint::new(
            "ancient_kid",
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::pos(Term::var("Y").filter(Filter::scalar("age", Term::var("A")))),
                gt_filter("A", 80),
            ],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
    ]
    .into_iter()
    .collect()
}

/// The evaluation matrix the equivalence property quantifies over.
fn executor_matrix() -> Vec<EvalOptions> {
    let mut configs = vec![EvalOptions::default()]; // sequential
    for workers in [1usize, 2, 4, 8] {
        configs.push(EvalOptions {
            mode: EvalMode::Parallel { workers },
            ..EvalOptions::default()
        });
    }
    configs
}

/// One random mutation against a structure with known member/value pools.
#[derive(Debug, Clone)]
enum Mutation {
    SetSalary { person: usize, salary: usize },
    SetAge { person: usize, age: usize },
    AddFriend { person: usize, friend: usize },
    RemoveFriend { person: usize, friend: usize },
    AddKid { person: usize, kid: usize },
    RemoveKid { person: usize, kid: usize },
    Promote { person: usize },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    let p = 0usize..12;
    prop_oneof![
        (p.clone(), 0usize..4).prop_map(|(person, salary)| Mutation::SetSalary { person, salary }),
        (p.clone(), 0usize..4).prop_map(|(person, age)| Mutation::SetAge { person, age }),
        (p.clone(), p.clone()).prop_map(|(person, friend)| Mutation::AddFriend { person, friend }),
        (p.clone(), p.clone()).prop_map(|(person, friend)| Mutation::RemoveFriend { person, friend }),
        (p.clone(), p.clone()).prop_map(|(person, kid)| Mutation::AddKid { person, kid }),
        (p.clone(), p.clone()).prop_map(|(person, kid)| Mutation::RemoveKid { person, kid }),
        p.prop_map(|person| Mutation::Promote { person }),
    ]
}

/// Everything a mutation needs: person oids and pre-interned method/value
/// pools (pre-interning keeps the checks incremental — fresh oids would
/// conservatively re-solve everything, which is sound but not the
/// interesting path).
struct Arena {
    people: Vec<Oid>,
    salaries: Vec<Oid>,
    ages: Vec<Oid>,
    salary: Oid,
    age: Oid,
    friends: Oid,
    kids: Oid,
    manager: Oid,
}

impl Arena {
    fn new(s: &mut Structure, people: Vec<Oid>) -> Self {
        // thresholds referenced by the constraint bodies must be interned
        // for the comparison builtins to relate them
        s.int(40_000);
        s.int(80);
        Arena {
            people,
            salaries: [20_000, 35_000, 50_000, 90_000].iter().map(|&v| s.int(v)).collect(),
            ages: [25, 45, 70, 85].iter().map(|&v| s.int(v)).collect(),
            salary: s.atom("salary"),
            age: s.atom("age"),
            friends: s.atom("friends"),
            kids: s.atom("kids"),
            manager: s.atom("manager"),
        }
    }

    fn apply(&self, s: &mut Structure, m: &Mutation) {
        let person = |i: usize| self.people[i % self.people.len()];
        match *m {
            Mutation::SetSalary { person: p, salary } => {
                let r = person(p);
                s.retract_scalar(self.salary, r, &[]);
                s.assert_scalar(self.salary, r, &[], self.salaries[salary % self.salaries.len()])
                    .expect("salary just retracted");
            }
            Mutation::SetAge { person: p, age } => {
                let r = person(p);
                s.retract_scalar(self.age, r, &[]);
                s.assert_scalar(self.age, r, &[], self.ages[age % self.ages.len()])
                    .expect("age just retracted");
            }
            Mutation::AddFriend { person: p, friend } => {
                s.assert_set_member(self.friends, person(p), &[], person(friend));
            }
            Mutation::RemoveFriend { person: p, friend } => {
                s.retract_set_member(self.friends, person(p), &[], person(friend));
            }
            Mutation::AddKid { person: p, kid } => {
                s.assert_set_member(self.kids, person(p), &[], person(kid));
            }
            Mutation::RemoveKid { person: p, kid } => {
                s.retract_set_member(self.kids, person(p), &[], person(kid));
            }
            Mutation::Promote { person: p } => {
                s.add_isa(person(p), self.manager);
            }
        }
    }
}

/// Oids of all employees `emp0..` (company) or all persons (genealogy).
fn people_of(s: &Structure, prefix: &str) -> Vec<Oid> {
    let mut out: Vec<(String, Oid)> = s
        .names()
        .filter(|(name, _)| matches!(name, Name::Atom(a) if a.starts_with(prefix)))
        .map(|(name, oid)| (name.to_string(), oid))
        .collect();
    out.sort();
    out.into_iter().map(|(_, oid)| oid).collect()
}

/// Run `mutations` in chunks over `structure`, checking after every chunk
/// that every incremental checker in the executor matrix agrees exactly
/// with the sequential full-recheck oracle.
fn assert_incremental_equals_full(
    mut structure: Structure,
    constraints: ConstraintSet,
    mutations: &[Mutation],
    chunk: usize,
) {
    let people = people_of(&structure, "");
    assert!(!people.is_empty());
    let arena = Arena::new(&mut structure, people);

    let mut oracle = ConstraintChecker::new(constraints.clone(), Engine::new());
    let mut incremental: Vec<ConstraintChecker> = executor_matrix()
        .into_iter()
        .map(|options| ConstraintChecker::new(constraints.clone(), Engine::with_options(options)))
        .collect();

    for step in mutations.chunks(chunk.max(1)) {
        for m in step {
            arena.apply(&mut structure, m);
        }
        let expected = oracle.check_full(&mut structure).unwrap();
        for (i, checker) in incremental.iter_mut().enumerate() {
            let got = checker.check(&mut structure).unwrap();
            assert_eq!(got, expected, "config #{i} diverged from the full re-check");
        }
    }
}

// ---------------------------------------------------------------------------
// 1. incremental == full re-check, quantified over mutation sequences and
//    the 1/2/4/8-worker × Pooled/Scoped matrix
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_equals_full_on_company_mutations(
        seed in 0u64..4,
        mutations in proptest::collection::vec(mutation_strategy(), 1..25),
    ) {
        let db = generate_company(&CompanyParams {
            employees: 12,
            manager_fraction: 0.3,
            seed,
            ..CompanyParams::default()
        });
        assert_incremental_equals_full(db.to_structure(), company_constraints(), &mutations, 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_equals_full_on_genealogy_mutations(
        seed in 0u64..4,
        mutations in proptest::collection::vec(mutation_strategy(), 1..20),
    ) {
        let db = generate_genealogy(&GenealogyParams {
            roots: 2,
            depth: 2,
            fanout: 2,
            seed,
        });
        assert_incremental_equals_full(db.to_structure(), genealogy_constraints(), &mutations, 4);
    }
}

// ---------------------------------------------------------------------------
// 2. tolerant evaluation coincides with classical evaluation on consistent
//    stores (empty quarantine), under random mutations
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tolerant_coincides_with_classical_on_consistent_stores(
        seed in 0u64..4,
        mutations in proptest::collection::vec(mutation_strategy(), 0..15),
    ) {
        let db = generate_company(&CompanyParams {
            employees: 10,
            manager_fraction: 0.3,
            seed,
            ..CompanyParams::default()
        });
        let mut structure = db.to_structure();
        let people = people_of(&structure, "e");
        let arena = Arena::new(&mut structure, people);
        for m in &mutations {
            arena.apply(&mut structure, m);
        }

        let tolerant_engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        let strict_engine = Engine::new();
        let quarantine = Quarantine::new();
        let query = Query::new(vec![
            Literal::pos(Term::var("X").isa("employee")),
            Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
        ]);

        let classical = strict_engine.query(&structure, &query).unwrap();
        let tolerant = tolerant_query(&tolerant_engine, &structure, &quarantine, &query).unwrap();
        prop_assert_eq!(tolerant.answers.len(), classical.len());
        prop_assert!(tolerant.answers.iter().all(|a| a.status == ConsistencyStatus::Clean));
        prop_assert!(tolerant.suppressed.is_empty());
        prop_assert!(!tolerant.any_tainted());
    }
}

// ---------------------------------------------------------------------------
// 3. fault injection: solves survive injected worker faults bit-identically
// ---------------------------------------------------------------------------

/// Transitive-closure rules over `kids`, enough work to fan out.
fn descendant_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ),
        Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("desc", vec![Term::var("Z")]))),
                Literal::pos(Term::var("Z").filter(Filter::set("kids", vec![Term::var("Y")]))),
            ],
        ),
    ]
}

/// One fixed structure, cloned per run: `ObjectStore::to_structure` interns
/// hash-map entries in iteration order, so two conversions of the same
/// store number their oids differently — bit-identity is only meaningful
/// across runs over clones of the *same* structure.
fn genealogy_structure_for_faults() -> Structure {
    generate_genealogy(&GenealogyParams {
        roots: 3,
        depth: 3,
        fanout: 3,
        seed: 7,
    })
    .to_structure()
}

#[test]
fn injected_task_panics_leave_solves_bit_identical_and_are_counted() {
    let rules = descendant_rules();
    let base = genealogy_structure_for_faults();

    // clean sequential oracle
    let mut baseline = base.clone();
    Engine::new().run_rules(&mut baseline, &rules).unwrap();
    let expected = baseline.canonical_dump();

    // pooled engine with task panics injected: every run must still match
    let engine = Engine::with_options(EvalOptions {
        mode: EvalMode::Parallel { workers: 3 },
        ..EvalOptions::default()
    });
    engine.fault_control().inject_task_panics(3);
    let mut recovered_total = 0;
    for _ in 0..50 {
        let mut s = base.clone();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert_eq!(s.canonical_dump(), expected, "a fault changed the result");
        recovered_total += stats.tasks_recovered;
        if engine.fault_control().pending() == (0, 0) {
            break;
        }
    }
    assert_eq!(engine.fault_control().pending(), (0, 0), "injections never consumed");
    assert!(recovered_total >= 1, "recovery must be surfaced in EvalStats");
    assert_eq!(
        recovered_total,
        engine.fault_control().tasks_recovered(),
        "per-run EvalStats deltas must sum to the control's lifetime counter"
    );
}

#[test]
fn injected_worker_kills_respawn_the_pool_and_preserve_results() {
    let rules = descendant_rules();
    let base = genealogy_structure_for_faults();
    let mut baseline = base.clone();
    Engine::new().run_rules(&mut baseline, &rules).unwrap();
    let expected = baseline.canonical_dump();

    let engine = Engine::with_options(EvalOptions {
        mode: EvalMode::Parallel { workers: 3 },
        ..EvalOptions::default()
    });
    engine.fault_control().inject_worker_kills(2);
    let mut respawned_total = 0;
    for _ in 0..50 {
        let mut s = base.clone();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert_eq!(s.canonical_dump(), expected, "a killed worker changed the result");
        respawned_total += stats.workers_respawned;
        if engine.fault_control().pending() == (0, 0) && respawned_total >= 1 {
            break;
        }
    }
    assert_eq!(engine.fault_control().pending(), (0, 0));
    assert!(respawned_total >= 1, "the pool must respawn killed workers");

    // the healed pool keeps solving correctly with no faults pending
    let mut s = base.clone();
    engine.run_rules(&mut s, &rules).unwrap();
    assert_eq!(s.canonical_dump(), expected);
}

#[test]
fn fault_injected_constraint_checks_agree_with_clean_oracle() {
    let db = generate_company(&CompanyParams {
        employees: 15,
        manager_fraction: 0.4,
        seed: 11,
        ..CompanyParams::default()
    });
    let mut s = db.to_structure();
    s.int(40_000);
    let mut oracle = ConstraintChecker::new(company_constraints(), Engine::new());
    let expected = oracle.check_full(&mut s).unwrap();

    let engine = Engine::with_options(EvalOptions {
        mode: EvalMode::Parallel { workers: 4 },
        ..EvalOptions::default()
    });
    engine.fault_control().inject_task_panics(2);
    let mut checker = ConstraintChecker::new(company_constraints(), engine.clone());
    for _ in 0..50 {
        let got = checker.check_full(&mut s).unwrap();
        assert_eq!(got, expected, "a fault changed the violation set");
        if engine.fault_control().pending() == (0, 0) {
            break;
        }
    }
    assert_eq!(engine.fault_control().pending(), (0, 0));
}

// ---------------------------------------------------------------------------
// 4. check-on-commit over a generated store
// ---------------------------------------------------------------------------

#[test]
fn generated_store_commits_are_guarded_and_incremental() {
    let mut db = generate_company(&CompanyParams {
        employees: 20,
        manager_fraction: 0.3,
        seed: 3,
        ..CompanyParams::default()
    });
    let constraints: ConstraintSet = [
        Constraint::new(
            "self_boss",
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("boss", Term::var("X"))),
            )],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
        Constraint::new(
            "self_friend",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        )
        .unwrap(),
    ]
    .into_iter()
    .collect();
    let baseline = db.set_constraints(constraints, Engine::new()).unwrap();
    assert!(baseline.is_empty(), "datagen stores are consistent: {baseline:?}");
    let installed = db.constraint_guard().unwrap().stats();

    // a legal commit goes through and only re-solves affected constraints
    {
        let mut txn = db.begin();
        txn.add("e0", "friends", pathlog::oodb::Value::obj("e1")).unwrap();
        let receipt = txn.commit().unwrap();
        assert!(receipt.checked && receipt.is_clean());
    }
    let after_legal = db.constraint_guard().unwrap().stats();
    assert_eq!(
        after_legal.condition_solves,
        installed.condition_solves + 1,
        "only the friends constraint re-solves"
    );
    assert_eq!(after_legal.constraints_skipped, installed.constraints_skipped + 1);

    // an illegal commit is rejected wholesale and rolled back
    let before = db.get_set("e0", "friends").cloned();
    let err = {
        let mut txn = db.begin();
        txn.add("e0", "friends", pathlog::oodb::Value::obj("e2")).unwrap();
        txn.add("e0", "friends", pathlog::oodb::Value::obj("e0")).unwrap();
        txn.commit().unwrap_err()
    };
    match err {
        pathlog::oodb::CommitError::Rejected {
            violations,
            rolled_back,
        } => {
            assert_eq!(rolled_back, 2);
            assert_eq!(violations.len(), 1);
            assert_eq!(&*violations[0].constraint, "self_friend");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(db.get_set("e0", "friends").cloned(), before, "rolled back in full");
}
