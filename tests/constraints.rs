//! Integrity constraints: property tests for the incremental checker, the
//! check-on-commit guard and tolerant evaluation.
//!
//! The central property: **incremental checking is
//! observationally identical to full re-checking** — after any sequence of
//! mutations, [`ConstraintChecker::check`] returns exactly the violations
//! (same list, same order) that a from-scratch [`ConstraintChecker::check_full`]
//! computes.  The two share their evaluator (the compiled atoms every query
//! runs on), so neither can vouch for it: both are also held to
//! [`reference_violations`], which solves each denial body with `solve_body`,
//! the written-order interpreter no checker calls.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use pathlog::core::builtins::{GT, LT};
use pathlog::core::engine::{binding_key, BindingKey};
use pathlog::core::names::Name;
use pathlog::core::semantics::solve_body;
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

/// Constraints of the shapes a check cannot narrow in one obvious way: a
/// negated literal, a key read through a path (`X.boss[salary -> S]`) and
/// through a name (`e3[salary -> S]`), one method read twice, and variables
/// that only built-ins and a bare `Y` range over (a fresh object can
/// satisfy them without a fact of its own).
fn edge_constraints() -> ConstraintSet {
    let forbid = |name: &str, body| Constraint::new(name, body, ConstraintPolicy::Reject).unwrap();
    let friends = |x: &str, y: &str| Literal::pos(Term::var(x).filter(Filter::set("friends", vec![Term::var(y)])));
    [
        forbid(
            "kid_not_manager",
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::neg(Term::var("Y").isa("manager")),
            ],
        ),
        forbid(
            "boss_underpaid",
            vec![
                Literal::pos(Term::var("X").isa("manager")),
                Literal::pos(
                    Term::var("X")
                        .scalar("boss")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                lt_filter("S", 40_000),
            ],
        ),
        forbid(
            "e3_underpaid",
            vec![
                Literal::pos(Term::name("e3").filter(Filter::scalar("salary", Term::var("S")))),
                lt_filter("S", 40_000),
            ],
        ),
        forbid("mutual_friends", vec![friends("X", "Y"), friends("Y", "X")]),
        forbid("cheap_value", vec![lt_filter("Y", 40_000)]),
        forbid(
            "cheap_object",
            vec![Literal::pos(Term::var("Y")), lt_filter("Y", 40_000)],
        ),
    ]
    .into_iter()
    .collect()
}

/// One random mutation against a structure with known member/value pools.
/// `MintSalary` writes a salary never named before — a new object of the
/// universe, which re-solves whole only the constraints a new object can
/// satisfy without a fact of its own, and the others for its employee — and
/// `ClearSalary` retracts one without re-asserting.
#[derive(Debug, Clone)]
enum Mutation {
    SetSalary { person: usize, salary: usize },
    SetAge { person: usize, age: usize },
    AddFriend { person: usize, friend: usize },
    RemoveFriend { person: usize, friend: usize },
    AddKid { person: usize, kid: usize },
    RemoveKid { person: usize, kid: usize },
    Promote { person: usize },
    MintSalary { person: usize, value: i64 },
    ClearSalary { person: usize },
}

impl Mutation {
    /// The variant's name: the first word of its `Debug` form.
    fn variant(&self) -> String {
        let debug = format!("{self:?}");
        debug.split(' ').next().unwrap_or_default().to_owned()
    }
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
        p.clone().prop_map(|person| Mutation::Promote { person }),
        (p.clone(), 0i64..100_000).prop_map(|(person, value)| Mutation::MintSalary { person, value }),
        p.prop_map(|person| Mutation::ClearSalary { person }),
    ]
}

/// How many cases of one property drew each [`Mutation`] variant, printed
/// when the property's last case has run (`cargo test -- --nocapture`): a
/// history that never mints an object, or never retracts without
/// re-asserting, checks less than the property's name says.
struct Tally {
    history: &'static str,
    cases: u32,
    drew: Mutex<(u32, BTreeMap<String, u32>)>,
}

impl Tally {
    const fn new(history: &'static str, cases: u32) -> Self {
        Tally {
            history,
            cases,
            drew: Mutex::new((0, BTreeMap::new())),
        }
    }

    fn record(&self, mutations: &[Mutation]) {
        let mut drew = self.drew.lock().unwrap();
        drew.0 += 1;
        let variants: BTreeSet<String> = mutations.iter().map(Mutation::variant).collect();
        for variant in variants {
            *drew.1.entry(variant).or_default() += 1;
        }
        if drew.0 == self.cases {
            println!(
                "{}: {} cases; cases that drew each variant: {:?}",
                self.history, self.cases, drew.1
            );
        }
    }
}

static COMPANY_HISTORIES: Tally = Tally::new("company histories", 12);
static GENEALOGY_HISTORIES: Tally = Tally::new("genealogy histories", 8);
static EDGE_HISTORIES: Tally = Tally::new("edge-shape histories", 12);

/// Everything a mutation needs: person oids and pre-interned method/value
/// pools (pre-interning keeps most new objects out of the histories —
/// only `MintSalary` makes one).
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
        let set_salary = |s: &mut Structure, r: Oid, salary: Oid| {
            s.retract_scalar(self.salary, r, &[]);
            s.assert_scalar(self.salary, r, &[], salary)
                .expect("salary just retracted");
        };
        match *m {
            Mutation::SetSalary { person: p, salary } => {
                set_salary(s, person(p), self.salaries[salary % self.salaries.len()]);
            }
            Mutation::MintSalary { person: p, value } => {
                let minted = s.int(value);
                set_salary(s, person(p), minted);
            }
            Mutation::ClearSalary { person: p } => {
                s.retract_scalar(self.salary, person(p), &[]);
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

/// A violating valuation, as [`ConstraintViolation::binding`] holds it.
type Binding = Vec<(Arc<str>, Oid)>;

/// What the constraints forbid in `s`, found without the checker's
/// evaluator: every denial body solved in written order by `solve_body`, its
/// solutions in `binding_key` order — `(constraint, binding)` pairs in the
/// order the checker reports its violations.
fn reference_violations(s: &Structure, constraints: &ConstraintSet) -> Vec<(Arc<str>, Binding)> {
    let mut pairs = Vec::new();
    for constraint in constraints.iter() {
        let solutions = solve_body(s, constraint.body(), &Bindings::new()).expect("the body solves");
        let mut keys: Vec<BindingKey> = solutions.iter().map(binding_key).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let binding = key.into_iter().map(|(var, oid)| (var, Oid(oid))).collect();
            pairs.push((constraint.name().clone(), binding));
        }
    }
    pairs
}

/// Run `mutations` in chunks over `structure`, on the objects whose names
/// start with `people`, checking after every chunk that the incremental
/// checker, the full re-check and the written-order reference agree
/// exactly.
fn assert_incremental_equals_full(
    mut structure: Structure,
    people: &str,
    constraints: ConstraintSet,
    mutations: &[Mutation],
    chunk: usize,
) {
    let people = people_of(&structure, people);
    assert!(!people.is_empty());
    let arena = Arena::new(&mut structure, people);

    let mut full = ConstraintChecker::new(constraints.clone());
    let mut incremental = ConstraintChecker::new(constraints.clone());

    for step in mutations.chunks(chunk.max(1)) {
        for m in step {
            arena.apply(&mut structure, m);
        }
        let expected = full.check_full(&structure).unwrap();
        let got = incremental.check(&structure).unwrap();
        assert_eq!(got, expected, "the incremental check diverged from the full re-check");
        let pairs: Vec<_> = got.into_iter().map(|v| (v.constraint, v.binding)).collect();
        let reference = reference_violations(&structure, &constraints);
        assert_eq!(
            pairs, reference,
            "both checks diverged from the written-order reference"
        );
    }
}

// ---------------------------------------------------------------------------
// 1. incremental == full re-check, quantified over mutation sequences
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(COMPANY_HISTORIES.cases))]

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
        assert_incremental_equals_full(db.to_structure(), "", company_constraints(), &mutations, 4);
        COMPANY_HISTORIES.record(&mutations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(GENEALOGY_HISTORIES.cases))]

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
        assert_incremental_equals_full(db.to_structure(), "", genealogy_constraints(), &mutations, 4);
        GENEALOGY_HISTORIES.record(&mutations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(EDGE_HISTORIES.cases))]

    #[test]
    fn incremental_equals_full_on_edge_shapes(
        seed in 0u64..4,
        chunk in 1usize..4,
        mutations in proptest::collection::vec(mutation_strategy(), 1..25),
    ) {
        let db = generate_company(&CompanyParams {
            employees: 12,
            manager_fraction: 0.3,
            seed,
            ..CompanyParams::default()
        });
        // On the employees themselves: their bosses and `e3` among them.
        assert_incremental_equals_full(db.to_structure(), "e", edge_constraints(), &mutations, chunk);
        EDGE_HISTORIES.record(&mutations);
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
// 3. check-on-commit over a generated store
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

// ---------------------------------------------------------------------------
// 4. the guard's receipts against a shadow of full re-checks
// ---------------------------------------------------------------------------

/// One write to employee `e{person}` of a generated company.
#[derive(Debug, Clone)]
enum Write {
    /// A salary from a small pool (`value < 4`), or one never named before.
    Salary {
        person: usize,
        value: i64,
    },
    Befriend {
        person: usize,
        friend: usize,
    },
    Unfriend {
        person: usize,
        friend: usize,
    },
}

/// One step of a guarded history.
#[derive(Debug, Clone)]
enum Step {
    /// A transaction, committed.
    Commit(Vec<Write>),
    /// A transaction, dropped uncommitted.
    Abort(Vec<Write>),
    /// A write straight to the store, checked with the next commit.
    Direct(Write),
}

fn write_strategy() -> impl Strategy<Value = Write> {
    let p = 0usize..10;
    prop_oneof![
        (p.clone(), 0i64..4).prop_map(|(person, value)| Write::Salary { person, value }),
        (p.clone(), 0i64..100_000).prop_map(|(person, value)| Write::Salary { person, value }),
        (p.clone(), p.clone()).prop_map(|(person, friend)| Write::Befriend { person, friend }),
        (p.clone(), p).prop_map(|(person, friend)| Write::Unfriend { person, friend }),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let writes = || proptest::collection::vec(write_strategy(), 1..4);
    prop_oneof![
        writes().prop_map(Step::Commit),
        writes().prop_map(Step::Commit),
        writes().prop_map(Step::Abort),
        write_strategy().prop_map(Step::Direct),
    ]
}

/// The guarded constraints: one of each policy, a method read twice, a
/// class test.
fn guarded_constraints() -> ConstraintSet {
    let friends = |x: &str, y: &str| Literal::pos(Term::var(x).filter(Filter::set("friends", vec![Term::var(y)])));
    let paid = |class: &str| {
        Literal::pos(
            Term::var("X")
                .isa(class)
                .filter(Filter::scalar("salary", Term::var("S"))),
        )
    };
    [
        Constraint::new("self_friend", vec![friends("X", "X")], ConstraintPolicy::Reject),
        Constraint::new(
            "mutual_friends",
            vec![friends("X", "Y"), friends("Y", "X")],
            ConstraintPolicy::Warn,
        ),
        Constraint::new(
            "underpaid",
            vec![paid("employee"), lt_filter("S", 35_000)],
            ConstraintPolicy::Quarantine,
        ),
        Constraint::new(
            "manager_underpaid",
            vec![paid("manager"), lt_filter("S", 32_000)],
            ConstraintPolicy::Reject,
        ),
    ]
    .into_iter()
    .map(Result::unwrap)
    .collect()
}

/// What a write does: `(object, attribute, value, remove)`.
fn resolved(w: &Write) -> (String, &'static str, pathlog::oodb::Value, bool) {
    use pathlog::oodb::Value;
    const POOL: [i64; 4] = [20_000, 31_000, 33_000, 50_000];
    let name = |i: usize| format!("e{i}");
    match *w {
        Write::Salary { person, value } => {
            let pooled = usize::try_from(value).ok().and_then(|v| POOL.get(v));
            (
                name(person),
                "salary",
                Value::Int(pooled.copied().unwrap_or(value)),
                false,
            )
        }
        Write::Befriend { person, friend } => (name(person), "friends", Value::obj(name(friend)), false),
        Write::Unfriend { person, friend } => (name(person), "friends", Value::obj(name(friend)), true),
    }
}

/// Apply a write through `$target`, a transaction or the store itself.
macro_rules! apply_write {
    ($target:expr, $write:expr) => {{
        let (obj, attr, value, remove) = resolved($write);
        let done = if remove {
            $target.remove(&obj, attr, &value).map(drop)
        } else if attr == "salary" {
            $target.set(&obj, attr, value)
        } else {
            $target.add(&obj, attr, value)
        };
        done.expect("the company schema takes every write");
    }};
}

/// A violation as the shadow keeps it.
type Accepted = BTreeSet<(Arc<str>, Binding)>;

fn pairs<'v>(violations: impl IntoIterator<Item = &'v ConstraintViolation>) -> Accepted {
    violations
        .into_iter()
        .map(|v| (v.constraint.clone(), v.binding.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every receipt and rejection of a guarded store, and its accepted
    /// violations, against a shadow that re-checks in full: a commit reports
    /// exactly the violations of a full re-check of the staged image that
    /// the shadow has not accepted, grouped by policy in report order, and a
    /// commit that stands makes the shadow accept what the re-check found.
    #[test]
    fn guarded_commits_equal_a_full_recheck_shadow(
        seed in 0u64..4,
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        use pathlog::oodb::{CommitError, CommitReceipt, Value};
        let mut db = generate_company(&CompanyParams {
            employees: 10,
            manager_fraction: 0.3,
            seed,
            ..CompanyParams::default()
        });
        // the comparison thresholds, as objects of the image
        db.set("e0", "salary", Value::Int(35_000)).unwrap();
        db.set("e1", "salary", Value::Int(32_000)).unwrap();
        let constraints = guarded_constraints();
        let baseline = db.set_constraints(constraints.clone(), Engine::new()).unwrap();
        let mut accepted = pairs(&baseline);
        let policy = |v: &ConstraintViolation| constraints.get(&v.constraint).unwrap().policy();
        for step in &steps {
            match step {
                Step::Commit(writes) => {
                    let mut txn = db.begin();
                    for w in writes {
                        apply_write!(txn, w);
                    }
                    let staged = txn.len();
                    let image = txn.store().image().unwrap().structure();
                    let current = ConstraintChecker::new(constraints.clone()).check_full(image).unwrap();
                    let new: Vec<&ConstraintViolation> = current
                        .iter()
                        .filter(|v| !accepted.contains(&(v.constraint.clone(), v.binding.clone())))
                        .collect();
                    let of = |p: ConstraintPolicy| -> Vec<ConstraintViolation> {
                        new.iter().filter(|v| policy(v) == p).map(|&v| v.clone()).collect()
                    };
                    let rejected = of(ConstraintPolicy::Reject);
                    let outcome = txn.commit();
                    if rejected.is_empty() {
                        let receipt = CommitReceipt {
                            committed: staged,
                            checked: true,
                            warnings: of(ConstraintPolicy::Warn),
                            quarantined: of(ConstraintPolicy::Quarantine),
                            epoch: None,
                        };
                        prop_assert_eq!(outcome, Ok(receipt));
                        accepted = pairs(&current);
                    } else {
                        let rejection = CommitError::Rejected {
                            violations: rejected,
                            rolled_back: staged,
                        };
                        prop_assert_eq!(outcome, Err(rejection));
                    }
                }
                Step::Abort(writes) => {
                    let mut txn = db.begin();
                    for w in writes {
                        apply_write!(txn, w);
                    }
                }
                Step::Direct(w) => apply_write!(db, w),
            }
            let accepted_now = db.constraint_guard().unwrap().accepted(db.image().unwrap());
            prop_assert_eq!(pairs(&accepted_now), accepted.clone());
        }
    }
}
