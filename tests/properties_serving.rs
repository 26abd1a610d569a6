//! Property tests for the MVCC snapshot serving layer (PR 10).
//!
//! The serving contract under test:
//!
//! * **Snapshot isolation** — a session pinned at epoch `k` keeps serving
//!   the epoch-`k` canonical dump bit-identically no matter how many
//!   commits land at epochs `> k`, even when the re-read happens on
//!   another thread after the writer has finished the whole history.
//! * **Engine independence** — the `(epoch, dump)` trace of a replayed
//!   mutation history is identical at 1/2/4/8 workers: parallelism changes
//!   wall-clock, never the published snapshots.
//! * **Reclamation** — retention entries are freed exactly when the last
//!   pin drops, observable on the structure `Arc`'s strong count.

use std::sync::Arc;

use proptest::prelude::*;

use pathlog::core::snapshot::SnapshotRegistry;
use pathlog::oodb::{CommitError, ObjectStore, Value};
use pathlog::prelude::*;

const WAGE_FLOOR: i64 = 40_000;
const EMPLOYEES: usize = 12;

fn engine_for(workers: usize) -> Engine {
    if workers <= 1 {
        Engine::new()
    } else {
        Engine::with_options(EvalOptions {
            mode: EvalMode::Parallel { workers },
            ..EvalOptions::default()
        })
    }
}

const WORKERS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------- company

/// A random guarded-commit attempt over the company store.  Salaries below
/// the wage floor and self-friendships are staged too — the guard must
/// reject them identically in every configuration.
#[derive(Debug, Clone)]
enum CompanyOp {
    SetSalary { employee: usize, amount: i64 },
    AddFriend { a: usize, b: usize },
}

fn company_ops() -> impl Strategy<Value = Vec<CompanyOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..EMPLOYEES, 30_000i64..80_000).prop_map(|(employee, amount)| CompanyOp::SetSalary { employee, amount }),
            (0..EMPLOYEES, 0..EMPLOYEES).prop_map(|(a, b)| CompanyOp::AddFriend { a, b }),
        ],
        1..16,
    )
}

fn company_store(workers: usize) -> ObjectStore {
    let mut db = pathlog::datagen::generate_company(&CompanyParams::scaled(EMPLOYEES));
    db.set("e0", "salary", Value::Int(WAGE_FLOOR)).expect("e0 exists");
    let constraints: ConstraintSet = [
        Constraint::new(
            "self_friend",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        )
        .expect("range-restricted"),
        Constraint::new(
            "underpaid",
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(WAGE_FLOOR)])),
            ],
            ConstraintPolicy::Reject,
        )
        .expect("range-restricted"),
    ]
    .into_iter()
    .collect();
    db.set_constraints(constraints, engine_for(workers))
        .expect("constraints install");
    db
}

/// Apply one commit attempt; `Ok(())` whether the guard accepted or
/// rejected it (both are part of the history), panicking on anything else.
fn company_commit(db: &mut ObjectStore, op: &CompanyOp) {
    let mut txn = db.begin();
    match op {
        CompanyOp::SetSalary { employee, amount } => {
            txn.set(&format!("e{employee}"), "salary", Value::Int(*amount))
                .expect("stage salary");
        }
        CompanyOp::AddFriend { a, b } => {
            txn.add(&format!("e{a}"), "friends", Value::obj(format!("e{b}")))
                .expect("stage friend edge");
        }
    }
    match txn.commit() {
        Ok(_) | Err(CommitError::Rejected { .. }) => {}
        Err(other) => panic!("unexpected commit outcome: {other}"),
    }
}

/// Replay `ops`, pinning a session after the bootstrap and after every
/// commit attempt.  Once the whole history has landed, each still-pinned
/// session is re-dumped **on its own thread** and must reproduce the dump
/// captured at pin time.  Returns the `(epoch, dump)` trace.
fn company_trace(ops: &[CompanyOp], workers: usize) -> Vec<(Epoch, String)> {
    let mut db = company_store(workers);
    let mut pinned = Vec::with_capacity(ops.len() + 1);
    let bootstrap = db.begin_session();
    pinned.push((bootstrap.epoch(), bootstrap.canonical_dump(), bootstrap));
    for op in ops {
        company_commit(&mut db, op);
        let session = db.begin_session();
        pinned.push((session.epoch(), session.canonical_dump(), session));
    }
    let readers: Vec<_> = pinned
        .into_iter()
        .map(|(epoch, at_pin, session)| {
            std::thread::spawn(move || {
                let later = session.canonical_dump();
                assert_eq!(
                    at_pin, later,
                    "epoch {epoch}: a pinned session's dump changed under later commits"
                );
                (epoch, later)
            })
        })
        .collect();
    let trace: Vec<(Epoch, String)> = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread exits cleanly"))
        .collect();
    assert_eq!(db.pinned_epochs(), 0, "all epochs reclaimed after sessions drop");
    trace
}

// -------------------------------------------------------------- genealogy

/// A random unguarded mutation over the Section 6 family: kid edges and
/// age updates, committed without constraints so publishing exercises the
/// incremental [`StoreImage`](pathlog::oodb::StoreImage) replay path
/// instead of the guard's shadow.
#[derive(Debug, Clone)]
enum FamilyOp {
    AddKid { parent: usize, child: usize },
    SetAge { person: usize, age: i64 },
}

const FAMILY: [&str; 6] = ["peter", "tim", "mary", "sally", "tom", "paul"];

fn family_ops() -> impl Strategy<Value = Vec<FamilyOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..FAMILY.len(), 0..FAMILY.len()).prop_map(|(parent, child)| FamilyOp::AddKid { parent, child }),
            (0..FAMILY.len(), 1i64..100).prop_map(|(person, age)| FamilyOp::SetAge { person, age }),
        ],
        1..16,
    )
}

/// Replay a genealogy history with reader sessions answering a person
/// query through a parallel engine; same pin-then-re-read-on-a-thread
/// shape as the company trace.
fn family_trace(ops: &[FamilyOp], workers: usize) -> Vec<(Epoch, String)> {
    let mut db = pathlog::datagen::paper_family();
    let query = Query::single(Term::var("X").isa("person"));
    let mut pinned = Vec::with_capacity(ops.len());
    for op in ops {
        let mut txn = db.begin();
        match op {
            FamilyOp::AddKid { parent, child } => {
                txn.add(FAMILY[*parent], "kids", Value::obj(FAMILY[*child]))
                    .expect("stage kid edge");
            }
            FamilyOp::SetAge { person, age } => {
                txn.set(FAMILY[*person], "age", Value::Int(*age)).expect("stage age");
            }
        }
        txn.commit().expect("unguarded commit");
        let session = db.begin_session_with(engine_for(workers));
        let persons = session.query(&query).expect("person query serves").len();
        assert_eq!(persons, FAMILY.len(), "mutations never add persons");
        pinned.push((session.epoch(), session.canonical_dump(), session));
    }
    let readers: Vec<_> = pinned
        .into_iter()
        .map(|(epoch, at_pin, session)| {
            std::thread::spawn(move || {
                assert_eq!(
                    at_pin,
                    session.canonical_dump(),
                    "epoch {epoch}: a pinned session's dump changed under later commits"
                );
                (epoch, at_pin)
            })
        })
        .collect();
    let trace = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread exits cleanly"))
        .collect();
    assert_eq!(db.pinned_epochs(), 0, "all epochs reclaimed after sessions drop");
    trace
}

/// A session pinned at epoch *e* shares its image's storage with the
/// guard's shadow and with every later epoch (a publish copies nothing
/// that a commit did not touch), so this is the isolation that sharing must
/// not break: fifty further commit attempts — friend edges added and
/// removed again, salaries overwritten (a retraction and an assertion
/// each), self-friendships and starvation wages rejected and rolled back,
/// other sessions pinned and dropped in between — leave the pinned dump,
/// counters and answers exactly as they were.
#[test]
fn a_pinned_session_is_untouched_by_fifty_later_commits() {
    let mut db = company_store(1);
    for (a, b) in [(0, 1), (2, 3), (4, 5)] {
        company_commit(&mut db, &CompanyOp::AddFriend { a, b });
    }
    let salaries = Query::single(
        Term::var("X")
            .isa("employee")
            .filter(Filter::scalar("salary", Term::var("S"))),
    );
    let session = db.begin_session();
    let at_pin = session.canonical_dump();
    let stats_at_pin = session.structure().stats();
    let answers_at_pin = session.query(&salaries).expect("query").len();
    let tolerant_at_pin = session.tolerant_query(&salaries).expect("tolerant query").answers.len();

    let name = |i: usize| format!("e{}", i % EMPLOYEES);
    let (mut committed, mut rejected) = (0, 0);
    for i in 0..50usize {
        let mut txn = db.begin();
        match i % 5 {
            0 => txn
                .add(&name(i), "friends", Value::obj(name(i + 3)))
                .expect("stage add"),
            1 => txn
                .add(&name(i), "friends", Value::obj(name(i)))
                .expect("stage self-friendship"),
            2 => assert!(
                txn.remove(&name(i - 2), "friends", &Value::obj(name(i + 1)))
                    .expect("stage remove"),
                "the edge added two steps ago is there to be removed"
            ),
            3 => txn
                .set(&name(i), "salary", Value::Int(WAGE_FLOOR + 1_000 + i as i64))
                .expect("stage salary"),
            _ => txn
                .set(&name(i), "salary", Value::Int(WAGE_FLOOR - 1 - i as i64))
                .expect("stage starvation wage"),
        }
        match txn.commit() {
            Ok(_) => committed += 1,
            Err(CommitError::Rejected { .. }) => rejected += 1,
            Err(other) => panic!("unexpected commit outcome: {other}"),
        }
        if i % 7 == 0 {
            drop(db.begin_session());
        }
    }
    assert_eq!((committed, rejected), (30, 20));

    assert_eq!(
        session.canonical_dump(),
        at_pin,
        "the pinned image changed under later commits"
    );
    assert_eq!(session.structure().stats(), stats_at_pin);
    assert_eq!(session.query(&salaries).expect("query").len(), answers_at_pin);
    assert_eq!(
        session.tolerant_query(&salaries).expect("tolerant query").answers.len(),
        tolerant_at_pin
    );
    let now = db.begin_session();
    assert!(now.epoch() > session.epoch());
    assert_ne!(now.canonical_dump(), at_pin, "thirty commits landed");
    drop((session, now));
    assert_eq!(db.pinned_epochs(), 0, "all epochs reclaimed after sessions drop");
}

// ------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn company_snapshots_are_isolated_and_engine_independent(ops in company_ops()) {
        let reference = company_trace(&ops, 1);
        prop_assert!(reference.len() == ops.len() + 1);
        for workers in WORKERS {
            let trace = company_trace(&ops, workers);
            prop_assert_eq!(&trace, &reference, "trace diverged at workers={}", workers);
        }
    }

    #[test]
    fn genealogy_snapshots_are_isolated_and_engine_independent(ops in family_ops()) {
        let reference = family_trace(&ops, 1);
        prop_assert!(reference.len() == ops.len());
        for workers in WORKERS {
            let trace = family_trace(&ops, workers);
            prop_assert_eq!(&trace, &reference, "trace diverged at workers={}", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reclamation down to the `Arc`: publishing holds one handle, every
    /// pin two more shapes (the retention entry plus one per guard), and
    /// dropping the last pin frees the entry — observable as the strong
    /// count returning to exactly publisher + our probe.
    #[test]
    fn reclamation_frees_the_structure_arc(pins in 1usize..8) {
        let registry = Arc::new(SnapshotRegistry::new());
        let mut s = Structure::new();
        s.atom("a");
        let probe = Arc::new(s);
        registry.publish(1, Arc::clone(&probe));
        // probe + the registry's current snapshot
        prop_assert_eq!(Arc::strong_count(&probe), 2);

        let held: Vec<_> = (0..pins).map(|_| registry.pin().expect("published")).collect();
        // + the retention entry + one clone per pin guard
        prop_assert_eq!(Arc::strong_count(&probe), 3 + pins);
        prop_assert_eq!(registry.pinned_epochs(), 1);

        drop(held);
        prop_assert_eq!(Arc::strong_count(&probe), 2, "retention entry freed with the last pin");
        prop_assert_eq!(registry.pinned_epochs(), 0);

        let mut s2 = Structure::new();
        s2.atom("b");
        registry.publish(2, Arc::new(s2));
        prop_assert_eq!(Arc::strong_count(&probe), 1, "superseded epoch fully released");

        let stats = registry.stats();
        prop_assert_eq!(stats.epochs_published, 2);
        prop_assert_eq!(stats.snapshots_pinned, pins);
        prop_assert_eq!(stats.snapshots_reclaimed, 1);
    }
}
