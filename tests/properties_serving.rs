//! Property tests for the MVCC snapshot serving layer (PR 10).
//!
//! The serving contract under test:
//!
//! * **Snapshot isolation** — a session pinned at epoch `k` keeps serving
//!   the epoch-`k` canonical dump bit-identically no matter how many
//!   commits land at epochs `> k`, even when the re-read happens on
//!   another thread after the writer has finished the whole history.
//! * **Engine independence** — the `(epoch, dump)` trace of a mutation
//!   history is the same on every store and engine that replays it.
//! * **Reclamation** — retention entries are freed exactly when the last
//!   pin drops, observable on the structure `Arc`'s strong count.
//! * **One image** (PR 15) — whatever reaches the store, and however
//!   (committed, rejected or dropped transactions, direct mutators,
//!   `create`, `delete_object`), the store's image holds the facts of a
//!   fresh `to_structure()`, and an epoch is published by a successful
//!   commit or by a session that finds the store changed, never by a
//!   rollback.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pathlog::core::snapshot::SnapshotRegistry;
use pathlog::oodb::{CommitError, DeleteMode, ObjectStore, Session, Transaction, Value};
use pathlog::prelude::*;

const WAGE_FLOOR: i64 = 40_000;
const EMPLOYEES: usize = 12;

// -------------------------------------------------------------- histories

/// One attribute write, the unit both stores' histories are made of.
#[derive(Debug, Clone)]
struct Write {
    obj: String,
    attr: &'static str,
    value: Value,
}

impl Write {
    fn set_valued(&self) -> bool {
        matches!(self.attr, "friends" | "kids")
    }

    /// Stage the write in a transaction.  It may name an object a `Delete`
    /// step removed; nothing is staged then.
    fn stage(&self, txn: &mut Transaction<'_>) {
        let _ = match self.set_valued() {
            true => txn.add(&self.obj, self.attr, self.value.clone()),
            false => txn.set(&self.obj, self.attr, self.value.clone()),
        };
    }

    /// Apply the write to the store directly; `true` if it changed it.
    fn direct(&self, db: &mut ObjectStore) -> bool {
        if self.set_valued() {
            let present = db
                .get_set(&self.obj, self.attr)
                .is_some_and(|members| members.contains(&self.value));
            db.add(&self.obj, self.attr, self.value.clone()).is_ok() && !present
        } else {
            db.set(&self.obj, self.attr, self.value.clone()).is_ok()
        }
    }
}

/// How a write reaches the store.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// Through a transaction that commits — or is rejected by the guard.
    Commit,
    /// Through a transaction dropped uncommitted.
    Abort,
    /// Through the store's own mutator, outside any transaction.
    Direct,
}

/// One step of a random history over a store whose objects are drawn from
/// a fixed pool of names (`Create` and `Delete` index into it).
#[derive(Debug, Clone)]
enum Step {
    Write(Write, Via),
    Create(usize),
    Delete(usize),
}

/// Histories of 1–15 steps: half of them committing writes, the rest
/// aborted and direct writes, creations and deletions (never of the pool's
/// first object).
fn steps(writes: impl Strategy<Value = Write>, pool: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (writes, 0..10usize, 1..pool).prop_map(|(write, kind, object)| match kind {
            0..=4 => Step::Write(write, Via::Commit),
            5 => Step::Write(write, Via::Abort),
            6 | 7 => Step::Write(write, Via::Direct),
            8 => Step::Create(object),
            _ => Step::Delete(object),
        }),
        1..16,
    )
}

/// What a structure holds, by name (oids differ between an image that
/// followed a history and one built afterwards): scalar facts, set
/// members, is-a pairs, signatures.
fn named_facts(s: &Structure) -> [BTreeSet<String>; 4] {
    let name = |oid: Oid| format!("{:?}", s.name_of(oid));
    let names = |oids: &[Oid]| oids.iter().map(|&o| name(o)).collect::<Vec<_>>().join(",");
    let scalars = s.facts().scalar_facts();
    let members = s.facts().set_facts().flat_map(|f| {
        let members = f.members.iter();
        members.map(move |&m| (f.method, f.receiver, m))
    });
    [
        scalars
            .map(|f| format!("{}[{} -> {}]", name(f.receiver), name(f.method), name(f.result)))
            .collect(),
        members
            .map(|(method, receiver, m)| format!("{}[{} ->> {}]", name(receiver), name(method), name(m)))
            .collect(),
        s.isa()
            .pairs_since(0)
            .map(|(sub, sup)| format!("{} : {}", name(sub), name(sup)))
            .collect(),
        s.signatures()
            .iter()
            .map(|sig| {
                let arrow = if sig.set_valued { "=>>" } else { "=>" };
                let (args, results) = (names(&sig.arg_classes), names(&sig.result_classes));
                format!("{}[{}@({args}) {arrow} ({results})]", name(sig.class), name(sig.method))
            })
            .collect(),
    ]
}

/// The one-image invariant: the store's image and a fresh `to_structure()`
/// hold the same facts.  Interning is append-only, so the image may still
/// name a value that was overwritten or rolled back, classified into its
/// value class; those memberships are all it may hold beyond the rebuild.
fn assert_image_is_the_store(db: &ObjectStore) {
    let image = db.image().expect("a session was started").structure();
    let [scalars, members, isa, signatures] = named_facts(image);
    let [fresh_scalars, fresh_members, fresh_isa, fresh_signatures] = named_facts(&db.to_structure());
    assert_eq!(scalars, fresh_scalars);
    assert_eq!(members, fresh_members);
    assert_eq!(signatures, fresh_signatures);
    assert!(
        fresh_isa.is_subset(&isa),
        "the image lost {:?}",
        fresh_isa.difference(&isa)
    );
    for extra in isa.difference(&fresh_isa) {
        let value_class = [
            r#": Some(Atom("integer"))"#,
            r#": Some(Atom("string"))"#,
            r#": Some(Atom("atom"))"#,
        ];
        assert!(
            value_class.iter().any(|c| extra.ends_with(c)),
            "the image invented {extra}"
        );
    }
}

/// A store under a random history.  `published` is what the history should
/// have cost the registry: one epoch per successful commit, and one per
/// session that found the store changed outside a commit (`dirty`) — in
/// particular none for a rejected or dropped transaction.
struct History {
    db: ObjectStore,
    /// Names `Create` / `Delete` steps index into.
    pool: Vec<String>,
    /// The class `Create` steps instantiate.
    class: &'static str,
    published: usize,
    dirty: bool,
}

impl History {
    fn new(db: ObjectStore, pool: Vec<String>, class: &'static str) -> Self {
        History {
            db,
            pool,
            class,
            published: 0,
            dirty: true,
        }
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Write(write, Via::Direct) => self.dirty |= write.direct(&mut self.db),
            Step::Write(write, via) => {
                let mut txn = self.db.begin();
                write.stage(&mut txn);
                if matches!(via, Via::Abort) {
                    return;
                }
                match txn.commit() {
                    Ok(receipt) => {
                        assert_eq!(receipt.epoch, Some(self.db.version()));
                        self.published += 1;
                        self.dirty = false;
                    }
                    Err(CommitError::Rejected { .. }) => {}
                    Err(other) => panic!("unexpected commit outcome: {other}"),
                }
            }
            Step::Create(object) => self.dirty |= self.db.create(&self.pool[*object], self.class).is_ok(),
            Step::Delete(object) => {
                self.dirty |= self.db.delete_object(&self.pool[*object], DeleteMode::Cascade).is_ok()
            }
        }
    }

    /// Start a session and hold the store to the invariants.
    fn session(&mut self, engine: Engine) -> Session {
        let session = self.db.begin_session_with(engine);
        self.published += usize::from(std::mem::take(&mut self.dirty));
        assert_eq!(self.db.serving_stats().epochs_published, self.published);
        assert_eq!(session.epoch(), self.db.version());
        assert_image_is_the_store(&self.db);
        session
    }
}

// ---------------------------------------------------------------- company

/// A random write over the guarded company store.  Salaries below the wage
/// floor and self-friendships are written too — the guard must reject them
/// identically in every configuration, and when they arrive directly, the
/// commits after them.
fn company_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0..EMPLOYEES, 30_000i64..80_000).prop_map(|(employee, amount)| Write {
            obj: format!("e{employee}"),
            attr: "salary",
            value: Value::Int(amount),
        }),
        (0..EMPLOYEES, 0..EMPLOYEES).prop_map(|(a, b)| friendship(a, b)),
    ]
}

fn friendship(a: usize, b: usize) -> Write {
    Write {
        obj: format!("e{a}"),
        attr: "friends",
        value: Value::obj(format!("e{b}")),
    }
}

/// The objects of a history: `named` ones that exist from the start, then
/// three that only a `Create` step brings in.
fn pool(named: impl Iterator<Item = String>) -> Vec<String> {
    named.chain((0..3).map(|i| format!("x{i}"))).collect()
}

fn company_pool() -> Vec<String> {
    pool((0..EMPLOYEES).map(|i| format!("e{i}")))
}

fn company_store() -> ObjectStore {
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
    db.set_constraints(constraints, Engine::new())
        .expect("constraints install");
    db
}

/// One guarded commit attempt; accepted or rejected (both are part of a
/// history), panicking on anything else.
fn company_commit(db: &mut ObjectStore, write: &Write) {
    let mut txn = db.begin();
    write.stage(&mut txn);
    match txn.commit() {
        Ok(_) | Err(CommitError::Rejected { .. }) => {}
        Err(other) => panic!("unexpected commit outcome: {other}"),
    }
}

/// Replay `steps` over `history`, pinning a session (through `session`)
/// after the bootstrap and after every step.  Once the whole history has
/// landed, each still-pinned session is re-dumped **on its own thread** and
/// must reproduce the dump captured at pin time.  Returns the
/// `(epoch, dump)` trace.
fn trace(mut history: History, steps: &[Step], session: impl Fn(&mut History) -> Session) -> Vec<(Epoch, String)> {
    let mut pinned = Vec::with_capacity(steps.len() + 1);
    let bootstrap = session(&mut history);
    pinned.push((bootstrap.epoch(), bootstrap.canonical_dump(), bootstrap));
    for step in steps {
        history.step(step);
        let session = session(&mut history);
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
    assert_eq!(
        history.db.pinned_epochs(),
        0,
        "all epochs reclaimed after sessions drop"
    );
    trace
}

/// The trace of a history over the guarded company store.
fn company_trace(steps: &[Step]) -> Vec<(Epoch, String)> {
    let history = History::new(company_store(), company_pool(), "employee");
    trace(history, steps, |history| history.session(Engine::new()))
}

// -------------------------------------------------------------- genealogy

const FAMILY: [&str; 6] = ["peter", "tim", "mary", "sally", "tom", "paul"];

/// A random write over the Section 6 family: kid edges and age updates.
/// The store has no constraints, so its image exists for the sessions
/// alone.
fn family_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0..FAMILY.len(), 0..FAMILY.len()).prop_map(|(parent, child)| Write {
            obj: FAMILY[parent].into(),
            attr: "kids",
            value: Value::obj(FAMILY[child]),
        }),
        (0..FAMILY.len(), 1i64..100).prop_map(|(person, age)| Write {
            obj: FAMILY[person].into(),
            attr: "age",
            value: Value::Int(age),
        }),
    ]
}

fn family_pool() -> Vec<String> {
    pool(FAMILY.iter().map(|name| name.to_string()))
}

/// The trace of a history over the unguarded genealogy store, with reader
/// sessions answering a person query.
fn family_trace(steps: &[Step]) -> Vec<(Epoch, String)> {
    let query = Query::single(Term::var("X").isa("person"));
    let history = History::new(pathlog::datagen::paper_family(), family_pool(), "person");
    trace(history, steps, |history| {
        let session = history.session(Engine::new());
        let persons = session.query(&query).expect("person query serves").len();
        assert_eq!(persons, history.db.members_of("person").len());
        session
    })
}

/// A session pinned at epoch *e* shares its image's storage with the
/// store's image and with every later epoch (a publish copies nothing
/// that a commit did not touch), so this is the isolation that sharing must
/// not break: fifty further commit attempts — friend edges added and
/// removed again, salaries overwritten (a retraction and an assertion
/// each), self-friendships and starvation wages rejected and rolled back,
/// other sessions pinned and dropped in between — leave the pinned dump,
/// counters and answers exactly as they were.
#[test]
fn a_pinned_session_is_untouched_by_fifty_later_commits() {
    let mut db = company_store();
    for (a, b) in [(0, 1), (2, 3), (4, 5)] {
        company_commit(&mut db, &friendship(a, b));
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
    fn company_snapshots_are_isolated_and_engine_independent(steps in steps(company_write(), company_pool().len())) {
        let reference = company_trace(&steps);
        prop_assert!(reference.len() == steps.len() + 1);
        prop_assert_eq!(company_trace(&steps), reference, "a replay on a second store diverged");
    }

    #[test]
    fn genealogy_snapshots_are_isolated_and_engine_independent(steps in steps(family_write(), family_pool().len())) {
        let reference = family_trace(&steps);
        prop_assert!(reference.len() == steps.len() + 1);
        prop_assert_eq!(family_trace(&steps), reference, "a replay on a second store diverged");
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
