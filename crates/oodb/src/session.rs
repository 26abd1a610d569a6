//! MVCC reader sessions over an [`ObjectStore`].
//!
//! [`ObjectStore::begin_session`] hands out cheap pinned-snapshot
//! [`Session`]s: each session holds an immutable, epoch-stamped
//! [`Snapshot`] of the store's PathLog image and answers queries against it
//! **without any store lock** — sessions are `Send`, so any number of
//! reader threads can query concurrently while the single writer (the
//! `&mut ObjectStore` holder) keeps committing [`Transaction`] batches
//! through the constraint guard.  Every successful commit publishes a new
//! epoch to the store's [`SnapshotRegistry`]; sessions opened earlier keep
//! seeing their pinned epoch bit-identically (`canonical_dump()`-stable)
//! until dropped, at which point the registry reclaims snapshots nobody
//! pins anymore.
//!
//! One version authority: the published epoch **is** the store's `version`
//! counter.  Every effective mutation bumps it, a rolled-back transaction
//! puts it back and starting a session leaves it alone, so "the registry's
//! current epoch equals the store's version" is the whole test for "the
//! published snapshot is current" — a session started after a rollback
//! re-pins the epoch it would have pinned before.  What gets published is
//! always a clone of the store's one image ([`ObjectStore::image`]), which
//! shares every table the next commit does not touch.
//!
//! [`Transaction`]: crate::Transaction
//! [`SnapshotRegistry`]: pathlog_core::snapshot::SnapshotRegistry

use std::sync::Arc;

use pathlog_core::constraints::{tolerant_query, Quarantine, TolerantAnswers};
use pathlog_core::engine::{Answers, Engine};
use pathlog_core::program::Query;
use pathlog_core::snapshot::{Epoch, PinnedSnapshot, Snapshot, SnapshotRegistry, SnapshotStats};
use pathlog_core::structure::Structure;
use pathlog_core::term::Term;

use crate::store::ObjectStore;

/// The store side of the serving layer: the snapshot registry, present
/// once a reader session was started.
#[derive(Debug, Default)]
pub(crate) struct ServingState {
    registry: Arc<SnapshotRegistry>,
}

/// Serving state is deliberately **not** carried across store clones: a
/// clone is a new single-writer domain and must not publish into the
/// original's registry (readers would see epochs from two histories).
impl Clone for ServingState {
    fn clone(&self) -> Self {
        ServingState::default()
    }
}

impl ObjectStore {
    /// Start a pinned-snapshot reader session with a default [`Engine`].
    ///
    /// See [`ObjectStore::begin_session_with`].
    pub fn begin_session(&mut self) -> Session {
        self.begin_session_with(Engine::new())
    }

    /// Start a pinned-snapshot reader session that answers queries with
    /// `engine`.
    ///
    /// The session pins the store's **current** epoch: it sees every commit
    /// up to now and none after, bit-identically, for as long as it lives.
    /// Sessions are `Send` and lock-free on the read path — hand them to as
    /// many reader threads as you like while this `&mut self` writer keeps
    /// committing.  Needs `&mut self` only to build the image on first
    /// need and publish it; the store `version` is **not** bumped (one
    /// version authority — see the module docs).
    pub fn begin_session_with(&mut self, engine: Engine) -> Session {
        let registry = Arc::clone(&self.serving.get_or_insert_with(Default::default).registry);
        if registry.current_epoch() != Some(self.version()) {
            self.ensure_image();
            self.publish();
        }
        Session {
            pin: registry.pin().expect("a snapshot was just published"),
            quarantine: self
                .constraint_guard()
                .map(|guard| Arc::clone(guard.quarantine_shared()))
                .unwrap_or_default(),
            engine,
        }
    }

    /// Publish the image as the epoch of the store's `version` and return
    /// it — `None` while serving is inactive (no session ever started).
    /// Sharing makes the clone cost what the commit changed, not what the
    /// store holds.
    pub(crate) fn publish(&mut self) -> Option<Epoch> {
        let serving = self.serving.as_deref()?;
        let image = self
            .image()
            .expect("built when serving started or the transaction began");
        serving
            .registry
            .publish(self.version(), Arc::new(image.structure().clone()));
        Some(self.version())
    }

    /// Lifetime snapshot-serving counters (zeros while serving is
    /// inactive): epochs published, sessions pinned, snapshots reclaimed.
    pub fn serving_stats(&self) -> SnapshotStats {
        self.serving.as_deref().map(|s| s.registry.stats()).unwrap_or_default()
    }

    /// Number of epochs currently retained by live sessions — the MVCC
    /// window.  Zero at rest; a non-zero value after all sessions were
    /// dropped would be an epoch leak.
    pub fn pinned_epochs(&self) -> usize {
        self.serving.as_deref().map(|s| s.registry.pinned_epochs()).unwrap_or(0)
    }
}

/// A pinned-snapshot reader session (see [`ObjectStore::begin_session`]).
///
/// Holds an epoch-stamped immutable view of the store's PathLog image and
/// an [`Engine`] to answer queries with.  All reads are lock-free; the
/// session keeps its epoch alive in the registry until dropped.
#[derive(Debug)]
pub struct Session {
    pin: PinnedSnapshot,
    quarantine: Arc<Quarantine>,
    engine: Engine,
}

impl Session {
    /// The epoch this session is pinned to (the store `version` at the
    /// last commit it sees).
    pub fn epoch(&self) -> Epoch {
        self.pin.epoch()
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        self.pin.snapshot()
    }

    /// The frozen structure of the pinned epoch.
    pub fn structure(&self) -> &Structure {
        self.pin.structure()
    }

    /// The query engine this session answers with.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The byte-stable dump of the pinned image — the bit-identity oracle
    /// used by the serving cross-checks.
    pub fn canonical_dump(&self) -> String {
        self.structure().canonical_dump()
    }

    /// Answer a query against the pinned snapshot (see [`Engine::query`]).
    pub fn query(&self, query: &Query) -> pathlog_core::error::Result<Answers> {
        self.engine.query(self.structure(), query)
    }

    /// Enumerate the answers of a reference term against the pinned
    /// snapshot (see [`Engine::query_term`]).
    pub fn query_term(&self, term: &Term) -> pathlog_core::error::Result<Answers> {
        self.engine.query_term(self.structure(), term)
    }

    /// Answer a query in inconsistency-tolerant mode against the pinned
    /// snapshot, flagging answers that depend on quarantined facts.
    ///
    /// The quarantine ledger is the constraint guard's when the session
    /// started (shared, not copied; it changes only with a commit, which
    /// publishes a new epoch).  A session of an unguarded store carries an
    /// empty ledger, so every answer reports clean.
    pub fn tolerant_query(&self, query: &Query) -> pathlog_core::error::Result<TolerantAnswers> {
        tolerant_query(&self.engine, self.structure(), &self.quarantine, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrKind, Range, Schema, Value};
    use pathlog_core::term::Filter;

    fn store() -> ObjectStore {
        let mut db = ObjectStore::with_schema(Schema::company());
        db.create("d1", "department").unwrap();
        for i in 0..4 {
            let name = format!("e{i}");
            db.create(&name, "employee").unwrap();
            db.set(&name, "salary", Value::Int(1000 + i)).unwrap();
            db.set(&name, "worksFor", Value::obj("d1")).unwrap();
        }
        db
    }

    fn salary_query() -> Query {
        Query::single(
            Term::var("X")
                .isa("employee")
                .filter(Filter::scalar("salary", Term::var("S"))),
        )
    }

    #[test]
    fn sessions_pin_their_epoch_across_commits() {
        let mut db = store();
        let s0 = db.begin_session();
        let dump0 = s0.canonical_dump();
        assert_eq!(s0.query(&salary_query()).unwrap().len(), 4);

        let mut txn = db.begin();
        txn.set("e0", "salary", Value::Int(9999)).unwrap();
        let receipt = txn.commit().unwrap();
        assert_eq!(
            receipt.epoch,
            Some(db.version()),
            "commit publishes at the store version"
        );

        // The old session still sees the pre-commit image, bit-identically.
        assert_eq!(s0.canonical_dump(), dump0);
        // A new session sees the commit.
        let s1 = db.begin_session();
        assert!(s1.epoch() > s0.epoch());
        assert_ne!(s1.canonical_dump(), dump0);
        assert_eq!(s1.query(&salary_query()).unwrap().len(), 4);

        // Bit-identity against a sequential oracle: a second store replaying
        // the identical history publishes byte-identical snapshots.
        let mut oracle = store();
        let o0 = oracle.begin_session();
        assert_eq!(o0.canonical_dump(), dump0);
        let mut txn = oracle.begin();
        txn.set("e0", "salary", Value::Int(9999)).unwrap();
        txn.commit().unwrap();
        assert_eq!(oracle.begin_session().canonical_dump(), s1.canonical_dump());
    }

    #[test]
    fn sessions_are_send_and_queryable_from_threads() {
        let mut db = store();
        let sessions: Vec<Session> = (0..4).map(|_| db.begin_session()).collect();
        let expected = db.to_structure().canonical_dump();
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|s| {
                let expected = expected.clone();
                std::thread::spawn(move || {
                    assert_eq!(s.canonical_dump(), expected);
                    s.query(&salary_query()).unwrap().len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }

    #[test]
    fn dropping_last_session_reclaims_the_epoch() {
        let mut db = store();
        let s0 = db.begin_session();
        let weak = Arc::downgrade(s0.snapshot().structure_arc());
        let mut txn = db.begin();
        txn.set("e1", "salary", Value::Int(2)).unwrap();
        txn.commit().unwrap();
        assert!(weak.upgrade().is_some(), "pinned epoch retained");
        drop(s0);
        assert!(weak.upgrade().is_none(), "superseded epoch freed with its last session");
        let stats = db.serving_stats();
        assert_eq!(stats.snapshots_pinned, 1);
        assert_eq!(stats.snapshots_reclaimed, 1);
        assert_eq!(db.pinned_epochs(), 0, "no epoch leak");
    }

    #[test]
    fn session_start_does_not_bump_the_version() {
        let mut db = store();
        let before = db.version();
        let _s = db.begin_session();
        let _t = db.begin_session();
        assert_eq!(db.version(), before, "sessions must not mutate the version authority");
    }

    #[test]
    fn rollback_keeps_serving_incremental() {
        let mut db = store();
        let _s = db.begin_session();
        {
            let mut txn = db.begin();
            txn.set("e2", "salary", Value::Int(1)).unwrap();
            // dropped: rolled back
        }
        let s = db.begin_session();
        assert_eq!(s.canonical_dump(), db.to_structure().canonical_dump());
        // The rollback fast-forwarded the sync point; the second session
        // re-pinned the existing snapshot instead of publishing a new one.
        assert_eq!(db.serving_stats().epochs_published, 1);
    }

    #[test]
    fn a_schema_change_reaches_the_next_session() {
        let mut db = store();
        let before = db.begin_session();
        db.schema_mut()
            .attr("badge", AttrKind::Scalar, "employee", Range::Integer)
            .unwrap();
        let after = db.begin_session();
        assert_eq!(
            after.structure().signatures().len(),
            db.to_structure().signatures().len(),
            "the new attribute's signature is in the image"
        );
        assert_eq!(
            after.structure().signatures().len(),
            before.structure().signatures().len() + 1
        );
        assert!(after.epoch() > before.epoch(), "not the stale snapshot re-pinned");
    }

    #[test]
    fn cloned_store_serves_independently() {
        let mut db = store();
        let _s = db.begin_session();
        let mut copy = db.clone();
        assert_eq!(copy.serving_stats(), SnapshotStats::default(), "clone starts fresh");
        let s2 = copy.begin_session();
        assert_eq!(s2.canonical_dump(), db.to_structure().canonical_dump());
    }
}
