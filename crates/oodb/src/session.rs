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
//! counter — the same number the constraint guard uses for out-of-band
//! mutation detection.  Starting a session never bumps it, so a session
//! start racing a commit can never push the guard onto the
//! full-shadow-rebuild path.
//!
//! [`Transaction`]: crate::Transaction
//! [`SnapshotRegistry`]: pathlog_core::snapshot::SnapshotRegistry

use std::sync::Arc;

use pathlog_core::constraints::{tolerant_query, Quarantine, TolerantAnswers};
use pathlog_core::engine::Engine;
use pathlog_core::program::Query;
use pathlog_core::semantics::{Answer, Bindings};
use pathlog_core::snapshot::{Epoch, PinnedSnapshot, Snapshot, SnapshotRegistry, SnapshotStats};
use pathlog_core::structure::Structure;
use pathlog_core::term::Term;

use crate::image::StoreImage;
use crate::store::ObjectStore;
use crate::txn::Change;

/// The store side of the serving layer: the snapshot registry plus the
/// bookkeeping needed to publish cheaply (an incrementally maintained
/// [`StoreImage`] when no guard is installed; the guard's shadow is reused
/// directly when one is).
#[derive(Debug, Default)]
pub(crate) struct ServingState {
    registry: Arc<SnapshotRegistry>,
    /// PathLog image replayed commit-by-commit — maintained only while no
    /// constraint guard is installed (the guard's shadow already is that
    /// image, so publishing clones it instead of keeping a second copy).
    image: Option<StoreImage>,
    /// Quarantine ledger aligned with the *current* published snapshot
    /// (the guard's own, shared until a later commit changes a tag).  `None` when the snapshot
    /// was built without a synced guard; sessions then answer tolerant
    /// queries with an empty ledger, i.e. everything clean.
    quarantine: Option<Arc<Quarantine>>,
    /// Store `version` the current published snapshot reflects.  `None`
    /// until the first publish.
    synced_version: Option<u64>,
}

/// Serving state is deliberately **not** carried across store clones: a
/// clone is a new single-writer domain and must not publish into the
/// original's registry (readers would see epochs from two histories).
impl Clone for ServingState {
    fn clone(&self) -> Self {
        ServingState::default()
    }
}

impl ServingState {
    /// Publish the store's current image at `version`, preferring the
    /// guard's shadow (quarantine-aligned) when it is in sync.
    fn publish(&mut self, store: &ObjectStore, version: u64, log: Option<(&[Change], u64)>) {
        match store.constraint_guard() {
            Some(guard) if guard_synced(guard, version) => {
                self.image = None;
                self.quarantine = Some(Arc::clone(guard.quarantine_shared()));
                self.registry.publish(version, Arc::new(guard.shadow().clone()));
            }
            _ => {
                let image = match (self.image.take(), log) {
                    (Some(mut image), Some((log, begin_version))) if self.synced_version == Some(begin_version) => {
                        image.apply(log);
                        image
                    }
                    _ => StoreImage::of_store(store),
                };
                self.quarantine = None;
                self.registry.publish(version, Arc::new(image.structure().clone()));
                self.image = Some(image);
            }
        }
        self.synced_version = Some(version);
    }

    fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }
}

fn guard_synced(guard: &crate::guard::ConstraintGuard, version: u64) -> bool {
    guard.synced_version() == version
}

impl ObjectStore {
    /// Start a pinned-snapshot reader session with a default [`Engine`].
    ///
    /// See [`ObjectStore::begin_session_with`].
    pub fn begin_session(&mut self) -> Session {
        self.begin_session_with(Engine::new())
    }

    /// Start a pinned-snapshot reader session that answers queries with
    /// `engine` (clones of a pooled engine share its worker pool).
    ///
    /// The session pins the store's **current** epoch: it sees every commit
    /// up to now and none after, bit-identically, for as long as it lives.
    /// Sessions are `Send` and lock-free on the read path — hand them to as
    /// many reader threads as you like while this `&mut self` writer keeps
    /// committing.  Needs `&mut self` only to lazily build/refresh the
    /// published snapshot; the store `version` is **not** bumped (one
    /// version authority — see the module docs).
    pub fn begin_session_with(&mut self, engine: Engine) -> Session {
        let version = self.version();
        let mut serving = self.serving.take().unwrap_or_default();
        if serving.synced_version != Some(version) {
            serving.publish(self, version, None);
        }
        let pin = serving.registry().pin().expect("a snapshot was just published");
        let quarantine = serving.quarantine.clone();
        self.serving = Some(serving);
        Session {
            pin,
            quarantine,
            engine,
        }
    }

    /// Publish the post-commit image as a new epoch.  Returns the epoch
    /// (the store `version` after the commit), or `None` while serving is
    /// inactive (no session ever started).
    pub(crate) fn publish_after_commit(&mut self, log: &[Change], begin_version: u64) -> Option<Epoch> {
        let mut serving = self.serving.take()?;
        let version = self.version();
        serving.publish(self, version, Some((log, begin_version)));
        self.serving = Some(serving);
        Some(version)
    }

    /// After a rollback the store content is back at its `begin_version`
    /// state; if the published snapshot reflected that state, fast-forward
    /// the serving sync point past the rollback's version bumps so the next
    /// session/commit publishes incrementally instead of rebuilding.
    pub(crate) fn resync_serving_after_rollback(&mut self, begin_version: u64) {
        let version = self.version();
        if let Some(serving) = self.serving.as_deref_mut() {
            if serving.synced_version == Some(begin_version) {
                serving.synced_version = Some(version);
            }
        }
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
    quarantine: Option<Arc<Quarantine>>,
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

    /// Answer a query against the pinned snapshot.
    pub fn query(&self, query: &Query) -> pathlog_core::error::Result<Vec<Bindings>> {
        self.engine.query(self.structure(), query)
    }

    /// Enumerate the answers of a reference term against the pinned
    /// snapshot.
    pub fn query_term(&self, term: &Term) -> pathlog_core::error::Result<Vec<Answer>> {
        self.engine.query_term(self.structure(), term)
    }

    /// Answer a query in inconsistency-tolerant mode against the pinned
    /// snapshot, flagging answers that depend on quarantined facts.
    ///
    /// The quarantine ledger is the one aligned with this session's epoch
    /// (the constraint guard's at publish time, shared, not copied).  Sessions whose
    /// snapshot was built without a synced guard carry an empty ledger, so
    /// every answer reports clean.
    pub fn tolerant_query(&self, query: &Query) -> pathlog_core::error::Result<TolerantAnswers> {
        static EMPTY: std::sync::OnceLock<Quarantine> = std::sync::OnceLock::new();
        let quarantine = match self.quarantine.as_deref() {
            Some(q) => q,
            None => EMPTY.get_or_init(Quarantine::default),
        };
        tolerant_query(&self.engine, self.structure(), quarantine, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Value};
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
    fn cloned_store_serves_independently() {
        let mut db = store();
        let _s = db.begin_session();
        let mut copy = db.clone();
        assert_eq!(copy.serving_stats(), SnapshotStats::default(), "clone starts fresh");
        let s2 = copy.begin_session();
        assert_eq!(s2.canonical_dump(), db.to_structure().canonical_dump());
    }
}
