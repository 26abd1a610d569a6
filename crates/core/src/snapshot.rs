//! Epoch-stamped immutable snapshots of a [`Structure`] and the registry
//! that serves them to concurrent reader sessions.
//!
//! * [`Snapshot`] — an immutable, **epoch-stamped** `Arc<Structure>` view.
//!   `Engine::query` / `query_term` / `tolerant_query` all take
//!   `&Structure`, so a snapshot can be queried from any thread without
//!   holding a store lock, while the writer keeps mutating its own copy.
//! * [`SnapshotRegistry`] — a single-writer / many-reader registry.  The
//!   writer [`publish`](SnapshotRegistry::publish)es a new snapshot per
//!   committed epoch; readers [`pin`](SnapshotRegistry::pin) the current
//!   epoch and hold it for as long as they like.  A pinned epoch stays
//!   retained even after newer epochs supersede it (MVCC); once the last
//!   pin drops the entry is reclaimed and the underlying structure freed —
//!   outside the registry's lock, so a reader's deallocation never makes
//!   the writer wait.  A [`Structure`] is a persistent value (see
//!   [`crate::structure`]): consecutive epochs share every chunk and shard
//!   the commits between them did not touch, so what a retained epoch
//!   costs, and what freeing it gives back, is the chunks and shards that
//!   were detached from it since — not a copy of the store.  The pin
//!   watermark still bounds the set of live versions by the set of live
//!   sessions.
//!
//! Epochs are supplied by the *caller* of `publish` — the registry does not
//! invent a parallel counter.  The object-store layer passes its own
//! `version` counter, so the published epoch and the store's
//! out-of-band-mutation detection share one version authority.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::structure::Structure;

/// A published version number.  Epochs are chosen by the publisher (for the
/// object store: its `version` counter) and increase monotonically.
pub type Epoch = u64;

/// An immutable, epoch-stamped view of a [`Structure`].
///
/// Cloning a snapshot is an `Arc` bump; the underlying structure is shared
/// and never mutated.  Queries run against [`structure`](Snapshot::structure)
/// without any locking.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: Epoch,
    structure: Arc<Structure>,
}

impl Snapshot {
    /// Stamp `structure` as the view published at `epoch`.
    pub fn new(epoch: Epoch, structure: Arc<Structure>) -> Self {
        Snapshot { epoch, structure }
    }

    /// The epoch this view was published at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The frozen structure; safe to query from any thread.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The shared handle itself — used by reclamation tests to observe the
    /// strong count.
    pub fn structure_arc(&self) -> &Arc<Structure> {
        &self.structure
    }
}

/// Lifetime counters of a [`SnapshotRegistry`], mirroring the style of the
/// engine's `EvalStats`: saturating, monotone, cheap to copy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots published (one per committed epoch, plus bootstrap
    /// publishes when a session starts against a stale registry).
    pub epochs_published: usize,
    /// Pin events (sessions opened).  Cumulative, not a live count.
    pub snapshots_pinned: usize,
    /// Pinned epochs whose retention entry was freed after the last pin
    /// dropped.  `snapshots_reclaimed` catching up with the number of
    /// retired pinned epochs proves no epoch leaks over a run.
    pub snapshots_reclaimed: usize,
}

/// A retained epoch: the snapshot plus its live pin count.
#[derive(Debug)]
struct PinEntry {
    snapshot: Snapshot,
    pins: usize,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// The most recently published snapshot — what new pins attach to.
    current: Option<Snapshot>,
    /// Epochs retained because at least one session still pins them.
    pinned: BTreeMap<Epoch, PinEntry>,
}

/// Single-writer / many-reader snapshot registry with pin-count
/// reclamation.
///
/// The writer calls [`publish`](Self::publish) after each commit; readers
/// call [`pin`](Self::pin) (through `Arc<SnapshotRegistry>`) to obtain a
/// [`PinnedSnapshot`] whose `Drop` unpins it.  Superseded epochs are freed
/// as soon as their last pin drops; the current epoch is always available.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    inner: Mutex<RegistryInner>,
    epochs_published: AtomicUsize,
    snapshots_pinned: AtomicUsize,
    snapshots_reclaimed: AtomicUsize,
}

impl SnapshotRegistry {
    /// An empty registry: nothing published, nothing pinned.
    pub fn new() -> Self {
        SnapshotRegistry::default()
    }

    /// Publish `structure` as the snapshot for `epoch`, superseding the
    /// previous current snapshot.  The epoch comes from the caller (one
    /// version authority — the store's own `version` counter); publishes
    /// with a stale epoch (`<` current) are ignored so a republish race
    /// cannot move the registry backwards.
    pub fn publish(&self, epoch: Epoch, structure: Arc<Structure>) {
        let superseded = {
            let mut inner = self.inner.lock().expect("snapshot registry poisoned");
            if inner.current.as_ref().is_some_and(|cur| epoch < cur.epoch()) {
                return;
            }
            self.epochs_published.fetch_add(1, Ordering::Relaxed);
            inner.current.replace(Snapshot::new(epoch, structure))
        };
        // Outside the lock: if nobody pins the superseded epoch this is its
        // last reference, and freeing an image must not make a reader's
        // `pin` / `unpin` wait.
        drop(superseded);
    }

    /// Pin the current snapshot.  Returns `None` until the first
    /// [`publish`](Self::publish).  The returned guard keeps the epoch
    /// retained until dropped.
    pub fn pin(self: &Arc<Self>) -> Option<PinnedSnapshot> {
        let mut inner = self.inner.lock().expect("snapshot registry poisoned");
        let current = inner.current.clone()?;
        let epoch = current.epoch();
        let entry = inner.pinned.entry(epoch).or_insert_with(|| PinEntry {
            snapshot: current,
            pins: 0,
        });
        entry.pins += 1;
        let snapshot = entry.snapshot.clone();
        self.snapshots_pinned.fetch_add(1, Ordering::Relaxed);
        Some(PinnedSnapshot {
            registry: Arc::clone(self),
            snapshot: Some(snapshot),
        })
    }

    /// Drop one pin on `epoch`; frees the retention entry (and counts a
    /// reclamation) when the last pin goes.
    fn unpin(&self, epoch: Epoch) {
        let drained = {
            let mut inner = self.inner.lock().expect("snapshot registry poisoned");
            match inner.pinned.get_mut(&epoch) {
                Some(entry) if entry.pins > 1 => {
                    entry.pins -= 1;
                    None
                }
                Some(_) => inner.pinned.remove(&epoch),
                None => None,
            }
        };
        // The entry of a superseded epoch holds the image's last reference:
        // free it after the guard is released, so the writer's next
        // `publish` / `pin` does not wait for a reader's deallocation.
        if drained.is_some() {
            self.snapshots_reclaimed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The epoch of the current snapshot, if any is published.
    pub fn current_epoch(&self) -> Option<Epoch> {
        let inner = self.inner.lock().expect("snapshot registry poisoned");
        inner.current.as_ref().map(Snapshot::epoch)
    }

    /// Number of epochs currently retained by at least one pin — the live
    /// MVCC window.  Zero at rest (the current snapshot itself is not a
    /// pin).
    pub fn pinned_epochs(&self) -> usize {
        let inner = self.inner.lock().expect("snapshot registry poisoned");
        inner.pinned.len()
    }

    /// Lifetime counters (cumulative; see [`SnapshotStats`]).
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            snapshots_pinned: self.snapshots_pinned.load(Ordering::Relaxed),
            snapshots_reclaimed: self.snapshots_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// A pinned [`Snapshot`]: keeps its epoch retained in the registry until
/// dropped.  `Send`, so sessions can be handed to reader threads.
#[derive(Debug)]
pub struct PinnedSnapshot {
    registry: Arc<SnapshotRegistry>,
    /// `Some` until `drop` takes it.
    snapshot: Option<Snapshot>,
}

impl PinnedSnapshot {
    /// The pinned view.
    pub fn snapshot(&self) -> &Snapshot {
        self.snapshot
            .as_ref()
            .expect("a pin holds its snapshot until it is dropped")
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> Epoch {
        self.snapshot().epoch()
    }

    /// The frozen structure of the pinned epoch.
    pub fn structure(&self) -> &Structure {
        self.snapshot().structure()
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        // Release this guard's own handle on the structure *before*
        // unpinning, so that when the last pin of a superseded epoch goes
        // the registry entry was the final strong reference and reclamation
        // really frees the snapshot.
        if let Some(snapshot) = self.snapshot.take() {
            let epoch = snapshot.epoch();
            drop(snapshot);
            self.registry.unpin(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(epoch: Epoch) -> Arc<SnapshotRegistry> {
        let registry = Arc::new(SnapshotRegistry::new());
        let mut s = Structure::new();
        s.atom("a");
        registry.publish(epoch, Arc::new(s));
        registry
    }

    #[test]
    fn pin_before_publish_is_none() {
        let registry = Arc::new(SnapshotRegistry::new());
        assert!(registry.pin().is_none());
        assert_eq!(registry.current_epoch(), None);
    }

    #[test]
    fn pinned_epoch_survives_supersession() {
        let registry = registry_with(1);
        let pin = registry.pin().expect("published");
        assert_eq!(pin.epoch(), 1);
        let dump_at_1 = pin.structure().canonical_dump();

        let mut s2 = Structure::new();
        s2.atom("a");
        s2.atom("b");
        registry.publish(2, Arc::new(s2));

        // The old pin still sees epoch 1 bit-identically.
        assert_eq!(pin.structure().canonical_dump(), dump_at_1);
        // New pins see epoch 2.
        let pin2 = registry.pin().expect("published");
        assert_eq!(pin2.epoch(), 2);
        assert_eq!(registry.pinned_epochs(), 2);
    }

    #[test]
    fn last_pin_drop_reclaims_superseded_epoch() {
        let registry = registry_with(1);
        let pin = registry.pin().expect("published");
        let weak = Arc::downgrade(pin.snapshot().structure_arc());
        registry.publish(2, Arc::new(Structure::new()));
        assert!(weak.upgrade().is_some(), "pin retains the epoch");
        drop(pin);
        assert!(weak.upgrade().is_none(), "unpinned superseded epoch is freed");
        let stats = registry.stats();
        assert_eq!(stats.epochs_published, 2);
        assert_eq!(stats.snapshots_pinned, 1);
        assert_eq!(stats.snapshots_reclaimed, 1);
        assert_eq!(registry.pinned_epochs(), 0);
    }

    #[test]
    fn superseded_epoch_is_freed_exactly_when_its_last_holder_lets_go() {
        let registry = registry_with(1);
        // Unpinned: the registry's `current` is the only holder, so the
        // publish that supersedes it frees it — no pin, no reclamation.
        let unpinned = Arc::downgrade(registry.pin().expect("published").snapshot().structure_arc());
        assert_eq!(
            registry.stats().snapshots_reclaimed,
            1,
            "epoch 1 is still current: entry dropped, image kept"
        );
        assert!(unpinned.upgrade().is_some());
        registry.publish(2, Arc::new(Structure::new()));
        assert!(
            unpinned.upgrade().is_none(),
            "superseded and unpinned: freed by the publish"
        );

        // Pinned twice: freed by the second unpin, not the first, not the
        // superseding publish.
        let (a, b) = (registry.pin().expect("published"), registry.pin().expect("published"));
        let pinned = Arc::downgrade(a.snapshot().structure_arc());
        registry.publish(3, Arc::new(Structure::new()));
        assert!(pinned.upgrade().is_some());
        drop(a);
        assert!(pinned.upgrade().is_some(), "one pin left");
        assert_eq!(registry.pinned_epochs(), 1);
        drop(b);
        assert!(pinned.upgrade().is_none(), "last pin gone: freed");
        assert_eq!(registry.pinned_epochs(), 0);
        let stats = registry.stats();
        assert_eq!(
            (
                stats.epochs_published,
                stats.snapshots_pinned,
                stats.snapshots_reclaimed
            ),
            (3, 3, 2)
        );
    }

    #[test]
    fn shared_epoch_reclaims_only_after_last_pin() {
        let registry = registry_with(7);
        let a = registry.pin().expect("published");
        let b = registry.pin().expect("published");
        registry.publish(8, Arc::new(Structure::new()));
        drop(a);
        assert_eq!(registry.stats().snapshots_reclaimed, 0);
        assert_eq!(registry.pinned_epochs(), 1);
        drop(b);
        assert_eq!(registry.stats().snapshots_reclaimed, 1);
        assert_eq!(registry.pinned_epochs(), 0);
    }

    #[test]
    fn stale_publish_is_ignored() {
        let registry = registry_with(5);
        registry.publish(3, Arc::new(Structure::new()));
        assert_eq!(registry.current_epoch(), Some(5));
        // Equal epoch republish replaces in place (bootstrap after a race).
        registry.publish(5, Arc::new(Structure::new()));
        assert_eq!(registry.current_epoch(), Some(5));
    }

    #[test]
    fn pins_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PinnedSnapshot>();
        assert_send::<Snapshot>();
    }
}
