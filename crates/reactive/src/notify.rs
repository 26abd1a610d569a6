//! Notify streams: push-based observation of an [`ActiveStore`]'s epochs.
//!
//! The serving layer's readers observe an object store through pinned
//! snapshots; an *active* store's observers want the opposite granularity —
//! not "the state as of epoch k" but "what happened during epoch k".  This
//! module is that front: [`ActiveStore::subscribe`] registers a subscriber
//! and returns a [`Subscription`], an async-style receiving end that yields
//! one [`Notification`] per change, per rule firing, and per quiesced (or
//! aborted) cascade — instead of the subscriber polling the structure and
//! diffing dumps.
//!
//! **Epochs.**  Every *external* mutation of the store opens a new epoch
//! (the triggered cascade belongs to the epoch of the mutation that raised
//! it), numbered from 1.  Notifications carry their epoch and cascade round
//! (= depth), so a subscriber can group a stream back into atomic units:
//! an epoch is complete when its [`NotificationKind::Quiescent`] (or
//! [`NotificationKind::Aborted`]) arrives — the per-epoch barrier, carrying
//! the same [`ActiveStats`] the mutating caller got.
//!
//! **Delivery.**  Channels are unbounded ([`std::sync::mpsc`]): the mutating
//! thread never blocks on a slow subscriber, and notifications within one
//! subscription are received in exactly the order the store emitted them
//! (commit order, which is a function of the store's content and rules — a
//! notification stream is as reproducible as the structure itself).  A dropped
//! [`Subscription`] is pruned from the store at the next emission; dropping
//! the store ends every stream (the blocking iterator returns `None`).
//!
//! ```
//! use pathlog_core::names::Name;
//! use pathlog_core::structure::Structure;
//! use pathlog_reactive::{ActiveStore, EcaAction, EcaRule, Event, NotificationKind};
//! use pathlog_core::term::Term;
//!
//! let mut store = ActiveStore::new(Structure::new());
//! store.add_rule(EcaRule::new(
//!     "echo",
//!     Event::ScalarAsserted(Name::atom("ping")),
//!     vec![],
//!     vec![EcaAction::AssertScalar {
//!         receiver: Term::var("Receiver"),
//!         method: Name::atom("pong"),
//!         value: Term::var("Value"),
//!     }],
//! ));
//! let sub = store.subscribe();
//! let (ping, a, b) = (store.oid("ping"), store.oid("a"), store.oid("b"));
//! store.assert_scalar(ping, a, b).unwrap();
//! let epoch: Vec<_> = sub.drain();
//! assert_eq!(epoch.first().unwrap().epoch, 1);
//! assert!(matches!(epoch.last().unwrap().kind, NotificationKind::Quiescent { .. }));
//! ```
//!
//! [`ActiveStore`]: crate::ActiveStore
//! [`ActiveStore::subscribe`]: crate::ActiveStore::subscribe

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use crate::active::{ActiveStats, Event};

/// The epoch counter of an active store: external mutation sequence
/// numbers, starting at 1 (0 = nothing has happened yet).  Same width as
/// the serving layer's [`Epoch`](pathlog_core::snapshot::Epoch).
pub type Epoch = pathlog_core::snapshot::Epoch;

/// What a notification reports.
#[derive(Debug, Clone, PartialEq)]
pub enum NotificationKind {
    /// A primitive mutation actually changed the structure (unchanged
    /// mutations — re-asserting an existing fact — emit nothing, mirroring
    /// the trigger semantics).  The event names the mutation kind and the
    /// watched method/class, exactly as a rule would match it.
    Change {
        /// The raised event.
        event: Event,
    },
    /// A rule fired (one notification per rule and condition solution, in
    /// commit order).
    Firing {
        /// The firing rule's name, shared with the rule.
        rule: Arc<str>,
    },
    /// The epoch's cascade ran to quiescence; its aggregate statistics.
    /// This is the last notification of a successful epoch.
    Quiescent {
        /// The same stats the mutating caller received.
        stats: ActiveStats,
    },
    /// The epoch's cascade aborted (depth / firing limit, invalid action).
    /// This is the last notification of a failed epoch.  Whether the
    /// mutations reported before it are still committed follows the
    /// store's [`rollback_on_error`](crate::ActiveOptions::rollback_on_error)
    /// setting.
    Aborted {
        /// The error's display text.
        reason: String,
    },
}

/// One item of a subscription stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The external mutation this notification belongs to (1-based).
    pub epoch: Epoch,
    /// The cascade round (= depth) that emitted it: 0 is the external
    /// mutation itself, `n + 1` the mutations triggered by round `n`.
    pub round: usize,
    /// What happened.
    pub kind: NotificationKind,
}

/// The store-side fan-out list.  Deliberately **not** cloned with the store:
/// a clone is a new, independent store, and subscribers subscribed to the
/// original — double delivery from both copies would be an error, so a
/// cloned store starts with no subscribers (mirroring the serving layer's
/// per-store snapshot registry).
#[derive(Debug, Default)]
pub(crate) struct Subscribers {
    senders: Vec<Sender<Notification>>,
}

impl Clone for Subscribers {
    fn clone(&self) -> Self {
        Subscribers::default()
    }
}

impl Subscribers {
    /// Register a new subscriber and return its receiving end.
    pub(crate) fn subscribe(&mut self) -> Subscription {
        let (tx, rx) = std::sync::mpsc::channel();
        self.senders.push(tx);
        Subscription { rx }
    }

    /// Whether anyone is listening (emission is skipped entirely when not —
    /// a subscriber-free store pays one `is_empty` check per mutation).
    pub(crate) fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// The number of live subscribers as of the last emission.
    pub(crate) fn len(&self) -> usize {
        self.senders.len()
    }

    /// Deliver to every subscriber, pruning the ones that hung up.  Every
    /// sender but the last gets a clone; the last one gets `notification`
    /// itself.
    pub(crate) fn emit(&mut self, notification: Notification) {
        let last = self.senders.len().saturating_sub(1);
        let mut notification = Some(notification);
        let mut index = 0;
        self.senders.retain(|s| {
            let item = if index == last {
                notification.take()
            } else {
                notification.clone()
            };
            index += 1;
            s.send(item.expect("only the last sender takes it")).is_ok()
        });
    }
}

/// The receiving end of [`ActiveStore::subscribe`](crate::ActiveStore::subscribe):
/// an unbounded queue of [`Notification`]s in emission order.
///
/// Three consumption styles:
///
/// * **Blocking stream** — [`Subscription`] implements [`Iterator`];
///   `for n in subscription { … }` parks until the next notification and
///   ends when the store is dropped.  This is the async-style front: hand
///   the subscription to a consumer thread and iterate.
/// * **Bounded wait** — [`Subscription::next_timeout`] parks up to a
///   deadline.
/// * **Poll-free drain** — [`Subscription::try_next`] / [`Subscription::drain`]
///   take whatever is already queued without blocking.
///
/// Dropping a subscription unsubscribes: the store prunes the dead channel
/// at its next emission.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<Notification>,
}

impl Subscription {
    /// The next queued notification, or `None` when the queue is currently
    /// empty **or** the store is gone.  Never blocks.
    pub fn try_next(&self) -> Option<Notification> {
        match self.rx.try_recv() {
            Ok(n) => Some(n),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// The next notification, waiting up to `timeout` for one to arrive.
    /// `None` means the deadline passed or the store is gone.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Notification> {
        match self.rx.recv_timeout(timeout) {
            Ok(n) => Some(n),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Everything currently queued, without blocking.
    pub fn drain(&self) -> Vec<Notification> {
        let mut all = Vec::new();
        while let Some(n) = self.try_next() {
            all.push(n);
        }
        all
    }

    /// Block until one full epoch has been received: drains notifications
    /// (waiting up to `timeout` for *each*) until a [`NotificationKind::Quiescent`]
    /// or [`NotificationKind::Aborted`] barrier arrives, and returns the
    /// epoch's notifications including the barrier.  `None` if the barrier
    /// did not arrive in time (already-received items stay consumed).
    pub fn next_epoch(&self, timeout: Duration) -> Option<Vec<Notification>> {
        let mut epoch = Vec::new();
        loop {
            let n = self.next_timeout(timeout)?;
            let done = matches!(
                n.kind,
                NotificationKind::Quiescent { .. } | NotificationKind::Aborted { .. }
            );
            epoch.push(n);
            if done {
                return Some(epoch);
            }
        }
    }
}

impl Iterator for Subscription {
    type Item = Notification;

    /// Park until the next notification; `None` ends the stream (the store
    /// was dropped and the queue is drained).
    fn next(&mut self) -> Option<Notification> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::{ActiveOptions, ActiveStore, EcaAction, EcaRule};
    use pathlog_core::names::Name;
    use pathlog_core::structure::Structure;
    use pathlog_core::term::Term;

    fn chain_store(levels: usize) -> ActiveStore {
        let mut store = ActiveStore::new(Structure::new());
        for k in 0..levels {
            store.add_rule(EcaRule::new(
                format!("link-{k}"),
                Event::ScalarAsserted(Name::atom(format!("c{k}"))),
                vec![],
                vec![EcaAction::AssertScalar {
                    receiver: Term::var("Receiver"),
                    method: Name::atom(format!("c{}", k + 1)),
                    value: Term::var("Value"),
                }],
            ));
        }
        store
    }

    #[test]
    fn an_epoch_streams_changes_firings_and_a_quiescent_barrier() {
        let mut store = chain_store(2);
        let sub = store.subscribe();
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        let stats = store.assert_scalar(c0, a, b).unwrap();

        let epoch = sub.next_epoch(Duration::from_secs(5)).expect("epoch completes");
        assert!(epoch.iter().all(|n| n.epoch == 1), "one epoch");
        let changes = epoch
            .iter()
            .filter(|n| matches!(n.kind, NotificationKind::Change { .. }))
            .count();
        let firings = epoch
            .iter()
            .filter(|n| matches!(n.kind, NotificationKind::Firing { .. }))
            .count();
        assert_eq!(changes, 3, "external + 2 triggered mutations");
        assert_eq!(firings, 2, "each link fires once");
        match &epoch.last().unwrap().kind {
            NotificationKind::Quiescent { stats: s } => assert_eq!(*s, stats),
            other => panic!("expected Quiescent barrier, got {other:?}"),
        }
        // `round` stamps the cascade depth
        let max_round = epoch.iter().map(|n| n.round).max().unwrap();
        assert_eq!(max_round, 2, "deepest triggered round");
    }

    #[test]
    fn epochs_number_external_mutations() {
        let mut store = chain_store(1);
        let sub = store.subscribe();
        let (c0, a, b, c) = (store.oid("c0"), store.oid("a"), store.oid("b"), store.oid("c"));
        store.assert_scalar(c0, a, b).unwrap();
        store.assert_scalar(c0, c, b).unwrap();
        let first = sub.next_epoch(Duration::from_secs(5)).unwrap();
        let second = sub.next_epoch(Duration::from_secs(5)).unwrap();
        assert!(first.iter().all(|n| n.epoch == 1));
        assert!(second.iter().all(|n| n.epoch == 2));
    }

    #[test]
    fn unchanged_mutations_emit_no_change_notifications() {
        let mut store = chain_store(0);
        let sub = store.subscribe();
        let (v, m, a1) = (store.oid("vehicles"), store.oid("mary"), store.oid("a1"));
        store.add_set_member(v, m, a1).unwrap();
        store.add_set_member(v, m, a1).unwrap(); // no-op re-add
        let all = sub.drain();
        let changes = all
            .iter()
            .filter(|n| matches!(n.kind, NotificationKind::Change { .. }))
            .count();
        assert_eq!(changes, 1, "the no-op re-add is silent");
        // both epochs still close with a barrier
        let barriers: Vec<Epoch> = all
            .iter()
            .filter(|n| matches!(n.kind, NotificationKind::Quiescent { .. }))
            .map(|n| n.epoch)
            .collect();
        assert_eq!(barriers, vec![1, 2]);
    }

    #[test]
    fn aborted_cascades_end_the_epoch_with_the_error() {
        let mut store = ActiveStore::with_options(
            Structure::new(),
            ActiveOptions {
                max_cascade_depth: 2,
                ..ActiveOptions::default()
            },
        );
        for k in 0..4 {
            store.add_rule(EcaRule::new(
                format!("link-{k}"),
                Event::ScalarAsserted(Name::atom(format!("c{k}"))),
                vec![],
                vec![EcaAction::AssertScalar {
                    receiver: Term::var("Receiver"),
                    method: Name::atom(format!("c{}", k + 1)),
                    value: Term::var("Value"),
                }],
            ));
        }
        let sub = store.subscribe();
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        assert!(store.assert_scalar(c0, a, b).is_err());
        let epoch = sub.next_epoch(Duration::from_secs(5)).expect("abort closes the epoch");
        match &epoch.last().unwrap().kind {
            NotificationKind::Aborted { reason } => assert!(reason.contains("depth")),
            other => panic!("expected Aborted barrier, got {other:?}"),
        }
    }

    #[test]
    fn dropped_subscriptions_are_pruned_and_store_drop_ends_streams() {
        let mut store = chain_store(0);
        let kept = store.subscribe();
        let dropped = store.subscribe();
        assert_eq!(store.subscriber_count(), 2);
        drop(dropped);
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        store.assert_scalar(c0, a, b).unwrap();
        assert_eq!(store.subscriber_count(), 1, "dead channel pruned at emission");

        // the blocking iterator ends when the store goes away
        drop(store);
        let received: Vec<Notification> = kept.collect();
        assert!(
            received
                .iter()
                .any(|n| matches!(n.kind, NotificationKind::Change { .. })),
            "queued items are still delivered after the store is gone"
        );
    }

    #[test]
    fn every_live_subscriber_receives_the_same_stream() {
        let mut store = chain_store(1);
        let first = store.subscribe();
        let dropped = store.subscribe();
        let last = store.subscribe();
        drop(dropped);
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        store.assert_scalar(c0, a, b).unwrap();
        let (first, last) = (first.drain(), last.drain());
        assert_eq!(first.len(), 4, "two changes, one firing, the barrier");
        assert_eq!(first, last);
        assert_eq!(store.subscriber_count(), 2);
    }

    #[test]
    fn cloned_stores_start_with_no_subscribers() {
        let mut store = chain_store(0);
        let sub = store.subscribe();
        let mut copy = store.clone();
        assert_eq!(copy.subscriber_count(), 0);
        let (c0, a, b) = (copy.oid("c0"), copy.oid("a"), copy.oid("b"));
        copy.assert_scalar(c0, a, b).unwrap();
        assert!(sub.try_next().is_none(), "the clone's mutations are not delivered");
    }

    #[test]
    fn a_consumer_thread_streams_notifications_concurrently() {
        let mut store = chain_store(1);
        let sub = store.subscribe();
        let consumer = std::thread::spawn(move || {
            let mut barriers = 0usize;
            for n in sub {
                if matches!(n.kind, NotificationKind::Quiescent { .. }) {
                    barriers += 1;
                }
            }
            barriers
        });
        let c0 = store.oid("c0");
        for i in 0..5 {
            let receiver = store.oid(&format!("r{i}"));
            let v = store.int(i);
            store.assert_scalar(c0, receiver, v).unwrap();
        }
        drop(store);
        assert_eq!(consumer.join().unwrap(), 5, "one barrier per external mutation");
    }
}
