//! The class hierarchy: a binary relation `isa ⊆ U × U` relating objects to
//! classes (Section 3 of the paper).
//!
//! Because PathLog does not distinguish between objects, classes and methods,
//! class membership reduces to a single binary relation on objects, ordered
//! transitively: if `p1 isa employee` and `employee isa person` then
//! `p1 isa person`.
//!
//! The paper models the relation as a partial order (hence reflexive).  This
//! implementation keeps the *transitive closure of the asserted edges* and
//! deliberately omits reflexivity: including every class in its own extent
//! would make `X : employee` also bind `X` to the class object `employee`,
//! which is never what the paper's example answers contain.  The deviation is
//! documented in `DESIGN.md`.
//!
//! Extents and ancestor sets are stored as [`OidRun`] columns: sorted,
//! deduplicated, `Arc`-shared.  Membership tests are binary searches over a
//! contiguous run and iteration is ascending-`Oid` (the same order the
//! previous `BTreeSet` backing produced).  A class extent is read in place,
//! as one run, by the executor's class probes.
//!
//! The four object → run maps and the closure log sit on the copy-on-write
//! containers of the `cow` module: cloning the hierarchy bumps one
//! reference count per map shard and sealed log chunk and copies neither a
//! map entry nor a run.  Adding an edge detaches the shards holding the
//! entries it changes and the runs it inserts into — a class's extent is
//! one run, so the first new member of a large class after a clone copies
//! that extent once; the other shards and runs stay shared.  Re-asserting a
//! stored edge probes read-only and detaches nothing.

use super::cow::{CowVec, ShardMap};
use super::runs::OidRun;
use super::Oid;

/// Incrementally maintained transitive closure of the is-a relation.
#[derive(Debug, Default, Clone)]
pub struct Isa {
    /// Direct edges `sub -> sup`, as asserted.
    direct_up: ShardMap<Oid, OidRun>,
    /// Direct edges `sup -> sub`.
    direct_down: ShardMap<Oid, OidRun>,
    /// Transitive closure: all (strict) ancestors of an object.
    up: ShardMap<Oid, OidRun>,
    /// Transitive closure: all (strict) descendants of an object.
    down: ShardMap<Oid, OidRun>,
    /// Number of pairs in the transitive closure.
    pairs: usize,
    /// Append-only insertion log of closure pairs `(sub, sup)`, in the order
    /// they entered the closure.  Backs the engine's semi-naive delta slices
    /// (is-a edges are never retracted, so the log never goes stale).
    log: CowVec<(Oid, Oid)>,
}

impl Isa {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert `sub isa sup`.  Returns `true` if the transitive closure grew.
    pub fn add(&mut self, sub: Oid, sup: Oid) -> bool {
        // Probe before writing: re-asserting a stored edge (every `intern`
        // of a known value does) must not detach anything.
        if self.direct_up.get(&sub).is_some_and(|s| s.contains(&sup)) {
            return false;
        }
        self.direct_up.get_or_default(sub).insert(sup);
        self.direct_down.get_or_default(sup).insert(sub);

        if self.up.get(&sub).is_some_and(|s| s.contains(&sup)) {
            return false;
        }

        // New closure pairs: every descendant of `sub` (plus `sub`) is now
        // below every ancestor of `sup` (plus `sup`).
        let mut lows: OidRun = self.down.get(&sub).cloned().unwrap_or_default();
        lows.insert(sub);
        let mut highs: OidRun = self.up.get(&sup).cloned().unwrap_or_default();
        highs.insert(sup);

        let mut grew = false;
        for &lo in &lows {
            for &hi in &highs {
                if lo == hi {
                    continue;
                }
                let at = match self.up.get(&lo).map(|ups| ups.binary_search(&hi)) {
                    Some(Ok(_)) => continue,
                    Some(Err(at)) => at,
                    None => 0,
                };
                self.up.get_or_default(lo).insert_at(at, hi);
                self.down.get_or_default(hi).insert(lo);
                self.pairs += 1;
                self.log.push((lo, hi));
                grew = true;
            }
        }
        grew
    }

    /// Is `obj` a member of `class` (transitively)?
    pub fn in_class(&self, obj: Oid, class: Oid) -> bool {
        self.up.get(&obj).is_some_and(|s| s.contains(&class))
    }

    /// All (transitive) classes of `obj`, in ascending `Oid` order.
    pub fn classes_of(&self, obj: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.up.get(&obj).into_iter().flatten().copied()
    }

    /// All (transitive) members of `class`, in ascending `Oid` order.
    pub fn instances_of(&self, class: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.down.get(&class).into_iter().flatten().copied()
    }

    /// The extent of `class` as a sorted run, if non-empty — the stored
    /// column itself (`Arc`-shared), read in place.
    pub fn extent_run(&self, class: Oid) -> Option<&OidRun> {
        self.down.get(&class)
    }

    /// Number of members of `class`.
    pub fn extent_size(&self, class: Oid) -> usize {
        self.down.get(&class).map_or(0, |r| r.len())
    }

    /// Directly asserted edges, for persistence and debugging, sorted by
    /// `(sub, sup)` so emitted output is deterministic (the map over
    /// subjects iterates in per-process random order).
    pub fn direct_edges(&self) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        let mut all: Vec<(Oid, Oid)> = self
            .direct_up
            .iter()
            .flat_map(|(&sub, sups)| sups.iter().map(move |&sup| (sub, sup)))
            .collect();
        all.sort_unstable();
        all.into_iter()
    }

    /// Has `class` a directly asserted member?
    pub(crate) fn has_direct_members(&self, class: Oid) -> bool {
        self.direct_down.contains_key(&class)
    }

    /// Number of pairs in the transitive closure.  Doubles as the current
    /// watermark for [`Isa::pairs_since`].
    pub fn closure_size(&self) -> usize {
        self.pairs
    }

    /// The closure pairs `(sub, sup)` added at or after watermark `mark`, in
    /// insertion order.  O(delta): a walk of the append-only insertion
    /// log's last chunks.
    pub fn pairs_since(&self, mark: usize) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.pairs_in(mark, usize::MAX)
    }

    /// The closure pairs added in the log window `[lo, hi)` — the bounded
    /// counterpart of [`Isa::pairs_since`] used by snapshot-window
    /// evaluation.  Both bounds are clamped to the log.
    pub fn pairs_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.log.range(lo, hi).copied()
    }

    /// Number of directly asserted edges.
    pub fn direct_size(&self) -> usize {
        self.direct_up.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
impl super::cow::Sharing for Isa {
    fn parts(&self) -> Vec<*const ()> {
        [
            self.direct_up.parts(),
            self.direct_down.parts(),
            self.up.parts(),
            self.down.parts(),
            self.log.parts(),
        ]
        .concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> Oid {
        Oid(i)
    }

    #[test]
    fn direct_membership() {
        let mut isa = Isa::new();
        assert!(isa.add(o(1), o(10)));
        assert!(isa.in_class(o(1), o(10)));
        assert!(!isa.in_class(o(10), o(1)));
        assert!(!isa.in_class(o(1), o(1)), "membership is not reflexive");
    }

    #[test]
    fn transitivity() {
        let mut isa = Isa::new();
        // automobile isa vehicle, a1 isa automobile => a1 isa vehicle
        isa.add(o(20), o(21));
        isa.add(o(1), o(20));
        assert!(isa.in_class(o(1), o(21)));
        assert!(isa.in_class(o(1), o(20)));
        assert!(isa.in_class(o(20), o(21)));
    }

    #[test]
    fn transitivity_when_edges_added_in_any_order() {
        let mut isa = Isa::new();
        isa.add(o(1), o(20)); // a1 isa automobile
        isa.add(o(20), o(21)); // automobile isa vehicle (added later)
        assert!(isa.in_class(o(1), o(21)));
        // deeper chain: vehicle isa thing
        isa.add(o(21), o(22));
        assert!(isa.in_class(o(1), o(22)));
        assert!(isa.in_class(o(20), o(22)));
    }

    #[test]
    fn duplicate_edges_do_not_grow() {
        let mut isa = Isa::new();
        assert!(isa.add(o(1), o(2)));
        assert!(!isa.add(o(1), o(2)));
        assert_eq!(isa.closure_size(), 1);
        assert_eq!(isa.direct_size(), 1);
    }

    #[test]
    fn implied_edge_does_not_grow_closure() {
        let mut isa = Isa::new();
        isa.add(o(1), o(2));
        isa.add(o(2), o(3));
        assert!(!isa.add(o(1), o(3)), "already implied transitively");
    }

    #[test]
    fn extents_and_classes() {
        let mut isa = Isa::new();
        isa.add(o(1), o(10));
        isa.add(o(2), o(10));
        isa.add(o(10), o(11));
        let mut ext: Vec<_> = isa.instances_of(o(11)).collect();
        ext.sort();
        assert_eq!(ext, vec![o(1), o(2), o(10)]);
        assert_eq!(isa.extent_size(o(10)), 2);
        assert_eq!(isa.extent_run(o(10)).unwrap().as_slice(), &[o(1), o(2)]);
        let cls: Vec<_> = isa.classes_of(o(1)).collect();
        assert_eq!(cls.len(), 2);
        assert_eq!(isa.direct_edges().count(), 3);
    }

    #[test]
    fn closure_log_yields_delta_slices() {
        let mut isa = Isa::new();
        isa.add(o(1), o(10));
        let mark = isa.closure_size();
        assert_eq!(mark, 1);
        // Duplicate edge: closure unchanged, log unchanged.
        isa.add(o(1), o(10));
        assert_eq!(isa.pairs_since(mark).count(), 0);
        // One asserted edge can add several closure pairs at once.
        isa.add(o(10), o(11));
        let delta: std::collections::BTreeSet<(Oid, Oid)> = isa.pairs_since(mark).collect();
        assert_eq!(delta, [(o(1), o(11)), (o(10), o(11))].into_iter().collect());
        assert_eq!(isa.pairs_since(isa.closure_size()).count(), 0);
        assert_eq!(isa.pairs_since(1_000).count(), 0);
        // The full log replays the whole closure.
        assert_eq!(isa.pairs_since(0).count(), isa.closure_size());
    }

    #[test]
    fn bounded_pair_windows_exclude_later_entries() {
        let mut isa = Isa::new();
        isa.add(o(1), o(10));
        let lo = isa.closure_size();
        isa.add(o(2), o(10));
        let hi = isa.closure_size();
        isa.add(o(3), o(10)); // past the window
        assert_eq!(isa.pairs_in(lo, hi).collect::<Vec<_>>(), [(o(2), o(10))]);
        assert_eq!(isa.pairs_in(0, isa.closure_size()).count(), 3);
        // Clamped bounds degrade to empty slices instead of panicking.
        assert_eq!(isa.pairs_in(7, 100).count(), 0);
        assert_eq!(isa.pairs_in(2, 1).count(), 0);
    }

    #[test]
    fn diamond_hierarchy() {
        let mut isa = Isa::new();
        // d isa b, d isa c, b isa a, c isa a
        isa.add(o(4), o(2));
        isa.add(o(4), o(3));
        isa.add(o(2), o(1));
        isa.add(o(3), o(1));
        assert!(isa.in_class(o(4), o(1)));
        assert_eq!(isa.classes_of(o(4)).count(), 3);
        assert_eq!(isa.extent_size(o(1)), 3);
    }
}
