//! Sorted, deduplicated `Oid` runs — the shared column primitive of the
//! columnar fact storage.
//!
//! An [`OidRun`] is an immutable-by-default, `Arc`-shared sorted vector of
//! distinct object identifiers.  Cloning a run is a reference-count bump;
//! mutation goes through [`Arc::make_mut`], so a `Structure` snapshot and its
//! parent share every run that neither side has touched (copy-on-write per
//! run).  Because the data is sorted and dense:
//!
//! * membership tests are a binary search over a contiguous slice,
//! * iteration order is ascending `Oid` order — the same order the previous
//!   `BTreeSet<Oid>` backing produced, so every canonical dump and
//!   deterministic enumeration downstream is byte-identical,
//! * whole runs can be handed to a reference's answers
//!   ([`Answers`](crate::engine::Answers)) zero-copy: they hold the same
//!   `Arc` as the fact table, and a later write copies the run it changes.

use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use super::Oid;

/// A sorted run of distinct `Oid`s, `Arc`-shared and copy-on-write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OidRun(Arc<Vec<Oid>>);

impl OidRun {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared reference to the canonical empty run, for `unwrap_or` on
    /// lookup paths that must not allocate.
    pub fn empty_ref() -> &'static OidRun {
        static EMPTY: OnceLock<OidRun> = OnceLock::new();
        EMPTY.get_or_init(OidRun::new)
    }

    /// Is `oid` a member of the run?  Binary search over the sorted column.
    pub fn contains(&self, oid: &Oid) -> bool {
        self.0.binary_search(oid).is_ok()
    }

    /// Insert `oid`, keeping the run sorted.  Returns `true` if it was not
    /// present.  Copies the underlying vector only when shared.
    pub fn insert(&mut self, oid: Oid) -> bool {
        match self.0.binary_search(&oid) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.0).insert(pos, oid);
                true
            }
        }
    }

    /// Insert `oid` at `pos`, the `Err` position a binary search of the run
    /// reported for it — for callers that probe read-only first and only
    /// then take the run mutably.
    pub(super) fn insert_at(&mut self, pos: usize, oid: Oid) {
        debug_assert!(self.0.binary_search(&oid) == Err(pos));
        Arc::make_mut(&mut self.0).insert(pos, oid);
    }

    /// Merge `batch` — ascending, distinct, none of it a member yet — into
    /// the run, given `last_at`, the `Err` position a binary search of the
    /// run reported for the batch's last element: from the back, one block
    /// move per element and one binary search for each element before the
    /// last, so a batch of `k` into a run of `n` costs O(k log n + n) and
    /// one element is a plain insert at the probed position.  Copies the
    /// underlying vector only when shared.
    pub(super) fn merge_new(&mut self, batch: &[Oid], last_at: usize) {
        debug_assert!(batch.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(batch.iter().all(|x| !self.contains(x)));
        debug_assert!(batch.last().is_none_or(|x| self.0.binary_search(x) == Err(last_at)));
        let run = Arc::make_mut(&mut self.0);
        let mut end = run.len();
        run.resize(end + batch.len(), Oid(0));
        for (j, &x) in batch.iter().enumerate().rev() {
            let at = if j + 1 == batch.len() {
                last_at
            } else {
                run[..end].partition_point(|&y| y < x)
            };
            run.copy_within(at..end, at + j + 1);
            run[at + j] = x;
            end = at;
        }
    }

    /// Remove `oid`.  Returns `true` if it was present.
    pub fn remove(&mut self, oid: &Oid) -> bool {
        match self.0.binary_search(oid) {
            Ok(pos) => {
                Arc::make_mut(&mut self.0).remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate the members in ascending `Oid` order.
    pub fn iter(&self) -> std::slice::Iter<'_, Oid> {
        self.0.iter()
    }

    /// The members as a contiguous sorted slice.
    pub fn as_slice(&self) -> &[Oid] {
        &self.0
    }
}

impl Deref for OidRun {
    type Target = [Oid];

    fn deref(&self) -> &[Oid] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a OidRun {
    type Item = &'a Oid;
    type IntoIter = std::slice::Iter<'a, Oid>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Build a run from an iterator (sorts and deduplicates).
impl FromIterator<Oid> for OidRun {
    fn from_iter<I: IntoIterator<Item = Oid>>(iter: I) -> Self {
        let mut v: Vec<Oid> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        OidRun(Arc::new(v))
    }
}

/// A run equals a `BTreeSet` with the same members — both are sorted and
/// deduplicated, so this is a plain sequence comparison.  Keeps tests (and
/// callers migrating off the old `BTreeSet` backing) comparing directly.
impl PartialEq<BTreeSet<Oid>> for OidRun {
    fn eq(&self, other: &BTreeSet<Oid>) -> bool {
        self.0.len() == other.len() && self.0.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> Oid {
        Oid(i)
    }

    #[test]
    fn insert_keeps_sorted_unique() {
        let mut r = OidRun::new();
        assert!(r.insert(o(5)));
        assert!(r.insert(o(1)));
        assert!(r.insert(o(3)));
        assert!(!r.insert(o(3)), "duplicate");
        assert_eq!(r.as_slice(), &[o(1), o(3), o(5)]);
        assert!(r.contains(&o(3)));
        assert!(!r.contains(&o(4)));
    }

    #[test]
    fn merge_new_interleaves_a_batch_and_detaches_only_the_merged_side() {
        // Where a binary search of `r` puts `x`.
        let at = |r: &OidRun, x: u32| r.binary_search(&o(x)).unwrap_err();
        let mut r = OidRun::from_iter([o(2), o(5), o(9)]);
        let shared = r.clone();
        r.merge_new(&[o(0), o(3), o(4), o(10)], at(&r, 10));
        assert_eq!(r.as_slice(), &[o(0), o(2), o(3), o(4), o(5), o(9), o(10)]);
        assert_eq!(shared.as_slice(), &[o(2), o(5), o(9)], "copy-on-write detaches");
        r.merge_new(&[o(1)], at(&r, 1));
        assert_eq!(r.len(), 8);
        let mut empty = OidRun::new();
        empty.merge_new(&[o(7), o(8)], 0);
        assert_eq!(empty.as_slice(), &[o(7), o(8)]);
    }

    #[test]
    fn remove_and_empty_ref() {
        let mut r = OidRun::from_iter([o(2), o(1)]);
        assert!(r.remove(&o(1)));
        assert!(!r.remove(&o(1)));
        assert_eq!(r.len(), 1);
        assert!(OidRun::empty_ref().is_empty());
    }

    #[test]
    fn clone_is_shared_until_mutated() {
        let mut a = OidRun::from_iter([o(1), o(2)]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0), "clone shares the column");
        a.insert(o(3));
        assert_eq!(b.as_slice(), &[o(1), o(2)], "copy-on-write detaches");
        assert_eq!(a.as_slice(), &[o(1), o(2), o(3)]);
    }

    #[test]
    fn equals_btreeset_with_same_members() {
        let r = OidRun::from_iter([o(3), o(1)]);
        let s: BTreeSet<Oid> = [o(1), o(3)].into_iter().collect();
        assert_eq!(r, s);
        let t: BTreeSet<Oid> = [o(1), o(2)].into_iter().collect();
        assert_ne!(r, t);
    }
}
