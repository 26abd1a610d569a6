//! The iteration window of semi-naive evaluation and its indexed view.
//!
//! Semi-naive bottom-up evaluation rests on one observation: a rule firing
//! can only contribute *new* information if the body solution it fires on
//! reads at least one fact that was itself derived in the previous
//! iteration.  The structure's insertion logs make "the previous iteration"
//! a pair of watermarks ([`EvalMarks`]); a [`SnapshotWindow`] slides such a
//! pair along the logs, and a [`DeltaView`] indexes the facts between them —
//! new scalar results and set members by method and by application, new
//! is-a closure pairs by class, the range of new objects — so that the
//! window-restricted atom steps of [`crate::plan`] can *drive* a join from
//! the delta, or probe it for one application, in time proportional to the
//! window instead of the structure.
//!
//! A view is flat: each grouping is one vector of the window's log entries,
//! sorted once by key when the window slides — O(w log w) for a window of
//! `w` entries, no hashing — and a lookup is a binary search for the key's
//! range.  Every key keeps its entries in log order: the sort is by key and
//! then by log position.

use std::ops::Range;

use crate::structure::{Oid, Structure};

pub use crate::structure::EvalMarks;

/// A sliding snapshot window over a structure's insertion logs — the
/// iteration-boundary plumbing of the engine's cross-rule scheduling.
///
/// The window remembers the watermarks of its last capture; [`slide`]
/// advances them to the present and returns the [`DeltaView`] of everything
/// asserted in between.  One window per stratum, slid once per fixpoint
/// iteration, gives every rule of the stratum the *same* delta (see the
/// `pathlog_core::engine` module docs).
///
/// [`slide`]: SnapshotWindow::slide
#[derive(Debug, Clone, Copy)]
pub struct SnapshotWindow {
    lo: EvalMarks,
}

impl SnapshotWindow {
    /// Open a window at the structure's current watermarks (the first
    /// [`slide`](SnapshotWindow::slide) covers everything asserted after
    /// this call).
    pub fn capture(structure: &Structure) -> Self {
        SnapshotWindow {
            lo: EvalMarks::capture(structure),
        }
    }

    /// The lower watermarks of the window (the structure state its next
    /// [`slide`](SnapshotWindow::slide) reaches back to).
    pub fn marks(&self) -> EvalMarks {
        self.lo
    }

    /// Advance the window to the structure's present and return the view of
    /// the facts asserted since the previous boundary: one sort of each of
    /// the window's log slices.
    pub fn slide(&mut self, structure: &Structure) -> DeltaView {
        let hi = EvalMarks::capture(structure);
        let view = DeltaView::between(structure, &self.lo, &hi);
        self.lo = hi;
        view
    }
}

/// Log entries grouped by key: `keys` ascending, `values[i]` the entry filed
/// under `keys[i]`, and the entries of one key contiguous — a key's group is
/// a binary search away.
#[derive(Debug, Clone)]
struct Grouped<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Ord + Copy, V> Grouped<K, V> {
    /// Group `log` — a window's entries, in log order — by `key`, each key's
    /// entries in log order: one in-place sort of `(key, log position)`
    /// pairs, which are distinct, so the order is that of a stable sort by
    /// key; then one gather of `value`.
    fn by_key<T>(log: &[T], key: impl Fn(&T) -> K, value: impl Fn(&T) -> V) -> Self {
        let mut order: Vec<(K, u32)> = log.iter().zip(0..).map(|(entry, at)| (key(entry), at)).collect();
        order.sort_unstable();
        Grouped {
            keys: order.iter().map(|&(k, _)| k).collect(),
            values: order.iter().map(|&(_, at)| value(&log[at as usize])).collect(),
        }
    }

    /// `entries`, already sorted by key.
    fn sorted(entries: Vec<(K, V)>) -> Self {
        let (keys, values) = entries.into_iter().unzip();
        Grouped { keys, values }
    }

    /// The entries filed under `key`.
    fn get(&self, key: K) -> &[V] {
        let lo = self.keys.partition_point(|&k| k < key);
        let hi = lo + self.keys[lo..].partition_point(|&k| k == key);
        &self.values[lo..hi]
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

/// The facts added between two watermarks, indexed for delta joins.
///
/// Building a view slices the insertion logs of the fact store and the is-a
/// closure and sorts each slice once by method, application or class (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct DeltaView {
    lo: EvalMarks,
    hi: EvalMarks,
    /// New scalar facts by method: dense-vector fact positions, in log order.
    scalar_by_method: Grouped<Oid, usize>,
    /// New set members by method: `(application index, member)`, in log
    /// order.
    set_by_method: Grouped<Oid, (usize, Oid)>,
    /// New set members by application index: ascending, distinct.
    set_by_app: Grouped<usize, Oid>,
    /// New is-a closure pairs `(instance, class)`, ascending.
    isa_pairs: Vec<(Oid, Oid)>,
    /// New is-a closure pairs by class: the new instances, in log order.
    isa_by_class: Grouped<Oid, Oid>,
}

impl DeltaView {
    /// The delta between watermarks `lo` and `hi` of `structure`.
    pub fn between(structure: &Structure, lo: &EvalMarks, hi: &EvalMarks) -> Self {
        let facts = structure.facts();
        // The bounded log slices: entries past the `hi` watermark belong to
        // the next window and must not leak into this one.
        let scalars: Vec<(usize, Oid)> = facts
            .scalar_facts_in(lo.scalar_facts, hi.scalar_facts)
            .map(|(idx, fact)| (idx, fact.method))
            .collect();
        let mut members: Vec<(usize, Oid)> = facts
            .set_members_in(lo.set_member_inserts, hi.set_member_inserts)
            .collect();
        let set_by_method = Grouped::by_key(&members, |&(app, _)| facts.set_fact_at(app).method, |&entry| entry);
        members.sort_unstable();
        members.dedup();
        let mut isa_pairs: Vec<(Oid, Oid)> = structure.isa().pairs_in(lo.isa_pairs, hi.isa_pairs).collect();
        let isa_by_class = Grouped::by_key(&isa_pairs, |&(_, class)| class, |&(instance, _)| instance);
        isa_pairs.sort_unstable();
        DeltaView {
            lo: *lo,
            hi: *hi,
            scalar_by_method: Grouped::by_key(&scalars, |&(_, method)| method, |&(idx, _)| idx),
            set_by_method,
            set_by_app: Grouped::sorted(members),
            isa_pairs,
            isa_by_class,
        }
    }

    /// The empty window at `structure`'s present: nothing entered it, so
    /// every restricted step finds nothing — what the atoms of a query,
    /// which restricts no literal, run over.
    pub fn empty(structure: &Structure) -> Self {
        let now = EvalMarks::capture(structure);
        DeltaView::between(structure, &now, &now)
    }

    /// Is the delta empty (no new facts of any kind)?
    pub fn is_empty(&self) -> bool {
        self.new_scalar_facts().is_empty()
            && self.set_by_method.values.is_empty()
            && self.isa_pairs.is_empty()
            && !self.has_new_objects()
            && !self.sigs_changed()
    }

    /// Were any objects created inside the window?  New (virtual) objects
    /// can satisfy literals through positions that read no named key — the
    /// engine treats every positive literal as delta-drivable when this
    /// holds.
    pub fn has_new_objects(&self) -> bool {
        self.lo.objects != self.hi.objects
    }

    /// Were any signature declarations added inside the window?
    /// Declarations carry no per-fact stamps, so readers must be re-matched
    /// conservatively.
    pub fn sigs_changed(&self) -> bool {
        self.hi.signatures > self.lo.signatures
    }

    /// Does the window contain any fact — scalar result, set member or is-a
    /// pair — whose method/class position is `oid`?  This is what decides
    /// whether a body literal reading that key can be driven by this delta.
    pub fn has_new_facts_for(&self, oid: Oid) -> bool {
        !self.scalar_by_method.get(oid).is_empty()
            || !self.set_by_method.get(oid).is_empty()
            || !self.isa_by_class.get(oid).is_empty()
    }

    /// Was the scalar fact at dense position `idx` asserted in the window?
    pub(crate) fn scalar_is_new(&self, idx: usize) -> bool {
        self.new_scalar_facts().contains(&idx)
    }

    /// The dense positions of every new scalar fact
    /// ([`Facts::scalar_facts_in`](crate::structure::Facts::scalar_facts_in)
    /// bounds).
    pub(crate) fn new_scalar_facts(&self) -> Range<usize> {
        self.lo.scalar_facts..self.hi.scalar_facts
    }

    /// The dense positions of the new scalar facts of `method`.
    pub(crate) fn new_scalar_facts_of_method(&self, method: Oid) -> &[usize] {
        self.scalar_by_method.get(method)
    }

    /// The log positions of every new set member
    /// ([`Facts::set_members_in`](crate::structure::Facts::set_members_in)
    /// bounds).
    pub(crate) fn new_set_entries(&self) -> Range<usize> {
        self.lo.set_member_inserts..self.hi.set_member_inserts
    }

    /// The new `(application index, member)` entries of `method`.
    pub(crate) fn new_set_entries_of_method(&self, method: Oid) -> &[(usize, Oid)] {
        self.set_by_method.get(method)
    }

    /// The members application `app_idx` gained in the window, if any, as
    /// an ascending slice.
    pub(crate) fn new_members_of_app(&self, app_idx: usize) -> Option<&[Oid]> {
        let new = self.set_by_app.get(app_idx);
        (!new.is_empty()).then_some(new)
    }

    /// Did `(instance, class)` enter the is-a closure in the window?
    pub(crate) fn isa_is_new(&self, instance: Oid, class: Oid) -> bool {
        self.isa_pairs.binary_search(&(instance, class)).is_ok()
    }

    /// The log positions of every new is-a closure pair
    /// ([`Isa::pairs_in`](crate::structure::Isa::pairs_in) bounds).
    pub(crate) fn new_isa_pairs(&self) -> Range<usize> {
        self.lo.isa_pairs..self.hi.isa_pairs
    }

    /// The objects that joined the closure extent of `class` in the window.
    pub(crate) fn new_instances_of(&self, class: Oid) -> &[Oid] {
        self.isa_by_class.get(class)
    }

    /// The objects created in the window.
    pub(crate) fn new_objects(&self) -> Range<usize> {
        self.lo.objects..self.hi.objects
    }

    /// Total number of log entries in the window (scalar facts, set members,
    /// is-a closure pairs) — the work a delta-driven solve is proportional to.
    pub fn entry_count(&self) -> usize {
        self.scalar_by_method.len() + self.set_by_method.len() + self.isa_pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The members are read as any ordered collection would be read.
    #[allow(clippy::iter_cloned_collect)]
    fn view_indexes_exactly_the_window() {
        let mut s = Structure::new();
        let (kids, person, age) = (s.atom("kids"), s.atom("person"), s.atom("age"));
        let (peter, tim, sally) = (s.atom("peter"), s.atom("tim"), s.atom("sally"));
        s.assert_set_member(kids, peter, &[], tim);
        s.add_isa(peter, person);
        let mut window = SnapshotWindow::capture(&s);
        assert!(window.slide(&s).is_empty(), "nothing asserted since the capture");

        s.assert_set_member(kids, peter, &[], sally);
        s.add_isa(tim, person);
        let five = s.int(5);
        s.assert_scalar(age, sally, &[], five).unwrap();
        let dv = window.slide(&s);
        assert!(!dv.is_empty() && dv.has_new_objects() && !dv.sigs_changed());
        assert_eq!(dv.entry_count(), 3);
        assert!(dv.has_new_facts_for(kids) && dv.has_new_facts_for(person) && dv.has_new_facts_for(age));
        assert!(!dv.has_new_facts_for(peter));

        let app = s.facts().set_index(kids, peter, &[]).unwrap();
        assert_eq!(dv.new_set_entries_of_method(kids), &[(app, sally)]);
        assert_eq!(
            dv.new_members_of_app(app).unwrap().iter().copied().collect::<Vec<_>>(),
            vec![sally]
        );
        assert_eq!(dv.new_set_entries().len(), 1);
        let idx = s.facts().scalar_index(age, sally, &[]).unwrap();
        assert!(dv.scalar_is_new(idx));
        assert_eq!(dv.new_scalar_facts_of_method(age), &[idx]);
        assert_eq!(dv.new_instances_of(person), &[tim]);
        assert!(dv.isa_is_new(tim, person) && !dv.isa_is_new(peter, person));
        assert_eq!(dv.new_isa_pairs().len(), 1);
        assert_eq!(dv.new_objects().map(|i| Oid(i as u32)).collect::<Vec<_>>(), vec![five]);
        assert!(window.slide(&s).is_empty(), "the window moved past them");
    }

    use std::collections::{BTreeSet, HashMap, HashSet};

    use proptest::prelude::*;

    /// The view as it was built with hash maps and a set per application:
    /// the reference the flat view must agree with, orders included.
    struct HashedView {
        lo: EvalMarks,
        hi: EvalMarks,
        scalar_by_method: HashMap<Oid, Vec<usize>>,
        set_by_method: HashMap<Oid, Vec<(usize, Oid)>>,
        set_by_app: HashMap<usize, BTreeSet<Oid>>,
        isa_pairs: HashSet<(Oid, Oid)>,
        isa_by_class: HashMap<Oid, Vec<Oid>>,
    }

    impl HashedView {
        fn between(structure: &Structure, lo: &EvalMarks, hi: &EvalMarks) -> Self {
            let facts = structure.facts();
            let mut view = HashedView {
                lo: *lo,
                hi: *hi,
                scalar_by_method: HashMap::new(),
                set_by_method: HashMap::new(),
                set_by_app: HashMap::new(),
                isa_pairs: HashSet::new(),
                isa_by_class: HashMap::new(),
            };
            for (idx, fact) in facts.scalar_facts_in(lo.scalar_facts, hi.scalar_facts) {
                view.scalar_by_method.entry(fact.method).or_default().push(idx);
            }
            for (app_idx, member) in facts.set_members_in(lo.set_member_inserts, hi.set_member_inserts) {
                let method = facts.set_fact_at(app_idx).method;
                view.set_by_method.entry(method).or_default().push((app_idx, member));
                view.set_by_app.entry(app_idx).or_default().insert(member);
            }
            for (sub, sup) in structure.isa().pairs_in(lo.isa_pairs, hi.isa_pairs) {
                view.isa_pairs.insert((sub, sup));
                view.isa_by_class.entry(sup).or_default().push(sub);
            }
            view
        }

        fn entry_count(&self) -> usize {
            let scalars: usize = self.scalar_by_method.values().map(Vec::len).sum();
            let members: usize = self.set_by_method.values().map(Vec::len).sum();
            scalars + members + self.isa_pairs.len()
        }

        fn is_empty(&self) -> bool {
            self.lo.scalar_facts == self.hi.scalar_facts
                && self.set_by_method.is_empty()
                && self.isa_pairs.is_empty()
                && self.lo.objects == self.hi.objects
                && self.hi.signatures <= self.lo.signatures
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A new object.
        Name(u16),
        Scalar(u8, u8, u8),
        /// Method, receiver, argument (none when past the objects), member.
        Member(u8, u8, u8, u8),
        Isa(u8, u8),
    }

    const OBJECTS: u8 = 12;

    fn op() -> impl Strategy<Value = Op> {
        let (m, o) = (0u8..3, 0u8..OBJECTS);
        prop_oneof![
            (0u16..500).prop_map(Op::Name),
            (m.clone(), o.clone(), o.clone()).prop_map(|(m, r, v)| Op::Scalar(m, r, v)),
            (m, o.clone(), 0u8..2 * OBJECTS, o.clone()).prop_map(|(m, r, a, v)| Op::Member(m, r, a, v)),
            (o.clone(), o).prop_map(|(a, b)| Op::Isa(a, b)),
        ]
    }

    fn apply(s: &mut Structure, op: &Op) {
        let obj = |s: &mut Structure, k: u8| s.atom(&format!("o{k}"));
        let method = |s: &mut Structure, m: u8| s.atom(&format!("m{m}"));
        match *op {
            Op::Name(k) => {
                s.int(i64::from(k));
            }
            Op::Scalar(m, r, v) => {
                let (m, r, v) = (method(s, m), obj(s, r), obj(s, v));
                let _ = s.assert_scalar(m, r, &[], v);
            }
            Op::Member(m, r, a, v) => {
                let (m, r, v) = (method(s, m), obj(s, r), obj(s, v));
                let args = if a < OBJECTS { vec![obj(s, a)] } else { vec![] };
                s.assert_set_member(m, r, &args, v);
            }
            Op::Isa(a, b) => {
                let (a, b) = (obj(s, a), obj(s, b));
                s.add_isa(a, b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random windows of random histories — scalar facts, set
        /// members with and without arguments, is-a chains, new objects,
        /// and entries past the upper watermark — every accessor of the
        /// flat view returns what the hashed reference does, in the same
        /// order.
        #[test]
        fn flat_view_equals_the_hashed_reference(
            ops in prop::collection::vec(op(), 0..80),
            cuts in (0usize..81, 0usize..81),
        ) {
            let (a, b) = (cuts.0.min(ops.len()), cuts.1.min(ops.len()));
            let (first, second) = (a.min(b), a.max(b));
            let mut s = Structure::new();
            for name in ["m0", "m1", "m2"] {
                s.atom(name);
            }
            for k in 0..OBJECTS {
                s.atom(&format!("o{k}"));
            }
            let mut lo = EvalMarks::capture(&s);
            let mut hi = lo;
            for (i, op) in ops.iter().enumerate() {
                if i == first {
                    lo = EvalMarks::capture(&s);
                }
                if i == second {
                    hi = EvalMarks::capture(&s);
                }
                apply(&mut s, op);
            }
            if second == ops.len() {
                hi = EvalMarks::capture(&s);
                if first == ops.len() {
                    lo = hi;
                }
            }
            let (flat, hashed) = (DeltaView::between(&s, &lo, &hi), HashedView::between(&s, &lo, &hi));
            prop_assert_eq!(flat.entry_count(), hashed.entry_count());
            prop_assert_eq!(flat.is_empty(), hashed.is_empty());
            let none: &[Oid] = &[];
            for o in s.objects() {
                prop_assert_eq!(
                    flat.new_scalar_facts_of_method(o),
                    hashed.scalar_by_method.get(&o).map_or(&[][..], Vec::as_slice)
                );
                prop_assert_eq!(
                    flat.new_set_entries_of_method(o),
                    hashed.set_by_method.get(&o).map_or(&[][..], Vec::as_slice)
                );
                prop_assert_eq!(
                    flat.new_instances_of(o),
                    hashed.isa_by_class.get(&o).map_or(none, Vec::as_slice)
                );
                let has = hashed.scalar_by_method.contains_key(&o)
                    || hashed.set_by_method.contains_key(&o)
                    || hashed.isa_by_class.contains_key(&o);
                prop_assert_eq!(flat.has_new_facts_for(o), has);
                for c in s.objects() {
                    prop_assert_eq!(flat.isa_is_new(o, c), hashed.isa_pairs.contains(&(o, c)));
                }
            }
            for app in 0..s.facts().num_set_applications() + 1 {
                prop_assert_eq!(
                    flat.new_members_of_app(app).map(<[Oid]>::to_vec),
                    hashed.set_by_app.get(&app).map(|m| m.iter().copied().collect::<Vec<_>>())
                );
            }
        }
    }
}
