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

use std::collections::{BTreeSet, HashMap, HashSet};
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
    /// the facts asserted since the previous boundary.  O(window).
    pub fn slide(&mut self, structure: &Structure) -> DeltaView {
        let hi = EvalMarks::capture(structure);
        let view = DeltaView::between(structure, &self.lo, &hi);
        self.lo = hi;
        view
    }
}

/// The facts added between two watermarks, indexed for delta joins.
///
/// Building a view is O(delta): it slices the insertion logs of the fact
/// store and the is-a closure and groups the entries by method, application
/// and class.
#[derive(Debug)]
pub struct DeltaView {
    lo: EvalMarks,
    hi: EvalMarks,
    /// New scalar facts, grouped by method: dense-vector fact positions.
    scalar_by_method: HashMap<Oid, Vec<usize>>,
    /// New set members, grouped by method: `(application index, member)`.
    set_by_method: HashMap<Oid, Vec<(usize, Oid)>>,
    /// New set members, grouped by application index.
    set_by_app: HashMap<usize, BTreeSet<Oid>>,
    /// New is-a closure pairs.
    isa_pairs: HashSet<(Oid, Oid)>,
    /// New is-a closure pairs, grouped by class: the new instances.
    isa_by_class: HashMap<Oid, Vec<Oid>>,
}

impl DeltaView {
    /// The delta between watermarks `lo` and `hi` of `structure`.
    pub fn between(structure: &Structure, lo: &EvalMarks, hi: &EvalMarks) -> Self {
        let facts = structure.facts();
        let mut view = DeltaView {
            lo: *lo,
            hi: *hi,
            scalar_by_method: HashMap::new(),
            set_by_method: HashMap::new(),
            set_by_app: HashMap::new(),
            isa_pairs: HashSet::new(),
            isa_by_class: HashMap::new(),
        };
        // The bounded log slices: entries past the `hi` watermark belong to
        // the next window and must not leak into this one.
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
            && self.set_by_method.is_empty()
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
        self.scalar_by_method.contains_key(&oid)
            || self.set_by_method.contains_key(&oid)
            || self.isa_by_class.contains_key(&oid)
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
        self.scalar_by_method.get(&method).map_or(&[], Vec::as_slice)
    }

    /// The log positions of every new set member
    /// ([`Facts::set_members_in`](crate::structure::Facts::set_members_in)
    /// bounds).
    pub(crate) fn new_set_entries(&self) -> Range<usize> {
        self.lo.set_member_inserts..self.hi.set_member_inserts
    }

    /// The new `(application index, member)` entries of `method`.
    pub(crate) fn new_set_entries_of_method(&self, method: Oid) -> &[(usize, Oid)] {
        self.set_by_method.get(&method).map_or(&[], Vec::as_slice)
    }

    /// The members application `app_idx` gained in the window, if any.
    pub(crate) fn new_members_of_app(&self, app_idx: usize) -> Option<&BTreeSet<Oid>> {
        self.set_by_app.get(&app_idx)
    }

    /// Did `(instance, class)` enter the is-a closure in the window?
    pub(crate) fn isa_is_new(&self, instance: Oid, class: Oid) -> bool {
        self.isa_pairs.contains(&(instance, class))
    }

    /// The log positions of every new is-a closure pair
    /// ([`Isa::pairs_in`](crate::structure::Isa::pairs_in) bounds).
    pub(crate) fn new_isa_pairs(&self) -> Range<usize> {
        self.lo.isa_pairs..self.hi.isa_pairs
    }

    /// The objects that joined the closure extent of `class` in the window.
    pub(crate) fn new_instances_of(&self, class: Oid) -> &[Oid] {
        self.isa_by_class.get(&class).map_or(&[], Vec::as_slice)
    }

    /// The objects created in the window.
    pub(crate) fn new_objects(&self) -> Range<usize> {
        self.lo.objects..self.hi.objects
    }

    /// Total number of log entries in the window (scalar facts, set members,
    /// is-a closure pairs) — the work a delta-driven solve is proportional to.
    pub fn entry_count(&self) -> usize {
        let scalars: usize = self.scalar_by_method.values().map(Vec::len).sum();
        let members: usize = self.set_by_method.values().map(Vec::len).sum();
        scalars + members + self.isa_pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
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
}
