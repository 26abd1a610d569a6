//! Per-method fact counts of a structure snapshot: what the liveness lint
//! (PL006) reads to treat externally stored keys as defined.

use std::collections::BTreeMap;

use crate::names::Name;
use crate::structure::Structure;

/// Per-method/class fact counts captured from a [`Structure`] snapshot.
///
/// Counts cover scalar facts, set members and class-extent sizes, keyed by
/// the method/class *name* (anonymous virtual methods cannot be named by a
/// program and are skipped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodStats {
    counts: BTreeMap<Name, usize>,
}

impl MethodStats {
    /// Capture per-method counts from a structure: a name's scalar facts
    /// plus its set members, raised to its class extent when it is a class
    /// with a directly asserted member.  A method with only empty set
    /// applications counts `Some(0)`; a name with nothing stored, `None`.
    ///
    /// Read off the indexes, not the facts: per method one posting-list
    /// length and the member-run lengths of its set applications, per class
    /// one extent size.
    pub fn capture(structure: &Structure) -> Self {
        let mut counts: BTreeMap<Name, usize> = BTreeMap::new();
        let facts = structure.facts();
        for (method, count) in facts.scalar_method_counts().chain(facts.set_method_counts()) {
            if let Some(n) = structure.name_of(method) {
                *counts.entry(n.clone()).or_insert(0) += count;
            }
        }
        for class in structure.isa().direct_classes() {
            if let Some(n) = structure.name_of(class) {
                let size = structure.isa().extent_size(class);
                let e = counts.entry(n.clone()).or_insert(0);
                *e = (*e).max(size);
            }
        }
        MethodStats { counts }
    }

    /// Number of stored facts for `name`, if any are known.
    pub fn count(&self, name: &Name) -> Option<usize> {
        self.counts.get(name).copied()
    }

    /// The names with at least one stored fact.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.counts.keys()
    }

    /// `true` when no facts were captured at all.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_structure() -> Structure {
        let mut s = Structure::new();
        let mary = s.ensure_name(&Name::atom("mary"));
        let peter = s.ensure_name(&Name::atom("peter"));
        let age = s.ensure_name(&Name::atom("age"));
        let kids = s.ensure_name(&Name::atom("kids"));
        let person = s.ensure_name(&Name::atom("person"));
        let thirty = s.ensure_name(&Name::int(30));
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        s.assert_set_member(kids, peter, &[], mary);
        s.add_isa(mary, person);
        s.add_isa(peter, person);
        s
    }

    #[test]
    fn stats_capture_counts_per_method() {
        let s = small_structure();
        let stats = MethodStats::capture(&s);
        assert_eq!(stats.count(&Name::atom("age")), Some(1));
        assert_eq!(stats.count(&Name::atom("kids")), Some(1));
        assert_eq!(stats.count(&Name::atom("person")), Some(2));
        assert_eq!(stats.count(&Name::atom("salary")), None);
    }

    /// The counts as a walk over every stored fact and every direct is-a
    /// edge computes them: the reference `capture` must agree with.
    fn counts_by_walk(structure: &Structure) -> MethodStats {
        let mut counts: BTreeMap<Name, usize> = BTreeMap::new();
        let facts = structure.facts();
        for f in facts.scalar_facts() {
            if let Some(n) = structure.name_of(f.method) {
                *counts.entry(n.clone()).or_insert(0) += 1;
            }
        }
        for f in facts.set_facts() {
            if let Some(n) = structure.name_of(f.method) {
                *counts.entry(n.clone()).or_insert(0) += f.members.len();
            }
        }
        for (_, class) in structure.isa().direct_edges() {
            if let Some(n) = structure.name_of(class) {
                let size = structure.isa().extent_size(class);
                let e = counts.entry(n.clone()).or_insert(0);
                if *e < size {
                    *e = size;
                }
            }
        }
        MethodStats { counts }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Scalar(u8, u8, u8),
        RetractScalar(u8, u8),
        Member(u8, u8, u8),
        RetractMember(u8, u8, u8),
        Declare(u8, u8),
        Isa(u8, u8),
    }

    /// An op's method `m`: the named object `n<m>` below 4, the anonymous
    /// virtual object at 4.
    const METHODS: u8 = 5;
    const OBJECTS: u8 = 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Index-read counts equal the walk over every fact — with
        /// retracted scalar facts and members, declared-but-empty sets,
        /// multi-level class chains (objects double as classes and methods)
        /// and an anonymous virtual method.
        #[test]
        fn captured_counts_equal_the_walk_over_every_fact(
            ops in prop::collection::vec(prop_oneof![
                (0u8..METHODS, 0u8..OBJECTS, 0u8..OBJECTS).prop_map(|(m, r, v)| Op::Scalar(m, r, v)),
                (0u8..METHODS, 0u8..OBJECTS).prop_map(|(m, r)| Op::RetractScalar(m, r)),
                (0u8..METHODS, 0u8..OBJECTS, 0u8..OBJECTS).prop_map(|(m, r, v)| Op::Member(m, r, v)),
                (0u8..METHODS, 0u8..OBJECTS, 0u8..OBJECTS).prop_map(|(m, r, v)| Op::RetractMember(m, r, v)),
                (0u8..METHODS, 0u8..OBJECTS).prop_map(|(m, r)| Op::Declare(m, r)),
                (0u8..OBJECTS, 0u8..OBJECTS).prop_map(|(a, b)| Op::Isa(a, b)),
            ], 0..60),
        ) {
            let mut s = Structure::new();
            let mut methods: Vec<_> = (0..METHODS - 1).map(|i| s.atom(&format!("n{i}"))).collect();
            methods.push(s.new_virtual());
            // The first objects are the named methods, so classes, methods
            // and members share names.
            let objects: Vec<_> = (0..OBJECTS).map(|i| s.atom(&format!("n{i}"))).collect();
            for op in &ops {
                match *op {
                    Op::Scalar(m, r, v) => {
                        let _ = s.assert_scalar(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
                    }
                    Op::RetractScalar(m, r) => {
                        s.retract_scalar(methods[m as usize], objects[r as usize], &[]);
                    }
                    Op::Member(m, r, v) => {
                        s.assert_set_member(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
                    }
                    Op::RetractMember(m, r, v) => {
                        s.retract_set_member(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
                    }
                    Op::Declare(m, r) => s.declare_set(methods[m as usize], objects[r as usize], &[]),
                    Op::Isa(a, b) => {
                        s.add_isa(objects[a as usize], objects[b as usize]);
                    }
                }
            }
            let (captured, walked) = (MethodStats::capture(&s), counts_by_walk(&s));
            prop_assert_eq!(&captured, &walked);
        }
    }
}
