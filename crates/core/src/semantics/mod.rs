//! The direct semantics of PathLog (Section 5 of the paper).
//!
//! A reference plays two roles at once:
//!
//! * as a **term** it denotes a set of objects — the *valuation*
//!   `nu_I : T -> 2^U` of Definition 4 ([`valuate`]);
//! * as a **formula** it is true iff it denotes at least one object —
//!   *entailment*, Definition 5 ([`entails`]).
//!
//! Both are computed against a [`Structure`] and a variable-valuation
//! ([`Bindings`]).  [`valuate`] requires every variable of the reference to
//! be bound (it implements the mathematical definition); the companion module
//! [`answers`](mod@answers) enumerates the variable-valuations under which a reference
//! denotes something, which is what rule evaluation needs, and joins a rule
//! body's answers in written order ([`solve_body`]).  On that evaluator the
//! [`model`] module checks Definition 5 ([`is_model`]) and computes the
//! reference least fixpoint of Section 6 ([`fixpoint`]).

pub mod answers;
pub mod delta;
pub mod model;

pub use answers::{answers, answers_matching, solve_body, Answer};
pub use delta::{DeltaView, EvalMarks, SnapshotWindow};
pub use model::{fixpoint, is_model, violations, Violation};

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::names::Var;
use crate::structure::{Oid, Structure};
use crate::term::{Filter, FilterValue, Term};

/// A variable-valuation `sigma : V -> U`, mapping variables to objects.
///
/// Stored as a persistent (structurally shared) linked list: extending a
/// valuation allocates one node and *cloning* one — which the engine's join
/// loops do once or more per enumerated answer — is a reference-count bump.
/// Rules bind only a handful of variables, so the linear lookup this costs
/// is cheaper than hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    head: Option<std::sync::Arc<BindingNode>>,
    len: usize,
}

#[derive(Debug, PartialEq, Eq)]
struct BindingNode {
    var: Var,
    oid: Oid,
    next: Option<std::sync::Arc<BindingNode>>,
}

impl Bindings {
    /// The empty valuation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The object assigned to `var`, if bound.
    pub fn get(&self, var: &Var) -> Option<Oid> {
        let mut node = self.head.as_deref();
        while let Some(n) = node {
            if &n.var == var {
                return Some(n.oid);
            }
            node = n.next.as_deref();
        }
        None
    }

    /// Is `var` bound?
    pub fn is_bound(&self, var: &Var) -> bool {
        self.get(var).is_some()
    }

    /// A new valuation extending `self` with `var -> oid`.  Binding an
    /// already-bound variable to a *different* object yields `None`.
    pub fn bind(&self, var: &Var, oid: Oid) -> Option<Bindings> {
        match self.get(var) {
            Some(existing) if existing == oid => Some(self.clone()),
            Some(_) => None,
            None => Some(Bindings {
                head: Some(std::sync::Arc::new(BindingNode {
                    var: var.clone(),
                    oid,
                    next: self.head.clone(),
                })),
                len: self.len + 1,
            }),
        }
    }

    /// The valuation binding every pair of `pairs`, whose variables are
    /// distinct: the nodes are pushed in order, as the chain of
    /// [`Bindings::bind`] over `pairs` pushes them, without scanning the list
    /// for a conflict that distinct variables cannot have.
    pub(crate) fn from_distinct<'v>(pairs: impl IntoIterator<Item = (&'v Var, Oid)>) -> Self {
        let mut b = Bindings::new();
        for (var, oid) in pairs {
            debug_assert!(!b.is_bound(var), "{var} is bound twice");
            b.head = Some(std::sync::Arc::new(BindingNode {
                var: var.clone(),
                oid,
                next: b.head.take(),
            }));
            b.len += 1;
        }
        b
    }

    /// Bind in place (asserts the variable is unbound or equal).
    pub fn bind_mut(&mut self, var: &Var, oid: Oid) -> bool {
        match self.get(var) {
            Some(existing) => existing == oid,
            None => {
                self.head = Some(std::sync::Arc::new(BindingNode {
                    var: var.clone(),
                    oid,
                    next: self.head.take(),
                }));
                self.len += 1;
                true
            }
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the bound variables (most recently bound first).
    pub fn iter(&self) -> impl Iterator<Item = (&Var, Oid)> + '_ {
        std::iter::successors(self.head.as_deref(), |n| n.next.as_deref()).map(|n| (&n.var, n.oid))
    }

    /// Build a valuation from pairs (later pairs win is *not* supported —
    /// duplicate variables must agree).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, Oid)>) -> Option<Self> {
        let mut b = Bindings::new();
        for (v, o) in pairs {
            if !b.bind_mut(&v, o) {
                return None;
            }
        }
        Some(b)
    }
}

/// Evaluate the valuation `nu_I(t)` of a reference under `bindings`
/// (Definition 4).  Every variable occurring in `t` must be bound; otherwise
/// [`Error::NotGround`] is returned.
///
/// Names that are not registered in the structure denote no object (their
/// valuation is empty); callers that want the paper's total `I_N` should
/// register names up front (the engine does).
pub fn valuate(structure: &Structure, term: &Term, bindings: &Bindings) -> Result<BTreeSet<Oid>> {
    match term {
        Term::Name(n) => Ok(structure.lookup_name(n).into_iter().collect()),
        Term::Var(v) => match bindings.get(v) {
            Some(o) => Ok(std::iter::once(o).collect()),
            None => Err(Error::NotGround(format!("variable {v} is unbound"))),
        },
        Term::Paren(t) => valuate(structure, t, bindings),
        Term::Path(p) => {
            let receivers = valuate(structure, &p.receiver, bindings)?;
            let methods = valuate(structure, &p.method, bindings)?;
            let arg_sets = p
                .args
                .iter()
                .map(|a| valuate(structure, a, bindings))
                .collect::<Result<Vec<_>>>()?;
            let mut out = BTreeSet::new();
            for &m in &methods {
                for &r in &receivers {
                    for args in cartesian(&arg_sets) {
                        if p.set_valued {
                            if let Some(members) = structure.apply_set(m, r, &args) {
                                out.extend(members.iter().copied());
                            }
                        } else if let Some(res) = structure.apply_scalar(m, r, &args) {
                            out.insert(res);
                        }
                    }
                }
            }
            Ok(out)
        }
        Term::IsA(i) => {
            let receivers = valuate(structure, &i.receiver, bindings)?;
            let classes = valuate(structure, &i.class, bindings)?;
            Ok(receivers
                .into_iter()
                .filter(|&r| classes.iter().any(|&c| structure.in_class(r, c)))
                .collect())
        }
        Term::Molecule(m) => {
            let receivers = valuate(structure, &m.receiver, bindings)?;
            let mut out = BTreeSet::new();
            'recv: for r in receivers {
                for f in &m.filters {
                    if !filter_holds(structure, r, f, bindings)? {
                        continue 'recv;
                    }
                }
                out.insert(r);
            }
            Ok(out)
        }
    }
}

/// Entailment `I |=_sigma t` (Definition 5): the reference denotes at least
/// one object.
pub fn entails(structure: &Structure, term: &Term, bindings: &Bindings) -> Result<bool> {
    Ok(!valuate(structure, term, bindings)?.is_empty())
}

/// Does object `receiver` satisfy `filter` under `bindings` (Definition 4,
/// items 6–8)?
fn filter_holds(structure: &Structure, receiver: Oid, filter: &Filter, bindings: &Bindings) -> Result<bool> {
    let methods = valuate(structure, &filter.method, bindings)?;
    let arg_sets = filter
        .args
        .iter()
        .map(|a| valuate(structure, a, bindings))
        .collect::<Result<Vec<_>>>()?;
    match &filter.value {
        FilterValue::Scalar(rt) => {
            let expected = valuate(structure, rt, bindings)?;
            for &m in &methods {
                for args in cartesian(&arg_sets) {
                    if let Some(res) = structure.apply_scalar(m, receiver, &args) {
                        if expected.contains(&res) {
                            return Ok(true);
                        }
                    }
                }
            }
            Ok(false)
        }
        FilterValue::SetRef(rt) => {
            let required = valuate(structure, rt, bindings)?;
            for &m in &methods {
                for args in cartesian(&arg_sets) {
                    let have = structure.apply_set(m, receiver, &args);
                    let superset = match have {
                        Some(members) => required.iter().all(|x| members.contains(x)),
                        // `I_->>` is a total function into sets; an undefined
                        // application is the empty set.
                        None => required.is_empty(),
                    };
                    if superset {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
        FilterValue::SetExplicit(elems) => {
            let mut required = BTreeSet::new();
            for e in elems {
                required.extend(valuate(structure, e, bindings)?);
            }
            for &m in &methods {
                for args in cartesian(&arg_sets) {
                    let have = structure.apply_set(m, receiver, &args);
                    let superset = match have {
                        Some(members) => required.iter().all(|x| members.contains(x)),
                        None => required.is_empty(),
                    };
                    if superset {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
        // Signature filters are declarations, not conditions on the state of
        // an object; as a formula they hold iff the declaration is recorded.
        FilterValue::SigScalar(results) | FilterValue::SigSet(results) => {
            let set_valued = matches!(filter.value, FilterValue::SigSet(_));
            let mut result_classes = BTreeSet::new();
            for r in results {
                result_classes.extend(valuate(structure, r, bindings)?);
            }
            for &m in &methods {
                for args in cartesian(&arg_sets) {
                    let found = structure.signatures().for_method(m).any(|sig| {
                        sig.set_valued == set_valued
                            && sig.class == receiver
                            && sig.arg_classes.as_ref() == args.as_slice()
                            && result_classes.iter().all(|rc| sig.result_classes.contains(rc))
                    });
                    if found {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
    }
}

/// Cartesian product of argument valuations.  With no arguments the product
/// is the single empty tuple.
pub(crate) fn cartesian(sets: &[BTreeSet<Oid>]) -> Vec<Vec<Oid>> {
    let mut out = vec![Vec::new()];
    for s in sets {
        let mut next = Vec::with_capacity(out.len() * s.len().max(1));
        for prefix in &out {
            for &x in s {
                let mut row = prefix.clone();
                row.push(x);
                next.push(row);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Filter as TFilter;

    /// The little family / company world used by the paper's examples.
    fn world() -> Structure {
        let mut s = Structure::new();
        let (mary, john, peter) = (s.atom("mary"), s.atom("john"), s.atom("peter"));
        let (spouse, age, boss) = (s.atom("spouse"), s.atom("age"), s.atom("boss"));
        let (kids, tim, sally) = (s.atom("kids"), s.atom("tim"), s.atom("sally"));
        let (employee, person) = (s.atom("employee"), s.atom("person"));
        let thirty = s.int(30);
        s.assert_scalar(spouse, mary, &[], peter).unwrap();
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        s.assert_scalar(boss, peter, &[], mary).unwrap();
        s.assert_set_member(kids, mary, &[], tim);
        s.assert_set_member(kids, mary, &[], sally);
        s.add_isa(employee, person);
        s.add_isa(mary, employee);
        s.add_isa(john, person);
        s
    }

    fn oid(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&crate::names::Name::atom(n)).unwrap()
    }

    #[test]
    fn bindings_bind_and_conflict() {
        let mut b = Bindings::new();
        assert!(b.is_empty());
        assert!(b.bind_mut(&Var::new("X"), Oid(1)));
        assert!(b.bind_mut(&Var::new("X"), Oid(1)));
        assert!(!b.bind_mut(&Var::new("X"), Oid(2)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(&Var::new("X")), Some(Oid(1)));
        let b2 = b.bind(&Var::new("Y"), Oid(3)).unwrap();
        assert_eq!(b2.len(), 2);
        assert!(b.bind(&Var::new("X"), Oid(2)).is_none());
        assert!(Bindings::from_pairs([(Var::new("A"), Oid(1)), (Var::new("A"), Oid(2))]).is_none());
    }

    #[test]
    fn distinct_pairs_build_what_the_bind_chain_builds() {
        let pairs = [
            (Var::new("X"), Oid(4)),
            (Var::new("B"), Oid(0)),
            (Var::new("Z"), Oid(9)),
        ];
        for n in 0..=pairs.len() {
            let chained = pairs[..n]
                .iter()
                .fold(Bindings::new(), |b, (v, o)| b.bind(v, *o).expect("distinct"));
            let direct = Bindings::from_distinct(pairs[..n].iter().map(|(v, o)| (v, *o)));
            assert_eq!(direct, chained);
            assert_eq!(format!("{direct:?}"), format!("{chained:?}"));
            assert_eq!(direct.iter().collect::<Vec<_>>(), chained.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn name_valuation_is_singleton_or_empty() {
        let s = world();
        let v = valuate(&s, &Term::name("mary"), &Bindings::new()).unwrap();
        assert_eq!(v.len(), 1);
        let v = valuate(&s, &Term::name("nobody"), &Bindings::new()).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let s = world();
        let err = valuate(&s, &Term::var("X"), &Bindings::new()).unwrap_err();
        assert!(matches!(err, Error::NotGround(_)));
    }

    #[test]
    fn scalar_path_denotes_the_result() {
        let s = world();
        let t = Term::name("mary").scalar("spouse");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![oid(&s, "peter")]);
    }

    #[test]
    fn undefined_scalar_path_denotes_nothing_and_is_false() {
        // "for a bachelor john the path john.spouse does not denote an
        // object, consequently, this path is considered false"
        let s = world();
        let t = Term::name("john").scalar("spouse");
        assert!(valuate(&s, &t, &Bindings::new()).unwrap().is_empty());
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
        assert!(entails(&s, &Term::name("mary").scalar("spouse"), &Bindings::new()).unwrap());
    }

    #[test]
    fn composed_path_evaluates_left_to_right() {
        let s = world();
        // mary.spouse.boss = mary
        let t = Term::name("mary").scalar("spouse").scalar("boss");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![oid(&s, "mary")]);
    }

    #[test]
    fn set_path_denotes_all_members() {
        let s = world();
        let t = Term::name("mary").set("kids");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&oid(&s, "tim")));
        assert!(v.contains(&oid(&s, "sally")));
    }

    #[test]
    fn isa_molecule_filters_by_class() {
        let s = world();
        let t = Term::name("mary").isa("person");
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        let t = Term::name("john").isa("employee");
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
        // The valuation of an IsA molecule is its receiver when membership holds.
        let t = Term::name("mary").isa("employee");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![oid(&s, "mary")]);
    }

    #[test]
    fn scalar_filter_checks_method_result() {
        let s = world();
        let t = Term::name("mary").filter(TFilter::scalar("age", Term::int(30)));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        let t = Term::name("mary").filter(TFilter::scalar("age", Term::int(31)));
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
        // Result side may itself be a path: mary[spouse -> mary.spouse]
        let t = Term::name("mary").filter(TFilter::scalar("spouse", Term::name("mary").scalar("spouse")));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
    }

    #[test]
    fn empty_filter_list_asserts_existence() {
        let s = world();
        assert!(entails(
            &s,
            &Term::name("mary").scalar("spouse").empty_filters(),
            &Bindings::new()
        )
        .unwrap());
        assert!(!entails(
            &s,
            &Term::name("john").scalar("spouse").empty_filters(),
            &Bindings::new()
        )
        .unwrap());
    }

    #[test]
    fn set_filters_explicit_and_reference() {
        let mut s = world();
        let (friends, p2) = (s.atom("friends"), s.atom("p2"));
        let (tim, sally) = (oid(&s, "tim"), oid(&s, "sally"));
        s.assert_set_member(friends, p2, &[], tim);
        s.assert_set_member(friends, p2, &[], sally);

        // p2[friends ->> {tim}] — subset of the stored set: holds.
        let t = Term::name("p2").filter(TFilter::set("friends", vec![Term::name("tim")]));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        // p2[friends ->> {tim, john}] — john is not a friend: fails.
        let t = Term::name("p2").filter(TFilter::set("friends", vec![Term::name("tim"), Term::name("john")]));
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
        // p2[friends ->> mary..kids] — the kids of mary are exactly the friends: holds.
        let t = Term::name("p2").filter(TFilter::set_ref("friends", Term::name("mary").set("kids")));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        // mary[kids ->> p2..friends] — symmetric, also holds here.
        let t = Term::name("mary").filter(TFilter::set_ref("kids", Term::name("p2").set("friends")));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
    }

    #[test]
    fn set_filter_on_undefined_application() {
        let s = world();
        // john has no kids recorded: required set empty -> holds; non-empty -> fails.
        let t = Term::name("john").filter(TFilter::set("kids", vec![]));
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        let t = Term::name("john").filter(TFilter::set("kids", vec![Term::name("tim")]));
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
    }

    #[test]
    fn scalar_method_applied_to_set_receiver() {
        let mut s = world();
        // ages for the kids
        let (age, tim, sally) = (s.atom("age"), oid(&s, "tim"), oid(&s, "sally"));
        let (five, seven) = (s.int(5), s.int(7));
        s.assert_scalar(age, tim, &[], five).unwrap();
        s.assert_scalar(age, sally, &[], seven).unwrap();
        // mary..kids.age denotes the set of the kids' ages.
        let t = Term::name("mary").set("kids").scalar("age");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&five) && v.contains(&seven));
    }

    #[test]
    fn no_nested_sets_in_double_set_path() {
        let mut s = Structure::new();
        // peter..kids..kids = grandchildren, a flat set ("does not denote a
        // set of sets, but simply the set of john's grandchildren").
        let kids = s.atom("kids");
        let (peter, tim, mary2, sally, tom, paul) = (
            s.atom("peter"),
            s.atom("tim"),
            s.atom("mary"),
            s.atom("sally"),
            s.atom("tom"),
            s.atom("paul"),
        );
        s.assert_set_member(kids, peter, &[], tim);
        s.assert_set_member(kids, peter, &[], mary2);
        s.assert_set_member(kids, tim, &[], sally);
        s.assert_set_member(kids, mary2, &[], tom);
        s.assert_set_member(kids, mary2, &[], paul);
        let t = Term::name("peter").set("kids").set("kids");
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        let mut got: Vec<_> = v.into_iter().collect();
        got.sort();
        let mut want = vec![sally, tom, paul];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn selector_is_self_filter() {
        let s = world();
        let bindings = Bindings::from_pairs([(Var::new("Z"), oid(&s, "peter"))]).unwrap();
        let t = Term::name("mary").scalar("spouse").selector(Term::var("Z"));
        assert!(entails(&s, &t, &bindings).unwrap());
        let bad = Bindings::from_pairs([(Var::new("Z"), oid(&s, "john"))]).unwrap();
        assert!(!entails(&s, &t, &bad).unwrap());
    }

    #[test]
    fn method_call_with_arguments() {
        let mut s = Structure::new();
        let (salary, john) = (s.atom("salary"), s.atom("john"));
        let (y1994, amount) = (s.int(1994), s.int(60_000));
        s.assert_scalar(salary, john, &[y1994], amount).unwrap();
        let t = Term::name("john").scalar_args("salary", vec![Term::int(1994)]);
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![amount]);
        let t = Term::name("john").scalar_args("salary", vec![Term::int(1993)]);
        assert!(valuate(&s, &t, &Bindings::new()).unwrap().is_empty());
    }

    #[test]
    fn set_valued_argument_fans_out() {
        let mut s = Structure::new();
        let (paid, p1, vehicles) = (s.atom("paidFor"), s.atom("p1"), s.atom("vehicles"));
        let (v1, v2) = (s.atom("v1"), s.atom("v2"));
        let (price1, price2) = (s.int(100), s.int(200));
        s.assert_set_member(vehicles, p1, &[], v1);
        s.assert_set_member(vehicles, p1, &[], v2);
        s.assert_scalar(paid, p1, &[v1], price1).unwrap();
        s.assert_scalar(paid, p1, &[v2], price2).unwrap();
        // p1.paidFor@(p1..vehicles) denotes the set of prices p1 paid.
        let t = Term::name("p1").scalar_args("paidFor", vec![Term::name("p1").set("vehicles")]);
        let v = valuate(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&price1) && v.contains(&price2));
    }

    #[test]
    fn paren_changes_evaluation_order() {
        let mut s = Structure::new();
        let (integer, list, int_list, l) = (s.atom("integer"), s.atom("list"), s.atom("intList"), s.atom("l1"));
        s.assert_scalar(list, integer, &[], int_list).unwrap();
        s.add_isa(l, int_list);
        // L : (integer.list) — membership in the class denoted by the path.
        let t = Term::name("l1").isa(Term::name("integer").scalar("list").paren());
        assert!(entails(&s, &t, &Bindings::new()).unwrap());
        // l1 : integer.list — "apply list to an integer l1 is member of";
        // l1 is not a member of integer, so this denotes nothing.
        let t = Term::name("l1").isa("integer").scalar("list");
        assert!(!entails(&s, &t, &Bindings::new()).unwrap());
    }

    #[test]
    fn cartesian_of_empty_is_one_empty_tuple() {
        assert_eq!(cartesian(&[]), vec![Vec::<Oid>::new()]);
        let s1: BTreeSet<_> = [Oid(1), Oid(2)].into_iter().collect();
        let s2: BTreeSet<_> = [Oid(3)].into_iter().collect();
        let rows = cartesian(&[s1, s2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec![Oid(1), Oid(3)]));
        // an empty factor annihilates the product
        assert!(cartesian(&[BTreeSet::new()]).is_empty());
    }
}
