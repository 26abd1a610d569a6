//! Head assertion and virtual-object creation.
//!
//! When a rule body is satisfied under a variable-valuation, the head must be
//! made true in the structure.  For molecules and `IsA` this means adding
//! method facts and class memberships.  For *paths* in the head the paper's
//! central idea applies (Section 6): "a path in a rule head may lead to the
//! definition of virtual objects".  If `X.boss` is undefined for the current
//! `X`, a fresh unnamed object is created and stored as the scalar result of
//! `boss` on `X`; because the object is addressed through that stored fact,
//! re-firing the rule is idempotent — the path itself is the skolem term.
//! An undefined head path always mints an object; a rule meant to reuse a
//! `boss` only where one exists (rule (6.2)) writes the path in its body
//! instead.
//!
//! The same mechanism makes the generic transitive closure of Section 6 work:
//! asserting `X[(kids.tc) ->> {Y}]` first materialises an object for the
//! *method* `kids.tc` (a virtual method), then adds members to it.
//!
//! [`assert_head`] interprets a head term under a set of bindings: it is the
//! asserter of the reference fixpoint ([`crate::semantics::fixpoint`]) and
//! of the reactive layer's actions.  The engine commits through the same
//! steps lowered once per install ([`crate::plan::head`]), which add what
//! this interpreter adds, in its order.

use crate::error::{Error, Result};
use crate::semantics::{valuate, Bindings};
use crate::structure::{Oid, Signature, Structure};
use crate::term::{FilterValue, Term};

/// Counters describing what one head assertion added.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AssertEffect {
    /// New scalar facts.
    pub scalar_facts: usize,
    /// New set members.
    pub set_members: usize,
    /// New class memberships.
    pub isa_edges: usize,
    /// New signature declarations.
    pub signatures: usize,
    /// Virtual objects created.
    pub virtual_objects: usize,
}

impl AssertEffect {
    /// Did the assertion add anything?
    pub fn changed(&self) -> bool {
        self.scalar_facts + self.set_members + self.isa_edges + self.signatures + self.virtual_objects > 0
    }

    /// Accumulate another effect.
    pub fn absorb(&mut self, other: AssertEffect) {
        self.scalar_facts += other.scalar_facts;
        self.set_members += other.set_members;
        self.isa_edges += other.isa_edges;
        self.signatures += other.signatures;
        self.virtual_objects += other.virtual_objects;
    }
}

/// Make `head` true under `bindings`, adding facts (and virtual objects) as
/// needed.  Returns the object denoted by the head and the effect counters.
pub fn assert_head(structure: &mut Structure, head: &Term, bindings: &Bindings) -> Result<(Oid, AssertEffect)> {
    let mut effect = AssertEffect::default();
    let oid = assert_term(structure, head, bindings, &mut effect)?;
    Ok((oid, effect))
}

/// Resolve a head sub-reference to an object, creating virtual objects for
/// undefined scalar paths, and asserting any filters it carries.
fn assert_term(structure: &mut Structure, term: &Term, bindings: &Bindings, effect: &mut AssertEffect) -> Result<Oid> {
    match term {
        Term::Name(n) => Ok(structure.ensure_name(n)),
        Term::Var(v) => bindings.get(v).ok_or_else(|| {
            Error::InvalidRule(format!(
                "head variable {v} is unbound (unsafe rule slipped through validation)"
            ))
        }),
        Term::Paren(t) => assert_term(structure, t, bindings, effect),
        Term::Path(p) => {
            if p.set_valued {
                return Err(Error::InvalidRule(format!(
                    "set-valued path `{term}` cannot be asserted in a rule head"
                )));
            }
            let receiver = assert_term(structure, &p.receiver, bindings, effect)?;
            let method = assert_term(structure, &p.method, bindings, effect)?;
            let args = p
                .args
                .iter()
                .map(|a| assert_term(structure, a, bindings, effect))
                .collect::<Result<Vec<_>>>()?;
            if let Some(existing) = structure.apply_scalar(method, receiver, &args) {
                return Ok(existing);
            }
            let fresh = structure.new_virtual();
            effect.virtual_objects += 1;
            if structure.assert_scalar(method, receiver, &args, fresh)?.is_new() {
                effect.scalar_facts += 1;
            }
            Ok(fresh)
        }
        Term::IsA(i) => {
            let receiver = assert_term(structure, &i.receiver, bindings, effect)?;
            let class = assert_term(structure, &i.class, bindings, effect)?;
            if structure.add_isa(receiver, class) {
                effect.isa_edges += 1;
            }
            Ok(receiver)
        }
        Term::Molecule(m) => {
            let receiver = assert_term(structure, &m.receiver, bindings, effect)?;
            for f in &m.filters {
                let method = assert_term(structure, &f.method, bindings, effect)?;
                let args = f
                    .args
                    .iter()
                    .map(|a| assert_term(structure, a, bindings, effect))
                    .collect::<Result<Vec<_>>>()?;
                match &f.value {
                    FilterValue::Scalar(value) => {
                        let result = assert_term(structure, value, bindings, effect)?;
                        if structure.assert_scalar(method, receiver, &args, result)?.is_new() {
                            effect.scalar_facts += 1;
                        }
                    }
                    FilterValue::SetExplicit(values) => {
                        for value in values {
                            let member = assert_term(structure, value, bindings, effect)?;
                            if structure.assert_set_member(method, receiver, &args, member).is_new() {
                                effect.set_members += 1;
                            }
                        }
                    }
                    FilterValue::SetRef(value) => {
                        // The right-hand side is read, not created: its members
                        // must already exist (stratification guarantees the
                        // defining methods are computed).  It is valuated
                        // (Definition 4) and merged as one sorted run.
                        let members: Vec<Oid> = valuate(structure, value, bindings)?.into_iter().collect();
                        effect.set_members += structure.assert_set_members(method, receiver, &args, &members);
                    }
                    FilterValue::SigScalar(results) | FilterValue::SigSet(results) => {
                        let set_valued = matches!(f.value, FilterValue::SigSet(_));
                        let result_classes = results
                            .iter()
                            .map(|r| assert_term(structure, r, bindings, effect))
                            .collect::<Result<Vec<_>>>()?;
                        let sig = Signature {
                            class: receiver,
                            method,
                            arg_classes: args.clone().into_boxed_slice(),
                            result_classes,
                            set_valued,
                        };
                        if structure.add_signature(sig) {
                            effect.signatures += 1;
                        }
                    }
                }
            }
            Ok(receiver)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Name, Var};
    use crate::term::Filter;

    fn oid(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&Name::atom(n)).unwrap()
    }

    #[test]
    fn asserting_a_ground_molecule_adds_facts() {
        let mut s = Structure::new();
        let head = Term::name("mary").filters(vec![
            Filter::scalar("age", Term::int(30)),
            Filter::set("kids", vec![Term::name("tim"), Term::name("sally")]),
        ]);
        let (obj, eff) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(obj, oid(&s, "mary"));
        assert_eq!(eff.scalar_facts, 1);
        assert_eq!(eff.set_members, 2);
        assert_eq!(eff.virtual_objects, 0);
        assert!(eff.changed());
        // idempotent
        let (_, eff2) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert!(!eff2.changed());
    }

    #[test]
    fn asserting_isa_adds_membership() {
        let mut s = Structure::new();
        let head = Term::name("a1").isa("automobile");
        let (_, eff) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(eff.isa_edges, 1);
        assert!(s.in_class(oid(&s, "a1"), oid(&s, "automobile")));
    }

    #[test]
    fn undefined_scalar_path_creates_a_virtual_object() {
        // X.boss[worksFor -> D] with X=p1, D=cs1 — boss undefined for p1.
        let mut s = Structure::new();
        let p1 = s.atom("p1");
        let cs1 = s.atom("cs1");
        let bindings = Bindings::from_pairs([(Var::new("X"), p1), (Var::new("D"), cs1)]).unwrap();
        let head = Term::var("X")
            .scalar("boss")
            .filter(Filter::scalar("worksFor", Term::var("D")));
        let (boss, eff) = assert_head(&mut s, &head, &bindings).unwrap();
        assert!(s.is_virtual(boss));
        assert_eq!(eff.virtual_objects, 1);
        assert_eq!(eff.scalar_facts, 2); // boss(p1)=v and worksFor(v)=cs1
                                         // Re-asserting reuses the same virtual object: the path is the skolem.
        let (boss2, eff2) = assert_head(&mut s, &head, &bindings).unwrap();
        assert_eq!(boss, boss2);
        assert!(!eff2.changed());
    }

    #[test]
    fn existing_path_result_is_reused() {
        let mut s = Structure::new();
        let (boss, p1, mary) = (s.atom("boss"), s.atom("p1"), s.atom("mary"));
        s.assert_scalar(boss, p1, &[], mary).unwrap();
        let head = Term::name("p1")
            .scalar("boss")
            .filter(Filter::scalar("age", Term::int(50)));
        let (obj, eff) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(obj, mary);
        assert_eq!(eff.virtual_objects, 0);
        assert_eq!(eff.scalar_facts, 1);
    }

    #[test]
    fn set_valued_path_in_head_is_rejected() {
        let mut s = Structure::new();
        let head = Term::name("p1").set("kids");
        assert!(assert_head(&mut s, &head, &Bindings::new()).is_err());
    }

    #[test]
    fn set_ref_filter_copies_existing_members() {
        // p2[friends ->> p1..assistants]  (example 4.4)
        let mut s = Structure::new();
        let (assistants, p1) = (s.atom("assistants"), s.atom("p1"));
        let (a, b) = (s.atom("anna"), s.atom("bert"));
        s.assert_set_member(assistants, p1, &[], a);
        s.assert_set_member(assistants, p1, &[], b);
        s.atom("p2");
        s.atom("friends");
        let head = Term::name("p2").filter(Filter::set_ref("friends", Term::name("p1").set("assistants")));
        let (_, eff) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(eff.set_members, 2);
        let friends = s.apply_set(oid(&s, "friends"), oid(&s, "p2"), &[]).unwrap();
        assert!(friends.contains(&a) && friends.contains(&b));
    }

    #[test]
    fn virtual_method_object_for_generic_tc() {
        // Asserting X[(kids.tc) ->> {tim}] creates an object for kids.tc.
        let mut s = Structure::new();
        let peter = s.atom("peter");
        let tim = s.atom("tim");
        let bindings = Bindings::from_pairs([(Var::new("X"), peter), (Var::new("Y"), tim)]).unwrap();
        let head = Term::var("X").filter(Filter::set(
            Term::name("kids").scalar("tc").paren(),
            vec![Term::var("Y")],
        ));
        let (_, eff) = assert_head(&mut s, &head, &bindings).unwrap();
        assert_eq!(eff.virtual_objects, 1, "an object for the method kids.tc");
        assert_eq!(eff.set_members, 1);
        // The virtual method is addressable through the path kids.tc.
        let kids = oid(&s, "kids");
        let tc = oid(&s, "tc");
        let method = s.apply_scalar(tc, kids, &[]).unwrap();
        assert!(s.apply_set(method, peter, &[]).unwrap().contains(&tim));
    }

    #[test]
    fn signature_filters_become_declarations() {
        let mut s = Structure::new();
        let head = Term::name("person").filters(vec![
            Filter {
                method: Term::name("age"),
                args: vec![],
                value: FilterValue::SigScalar(vec![Term::name("integer")]),
            },
            Filter {
                method: Term::name("kids"),
                args: vec![],
                value: FilterValue::SigSet(vec![Term::name("person")]),
            },
        ]);
        let (_, eff) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(eff.signatures, 2);
        assert_eq!(s.signatures().len(), 2);
        // idempotent
        let (_, eff2) = assert_head(&mut s, &head, &Bindings::new()).unwrap();
        assert_eq!(eff2.signatures, 0);
    }

    #[test]
    fn conflicting_scalar_heads_are_an_error() {
        let mut s = Structure::new();
        assert_head(
            &mut s,
            &Term::name("mary").filter(Filter::scalar("age", Term::int(30))),
            &Bindings::new(),
        )
        .unwrap();
        let err = assert_head(
            &mut s,
            &Term::name("mary").filter(Filter::scalar("age", Term::int(31))),
            &Bindings::new(),
        );
        assert!(err.is_err());
    }
}
