//! Actions of production rules: assert or retract PathLog references.
//!
//! The paper closes by noting that "the main ideas of PathLog can be also
//! applied in the context of other kinds of rule languages, e.g. production
//! rules or active rules" — because references are just a way to *address*
//! objects, and how a rule set is evaluated is orthogonal.  An action
//! therefore reuses the same reference syntax as a deductive head:
//! [`Action::Assert`] makes a reference true (creating virtual objects for
//! undefined scalar head paths, exactly like the deductive engine), and
//! [`Action::Retract`] — the operation deductive rules do not have — removes
//! the facts a molecule describes.

use std::fmt;

use pathlog_core::engine::{assert_head, AssertEffect};
use pathlog_core::semantics::{valuate, Bindings};
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::{FilterValue, Term};

use crate::error::{ReactiveError, Result};

/// One action of a production rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Make the reference true (like a deductive rule head).
    Assert(Term),
    /// Retract the facts described by a molecule (scalar filters, explicit
    /// set members) for every object the receiver denotes.
    Retract(Term),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Assert(t) => write!(f, "assert {t}"),
            Action::Retract(t) => write!(f, "retract {t}"),
        }
    }
}

/// What applying one action changed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ActionEffect {
    /// Facts added (scalar + set members + isa edges).
    pub asserted: usize,
    /// Facts removed.
    pub retracted: usize,
    /// Virtual objects created.
    pub virtual_objects: usize,
}

impl ActionEffect {
    /// Did the action change anything?
    pub fn changed(&self) -> bool {
        self.asserted + self.retracted + self.virtual_objects > 0
    }

    /// Accumulate another effect.
    pub fn absorb(&mut self, other: ActionEffect) {
        self.asserted += other.asserted;
        self.retracted += other.retracted;
        self.virtual_objects += other.virtual_objects;
    }

    fn from_assert(e: AssertEffect) -> Self {
        ActionEffect {
            asserted: e.scalar_facts + e.set_members + e.isa_edges,
            retracted: 0,
            virtual_objects: e.virtual_objects,
        }
    }
}

/// Apply one action under a variable valuation.
pub fn apply_action(structure: &mut Structure, action: &Action, bindings: &Bindings) -> Result<ActionEffect> {
    match action {
        Action::Assert(term) => {
            let (_, effect) = assert_head(structure, term, bindings)?;
            Ok(ActionEffect::from_assert(effect))
        }
        Action::Retract(term) => apply_retract(structure, term, bindings),
    }
}

/// Retract the facts a molecule describes.
fn apply_retract(structure: &mut Structure, term: &Term, bindings: &Bindings) -> Result<ActionEffect> {
    match term {
        Term::Paren(inner) => apply_retract(structure, inner, bindings),
        Term::Molecule(molecule) => {
            let receivers = valuate(structure, &molecule.receiver, bindings)?;
            let mut effect = ActionEffect::default();
            for receiver in receivers {
                for filter in &molecule.filters {
                    let method = single_object(structure, &filter.method, bindings, "filter method")?;
                    let args = filter
                        .args
                        .iter()
                        .map(|a| single_object(structure, a, bindings, "filter argument"))
                        .collect::<Result<Vec<Oid>>>()?;
                    match &filter.value {
                        FilterValue::Scalar(_) => {
                            if structure.retract_scalar(method, receiver, &args).is_some() {
                                effect.retracted += 1;
                            }
                        }
                        FilterValue::SetExplicit(members) => {
                            for member_term in members {
                                for member in valuate(structure, member_term, bindings)? {
                                    if structure.retract_set_member(method, receiver, &args, member) {
                                        effect.retracted += 1;
                                    }
                                }
                            }
                        }
                        FilterValue::SetRef(inner) => {
                            for member in valuate(structure, inner, bindings)? {
                                if structure.retract_set_member(method, receiver, &args, member) {
                                    effect.retracted += 1;
                                }
                            }
                        }
                        FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {
                            return Err(ReactiveError::InvalidAction(
                                "signature declarations cannot be retracted".into(),
                            ));
                        }
                    }
                }
            }
            Ok(effect)
        }
        other => Err(ReactiveError::InvalidAction(format!(
            "retract needs a molecule describing the facts to remove, got `{other}`"
        ))),
    }
}

/// Valuate a term that must denote exactly one object.
fn single_object(structure: &Structure, term: &Term, bindings: &Bindings, what: &str) -> Result<Oid> {
    let objects = valuate(structure, term, bindings)?;
    match objects.len() {
        1 => Ok(objects.into_iter().next().expect("len checked")),
        0 => Err(ReactiveError::InvalidAction(format!(
            "{what} `{term}` denotes no object"
        ))),
        n => Err(ReactiveError::InvalidAction(format!(
            "{what} `{term}` denotes {n} objects, expected one"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlog_core::names::Var;
    use pathlog_core::term::Filter;

    fn family() -> Structure {
        let mut s = Structure::new();
        let (kids, age, mary, tim, tom) = (
            s.atom("kids"),
            s.atom("age"),
            s.atom("mary"),
            s.atom("tim"),
            s.atom("tom"),
        );
        let thirty = s.int(30);
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        s.assert_set_member(kids, mary, &[], tim);
        s.assert_set_member(kids, mary, &[], tom);
        s
    }

    #[test]
    fn assert_actions_add_facts_and_virtual_objects() {
        let mut s = family();
        let term = Term::name("mary")
            .scalar("address")
            .filter(Filter::scalar("city", Term::name("newYork")));
        let effect = apply_action(&mut s, &Action::Assert(term), &Bindings::new()).unwrap();
        assert_eq!(effect.virtual_objects, 1);
        assert_eq!(effect.asserted, 2);
        assert!(effect.changed());
    }

    #[test]
    fn retract_scalar_filters_remove_the_stored_fact() {
        let mut s = family();
        let term = Term::name("mary").filter(Filter::scalar("age", Term::var("A")));
        let effect = apply_action(&mut s, &Action::Retract(term), &Bindings::new()).unwrap();
        assert_eq!(effect.retracted, 1);
        let age = s.atom("age");
        let mary = s.atom("mary");
        assert_eq!(s.apply_scalar(age, mary, &[]), None);
    }

    #[test]
    fn retract_set_members_removes_only_the_named_members() {
        let mut s = family();
        let term = Term::name("mary").filter(Filter::set("kids", vec![Term::name("tim")]));
        let effect = apply_action(&mut s, &Action::Retract(term), &Bindings::new()).unwrap();
        assert_eq!(effect.retracted, 1);
        let kids = s.atom("kids");
        let mary = s.atom("mary");
        assert_eq!(s.apply_set(kids, mary, &[]).unwrap().len(), 1);
    }

    #[test]
    fn retract_with_bound_variables_targets_the_binding() {
        let mut s = family();
        let tom = s.atom("tom");
        let bindings = Bindings::from_pairs([(Var::new("Y"), tom)]).unwrap();
        let term = Term::name("mary").filter(Filter::set("kids", vec![Term::var("Y")]));
        let effect = apply_action(&mut s, &Action::Retract(term), &bindings).unwrap();
        assert_eq!(effect.retracted, 1);
        let kids = s.atom("kids");
        let mary = s.atom("mary");
        assert!(s.apply_set(kids, mary, &[]).unwrap().iter().all(|&k| k != tom));
    }

    #[test]
    fn retracting_a_bare_path_is_rejected() {
        let mut s = family();
        let err = apply_action(
            &mut s,
            &Action::Retract(Term::name("mary").scalar("age")),
            &Bindings::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ReactiveError::InvalidAction(_)));
    }

    #[test]
    fn ambiguous_filter_methods_are_rejected() {
        let mut s = family();
        // An unbound variable in method position does not pin down which fact
        // to retract; the action must be refused rather than guess.
        let term = Term::name("mary").filter(Filter::scalar(Term::var("M"), Term::var("A")));
        apply_action(&mut s, &Action::Retract(term), &Bindings::new()).unwrap_err();
        // Nothing was removed.
        let age = s.atom("age");
        let mary = s.atom("mary");
        assert!(s.apply_scalar(age, mary, &[]).is_some());
    }

    #[test]
    fn actions_display_readably() {
        let a = Action::Assert(Term::name("mary").scalar("age"));
        assert_eq!(a.to_string(), "assert mary.age");
        let r = Action::Retract(Term::name("mary").filter(Filter::scalar("age", Term::int(30))));
        assert_eq!(r.to_string(), "retract mary[age -> 30]");
    }

    #[test]
    fn effects_accumulate() {
        let mut total = ActionEffect::default();
        assert!(!total.changed());
        total.absorb(ActionEffect {
            asserted: 2,
            retracted: 1,
            virtual_objects: 1,
        });
        total.absorb(ActionEffect {
            asserted: 1,
            retracted: 0,
            virtual_objects: 0,
        });
        assert_eq!(total.asserted, 3);
        assert_eq!(total.retracted, 1);
        assert_eq!(total.virtual_objects, 1);
    }
}
