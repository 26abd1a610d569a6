//! Well-formedness of references (Definition 3 of the paper).
//!
//! Well-formedness restricts where *set-valued* references may appear inside
//! molecules (they are unrestricted inside paths):
//!
//! * in a scalar filter `t0[m@(t1..tk) -> tr]` the method, all arguments and
//!   the result must be scalar;
//! * in a set filter `t0[m@(t1..tk) ->> s]` the method and all arguments must
//!   be scalar, and `s` must either be a set-valued reference or an explicit
//!   set `{t'1, ..., t'l}` of scalar references;
//! * in `t0 : c` the class must be scalar.
//!
//! In addition, Definition 1 requires the method and class positions to be
//! *simple* references (a name, a variable, or a parenthesised reference such
//! as `(kids.tc)`); this structural constraint is enforced here as well so
//! that programmatically constructed terms are checked like parsed ones.

use crate::error::{Error, Result};
use crate::scalarity::is_set_valued;
use crate::term::{Filter, FilterValue, Term};

/// Check a reference for well-formedness; returns the first violation found.
pub fn check_well_formed(term: &Term) -> Result<()> {
    match term {
        Term::Name(_) | Term::Var(_) => Ok(()),
        Term::Paren(t) => check_well_formed(t),
        Term::Path(p) => {
            check_well_formed(&p.receiver)?;
            check_method_position(&p.method)?;
            for a in &p.args {
                check_well_formed(a)?;
            }
            Ok(())
        }
        Term::Molecule(m) => {
            check_well_formed(&m.receiver)?;
            for f in &m.filters {
                check_filter(f)?;
            }
            Ok(())
        }
        Term::IsA(i) => {
            check_well_formed(&i.receiver)?;
            check_class_position(&i.class)?;
            Ok(())
        }
    }
}

/// `true` iff the reference satisfies Definition 3 (and the simple-reference
/// requirements of Definition 1).
pub fn is_well_formed(term: &Term) -> bool {
    check_well_formed(term).is_ok()
}

fn check_method_position(method: &Term) -> Result<()> {
    check_well_formed(method)?;
    if !method.is_simple() {
        return Err(Error::IllFormed(format!(
            "method position must be a simple reference (name, variable or parenthesised reference), got `{method}`"
        )));
    }
    if is_set_valued(method) {
        return Err(Error::IllFormed(format!(
            "method position must be a scalar reference, got set-valued `{method}`"
        )));
    }
    Ok(())
}

fn check_class_position(class: &Term) -> Result<()> {
    check_well_formed(class)?;
    if !class.is_simple() {
        return Err(Error::IllFormed(format!(
            "class position must be a simple reference, got `{class}`"
        )));
    }
    if is_set_valued(class) {
        return Err(Error::IllFormed(format!(
            "class position must be a scalar reference, got set-valued `{class}`"
        )));
    }
    Ok(())
}

fn check_filter(filter: &Filter) -> Result<()> {
    check_method_position(&filter.method)?;
    for a in &filter.args {
        check_well_formed(a)?;
        if is_set_valued(a) {
            return Err(Error::IllFormed(format!(
                "arguments inside a molecule must be scalar references, got set-valued `{a}`"
            )));
        }
    }
    match &filter.value {
        FilterValue::Scalar(r) => {
            check_well_formed(r)?;
            if is_set_valued(r) {
                return Err(Error::IllFormed(format!(
                    "result of a scalar method must be a scalar reference, got set-valued `{r}` \
                     (cf. the ill-formed example p2[boss -> p1..assistants], (4.5) in the paper)"
                )));
            }
            Ok(())
        }
        FilterValue::SetRef(r) => {
            check_well_formed(r)?;
            if !is_set_valued(r) {
                return Err(Error::IllFormed(format!(
                    "the right-hand side of `->>` must be a set-valued reference or an explicit set; \
                     `{r}` is scalar — write `{{{r}}}` instead"
                )));
            }
            Ok(())
        }
        FilterValue::SetExplicit(rs) => {
            for r in rs {
                check_well_formed(r)?;
                if is_set_valued(r) {
                    return Err(Error::IllFormed(format!(
                        "elements of an explicit set must be scalar references, got set-valued `{r}`"
                    )));
                }
            }
            Ok(())
        }
        FilterValue::SigScalar(rs) | FilterValue::SigSet(rs) => {
            for r in rs {
                check_well_formed(r)?;
                if is_set_valued(r) {
                    return Err(Error::IllFormed(format!(
                        "signature result classes must be scalar references, got set-valued `{r}`"
                    )));
                }
                if !r.is_simple() {
                    return Err(Error::IllFormed(format!(
                        "signature result classes must be simple references, got `{r}`"
                    )));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Filter;

    #[test]
    fn paper_examples_are_well_formed() {
        // (2.1)
        let t = Term::var("X")
            .isa("employee")
            .filters(vec![
                Filter::scalar("age", Term::int(30)),
                Filter::scalar("city", "newYork"),
            ])
            .set("vehicles")
            .isa("automobile")
            .filter(Filter::scalar("cylinders", Term::int(4)))
            .scalar("color")
            .selector(Term::var("Z"));
        assert!(is_well_formed(&t));

        // (4.2) p1..assistants[salary -> 1000]
        let t = Term::name("p1")
            .set("assistants")
            .filter(Filter::scalar("salary", Term::int(1000)));
        assert!(is_well_formed(&t));

        // (4.4) p2[friends ->> p1..assistants]
        let t = Term::name("p2").filter(Filter::set_ref("friends", Term::name("p1").set("assistants")));
        assert!(is_well_formed(&t));

        // (4.3) p2[friends ->> {p3, p4}]
        let t = Term::name("p2").filter(Filter::set("friends", vec![Term::name("p3"), Term::name("p4")]));
        assert!(is_well_formed(&t));

        // p1.paidFor@(p1..vehicles): set-valued arguments are fine in paths.
        let t = Term::name("p1").scalar_args("paidFor", vec![Term::name("p1").set("vehicles")]);
        assert!(is_well_formed(&t));
    }

    #[test]
    fn example_4_5_is_rejected() {
        // p2[boss -> p1..assistants] assigns a set-valued reference as the
        // result of a scalar method — ill-formed.
        let t = Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants")));
        let err = check_well_formed(&t).unwrap_err();
        assert!(matches!(err, Error::IllFormed(_)));
        assert!(err.to_string().contains("scalar method"));
    }

    #[test]
    fn set_arrow_with_scalar_rhs_is_rejected() {
        let t = Term::name("p2").filter(Filter::set_ref("friends", Term::name("p3")));
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn set_valued_class_is_rejected() {
        let t = Term::var("X").isa(Term::name("p1").set("classes").paren());
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn non_simple_method_position_is_rejected() {
        // X.(kids.tc) is fine (parenthesised), X.kids.tc is a different term
        // (and fine), but using a *molecule* as a method must be rejected.
        let ok = Term::var("X").set_args(Term::name("kids").scalar("tc").paren(), vec![]);
        assert!(is_well_formed(&ok));
        let bad = Term::var("X").scalar(Term::name("kids").filter(Filter::scalar("a", "b")));
        assert!(!is_well_formed(&bad));
    }

    #[test]
    fn set_valued_arguments_in_molecules_are_rejected() {
        let f = Filter {
            method: Term::name("m"),
            args: vec![Term::name("p1").set("vehicles")],
            value: FilterValue::Scalar(Term::name("x")),
        };
        let t = Term::name("p2").filter(f);
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn set_valued_elements_in_explicit_sets_are_rejected() {
        let t = Term::name("p2").filter(Filter::set("friends", vec![Term::name("p1").set("assistants")]));
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn nested_violations_are_found() {
        // A violation buried inside a path argument must still be reported.
        let bad_molecule = Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants")));
        let t = Term::name("a").scalar_args("m", vec![bad_molecule]);
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn signatures_require_simple_scalar_result_classes() {
        let ok = Term::name("person").filter(Filter {
            method: Term::name("age"),
            args: vec![],
            value: FilterValue::SigScalar(vec![Term::name("integer")]),
        });
        assert!(is_well_formed(&ok));
        let bad = Term::name("person").filter(Filter {
            method: Term::name("kids"),
            args: vec![],
            value: FilterValue::SigSet(vec![Term::name("p1").set("assistants")]),
        });
        assert!(!is_well_formed(&bad));
    }
}
