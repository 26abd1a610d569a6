//! Type checking against signatures.
//!
//! The paper motivates defining virtual objects through *methods* (rather
//! than function symbols as in F-logic or view class names as in XSQL)
//! partly because "the usage of methods can be controlled by signatures in
//! the same way as in \[KLW93\], which makes type checking techniques
//! applicable" — including for virtual objects.  This module provides that
//! checker.
//!
//! A signature `c[m @ (a1..ak) => r1, .., rn]` (scalar) or `=>> ...`
//! (set-valued) is *applicable* to a stored fact `m(recv, args) = res` when
//! `recv` is a member of `c` and each argument is a member of the
//! corresponding argument class.  The fact is *well-typed* when, for every
//! applicable signature, the result (each member for set-valued methods) is
//! a member of every declared result class.  A fact no signature applies to
//! is not checked: signatures constrain the applications they cover and say
//! nothing about the others, so an object outside every declared class may
//! carry any method.

use std::fmt;

use crate::structure::{Oid, Structure};

/// One detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description, with object names resolved.
    pub message: String,
    /// The method of the offending fact.
    pub method: Oid,
    /// The receiver of the offending fact.
    pub receiver: Oid,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Check all stored facts of `structure` against its signature declarations.
pub fn type_check(structure: &Structure) -> Vec<TypeError> {
    let mut errors = Vec::new();
    if structure.signatures().is_empty() {
        return errors;
    }
    for fact in structure.facts().scalar_facts() {
        check_application(
            structure,
            fact.method,
            fact.receiver,
            fact.args,
            std::slice::from_ref(&fact.result),
            false,
            &mut errors,
        );
    }
    for fact in structure.facts().set_facts() {
        let members: Vec<Oid> = fact.members.iter().copied().collect();
        check_application(
            structure,
            fact.method,
            fact.receiver,
            fact.args,
            &members,
            true,
            &mut errors,
        );
    }
    errors
}

fn check_application(
    structure: &Structure,
    method: Oid,
    receiver: Oid,
    args: &[Oid],
    results: &[Oid],
    set_valued: bool,
    errors: &mut Vec<TypeError>,
) {
    for sig in structure.signatures().for_method(method) {
        if sig.set_valued != set_valued || sig.arg_classes.len() != args.len() {
            continue;
        }
        if !structure.in_class(receiver, sig.class) {
            continue;
        }
        if !args
            .iter()
            .zip(sig.arg_classes.iter())
            .all(|(&a, &c)| structure.in_class(a, c))
        {
            continue;
        }
        for &result in results {
            for &rc in &sig.result_classes {
                if !structure.in_class(result, rc) {
                    errors.push(TypeError {
                        message: format!(
                            "result {} of method {} on {} is not a member of {} (required by the signature on {})",
                            structure.display_name(result),
                            structure.display_name(method),
                            structure.display_name(receiver),
                            structure.display_name(rc),
                            structure.display_name(sig.class),
                        ),
                        method,
                        receiver,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Signature;

    /// person[age => integer], person[kids =>> person]; employees are persons.
    fn typed_world() -> Structure {
        let mut s = Structure::new();
        let (person, employee, integer) = (s.atom("person"), s.atom("employee"), s.atom("integer"));
        let (age, kids) = (s.atom("age"), s.atom("kids"));
        s.add_isa(employee, person);
        s.add_signature(Signature {
            class: person,
            method: age,
            arg_classes: Box::new([]),
            result_classes: vec![integer],
            set_valued: false,
        });
        s.add_signature(Signature {
            class: person,
            method: kids,
            arg_classes: Box::new([]),
            result_classes: vec![person],
            set_valued: true,
        });
        // integers are members of the class `integer` in this world
        for i in [5, 30, 40] {
            let o = s.int(i);
            s.add_isa(o, integer);
        }
        s
    }

    #[test]
    fn well_typed_facts_pass() {
        let mut s = typed_world();
        let (mary, tim) = (s.atom("mary"), s.atom("tim"));
        let (person, age, kids) = (s.atom("person"), s.atom("age"), s.atom("kids"));
        let thirty = s.int(30);
        s.add_isa(mary, person);
        s.add_isa(tim, person);
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        s.assert_set_member(kids, mary, &[], tim);
        assert!(type_check(&s).is_empty());
    }

    #[test]
    fn wrong_result_class_is_reported() {
        let mut s = typed_world();
        let (mary, age, red) = (s.atom("mary"), s.atom("age"), s.atom("red"));
        let person = s.atom("person");
        s.add_isa(mary, person);
        s.assert_scalar(age, mary, &[], red).unwrap();
        let errors = type_check(&s);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("age"));
        assert!(errors[0].to_string().contains("integer"));
    }

    #[test]
    fn set_members_are_checked_individually() {
        let mut s = typed_world();
        let (mary, tim, rock) = (s.atom("mary"), s.atom("tim"), s.atom("rock"));
        let (person, kids) = (s.atom("person"), s.atom("kids"));
        s.add_isa(mary, person);
        s.add_isa(tim, person);
        s.assert_set_member(kids, mary, &[], tim);
        s.assert_set_member(kids, mary, &[], rock);
        let errors = type_check(&s);
        assert_eq!(errors.len(), 1, "only the non-person member is a violation");
    }

    #[test]
    fn signatures_are_inherited_by_subclasses() {
        let mut s = typed_world();
        let (e1, employee, age, red) = (s.atom("e1"), s.atom("employee"), s.atom("age"), s.atom("red"));
        s.add_isa(e1, employee);
        s.assert_scalar(age, e1, &[], red).unwrap();
        let errors = type_check(&s);
        assert_eq!(
            errors.len(),
            1,
            "the person[age => integer] signature applies to employees too"
        );
    }

    #[test]
    fn undeclared_methods_are_ignored() {
        let mut s = typed_world();
        let (mary, color, red) = (s.atom("mary"), s.atom("color"), s.atom("red"));
        s.assert_scalar(color, mary, &[], red).unwrap();
        assert!(type_check(&s).is_empty());
    }

    #[test]
    fn uncovered_applications_are_not_checked() {
        let mut s = typed_world();
        // mary is NOT declared to be a person, so person[age => integer]
        // does not apply to her age, whatever it is.
        let (mary, age, red) = (s.atom("mary"), s.atom("age"), s.atom("red"));
        s.assert_scalar(age, mary, &[], red).unwrap();
        assert!(type_check(&s).is_empty());
    }

    #[test]
    fn no_signatures_means_no_errors() {
        let mut s = Structure::new();
        let (a, m, b) = (s.atom("a"), s.atom("m"), s.atom("b"));
        s.assert_scalar(m, a, &[], b).unwrap();
        assert!(type_check(&s).is_empty());
    }

    #[test]
    fn virtual_objects_are_type_checked_too() {
        // The paper's point: virtual objects defined through methods can be
        // type checked.  Here the virtual boss's worksFor result violates a
        // signature.
        let mut s = typed_world();
        let (employee, department, works_for) = (s.atom("employee"), s.atom("department"), s.atom("worksFor"));
        s.add_signature(Signature {
            class: employee,
            method: works_for,
            arg_classes: Box::new([]),
            result_classes: vec![department],
            set_valued: false,
        });
        let p1 = s.atom("p1");
        s.add_isa(p1, employee);
        let boss = s.new_virtual();
        s.add_isa(boss, employee);
        let not_a_department = s.atom("somethingElse");
        s.assert_scalar(works_for, boss, &[], not_a_department).unwrap();
        let errors = type_check(&s);
        assert_eq!(errors.len(), 1);
        assert!(s.is_virtual(errors[0].receiver));
    }
}
