//! Static validation of rules and programs.
//!
//! The checks implement the restrictions stated or implied in Section 6 of
//! the paper, plus the usual safety conditions of deductive databases:
//!
//! 1. every reference must be well-formed (Definition 3);
//! 2. the head must be a *scalar* reference — "the usage of set valued
//!    references in rule heads should be forbidden";
//! 3. safety: every head variable and every variable of a negated literal
//!    must occur in a positive body literal; facts must be ground.
//!
//! They are the `Error` checks of the static analyzer (PL001–PL004, see
//! [`crate::analysis`]): a rule is rejected with the message of the first
//! one it fails.  A head that passes them is assertable — a scalar head has
//! no set-valued path on its receiver chain, and every filter kind becomes
//! facts or declarations.
//!
//! Validation also derives the [`RuleInfo`] dependency summary used by the
//! stratifier: which method/class names a rule *defines* (through its head)
//! and which it *uses*, distinguishing ordinary uses from set-at-a-time uses
//! (the right-hand side of `->>` filters read as whole sets, and everything
//! under negation), which require stratification as in \[NT89\].

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::names::Name;
use crate::program::{Program, Rule};
use crate::term::{FilterValue, Term};

/// A dependency key: a known method/class name, or "unknown" when the method
/// or class position is not a plain name (a variable or a parenthesised
/// path such as `(M.tc)`), in which case the analysis is conservative.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKey {
    /// A known method or class name.
    Known(Name),
    /// Anything — forces a dependency on every definition.
    Unknown,
}

/// Dependency summary of one rule, consumed by the stratifier and by the
/// semi-naive evaluation loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleInfo {
    /// Keys (method names, class names) this rule's head defines.
    pub defines: BTreeSet<DepKey>,
    /// Keys the positive body reads object-at-a-time.
    pub uses: BTreeSet<DepKey>,
    /// Keys the body reads set-at-a-time (must be fully computed in an
    /// earlier stratum): `->>` right-hand sides and negated literals.
    pub strict_uses: BTreeSet<DepKey>,
}

/// Validate a single rule and compute its dependency summary.
pub fn validate_rule(rule: &Rule) -> Result<RuleInfo> {
    match crate::analysis::first_rule_error(rule) {
        Some(message) => Err(Error::InvalidRule(message)),
        None => Ok(rule_info(rule)),
    }
}

/// Compute a rule's dependency summary without validating it.
///
/// This is the collector half of [`validate_rule`], exposed so the static
/// analyzer can build dependency-graph nodes even for rules that fail one of
/// the safety checks (it wants to report *all* problems, not stop at the
/// first).
pub fn rule_info(rule: &Rule) -> RuleInfo {
    let mut info = RuleInfo::default();
    collect_defines(&rule.head, &mut info.defines);
    // A `->>` filter in the *head* whose right-hand side is a set-valued
    // reference copies that set when the rule fires; the methods it reads are
    // therefore strict uses as well (the set must be complete).
    collect_head_set_reads(&rule.head, &mut info.strict_uses);
    for lit in &rule.body {
        if lit.positive {
            collect_uses(&lit.term, &mut info.uses, &mut info.strict_uses);
        } else {
            // Everything under negation is a strict use.
            collect_keys(&lit.term, &mut info.strict_uses);
        }
    }
    info
}

/// Validate every rule of a program.
pub fn validate_program(program: &Program) -> Result<Vec<RuleInfo>> {
    program.rules.iter().map(validate_rule).collect()
}

/// Every method/class key a reference reads, conservatively (object-at-a-time
/// and set-at-a-time alike).  The engine uses this per body literal to decide
/// which literals an iteration's delta can drive.
pub fn literal_reads(term: &Term) -> BTreeSet<DepKey> {
    let mut out = BTreeSet::new();
    collect_keys(term, &mut out);
    out
}

/// The dependency key of a method/class position.
fn dep_key(term: &Term) -> DepKey {
    match term {
        Term::Name(n) => DepKey::Known(n.clone()),
        Term::Paren(t) => dep_key(t),
        _ => DepKey::Unknown,
    }
}

/// Collect the keys defined by a head reference.
fn collect_defines(head: &Term, out: &mut BTreeSet<DepKey>) {
    match head {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_defines(t, out),
        Term::Path(p) => {
            // A scalar path in a head defines the method (a virtual object may
            // be created for it).
            out.insert(dep_key(&p.method));
            collect_defines(&p.receiver, out);
        }
        Term::IsA(i) => {
            out.insert(dep_key(&i.class));
            collect_defines(&i.receiver, out);
        }
        Term::Molecule(m) => {
            collect_defines(&m.receiver, out);
            for f in &m.filters {
                out.insert(dep_key(&f.method));
                // Paths in filter *values* of a head may also create virtual
                // objects, hence also define their methods.
                match &f.value {
                    FilterValue::Scalar(t) => collect_value_defines(t, out),
                    FilterValue::SetExplicit(ts) => {
                        for t in ts {
                            collect_value_defines(t, out);
                        }
                    }
                    FilterValue::SetRef(_) | FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {}
                }
            }
        }
    }
}

/// Keys defined by a head *value* position (only paths create facts there).
fn collect_value_defines(term: &Term, out: &mut BTreeSet<DepKey>) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_value_defines(t, out),
        Term::Path(p) => {
            out.insert(dep_key(&p.method));
            collect_value_defines(&p.receiver, out);
        }
        Term::IsA(i) => collect_value_defines(&i.receiver, out),
        Term::Molecule(m) => {
            collect_value_defines(&m.receiver, out);
            for f in &m.filters {
                out.insert(dep_key(&f.method));
            }
        }
    }
}

/// Collect strict (set-at-a-time) reads performed by a head: the right-hand
/// sides of `->>` filters that are set-valued references.
fn collect_head_set_reads(head: &Term, strict: &mut BTreeSet<DepKey>) {
    match head {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_head_set_reads(t, strict),
        Term::Path(p) => collect_head_set_reads(&p.receiver, strict),
        Term::IsA(i) => collect_head_set_reads(&i.receiver, strict),
        Term::Molecule(m) => {
            collect_head_set_reads(&m.receiver, strict);
            for f in &m.filters {
                if let FilterValue::SetRef(t) = &f.value {
                    collect_keys(t, strict);
                }
            }
        }
    }
}

/// Collect *every* method/class key occurring anywhere in a reference.
/// Used for positions read set-at-a-time and for negated literals.
fn collect_keys(term: &Term, out: &mut BTreeSet<DepKey>) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_keys(t, out),
        Term::Path(p) => {
            out.insert(dep_key(&p.method));
            collect_keys(&p.receiver, out);
            for a in &p.args {
                collect_keys(a, out);
            }
        }
        Term::IsA(i) => {
            out.insert(dep_key(&i.class));
            collect_keys(&i.receiver, out);
            collect_keys(&i.class, out);
        }
        Term::Molecule(m) => {
            collect_keys(&m.receiver, out);
            for f in &m.filters {
                out.insert(dep_key(&f.method));
                for a in &f.args {
                    collect_keys(a, out);
                }
                match &f.value {
                    FilterValue::Scalar(t) | FilterValue::SetRef(t) => collect_keys(t, out),
                    FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                        for t in ts {
                            collect_keys(t, out);
                        }
                    }
                }
            }
        }
    }
}

/// Collect the keys used by a positive body reference: method/class positions
/// go to `normal`, except that the right-hand side of a `->>` filter is read
/// set-at-a-time and all of its keys go to `strict` (cf. the discussion of
/// `X[friends ->> p1..assistants]` in Section 6).
fn collect_uses(term: &Term, normal: &mut BTreeSet<DepKey>, strict: &mut BTreeSet<DepKey>) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_uses(t, normal, strict),
        Term::Path(p) => {
            normal.insert(dep_key(&p.method));
            collect_uses(&p.receiver, normal, strict);
            for a in &p.args {
                collect_uses(a, normal, strict);
            }
        }
        Term::IsA(i) => {
            normal.insert(dep_key(&i.class));
            collect_uses(&i.receiver, normal, strict);
            collect_uses(&i.class, normal, strict);
        }
        Term::Molecule(m) => {
            collect_uses(&m.receiver, normal, strict);
            for f in &m.filters {
                normal.insert(dep_key(&f.method));
                for a in &f.args {
                    collect_uses(a, normal, strict);
                }
                match &f.value {
                    FilterValue::Scalar(t) => collect_uses(t, normal, strict),
                    FilterValue::SetRef(t) => collect_keys(t, strict),
                    FilterValue::SetExplicit(ts) => {
                        for t in ts {
                            collect_uses(t, normal, strict);
                        }
                    }
                    FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                        for t in ts {
                            collect_uses(t, normal, strict);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Literal;
    use crate::term::Filter;

    fn key(n: &str) -> DepKey {
        DepKey::Known(Name::atom(n))
    }

    #[test]
    fn power_rule_is_valid() {
        // X[power -> Y] <- X : automobile.engine[power -> Y].
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("power", Term::var("Y"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("automobile")
                    .scalar("engine")
                    .filter(Filter::scalar("power", Term::var("Y"))),
            )],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.defines.contains(&key("power")));
        assert!(info.uses.contains(&key("engine")));
        assert!(info.uses.contains(&key("power")));
        assert!(info.uses.contains(&key("automobile")));
        assert!(info.strict_uses.is_empty());
    }

    #[test]
    fn virtual_boss_rule_defines_boss_and_worksfor() {
        // X.boss[worksFor -> D] <- X : employee[worksFor -> D].
        let rule = Rule::new(
            Term::var("X")
                .scalar("boss")
                .filter(Filter::scalar("worksFor", Term::var("D"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("employee")
                    .filter(Filter::scalar("worksFor", Term::var("D"))),
            )],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.defines.contains(&key("boss")));
        assert!(info.defines.contains(&key("worksFor")));
    }

    #[test]
    fn set_valued_head_is_rejected() {
        // X..kids[age -> 5] <- X : person.  (set-valued head)
        let rule = Rule::new(
            Term::var("X").set("kids").filter(Filter::scalar("age", Term::int(5))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let err = validate_rule(&rule).unwrap_err();
        assert!(err.to_string().contains("set-valued"));
    }

    #[test]
    fn unsafe_head_variable_is_rejected() {
        // X[likes -> Y] <- X : person.   (Y unbound)
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("likes", Term::var("Y"))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        assert!(validate_rule(&rule).is_err());
    }

    #[test]
    fn non_ground_fact_is_rejected() {
        let fact = Rule::fact(Term::var("X").isa("person"));
        assert!(validate_rule(&fact).is_err());
        let fact = Rule::fact(Term::name("mary").isa("person"));
        assert!(validate_rule(&fact).is_ok());
    }

    #[test]
    fn unsafe_negation_is_rejected() {
        // X : lonely <- X : person, not Y : friendOf.   (Y only under not)
        let rule = Rule::new(
            Term::var("X").isa("lonely"),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("Y").isa("friendOf")),
            ],
        );
        assert!(validate_rule(&rule).is_err());
    }

    #[test]
    fn ill_formed_head_is_rejected() {
        // head p2[boss -> p1..assistants] is ill-formed (example 4.5)
        let rule = Rule::fact(Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants"))));
        let err = validate_rule(&rule).unwrap_err();
        assert!(matches!(err, Error::InvalidRule(_)));
    }

    #[test]
    fn set_ref_rhs_in_body_is_a_strict_use() {
        // X[friends ->> p1..assistants] in a body: `assistants` must be fully
        // computed first — a strict use.
        let rule = Rule::new(
            Term::var("X").isa("sociable"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set_ref("friends", Term::name("p1").set("assistants"))),
            )],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.strict_uses.contains(&key("assistants")));
        assert!(info.uses.contains(&key("friends")));
    }

    #[test]
    fn negated_literal_uses_are_strict() {
        let rule = Rule::new(
            Term::var("X").isa("single"),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("X").scalar("spouse").empty_filters()),
            ],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.strict_uses.contains(&key("spouse")));
        assert!(info.uses.contains(&key("person")));
    }

    #[test]
    fn generic_tc_rules_have_unknown_keys() {
        // X[(M.tc) ->> {Y}] <- X[M ->> {Y}].
        let rule = Rule::new(
            Term::var("X").filter(Filter::set(Term::var("M").scalar("tc").paren(), vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set(Term::var("M"), vec![Term::var("Y")])),
            )],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.defines.contains(&DepKey::Unknown));
        assert!(info.uses.contains(&DepKey::Unknown));
    }

    #[test]
    fn transitive_closure_rules_validate() {
        // X[desc ->> {Y}] <- X[kids ->> {Y}].
        // X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
        let r1 = Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        );
        let r2 = Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X")
                    .set("desc")
                    .filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        );
        let mut p = Program::new();
        p.push_rule(r1);
        p.push_rule(r2);
        let infos = validate_program(&p).unwrap();
        assert_eq!(infos.len(), 2);
        assert!(infos[1].uses.contains(&key("desc")));
        assert!(infos[1].defines.contains(&key("desc")));
    }

    #[test]
    fn address_rule_defines_value_paths_too() {
        // X.address[street -> X.street; city -> X.city] <- X : person.
        let rule = Rule::new(
            Term::var("X").scalar("address").filters(vec![
                Filter::scalar("street", Term::var("X").scalar("street")),
                Filter::scalar("city", Term::var("X").scalar("city")),
            ]),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let info = validate_rule(&rule).unwrap();
        assert!(info.defines.contains(&key("address")));
        assert!(info.defines.contains(&key("street")));
        assert!(info.defines.contains(&key("city")));
        assert!(info.uses.contains(&key("person")));
    }
}
