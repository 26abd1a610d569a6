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
//! stratifier, from one walk per side of the rule.  A head *defines* what
//! [`assert_head`](crate::engine::assert_head) writes: the method of every
//! path and filter and the class of every is-a it asserts, wherever they sit
//! in the head — receivers, methods, arguments, scalar values, explicit set
//! elements and signature results alike.  A body *uses* the keys it reads,
//! and reads some *set-at-a-time*: the right-hand side of a `->>` filter, in
//! the body or anywhere in the head, and everything under negation.  A
//! set-at-a-time read must find its set complete, which requires
//! stratification as in \[NT89\].

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::names::Name;
use crate::program::{Literal, Program, Rule};
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
    /// Keys the rule reads set-at-a-time (must be fully computed in an
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

/// Compute a rule's dependency summary without validating it: the union of
/// [`head_info`] and [`body_info`].
///
/// This is the collector half of [`validate_rule`], exposed so the static
/// analyzer can build dependency-graph nodes even for rules that fail one of
/// the safety checks (it wants to report *all* problems, not stop at the
/// first).
pub fn rule_info(rule: &Rule) -> RuleInfo {
    let mut info = body_info(&rule.body);
    walk_head(&rule.head, &mut |key| info.add_head_key(key));
    info
}

/// What asserting `head` touches: the keys it writes under (`defines`) and
/// the keys its `->>` right-hand sides read whole (`strict_uses`).
pub fn head_info(head: &Term) -> RuleInfo {
    let mut info = RuleInfo::default();
    walk_head(head, &mut |key| info.add_head_key(key));
    info
}

/// What solving `body` reads: object-at-a-time (`uses`) and set-at-a-time
/// (`strict_uses`).
pub fn body_info(body: &[Literal]) -> RuleInfo {
    let mut info = RuleInfo::default();
    for lit in body {
        walk_body(&lit.term, !lit.positive, &mut |key, strict| {
            if strict { &mut info.strict_uses } else { &mut info.uses }.insert(key);
        });
    }
    info
}

impl RuleInfo {
    fn add_head_key(&mut self, key: HeadKey) {
        match key {
            HeadKey::Assigns(key) | HeadKey::Mints(key) | HeadKey::Adds(key) => self.defines.insert(key),
            HeadKey::ReadsWhole(key) => self.strict_uses.insert(key),
        };
    }
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
    walk_body(term, true, &mut |key, _| {
        out.insert(key);
    });
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

/// One key a head touches, as [`walk_head`] reports it.
pub(crate) enum HeadKey {
    /// A `->` filter assigns the scalar result of the method.
    Assigns(DepKey),
    /// A `.` path reads the scalar result of the method and, where it is
    /// undefined, stores a fresh virtual object as that result.
    Mints(DepKey),
    /// Set members, is-a edges or signatures are added under the key (a
    /// `->>` filter, an is-a, a signature filter; or a `..` path, which no
    /// valid head holds).
    Adds(DepKey),
    /// A `->>` right-hand side reads the key set-at-a-time.
    ReadsWhole(DepKey),
}

/// Report every key asserting `head` touches, visiting the positions
/// [`assert_head`](crate::engine::assert_head) asserts: receiver, method and
/// arguments of every path and filter, an is-a's class, scalar values,
/// explicit set elements and signature results, recursively.  A path writes
/// its method, an is-a its class and a filter its method (a signature
/// filter declares under it); a `->>` right-hand side is read, not asserted.
pub(crate) fn walk_head(term: &Term, visit: &mut impl FnMut(HeadKey)) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => walk_head(t, visit),
        Term::Path(p) => {
            walk_head(&p.receiver, visit);
            walk_head(&p.method, visit);
            p.args.iter().for_each(|a| walk_head(a, visit));
            let key = dep_key(&p.method);
            visit(if p.set_valued {
                HeadKey::Adds(key)
            } else {
                HeadKey::Mints(key)
            });
        }
        Term::IsA(i) => {
            walk_head(&i.receiver, visit);
            walk_head(&i.class, visit);
            visit(HeadKey::Adds(dep_key(&i.class)));
        }
        Term::Molecule(m) => {
            walk_head(&m.receiver, visit);
            for f in &m.filters {
                walk_head(&f.method, visit);
                f.args.iter().for_each(|a| walk_head(a, visit));
                match &f.value {
                    FilterValue::Scalar(t) => walk_head(t, visit),
                    FilterValue::SetRef(t) => walk_body(t, true, &mut |key, _| visit(HeadKey::ReadsWhole(key))),
                    FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                        ts.iter().for_each(|t| walk_head(t, visit))
                    }
                }
                let key = dep_key(&f.method);
                visit(match f.value {
                    FilterValue::Scalar(_) => HeadKey::Assigns(key),
                    _ => HeadKey::Adds(key),
                });
            }
        }
    }
}

/// Report every method/class key a body reference reads, with whether it is
/// read set-at-a-time: everything when `strict` (a negated literal, a `->>`
/// right-hand side), else only what sits under a `->>` right-hand side (cf.
/// the discussion of `X[friends ->> p1..assistants]` in Section 6).
fn walk_body(term: &Term, strict: bool, visit: &mut impl FnMut(DepKey, bool)) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => walk_body(t, strict, visit),
        Term::Path(p) => {
            visit(dep_key(&p.method), strict);
            walk_body(&p.receiver, strict, visit);
            p.args.iter().for_each(|a| walk_body(a, strict, visit));
        }
        Term::IsA(i) => {
            visit(dep_key(&i.class), strict);
            walk_body(&i.receiver, strict, visit);
            walk_body(&i.class, strict, visit);
        }
        Term::Molecule(m) => {
            walk_body(&m.receiver, strict, visit);
            for f in &m.filters {
                visit(dep_key(&f.method), strict);
                f.args.iter().for_each(|a| walk_body(a, strict, visit));
                match &f.value {
                    FilterValue::SetRef(t) => walk_body(t, true, visit),
                    FilterValue::Scalar(t) => walk_body(t, strict, visit),
                    FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                        ts.iter().for_each(|t| walk_body(t, strict, visit))
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
    fn assertions_nested_in_head_values_define_and_read_whole() {
        // X[m -> Y : c] <- X[partner -> Y].   (the is-a sits in a value)
        let isa = Rule::new(
            Term::var("X").filter(Filter::scalar("m", Term::var("Y").isa("c"))),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("partner", Term::var("Y"))),
            )],
        );
        assert_eq!(rule_info(&isa).defines, [key("m"), key("c")].into_iter().collect());
        // X[m -> Y[n ->> Y..q]] <- ...   (a `->>` right-hand side nested in a value)
        let set_ref = Term::var("X").filter(Filter::scalar(
            "m",
            Term::var("Y").filter(Filter::set_ref("n", Term::var("Y").set("q"))),
        ));
        let info = head_info(&set_ref);
        assert_eq!(info.defines, [key("m"), key("n")].into_iter().collect());
        assert_eq!(info.strict_uses, [key("q")].into_iter().collect());
        assert!(info.uses.is_empty());
        // X.f@(X.g)[h ->> {X.k}]   (paths in an argument and a set element)
        let args = Term::var("X")
            .scalar_args("f", vec![Term::var("X").scalar("g")])
            .filter(Filter::set("h", vec![Term::var("X").scalar("k")]));
        let expected: BTreeSet<DepKey> = ["f", "g", "h", "k"].into_iter().map(key).collect();
        assert_eq!(head_info(&args).defines, expected);
    }

    #[test]
    fn a_body_defines_nothing() {
        let body = [
            Literal::pos(Term::var("X").filter(Filter::set_ref("friends", Term::var("X").set("kids")))),
            Literal::neg(Term::var("X").isa("robot")),
        ];
        let info = body_info(&body);
        assert!(info.defines.is_empty());
        assert_eq!(info.uses, [key("friends")].into_iter().collect());
        assert_eq!(info.strict_uses, [key("kids"), key("robot")].into_iter().collect());
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
