//! Safety and range-restriction checks (PL001–PL004, PL008).
//!
//! The one safety checker: well-formedness, set-valued heads, unsafe head
//! variables and variables only under negation, reported as *diagnostics* —
//! every problem, with spans, over rules and over query and constraint
//! bodies alike.  [`validate_rule`](crate::program::validate_rule) runs the
//! same `Error` checks of a rule and rejects it with the message of the
//! first ([`first_rule_error`]), so a rule is rejected exactly when it has
//! an `Error`-severity diagnostic here, and `Engine::install_checked` can
//! rely on "no errors" implying the engine will accept the program.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use crate::names::Var;
use crate::program::{Literal, Rule};
use crate::scalarity::is_set_valued;
use crate::term::{FilterValue, Term};
use crate::wellformed::check_well_formed;

use super::diagnostics::{DiagCode, Diagnostic, Diagnostics, Span};

/// Run the safety checks over one rule, reporting every violation instead of
/// stopping at the first.
pub(super) fn check_rule(rule: &Rule, span: Option<Span>, diags: &mut Diagnostics) {
    // Rendered when the first diagnostic needs it: a clean statement (nearly
    // every fact of a loaded text) is never printed back to source.
    let rendered = OnceCell::new();
    check_rule_errors(rule, span, &rendered, diags);
    if !rule.is_fact() {
        check_singletons(rule, span, rendered.get_or_init(|| rule.to_string()), diags);
    }
}

/// The message of the first `Error`-severity diagnostic [`check_rule`]
/// reports for `rule`, in its check order — the reason
/// [`crate::program::validate_rule`] rejects the rule — or `None`.
pub(crate) fn first_rule_error(rule: &Rule) -> Option<String> {
    let mut diags = Diagnostics::new();
    check_rule_errors(rule, None, &OnceCell::new(), &mut diags);
    let first = diags.iter().next().map(|d| d.message.clone());
    first
}

/// The `Error`-severity checks of one rule, PL001–PL004 in that order;
/// `rendered` caches the rule's source text for the messages.
fn check_rule_errors(rule: &Rule, span: Option<Span>, rendered: &OnceCell<String>, diags: &mut Diagnostics) {
    let label = || -> &str { rendered.get_or_init(|| rule.to_string()) };

    // PL001 — well-formedness (Definition 3) of head and body references.
    if let Err(e) = check_well_formed(&rule.head) {
        diags.push(Diagnostic::new(
            DiagCode::IllFormed,
            span,
            label().to_string(),
            format!("head of `{}` is ill-formed: {e}", label()),
        ));
    }
    check_literals(label, "body literal", &rule.body, span, diags);

    // PL002 — set-valued head (Section 6: the object a set-valued reference
    // describes is not uniquely determined, so it cannot be asserted).
    if is_set_valued(&rule.head) {
        diags.push(Diagnostic::new(
            DiagCode::SetValuedHead,
            span,
            label().to_string(),
            format!(
                "the head of `{}` is a set-valued reference and cannot be asserted",
                label()
            ),
        ));
    }

    // PL003 — head variables must occur in a positive body literal; for
    // facts this is exactly groundness.
    let positive: BTreeSet<_> = rule.positive_body_variables().into_iter().collect();
    for v in rule.head_variables() {
        if !positive.contains(&v) {
            let message = if rule.is_fact() {
                format!("fact `{}` is not ground: variable {v} has no binding", label())
            } else {
                format!(
                    "head variable {v} of `{}` does not occur in a positive body literal",
                    label()
                )
            };
            diags.push(Diagnostic::new(
                DiagCode::UnsafeHeadVariable,
                span,
                label().to_string(),
                message,
            ));
        }
    }

    if !rule.is_fact() {
        // PL004 — range restriction for negated literals.
        check_negation(label(), &rule.body, span, diags);
    }
}

/// PL008 — singleton variables (proper rules only: facts with variables are
/// already PL003, and in queries a single occurrence is the normal way to
/// project an answer).  The `_` prefix marks intentional singletons,
/// mirroring the usual logic-programming convention.
fn check_singletons(rule: &Rule, span: Option<Span>, label: &str, diags: &mut Diagnostics) {
    let mut occurrences: Vec<Var> = Vec::new();
    var_occurrences(&rule.head, &mut occurrences);
    for lit in &rule.body {
        var_occurrences(&lit.term, &mut occurrences);
    }
    let mut seen: Vec<&Var> = Vec::new();
    for v in &occurrences {
        if seen.contains(&v) {
            continue;
        }
        seen.push(v);
        let count = occurrences.iter().filter(|o| *o == v).count();
        if count == 1 && !v.name().starts_with('_') {
            diags.push(Diagnostic::new(
                DiagCode::SingletonVariable,
                span,
                label.to_string(),
                format!("variable {v} occurs only once in `{label}`; prefix it with `_` if this is intentional"),
            ));
        }
    }
}

/// The message of the first `Error`-severity diagnostic of a rule body —
/// PL001 on a literal, then PL004 — worded as [`first_rule_error`] words
/// it, or `None`: the reason a constraint's denial body is rejected.
pub(crate) fn first_body_error(body: &[Literal]) -> Option<String> {
    let mut diags = Diagnostics::new();
    check_literals(|| "", "body literal", body, None, &mut diags);
    check_negation("", body, None, &mut diags);
    let first = diags.iter().next().map(|d| d.message.clone());
    first
}

/// Range-restriction check (PL004) for a stand-alone body — queries,
/// constraint denial bodies, reactive conditions.  Also reports PL001 for
/// ill-formed references in the body.
pub(super) fn check_body(label: &str, body: &[Literal], span: Option<Span>, diags: &mut Diagnostics) {
    check_literals(|| label, "literal", body, span, diags);
    check_negation(label, body, span, diags);
}

/// PL001 for each literal of `body`, which the message calls a `noun`;
/// `label` is asked for only when a literal is ill-formed.
fn check_literals<'l>(
    label: impl Fn() -> &'l str,
    noun: &str,
    body: &[Literal],
    span: Option<Span>,
    diags: &mut Diagnostics,
) {
    for lit in body {
        if let Err(e) = check_well_formed(&lit.term) {
            diags.push(Diagnostic::new(
                DiagCode::IllFormed,
                span,
                label().to_string(),
                format!("{noun} `{}` is ill-formed: {e}", lit.term),
            ));
        }
    }
}

/// PL004 for one body: every variable of a negated literal must occur in a
/// positive literal of the same body.
fn check_negation(label: &str, body: &[Literal], span: Option<Span>, diags: &mut Diagnostics) {
    let positive: BTreeSet<Var> = body
        .iter()
        .filter(|l| l.positive)
        .flat_map(|l| l.term.variables())
        .collect();
    for lit in body.iter().filter(|l| !l.positive) {
        for v in lit.term.variables() {
            if !positive.contains(&v) {
                diags.push(Diagnostic::new(
                    DiagCode::UnsafeNegationVariable,
                    span,
                    label.to_string(),
                    format!(
                        "variable {v} of negated literal `{}` does not occur in a positive literal",
                        lit.term
                    ),
                ));
            }
        }
    }
}

/// Collect every variable *occurrence* (not deduplicated —
/// [`Term::variables`] dedups, which would hide repeats from the singleton
/// count).
fn var_occurrences(term: &Term, out: &mut Vec<Var>) {
    match term {
        Term::Name(_) => {}
        Term::Var(v) => out.push(v.clone()),
        Term::Paren(t) => var_occurrences(t, out),
        Term::Path(p) => {
            var_occurrences(&p.receiver, out);
            var_occurrences(&p.method, out);
            for a in &p.args {
                var_occurrences(a, out);
            }
        }
        Term::Molecule(m) => {
            var_occurrences(&m.receiver, out);
            for f in &m.filters {
                var_occurrences(&f.method, out);
                for a in &f.args {
                    var_occurrences(a, out);
                }
                match &f.value {
                    FilterValue::Scalar(t) | FilterValue::SetRef(t) => var_occurrences(t, out),
                    FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                        for t in ts {
                            var_occurrences(t, out);
                        }
                    }
                }
            }
        }
        Term::IsA(i) => {
            var_occurrences(&i.receiver, out);
            var_occurrences(&i.class, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Filter;

    fn diags_for(rule: &Rule) -> Diagnostics {
        let mut d = Diagnostics::new();
        check_rule(rule, Some(Span::new(1, 1)), &mut d);
        d
    }

    #[test]
    fn clean_rule_has_no_diagnostics() {
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("power", Term::var("Y"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("automobile")
                    .scalar("engine")
                    .filter(Filter::scalar("power", Term::var("Y"))),
            )],
        );
        assert!(diags_for(&rule).is_empty());
    }

    #[test]
    fn set_valued_head_is_pl002() {
        let rule = Rule::new(
            Term::var("X").set("kids").filter(Filter::scalar("age", Term::int(5))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let d = diags_for(&rule);
        assert_eq!(d.codes(), vec![DiagCode::SetValuedHead]);
    }

    #[test]
    fn unsafe_head_variable_is_pl003() {
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("likes", Term::var("Y"))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let d = diags_for(&rule);
        assert!(d.codes().contains(&DiagCode::UnsafeHeadVariable));
    }

    #[test]
    fn non_ground_fact_is_pl003_with_fact_wording() {
        let d = diags_for(&Rule::fact(Term::var("X").isa("person")));
        assert!(d.codes().contains(&DiagCode::UnsafeHeadVariable));
        assert!(d.iter().any(|x| x.message.contains("not ground")));
    }

    #[test]
    fn unsafe_negation_is_pl004_in_rules_and_bodies() {
        let rule = Rule::new(
            Term::var("X").isa("lonely"),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("Y").isa("friendOf")),
            ],
        );
        let d = diags_for(&rule);
        assert!(d.codes().contains(&DiagCode::UnsafeNegationVariable));

        let mut d = Diagnostics::new();
        check_body(
            "?- not X : person.",
            &[Literal::neg(Term::var("X").isa("person"))],
            None,
            &mut d,
        );
        assert_eq!(d.codes(), vec![DiagCode::UnsafeNegationVariable]);
    }

    #[test]
    fn ill_formed_head_is_pl001() {
        let rule = Rule::fact(Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants"))));
        let d = diags_for(&rule);
        assert!(d.codes().contains(&DiagCode::IllFormed));
    }

    #[test]
    fn singleton_variable_is_pl008_unless_underscored() {
        let rule = Rule::new(
            Term::var("X").isa("flagged"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("age", Term::var("Age"))),
            )],
        );
        let d = diags_for(&rule);
        assert_eq!(d.codes(), vec![DiagCode::SingletonVariable]);
        assert!(d.iter().any(|x| x.message.contains("Age")));

        let rule = Rule::new(
            Term::var("X").isa("flagged"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("age", Term::var("_Age"))),
            )],
        );
        assert!(diags_for(&rule).is_empty());
    }

    #[test]
    fn every_validate_rejection_is_an_error_diagnostic() {
        // The guarantee install_checked relies on: if validate_rule rejects,
        // the analyzer reports at least one Error-severity diagnostic.
        let bad: Vec<Rule> = vec![
            Rule::fact(Term::var("X").isa("person")),
            Rule::new(
                Term::var("X").set("kids").empty_filters(),
                vec![Literal::pos(Term::var("X").isa("person"))],
            ),
            Rule::new(
                Term::var("X").filter(Filter::scalar("likes", Term::var("Y"))),
                vec![Literal::pos(Term::var("X").isa("person"))],
            ),
            Rule::new(
                Term::var("X").isa("lonely"),
                vec![
                    Literal::pos(Term::var("X").isa("person")),
                    Literal::neg(Term::var("Y").isa("friendOf")),
                ],
            ),
        ];
        for rule in &bad {
            assert!(
                crate::program::validate_rule(rule).is_err(),
                "expected rejection: {rule}"
            );
            let d = diags_for(rule);
            assert!(!d.no_errors(), "analyzer missed: {rule}");
        }
    }
}
