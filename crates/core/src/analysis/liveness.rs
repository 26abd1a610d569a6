//! Liveness lints over the dependency graph (PL006, PL007, PL009).
//!
//! * PL006 (*always-empty literal*): a body reads a method or class key that
//!   no fact, rule head, reactive action or stored fact ever defines — the
//!   literal can never hold, so the rule can never fire.
//! * PL007 (*dead rule*): a rule's definitions are transitively read by no
//!   query, constraint or reactive condition.  Only reported when the
//!   analyzed input actually has consumers; a bare rule library is not dead,
//!   merely unused so far.
//! * PL009 (*scalar conflict*): a scalar (`->`) method is assigned by more
//!   than one proper rule.  Different firings may then derive different
//!   results for the same receiver — which the fact store rejects at
//!   runtime — so the overlap deserves a static warning.

use std::collections::{BTreeMap, BTreeSet};

use crate::builtins::ALL_BUILTINS;
use crate::names::Name;
use crate::program::{DepKey, Rule};
use crate::term::{FilterValue, Term};

use super::diagnostics::{DiagCode, Diagnostic, Diagnostics, Span};
use super::graph::{DependencyGraph, RuleKind};
use super::stats::MethodStats;

/// PL006: report reads of keys nothing defines.
pub(super) fn check_always_empty(graph: &DependencyGraph, stats: Option<&MethodStats>, diags: &mut Diagnostics) {
    // A wildcard definer (generic rules such as `X[(M.tc) ->> {Y}]`) can
    // define any key — no read is provably empty.
    if graph.defines_key(&DepKey::Unknown) {
        return;
    }
    for node in graph.nodes() {
        for key in node.info.uses.iter().chain(node.info.strict_uses.iter()) {
            let DepKey::Known(name) = key else { continue };
            let defined = graph.defines_key(key)
                || name.as_atom().is_some_and(|a| ALL_BUILTINS.contains(&a))
                || stats.is_some_and(|s| s.count(name).is_some());
            if !defined {
                diags.push(Diagnostic::new(
                    DiagCode::AlwaysEmptyLiteral,
                    node.span,
                    node.label.clone(),
                    format!("`{name}` is never asserted, derived or stored: a literal over it can never hold"),
                ));
            }
        }
    }
}

/// PL007: report rules no consumer transitively reads.
pub(super) fn check_dead_rules(graph: &DependencyGraph, diags: &mut Diagnostics) {
    // Backward reachability from the consumers: a node is live when some
    // live node reads what it defines.  Each node enters the worklist once
    // and looks its definers up through the graph's index, so a fact — which
    // reads nothing — costs O(1) here however many facts the text has.
    let mut live: Vec<bool> = graph.nodes().iter().map(|n| n.kind.is_consumer()).collect();
    let mut work: Vec<usize> = (0..graph.len()).filter(|&i| live[i]).collect();
    // Without consumers there is nothing to be reachable *from*: analyzing a
    // rule library on its own should not flag every rule as dead.
    if work.is_empty() {
        return;
    }
    while let Some(reader) = work.pop() {
        let info = &graph.nodes()[reader].info;
        for keys in [&info.uses, &info.strict_uses] {
            for definer in graph.writers_of(keys) {
                if !live[definer] {
                    live[definer] = true;
                    work.push(definer);
                }
            }
        }
    }
    for (i, node) in graph.nodes().iter().enumerate() {
        // Facts are data, not derivation steps; only proper rules are
        // reported as dead.
        if node.kind == RuleKind::Rule && !live[i] {
            diags.push(Diagnostic::new(
                DiagCode::DeadRule,
                node.span,
                node.label.clone(),
                format!(
                    "no query, rule, constraint or reactive condition reads what `{}` defines",
                    node.label
                ),
            ));
        }
    }
}

/// PL009: report scalar methods assigned by more than one proper rule.
///
/// `rules` pairs each proper rule with its graph span/label; facts are the
/// caller's responsibility to exclude (a fact fixes one receiver, so two
/// facts only collide if identical receivers disagree — a runtime error the
/// store already reports eagerly).
pub(super) fn check_scalar_conflicts(rules: &[(&Rule, Option<Span>)], diags: &mut Diagnostics) {
    let mut assigners: BTreeMap<Name, Vec<usize>> = BTreeMap::new();
    for (i, (rule, _)) in rules.iter().enumerate() {
        for m in scalar_head_methods(&rule.head) {
            assigners.entry(m).or_default().push(i);
        }
    }
    for (method, idxs) in assigners {
        if idxs.len() < 2 {
            continue;
        }
        // Anchor the warning on the *second* assigning rule: the first one
        // established the method, the second introduced the overlap.
        let (rule, span) = rules[idxs[1]];
        diags.push(Diagnostic::new(
            DiagCode::ScalarConflict,
            span,
            rule.to_string(),
            format!(
                "scalar method `{method}` is assigned by {} rules; firings may derive conflicting \
                 results for the same receiver, which the fact store rejects at runtime",
                idxs.len()
            ),
        ));
    }
}

/// The named methods a head assigns *scalar* results to: `-> value` filters
/// and scalar path steps.  Set-valued (`->>`) assignments accumulate members
/// and cannot conflict.
fn scalar_head_methods(head: &Term) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    collect_scalar_methods(head, &mut out);
    out
}

fn collect_scalar_methods(term: &Term, out: &mut BTreeSet<Name>) {
    match term {
        Term::Name(_) | Term::Var(_) => {}
        Term::Paren(t) => collect_scalar_methods(t, out),
        Term::Path(p) => {
            if !p.set_valued {
                if let Term::Name(n) = &p.method {
                    out.insert(n.clone());
                }
            }
            collect_scalar_methods(&p.receiver, out);
        }
        Term::IsA(i) => collect_scalar_methods(&i.receiver, out),
        Term::Molecule(m) => {
            collect_scalar_methods(&m.receiver, out);
            for f in &m.filters {
                if let FilterValue::Scalar(_) = &f.value {
                    if let Term::Name(n) = &f.method {
                        out.insert(n.clone());
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

    use super::super::graph::RuleNode;
    use crate::program::rule_info;

    fn graph_of(statements: &[(RuleKind, &Rule)]) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for (kind, rule) in statements {
            g.push(RuleNode::from_info(*kind, rule.to_string(), None, rule_info(rule)));
        }
        g
    }

    #[test]
    fn unwritten_method_is_always_empty() {
        let rule = Rule::new(
            Term::var("X").isa("flagged"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("salary", Term::var("_S"))),
            )],
        );
        let g = graph_of(&[(RuleKind::Rule, &rule)]);
        let mut d = Diagnostics::new();
        check_always_empty(&g, None, &mut d);
        assert_eq!(d.codes(), vec![DiagCode::AlwaysEmptyLiteral]);
        assert!(d.iter().any(|x| x.message.contains("salary")));
    }

    #[test]
    fn defined_and_stored_keys_are_not_empty() {
        let fact = Rule::fact(Term::name("mary").filter(Filter::scalar("salary", Term::int(9))));
        let rule = Rule::new(
            Term::var("X").isa("flagged"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("salary", Term::var("_S"))),
            )],
        );
        let g = graph_of(&[(RuleKind::Fact, &fact), (RuleKind::Rule, &rule)]);
        let mut d = Diagnostics::new();
        check_always_empty(&g, None, &mut d);
        // `flagged` is only *defined* here (head of the rule) — defining an
        // unread key is PL007's business, not PL006's.
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn wildcard_definer_suppresses_pl006() {
        let generic = Rule::new(
            Term::var("X").filter(Filter::set(Term::var("M").scalar("tc").paren(), vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set(Term::var("M"), vec![Term::var("Y")])),
            )],
        );
        let reader = Rule::new(
            Term::var("X").isa("flagged"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("whatever", Term::var("X"))),
            )],
        );
        let g = graph_of(&[(RuleKind::Rule, &generic), (RuleKind::Rule, &reader)]);
        let mut d = Diagnostics::new();
        check_always_empty(&g, None, &mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn unread_rule_is_dead_only_with_consumers() {
        let used = Rule::new(
            Term::var("X").isa("tall"),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let unused = Rule::new(
            Term::var("X").isa("ghost"),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let query = Rule::new(
            Term::name("__query").empty_filters(),
            vec![Literal::pos(Term::var("X").isa("tall"))],
        );

        // Without consumers: nothing reported.
        let g = graph_of(&[(RuleKind::Rule, &used), (RuleKind::Rule, &unused)]);
        let mut d = Diagnostics::new();
        check_dead_rules(&g, &mut d);
        assert!(d.is_empty());

        // With a query reading `tall`: only `ghost` is dead.
        let g = graph_of(&[
            (RuleKind::Rule, &used),
            (RuleKind::Rule, &unused),
            (RuleKind::Query, &query),
        ]);
        let mut d = Diagnostics::new();
        check_dead_rules(&g, &mut d);
        assert_eq!(d.codes(), vec![DiagCode::DeadRule]);
        assert!(d.iter().all(|x| x.subject.contains("ghost")));
    }

    #[test]
    fn transitive_reachability_keeps_chains_alive() {
        let base = Rule::new(
            Term::var("X").isa("adult"),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let derived = Rule::new(
            Term::var("X").isa("voter"),
            vec![Literal::pos(Term::var("X").isa("adult"))],
        );
        let query = Rule::new(
            Term::name("__query").empty_filters(),
            vec![Literal::pos(Term::var("X").isa("voter"))],
        );
        let g = graph_of(&[
            (RuleKind::Rule, &base),
            (RuleKind::Rule, &derived),
            (RuleKind::Query, &query),
        ]);
        let mut d = Diagnostics::new();
        check_dead_rules(&g, &mut d);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn two_rules_assigning_one_scalar_method_conflict() {
        let r1 = Rule::new(
            Term::var("X").filter(Filter::scalar("status", Term::name("good"))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let r2 = Rule::new(
            Term::var("X").filter(Filter::scalar("status", Term::name("bad"))),
            vec![Literal::pos(Term::var("X").isa("robot"))],
        );
        let mut d = Diagnostics::new();
        check_scalar_conflicts(&[(&r1, None), (&r2, None)], &mut d);
        assert_eq!(d.codes(), vec![DiagCode::ScalarConflict]);
        assert!(d.iter().any(|x| x.message.contains("status")));

        // Set-valued assignments accumulate; no conflict.
        let s1 = Rule::new(
            Term::var("X").filter(Filter::set("tags", vec![Term::name("a")])),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let s2 = Rule::new(
            Term::var("X").filter(Filter::set("tags", vec![Term::name("b")])),
            vec![Literal::pos(Term::var("X").isa("robot"))],
        );
        let mut d = Diagnostics::new();
        check_scalar_conflicts(&[(&s1, None), (&s2, None)], &mut d);
        assert!(d.is_empty());
    }
}
