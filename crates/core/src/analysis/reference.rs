//! Differential tests for the graph's definer index: the quadratic
//! relaxation and dead-rule fixpoint the index replaced are kept here,
//! verbatim, as the reference the indexed traversals must agree with —
//! same strata, same `NotStratifiable` message, same PL007 diagnostics.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::engine::Stratification;
use crate::error::{Error, Result};
use crate::names::Name;
use crate::program::{DepKey, RuleInfo};

use super::diagnostics::{DiagCode, Diagnostic, Diagnostics};
use super::graph::{keys_intersect, DependencyGraph, Edge, Polarity, RuleKind, RuleNode};
use super::liveness::check_dead_rules;

/// `DependencyGraph::stratify` as it was: every node against every node.
fn reference_stratify(nodes: &[RuleNode]) -> Result<Stratification> {
    let n = nodes.len();
    let mut stratum = vec![1usize; n];
    if n == 0 {
        return Ok(Stratification {
            strata: Vec::new(),
            stratum_of: stratum,
        });
    }
    loop {
        let mut changed = false;
        for (r, reader) in nodes.iter().enumerate() {
            for (s, definer) in nodes.iter().enumerate() {
                if keys_intersect(&definer.info.defines, &reader.info.uses) && stratum[r] < stratum[s] {
                    stratum[r] = stratum[s];
                    changed = true;
                }
                if keys_intersect(&definer.info.defines, &reader.info.strict_uses) && stratum[r] < stratum[s] + 1 {
                    stratum[r] = stratum[s] + 1;
                    changed = true;
                }
            }
            if stratum[r] > n {
                return Err(Error::NotStratifiable(format!(
                    "rule {r} depends on its own definitions through a set-at-a-time (`->>` right-hand side) \
                     or negated use; such rules must read only methods computed in earlier strata"
                )));
            }
        }
        if !changed {
            break;
        }
    }
    let max = stratum.iter().copied().max().unwrap_or(1);
    let mut strata = vec![Vec::new(); max];
    for (r, &s) in stratum.iter().enumerate() {
        strata[s - 1].push(r);
    }
    let strata: Vec<Vec<usize>> = strata.into_iter().filter(|s| !s.is_empty()).collect();
    let mut stratum_of = vec![0usize; n];
    for (i, group) in strata.iter().enumerate() {
        for &r in group {
            stratum_of[r] = i;
        }
    }
    Ok(Stratification { strata, stratum_of })
}

/// `check_dead_rules` as it was: re-scan every node until nothing changes.
fn reference_dead_rules(nodes: &[RuleNode], diags: &mut Diagnostics) {
    if !nodes.iter().any(|n| n.kind.is_consumer()) {
        return;
    }
    let mut live: Vec<bool> = nodes.iter().map(|n| n.kind.is_consumer()).collect();
    loop {
        let mut changed = false;
        for (i, node) in nodes.iter().enumerate() {
            if live[i] {
                continue;
            }
            let read_by_live = nodes.iter().enumerate().any(|(j, reader)| {
                live[j]
                    && (keys_intersect(&node.info.defines, &reader.info.uses)
                        || keys_intersect(&node.info.defines, &reader.info.strict_uses))
            });
            if read_by_live {
                live[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, node) in nodes.iter().enumerate() {
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

/// Key ids 0..=6 are the names `k0`..`k6`; 7 is [`DepKey::Unknown`].
fn keys(ids: &[u8]) -> BTreeSet<DepKey> {
    ids.iter()
        .map(|&id| match id {
            7 => DepKey::Unknown,
            id => DepKey::Known(Name::atom(format!("k{id}"))),
        })
        .collect()
}

fn node(kind: RuleKind, defines: &[u8], uses: &[u8], strict: &[u8]) -> RuleNode {
    let info = RuleInfo {
        defines: keys(defines),
        uses: keys(uses),
        strict_uses: keys(strict),
    };
    RuleNode::from_info(kind, String::new(), None, info)
}

/// Build the graph of `nodes` (labelled by position, so a diagnostic says
/// which node it names) and hold every indexed traversal against its
/// reference.
fn assert_matches_reference(nodes: Vec<RuleNode>) -> std::result::Result<(), TestCaseError> {
    let mut graph = DependencyGraph::new();
    for (i, mut node) in nodes.into_iter().enumerate() {
        node.label = format!("n{i}");
        graph.push(node);
    }
    let nodes = graph.nodes();

    let reference = reference_stratify(nodes).map_err(|e| e.to_string());
    prop_assert_eq!(graph.stratify().map_err(|e| e.to_string()), reference.clone());
    let infos: Vec<RuleInfo> = nodes.iter().map(|n| n.info.clone()).collect();
    prop_assert_eq!(
        DependencyGraph::stratify_rule_infos(&infos).map_err(|e| e.to_string()),
        reference
    );

    let (mut indexed, mut reference) = (Diagnostics::new(), Diagnostics::new());
    check_dead_rules(&graph, &mut indexed);
    reference_dead_rules(nodes, &mut reference);
    prop_assert_eq!(indexed, reference);

    // Every pair of nodes, so only where that is cheap: the edge list is
    // exactly the intersecting (reader, definer, polarity) triples, in order.
    if nodes.len() <= 32 {
        let mut expected = Vec::new();
        for (reader, r) in nodes.iter().enumerate() {
            for (definer, d) in nodes.iter().enumerate() {
                for (read, polarity) in [
                    (&r.info.uses, Polarity::Positive),
                    (&r.info.strict_uses, Polarity::Strict),
                ] {
                    if keys_intersect(&d.info.defines, read) {
                        expected.push(Edge {
                            reader,
                            definer,
                            polarity,
                        });
                    }
                }
            }
        }
        prop_assert_eq!(graph.edges(), expected);
    }
    Ok(())
}

/// The shapes the index special-cases or the relaxation is sensitive to,
/// one by one.
#[test]
fn named_shapes_match_the_reference() {
    use RuleKind::{Constraint, Fact, Query, Rule};
    let shapes: Vec<Vec<RuleNode>> = vec![
        vec![],
        // Nodes that define nothing, read nothing, or both.
        vec![
            node(Rule, &[], &[0], &[]),
            node(Fact, &[0], &[], &[]),
            node(Rule, &[], &[], &[]),
        ],
        // A self-strict cycle, alone and behind other readers of its key.
        vec![node(Rule, &[0], &[], &[0])],
        vec![
            node(Rule, &[1], &[0], &[]),
            node(Rule, &[0], &[1], &[0]),
            node(Query, &[], &[1], &[]),
        ],
        // A self-strict node between an earlier and a later definer it reads.
        vec![
            node(Rule, &[2], &[], &[1]),
            node(Rule, &[0, 1], &[2], &[0]),
            node(Rule, &[1], &[0], &[]),
        ],
        // A mutual strict cycle, and one closed through an ordinary read.
        vec![node(Rule, &[0], &[], &[1]), node(Rule, &[1], &[], &[0])],
        vec![
            node(Rule, &[0], &[1], &[]),
            node(Rule, &[1], &[], &[2]),
            node(Rule, &[2], &[0], &[]),
        ],
        // A strict chain with gaps, read by consumers; one rule is dead.
        vec![
            node(Fact, &[0], &[], &[]),
            node(Rule, &[1], &[], &[0]),
            node(Rule, &[2], &[], &[1]),
            node(Rule, &[3], &[0], &[]),
            node(Constraint, &[], &[2], &[]),
        ],
        // Wildcard definers and wildcard readers, ordinary and strict.
        vec![
            node(Fact, &[0], &[], &[]),
            node(Rule, &[7], &[0], &[]),
            node(Rule, &[1], &[7], &[]),
            node(Query, &[], &[5], &[]),
        ],
        vec![
            node(Fact, &[0], &[], &[]),
            node(Rule, &[1], &[], &[7]),
            node(Query, &[], &[], &[7]),
        ],
        vec![node(Fact, &[0], &[], &[]), node(Rule, &[7], &[], &[0])],
        // A fact whose head copies a set (a strict read by a fact).
        vec![
            node(Rule, &[1], &[0], &[]),
            node(Fact, &[2], &[], &[1]),
            node(Fact, &[0], &[], &[]),
            node(Query, &[], &[2], &[]),
        ],
    ];
    for shape in shapes {
        assert_matches_reference(shape).unwrap();
    }
}

/// One generated node; facts read nothing object-at-a-time.
fn arb_node() -> impl Strategy<Value = RuleNode> {
    let key_ids = |max| prop::collection::vec(0u8..8, 0..max);
    (0usize..6, key_ids(3), key_ids(3), key_ids(2)).prop_map(|(kind, defines, uses, strict)| {
        let kind = [
            RuleKind::Fact,
            RuleKind::Rule,
            RuleKind::Rule,
            RuleKind::Rule,
            RuleKind::Query,
            RuleKind::Production,
        ][kind];
        match kind {
            RuleKind::Fact => node(kind, &defines, &[], &strict),
            RuleKind::Query => node(kind, &[], &uses, &strict),
            _ => node(kind, &defines, &uses, &strict),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_equals_reference_on_generated_nodes(nodes in prop::collection::vec(arb_node(), 0..12)) {
        assert_matches_reference(nodes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A fact-heavy text: a thousand and more fact nodes around and between
    /// a few generated statements.  The statements are drawn stratifiable
    /// (the filler facts read nothing, so they cannot close a cycle): on a
    /// strict cycle the reference relaxes until a stratum passes the node
    /// count, which is cubic in the thousand facts — tens of seconds for a
    /// message the two tests above already compare.
    #[test]
    fn indexed_equals_reference_among_a_thousand_facts(
        nodes in prop::collection::vec(arb_node(), 1..8)
            .prop_filter("stratifiable", |nodes| reference_stratify(nodes).is_ok()),
        facts in 1000usize..1100,
    ) {
        let per_gap = facts / nodes.len() + 1;
        let mut all = Vec::new();
        for (i, n) in nodes.into_iter().enumerate() {
            all.extend((0..per_gap).map(|f| node(RuleKind::Fact, &[((i + f) % 7) as u8], &[], &[])));
            all.push(n);
        }
        assert_matches_reference(all)?;
    }
}
