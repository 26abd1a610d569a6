//! The shared dependency graph.
//!
//! Every analysis in this module — stratification, liveness, cascade bounds —
//! runs over the same [`DependencyGraph`]: one node per statement (fact,
//! rule, query, constraint body, production/ECA rule) carrying the
//! `(method/class, polarity)` read/write key sets already used by the
//! engine's `EvalMarks`/`DeltaView` gating, and edges wherever one node's
//! definitions intersect another's uses.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::engine::Stratification;
use crate::error::{Error, Result};
use crate::program::{DepKey, RuleInfo};
use crate::structure::FastBuild;

use super::diagnostics::Span;

/// What kind of statement a graph node describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleKind {
    /// A ground fact (rule with an empty body).
    Fact,
    /// A proper rule (non-empty body).
    Rule,
    /// A query body (`?- ...`): pure consumer, defines nothing.
    Query,
    /// A denial-constraint body: pure consumer.
    Constraint,
    /// A condition-action production rule (reactive crate).
    Production,
    /// An event-condition-action rule (reactive crate).
    Eca,
}

impl RuleKind {
    /// `true` for node kinds that only *read* (queries, constraints and
    /// reactive conditions): they anchor liveness but never define keys
    /// for the deductive strata.
    pub fn is_consumer(self) -> bool {
        matches!(
            self,
            RuleKind::Query | RuleKind::Constraint | RuleKind::Production | RuleKind::Eca
        )
    }
}

/// One node of the dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleNode {
    /// What kind of statement this is.
    pub kind: RuleKind,
    /// The statement as displayed source text, for the liveness diagnostics
    /// that name a node.  [`analyze`](super::analyze) leaves it empty for
    /// a fact that reads nothing: PL006 names readers and PL007 proper
    /// rules, so no diagnostic can print such a node.
    pub label: String,
    /// Where the statement starts, when the program came through the parser.
    pub span: Option<Span>,
    /// The keys the statement defines (head writes, reactive action writes),
    /// reads object-at-a-time, and reads set-at-a-time (`->>` right-hand
    /// sides, negated literals — these force stratum separation).
    pub info: RuleInfo,
}

impl RuleNode {
    /// A node built from a [`RuleInfo`] dependency summary.
    pub fn from_info(kind: RuleKind, label: String, span: Option<Span>, info: RuleInfo) -> Self {
        RuleNode {
            kind,
            label,
            span,
            info,
        }
    }
}

/// Polarity of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// An ordinary (object-at-a-time) read of the definer's keys.
    Positive,
    /// A set-at-a-time or negated read: the definer must be fully computed
    /// in an earlier stratum.
    Strict,
}

/// A dependency edge: `reader` reads keys that `definer` defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Index of the node doing the reading.
    pub reader: usize,
    /// Index of the node whose definitions are read.
    pub definer: usize,
    /// Whether the read is ordinary or strict.
    pub polarity: Polarity,
}

/// Do two key sets overlap, treating [`DepKey::Unknown`] as a wildcard?
pub fn keys_intersect(defines: &BTreeSet<DepKey>, uses: &BTreeSet<DepKey>) -> bool {
    if defines.is_empty() || uses.is_empty() {
        return false;
    }
    if defines.contains(&DepKey::Unknown) || uses.contains(&DepKey::Unknown) {
        return true;
    }
    defines.iter().any(|k| uses.contains(k))
}

/// The inverted index every traversal goes through: key → the nodes
/// defining it.  Edges are never stored; a reader's definers are looked up
/// per key, so a node that reads nothing — every fact of a fact-heavy text —
/// costs O(1) in each traversal, and the analyses are linear in statements
/// plus edges.
#[derive(Debug, Clone, Default)]
struct DefinerIndex {
    /// Key → its slot in `definers`.
    by_key: BTreeMap<DepKey, usize>,
    /// Per slot, the nodes whose `defines` contains its key, ascending.  The
    /// slot of [`DepKey::Unknown`] holds the wildcard definers.
    definers: Vec<Vec<usize>>,
    /// The slot of a named key by its
    /// [`Name::text_address`](crate::names::Name::text_address): a parsed text
    /// names each key through one allocation, so a fact finds its keys'
    /// slots without comparing text.  The nodes whose
    /// keys filled it keep those allocations alive; a key of another
    /// allocation misses and is looked up in `by_key`.
    by_text: HashMap<u64, usize, FastBuild>,
    /// The nodes with a non-empty `defines`, ascending: what a read of
    /// [`DepKey::Unknown`] depends on.
    defining: Vec<usize>,
}

impl PartialEq for DefinerIndex {
    /// Equal keys and definers; `by_text` only caches `by_key`.
    fn eq(&self, other: &Self) -> bool {
        self.by_key == other.by_key && self.definers == other.definers && self.defining == other.defining
    }
}

impl Eq for DefinerIndex {}

impl DefinerIndex {
    /// Record node `index` (greater than every node recorded so far) as the
    /// definer of `defines`, whose keys the index keeps alive (see
    /// `by_text`).
    fn add(&mut self, index: usize, defines: &BTreeSet<DepKey>) {
        for key in defines {
            let text = match key {
                DepKey::Known(name) => name.text_address(),
                DepKey::Unknown => None,
            };
            let slot = match text.and_then(|t| self.by_text.get(&t)) {
                Some(&slot) => slot,
                None => {
                    // Not the entry API: it would clone the key for every
                    // definer, and a text defines few distinct keys many
                    // times.
                    let slot = match self.by_key.get(key) {
                        Some(&slot) => slot,
                        None => {
                            self.by_key.insert(key.clone(), self.definers.len());
                            self.definers.push(Vec::new());
                            self.definers.len() - 1
                        }
                    };
                    if let Some(t) = text {
                        self.by_text.insert(t, slot);
                    }
                    slot
                }
            };
            self.definers[slot].push(index);
        }
        if !defines.is_empty() {
            self.defining.push(index);
        }
    }

    /// The nodes defining exactly `key`.
    fn definers_of(&self, key: &DepKey) -> Option<&Vec<usize>> {
        self.by_key.get(key).map(|&slot| &self.definers[slot])
    }

    /// The nodes whose definitions intersect `keys` (in the sense of
    /// [`keys_intersect`]), ascending.
    fn writers_of(&self, keys: &BTreeSet<DepKey>) -> Vec<usize> {
        if keys.is_empty() {
            return Vec::new();
        }
        if keys.contains(&DepKey::Unknown) {
            return self.defining.clone();
        }
        let mut out: Vec<usize> = keys
            .iter()
            .chain(std::iter::once(&DepKey::Unknown))
            .filter_map(|key| self.definers_of(key))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The edges among the nodes summarised by `infos` (the nodes this index
    /// was built from, in order), ordered by reader, definer, polarity.
    fn edges<'a>(&self, infos: impl Iterator<Item = &'a RuleInfo>) -> Vec<Edge> {
        let mut out = Vec::new();
        for (reader, info) in infos.enumerate() {
            let start = out.len();
            for (keys, polarity) in [(&info.uses, Polarity::Positive), (&info.strict_uses, Polarity::Strict)] {
                out.extend(self.writers_of(keys).into_iter().map(|definer| Edge {
                    reader,
                    definer,
                    polarity,
                }));
            }
            out[start..].sort_unstable();
        }
        out
    }
}

/// The relaxation fixpoint behind [`DependencyGraph::stratify`], over `n`
/// nodes and their `edges` in [`DefinerIndex::edges`] order.
fn stratify_edges(n: usize, edges: &[Edge]) -> Result<Stratification> {
    let mut stratum = vec![1usize; n];
    loop {
        let mut changed = false;
        for reads in edges.chunk_by(|a, b| a.reader == b.reader) {
            let r = reads[0].reader;
            for edge in reads {
                let floor = stratum[edge.definer] + usize::from(edge.polarity == Polarity::Strict);
                if stratum[r] < floor {
                    stratum[r] = floor;
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

    let max = stratum.iter().copied().max().unwrap_or(0);
    let mut strata = vec![Vec::new(); max];
    for (r, &s) in stratum.iter().enumerate() {
        strata[s - 1].push(r);
    }
    // Drop empty strata (can appear when numbering has gaps) while keeping order.
    let strata: Vec<Vec<usize>> = strata.into_iter().filter(|s| !s.is_empty()).collect();
    // Re-derive stratum_of from the compacted strata.
    let mut stratum_of = vec![0usize; n];
    for (i, group) in strata.iter().enumerate() {
        for &r in group {
            stratum_of[r] = i;
        }
    }
    Ok(Stratification { strata, stratum_of })
}

/// The shared dependency graph over every statement of a program (and,
/// optionally, its constraints and reactive rules).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    nodes: Vec<RuleNode>,
    /// Maintained by [`DependencyGraph::push`]; nodes never change once in.
    index: DefinerIndex,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// [`DependencyGraph::stratify`] for the graph of one `Rule`-kind node
    /// per dependency summary — the exact input shape the engine's
    /// stratifier works from — without building the nodes.
    pub fn stratify_rule_infos(infos: &[RuleInfo]) -> Result<Stratification> {
        let mut index = DefinerIndex::default();
        for (i, info) in infos.iter().enumerate() {
            index.add(i, &info.defines);
        }
        stratify_edges(infos.len(), &index.edges(infos.iter()))
    }

    /// Add a node, returning its index.
    pub fn push(&mut self, node: RuleNode) -> usize {
        let index = self.nodes.len();
        self.index.add(index, &node.info.defines);
        self.nodes.push(node);
        index
    }

    /// The nodes, in insertion (source) order.
    pub fn nodes(&self) -> &[RuleNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` when some node's `defines` contains exactly `key` (no wildcard
    /// matching — see [`DependencyGraph::writers_of`] for that).
    pub(super) fn defines_key(&self, key: &DepKey) -> bool {
        self.index.by_key.contains_key(key)
    }

    /// All dependency edges, ordered by reader, then definer, then polarity:
    /// one per `(reader, definer)` pair whose key sets intersect, with
    /// [`Polarity::Strict`] when the strict uses intersect (a pair can yield
    /// both edge polarities).
    pub fn edges(&self) -> Vec<Edge> {
        self.index.edges(self.nodes.iter().map(|n| &n.info))
    }

    /// Indexes of nodes whose definitions intersect `keys`, ascending.
    pub fn writers_of(&self, keys: &BTreeSet<DepKey>) -> Vec<usize> {
        self.index.writers_of(keys)
    }

    /// Compute a stratification of the graph's nodes.
    ///
    /// This hosts the engine's relaxation fixpoint: strata start at 1 and a
    /// reader is lifted to its definer's stratum (ordinary read) or above it
    /// (strict read), sweeping the [`edges`](DependencyGraph::edges) in
    /// order until nothing changes; a stratum exceeding the node count
    /// proves a strict cycle.  `engine/stratify.rs` delegates here, so the
    /// strata the engine evaluates with are exactly the ones reported by the
    /// analyzer.
    ///
    /// Returns [`Error::NotStratifiable`] when a node (transitively) depends
    /// on its own definitions through a strict use.
    pub fn stratify(&self) -> Result<Stratification> {
        stratify_edges(self.nodes.len(), &self.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Name;

    fn node(kind: RuleKind, defines: &[&str], uses: &[&str], strict: &[&str]) -> RuleNode {
        let keys = |names: &[&str]| names.iter().map(|s| DepKey::Known(Name::atom(*s))).collect();
        let info = RuleInfo {
            defines: keys(defines),
            uses: keys(uses),
            strict_uses: keys(strict),
        };
        RuleNode::from_info(kind, String::new(), None, info)
    }

    #[test]
    fn definers_are_found_by_key_whichever_allocation_names_it() {
        // A parsed text shares one allocation between the atom `m` and the
        // string `"m"`, which are two keys; another allocation of `m` is
        // the same key.
        let text: std::sync::Arc<str> = std::sync::Arc::from("m");
        let defining = |key: Name| {
            let info = RuleInfo {
                defines: [DepKey::Known(key)].into(),
                ..RuleInfo::default()
            };
            RuleNode::from_info(RuleKind::Fact, String::new(), None, info)
        };
        let mut g = DependencyGraph::new();
        g.push(defining(Name::Atom(text.clone())));
        g.push(defining(Name::Str(text.clone())));
        g.push(defining(Name::atom("m")));
        g.push(defining(Name::Str(text)));
        let reads = |key: Name| g.writers_of(&[DepKey::Known(key)].into());
        assert_eq!(reads(Name::atom("m")), vec![0, 2]);
        assert_eq!(reads(Name::string("m")), vec![1, 3]);
        let mut fresh = DependencyGraph::new();
        for n in g.nodes() {
            fresh.push(n.clone());
        }
        assert_eq!(fresh, g);
    }

    #[test]
    fn edges_carry_polarity() {
        let mut g = DependencyGraph::new();
        g.push(node(RuleKind::Rule, &["a"], &[], &[]));
        g.push(node(RuleKind::Rule, &["b"], &["a"], &[]));
        g.push(node(RuleKind::Rule, &["c"], &[], &["b"]));
        let edges = g.edges();
        assert!(edges.contains(&Edge {
            reader: 1,
            definer: 0,
            polarity: Polarity::Positive
        }));
        assert!(edges.contains(&Edge {
            reader: 2,
            definer: 1,
            polarity: Polarity::Strict
        }));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn writers_and_readers_respect_wildcards() {
        let mut g = DependencyGraph::new();
        g.push(node(RuleKind::Rule, &["a"], &[], &[]));
        let mut wild = node(RuleKind::Rule, &[], &[], &[]);
        wild.info.defines.insert(DepKey::Unknown);
        g.push(wild);
        let keys: BTreeSet<DepKey> = [DepKey::Known(Name::atom("a"))].into_iter().collect();
        assert_eq!(g.writers_of(&keys), vec![0, 1]);
        let keys: BTreeSet<DepKey> = [DepKey::Known(Name::atom("zzz"))].into_iter().collect();
        assert_eq!(g.writers_of(&keys), vec![1]);
    }

    #[test]
    fn graph_stratify_matches_engine_shape() {
        let mut g = DependencyGraph::new();
        g.push(node(RuleKind::Rule, &["assistants"], &["worksFor"], &[]));
        g.push(node(RuleKind::Rule, &["friendly"], &[], &["assistants"]));
        let s = g.stratify().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stratum_of, vec![0, 1]);
    }

    #[test]
    fn graph_strict_cycle_rejected() {
        let mut g = DependencyGraph::new();
        g.push(node(RuleKind::Rule, &["friends"], &[], &["friends"]));
        assert!(matches!(g.stratify().unwrap_err(), Error::NotStratifiable(_)));
    }

    #[test]
    fn consumer_kinds() {
        assert!(RuleKind::Query.is_consumer());
        assert!(RuleKind::Constraint.is_consumer());
        assert!(RuleKind::Production.is_consumer());
        assert!(!RuleKind::Rule.is_consumer());
        assert!(!RuleKind::Fact.is_consumer());
    }
}
