//! `tc_fixpoint`: recursive rules over a complete binary tree.
//!
//! The extensional database is built through the structure API in set-up.
//! One op clones it, parses a rules-only text, installs it and answers its
//! three queries.  The tree's shape does not depend on the seed (so every
//! seed costs the same); the seed permutes which name sits on which node.

use std::fmt::Write;

use pathlog_core::engine::Engine;
use pathlog_core::structure::{Oid, Structure};

use super::{account_load, facts_of, load_text, program_layer_metrics};
use crate::harness::{Counters, TraceView, Workload};
use crate::rng::Rng;
use crate::trace::Recorder;

/// Every node whose index is a multiple of this is `special`.
const SPECIAL_EVERY: usize = 37;

/// What a plain walk over the tree says the program must derive.
#[derive(Debug, PartialEq, Eq)]
pub struct TreeOracle {
    /// Nodes below the root: the answers of `?- root[desc ->> {Y}]`.
    pub root_desc: usize,
    /// Nodes without kids: the answers of `?- X : leaf`.
    pub leaves: usize,
    /// `(ancestor, descendant)` pairs, both special: the answers of `?- X[sdesc ->> {Y}]`.
    pub special_pairs: usize,
    /// Nodes with kids; each gets one virtual `summary` object.
    pub parents: usize,
    /// Everything the rules assert: `desc` pairs, their copies under the
    /// summaries, `sdesc` pairs, the `parent`/`leaf` memberships and one
    /// `summary` fact per parent.
    pub derived: usize,
}

/// Kids of node `i` in a complete binary tree of `n` nodes, heap order.
fn kids(i: usize, n: usize) -> impl Iterator<Item = usize> {
    [2 * i + 1, 2 * i + 2].into_iter().filter(move |&c| c < n)
}

pub fn tree_oracle(n: usize) -> TreeOracle {
    // Breadth-first from every node; quadratic in the worst case, but the
    // tree is shallow: each node is visited once per ancestor.
    let mut desc_pairs = 0;
    let mut special_pairs = 0;
    let mut root_desc = 0;
    for top in 0..n {
        let mut frontier: Vec<usize> = kids(top, n).collect();
        while let Some(node) = frontier.pop() {
            desc_pairs += 1;
            if top == 0 {
                root_desc += 1;
            }
            if top % SPECIAL_EVERY == 0 && node % SPECIAL_EVERY == 0 {
                special_pairs += 1;
            }
            frontier.extend(kids(node, n));
        }
    }
    let parents = (0..n).filter(|&i| kids(i, n).next().is_some()).count();
    let leaves = n - parents;
    TreeOracle {
        root_desc,
        leaves,
        special_pairs,
        parents,
        derived: 2 * desc_pairs + special_pairs + parents + leaves + parents,
    }
}

pub struct TcFixpoint {
    edb: Structure,
    text: String,
    nodes: usize,
    oracle: Option<TreeOracle>,
    engine: Engine,
    counts: Counters,
    build_ms: f64,
}

/// Node names, permuted by the seed: node `i` is called `p<perm[i]>`.
pub fn node_names(n: usize, seed: u64) -> Vec<String> {
    let mut perm: Vec<usize> = (0..n).collect();
    Rng::new(seed, 1).shuffle(&mut perm);
    perm.into_iter().map(|p| format!("p{p}")).collect()
}

pub fn rules_text(root: &str) -> String {
    let mut text = String::from(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
         X[sdesc ->> {Y}] <- X[desc ->> {Y}], Y : special, X : special.\n\
         X : parent <- X[kids ->> {Y}].\n\
         X : leaf <- X : person, not X : parent.\n\
         X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].\n",
    );
    writeln!(text, "?- {root}[desc ->> {{Y}}].").unwrap();
    text.push_str("?- X : leaf.\n?- X[sdesc ->> {Y}].\n");
    text
}

impl Workload for TcFixpoint {
    const NAME: &'static str = "tc_fixpoint";
    const COUNT_CYCLES: usize = 4;

    fn setup(seed: u64, quick: bool) -> Self {
        let depth = if quick { 7 } else { 10 };
        let nodes = (1usize << (depth + 1)) - 1;
        let names = node_names(nodes, seed);
        let start = std::time::Instant::now();
        let mut edb = Structure::new();
        let person = edb.atom("person");
        let special = edb.atom("special");
        let kids_method = edb.atom("kids");
        let oids: Vec<Oid> = names.iter().map(|name| edb.atom(name)).collect();
        for i in 0..nodes {
            edb.add_isa(oids[i], person);
            if i % SPECIAL_EVERY == 0 {
                edb.add_isa(oids[i], special);
            }
            for kid in kids(i, nodes) {
                edb.assert_set_member(kids_method, oids[i], &[], oids[kid]);
            }
        }
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        TcFixpoint {
            edb,
            text: rules_text(&names[0]),
            nodes,
            oracle: None,
            engine: Engine::new(),
            counts: Counters::new(),
            build_ms,
        }
    }

    fn prepare_oracle(&mut self) {
        self.oracle = Some(tree_oracle(self.nodes));
    }

    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder) {
        let oracle = self.oracle.as_ref().expect("oracle prepared");
        for _ in 0..cycles {
            let op = rec.begin_op(0);
            let mut structure = rec.span("structure.clone", || self.edb.clone());
            let loaded = load_text(rec, &self.engine, &mut structure, &self.text);
            rec.end_op(op);

            let loaded = match loaded {
                Ok(loaded) => loaded,
                Err(e) => {
                    rec.fail(|| format!("tc_fixpoint op: {e}"));
                    continue;
                }
            };
            rec.check(
                "query answers",
                &loaded.answers,
                &vec![oracle.root_desc, oracle.leaves, oracle.special_pairs],
            );
            rec.check("derived facts", loaded.stats.derived(), oracle.derived);
            rec.check("virtual objects", loaded.stats.virtual_objects, oracle.parents);
            account_load(rec, &self.engine, &mut self.counts, &loaded, &self.edb, &structure);
        }
    }

    fn counters(&self) -> Counters {
        self.counts.clone()
    }

    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters) {
        program_layer_metrics(view, out, self.text.len() as f64);
        out.insert("structure.build_ms", self.build_ms);
        out.insert("structure.clone_us", view.mean_us("structure.clone"));
        let edb_facts = facts_of(&self.edb.stats());
        out.insert(
            "structure.rss_bytes_per_fact",
            view.setup.rss_growth_bytes as f64 / edb_facts,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_counts_a_small_tree_by_hand() {
        // 7 nodes: 0 -> 1, 2; 1 -> 3, 4; 2 -> 5, 6.
        let o = tree_oracle(7);
        assert_eq!((o.root_desc, o.leaves, o.parents), (6, 4, 3));
        // desc pairs: 6 under the root, 2 under each of nodes 1 and 2.
        assert_eq!(o.special_pairs, 0, "node 0 is the only special node");
        assert_eq!(o.derived, 2 * 10 + 3 + 4 + 3);
        // 75 nodes: 0, 37 and 74 are special; 37 and 74 are below 0, and 74's parent is 36.
        assert_eq!(tree_oracle(75).special_pairs, 2);
    }

    #[test]
    fn the_seed_permutes_names_and_nothing_else() {
        assert_eq!(node_names(63, 5), node_names(63, 5));
        assert_ne!(node_names(63, 5), node_names(63, 6));
        let mut sorted = node_names(63, 5);
        sorted.sort();
        let mut plain: Vec<String> = (0..63).map(|i| format!("p{i}")).collect();
        plain.sort();
        assert_eq!(sorted, plain);
        assert!(rules_text("p9").contains("?- p9[desc ->> {Y}]."));
    }
}
