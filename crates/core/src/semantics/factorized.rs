//! Factorized answer representations: answer sets as DAGs of unions and
//! products over shared `Oid` runs, instead of exploded binding tuples.
//!
//! The hot shape in closure-style PathLog queries is product-shaped: a
//! set-valued path `X..desc` has one answer per *(receiver, member)* pair,
//! yet the member column for a fixed receiver is exactly the stored run of
//! the fact table.  Materializing `|receivers| x |members|` [`Answer`]s
//! copies every run once per receiver and allocates one `Bindings` per
//! member.  The factorized form keeps the factors separate:
//!
//! ```text
//! Union_(r in receivers, sorted)  Product( Unit{X = r},  ObjRun(members(r)) )
//! ```
//!
//! where `ObjRun` holds the *same* `Arc` as the columnar fact storage
//! ([`OidRun`] is copy-on-write), so building the DAG is O(|receivers|)
//! regardless of how many answers it denotes.  This is the
//! d-representation idea of Olteanu et al.'s factorized databases,
//! specialised to the two query shapes the engine's closure paths emit.
//!
//! Enumeration ([`AnswerDag::for_each`]) is lazy and yields answers in
//! exactly the order the written-order reference enumerator
//! ([`answers`]) produces them — receivers in
//! ascending `Oid` order (the order `BTreeSet`-seeded receiver candidates
//! enumerate), members in ascending run order.  Against
//! [`Engine::query_term`](crate::engine::Engine::query_term), which runs the
//! compiled atoms and returns canonical `(key, object)` order, the contract
//! is the same *multiset* of answers: in order for the factorized shapes
//! (their enumeration order happens to be the canonical one), up to order
//! for a materialized fallback.
//!
//! [`factorized_answers`] builds a DAG for the supported shapes and falls
//! back to materialized answers otherwise; callers treat both through
//! [`FactorizedAnswers`].

use crate::error::Result;
use crate::names::Var;
use crate::structure::{Oid, OidRun, Structure};
use crate::term::Term;

use super::answers::{answers, ground_name_oid, resolved_method_oid, Answer};
use super::Bindings;

/// Index of a node in an [`AnswerDag`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

/// One node of a factorized answer DAG.
///
/// A node denotes an ordered sequence of `(valuation extension, object?)`
/// pairs.  Exactly one leaf along every root-to-leaf enumeration path
/// produces the answer object; the builder maintains this invariant.
#[derive(Debug, Clone)]
pub enum Node {
    /// Extend the valuation with fixed pairs; optionally produce the
    /// answer object.  Denotes exactly one element.
    Unit {
        /// Variable bindings added to the valuation.
        pairs: Vec<(Var, Oid)>,
        /// The answer object, when this leaf produces it.
        object: Option<Oid>,
    },
    /// The answer-object column: a shared sorted run, usually the same
    /// `Arc` as a fact-table column.  Denotes one element per member, in
    /// run (ascending `Oid`) order, binding no variable.
    ObjRun(OidRun),
    /// `var` ranges over a shared run; each member extends the valuation
    /// and, when `is_object`, is also the produced answer object.
    VarRun {
        /// The variable bound to each member in turn.
        var: Var,
        /// The shared member column.
        run: OidRun,
        /// Whether the member is also the produced answer object.
        is_object: bool,
    },
    /// Concatenation of the children's sequences, in child order.
    Union(Vec<NodeId>),
    /// Cross product of the children's sequences, enumerated left-to-right
    /// with the rightmost child varying fastest.
    Product(Vec<NodeId>),
}

/// A factorized answer set: an arena of [`Node`]s plus the seed valuation
/// every enumerated answer extends.
#[derive(Debug, Clone)]
pub struct AnswerDag {
    seed: Bindings,
    nodes: Vec<Node>,
    root: NodeId,
}

impl AnswerDag {
    /// Number of nodes in the DAG — the size of the *representation*.
    /// Sub-linear growth of `node_count()` against [`count()`](Self::count)
    /// is the whole point of factorization.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of answers denoted, computed without enumerating them.
    pub fn count(&self) -> u64 {
        self.count_node(self.root)
    }

    fn count_node(&self, id: NodeId) -> u64 {
        match &self.nodes[id.0 as usize] {
            Node::Unit { .. } => 1,
            Node::ObjRun(run) => run.len() as u64,
            Node::VarRun { run, .. } => run.len() as u64,
            Node::Union(children) => children.iter().map(|&c| self.count_node(c)).sum(),
            Node::Product(children) => children.iter().map(|&c| self.count_node(c)).product(),
        }
    }

    /// Enumerate the answers lazily, in canonical order, without building
    /// the product: `f` is called with a valuation extending the seed and
    /// the answer object.
    pub fn for_each(&self, f: &mut dyn FnMut(&Bindings, Oid)) {
        self.walk(self.root, &self.seed.clone(), None, f);
    }

    fn walk(&self, id: NodeId, bindings: &Bindings, object: Option<Oid>, f: &mut dyn FnMut(&Bindings, Oid)) {
        match &self.nodes[id.0 as usize] {
            Node::Unit { pairs, object: obj } => {
                let mut b = bindings.clone();
                for (v, o) in pairs {
                    if !b.bind_mut(v, *o) {
                        return; // conflicting extension denotes nothing
                    }
                }
                self.emit(&b, obj.or(object), f);
            }
            Node::ObjRun(run) => {
                for &m in run {
                    self.emit(bindings, Some(m), f);
                }
            }
            Node::VarRun { var, run, is_object } => {
                for &m in run {
                    if let Some(b) = bindings.bind(var, m) {
                        self.emit(&b, if *is_object { Some(m) } else { object }, f);
                    }
                }
            }
            Node::Union(children) => {
                for &c in children {
                    self.walk(c, bindings, object, f);
                }
            }
            Node::Product(children) => self.walk_product(children, bindings, object, f),
        }
    }

    fn walk_product(
        &self,
        children: &[NodeId],
        bindings: &Bindings,
        object: Option<Oid>,
        f: &mut dyn FnMut(&Bindings, Oid),
    ) {
        match children {
            [] => self.emit(bindings, object, f),
            [first, rest @ ..] => {
                // Each element of the first factor extends the valuation
                // (and possibly fixes the object) for the remaining factors.
                match &self.nodes[first.0 as usize] {
                    Node::Unit { pairs, object: obj } => {
                        let mut b = bindings.clone();
                        for (v, o) in pairs {
                            if !b.bind_mut(v, *o) {
                                return;
                            }
                        }
                        self.walk_product(rest, &b, obj.or(object), f);
                    }
                    Node::ObjRun(run) => {
                        for &m in run {
                            self.walk_product(rest, bindings, Some(m), f);
                        }
                    }
                    Node::VarRun { var, run, is_object } => {
                        for &m in run {
                            if let Some(b) = bindings.bind(var, m) {
                                self.walk_product(rest, &b, if *is_object { Some(m) } else { object }, f);
                            }
                        }
                    }
                    Node::Union(inner) => {
                        // Distribute: (A | B) x C enumerates A x C then B x C.
                        for &c in inner {
                            let mut nested = vec![c];
                            nested.extend_from_slice(rest);
                            self.walk_product(&nested, bindings, object, f);
                        }
                    }
                    Node::Product(inner) => {
                        let mut nested = inner.clone();
                        nested.extend_from_slice(rest);
                        self.walk_product(&nested, bindings, object, f);
                    }
                }
            }
        }
    }

    fn emit(&self, bindings: &Bindings, object: Option<Oid>, f: &mut dyn FnMut(&Bindings, Oid)) {
        debug_assert!(object.is_some(), "answer DAG path produced no object");
        if let Some(o) = object {
            f(bindings, o);
        }
    }

    /// Materialize the DAG into exploded [`Answer`] tuples, in enumeration
    /// order.  This is what the factorization avoids; it exists for
    /// equivalence checks and for callers that genuinely need tuples.
    pub fn to_answers(&self) -> Vec<Answer> {
        let mut out = Vec::new();
        self.for_each(&mut |b, o| out.push(Answer::new(b.clone(), o)));
        out
    }
}

/// Answers of a term, factorized when the term has one of the supported
/// product shapes and materialized otherwise.
#[derive(Debug, Clone)]
pub enum FactorizedAnswers {
    /// A factorized DAG sharing fact-table runs.
    Dag(AnswerDag),
    /// The materializing fallback: plain exploded tuples.
    Materialized(Vec<Answer>),
}

impl FactorizedAnswers {
    /// Is this the factorized representation (vs. the fallback)?
    pub fn is_factorized(&self) -> bool {
        matches!(self, FactorizedAnswers::Dag(_))
    }

    /// Size of the representation: DAG nodes, or tuples when materialized.
    pub fn node_count(&self) -> usize {
        match self {
            FactorizedAnswers::Dag(d) => d.node_count(),
            FactorizedAnswers::Materialized(v) => v.len(),
        }
    }

    /// Number of answers denoted.
    pub fn count(&self) -> u64 {
        match self {
            FactorizedAnswers::Dag(d) => d.count(),
            FactorizedAnswers::Materialized(v) => v.len() as u64,
        }
    }

    /// Enumerate the answers in the reference's order without
    /// materializing tuples (for the DAG case; the fallback just iterates).
    pub fn for_each(&self, f: &mut dyn FnMut(&Bindings, Oid)) {
        match self {
            FactorizedAnswers::Dag(d) => d.for_each(f),
            FactorizedAnswers::Materialized(v) => {
                for a in v {
                    f(&a.bindings, a.object);
                }
            }
        }
    }

    /// Explode into answer tuples, in enumeration order.
    pub fn into_answers(self) -> Vec<Answer> {
        match self {
            FactorizedAnswers::Dag(d) => d.to_answers(),
            FactorizedAnswers::Materialized(v) => v,
        }
    }
}

/// Enumerate the answers of `term` extending `seed`, factorized when the
/// term is a supported path shape.
///
/// The factorized result enumerates bit-identically to
/// [`answers`] — same answers, same order — and holds the same multiset of
/// answers as [`Engine::query_term`](crate::engine::Engine::query_term).
pub fn factorized_answers(structure: &Structure, term: &Term, seed: &Bindings) -> Result<FactorizedAnswers> {
    match try_factorize(structure, term, seed) {
        Some(dag) => Ok(FactorizedAnswers::Dag(dag)),
        None => Ok(FactorizedAnswers::Materialized(answers(structure, term, seed)?)),
    }
}

/// Build a DAG for the supported shapes; `None` means "materialize".
///
/// Supported today: argument-free paths `recv.m` / `recv..m` whose method
/// resolves to a ground non-built-in object and whose receiver is either
/// ground (a name or bound variable) or an unbound variable (seeded from
/// the per-method fact index, like the materializing enumerator does).
fn try_factorize(structure: &Structure, term: &Term, seed: &Bindings) -> Option<AnswerDag> {
    let p = match term {
        Term::Path(p) => p,
        Term::Paren(inner) => return try_factorize(structure, inner, seed),
        _ => return None,
    };
    if !p.args.is_empty() {
        return None;
    }
    let method = resolved_method_oid(structure, &p.method, seed)?;
    // Bound-variable receivers resolve like names; a genuinely unbound
    // variable fans out over the per-method index.
    let mut nodes: Vec<Node> = Vec::new();
    let push = |nodes: &mut Vec<Node>, n: Node| -> NodeId {
        nodes.push(n);
        NodeId((nodes.len() - 1) as u32)
    };
    let root = match &p.receiver {
        Term::Var(v) if seed.get(v).is_none() => {
            // Mirror `index_seeded_receivers`: distinct receivers of the
            // method's facts, ascending (BTreeSet order).
            let mut receivers: Vec<Oid> = if p.set_valued {
                structure
                    .facts()
                    .set_facts_of_method(method)
                    .map(|f| f.receiver)
                    .collect()
            } else {
                structure
                    .facts()
                    .scalar_facts_of_method(method)
                    .map(|f| f.receiver)
                    .collect()
            };
            receivers.sort_unstable();
            receivers.dedup();
            let mut arms = Vec::with_capacity(receivers.len());
            for r in receivers {
                if p.set_valued {
                    let Some(run) = structure.apply_set(method, r, &[]) else {
                        continue;
                    };
                    if run.is_empty() {
                        continue;
                    }
                    let unit = push(
                        &mut nodes,
                        Node::Unit {
                            pairs: vec![(v.clone(), r)],
                            object: None,
                        },
                    );
                    let objs = push(&mut nodes, Node::ObjRun(run.clone()));
                    arms.push(push(&mut nodes, Node::Product(vec![unit, objs])));
                } else {
                    let Some(res) = structure.apply_scalar(method, r, &[]) else {
                        continue;
                    };
                    arms.push(push(
                        &mut nodes,
                        Node::Unit {
                            pairs: vec![(v.clone(), r)],
                            object: Some(res),
                        },
                    ));
                }
            }
            push(&mut nodes, Node::Union(arms))
        }
        recv => {
            let r = ground_name_oid(structure, recv, seed)?;
            if p.set_valued {
                let run = structure.apply_set(method, r, &[]).cloned().unwrap_or_default();
                push(&mut nodes, Node::ObjRun(run))
            } else {
                match structure.apply_scalar(method, r, &[]) {
                    Some(res) => push(
                        &mut nodes,
                        Node::Unit {
                            pairs: Vec::new(),
                            object: Some(res),
                        },
                    ),
                    None => push(&mut nodes, Node::Union(Vec::new())),
                }
            }
        }
    };
    Some(AnswerDag {
        seed: seed.clone(),
        nodes,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Name;

    /// A two-level kids tree: `root` has `fanout` kids, each of which has
    /// `fanout` kids of its own.
    fn tree(fanout: usize) -> Structure {
        let mut s = Structure::new();
        let kids = s.atom("kids");
        let root = s.atom("root");
        for i in 0..fanout {
            let c = s.atom(&format!("c{i}"));
            s.assert_set_member(kids, root, &[], c);
            for j in 0..fanout {
                let g = s.atom(&format!("g{i}_{j}"));
                s.assert_set_member(kids, c, &[], g);
            }
        }
        s
    }

    fn o(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&Name::atom(n)).unwrap()
    }

    #[track_caller]
    fn assert_same_enumeration(s: &Structure, t: &Term) {
        let materialized = answers(s, t, &Bindings::new()).unwrap();
        let fact = factorized_answers(s, t, &Bindings::new()).unwrap();
        assert_eq!(fact.count() as usize, materialized.len(), "count for {t}");
        let exploded = fact.into_answers();
        assert_eq!(exploded, materialized, "enumeration order for {t}");
    }

    #[test]
    fn set_path_with_unbound_receiver_is_factorized() {
        let s = tree(4);
        let t = Term::var("X").set("kids");
        let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
        assert!(fact.is_factorized());
        // 5 receivers x 4 members = 20 answers out of 5 * 2 + 1 ~ nodes.
        assert_eq!(fact.count(), 20);
        assert!(fact.node_count() < fact.count() as usize);
        assert_same_enumeration(&s, &t);
    }

    #[test]
    fn factorized_runs_share_the_fact_columns() {
        let s = tree(3);
        let t = Term::name("root").set("kids");
        let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
        let FactorizedAnswers::Dag(dag) = &fact else {
            panic!("expected a DAG")
        };
        let stored = s.apply_set(o(&s, "kids"), o(&s, "root"), &[]).unwrap();
        let shares = dag
            .nodes
            .iter()
            .any(|n| matches!(n, Node::ObjRun(run) if run.as_slice().as_ptr() == stored.as_slice().as_ptr()));
        assert!(shares, "ObjRun must alias the stored column, not copy it");
        assert_same_enumeration(&s, &t);
    }

    #[test]
    fn scalar_paths_and_ground_receivers() {
        let mut s = tree(2);
        let age = s.atom("age");
        let c0 = o(&s, "c0");
        let root = o(&s, "root");
        let seven = s.int(7);
        let nine = s.int(9);
        s.assert_scalar(age, c0, &[], seven).unwrap();
        s.assert_scalar(age, root, &[], nine).unwrap();
        for t in [
            Term::var("X").scalar("age"),
            Term::name("c0").scalar("age"),
            Term::name("g0_0").scalar("age"), // undefined application
            Term::name("g0_0").set("kids"),   // empty set application
        ] {
            let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
            assert!(fact.is_factorized(), "expected DAG for {t}");
            assert_same_enumeration(&s, &t);
        }
    }

    #[test]
    fn bound_variable_receiver_resolves_like_a_name() {
        let s = tree(3);
        let seed = Bindings::from_pairs([(Var::new("X"), o(&s, "c1"))]).unwrap();
        let t = Term::var("X").set("kids");
        let fact = factorized_answers(&s, &t, &seed).unwrap();
        assert!(fact.is_factorized());
        assert_eq!(fact.count(), 3);
        let materialized = answers(&s, &t, &seed).unwrap();
        assert_eq!(fact.into_answers(), materialized);
    }

    #[test]
    fn unsupported_shapes_fall_back_to_materialized() {
        let s = tree(2);
        for t in [
            Term::var("X").isa("root"),                                 // not a path
            Term::var("X").set("kids").set("kids"),                     // nested path receiver
            Term::name("root").scalar_args("kids", vec![Term::int(1)]), // args
            Term::var("X").set(Term::var("M")),                         // unresolved method
        ] {
            let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
            assert!(!fact.is_factorized(), "expected fallback for {t}");
            let materialized = answers(&s, &t, &Bindings::new()).unwrap();
            assert_eq!(fact.into_answers(), materialized);
        }
    }

    #[test]
    fn node_count_grows_with_receivers_not_answers() {
        // Same receiver count, growing member runs: node_count stays flat
        // while count grows linearly — the factorization is sub-linear in
        // the answer-set size.
        let mut last_nodes = None;
        for fanout in [4, 8, 16] {
            let s = tree(fanout);
            let t = Term::var("X").set("kids");
            let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
            assert_eq!(fact.count() as usize, (fanout + 1) * fanout);
            let per_receiver = fact.node_count() / (fanout + 1);
            if let Some(prev) = last_nodes {
                assert_eq!(per_receiver, prev, "nodes per receiver must not grow with fanout");
            }
            last_nodes = Some(per_receiver);
        }
    }

    #[test]
    fn lazy_for_each_never_materializes() {
        let s = tree(8);
        let t = Term::var("X").set("kids");
        let fact = factorized_answers(&s, &t, &Bindings::new()).unwrap();
        let mut n = 0u64;
        fact.for_each(&mut |b, obj| {
            assert!(b.get(&Var::new("X")).is_some());
            assert!(s.lookup_name(&Name::atom("root")) != Some(obj), "root is nobody's kid");
            n += 1;
        });
        assert_eq!(n, fact.count());
    }
}
