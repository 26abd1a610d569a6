//! What one solve task is and returns, and the canonical order of solutions.
//!
//! An iteration of the fixpoint plans a list of *solve tasks* — one full
//! body solve per rule on the first iteration of a stratum, one
//! `(rule, drivable literal)` delta pass per affected rule afterwards (see
//! [`SolveTask`]) — and runs them in order against the structure as it
//! stands at the iteration boundary ([`run_task`]).  Tasks only read; their
//! outputs are committed afterwards.
//!
//! **Canonical order.**  The [`BindingKey`] of a solution — its bound
//! `(variable, object)` pairs in sorted order — is valuation-order
//! independent, so ordering solutions by it makes the order in which a
//! caller acts on them a function of the structure's content alone.  Every
//! task's output is in exactly that order, and the commit step acts on it in
//! that order: the order in which a solve *enumerates* solutions never
//! reaches the structure, and every configuration mints virtual objects in
//! one order.
//!
//! * A delta pass and the engine's full solve run through the rule's one
//!   compiled body ([`crate::plan`]) and return slot frames in canonical order
//!   ([`crate::plan::FrameRun`]; every frame binds every positive variable,
//!   so key order is the object-id sequence in variable-name order); the
//!   commit step merges a rule's runs in it
//!   ([`crate::plan::merge_frame_runs`]).
//! * The naive oracle's full solve runs written-order through
//!   [`solve_body`](super::solve_body) and sorts its solutions by key
//!   ([`sorted_run`]), so that engine ≡ oracle holds byte for byte.
//!
//! Queries, the constraint checker and the production engine take their
//! solutions as frames.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::plan::{BodyPlan, CompiledRule, FrameRun};
use crate::program::Rule;
use crate::semantics::{Bindings, DeltaView};
use crate::structure::Structure;

/// A canonical, valuation-order independent key for a set of bindings:
/// the bound `(variable, object)` pairs in sorted order.  Two bindings with
/// equal keys denote the same valuation, so the key both deduplicates and
/// totally orders rule-body solutions — the order in which the engine
/// asserts them, and with that the order in which virtual objects are
/// allocated, in every configuration.
pub type BindingKey = Vec<(std::sync::Arc<str>, u32)>;

/// A canonically sorted, deduplicated sequence of keyed solutions — what
/// the naive oracle's full solves commit.
pub type SortedRun = Vec<(BindingKey, Bindings)>;

/// The canonical key of `b` (see [`BindingKey`]).
pub fn binding_key(b: &Bindings) -> BindingKey {
    let mut key: BindingKey = b.iter().map(|(v, o)| (v.0.clone(), o.0)).collect();
    key.sort();
    key
}

/// Sort `solutions` into a canonical [`SortedRun`], dropping duplicate
/// valuations (first occurrence wins).
pub fn sorted_run(solutions: Vec<Bindings>) -> SortedRun {
    let mut run: SortedRun = solutions.into_iter().map(|b| (binding_key(&b), b)).collect();
    run.sort_by(|a, b| a.0.cmp(&b.0));
    run.dedup_by(|a, b| a.0 == b.0);
    run
}

/// One unit of solve work: a rule body solved in full (`delta: None`), or
/// with one body literal restricted to the iteration's delta view
/// (`delta: Some(literal index)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SolveTask {
    /// Index of the rule (into the run's rule slice) whose body this task
    /// solves.
    pub(super) rule: usize,
    /// `None` for a full solve; `Some(l)` for a delta pass with positive
    /// body literal `l` restricted to the iteration's window.
    pub(super) delta: Option<usize>,
}

/// The result of one task, in canonical key order.
#[derive(Debug)]
pub(super) enum SolveOutput {
    /// The naive oracle's full solve: the [`solve_body`](super::solve_body)
    /// solutions, sorted.
    Sorted(SortedRun),
    /// A full solve's or a delta pass's frames, over the rule's compiled
    /// body.
    Frames(FrameRun),
}

/// Solve `task` against `structure`, through the rule's body in `compiled`
/// ([`crate::plan`]): a full solve in the order the structure's live index
/// cardinalities suggest ([`crate::plan::execute_query`]), a delta pass by
/// its rule's plan for the iteration over the iteration's window, both in
/// `delta`.  The naive oracle (`delta_driven: false`) compiles nothing, and
/// solves written-order through [`super::solve_body`].
pub(super) fn run_task(
    structure: &Structure,
    rules: &[&Rule],
    compiled: &BTreeMap<usize, CompiledRule>,
    delta: Option<(&BTreeMap<usize, BodyPlan>, &DeltaView)>,
    task: SolveTask,
) -> Result<SolveOutput> {
    let Some(body) = compiled.get(&task.rule) else {
        let solutions = super::solve_body(structure, &rules[task.rule].body, &Bindings::new())?;
        return Ok(SolveOutput::Sorted(sorted_run(solutions)));
    };
    let run = match task.delta {
        None => crate::plan::execute_query(structure, body)?,
        Some(lit) => {
            let (plans, dv) = delta.expect("a delta task runs in an iteration that has a window");
            crate::plan::execute_delta(structure, body, &plans[&task.rule], lit, dv)?
        }
    };
    Ok(SolveOutput::Frames(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Var;
    use crate::structure::Oid;

    #[test]
    fn sorted_run_orders_and_deduplicates() {
        let (x, y) = (Var::new("X"), Var::new("Y"));
        let b1 = Bindings::from_pairs([(x.clone(), Oid(3)), (y.clone(), Oid(1))]).unwrap();
        let b2 = Bindings::from_pairs([(x.clone(), Oid(1)), (y.clone(), Oid(2))]).unwrap();
        // Same valuation as b2, bound in the opposite order.
        let b2_rev = Bindings::from_pairs([(y, Oid(2)), (x.clone(), Oid(1))]).unwrap();
        let run = sorted_run(vec![b1, b2, b2_rev]);
        assert_eq!(run.len(), 2, "order-independent duplicates collapse");
        assert!(run[0].0 < run[1].0, "ascending key order");
        assert_eq!(run[0].1.get(&x), Some(Oid(1)));
    }
}
