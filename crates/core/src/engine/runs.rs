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
//! task returns slot frames of the rule's one compiled body
//! ([`crate::plan::FrameRun`]) in that order, and the commit step merges a
//! rule's runs in it ([`crate::plan::merge_frame_runs`]): the order in which
//! a solve *enumerates* solutions never reaches the structure.  The
//! reference [`fixpoint`](crate::semantics::fixpoint) sorts its
//! written-order solutions by key, and so mints under the engine's ids.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::plan::{BodyPlan, CompiledRule, FrameRun};
use crate::semantics::{Bindings, DeltaView};
use crate::structure::Structure;

/// A canonical, valuation-order independent key for a set of bindings:
/// the bound `(variable, object)` pairs in sorted order.  Two bindings with
/// equal keys denote the same valuation, so the key both deduplicates and
/// totally orders rule-body solutions — the order in which the engine
/// asserts them, and with that the order in which virtual objects are
/// allocated.
pub type BindingKey = Vec<(std::sync::Arc<str>, u32)>;

/// The canonical key of `b` (see [`BindingKey`]).
pub fn binding_key(b: &Bindings) -> BindingKey {
    let mut key: BindingKey = b.iter().map(|(v, o)| (v.0.clone(), o.0)).collect();
    key.sort();
    key
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

/// Solve `task` against `structure`, through the rule's body in `compiled`
/// ([`crate::plan`]): a full solve in the order the structure's live index
/// cardinalities suggest ([`crate::plan::execute_query`]), a delta pass by
/// its rule's plan for the iteration over the iteration's window, both in
/// `delta`.  The frames come in canonical key order.
pub(super) fn run_task(
    structure: &Structure,
    compiled: &BTreeMap<usize, CompiledRule>,
    delta: Option<(&BTreeMap<usize, BodyPlan>, &DeltaView)>,
    task: SolveTask,
) -> Result<FrameRun> {
    let body = &compiled[&task.rule];
    match task.delta {
        None => crate::plan::execute_query(structure, body),
        Some(lit) => {
            let (plans, dv) = delta.expect("a delta task runs in an iteration that has a window");
            crate::plan::execute_delta(structure, body, &plans[&task.rule], lit, dv)
        }
    }
}
