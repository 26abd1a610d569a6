//! The sorted-run half of the commit protocol: what one solve task returns
//! and how the commit step merges it.
//!
//! An iteration of the fixpoint plans a list of *solve tasks* — one full
//! body solve per rule on the first iteration of a stratum, one
//! `(rule, drivable literal)` delta pass per affected rule afterwards (see
//! [`SolveTask`]) — and runs them in order against the structure as it
//! stands at the iteration boundary ([`run_task`]).  Tasks only read; their
//! outputs are committed afterwards.
//!
//! **Sorted runs.**  Each delta task returns its solutions as a *sorted run*
//! — deduplicated and ordered by the canonical, valuation-order independent
//! [`BindingKey`].  A rule with several drivable literals yields several
//! runs, which the commit step k-way-merges ([`merge_sorted_runs`]): the
//! per-element min is found by a linear scan over the run heads (the run
//! count — the rule's drivable literals — is a handful at most, where a
//! heap's constant factors would not pay).  The merged list is a function of
//! the *union* of the runs only, so the order in which a pass enumerates
//! solutions never reaches the structure.  Full solves skip the sort: they
//! are one task per rule whose enumeration order is already deterministic
//! (every index iterates an ordered container), and that order is the
//! oracle's commit order.

use crate::error::Result;
use crate::plan::IterationPlans;
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

/// A locally sorted, deduplicated sequence of keyed solutions — the output
/// of one delta task, ready for the k-way merge.
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

/// K-way-merge canonically sorted runs into one deduplicated solution list
/// in [`BindingKey`] order.  Duplicate keys across runs collapse to the
/// first occurrence (all of them denote the same valuation).  This is the
/// commit step's merge point: the merged list is a function of the *union*
/// of the runs only, so any split of the same answer set — one run per
/// drivable literal, or one big run — commits the same solutions in the same
/// order.
pub fn merge_sorted_runs(runs: Vec<SortedRun>) -> Vec<Bindings> {
    let mut runs: Vec<SortedRun> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    match runs.len() {
        0 => Vec::new(),
        1 => runs.pop().expect("one run").into_iter().map(|(_, b)| b).collect(),
        _ => {
            let mut cursor = vec![0usize; runs.len()];
            let mut out: Vec<Bindings> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
            let mut last: Option<BindingKey> = None;
            loop {
                let mut min: Option<usize> = None;
                for (i, run) in runs.iter().enumerate() {
                    if cursor[i] < run.len() && min.is_none_or(|j| run[cursor[i]].0 < runs[j][cursor[j]].0) {
                        min = Some(i);
                    }
                }
                let Some(i) = min else { break };
                let slot = &mut runs[i][cursor[i]];
                let (key, b) = std::mem::replace(slot, (Vec::new(), Bindings::new()));
                cursor[i] += 1;
                if last.as_ref() != Some(&key) {
                    out.push(b);
                    last = Some(key);
                }
            }
            out
        }
    }
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

/// The result of one task.
#[derive(Debug)]
pub(super) enum SolveOutput {
    /// A full solve's buffer in its (deterministic) enumeration order —
    /// deliberately unsorted, see the module docs.
    Enumerated(Vec<Bindings>),
    /// A delta pass's locally sorted, deduplicated run.
    Sorted(SortedRun),
    /// A compiled delta pass's raw slot frames in canonical key order, for
    /// rules whose compiled head commits without `Bindings` or keys.
    Frames(crate::plan::FrameRun),
}

/// Solve `task` against `structure`.  A delta pass runs through the compiled
/// body and this iteration's pass order ([`crate::plan`]) over the
/// iteration's window, both in `delta`; a full solve runs written-order
/// through [`super::solve_body`], since its enumeration order is the commit
/// order.
pub(super) fn run_task(
    structure: &Structure,
    rules: &[&Rule],
    delta: Option<(&IterationPlans, &DeltaView)>,
    task: SolveTask,
) -> Result<SolveOutput> {
    let body = &rules[task.rule].body;
    match task.delta {
        None => super::solve_body(structure, body, &Bindings::new()).map(SolveOutput::Enumerated),
        Some(lit) => {
            let (plans, dv) = delta.expect("a delta task runs in an iteration that has a window");
            let (compiled, order) = plans.for_rule(task.rule);
            Ok(
                match crate::plan::execute_delta(structure, body, compiled, order, lit, dv)? {
                    crate::plan::PassRun::Sorted(run) => SolveOutput::Sorted(run),
                    crate::plan::PassRun::Frames(fr) => SolveOutput::Frames(fr),
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Var;
    use crate::structure::Oid;

    fn keyed(pairs: &[(&str, u32)]) -> (BindingKey, Bindings) {
        let bindings = Bindings::from_pairs(pairs.iter().map(|&(v, o)| (Var::new(v), Oid(o)))).unwrap();
        (binding_key(&bindings), bindings)
    }

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

    #[test]
    fn merge_sorted_runs_is_a_canonical_union() {
        let (k1, b1) = keyed(&[("X", 1), ("Y", 2)]);
        let (k2, b2) = keyed(&[("X", 2), ("Y", 1)]);
        let (k3, b3) = keyed(&[("X", 3), ("Y", 3)]);
        // k2 appears in both runs; the merge must emit it once.
        let merged = merge_sorted_runs(vec![
            vec![(k1.clone(), b1), (k2.clone(), b2.clone())],
            vec![(k2, b2), (k3, b3)],
        ]);
        assert_eq!(merged.len(), 3);
        let xs: Vec<Option<Oid>> = merged.iter().map(|b| b.get(&Var::new("X"))).collect();
        assert_eq!(xs, vec![Some(Oid(1)), Some(Oid(2)), Some(Oid(3))]);
        // Merging the same answers as one big run yields the same list.
        let (k1, b1) = keyed(&[("X", 1), ("Y", 2)]);
        let (k2, b2) = keyed(&[("X", 2), ("Y", 1)]);
        let (k3, b3) = keyed(&[("X", 3), ("Y", 3)]);
        let single = merge_sorted_runs(vec![vec![(k1, b1), (k2, b2), (k3, b3)]]);
        let xs1: Vec<Option<Oid>> = single.iter().map(|b| b.get(&Var::new("X"))).collect();
        assert_eq!(
            xs, xs1,
            "how the answers are split into runs must not change the committed order"
        );
        assert!(merge_sorted_runs(vec![]).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]]).is_empty());
    }
}
