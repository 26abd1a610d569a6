//! Cost-based join planning and the compiled rule-body IR: the evaluator of
//! every delta pass.
//!
//! A stratum's first iteration solves each rule body in full, in written
//! order ([`solve_body`](crate::engine::solve_body)): the enumeration order
//! of a full solve is its commit order, which written-order evaluation pins.
//! Every later iteration runs per-literal semi-naive *delta passes*, and
//! those run here — the engine has no other delta-pass evaluator.
//!
//! * **Compilation.**  [`compile`] lowers a rule body once into a
//!   [`CompiledRule`]: every body variable gets a fixed *slot* index, and
//!   each join state carries a flat `Vec<u32>` frame (slot → object id + 1,
//!   `0` = unbound).  Stage deduplication sorts the flat frames — two `u32`
//!   words per variable, no `Arc<str>` clones, no per-answer key — and the
//!   canonical [`BindingKey`] of a surviving solution is materialized
//!   exactly once at the end, from the frame, through a pre-computed
//!   name-sorted slot permutation.  Literals of the dominant shapes carry a
//!   pre-resolved [`Access`] path and are enumerated straight off the
//!   fact-store indexes; the rest go through [`answers()`] /
//!   [`delta_answers`] ([`Access::Generic`]).  Compilation is total: every
//!   valid rule body has a compiled form.
//!
//! * **Planning.**  [`pass_order`] reorders a rule's positive literals by
//!   estimated cost, consuming the [`RulePlanReport`] annotations the
//!   analysis subsystem derives from live
//!   [`MethodStats`](crate::analysis::MethodStats) rather than re-deriving
//!   them.  Delta-drivable literals cost `min(static estimate, delta entry
//!   count)`, so a small delta seeds the join; when an index-backed literal
//!   is estimated *below* the delta cardinality the planner seeds from it
//!   instead (a *seed flip*, counted in
//!   [`EvalStats::seed_flips`](crate::engine::EvalStats)).  After the seed,
//!   literals sharing a bound variable are preferred over disconnected ones
//!   (no accidental cross products), and built-in guards are hoisted to the
//!   earliest position where all their variables are bound — never earlier.
//!   Orders are recomputed per stratum iteration as the stats evolve
//!   ([`EvalStats::replans`](crate::engine::EvalStats)).  A body in which a
//!   built-in guard *enumerates* — some variable of it is not bound by the
//!   positive literals written before it, as `B` in `A : person, A[lt -> B],
//!   B : person` — keeps its written order (see [`compile`]).
//!
//! **Why reordering is invisible.**  A delta pass's output always flows
//! through the sorted-run protocol (`sorted_run` / `merge_sorted_runs`), so
//! the order in which a pass *enumerates* solutions cannot influence the
//! order in which the engine commits them — not the structure, not
//! the insertion logs, not virtual-object allocation.  That keeps the
//! project's core invariant — a run is `canonical_dump()`-bit-identical to
//! the naive oracle (`delta_driven: false`) — true *by construction*; the
//! `properties_planner` proptests assert it.
//!
//! Completeness of reordered delta passes follows from the same argument as
//! written-order semi-naive evaluation, applied to the planned order: all of
//! a rule's passes share one iteration order, so for any solution whose
//! derivation reads the window there is an *earliest* planned position whose
//! literal does — every position before it joins delta-free and is found by
//! full enumeration, and the pass restricting that literal recovers the
//! delta-reading extension (new-object channels included: the first binding
//! position of a variable is always at-or-before any later use, so the
//! variable is still unbound when the restricted literal enumerates the
//! window's new objects).

use std::collections::{BTreeMap, HashSet};

use crate::analysis::{AccessPath, RulePlanReport};
use crate::engine::{BindingKey, SortedRun};
use crate::error::Result;
use crate::names::{Name, Var};
use crate::program::{Literal, Rule};
use crate::semantics::{answers, delta_answers, Bindings, DeltaView};
use crate::structure::{Oid, Structure};
use crate::term::{FilterValue, Term};

/// A pre-resolved `(method, receiver)` access path for frame-native
/// enumeration of the dominant literal shapes.  Compiled stages read the
/// fact-store indexes and write slot frames directly — no per-candidate
/// [`Bindings`] cons cells, no [`Answer`](crate::semantics::Answer)
/// allocation — until the first stage without a supported shape, which (with
/// every stage after it) goes through [`answers()`] / [`delta_answers`].
///
/// Soundness/completeness contract: a frame-native delta stage may
/// *over-approximate* the [`delta_answers`] restriction (re-deriving a
/// solution whose derivation does not read the window is an idempotent
/// no-op under the sorted-run merge and the idempotent commit), but it must
/// emit **every** solution whose derivation does, and **only** true
/// solutions of the literal against the full structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// No supported shape — this stage (and the rest of the pass) runs
    /// through [`answers()`] / [`delta_answers`].
    Generic,
    /// `R[m ->> {M}]`: variable receiver, name method, no arguments, one
    /// explicit variable member.
    SetMember {
        /// The method name.
        method: Name,
        /// Receiver slot.
        receiver: usize,
        /// Member slot.
        member: usize,
    },
    /// `O..p[f ->> {M}]`: a set-valued path from a variable origin through a
    /// name method, filtered by one explicit-member set filter.
    PathSetMember {
        /// The path method name (`p`).
        path: Name,
        /// Origin slot (`O`).
        origin: usize,
        /// The filter method name (`f`).
        filter: Name,
        /// Member slot (`M`).
        member: usize,
    },
    /// `V : c`: variable instance of a named class.
    IsaInstance {
        /// The class name.
        class: Name,
        /// Instance slot.
        instance: usize,
    },
}

/// One positive body literal of a [`CompiledRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLiteral {
    /// Index of the literal in the rule body.
    pub body_index: usize,
    /// Slots of the variables occurring in the literal.
    pub slots: Vec<usize>,
    /// `true` for built-in guards (comparisons / `self`), which are hoisted
    /// rather than cost-ordered.
    pub builtin: bool,
    /// Estimated stored-fact cost from the [`RulePlanReport`] annotation
    /// (`usize::MAX` when unknown — e.g. a derived-only literal).
    pub cost: usize,
    /// The pre-resolved access path for frame-native enumeration.
    pub access: Access,
}

/// A pre-resolved head access path for the dominant recursive head shape
/// `X[m ->> {Y}]` (a variable receiver, one explicit set filter with a name
/// method and a single variable member).  The commit loop resolves the
/// method name to an oid once per rule batch and asserts set members
/// directly, skipping the generic head-term walk of `assert_head` — with
/// effect counters identical by construction (this shape can never create
/// virtual objects, scalar facts, is-a edges or signatures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledHead {
    /// The head method name (resolved to an oid at commit time).
    pub method: Name,
    /// The variable the receiver is bound to.
    pub receiver: Var,
    /// The variable the inserted set member is bound to.
    pub member: Var,
    /// The receiver variable's body slot.
    pub receiver_slot: usize,
    /// The member variable's body slot.
    pub member_slot: usize,
}

/// A rule body lowered to the slot-addressed form: fixed slot indices for
/// every body variable, per-literal slot lists and cost annotations, and the
/// name-sorted slot permutation that materializes canonical binding keys
/// without a per-solution sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// Slot `i` holds the binding of `vars[i]`.
    vars: Vec<Var>,
    /// Slot indices in variable-name order — [`BindingKey`] materialization
    /// order.
    canonical: Vec<usize>,
    /// The positive literals, in body order.
    positives: Vec<CompiledLiteral>,
    /// Body indices of the negated literals, in body order.
    negations: Vec<usize>,
    /// The head fast path, when the head has the supported shape.
    head: Option<CompiledHead>,
    /// `true` when a built-in guard enumerates (see [`compile`]):
    /// [`pass_order`] then keeps the written order.
    written_order: bool,
}

impl CompiledRule {
    /// Number of variable slots.
    pub fn slot_count(&self) -> usize {
        self.vars.len()
    }

    /// The variable held by slot `i`.
    pub fn slot_var(&self, i: usize) -> &Var {
        &self.vars[i]
    }

    /// The slot of `var`, if it occurs in the body.  Bodies bind a handful
    /// of variables, so a linear scan beats hashing.
    pub fn slot_of(&self, var: &Var) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The compiled positive literals, in body order.
    pub fn positives(&self) -> &[CompiledLiteral] {
        &self.positives
    }

    /// Body indices of the negated literals.
    pub fn negations(&self) -> &[usize] {
        &self.negations
    }

    /// The compiled head fast path, when the head shape supports one.
    pub fn head(&self) -> Option<&CompiledHead> {
        self.head.as_ref()
    }

    /// Slot indices in variable-name order — the canonical key projection.
    pub fn canonical(&self) -> &[usize] {
        &self.canonical
    }

    /// The canonical [`BindingKey`] of a slot frame: `(name, oid)` pairs in
    /// name-sorted order, unbound slots skipped.  Identical to
    /// [`binding_key`](crate::engine::binding_key) of the corresponding
    /// [`Bindings`], computed without sorting per solution.
    fn key_of(&self, frame: &[u32]) -> BindingKey {
        self.canonical
            .iter()
            .filter_map(|&s| {
                let v = frame[s];
                (v != 0).then(|| (self.vars[s].0.clone(), v - 1))
            })
            .collect()
    }

    /// Materialize the [`Bindings`] of a slot frame (bound slots only).
    fn bindings_of(&self, frame: &[u32]) -> Bindings {
        let mut b = Bindings::new();
        for (s, &v) in frame.iter().enumerate() {
            if v != 0 {
                b = b
                    .bind(&self.vars[s], crate::structure::Oid(v - 1))
                    .expect("distinct slot variables cannot conflict");
            }
        }
        b
    }
}

/// Lower `rule`'s body into slot-addressed form, consuming the cost
/// annotations of `report` (one [`LiteralPlan`](crate::analysis::LiteralPlan)
/// per body literal, as produced by [`crate::analysis::plan_rule`]).
///
/// A built-in guard whose variables are not all bound by *preceding*
/// positive non-builtin literals in written order enumerates rather than
/// filters, and moving it is not semantics-preserving against written-order
/// evaluation: such a body compiles with its written order pinned — every
/// [`pass_order`] of it is the written order.
pub fn compile(rule: &Rule, report: &RulePlanReport) -> CompiledRule {
    let mut vars: Vec<Var> = Vec::new();
    let slots_of = |term: &Term, vars: &mut Vec<Var>| -> Vec<usize> {
        let mut slots: Vec<usize> = Vec::new();
        term.visit(&mut |t| {
            if let Term::Var(v) = t {
                let slot = match vars.iter().position(|w| w == v) {
                    Some(s) => s,
                    None => {
                        vars.push(v.clone());
                        vars.len() - 1
                    }
                };
                if !slots.contains(&slot) {
                    slots.push(slot);
                }
            }
        });
        slots
    };

    let mut positives = Vec::new();
    let mut negations = Vec::new();
    let mut bound: HashSet<usize> = HashSet::new();
    let mut written_order = false;
    for (i, lit) in rule.body.iter().enumerate() {
        let slots = slots_of(&lit.term, &mut vars);
        if !lit.positive {
            negations.push(i);
            continue;
        }
        let plan = &report.literals[i];
        let builtin = plan.access == AccessPath::Builtin;
        if builtin {
            written_order |= !slots.iter().all(|s| bound.contains(s));
        } else {
            bound.extend(slots.iter().copied());
        }
        let cost = plan.estimated_facts.unwrap_or(usize::MAX);
        let access = if builtin {
            Access::Generic
        } else {
            compile_access(&lit.term, &vars)
        };
        positives.push(CompiledLiteral {
            body_index: i,
            slots,
            builtin,
            cost,
            access,
        });
    }

    let mut canonical: Vec<usize> = (0..vars.len()).collect();
    canonical.sort_by(|&a, &b| vars[a].0.cmp(&vars[b].0));
    let head = compile_head(&rule.head, &vars);
    CompiledRule {
        vars,
        canonical,
        positives,
        negations,
        head,
        written_order,
    }
}

/// Recognise a literal's pre-resolvable access path (see [`Access`]).
fn compile_access(term: &Term, vars: &[Var]) -> Access {
    let slot = |v: &Var| vars.iter().position(|w| w == v);
    match term {
        Term::IsA(i) => {
            if let (Term::Var(v), Term::Name(c)) = (&i.receiver, &i.class) {
                if let Some(instance) = slot(v) {
                    return Access::IsaInstance {
                        class: c.clone(),
                        instance,
                    };
                }
            }
            Access::Generic
        }
        Term::Molecule(m) => {
            let [f] = m.filters.as_slice() else {
                return Access::Generic;
            };
            let (Term::Name(fm), [], FilterValue::SetExplicit(values)) = (&f.method, f.args.as_slice(), &f.value)
            else {
                return Access::Generic;
            };
            let [Term::Var(mv)] = values.as_slice() else {
                return Access::Generic;
            };
            let Some(member) = slot(mv) else {
                return Access::Generic;
            };
            match &m.receiver {
                Term::Var(rv) => match slot(rv) {
                    Some(receiver) => Access::SetMember {
                        method: fm.clone(),
                        receiver,
                        member,
                    },
                    None => Access::Generic,
                },
                Term::Path(p) if p.set_valued && p.args.is_empty() => {
                    let (Term::Var(ov), Term::Name(pm)) = (&p.receiver, &p.method) else {
                        return Access::Generic;
                    };
                    match slot(ov) {
                        Some(origin) => Access::PathSetMember {
                            path: pm.clone(),
                            origin,
                            filter: fm.clone(),
                            member,
                        },
                        None => Access::Generic,
                    }
                }
                _ => Access::Generic,
            }
        }
        _ => Access::Generic,
    }
}

/// Recognise the `X[m ->> {Y}]` head shape for the commit fast path.  Both
/// head variables must hold body slots (range restriction); anything else
/// keeps the generic `assert_head` walk.
fn compile_head(head: &Term, vars: &[Var]) -> Option<CompiledHead> {
    let Term::Molecule(m) = head else { return None };
    let (Term::Var(receiver), [f]) = (&m.receiver, m.filters.as_slice()) else {
        return None;
    };
    let (Term::Name(method), [], FilterValue::SetExplicit(values)) = (&f.method, f.args.as_slice(), &f.value) else {
        return None;
    };
    let [Term::Var(member)] = values.as_slice() else {
        return None;
    };
    let receiver_slot = vars.iter().position(|v| v == receiver)?;
    let member_slot = vars.iter().position(|v| v == member)?;
    Some(CompiledHead {
        method: method.clone(),
        receiver: receiver.clone(),
        member: member.clone(),
        receiver_slot,
        member_slot,
    })
}

/// The execution order of one iteration's delta passes over a compiled rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOrder {
    /// Body indices of the positive literals, in execution order.
    pub positions: Vec<usize>,
    /// `false` when the planner put a literal cheaper than the delta ahead
    /// of every delta-drivable literal — a *seed flip*.
    pub seeded_from_delta: bool,
}

/// Order a compiled rule's positive literals for the current iteration.
///
/// `drivable` are the body indices the iteration window can drive (the
/// engine's `delta_literals` selection) and `delta_entries` the window's
/// entry count; a drivable literal costs `min(static estimate,
/// delta_entries)`.  The order is greedy: cheapest literal first, then
/// repeatedly the cheapest literal *connected* to the bound variables (ties
/// broken by body position; disconnected literals only when nothing
/// connected remains), with built-in guards emitted at the earliest position
/// where all their variables are bound.  One order is computed per rule per
/// iteration and shared by all of the rule's passes — the completeness
/// argument in the module docs relies on that.  A body compiled with its
/// written order pinned gets exactly that order, whatever the costs; that is
/// no decision of the planner, so it is never reported as a seed flip.
pub fn pass_order(compiled: &CompiledRule, drivable: &[usize], delta_entries: usize) -> PassOrder {
    if compiled.written_order {
        return PassOrder {
            positions: compiled.positives.iter().map(|l| l.body_index).collect(),
            seeded_from_delta: true,
        };
    }
    let mut remaining: Vec<&CompiledLiteral> = compiled.positives.iter().filter(|l| !l.builtin).collect();
    let mut builtins: Vec<&CompiledLiteral> = compiled.positives.iter().filter(|l| l.builtin).collect();
    let eff = |l: &CompiledLiteral| {
        if drivable.contains(&l.body_index) {
            l.cost.min(delta_entries)
        } else {
            l.cost
        }
    };
    let mut positions = Vec::with_capacity(compiled.positives.len());
    let mut bound: HashSet<usize> = HashSet::new();
    let flush_builtins = |bound: &HashSet<usize>, positions: &mut Vec<usize>, builtins: &mut Vec<&CompiledLiteral>| {
        builtins.retain(|b| {
            if b.slots.iter().all(|s| bound.contains(s)) {
                positions.push(b.body_index);
                false
            } else {
                true
            }
        });
    };
    while !remaining.is_empty() {
        flush_builtins(&bound, &mut positions, &mut builtins);
        let connected =
            |l: &CompiledLiteral| bound.is_empty() || l.slots.is_empty() || l.slots.iter().any(|s| bound.contains(s));
        let next = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (!connected(l), eff(l), l.body_index))
            .map(|(i, _)| i)
            .expect("remaining is non-empty");
        let lit = remaining.remove(next);
        bound.extend(lit.slots.iter().copied());
        positions.push(lit.body_index);
    }
    flush_builtins(&bound, &mut positions, &mut builtins);
    // Guards whose variables are never bound cannot occur: `compile` pins
    // the written order of any body where it leaves one unbound, and the
    // planned order binds the same variable set.
    debug_assert!(builtins.is_empty(), "unbound builtin guard survived planning");
    positions.extend(builtins.iter().map(|b| b.body_index));
    let seeded_from_delta = positions.first().is_some_and(|j| drivable.contains(j));
    PassOrder {
        positions,
        seeded_from_delta,
    }
}

/// The compiled plans one iteration's delta tasks run through: the stratum's
/// compiled bodies by rule index (compiled once, borrowed by every iteration
/// until a re-plan) and the iteration's pass order for every rule it
/// scheduled.
#[derive(Debug)]
pub struct IterationPlans<'a> {
    /// The compiled bodies of the stratum's rules, by index into the run's
    /// rule slice.
    pub compiled: &'a BTreeMap<usize, CompiledRule>,
    /// This iteration's execution order per scheduled rule.
    pub orders: BTreeMap<usize, PassOrder>,
}

impl IterationPlans<'_> {
    /// The compiled body and iteration order of `rule`.
    ///
    /// # Panics
    /// When the iteration did not schedule `rule` — delta tasks and frame
    /// commits exist only for scheduled rules.
    pub fn for_rule(&self, rule: usize) -> (&CompiledRule, &PassOrder) {
        (&self.compiled[&rule], &self.orders[&rule])
    }
}

/// An [`Access`] with its names resolved to object ids against a concrete
/// structure, once per pass.  A non-generic access whose name the structure
/// does not know denotes nothing — the literal can have no stored facts and
/// no delta entries, so the pass is empty (`resolve_access` returns `Err`).
enum ResolvedAccess {
    SetMember {
        method: Oid,
        receiver: usize,
        member: usize,
    },
    PathSetMember {
        path: Oid,
        origin: usize,
        filter: Oid,
        member: usize,
    },
    IsaInstance {
        class: Oid,
        instance: usize,
    },
}

/// Resolve `access` against `structure`: `Ok(None)` = generic stage,
/// `Ok(Some(op))` = frame-native stage, `Err(())` = a name is unknown and
/// the stage (hence the pass) has no solutions.
#[allow(clippy::result_unit_err)]
fn resolve_access(structure: &Structure, access: &Access) -> std::result::Result<Option<ResolvedAccess>, ()> {
    let oid = |n: &Name| structure.lookup_name(n).ok_or(());
    match access {
        Access::Generic => Ok(None),
        Access::SetMember {
            method,
            receiver,
            member,
        } => Ok(Some(ResolvedAccess::SetMember {
            method: oid(method)?,
            receiver: *receiver,
            member: *member,
        })),
        Access::PathSetMember {
            path,
            origin,
            filter,
            member,
        } => Ok(Some(ResolvedAccess::PathSetMember {
            path: oid(path)?,
            origin: *origin,
            filter: oid(filter)?,
            member: *member,
        })),
        Access::IsaInstance { class, instance } => Ok(Some(ResolvedAccess::IsaInstance {
            class: oid(class)?,
            instance: *instance,
        })),
    }
}

/// Enumerate one frame-native stage against the full structure.  `emit`
/// receives the slot assignments of one candidate; the caller rejects
/// assignments conflicting with already-bound slots.
fn step_full(structure: &Structure, op: &ResolvedAccess, frame: &[u32], emit: &mut impl FnMut(&[(usize, Oid)])) {
    let facts = structure.facts();
    match *op {
        ResolvedAccess::SetMember {
            method,
            receiver,
            member,
        } => match (frame[receiver], frame[member]) {
            (0, 0) => {
                for fact in facts.set_facts_of_method(method) {
                    if fact.args.is_empty() {
                        for &m in fact.members.iter() {
                            emit(&[(receiver, fact.receiver), (member, m)]);
                        }
                    }
                }
            }
            (0, mv) => {
                for fact in facts.set_facts_containing(method, Oid(mv - 1)) {
                    if fact.args.is_empty() {
                        emit(&[(receiver, fact.receiver)]);
                    }
                }
            }
            (rv, 0) => {
                for fact in facts.set_facts_of_method_receiver(method, Oid(rv - 1)) {
                    if fact.args.is_empty() {
                        for &m in fact.members.iter() {
                            emit(&[(member, m)]);
                        }
                    }
                }
            }
            (rv, mv) => {
                if structure
                    .apply_set(method, Oid(rv - 1), &[])
                    .is_some_and(|run| run.contains(&Oid(mv - 1)))
                {
                    emit(&[]);
                }
            }
        },
        ResolvedAccess::PathSetMember {
            path,
            origin,
            filter,
            member,
        } => {
            let path_facts: Box<dyn Iterator<Item = crate::structure::SetFactView<'_>>> = match frame[origin] {
                0 => Box::new(facts.set_facts_of_method(path)),
                ov => Box::new(facts.set_facts_of_method_receiver(path, Oid(ov - 1))),
            };
            for pf in path_facts {
                if !pf.args.is_empty() {
                    continue;
                }
                for &t in pf.members.iter() {
                    for ff in facts.set_facts_of_method_receiver(filter, t) {
                        if ff.args.is_empty() {
                            for &y in ff.members.iter() {
                                emit(&[(origin, pf.receiver), (member, y)]);
                            }
                        }
                    }
                }
            }
        }
        ResolvedAccess::IsaInstance { class, instance } => match frame[instance] {
            0 => {
                for o in structure.instances_of(class) {
                    emit(&[(instance, o)]);
                }
            }
            iv => {
                if structure.in_class(Oid(iv - 1), class) {
                    emit(&[]);
                }
            }
        },
    }
}

/// Enumerate one frame-native stage restricted to the window `dv`.
///
/// Completeness rests on fact monotonicity: an answer of one of these
/// literal shapes is attributable to the window iff at least one fact it
/// reads entered the window's log — set-member insertion logs for the set
/// shapes (a new object cannot carry pre-window facts, so no separate
/// new-object channel is needed), and the *closure-pair* insertion log for
/// is-a (transitively derived memberships are logged pairs themselves).
fn step_delta(
    structure: &Structure,
    dv: &DeltaView,
    op: &ResolvedAccess,
    frame: &[u32],
    emit: &mut impl FnMut(&[(usize, Oid)]),
) {
    let _ = frame;
    let facts = structure.facts();
    match *op {
        ResolvedAccess::SetMember {
            method,
            receiver,
            member,
        } => {
            for &(app_idx, m) in dv.new_set_entries_of_method(method) {
                let fact = facts.set_fact_at(app_idx);
                if fact.args.is_empty() {
                    emit(&[(receiver, fact.receiver), (member, m)]);
                }
            }
        }
        ResolvedAccess::PathSetMember {
            path,
            origin,
            filter,
            member,
        } => {
            // Channel A: a new path entry `t` of some origin, joined with
            // the filter's full member sets.
            for &(app_idx, t) in dv.new_set_entries_of_method(path) {
                let pf = facts.set_fact_at(app_idx);
                if !pf.args.is_empty() {
                    continue;
                }
                for ff in facts.set_facts_of_method_receiver(filter, t) {
                    if ff.args.is_empty() {
                        for &y in ff.members.iter() {
                            emit(&[(origin, pf.receiver), (member, y)]);
                        }
                    }
                }
            }
            // Channel B: a new filter entry `y` under receiver `t`, joined
            // backwards through the member index of the path method.
            for &(app_idx, y) in dv.new_set_entries_of_method(filter) {
                let ff = facts.set_fact_at(app_idx);
                if !ff.args.is_empty() {
                    continue;
                }
                for pf in facts.set_facts_containing(path, ff.receiver) {
                    if pf.args.is_empty() {
                        emit(&[(origin, pf.receiver), (member, y)]);
                    }
                }
            }
        }
        ResolvedAccess::IsaInstance { class, instance } => {
            for &o in dv.new_instances_of(class) {
                emit(&[(instance, o)]);
            }
        }
    }
}

/// A pass's solutions as raw slot frames in canonical key order, deduplicated
/// — the allocation-free counterpart of a [`SortedRun`], produced when every
/// stage of a pass ran frame-native *and* the rule's head has a compiled
/// fast path (so the commit loop never needs `Bindings` or keys: it reads
/// the head oids straight out of each frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRun {
    /// The frames, `slots` words each, in canonical key order.
    pub arena: Vec<u32>,
    /// Words per frame.
    pub slots: usize,
}

impl FrameRun {
    /// The frames, in canonical key order.
    pub fn frames(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.arena.chunks_exact(self.slots.max(1))
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.arena.len().checked_div(self.slots).unwrap_or(0)
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

/// The output of one compiled delta pass: a keyed sorted run for the generic
/// commit path, or raw frames when the rule's compiled head can commit them
/// directly.
#[derive(Debug)]
pub enum PassRun {
    /// Keyed solutions for the generic merge + `assert_head` commit.
    Sorted(SortedRun),
    /// Raw canonical-order frames for the compiled-head commit.
    Frames(FrameRun),
}

/// Merge the [`FrameRun`]s of one rule's passes into a single deduplicated run in
/// canonical key order (the projection through `canonical`).  Frames that
/// compare equal under the projection are equal outright — every frame of a
/// pass binds every slot — so adjacent deduplication after the sort is
/// exact.
pub fn merge_frame_runs(mut runs: Vec<FrameRun>, canonical: &[usize]) -> FrameRun {
    if runs.len() == 1 {
        return runs.pop().expect("just checked length");
    }
    let slots = runs.first().map_or(0, |r| r.slots);
    let mut arena: Vec<u32> = Vec::with_capacity(runs.iter().map(|r| r.arena.len()).sum());
    for r in runs {
        debug_assert_eq!(r.slots, slots, "runs of one rule share a slot layout");
        arena.extend_from_slice(&r.arena);
    }
    if slots == 0 {
        return FrameRun { arena, slots };
    }
    let n = arena.len() / slots;
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let frame = |i: u32| &arena[i as usize * slots..i as usize * slots + slots];
    idx.sort_unstable_by(|&a, &b| {
        let (fa, fb) = (frame(a), frame(b));
        for &s in canonical {
            match fa[s].cmp(&fb[s]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    });
    idx.dedup_by(|&mut a, &mut b| frame(a) == frame(b));
    let mut out = Vec::with_capacity(idx.len() * slots);
    for i in idx {
        out.extend_from_slice(frame(i));
    }
    FrameRun { arena: out, slots }
}

/// Sort-and-deduplicate a flat frame arena (`slots` words per frame),
/// returning the compacted arena.  Frames between stages are value sets —
/// the final canonical sort fixes the output order — so any deterministic
/// intermediate order will do.
fn dedup_frames(arena: Vec<u32>, slots: usize) -> Vec<u32> {
    let n = arena.len() / slots;
    if n < 2 {
        return arena;
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let frame = |i: u32| &arena[i as usize * slots..i as usize * slots + slots];
    idx.sort_unstable_by(|&a, &b| frame(a).cmp(frame(b)));
    idx.dedup_by(|&mut a, &mut b| frame(a) == frame(b));
    let mut out = Vec::with_capacity(idx.len() * slots);
    for i in idx {
        out.extend_from_slice(frame(i));
    }
    out
}

/// Execute one delta pass of `compiled` over `body` in the planned `order`:
/// positive literal `delta_lit` restricted to the window `dv`, every other
/// literal joined against the full structure.  Returns the pass's solutions
/// in canonical key order: every solution of the body whose derivation reads
/// the window through `delta_lit`, and only solutions of the body (the
/// documented over-approximation of [`Access`] delta stages is absorbed by
/// the deduplicating merge and the idempotent commit).
///
/// Execution is two segments.  Segment 1 runs the leading stages whose
/// literals have a resolved [`Access`] shape entirely on flat `u32` frames —
/// no `Bindings` cons cells, no `Answer` allocation, fact-store index walks
/// instead of term valuation.  The first built-in or generic stage ends the
/// segment: `Bindings` are materialized once per surviving frame and the
/// remaining stages (and all negation checks) run through [`answers()`] /
/// [`delta_answers`].
pub fn execute_delta(
    structure: &Structure,
    body: &[Literal],
    compiled: &CompiledRule,
    order: &PassOrder,
    delta_lit: usize,
    dv: &DeltaView,
) -> Result<PassRun> {
    let slots = compiled.slot_count();
    let last_stage = order.positions.len().saturating_sub(1);

    // Frames live in one flat arena, `slots` words per frame — one
    // allocation per stage instead of one per candidate.  A ground body has
    // no slots (no frame representation); it runs segment 2 only.
    let mut arena: Vec<u32> = vec![0; slots];
    let mut resume = 0;
    while slots > 0 && resume < order.positions.len() {
        let j = order.positions[resume];
        let lit = compiled
            .positives
            .iter()
            .find(|l| l.body_index == j)
            .expect("planned positions index positive literals");
        if lit.builtin {
            break;
        }
        let op = match resolve_access(structure, &lit.access) {
            Ok(Some(op)) => op,
            Ok(None) => break,
            Err(()) => return Ok(PassRun::Sorted(Vec::new())),
        };
        // Intermediate stages deduplicate — a duplicate frame would fan out
        // duplicated downstream work.  Frames are just value sets here
        // (the final canonical sort fixes the output order), so sort-based
        // deduplication over the arena beats a hash set: no per-candidate
        // allocation, and the rebuilt arena is scanned in order by the next
        // stage.  The final stage feeds the canonical sort, which
        // deduplicates anyway, so it skips the extra pass.
        let dedup = resume != last_stage || !compiled.negations.is_empty();
        let mut next: Vec<u32> = Vec::new();
        for frame in arena.chunks_exact(slots) {
            let mut emit = |assign: &[(usize, Oid)]| {
                let base = next.len();
                next.extend_from_slice(frame);
                for &(s, o) in assign {
                    let v = o.0 + 1;
                    let cell = &mut next[base + s];
                    if *cell != 0 && *cell != v {
                        next.truncate(base);
                        return;
                    }
                    *cell = v;
                }
            };
            if j == delta_lit {
                step_delta(structure, dv, &op, frame, &mut emit);
            } else {
                step_full(structure, &op, frame, &mut emit);
            }
        }
        arena = if dedup { dedup_frames(next, slots) } else { next };
        if arena.is_empty() {
            return Ok(PassRun::Sorted(Vec::new()));
        }
        resume += 1;
    }

    if slots > 0 && resume > last_stage && compiled.negations.is_empty() {
        // Every stage ran frame-native: sort and deduplicate the raw frames
        // through an index permutation into canonical key order.
        let mut idx: Vec<u32> = (0..(arena.len() / slots) as u32).collect();
        let canon = &compiled.canonical;
        let frame = |i: u32| &arena[i as usize * slots..i as usize * slots + slots];
        idx.sort_unstable_by(|&a, &b| {
            let (fa, fb) = (frame(a), frame(b));
            for &s in canon {
                match fa[s].cmp(&fb[s]) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            std::cmp::Ordering::Equal
        });
        idx.dedup_by(|&mut a, &mut b| frame(a) == frame(b));
        if compiled.head.is_some() {
            // The compiled head commits straight from the frames — no keys,
            // no `Bindings`, no per-solution allocation at all.
            let mut out = Vec::with_capacity(idx.len() * slots);
            for i in idx {
                out.extend_from_slice(frame(i));
            }
            return Ok(PassRun::Frames(FrameRun { arena: out, slots }));
        }
        return Ok(PassRun::Sorted(
            idx.into_iter()
                .map(|i| {
                    let f = frame(i);
                    (compiled.key_of(f), compiled.bindings_of(f))
                })
                .collect(),
        ));
    }

    let mut states: Vec<(Vec<u32>, Bindings)> = if slots == 0 {
        vec![(Vec::new(), Bindings::new())]
    } else {
        arena
            .chunks_exact(slots)
            .map(|f| {
                let b = compiled.bindings_of(f);
                (f.to_vec(), b)
            })
            .collect()
    };
    for (pos, &j) in order.positions.iter().enumerate().skip(resume) {
        let lit = &body[j];
        let dedup = pos != last_stage || !compiled.negations.is_empty();
        let mut next: Vec<(Vec<u32>, Bindings)> = Vec::new();
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        for (frame, s) in &states {
            let base_len = s.len();
            let lit_answers = if j == delta_lit {
                delta_answers(structure, &lit.term, s, dv)?
            } else {
                answers(structure, &lit.term, s)?
            };
            for a in lit_answers {
                let mut f = frame.clone();
                for (v, oid) in a.bindings.added_since(base_len) {
                    match compiled.slot_of(v) {
                        Some(slot) => f[slot] = oid.0 + 1,
                        // Answers only bind variables occurring in the
                        // literal, all of which have slots.
                        None => debug_assert!(false, "answer bound a variable without a slot"),
                    }
                }
                if !dedup || seen.insert(f.clone()) {
                    next.push((f, a.bindings));
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Ok(PassRun::Sorted(Vec::new()));
        }
    }
    for &j in &compiled.negations {
        let lit = &body[j];
        let mut next = Vec::with_capacity(states.len());
        for (f, s) in states {
            if answers(structure, &lit.term, &s)?.is_empty() {
                next.push((f, s));
            }
        }
        states = next;
        if states.is_empty() {
            return Ok(PassRun::Sorted(Vec::new()));
        }
    }
    // Canonical order without touching strings: every surviving frame binds
    // every slot, so all keys carry the same variable-name sequence and key
    // order reduces to the object-id sequence in canonical slot order.  Sort
    // and deduplicate on the `u32` frames, then materialize one key per
    // distinct solution.
    states.sort_by(|a, b| {
        compiled
            .canonical
            .iter()
            .map(|&s| a.0[s])
            .cmp(compiled.canonical.iter().map(|&s| b.0[s]))
    });
    states.dedup_by(|a, b| a.0 == b.0);
    Ok(PassRun::Sorted(
        states.into_iter().map(|(f, b)| (compiled.key_of(&f), b)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::analysis::plan_rule;
    use crate::builtins::{LT, NEQ};
    use crate::engine::{binding_key, solve_body};
    use crate::names::Name;
    use crate::program::Literal;
    use crate::semantics::SnapshotWindow;
    use crate::term::Filter;

    fn kids_structure() -> Structure {
        let mut s = Structure::new();
        let kids = s.ensure_name(&Name::atom("kids"));
        let person = s.ensure_name(&Name::atom("person"));
        let names = ["a", "b", "c", "d"].map(|n| s.ensure_name(&Name::atom(n)));
        s.assert_set_member(kids, names[0], &[], names[1]);
        s.assert_set_member(kids, names[1], &[], names[2]);
        s.assert_set_member(kids, names[2], &[], names[3]);
        for &n in &names {
            s.add_isa(n, person);
        }
        s
    }

    fn tc_rule() -> Rule {
        // X[desc ->> {Y}] <- X[kids ->> {Y}]
        Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        )
    }

    fn three_literal_rule() -> Rule {
        // X[gk ->> {Z}] <- X[kids ->> {Y}], Y[kids ->> {Z}], Z : person
        Rule::new(
            Term::var("X").filter(Filter::set("gk", vec![Term::var("Z")])),
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::pos(Term::var("Y").filter(Filter::set("kids", vec![Term::var("Z")]))),
                Literal::pos(Term::var("Z").isa("person")),
            ],
        )
    }

    fn compile_with_stats(rule: &Rule, s: &Structure) -> CompiledRule {
        let stats = crate::analysis::MethodStats::capture(s);
        compile(rule, &plan_rule(rule, Some(&stats), None))
    }

    #[test]
    fn slots_are_first_occurrence_ordered_and_canonical_is_name_sorted() {
        let s = kids_structure();
        let rule = three_literal_rule();
        let c = compile_with_stats(&rule, &s);
        assert_eq!(c.slot_count(), 3);
        assert_eq!(c.slot_var(0), &Var::new("X"));
        assert_eq!(c.slot_var(1), &Var::new("Y"));
        assert_eq!(c.slot_var(2), &Var::new("Z"));
        assert_eq!(c.slot_of(&Var::new("Z")), Some(2));
        assert_eq!(c.canonical, vec![0, 1, 2]);
        assert_eq!(c.positives().len(), 3);
        assert_eq!(c.positives()[1].slots, vec![1, 2]);
    }

    #[test]
    fn negations_are_recorded_not_ordered() {
        let rule = Rule::new(
            Term::var("X").isa("childless"),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("X").filter(Filter::set("kids", vec![Term::var("_Y")]))),
            ],
        );
        let s = kids_structure();
        let c = compile_with_stats(&rule, &s);
        assert_eq!(c.positives().len(), 1);
        assert_eq!(c.negations(), &[1]);
        let order = pass_order(&c, &[0], 10);
        assert_eq!(order.positions, vec![0]);
    }

    #[test]
    fn builtin_guard_is_hoisted_to_earliest_bound_position() {
        // A : person, B : person, A[lt -> B] — the guard can run as soon as
        // A and B are bound, i.e. right after the first two literals in any
        // order.
        let rule = Rule::new(
            Term::var("A").isa("small"),
            vec![
                Literal::pos(Term::var("A").isa("person")),
                Literal::pos(Term::var("B").isa("person")),
                Literal::pos(Term::var("A").filter(Filter::scalar(Term::name(LT), Term::var("B")))),
            ],
        );
        let s = kids_structure();
        let c = compile_with_stats(&rule, &s);
        assert!(c.positives()[2].builtin);
        let order = pass_order(&c, &[0, 1], usize::MAX);
        // Both person literals precede the guard; the guard sits right after
        // the position that binds its second variable.
        assert_eq!(order.positions.len(), 3);
        assert_eq!(order.positions[2], 2);
    }

    #[test]
    fn builtin_before_binding_literal_compiles_and_keeps_written_order() {
        // The guard reads B before any positive literal binds it: written
        // order enumerates through it, so the body is not reorderable.
        let rule = Rule::new(
            Term::var("A").isa("small"),
            vec![
                Literal::pos(Term::var("A").isa("person")),
                Literal::pos(Term::var("A").filter(Filter::scalar(Term::name(LT), Term::var("B")))),
                Literal::pos(Term::var("B").isa("person")),
            ],
        );
        let s = kids_structure();
        let c = compile_with_stats(&rule, &s);
        assert!(c.positives()[1].builtin);
        // Whichever literal the window drives and however small the delta,
        // the order is the written one and no seed flip is reported.
        for (drivable, delta_entries) in [(vec![0], 1), (vec![2], 1), (vec![0, 2], usize::MAX), (vec![], 0)] {
            let order = pass_order(&c, &drivable, delta_entries);
            assert_eq!(order.positions, vec![0, 1, 2], "{drivable:?}");
            assert!(order.seeded_from_delta, "{drivable:?}");
        }
    }

    #[test]
    fn small_delta_seeds_the_drivable_literal() {
        let s = kids_structure();
        let rule = three_literal_rule();
        let c = compile_with_stats(&rule, &s);
        // Delta of 1 entry drives literal 1: it seeds, its join partner
        // (literal 0, connected through Y) comes before the disconnected
        // person scan would otherwise win on cost.
        let order = pass_order(&c, &[1], 1);
        assert!(order.seeded_from_delta);
        assert_eq!(order.positions[0], 1);
        assert_eq!(order.positions[1], 0);
    }

    #[test]
    fn huge_delta_flips_the_seed_side() {
        let s = kids_structure();
        let rule = three_literal_rule();
        let c = compile_with_stats(&rule, &s);
        // With a delta larger than every static estimate the planner seeds
        // from the cheapest index-backed literal instead.
        let order = pass_order(&c, &[1], 1_000_000);
        assert!(!order.seeded_from_delta);
    }

    /// Normalize a pass output to a keyed run (frame runs materialize their
    /// keys and bindings through the compiled rule, exactly as the keyed
    /// exit would have).
    fn keyed(run: PassRun, compiled: &CompiledRule) -> SortedRun {
        match run {
            PassRun::Sorted(r) => r,
            PassRun::Frames(fr) => fr
                .frames()
                .map(|f| (compiled.key_of(f), compiled.bindings_of(f)))
                .collect(),
        }
    }

    /// The oracle's solutions of `body` over `s`, as canonical keys.
    fn oracle_keys(s: &Structure, body: &[Literal]) -> BTreeSet<BindingKey> {
        solve_body(s, body, &Bindings::new())
            .unwrap()
            .iter()
            .map(binding_key)
            .collect()
    }

    /// Run every pass of `rule` over the window between `before` and `after`
    /// — one per literal in `drivable`, in the order [`pass_order`] plans for
    /// `delta_entries` — and check them against the oracle: each pass is a
    /// canonical run of solutions the full solve over `after` also finds
    /// (soundness), and together the passes find every solution the full
    /// solve over `before` did not (completeness).  Returns the union.
    fn checked_passes(
        before: &Structure,
        after: &Structure,
        rule: &Rule,
        drivable: &[usize],
        delta_entries: usize,
    ) -> BTreeSet<BindingKey> {
        let dv = SnapshotWindow::capture(before).slide(after);
        let c = compile_with_stats(rule, after);
        let order = pass_order(&c, drivable, delta_entries);
        let (old, new) = (oracle_keys(before, &rule.body), oracle_keys(after, &rule.body));
        let mut found = BTreeSet::new();
        for &delta_lit in drivable {
            let run = keyed(
                execute_delta(after, &rule.body, &c, &order, delta_lit, &dv).unwrap(),
                &c,
            );
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "canonical, deduplicated");
            for (k, b) in run {
                assert_eq!(k, binding_key(&b), "frame-materialized keys agree with binding_key");
                assert!(new.contains(&k), "pass {delta_lit} found a non-solution {k:?}");
                found.insert(k);
            }
        }
        let missed: Vec<_> = new.difference(&old).filter(|k| !found.contains(*k)).collect();
        assert!(missed.is_empty(), "passes {drivable:?} missed {missed:?}");
        found
    }

    /// `kids_structure` grown by one `kids` edge `from -> to`.
    fn with_kids_edge(from: &str, to: &str) -> (Structure, Structure) {
        let before = kids_structure();
        let mut after = before.clone();
        let kids = after.ensure_name(&Name::atom("kids"));
        let (from, to) = (after.ensure_name(&Name::atom(from)), after.ensure_name(&Name::atom(to)));
        after.assert_set_member(kids, from, &[], to);
        (before, after)
    }

    #[test]
    fn single_literal_rule_compiles_and_executes_without_final_dedup() {
        let (before, after) = with_kids_edge("d", "a");
        let rule = tc_rule();
        let c = compile_with_stats(&rule, &after);
        assert_eq!(c.slot_count(), 2);
        assert!(pass_order(&c, &[0], 1).seeded_from_delta);
        let found = checked_passes(&before, &after, &rule, &[0], 1);
        assert_eq!(found.len(), 1, "exactly the new edge");
    }

    #[test]
    fn access_paths_and_head_are_recognised() {
        let s = kids_structure();
        // X[desc ->> {Y}] <- X..desc[kids ->> {Y}], X : person
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![
                Literal::pos(
                    Term::var("X")
                        .set("desc")
                        .filter(Filter::set("kids", vec![Term::var("Y")])),
                ),
                Literal::pos(Term::var("X").isa("person")),
            ],
        );
        let c = compile_with_stats(&rule, &s);
        assert_eq!(
            c.positives()[0].access,
            Access::PathSetMember {
                path: Name::atom("desc"),
                origin: 0,
                filter: Name::atom("kids"),
                member: 1,
            }
        );
        assert_eq!(
            c.positives()[1].access,
            Access::IsaInstance {
                class: Name::atom("person"),
                instance: 0,
            }
        );
        let tc = compile_with_stats(&tc_rule(), &s);
        assert_eq!(
            tc.positives()[0].access,
            Access::SetMember {
                method: Name::atom("kids"),
                receiver: 0,
                member: 1,
            }
        );
        let head = tc.head().expect("X[desc ->> {Y}] has the compiled head shape");
        assert_eq!(head.method, Name::atom("desc"));
        assert_eq!((head.receiver_slot, head.member_slot), (0, 1));
    }

    #[test]
    fn compiled_head_rules_return_frame_runs() {
        let mut s = kids_structure();
        let mut window = SnapshotWindow::capture(&s);
        let kids = s.ensure_name(&Name::atom("kids"));
        let (a, b) = (s.ensure_name(&Name::atom("a")), s.ensure_name(&Name::atom("b")));
        s.assert_set_member(kids, b, &[], a);
        let dv = window.slide(&s);
        let rule = tc_rule();
        let c = compile_with_stats(&rule, &s);
        let order = pass_order(&c, &[0], 1);
        let PassRun::Frames(fr) = execute_delta(&s, &rule.body, &c, &order, 0, &dv).unwrap() else {
            panic!("compiled-head rule with frame-native stages must yield frames");
        };
        assert_eq!(fr.slots, 2);
        let head = c.head().unwrap();
        let frames: Vec<(Oid, Oid)> = fr
            .frames()
            .map(|f| (Oid(f[head.receiver_slot] - 1), Oid(f[head.member_slot] - 1)))
            .collect();
        assert_eq!(frames, vec![(b, a)]);
    }

    #[test]
    fn negated_body_passes_agree_with_the_oracle() {
        // X[leaf_kids ->> {Y}] <- X[kids ->> {Y}], not Y[kids ->> {Z}]
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("leaf_kids", vec![Term::var("Y")])),
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::neg(Term::var("Y").filter(Filter::set("kids", vec![Term::var("Z")]))),
            ],
        );
        let (before, after) = with_kids_edge("b", "e");
        let found = checked_passes(&before, &after, &rule, &[0], 1);
        assert!(
            !found.is_empty(),
            "the new edge's leaf member must survive the negation"
        );
    }

    #[test]
    fn passes_agree_with_the_oracle_in_every_planned_order() {
        // One new kids edge (d -> a closes a cycle) drives either literal of
        // the join; a small delta seeds from it, a huge one flips the seed.
        let (before, after) = with_kids_edge("d", "a");
        let rule = three_literal_rule();
        for delta_entries in [1usize, usize::MAX] {
            let found = checked_passes(&before, &after, &rule, &[0, 1], delta_entries);
            assert!(!found.is_empty(), "entries {delta_entries}");
        }
    }

    #[test]
    fn enumerating_guard_passes_agree_with_the_oracle() {
        // X[peer ->> {Y}] <- X : person, X[neq@(Y) -> X], Y : person — the
        // guard enumerates every object Y other than X before `Y : person`
        // filters, so the passes run in written order through the generic
        // stages.
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("peer", vec![Term::var("Y")])),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::pos(
                    Term::var("X")
                        .filter(Filter::scalar(Term::name(NEQ), Term::var("X")).with_args(vec![Term::var("Y")])),
                ),
                Literal::pos(Term::var("Y").isa("person")),
            ],
        );
        let before = kids_structure();
        let mut after = before.clone();
        let (e, person) = (
            after.ensure_name(&Name::atom("e")),
            after.ensure_name(&Name::atom("person")),
        );
        after.add_isa(e, person);
        // A new object makes every positive literal drivable.
        let found = checked_passes(&before, &after, &rule, &[0, 1, 2], 1);
        assert_eq!(
            found.len(),
            2 * 4,
            "e pairs with each of the four old persons, both ways"
        );
    }
}
