//! Cost-based join planning and the compiled body IR: the evaluator of every
//! rule body the engine solves, of every query and of every commit check —
//! and the lowered heads the engine commits those bodies' solutions through.
//!
//! Each proper rule is compiled once per run, when its program is installed
//! ([`compile`]).  The stratum's first iteration solves the body in full,
//! with no literal restricted ([`execute_query`]), as a query is.  Every
//! later iteration runs per-literal semi-naive *delta passes* over the same
//! compiled body ([`execute_delta`]) — the engine has no other body
//! evaluator.  So does every query
//! ([`Engine::query`](crate::engine::Engine::query),
//! [`Engine::query_term`](crate::engine::Engine::query_term)): a query body
//! is a headless rule body ([`compile_query`]) run with no literal
//! restricted ([`execute_query`], [`execute_term`]).  And so does every
//! integrity constraint ([`crate::constraints`]) and every production rule
//! condition: a denial body or a condition is a query body, compiled once
//! and matched incrementally ([`Condition`]) — whole, or from seed frames
//! binding one variable to the objects a span touched ([`execute_seeded`]).
//! And so does every trigger condition of the active layer: a query body
//! prepared once with the event's participants as seeded slots
//! ([`prepare_seeded`]) and run from one frame per event
//! ([`run_prepared`]).  What still runs on the written-order
//! [`solve_body`](crate::semantics::solve_body) is the references — the
//! reference fixpoint [`crate::semantics::fixpoint`], the model check of
//! [`crate::semantics::is_model`] and the tests' references.
//!
//! * **Compilation.**  [`compile`] lowers a rule body once into a
//!   [`CompiledRule`]: every body variable gets a fixed *slot* index, and
//!   each join state carries a flat frame of `u32` words (slot → object id +
//!   1, `0` = unbound).  Every body literal, positive or negated, is lowered
//!   to a short sequence of primitive [`Atom`]s — one method application or
//!   class test each, joined through slots, per-literal temporaries and
//!   names resolved once per pass (module [`atoms`]) — and there is no other
//!   compiled form: no literal shape falls back to term interpretation.  A
//!   literal runs a step at a time over all of its incoming frames: each
//!   atom step maps one flat run of rows — slots and temporaries — to the
//!   next ([`atoms`], "Batch steps").  Stage deduplication sorts the flat
//!   frames — no `Arc<str>` clones, no per-answer key — and a pass returns
//!   frames ([`FrameRun`]).  A query's run leaves the engine as it is, as
//!   the rows of an [`Answers`](crate::engine::Answers) — a reference whose
//!   last step expands stored member runs keeps the runs themselves, one
//!   frame per application ([`execute_term`]); [`Bindings`] are
//!   materialized from a frame where a caller asks a row for them, under
//!   the strict right-hand side of an `m ->> t` check and under a head's
//!   `m ->> t` right-hand side that is not one stored application, only.
//!
//! * **Planning.**  One planner orders every body against the live
//!   structure ([`plan_pass`]): a query when it is asked ([`plan_query`]), a
//!   rule's full solve likewise, and a rule's delta passes once per
//!   iteration, one plan shared by all of the rule's passes.  Each positive
//!   literal is costed by the cheapest step it could start with when only
//!   names are bound — a posting-list length read in O(1) from the fact
//!   store or the class hierarchy — and a delta-drivable literal by
//!   `min(that length, delta entry count)`, so a small delta seeds the join;
//!   when a literal's posting list is *shorter* than the delta the planner
//!   seeds from it instead (a *seed flip*, counted in
//!   [`EvalStats::seed_flips`](crate::engine::EvalStats)).  The order is
//!   greedy: after the seed, literals sharing a bound variable are preferred
//!   over disconnected ones (no accidental cross products), and guards —
//!   built-ins, and literals holding a strict `m ->> t` check — are hoisted
//!   to the earliest position where all their variables are bound — never
//!   earlier.  Within each literal the atoms are ordered by the size of the
//!   index each step would walk under what the literals before it bound
//!   ([`atoms`], "Ordered steps"): `X : employee[age -> 33; city -> boston]`
//!   starts from the receivers of `age -> 33`, not from the extent of
//!   `employee`.  A pass's restricted literal is the one exception: the
//!   window seeds its chain ([`execute_delta`]).  A body in which a guard
//!   *enumerates* — some variable of it is not bound by the positive
//!   literals written before it, as `B` in `A : person, A[lt -> B],
//!   B : person` — keeps its written order (see [`compile`]).  A plan
//!   decides how long a solve takes, never what it finds or in which order:
//!   solutions leave in canonical key order.
//!
//! * **Heads.**  Every statement's head is lowered once, when its program is
//!   installed, into a [`HeadProgram`] ([`head`]): a flat list of steps —
//!   get or mint a head path, assert a scalar, insert a member, merge a set
//!   right-hand side, add an is-a edge, declare a signature — over the
//!   objects the head names (resolved, and registered, by the lowering),
//!   slots of the body's frame and the objects earlier steps minted.  The
//!   engine commits a fact by running its program over one empty frame and
//!   a rule's solutions by running it over each frame; a program that is one
//!   member insert `X[m ->> {Y}]` commits a run of members at a time.  Heads
//!   are no part of a [`CompiledRule`]: a query or a condition compiles
//!   exactly as a rule body does.
//!
//! **Why reordering is invisible.**  A full solve's or a delta pass's output
//! is a frame run in canonical key order and a rule's runs are merged in
//! that order ([`merge_frame_runs`]), so the order in which a solve
//! *enumerates* solutions cannot influence the order in which the engine
//! commits them — not the structure, not the insertion logs, not
//! virtual-object allocation.  The reference fixpoint
//! ([`crate::semantics::fixpoint`]) sorts its written-order solutions into
//! the same order before it commits them.  That keeps the project's core
//! invariant — a run is `canonical_dump()`-bit-identical to the reference —
//! true *by construction*; the `properties_planner` proptests assert it.
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
//! window's new objects).  Within the restricted literal the same argument
//! applies to its atoms (see [`atoms`]).

pub mod atoms;
pub mod condition;
pub mod head;

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

use crate::builtins::{is_comparison, SELF_METHOD};
use crate::error::Result;
use crate::names::{Name, Var};
use crate::program::Rule;
use crate::semantics::{Bindings, DeltaView};
use crate::structure::{Oid, OidRun, Structure};
use crate::term::Term;

pub use atoms::{Atom, AtomStep, Call, Operand};
pub use condition::{Change, Condition, Mark, Recheck, Span};
pub use head::{HeadArena, HeadBuffers, HeadProgram};

/// One body literal of a [`CompiledRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLiteral {
    /// Index of the literal in the rule body.
    pub body_index: usize,
    /// Slots of the variables occurring in the literal.
    pub slots: Vec<usize>,
    /// `true` for a literal planned as a guard — a built-in (comparisons /
    /// `self`) or one holding a strict `m ->> t` check ([`Atom::Superset`]) —
    /// which is hoisted rather than cost-ordered.
    pub guard: bool,
    /// The literal's atoms, in lowering order.
    pub atoms: Vec<Atom>,
    /// The operand holding the object the literal denotes as a reference
    /// (what [`execute_term`] answers with).
    pub denoted: Operand,
    /// The range of [`CompiledRule::names`] the atoms use.
    names: Range<usize>,
}

/// A rule body lowered to the slot-addressed form: fixed slot indices for
/// every body variable, the atoms of every literal with per-literal slot
/// lists, and the name-sorted slot permutation that orders frames like their
/// canonical binding keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// Slot `i` holds the binding of `vars[i]`.
    vars: Vec<Var>,
    /// Slot indices in variable-name order: comparing frames slot by slot in
    /// this order is comparing their [`BindingKey`](crate::engine::BindingKey)s.
    canonical: Vec<usize>,
    /// The names the atoms mention ([`Operand::Name`]), literal by literal.
    names: Vec<Name>,
    /// The most temporaries any literal needs.
    temps: usize,
    /// The positive literals, in body order.
    positives: Vec<CompiledLiteral>,
    /// The negated literals, in body order.
    negations: Vec<CompiledLiteral>,
    /// `true` when a guard enumerates (see [`compile`]): every plan then
    /// keeps the written order.
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

    /// The variables of the slots, slot by slot.
    pub fn slot_vars(&self) -> &[Var] {
        &self.vars
    }

    /// The names the atoms mention, indexed by [`Operand::Name`].
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The compiled positive literals, in body order.
    pub fn positives(&self) -> &[CompiledLiteral] {
        &self.positives
    }

    /// The compiled negated literals, in body order.
    pub fn negations(&self) -> &[CompiledLiteral] {
        &self.negations
    }

    /// The compiled literal at `body_index`, positive or negated.
    ///
    /// # Panics
    /// When the body has no such literal.
    pub fn literal(&self, body_index: usize) -> &CompiledLiteral {
        let mut all = self.positives.iter().chain(&self.negations);
        all.find(|l| l.body_index == body_index)
            .expect("a literal of this body")
    }

    /// Is every plan of this body its written order (see [`compile`])?
    pub(crate) fn written_order(&self) -> bool {
        self.written_order
    }

    /// Slot indices in variable-name order — the canonical key projection.
    pub fn canonical(&self) -> &[usize] {
        &self.canonical
    }

    /// `atom` — one of this body's — as the one-application reference it
    /// stands for, in PathLog syntax: `X[age -> 33]`, `X[vehicles ->> {_1}]`,
    /// `_1 : automobile`; temporaries are `_1`, `_2`, ….  For plan output.
    pub fn atom_text(&self, atom: &Atom) -> String {
        let op = |op: &Operand| match *op {
            Operand::Slot(i) => self.vars[i].to_string(),
            Operand::Temp(i) => format!("_{}", i + 1),
            Operand::Name(i) => self.names[i].to_string(),
        };
        let list = |ops: &[Operand]| ops.iter().map(op).collect::<Vec<_>>().join(", ");
        let applied = |call: &Call| match call.args.as_slice() {
            [] => format!("{}[{}", op(&call.receiver), op(&call.method)),
            args => format!("{}[{}@({})", op(&call.receiver), op(&call.method), list(args)),
        };
        match atom {
            Atom::Scalar { call, result } => format!("{} -> {}]", applied(call), op(result)),
            Atom::Member { call, member } => format!("{} ->> {{{}}}]", applied(call), op(member)),
            Atom::Isa { instance, class } => format!("{} : {}", op(instance), op(class)),
            Atom::Object { cell } => format!("{}[]", op(cell)),
            Atom::Superset { call, rhs } => format!("{} ->> {rhs}]", applied(call)),
            Atom::Signature {
                call,
                set_valued,
                results,
            } => {
                let arrow = if *set_valued { "=>>" } else { "=>" };
                format!("{} {arrow} ({})]", applied(call), list(results))
            }
        }
    }

    /// Materialize the [`Bindings`] of a slot frame (bound slots only): what
    /// a head's `m ->> t` right-hand side kept as a term ([`head`]) and the
    /// strict right-hand side of an `m ->> t` check are valuated under.
    pub fn bindings_of(&self, frame: &[u32]) -> Bindings {
        slot_bindings(&self.vars, frame)
    }

    /// The slot variables and the canonical key projection, the rest of the
    /// compiled body dropped: the header of a query's
    /// [`Answers`](crate::engine::Answers).
    pub(crate) fn into_header(self) -> (Vec<Var>, Vec<usize>) {
        (self.vars, self.canonical)
    }
}

/// The [`Bindings`] of the bound slots of `frame`, slot `i` holding the
/// binding of `vars[i]`; words after the slots are not read.
pub(crate) fn slot_bindings(vars: &[Var], frame: &[u32]) -> Bindings {
    let bound = vars.iter().zip(frame).filter(|(_, &v)| v != 0);
    Bindings::from_distinct(bound.map(|(var, &v)| (var, Oid(v - 1))))
}

/// Lower `rule`'s body into slot-addressed form.  Nothing is read from a
/// structure: a body is costed against the structure it runs over, when it
/// is planned ([`plan_pass`]).  Compilation is total: every valid rule body
/// has a compiled form, and every literal of it the same one (see
/// [`atoms`]).
///
/// A guard — a literal applying built-ins only, or one holding a strict
/// `m ->> t` check — whose variables are not all bound by *preceding*
/// positive non-guard literals in written order enumerates rather than
/// filters (a strict check with an unbound receiver ranges over the defined
/// applications only, see [`Atom::Superset`]), and moving it is not
/// semantics-preserving against written-order evaluation: such a body
/// compiles with its written order pinned — every plan of it is the written
/// order.
pub fn compile(rule: &Rule) -> CompiledRule {
    compile_body(rule.body.iter().map(|lit| (lit.positive, &lit.term)))
}

/// Lower a query body — `(positive, reference)` per literal — like a rule
/// body without a head: same slots, same atoms, same guards and the same
/// written-order pin.
pub fn compile_query<'t>(body: impl IntoIterator<Item = (bool, &'t Term)>) -> CompiledRule {
    compile_body(body.into_iter())
}

/// The lowering [`compile`] and [`compile_query`] share.
fn compile_body<'t>(body: impl Iterator<Item = (bool, &'t Term)>) -> CompiledRule {
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

    let mut names = Vec::new();
    let mut temps = 0;
    let mut positives = Vec::new();
    let mut negations = Vec::new();
    let mut bound: Vec<usize> = Vec::new();
    let mut written_order = false;
    for (i, (positive, term)) in body.enumerate() {
        let slots = slots_of(term, &mut vars);
        let lowered = atoms::lower(term, &vars, &mut names);
        temps = temps.max(lowered.temps);
        let builtin_call = |a: &Atom| matches!(a, Atom::Scalar { call, .. } if is_builtin(call.method, &names));
        let builtins_only = lowered.atoms.iter().all(builtin_call);
        let guard = builtins_only || lowered.atoms.iter().any(|a| matches!(a, Atom::Superset { .. }));
        if positive && guard {
            written_order |= !slots.iter().all(|s| bound.contains(s));
        } else if positive {
            bound.extend(slots.iter().copied());
        }
        let compiled = CompiledLiteral {
            body_index: i,
            slots,
            guard,
            atoms: lowered.atoms,
            denoted: lowered.denoted,
            names: lowered.names,
        };
        if positive {
            positives.push(compiled);
        } else {
            negations.push(compiled);
        }
    }

    let mut canonical: Vec<usize> = (0..vars.len()).collect();
    canonical.sort_by(|&a, &b| vars[a].0.cmp(&vars[b].0));
    CompiledRule {
        vars,
        canonical,
        names,
        temps,
        positives,
        negations,
        written_order,
    }
}

/// Is `op` one of `names` naming a built-in method — a comparison, `self`?
/// A literal all of whose applications are built-ins never touches the fact
/// store.
pub(crate) fn is_builtin(op: Operand, names: &[Name]) -> bool {
    match op {
        Operand::Name(i) => names[i].as_atom().is_some_and(|n| is_comparison(n) || n == SELF_METHOD),
        _ => false,
    }
}

/// The greedy order of [`plan_pass`] under any cost of a literal, from the
/// slots `bound` before the first literal runs: body indices of the
/// positive literals, in execution order.
fn literal_order(
    compiled: &CompiledRule,
    mut bound: Vec<usize>,
    cost: impl Fn(&CompiledLiteral) -> usize,
) -> Vec<usize> {
    if compiled.written_order || compiled.positives.len() < 2 {
        return compiled.positives.iter().map(|l| l.body_index).collect();
    }
    let mut remaining: Vec<&CompiledLiteral> = compiled.positives.iter().filter(|l| !l.guard).collect();
    let mut guards: Vec<&CompiledLiteral> = compiled.positives.iter().filter(|l| l.guard).collect();
    let mut positions = Vec::with_capacity(compiled.positives.len());
    let flush_guards = |bound: &[usize], positions: &mut Vec<usize>, guards: &mut Vec<&CompiledLiteral>| {
        guards.retain(|b| {
            if b.slots.iter().all(|s| bound.contains(s)) {
                positions.push(b.body_index);
                false
            } else {
                true
            }
        });
    };
    while !remaining.is_empty() {
        flush_guards(&bound, &mut positions, &mut guards);
        let connected =
            |l: &CompiledLiteral| bound.is_empty() || l.slots.is_empty() || l.slots.iter().any(|s| bound.contains(s));
        let next = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (!connected(l), cost(l), l.body_index))
            .map(|(i, _)| i)
            .expect("remaining is non-empty");
        let lit = remaining.remove(next);
        bound.extend(lit.slots.iter().copied());
        positions.push(lit.body_index);
    }
    flush_guards(&bound, &mut positions, &mut guards);
    // Guards whose variables are never bound cannot occur: `compile` pins
    // the written order of any body where it leaves one unbound, and the
    // planned order binds the same variable set.
    debug_assert!(guards.is_empty(), "unbound guard survived planning");
    positions.extend(guards.iter().map(|b| b.body_index));
    positions
}

/// A pass's solutions as raw slot frames in canonical key order, deduplicated:
/// what every delta pass and [`execute_query`] return.  The commit loop runs
/// a lowered head over each frame ([`HeadArena::run`]), reading its slots
/// straight out of it; a query's run is its
/// [`Answers`](crate::engine::Answers), and the violations of a denial body
/// are materialized from its frames.  The frames of [`execute_term`] are one
/// word wider — the denoted object — and keep their duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRun {
    /// The frames, `slots` words each.
    arena: Vec<u32>,
    /// Words per frame: the body's slots, and after them the denoted object
    /// when the run carries one.
    slots: usize,
    /// Number of frames — carried, not derived from the arena: a ground body
    /// has no slots, and holds (one empty frame) or does not (none).
    len: usize,
}

impl FrameRun {
    pub(crate) fn new(slots: usize) -> Self {
        FrameRun {
            arena: Vec::new(),
            slots,
            len: 0,
        }
    }

    /// One frame of `slots` slots binding each slot of `bound` to its
    /// object and nothing else: the start of a run from one seed frame
    /// ([`run_prepared`]); binding nothing, the one solution of the empty
    /// join.
    pub fn single(slots: usize, bound: impl IntoIterator<Item = (usize, Oid)>) -> Self {
        let mut frame = vec![0; slots];
        for (slot, object) in bound {
            frame[slot] = object.0 + 1;
        }
        FrameRun {
            arena: frame,
            slots,
            len: 1,
        }
    }

    fn push(&mut self, frame: &[u32]) {
        self.push_with(frame, None);
    }

    /// Push `frame` and, after it, the word `last` when given.
    fn push_with(&mut self, frame: &[u32], last: Option<u32>) {
        debug_assert_eq!(frame.len() + usize::from(last.is_some()), self.slots);
        self.arena.extend_from_slice(frame);
        self.arena.extend(last);
        self.len += 1;
    }

    /// The frames, in order.
    pub fn frames(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| &self.arena[i * self.slots..(i + 1) * self.slots])
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frames `keep` holds of, in order.
    pub(crate) fn filtered(&self, mut keep: impl FnMut(&[u32]) -> bool) -> FrameRun {
        let mut out = FrameRun::new(self.slots);
        for frame in self.frames().filter(|f| keep(f)) {
            out.arena.extend_from_slice(frame);
            out.len += 1;
        }
        out
    }

    /// The union of this run and `other`, both in canonical key order (the
    /// projection through `canonical`), in that order too and deduplicated:
    /// one merge walk.
    pub(crate) fn merge(self, other: FrameRun, canonical: &[usize]) -> FrameRun {
        debug_assert_eq!(self.slots, other.slots, "runs of one body share a slot layout");
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        let mut out = FrameRun::new(self.slots);
        let (mut a, mut b) = (self.frames().peekable(), other.frames().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match key_cmp(canonical, x, y) {
                Ordering::Less => out.push(a.next().expect("peeked")),
                Ordering::Greater => out.push(b.next().expect("peeked")),
                Ordering::Equal => {
                    out.push(a.next().expect("peeked"));
                    b.next();
                }
            }
        }
        a.chain(b).for_each(|frame| out.push(frame));
        out
    }

    /// The frames of this run that `other` lacks, both in canonical key
    /// order, and the result too: one merge walk.
    pub(crate) fn difference(&self, other: &FrameRun, canonical: &[usize]) -> FrameRun {
        let mut theirs = other.frames().peekable();
        self.filtered(|frame| {
            while theirs.next_if(|t| key_cmp(canonical, t, frame).is_lt()).is_some() {}
            theirs.next_if(|t| key_cmp(canonical, t, frame).is_eq()).is_none()
        })
    }

    /// The run in the order of its projection through `canonical` — the
    /// slots, canonical key order — and then of any words after the slots,
    /// with duplicates dropped (`dedup`) or kept (equal keys: equal frames).
    ///
    /// A run whose leading key never descends — what a first atom seeded
    /// from an extent or an index enumerates — is sorted in place a segment
    /// of equal leading keys at a time: one in order is left as it is, one
    /// of at most `INSERTION_SORT_CAP` frames insertion-sorted, a longer one
    /// sorted through an index.  Any other run is sorted through an index
    /// and rebuilt.
    fn sorted(mut self, canonical: &[usize], dedup: bool) -> FrameRun {
        let w = self.slots;
        if self.len < 2 || w == 0 {
            self.len = self.len.min(1);
            return self;
        }
        let order: Vec<usize> = canonical.iter().copied().chain(canonical.len()..w).collect();
        let by_key = |a: &[u32], b: &[u32]| key_cmp(&order, a, b);
        let Some(lead) = self.ascending_lead(canonical) else {
            let frame = |&i: &u32| &self.arena[i as usize * w..(i as usize + 1) * w];
            let mut idx: Vec<u32> = (0..self.len as u32).collect();
            idx.sort_unstable_by(|a, b| by_key(frame(a), frame(b)));
            if dedup {
                idx.dedup_by(|a, b| frame(a) == frame(b));
            }
            let mut arena = Vec::with_capacity(idx.len() * w);
            idx.iter().for_each(|i| arena.extend_from_slice(frame(i)));
            return FrameRun {
                arena,
                slots: w,
                len: idx.len(),
            };
        };
        let (mut idx, mut buf) = (Vec::new(), Vec::new());
        let mut rest = &mut self.arena[..];
        while !rest.is_empty() {
            let len = rest.chunks_exact(w).take_while(|f| f[lead] == rest[lead]).count();
            let (segment, tail) = std::mem::take(&mut rest).split_at_mut(len * w);
            rest = tail;
            let frame = |i: usize| &segment[i * w..(i + 1) * w];
            if len <= INSERTION_SORT_CAP {
                for i in 1..len {
                    let past = |&j: &usize| by_key(&segment[j * w..(j + 1) * w], &segment[i * w..(i + 1) * w]).is_gt();
                    if let Some(to) = (0..i).rev().take_while(past).last() {
                        segment[to * w..(i + 1) * w].rotate_right(w);
                    }
                }
            } else if (1..len).any(|i| by_key(frame(i - 1), frame(i)).is_gt()) {
                idx.clear();
                idx.extend(0..len);
                idx.sort_unstable_by(|&a, &b| by_key(frame(a), frame(b)));
                buf.clear();
                idx.iter().for_each(|&i| buf.extend_from_slice(frame(i)));
                segment.copy_from_slice(&buf);
            }
        }
        if dedup {
            let mut kept = 1;
            for i in 1..self.len {
                if self.arena[i * w..(i + 1) * w] != self.arena[(kept - 1) * w..kept * w] {
                    if kept < i {
                        self.arena.copy_within(i * w..(i + 1) * w, kept * w);
                    }
                    kept += 1;
                }
            }
            self.arena.truncate(kept * w);
            self.len = kept;
        }
        self
    }

    /// The word that leads the key of a frame — its first under the
    /// projection through `canonical`, then the words after the slots — when
    /// it never descends from frame to frame: [`FrameRun::sorted`] then sorts
    /// one segment of equal leading words at a time.
    fn ascending_lead(&self, canonical: &[usize]) -> Option<usize> {
        let lead = canonical.first().copied().unwrap_or(0);
        let leads = self.arena.get(lead..).unwrap_or_default();
        let ascends = self.slots > 0 && leads.iter().step_by(self.slots).is_sorted();
        ascends.then_some(lead)
    }
}

/// The longest segment [`FrameRun::sorted`] insertion-sorts.
const INSERTION_SORT_CAP: usize = 16;

/// Compare two frames word by word, in the order `canonical` lists them.
fn key_cmp(canonical: &[usize], a: &[u32], b: &[u32]) -> Ordering {
    canonical
        .iter()
        .map(|&s| a[s].cmp(&b[s]))
        .find(|ord| ord.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Merge the [`FrameRun`]s of one rule's passes into a single deduplicated
/// run in canonical key order.  The merged run is a function of the *union*
/// of the runs only, so any split of the same solutions — one run per
/// drivable literal, or one big run — commits them in the same order.
pub fn merge_frame_runs(mut runs: Vec<FrameRun>, canonical: &[usize]) -> FrameRun {
    if runs.len() == 1 {
        return runs.pop().expect("just checked length");
    }
    let mut all = FrameRun::new(canonical.len());
    for r in runs {
        debug_assert_eq!(r.slots, all.slots, "runs of one rule share a slot layout");
        all.arena.extend_from_slice(&r.arena);
        all.len += r.len;
    }
    all.sorted(canonical, true)
}

/// Execute one delta pass of `compiled` by its iteration's `plan`
/// ([`plan_pass`]): positive literal `delta_lit` restricted to the window
/// `dv`, every other literal joined against the full structure, the negated
/// literals applied as anti-joins last.  Returns the pass's solutions in
/// canonical key order: every solution of the body whose derivation reads the
/// window through `delta_lit`, and only solutions of the body (the
/// over-approximation a restricted atom step is allowed — see [`atoms`] — is
/// absorbed by the deduplicating merge and the idempotent commit).  Every
/// unrestricted literal runs its planned atom steps; the restricted one runs
/// with each atom restricted in turn first, the rest in lowering order —
/// one chain after the other over all of its input, so it emits chain by
/// chain rather than frame by frame; the deduplicating sort after it absorbs
/// that order, as it absorbs any other.
pub fn execute_delta(
    structure: &Structure,
    compiled: &CompiledRule,
    plan: &BodyPlan,
    delta_lit: usize,
    dv: &DeltaView,
) -> Result<FrameRun> {
    let mut machine = atoms::Machine::new(structure, dv, compiled);
    let start = FrameRun::single(compiled.slot_count(), []);
    run(&mut machine, compiled, plan, Some(delta_lit), true, start)
}

/// Join the positive literals of `plan` in order from the frames of `start`
/// — the one empty frame, or the seeds of [`execute_seeded`] — with
/// `delta_lit` restricted to the machine's window, then drop the frames one
/// of its negated literals holds of.  Each literal is one batch: its atom
/// steps map all of the stage's frames at once, through the machine's two
/// reused row buffers ([`atoms`], "Batch steps"), and an anti-join probes
/// every frame of the stage in one run ("Anti-joins").
///
/// Frames live in one flat arena per stage — one allocation per stage
/// instead of one per candidate.  With `dedup` every stage deduplicates: a
/// duplicate frame would fan out duplicated downstream work (or, after the
/// last stage, duplicated negation probes and commits), and frames between
/// stages are just value sets, so the canonical order the result needs
/// serves every stage.  Without, a stage sorts only — every completion is an
/// answer ([`execute_term`]).
fn run<'a>(
    machine: &mut atoms::Machine<'a>,
    compiled: &'a CompiledRule,
    plan: &BodyPlan,
    delta_lit: Option<usize>,
    dedup: bool,
    start: FrameRun,
) -> Result<FrameRun> {
    let mut frames = start;
    for planned in &plan.positives {
        let lit = compiled.literal(planned.body_index);
        // A name the structure does not know denotes nothing.
        if !machine.knows(lit) {
            return Ok(FrameRun::new(compiled.slot_count()));
        }
        // The window seeds a restricted literal's chain (see `atoms`).
        let restricted = delta_lit == Some(planned.body_index);
        let steps = (!restricted).then_some(planned.atoms.as_slice());
        frames = machine
            .join(lit, steps, restricted, &frames)?
            .sorted(&compiled.canonical, dedup);
        if frames.is_empty() {
            return Ok(frames);
        }
    }
    for planned in &plan.negations {
        let lit = compiled.literal(planned.body_index);
        // A literal naming an unknown object holds of nothing.
        if machine.knows(lit) {
            frames = machine.anti_join(lit, &planned.atoms, &frames)?;
        }
    }
    Ok(frames)
}

/// One literal of a [`BodyPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralSteps {
    /// Index of the literal in the body.
    pub body_index: usize,
    /// What a positive literal was ordered by: the cardinality of the
    /// cheapest step it could start with when only names are bound — for a
    /// drivable literal of a pass, at most the window's entry count.  (Of
    /// the only positive literal and of a negated one, which are not
    /// ordered: the cardinality of its first step.)
    pub cost: usize,
    /// Its atoms in execution order, each with the cardinality it was
    /// chosen at.
    pub atoms: Vec<AtomStep>,
}

/// How a body runs over one structure: the order of its positive literals
/// and, per literal, of its atoms.  What `pathlog_shell --explain` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyPlan {
    /// The positive literals, in execution order.
    pub positives: Vec<LiteralSteps>,
    /// The negated literals, in body order: anti-joins after the positives.
    pub negations: Vec<LiteralSteps>,
    /// `false` when the planner put a literal cheaper than the delta ahead
    /// of every delta-drivable literal — a *seed flip* (also reported when
    /// the only drivable literal is a guard waiting for its variables).  A
    /// plan with nothing drivable never reports one.
    pub seeded_from_delta: bool,
}

/// Plan `compiled` against the live cardinalities of `structure` (see the
/// module docs, "Planning").  `drivable` are the body indices a delta window
/// can drive — the engine's `delta_literals` selection; none for a full
/// solve or a query — and `delta_entries` the window's entry count; a
/// drivable literal costs `min(posting-list length, delta_entries)`.  The
/// literal order is greedy: cheapest literal first, then repeatedly the
/// cheapest literal *connected* to the bound variables (ties broken by body
/// position; disconnected literals only when nothing connected remains),
/// with guards emitted at the earliest position where all their variables
/// are bound.  The engine plans once per rule and iteration, and all of the
/// rule's passes share the plan — the completeness argument in the module
/// docs relies on that.  A body compiled with its written order pinned gets
/// exactly that order, whatever the costs; that is no decision of the
/// planner, so it is never reported as a seed flip.  O(literals² + atoms²)
/// posting-list lookups; no fact is read.
pub fn plan_pass(structure: &Structure, compiled: &CompiledRule, drivable: &[usize], delta_entries: usize) -> BodyPlan {
    let dv = DeltaView::empty(structure);
    let machine = atoms::Machine::new(structure, &dv, compiled);
    plan_with(&machine, compiled, drivable, delta_entries, machine.names_bound())
}

/// Plan `compiled`, a query body: [`plan_pass`] with nothing drivable.
pub fn plan_query(structure: &Structure, compiled: &CompiledRule) -> BodyPlan {
    plan_pass(structure, compiled, &[], 0)
}

/// The atom steps [`plan_pass`] gives each literal of `compiled` when its
/// positive literals run in the order of `positions` (body indices, every
/// positive literal once).  A pinned order is no decision of the planner:
/// the plan reports no seed flip.
pub fn plan_in_order(structure: &Structure, compiled: &CompiledRule, positions: &[usize]) -> BodyPlan {
    let dv = DeltaView::empty(structure);
    let machine = atoms::Machine::new(structure, &dv, compiled);
    steps_in_order(&machine, compiled, positions, |_| None, true, machine.names_bound())
}

/// [`plan_pass`] with the cells marked in `bound` — the names the structure
/// knows ([`atoms::Machine::names_bound`]) and any slot every starting frame
/// binds — bound before the first literal runs.
fn plan_with(
    machine: &atoms::Machine<'_>,
    compiled: &CompiledRule,
    drivable: &[usize],
    delta_entries: usize,
    bound: Vec<bool>,
) -> BodyPlan {
    let costs: Vec<(usize, usize)> = match compiled.positives.as_slice() {
        // Nothing to order: the literal starts with its first step.
        [_] => Vec::new(),
        literals => {
            let cost = |l: &CompiledLiteral| {
                let seed = machine.seed_cardinality(l, &bound);
                if drivable.contains(&l.body_index) {
                    seed.min(delta_entries)
                } else {
                    seed
                }
            };
            literals.iter().map(|l| (l.body_index, cost(l))).collect()
        }
    };
    let cost = |j: usize| costs.iter().find(|c| c.0 == j).map(|c| c.1);
    let seeded_slots = (0..compiled.slot_count()).filter(|&s| bound[s]);
    let positions = literal_order(compiled, seeded_slots.collect(), |l| cost(l.body_index).unwrap_or(0));
    let seeded_from_delta =
        compiled.written_order || drivable.is_empty() || positions.first().is_some_and(|j| drivable.contains(j));
    steps_in_order(machine, compiled, &positions, cost, seeded_from_delta, bound)
}

/// Order the atoms of every literal of `compiled`, the positive ones run in
/// the order of `positions` and costed by `cost` (by their first step
/// without), from the cells marked in `bound`.
fn steps_in_order(
    machine: &atoms::Machine<'_>,
    compiled: &CompiledRule,
    positions: &[usize],
    cost: impl Fn(usize) -> Option<usize>,
    seeded_from_delta: bool,
    mut bound: Vec<bool>,
) -> BodyPlan {
    let steps = |lit: &CompiledLiteral, cost: Option<usize>, bound: &mut [bool]| {
        let atoms = machine.order_atoms(lit, bound);
        LiteralSteps {
            body_index: lit.body_index,
            cost: cost.unwrap_or(atoms[0].cardinality),
            atoms,
        }
    };
    let positives = positions
        .iter()
        .map(|&j| steps(compiled.literal(j), cost(j), &mut bound))
        .collect();
    // What a negated literal binds is bound for that literal only.
    let negations = compiled
        .negations
        .iter()
        .map(|lit| steps(lit, None, &mut bound.clone()))
        .collect();
    BodyPlan {
        positives,
        negations,
        seeded_from_delta,
    }
}

/// Answer the query body `compiled` over `structure`: its solutions as
/// frames in canonical key order, deduplicated — a delta pass with no
/// literal restricted, over the empty window, in the order of
/// [`plan_query`].
pub fn execute_query(structure: &Structure, compiled: &CompiledRule) -> Result<FrameRun> {
    let dv = DeltaView::empty(structure);
    let mut machine = atoms::Machine::new(structure, &dv, compiled);
    let plan = plan_with(&machine, compiled, &[], 0, machine.names_bound());
    let start = FrameRun::single(compiled.slot_count(), []);
    run(&mut machine, compiled, &plan, None, true, start)
}

/// Answer the single reference `compiled` was compiled from
/// (`compile_query([(true, term)])`): **one frame per derivation path** —
/// per completion of the literal's atoms, temporaries included — each
/// followed by one more word, the object the reference denotes along that
/// path (object id + 1).  `e..vehicles.color` answers once per vehicle.
/// Frames are in canonical `(key, object)` order; duplicates are kept.
///
/// A reference whose last step expands the stored member runs of the
/// applications its slots and names select (`X..m`, `X..m@(Y)`, `peter..m`:
/// see [`atoms::aliased_member`]) keeps those runs instead, returned beside
/// the frames: one frame per application, its word after the slots the
/// index of its run, in canonical key order — each key once, so reading the
/// runs frame by frame is reading `(key, object)` order.
pub fn execute_term(structure: &Structure, compiled: &CompiledRule) -> Result<(FrameRun, Option<Vec<OidRun>>)> {
    debug_assert_eq!((compiled.positives.len(), compiled.negations.len()), (1, 0));
    let dv = DeltaView::empty(structure);
    let mut machine = atoms::Machine::new(structure, &dv, compiled);
    let mut plan = plan_with(&machine, compiled, &[], 0, machine.names_bound());
    let lit = &compiled.positives[0];
    machine.emit_denoted(lit.denoted);
    if let Some(at) = atoms::aliased_member(lit) {
        // Run last: every other step reads slots and names only.
        let steps = &mut plan.positives[0].atoms;
        let step = steps.remove(steps.iter().position(|s| s.atom == at).expect("every atom is planned"));
        steps.push(step);
        machine.keep_member_runs();
    }
    let start = FrameRun::single(compiled.slot_count(), []);
    let run = run(&mut machine, compiled, &plan, None, false, start)?;
    let members = machine.take_member_runs();
    let prefixes = || run.frames().map(|f| &f[..compiled.slot_count()]);
    debug_assert!(members.is_none() || prefixes().zip(prefixes().skip(1)).all(|(a, b)| a != b));
    Ok((run, members))
}

/// The solutions of the query body `compiled` that bind `slot` to one of
/// `seeds`, as frames in canonical key order, deduplicated — the frames of
/// [`execute_query`] holding a seed at `slot`.  The join starts from one
/// frame per seed and is planned with the slot bound ([`plan_pass`] costs
/// the literals that read it as probes), so it costs what the seeds reach,
/// not what the relation holds.  `slot` must be one a positive literal
/// binds.  A prepare ([`prepare_seeded`]) and one run ([`run_prepared`]).
pub fn execute_seeded(structure: &Structure, compiled: &CompiledRule, slot: usize, seeds: &[Oid]) -> Result<FrameRun> {
    let prepared = prepare_seeded(structure, compiled, &[slot]);
    let mut start = FrameRun::new(compiled.slot_count());
    let mut frame = vec![0; compiled.slot_count()];
    for seed in seeds {
        frame[slot] = seed.0 + 1;
        start.push(&frame);
    }
    run_prepared(structure, compiled, &prepared, start)
}

/// A query body made ready to run from frames that bind some of its slots
/// ([`prepare_seeded`]): its names resolved against one structure, and its
/// plan made with those slots bound.  It runs ([`run_prepared`]) over that
/// structure as it grows: a structure never forgets a name it knows, and a
/// plan decides how long a run takes, never what it finds.  A name the
/// structure did not know when the body was prepared denotes nothing in
/// every run of it, so a body prepared before all of its names were known
/// is prepared again once they are ([`Prepared::knows_every_name`]); a
/// structure restored to an earlier state may know fewer names, or other
/// objects by them, and needs its bodies prepared again too.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// One cell per name of the body: object id + 1, `0` when unknown.
    names: Vec<u32>,
    plan: BodyPlan,
    /// The empty window the machine's restricted steps would read, which a
    /// run never takes: nothing entered it, wherever it stands.
    window: DeltaView,
}

impl Prepared {
    /// Did the structure know every name of the body when it was prepared?
    pub fn knows_every_name(&self) -> bool {
        self.names.iter().all(|&c| c != 0)
    }
}

/// Prepare the query body `compiled` to run over `structure` from frames
/// binding every slot of `seeded` (see [`Prepared`]): resolve its names once
/// and plan it ([`plan_pass`]) with those slots bound.  A seeded slot need
/// not be one a positive literal binds: a slot only a negated literal reads
/// is bound in every frame the anti-join probes.
pub fn prepare_seeded(structure: &Structure, compiled: &CompiledRule, seeded: &[usize]) -> Prepared {
    let window = DeltaView::empty(structure);
    let names = atoms::resolve_names(structure, compiled);
    let plan = {
        let machine = atoms::Machine::with_names(structure, &window, compiled, Cow::Borrowed(&names));
        let mut bound = machine.names_bound();
        for &slot in seeded {
            bound[slot] = true;
        }
        plan_with(&machine, compiled, &[], 0, bound)
    };
    Prepared { names, plan, window }
}

/// Run the body `prepared` was made of over `structure` from the frames of
/// `start` — each binding at least the slots it was prepared with — by its
/// plan, with the names it resolved: the solutions extending a start frame,
/// in canonical key order, deduplicated.  A start run in that order and
/// without duplicates is one a body without positive literals returns as
/// it is, bar the frames a negated literal drops.
pub fn run_prepared(
    structure: &Structure,
    compiled: &CompiledRule,
    prepared: &Prepared,
    start: FrameRun,
) -> Result<FrameRun> {
    let names = Cow::Borrowed(prepared.names.as_slice());
    let mut machine = atoms::Machine::with_names(structure, &prepared.window, compiled, names);
    run(&mut machine, compiled, &prepared.plan, None, true, start)
}

/// How many candidates a solve of the query body `compiled` starts from:
/// the cost of the first literal [`plan_query`] runs — a seeded solve
/// ([`execute_seeded`]) with more seeds than this costs more than a whole
/// one.
pub fn start_cardinality(structure: &Structure, compiled: &CompiledRule) -> usize {
    plan_query(structure, compiled).positives.first().map_or(0, |l| l.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    use crate::builtins::{LT, NEQ};
    use crate::engine::{binding_key, BindingKey};
    use crate::names::Name;
    use crate::program::Literal;
    use crate::semantics::{solve_body, SnapshotWindow};
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

    /// The body indices of `plan`'s positive literals, in execution order.
    fn order(plan: &BodyPlan) -> Vec<usize> {
        plan.positives.iter().map(|l| l.body_index).collect()
    }

    #[test]
    fn slots_are_first_occurrence_ordered_and_canonical_is_name_sorted() {
        let c = compile(&three_literal_rule());
        assert_eq!(c.slot_count(), 3);
        assert_eq!(c.slot_var(0), &Var::new("X"));
        assert_eq!(c.slot_var(1), &Var::new("Y"));
        assert_eq!(c.slot_var(2), &Var::new("Z"));
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
        let c = compile(&rule);
        assert_eq!(c.positives().len(), 1);
        assert_eq!(c.negations().iter().map(|l| l.body_index).collect::<Vec<_>>(), vec![1]);
        let plan = plan_pass(&kids_structure(), &c, &[0], 10);
        assert_eq!(order(&plan), vec![0]);
        assert_eq!(plan.negations.iter().map(|l| l.body_index).collect::<Vec<_>>(), vec![1]);
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
        let c = compile(&rule);
        assert!(c.positives()[2].guard);
        let positions = order(&plan_pass(&kids_structure(), &c, &[0, 1], usize::MAX));
        // Both person literals precede the guard; the guard sits right after
        // the position that binds its second variable.
        assert_eq!(positions.len(), 3);
        assert_eq!(positions[2], 2);
    }

    #[test]
    fn strict_superset_literal_is_planned_like_a_guard() {
        // X : person, X[kids ->> X..desc] — the strict check must not seed
        // the join, however small the delta that drives it: with X unbound it
        // ranges over the defined `kids` applications and misses `d`, which
        // has none and needs none.
        let strict = Literal::pos(Term::var("X").filter(Filter::set_ref("kids", Term::var("X").set("desc"))));
        let rule = Rule::new(
            Term::var("X").isa("covered"),
            vec![Literal::pos(Term::var("X").isa("person")), strict.clone()],
        );
        let s = kids_structure();
        let c = compile(&rule);
        assert!(c.positives()[1].guard && !c.written_order);
        for (drivable, delta_entries) in [(vec![1], 1), (vec![0, 1], usize::MAX)] {
            assert_eq!(order(&plan_pass(&s, &c, &drivable, delta_entries)), vec![0, 1]);
        }
        // Written first, its receiver is unbound in written order too: the
        // body is pinned, as for an enumerating built-in.
        let rule = Rule::new(
            Term::var("X").isa("covered"),
            vec![strict, Literal::pos(Term::var("X").isa("person"))],
        );
        let c = compile(&rule);
        assert!(c.written_order);
        assert_eq!(order(&plan_pass(&s, &c, &[1], 1)), vec![0, 1]);
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
        let c = compile(&rule);
        assert!(c.positives()[1].guard);
        // Whichever literal the window drives and however small the delta,
        // the order is the written one and no seed flip is reported.
        for (drivable, delta_entries) in [(vec![0], 1), (vec![2], 1), (vec![0, 2], usize::MAX), (vec![], 0)] {
            let plan = plan_pass(&s, &c, &drivable, delta_entries);
            assert_eq!(order(&plan), vec![0, 1, 2], "{drivable:?}");
            assert!(plan.seeded_from_delta, "{drivable:?}");
        }
    }

    #[test]
    fn small_delta_seeds_the_drivable_literal() {
        let c = compile(&three_literal_rule());
        // A delta of 1 entry drives literal 1: it seeds, below the 3 `kids`
        // members of literal 0 and the 4 persons of literal 2; then the
        // shorter of its two join partners, both connected (literal 0 through
        // Y, literal 2 through Z).
        let plan = plan_pass(&kids_structure(), &c, &[1], 1);
        assert!(plan.seeded_from_delta);
        let costs: Vec<usize> = plan.positives.iter().map(|l| l.cost).collect();
        assert_eq!((order(&plan), costs), (vec![1, 0, 2], vec![1, 3, 4]));
    }

    #[test]
    fn huge_delta_flips_the_seed_side() {
        let c = compile(&three_literal_rule());
        // With a delta longer than every posting list the planner seeds from
        // the shortest one instead: literal 0's 3 `kids` members, which tie
        // with the drivable literal 1 and come first in the body.
        let plan = plan_pass(&kids_structure(), &c, &[1], 1_000_000);
        assert!(!plan.seeded_from_delta);
        assert_eq!((plan.positives[0].body_index, plan.positives[0].cost), (0, 3));
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
    /// — one per literal in `drivable`, by the plan [`plan_pass`] makes for
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
        let c = compile(rule);
        let plan = plan_pass(after, &c, drivable, delta_entries);
        let (old, new) = (oracle_keys(before, &rule.body), oracle_keys(after, &rule.body));
        let mut found = BTreeSet::new();
        for &delta_lit in drivable {
            let run = execute_delta(after, &c, &plan, delta_lit, &dv).unwrap();
            let keys: Vec<BindingKey> = run.frames().map(|f| binding_key(&c.bindings_of(f))).collect();
            assert_eq!(keys.len(), run.len());
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "canonical, deduplicated");
            for k in keys {
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
    fn single_literal_rule_compiles_and_executes() {
        let (before, after) = with_kids_edge("d", "a");
        let rule = tc_rule();
        let c = compile(&rule);
        assert_eq!(c.slot_count(), 2);
        assert!(plan_pass(&after, &c, &[0], 1).seeded_from_delta);
        let found = checked_passes(&before, &after, &rule, &[0], 1);
        assert_eq!(found.len(), 1, "exactly the new edge");
    }

    #[test]
    fn literals_lower_to_atoms() {
        use Operand::{Name as N, Slot, Temp};
        let call = |method, receiver| Call {
            method,
            receiver,
            args: vec![],
        };
        // X[desc ->> {Y}] <- X..desc[kids ->> {Y}], X : person, not X.boss[], Z
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![
                Literal::pos(
                    Term::var("X")
                        .set("desc")
                        .filter(Filter::set("kids", vec![Term::var("Y")])),
                ),
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("X").scalar("boss").empty_filters()),
                Literal::pos(Term::var("Z")),
            ],
        );
        let c = compile(&rule);
        assert_eq!(c.names(), ["desc", "kids", "person", "boss"].map(Name::atom));
        // A path is one application into a temporary; the molecule applies
        // its filter to it.
        assert_eq!(
            c.positives()[0].atoms,
            vec![
                Atom::Member {
                    call: call(N(0), Slot(0)),
                    member: Temp(0)
                },
                Atom::Member {
                    call: call(N(1), Temp(0)),
                    member: Slot(1)
                },
            ]
        );
        assert_eq!(
            c.positives()[1].atoms,
            vec![Atom::Isa {
                instance: Slot(0),
                class: N(2)
            }]
        );
        assert_eq!(
            c.negations()[0].atoms,
            vec![
                Atom::Scalar {
                    call: call(N(3), Slot(0)),
                    result: Temp(0)
                },
                Atom::Object { cell: Temp(0) },
            ]
        );
        assert_eq!(c.positives()[2].atoms, vec![Atom::Object { cell: Slot(2) }]);
    }

    #[test]
    fn passes_return_frames_a_member_insert_reads_directly() {
        let mut s = kids_structure();
        let mut window = SnapshotWindow::capture(&s);
        let kids = s.ensure_name(&Name::atom("kids"));
        let (a, b) = (s.ensure_name(&Name::atom("a")), s.ensure_name(&Name::atom("b")));
        s.assert_set_member(kids, b, &[], a);
        let dv = window.slide(&s);
        let rule = tc_rule();
        let c = compile(&rule);
        let plan = plan_pass(&s, &c, &[0], 1);
        let fr = execute_delta(&s, &c, &plan, 0, &dv).unwrap();
        let mut heads = HeadArena::default();
        let head = heads
            .lower(&mut crate::structure::NameCache::new(&mut s), &rule.head, c.slot_vars())
            .unwrap();
        let (receiver, _, member) = heads
            .member_insert(&head)
            .expect("X[desc ->> {Y}] is one member insert");
        let frames: Vec<(Oid, Oid)> = fr
            .frames()
            .map(|f| (Oid(f[receiver] - 1), Oid(f[member] - 1)))
            .collect();
        assert_eq!(frames, vec![(b, a)]);
    }

    #[test]
    fn an_unrestricted_literal_of_a_pass_starts_from_the_shorter_posting_list() {
        // Ten employees, two of them 33; the window gives five of them a kid.
        let mut before = Structure::new();
        let (employee, age, kids) = (before.atom("employee"), before.atom("age"), before.atom("kids"));
        let people: Vec<Oid> = (0..10).map(|i| before.atom(&format!("e{i}"))).collect();
        for (i, &p) in people.iter().enumerate() {
            before.add_isa(p, employee);
            let years = before.int(if i < 2 { 33 } else { 40 });
            before.assert_scalar(age, p, &[], years).unwrap();
        }
        let mut after = before.clone();
        for i in [0, 1, 5, 6, 7] {
            let kid = after.atom(&format!("k{i}"));
            after.assert_set_member(kids, people[i], &[], kid);
        }
        let dv = SnapshotWindow::capture(&before).slide(&after);
        // X[pals ->> {Y}] <- X : employee[age -> 33], X[kids ->> {Y}]
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("pals", vec![Term::var("Y")])),
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("age", Term::int(33))),
                ),
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
            ],
        );
        let c = compile(&rule);
        // The two receivers of `age -> 33` undercut the five window entries
        // that drive literal 1: literal 0 seeds, from `age -> 33` rather than
        // from the ten members of `employee`, which it then probes.
        let plan = plan_pass(&after, &c, &[1], dv.entry_count());
        assert!(!plan.seeded_from_delta, "{plan:?}");
        let seed = &plan.positives[0];
        let atoms: Vec<(usize, usize)> = seed.atoms.iter().map(|s| (s.atom, s.cardinality)).collect();
        assert_eq!((seed.body_index, seed.cost, atoms), (0, 2, vec![(1, 2), (0, 1)]));
        // The same pass with literal 0's atoms in lowering order.
        let mut lowered = plan.clone();
        lowered.positives[0].atoms.sort_by_key(|s| s.atom);
        let pass = |plan: &BodyPlan| execute_delta(&after, &c, plan, 1, &dv).unwrap();
        assert_eq!(pass(&plan), pass(&lowered));
        assert_eq!(pass(&plan).len(), 2, "the new kids of e0 and e1");
    }

    #[test]
    fn ground_body_yields_one_empty_frame_when_it_holds() {
        // flag[on ->> {yes}] <- a[kids ->> {e}]: no variable, no slot.
        let rule = Rule::new(
            Term::name("flag").filter(Filter::set("on", vec![Term::name("yes")])),
            vec![Literal::pos(
                Term::name("a").filter(Filter::set("kids", vec![Term::name("e")])),
            )],
        );
        let (before, after) = with_kids_edge("a", "e");
        let found = checked_passes(&before, &after, &rule, &[0], 1);
        assert_eq!(found, BTreeSet::from([vec![]]), "the one solution binds nothing");
        let (before, after) = with_kids_edge("b", "e");
        assert!(checked_passes(&before, &after, &rule, &[0], 1).is_empty());
    }

    #[test]
    fn a_query_is_a_pass_with_nothing_restricted() {
        let s = kids_structure();
        let query = |body: &[Literal]| {
            let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
            let run = execute_query(&s, &compiled).unwrap();
            let keys: Vec<BindingKey> = run.frames().map(|f| binding_key(&compiled.bindings_of(f))).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "canonical, deduplicated");
            assert_eq!(keys.iter().cloned().collect::<BTreeSet<_>>(), oracle_keys(&s, body));
            keys
        };
        // Z : person, X[kids ->> {Y}], Y[kids ->> {Z}] — the class test
        // written first is planned last: it probes what the joins bound.
        let mut body = three_literal_rule().body;
        body.rotate_right(1);
        assert_eq!(query(&body).len(), 2);
        let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
        let plan = plan_query(&s, &compiled);
        let order: Vec<usize> = plan.positives.iter().map(|l| l.body_index).collect();
        assert_eq!(order, [1, 2, 0], "{plan:?}");
        assert_eq!((plan.positives[0].cost, plan.positives[2].cost), (3, 4));
        // A ground body holds (one empty frame) or does not (none).
        let edge = |to| Literal::pos(Term::name("a").filter(Filter::set("kids", vec![Term::name(to)])));
        assert_eq!(query(&[edge("b")]), vec![vec![]]);
        assert!(query(&[edge("c")]).is_empty());
        assert!(query(&[edge("b"), Literal::neg(Term::name("a").isa("person"))]).is_empty());
    }

    #[test]
    fn a_reference_denotes_once_per_derivation_path() {
        // a and d both have the kids b and c, who share the kid e:
        // `X..kids..kids` denotes e twice for each X.
        let mut s = Structure::new();
        let kids = s.atom("kids");
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| s.atom(n));
        for (parent, kid) in [(a, b), (a, c), (d, b), (d, c), (b, e), (c, e)] {
            s.assert_set_member(kids, parent, &[], kid);
        }
        let term = Term::var("X").set("kids").set("kids");
        let compiled = compile_query([(true, &term)]);
        let lit = &compiled.positives()[0];
        assert_eq!(lit.denoted, Operand::Temp(1));
        let texts: Vec<String> = lit.atoms.iter().map(|a| compiled.atom_text(a)).collect();
        assert_eq!(texts, ["X[kids ->> {_1}]", "_1[kids ->> {_2}]"]);
        let (run, members) = execute_term(&s, &compiled).unwrap();
        assert!(members.is_none(), "the second step's receiver is a temporary");
        let answers: Vec<(Oid, Oid)> = run.frames().map(|f| (Oid(f[0] - 1), Oid(f[1] - 1))).collect();
        assert_eq!(
            answers,
            [(a, e), (a, e), (d, e), (d, e)],
            "(key, object) order, duplicates kept"
        );
    }

    #[test]
    fn an_extent_seeded_chain_emits_in_depth_first_order() {
        // Three persons among twelve objects, each object with two kids and
        // an age: the class test is the cheapest seed of
        // `A : person[kids ->> {B[age -> C]}]`, the kids and the age probes.
        let mut s = Structure::new();
        let (person, kids, age) = (s.atom("person"), s.atom("kids"), s.atom("age"));
        let objects: Vec<Oid> = (0..12).map(|i| s.atom(&format!("o{i}"))).collect();
        for p in [7, 2, 9] {
            s.add_isa(objects[p], person);
        }
        for (i, &o) in objects.iter().enumerate() {
            for k in [(i * 5 + 1) % 12, (i * 7 + 3) % 12] {
                s.assert_set_member(kids, o, &[], objects[k]);
            }
            let years = s.int(i as i64 % 4);
            s.assert_scalar(age, o, &[], years).unwrap();
        }
        let term = Term::var("A").isa("person").filter(Filter::set(
            "kids",
            vec![Term::var("B").filter(Filter::scalar("age", Term::var("C")))],
        ));
        let compiled = compile_query([(true, &term)]);
        let lit = &compiled.positives()[0];
        let steps = &plan_query(&s, &compiled).positives[0].atoms;
        let kinds: Vec<&Atom> = steps.iter().map(|step| &lit.atoms[step.atom]).collect();
        assert!(
            matches!(kinds[..], [Atom::Isa { .. }, Atom::Member { .. }, Atom::Scalar { .. }]),
            "{steps:?}"
        );
        let dv = DeltaView::empty(&s);
        let mut machine = atoms::Machine::new(&s, &dv, &compiled);
        let joined = machine.join(lit, Some(steps), false, &FrameRun::single(3, [])).unwrap();
        // The nested loops of the depth-first reading: the extent, each
        // instance's kids, each kid's age — before any sort.
        let mut nested = Vec::new();
        for a in s.instances_of(person) {
            for &b in s.apply_set(kids, a, &[]).unwrap().iter() {
                let c = s.apply_scalar(age, b, &[]).unwrap();
                nested.push([a, b, c].map(|o| o.0 + 1).to_vec());
            }
        }
        let frames: Vec<Vec<u32>> = joined.frames().map(<[u32]>::to_vec).collect();
        assert_eq!(frames, nested);
        // The extent's variable leads the canonical key and ascends: the
        // sort after the literal goes one segment of equal leads at a time.
        assert_eq!(compiled.canonical(), [0, 1, 2]);
        assert_eq!(joined.ascending_lead(compiled.canonical()), Some(0));
        let sorted: Vec<Vec<u32>> = joined
            .sorted(compiled.canonical(), true)
            .frames()
            .map(<[u32]>::to_vec)
            .collect();
        let mut want = nested;
        want.sort();
        want.dedup();
        assert_eq!(sorted, want);
    }

    #[test]
    fn merged_runs_are_a_canonical_union() {
        // Slots X, Y with Y first in name order ("B" < "C"): canonical [1, 0].
        let run = |frames: &[[u32; 2]]| {
            let mut r = FrameRun::new(2);
            frames.iter().for_each(|f| r.push(f));
            r
        };
        let canonical = [1, 0];
        let (a, b) = (run(&[[9, 1], [2, 2]]), run(&[[2, 2], [1, 3]]));
        let merged = merge_frame_runs(vec![a.clone(), b.clone()], &canonical);
        let frames: Vec<&[u32]> = merged.frames().collect();
        assert_eq!(frames, [[9, 1], [2, 2], [1, 3]], "Y-major order, the shared frame once");
        // How the solutions are split into runs does not change the order.
        let one = run(&[[1, 3], [2, 2], [9, 1], [2, 2]]).sorted(&canonical, true);
        assert_eq!(one, merged);
        assert_eq!(merge_frame_runs(vec![b, a], &canonical), merged);
        // Without slots a run holds at most the one empty frame.
        let unit = || {
            let mut r = FrameRun::new(0);
            r.push(&[]);
            r
        };
        assert_eq!(merge_frame_runs(vec![unit(), FrameRun::new(0), unit()], &[]).len(), 1);
        assert!(merge_frame_runs(vec![FrameRun::new(0), FrameRun::new(0)], &[]).is_empty());
    }

    #[test]
    fn an_empty_run_whose_key_leads_with_a_later_slot_sorts_to_itself() {
        let empty = FrameRun::new(2);
        assert_eq!(empty.ascending_lead(&[1, 0]), Some(1));
        assert!(empty.sorted(&[1, 0], false).is_empty());
    }

    /// `FrameRun::sorted` over `frames` equals a plain full sort by the key
    /// `canonical` projects (then the words after the slots), with
    /// duplicates dropped or kept.
    fn assert_sorts_like_a_full_sort(frames: &[Vec<u32>], width: usize, canonical: &[usize], dedups: &[bool]) {
        let key = |f: &Vec<u32>| -> Vec<u32> {
            let order = canonical.iter().copied().chain(canonical.len()..width);
            order.map(|s| f[s]).collect()
        };
        for &dedup in dedups {
            let mut run = FrameRun::new(width);
            frames.iter().for_each(|f| run.push(f));
            let got: Vec<Vec<u32>> = run.sorted(canonical, dedup).frames().map(<[u32]>::to_vec).collect();
            let mut want = frames.to_vec();
            want.sort_by_key(key);
            if dedup {
                want.dedup();
            }
            assert_eq!(got, want, "{frames:?} by {canonical:?}, dedup {dedup}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `FrameRun::sorted` over random runs equals a full sort, with
        /// duplicates dropped and kept: widths 1–4, the last word a slot or
        /// the denoted word after the slots (the whole key, without slots),
        /// any slot leading; runs of segments of one leading word each in
        /// order, reversed, all equal or shuffled, some longer than the
        /// insertion cap — sorted a segment at a time — and the same runs
        /// with the lead descending once, sorted as a whole.
        #[test]
        fn segment_sorted_runs_equal_a_full_sort(
            (width, denoting, turn) in (1usize..5, any::<bool>(), 0usize..4),
            segments in prop::collection::vec((0u8..4, 1usize..40), 0..10),
            words in prop::collection::vec(0u32..4, 512..513),
            descent in 0usize..400,
        ) {
            let slots = width - usize::from(denoting);
            let mut canonical: Vec<usize> = (0..slots).collect();
            canonical.rotate_left(turn % slots.max(1));
            let lead = canonical.first().copied().unwrap_or(0);
            let order: Vec<usize> = canonical.iter().copied().chain(slots..width).collect();
            let key = |f: &Vec<u32>| -> Vec<u32> { order.iter().map(|&s| f[s]).collect() };
            let mut word = words.iter().copied().cycle();
            let mut frames: Vec<Vec<u32>> = Vec::new();
            for (i, &(shape, len)) in segments.iter().enumerate() {
                let mut frame = || -> Vec<u32> {
                    let mut f: Vec<u32> = word.by_ref().take(width).collect();
                    f[lead] = i as u32 + 1;
                    f
                };
                let mut segment: Vec<Vec<u32>> = match shape {
                    2 => vec![frame(); len],
                    _ => (0..len).map(|_| frame()).collect(),
                };
                match shape {
                    0 => segment.sort_by_key(key),
                    1 => segment.sort_by_key(|f| std::cmp::Reverse(key(f))),
                    _ => {}
                }
                frames.extend(segment);
            }
            let run = |frames: &[Vec<u32>]| {
                let mut run = FrameRun::new(width);
                frames.iter().for_each(|f| run.push(f));
                run
            };
            prop_assert!(frames.is_empty() || run(&frames).ascending_lead(&canonical) == Some(lead));
            assert_sorts_like_a_full_sort(&frames, width, &canonical, &[false, true]);
            if frames.len() > 1 {
                let at = 1 + descent % (frames.len() - 1);
                frames[at][lead] = 0;
                prop_assert_eq!(run(&frames).ascending_lead(&canonical), None);
                assert_sorts_like_a_full_sort(&frames, width, &canonical, &[false, true]);
            }
        }
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
    fn an_anti_join_over_several_parts_keeps_the_frames_the_oracle_keeps() {
        // X : node, not X[kids ->> {Y[age -> A]}] over 3 000 nodes, three
        // quarters with three kids and a fifth of them aged: the kids
        // expansion feeds the last step, the age probe, a run several
        // parts long whose frames straddle the parts' bounds.
        let mut s = Structure::new();
        let (node, kids, age) = (s.atom("node"), s.atom("kids"), s.atom("age"));
        let n = 3000;
        let nodes: Vec<Oid> = (0..n).map(|i| s.atom(&format!("n{i}"))).collect();
        for (i, &o) in nodes.iter().enumerate() {
            s.add_isa(o, node);
            if i % 4 != 0 {
                for k in [(i * 7 + 1) % n, (i * 11 + 2) % n, (i * 13 + 3) % n] {
                    s.assert_set_member(kids, o, &[], nodes[k]);
                }
            }
            if i % 5 == 0 {
                let years = s.int(i as i64 % 9);
                s.assert_scalar(age, o, &[], years).unwrap();
            }
        }
        let aged_kid = Term::var("Y").filter(Filter::scalar("age", Term::var("A")));
        let body = [
            Literal::pos(Term::var("X").isa("node")),
            Literal::neg(Term::var("X").filter(Filter::set("kids", vec![aged_kid]))),
        ];
        let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
        let run = execute_query(&s, &compiled).unwrap();
        let keys: BTreeSet<BindingKey> = run.frames().map(|f| binding_key(&compiled.bindings_of(f))).collect();
        let want = oracle_keys(&s, &body);
        assert_eq!(keys, want);
        // Neither all nor none of the frames hold, and the kids the last
        // step maps span several parts.
        assert!(!want.is_empty() && want.len() < n, "{}", want.len());
        let expanded: usize = nodes
            .iter()
            .map(|&o| s.apply_set(kids, o, &[]).map_or(0, |k| k.len()))
            .sum();
        assert!(expanded > 2 * atoms::ANTI_JOIN_PART, "{expanded}");
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

    /// Base structure and the same grown by a window: one new `desc`
    /// member, one new is-a pair, one new scalar fact (and its new objects).
    fn base_and_delta() -> (Structure, Structure) {
        let mut s = Structure::new();
        let (kids, desc, person) = (s.atom("kids"), s.atom("desc"), s.atom("person"));
        let (peter, tim, mary, sally) = (s.atom("peter"), s.atom("tim"), s.atom("mary"), s.atom("sally"));
        s.assert_set_member(kids, peter, &[], tim);
        s.assert_set_member(kids, peter, &[], mary);
        s.assert_set_member(kids, tim, &[], sally);
        s.assert_set_member(desc, peter, &[], tim);
        s.assert_set_member(desc, peter, &[], mary);
        s.add_isa(peter, person);
        let before = s.clone();
        s.assert_set_member(desc, peter, &[], sally);
        s.add_isa(tim, person);
        let age = s.atom("age");
        let five = s.int(5);
        s.assert_scalar(age, sally, &[], five).unwrap();
        (before, s)
    }

    /// The solutions of the one-literal body `term` whose derivation reads
    /// the window between `before` and `after`, as `(variable, object name)`
    /// lists — checked sound and complete against the oracle on the way.
    fn restricted(before: &Structure, after: &Structure, term: Term) -> Vec<Vec<(String, String)>> {
        let rule = Rule::new(Term::name("h"), vec![Literal::pos(term)]);
        checked_passes(before, after, &rule, &[0], 1)
            .into_iter()
            .map(|key| {
                key.iter()
                    .map(|(v, o)| (v.to_string(), after.display_name(Oid(*o)).into_owned()))
                    .collect()
            })
            .collect()
    }

    fn pairs(solution: &[(&str, &str)]) -> Vec<(String, String)> {
        solution.iter().map(|(v, o)| (v.to_string(), o.to_string())).collect()
    }

    #[test]
    fn restricted_set_path_enumerates_only_new_members() {
        let (before, after) = base_and_delta();
        // X..desc[Y] — full: three members; restricted: the new one.
        let t = Term::var("X").set("desc").selector(Term::var("Y"));
        let rule = Rule::new(Term::name("h"), vec![Literal::pos(t.clone())]);
        assert_eq!(oracle_keys(&after, &rule.body).len(), 3);
        assert_eq!(
            restricted(&before, &after, t),
            vec![pairs(&[("X", "peter"), ("Y", "sally")])]
        );
        // X..kids did not change.
        let t = Term::var("X").set("kids").selector(Term::var("Y"));
        assert!(restricted(&before, &after, t).is_empty());
    }

    #[test]
    fn restricted_scalar_path_and_filter() {
        let (before, after) = base_and_delta();
        // Only sally's age is new — as a path and as a molecule filter.
        let expected = vec![pairs(&[("A", "5"), ("X", "sally")])];
        let t = Term::var("X").scalar("age").selector(Term::var("A"));
        assert_eq!(restricted(&before, &after, t), expected);
        let t = Term::var("X").filter(Filter::scalar("age", Term::var("A")));
        assert_eq!(restricted(&before, &after, t), expected);
    }

    #[test]
    fn restricted_isa_enumerates_only_new_pairs() {
        let (before, after) = base_and_delta();
        let t = Term::var("X").isa("person");
        assert_eq!(restricted(&before, &after, t), vec![pairs(&[("X", "tim")])]);
    }

    #[test]
    fn restricted_recursive_literal_matches_semi_naive_expectation() {
        // X..desc[kids ->> {Y}]: the new desc member sally has no kids, so no
        // join reads the window — the old (peter via tim, sally) one may be
        // re-derived by an over-approximating step but need not be.
        let (before, after) = base_and_delta();
        let t = || {
            Term::var("X")
                .set("desc")
                .filter(Filter::set("kids", vec![Term::var("Y")]))
        };
        let old = pairs(&[("X", "peter"), ("Y", "sally")]);
        assert!(restricted(&before, &after, t()).iter().all(|s| *s == old));
        // A kid for sally: both the new desc edge and the new kids fact
        // derive the same join, reported once.
        let mut grown = after.clone();
        let (kids, sally) = (grown.atom("kids"), grown.atom("sally"));
        let tom = grown.atom("tom");
        grown.assert_set_member(kids, sally, &[], tom);
        let found = restricted(&before, &grown, t());
        assert!(found.contains(&pairs(&[("X", "peter"), ("Y", "tom")])));
        assert!(found.iter().all(|s| s[0].1 == "peter"), "{found:?}");
    }

    #[test]
    fn empty_window_yields_no_solutions_and_every_shape_stays_sound() {
        let (before, after) = base_and_delta();
        let terms = [
            Term::var("X").set("desc"),
            Term::var("X").set("kids"),
            Term::var("X").scalar("age"),
            Term::var("X").isa("person"),
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            Term::var("X")
                .set("desc")
                .filter(Filter::set("kids", vec![Term::var("Y")])),
        ];
        for t in terms {
            assert!(restricted(&after, &after, t.clone()).is_empty(), "{t}");
            // Soundness and completeness are `checked_passes`' own asserts.
            restricted(&before, &after, t);
        }
    }
}
