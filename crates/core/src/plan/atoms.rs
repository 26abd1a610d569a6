//! Primitive atoms — the one compiled form of a body literal — and the step
//! functions that run them.
//!
//! Definition 4 gives a reference its meaning compositionally: valuate the
//! receiver, the method and the arguments, then perform *one* method
//! application or class test.  Lowering (`lower`) unfolds a literal along that
//! definition into a short sequence of [`Atom`]s joined through
//! [`Operand`]s, mirroring [`answers()`](crate::semantics::answers()) case by
//! case: a path is its receiver's atoms, its method's, its arguments', then
//! one [`Atom::Scalar`] / [`Atom::Member`] into a fresh temporary; a molecule
//! is its receiver's atoms and one application atom per filter (per element
//! of an explicit set) and denotes its receiver; `t : c` is one
//! [`Atom::Isa`].
//!
//! A `Machine` runs a literal's atoms depth-first over each incoming frame:
//! every atom kind has one step function that picks its index from the
//! operands already bound — the fully bound case is a probe, an unbound
//! receiver walks the per-method index, an unbound method the per-receiver
//! one — binds the rest and continues with the next atom.  Temporaries live
//! in the machine's scratch cells, so frames stay as wide as the body's
//! variables and a temporary is existentially quantified.
//!
//! **Restricted steps.**  Every step has a window-restricted variant that
//! reads the same operands but only the [`DeltaView`] slice of its index:
//! new scalar facts and set members (by method, or of the one application),
//! new is-a closure pairs, new objects.  Contract: a restricted step may
//! *over-approximate* (re-deriving a solution whose derivation does not read
//! the window is absorbed by the deduplicating merge and the idempotent
//! commit), but it must yield **every** completion in which the fact it reads
//! entered the window, and **only** completions that hold in the full
//! structure.  A delta pass of a literal is then the union, over its atoms,
//! of the chain with that one atom restricted and every other atom full —
//! the product rule of semi-naive evaluation, at the grain of single
//! applications.  The restricted atom runs first (the window seeds the
//! chain; the others follow in lowering order and find their operands
//! bound), except the order-sensitive [`Atom::Superset`].
//!
//! **Ordered steps.**  The atoms of an unrestricted literal — every literal
//! of a query or a full solve, every literal of a delta pass but the
//! restricted one — need not run in lowering order: every step accepts any
//! pattern of bound operands, so within a literal any order yields the same
//! completions — the same assignments to slots *and* temporaries, each
//! once.  When a body is planned, `Machine::order_atoms` orders each
//! literal's atoms greedily by [`AtomStep::cardinality`], the size of the
//! index the step would walk under the operands bound so far, read in O(1)
//! from the posting lists of the fact store and the extents of the class
//! hierarchy — ties in lowering order.  The order depends on which operands
//! are bound, not on what they hold, so it is computed once per literal, not
//! per frame.  Two atoms are barriers no atom is moved across:
//! [`Atom::Superset`] valuates its strict right-hand side under exactly the
//! bindings written-order evaluation gives it, and [`Atom::Signature`] seeds
//! an unbound method variable from the receiver's facts.  A wrong
//! cardinality costs time, never an answer.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::error::Result;
use crate::names::{Name, Var};
use crate::semantics::answers::required_members;
use crate::semantics::DeltaView;
use crate::structure::{Oid, OidRun, ScalarFactView, SetFactView, Structure};
use crate::term::{Filter, FilterValue, Term};

use super::{CompiledLiteral, CompiledRule, FrameRun};

/// Where an atom reads or writes one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The slot of a body variable.
    Slot(usize),
    /// A temporary of the literal: an intermediate object along a path.
    Temp(usize),
    /// A name of the rule ([`CompiledRule::names`]), resolved to an object
    /// once per pass.
    Name(usize),
}

/// The application `receiver . method @ (args)` an atom performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The method object.
    pub method: Operand,
    /// The receiver object.
    pub receiver: Operand,
    /// The argument objects.
    pub args: Vec<Operand>,
}

/// One primitive step of a compiled literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// `result = I_->(method)(receiver, args)`, built-ins included.
    Scalar {
        /// The application.
        call: Call,
        /// Its result.
        result: Operand,
    },
    /// `member ∈ I_->>(method)(receiver, args)`.
    Member {
        /// The application.
        call: Call,
        /// One member of its result.
        member: Operand,
    },
    /// `instance` is a (transitive) member of `class`.
    Isa {
        /// The instance.
        instance: Operand,
        /// The class.
        class: Operand,
    },
    /// `cell` is an object: a variable no index can seed (a bare `X`, the
    /// receiver of `X[]`) ranges over the universe.
    Object {
        /// The operand to enumerate when unbound.
        cell: Operand,
    },
    /// The check `I_->>(method)(receiver, args) ⊇ ν(rhs)` of an `m ->> t`
    /// filter.  The strict right-hand side is valuated set-at-a-time
    /// (Definition 4, item 7) under the frame's bindings, so the atoms
    /// binding its variables must precede this one.  With the receiver
    /// unbound the check ranges over the *defined* applications, not the
    /// universe — an object without an application is missed even when the
    /// required set is empty.  [`answers()`](crate::semantics::answers())
    /// reads it the same way, so the two evaluators agree and the reading is
    /// still open; the planner keeps it from arising by reordering: a literal
    /// holding this atom is planned like a guard (see
    /// [`compile`](super::compile)).
    Superset {
        /// The application.
        call: Call,
        /// The required members.
        rhs: Term,
    },
    /// A signature filter `m => (results)` / `m =>> (results)`, matched
    /// against the declarations table.
    Signature {
        /// Declared method, class and argument classes.
        call: Call,
        /// `=>>` rather than `=>`.
        set_valued: bool,
        /// Each bound to one declared result class.
        results: Vec<Operand>,
    },
}

/// What [`lower`] makes of one literal.
pub(super) struct Lowered {
    pub(super) atoms: Vec<Atom>,
    /// The range of the rule's names the atoms use.
    pub(super) names: Range<usize>,
    /// Number of temporaries.
    pub(super) temps: usize,
    /// The operand holding the object the literal denotes.
    pub(super) denoted: Operand,
}

/// Lower `term` — a body literal over `vars`, the rule's slot variables — to
/// its atoms.  Names are appended to `names`.
pub(super) fn lower(term: &Term, vars: &[Var], names: &mut Vec<Name>) -> Lowered {
    let first_name = names.len();
    let mut l = Lowering {
        vars,
        names,
        first_name,
        temps: 0,
        atoms: Vec::new(),
    };
    let denoted = l.term(term);
    if l.atoms.is_empty() {
        l.atoms.push(Atom::Object { cell: denoted });
    }
    Lowered {
        atoms: l.atoms,
        names: first_name..l.names.len(),
        temps: l.temps,
        denoted,
    }
}

struct Lowering<'a> {
    vars: &'a [Var],
    names: &'a mut Vec<Name>,
    first_name: usize,
    temps: usize,
    atoms: Vec<Atom>,
}

impl Lowering<'_> {
    /// Emit the atoms of `term`; returns the operand holding the object it
    /// denotes.
    fn term(&mut self, term: &Term) -> Operand {
        match term {
            Term::Name(n) => Operand::Name(match self.names[self.first_name..].iter().position(|m| m == n) {
                Some(i) => self.first_name + i,
                None => {
                    self.names.push(n.clone());
                    self.names.len() - 1
                }
            }),
            Term::Var(v) => Operand::Slot(
                self.vars
                    .iter()
                    .position(|w| w == v)
                    .expect("every body variable has a slot"),
            ),
            Term::Paren(t) => self.term(t),
            Term::Path(p) => {
                let receiver = self.term(&p.receiver);
                let call = self.call(receiver, &p.method, &p.args);
                let value = Operand::Temp(self.temps);
                self.temps += 1;
                self.atoms.push(if p.set_valued {
                    Atom::Member { call, member: value }
                } else {
                    Atom::Scalar { call, result: value }
                });
                value
            }
            Term::IsA(i) => {
                let instance = self.term(&i.receiver);
                let class = self.term(&i.class);
                self.atoms.push(Atom::Isa { instance, class });
                instance
            }
            Term::Molecule(m) => {
                let receiver = self.term(&m.receiver);
                let mut applied = false;
                for f in &m.filters {
                    applied |= self.filter(receiver, f);
                }
                // `t[]` and `t[m ->> {}]` hold of every object `t` denotes.
                if !applied {
                    self.atoms.push(Atom::Object { cell: receiver });
                }
                receiver
            }
        }
    }

    fn call(&mut self, receiver: Operand, method: &Term, args: &[Term]) -> Call {
        Call {
            method: self.term(method),
            receiver,
            args: args.iter().map(|a| self.term(a)).collect(),
        }
    }

    /// Emit the atoms of one filter on `receiver`: method and arguments,
    /// then the value side, then the application.  `false` when the filter
    /// applies nothing (an empty explicit set).
    fn filter(&mut self, receiver: Operand, f: &Filter) -> bool {
        let call = self.call(receiver, &f.method, &f.args);
        match &f.value {
            FilterValue::Scalar(rt) => {
                let result = self.term(rt);
                self.atoms.push(Atom::Scalar { call, result });
            }
            FilterValue::SetExplicit(elems) => {
                for e in elems {
                    let member = self.term(e);
                    self.atoms.push(Atom::Member {
                        call: call.clone(),
                        member,
                    });
                }
                return !elems.is_empty();
            }
            FilterValue::SetRef(rt) => self.atoms.push(Atom::Superset { call, rhs: rt.clone() }),
            FilterValue::SigScalar(rs) | FilterValue::SigSet(rs) => {
                let results = rs.iter().map(|r| self.term(r)).collect();
                let set_valued = matches!(f.value, FilterValue::SigSet(_));
                self.atoms.push(Atom::Signature {
                    call,
                    set_valued,
                    results,
                });
            }
        }
        true
    }
}

/// What a step does with one candidate: continue the chain under the
/// bindings the step just made.
trait Cont<'a>: FnMut(&mut Machine<'a>) -> Result<()> {}
impl<'a, K: FnMut(&mut Machine<'a>) -> Result<()>> Cont<'a> for K {}

/// What [`Machine::each_app`] does with one application: its members and,
/// on a restricted walk, the member the window entry added.
trait Visit<'a>: FnMut(&mut Machine<'a>, &OidRun, Option<Oid>) -> Result<()> {}
impl<'a, V: FnMut(&mut Machine<'a>, &OidRun, Option<Oid>) -> Result<()>> Visit<'a> for V {}

/// `self` and the comparisons apply to any receiver without stored facts.
fn is_builtin(structure: &Structure, method: Oid) -> bool {
    method == structure.self_method() || structure.is_comparison_method(method)
}

/// The executor of one pass: the structure, the window, and the cells the
/// atoms of the literal in hand read and write.
pub(super) struct Machine<'a> {
    structure: &'a Structure,
    dv: &'a DeltaView,
    rule: &'a CompiledRule,
    /// One cell per slot, then per name of the rule (resolved once, here),
    /// then per temporary; `0` = unbound, else object id + 1.
    cells: Vec<u32>,
    /// Number of slot cells: where the name cells start.
    slots: usize,
    /// Where the temporaries start.
    temp_base: usize,
    /// The cells bound since the incoming frame was loaded, for backtracking.
    trail: Vec<usize>,
    /// The frames the literal in hand has produced.
    out: FrameRun,
    /// `Some` when every completion also emits the object this operand
    /// holds, as one more word of the frame ([`Machine::emit_denoted`]).
    denoted: Option<Operand>,
    /// `Some` while an anti-join probes a frame: has a completion been seen?
    probe: Option<bool>,
}

impl<'a> Machine<'a> {
    pub(super) fn new(structure: &'a Structure, dv: &'a DeltaView, rule: &'a CompiledRule) -> Self {
        let slots = rule.slot_count();
        let mut cells = vec![0; slots + rule.names.len() + rule.temps];
        for (cell, name) in cells[slots..].iter_mut().zip(&rule.names) {
            *cell = structure.lookup_name(name).map_or(0, |o| o.0 + 1);
        }
        Machine {
            structure,
            dv,
            rule,
            cells,
            slots,
            temp_base: slots + rule.names.len(),
            trail: Vec::new(),
            out: FrameRun::new(slots),
            denoted: None,
            probe: None,
        }
    }

    /// From here on a completion emits its frame and, as one more word, the
    /// object `denoted` holds: what a reference denotes along one derivation
    /// path, temporaries included.
    pub(super) fn emit_denoted(&mut self, denoted: Operand) {
        self.denoted = Some(denoted);
        self.out = FrameRun::new(self.slots + 1);
    }

    /// Does the structure know every name of `lit`?  A name it does not know
    /// denotes nothing, so the literal has no solution.
    pub(super) fn knows(&self, lit: &CompiledLiteral) -> bool {
        self.cells[self.slots + lit.names.start..self.slots + lit.names.end]
            .iter()
            .all(|&c| c != 0)
    }

    /// The atoms of `lit` in the order of `steps` — in lowering order without.
    fn chain(lit: &'a CompiledLiteral, steps: Option<&[AtomStep]>) -> Vec<usize> {
        match steps {
            Some(steps) => steps.iter().map(|s| s.atom).collect(),
            None => (0..lit.atoms.len()).collect(),
        }
    }

    /// Extend every frame of `frames` by the solutions of positive literal
    /// `lit`, its atoms run in the order of `steps` (lowering order without)
    /// — with `restricted`, by those whose derivation reads the window (see
    /// the module docs).
    pub(super) fn join(
        &mut self,
        lit: &'a CompiledLiteral,
        steps: Option<&[AtomStep]>,
        restricted: bool,
        frames: &FrameRun,
    ) -> Result<FrameRun> {
        let order = Self::chain(lit, steps);
        let chain = |delta: Option<usize>| {
            let mut chain: Vec<(&Atom, bool)> = order.iter().map(|&i| (&lit.atoms[i], delta == Some(i))).collect();
            // Stable: the restricted atom first, the rest in the given order.
            chain.sort_by_key(|&(atom, restricted)| !restricted || matches!(atom, Atom::Superset { .. }));
            chain
        };
        let chains: Vec<Vec<(&Atom, bool)>> = if restricted {
            (0..lit.atoms.len()).map(|i| chain(Some(i))).collect()
        } else {
            vec![chain(None)]
        };
        for frame in frames.frames() {
            self.cells[..self.slots].copy_from_slice(frame);
            for chain in &chains {
                self.solve(chain)?;
            }
        }
        let emitted = FrameRun::new(self.out.slots);
        Ok(std::mem::replace(&mut self.out, emitted))
    }

    /// The frames of `frames` that negated literal `lit`, its atoms run in
    /// the order of `steps`, does not hold of.
    pub(super) fn anti_join(
        &mut self,
        lit: &'a CompiledLiteral,
        steps: &[AtomStep],
        frames: &FrameRun,
    ) -> Result<FrameRun> {
        let chain: Vec<(&Atom, bool)> = steps.iter().map(|s| (&lit.atoms[s.atom], false)).collect();
        let mut kept = FrameRun::new(self.slots);
        for frame in frames.frames() {
            self.cells[..self.slots].copy_from_slice(frame);
            self.probe = Some(false);
            self.solve(&chain)?;
            if self.probe.take() == Some(false) {
                kept.push(frame);
            }
        }
        Ok(kept)
    }

    /// Run `steps` — `(atom, restricted)` — depth-first under the current
    /// cells; every completion emits the frame.
    fn solve(&mut self, steps: &[(&'a Atom, bool)]) -> Result<()> {
        if self.probe == Some(true) {
            return Ok(());
        }
        let Some((&(atom, restricted), rest)) = steps.split_first() else {
            match &mut self.probe {
                Some(seen) => *seen = true,
                None => {
                    let object = self.denoted.map(|op| self.cells[self.index(op)]);
                    self.out.push_with(&self.cells[..self.slots], object);
                }
            }
            return Ok(());
        };
        let k = &mut |m: &mut Self| m.solve(rest);
        match atom {
            Atom::Scalar { call, result } => self.scalar(call, *result, restricted, k),
            Atom::Member { call, member } => self.member(call, *member, restricted, k),
            Atom::Isa { instance, class } => self.isa(*instance, *class, restricted, k),
            Atom::Object { cell } => self.each_object(std::iter::once(*cell), restricted, k),
            Atom::Superset { call, rhs } => self.superset(call, rhs, restricted, k),
            Atom::Signature {
                call,
                set_valued,
                results,
            } => self.signature(call, *set_valued, results, restricted, k),
        }
    }

    fn index(&self, op: Operand) -> usize {
        match op {
            Operand::Slot(i) => i,
            Operand::Name(i) => self.slots + i,
            Operand::Temp(i) => self.temp_base + i,
        }
    }

    fn get(&self, op: Operand) -> Option<Oid> {
        let v = self.cells[self.index(op)];
        (v != 0).then(|| Oid(v - 1))
    }

    /// The objects of `ops`, when all are bound.
    fn bound(&self, ops: &[Operand]) -> Option<Vec<Oid>> {
        ops.iter().map(|&op| self.get(op)).collect()
    }

    /// Bind `op` to `o`; `false` when it is bound to another object.
    fn bind(&mut self, op: Operand, o: Oid) -> bool {
        let at = self.index(op);
        match self.cells[at] {
            0 => {
                self.cells[at] = o.0 + 1;
                self.trail.push(at);
                true
            }
            v => v == o.0 + 1,
        }
    }

    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let at = self.trail.pop().expect("longer than mark");
            self.cells[at] = 0;
        }
    }

    /// Continue with `op` bound to `o`, unless it is bound otherwise.
    fn with(&mut self, op: Operand, o: Oid, k: &mut impl Cont<'a>) -> Result<()> {
        let mark = self.trail.len();
        let out = if self.bind(op, o) { k(self) } else { Ok(()) };
        self.undo(mark);
        out
    }

    /// Continue with the operands of `call` bound to one stored application.
    fn with_call(
        &mut self,
        call: &Call,
        method: Oid,
        receiver: Oid,
        args: &[Oid],
        k: &mut impl Cont<'a>,
    ) -> Result<()> {
        if call.args.len() != args.len() {
            return Ok(());
        }
        let mark = self.trail.len();
        let matches = self.bind(call.method, method)
            && self.bind(call.receiver, receiver)
            && call.args.iter().zip(args).all(|(&op, &o)| self.bind(op, o));
        let out = if matches { k(self) } else { Ok(()) };
        self.undo(mark);
        out
    }

    /// Continue with every unbound operand of `ops` ranging over the
    /// universe — with `need_new`, over the combinations in which at least
    /// one of them is an object the window created (none, when all are
    /// bound: a bound operand reads nothing).  `ops` is an iterator so that
    /// a caller chains its operands without allocating.
    fn each_object(
        &mut self,
        ops: impl Iterator<Item = Operand> + Clone,
        need_new: bool,
        k: &mut impl Cont<'a>,
    ) -> Result<()> {
        let mut rest = ops;
        let Some(op) = rest.next() else {
            return if need_new { Ok(()) } else { k(self) };
        };
        if self.get(op).is_some() {
            return self.each_object(rest, need_new, k);
        }
        let new = self.dv.new_objects();
        // The last unbound operand supplies the new object if none has.
        let last = rest.clone().all(|r| self.get(r).is_some());
        let candidates = if need_new && last {
            new.clone()
        } else {
            0..self.structure.num_objects()
        };
        for i in candidates {
            let still = need_new && !new.contains(&i);
            self.with(op, Oid(i as u32), &mut |m| m.each_object(rest.clone(), still, &mut *k))?;
        }
        Ok(())
    }

    /// A built-in `method` applies through [`Structure::apply_scalar`] to
    /// any receiver and arguments: unbound ones range over the universe, and
    /// the only window such an application reads is its new objects.
    fn builtin(
        &mut self,
        call: &Call,
        method: Oid,
        result: Operand,
        restricted: bool,
        k: &mut impl Cont<'a>,
    ) -> Result<()> {
        let ops = std::iter::once(call.receiver).chain(call.args.iter().copied());
        self.each_object(ops, restricted, &mut |m| {
            let receiver = m.get(call.receiver).expect("enumerated above");
            let args = m.bound(&call.args).expect("enumerated above");
            match m.structure.apply_scalar(method, receiver, &args) {
                Some(res) => m.with(call.method, method, &mut |m| m.with(result, res, &mut *k)),
                None => Ok(()),
            }
        })
    }

    fn scalar(&mut self, call: &Call, result: Operand, restricted: bool, k: &mut impl Cont<'a>) -> Result<()> {
        let (s, dv) = (self.structure, self.dv);
        let facts = s.facts();
        let (method, receiver) = (self.get(call.method), self.get(call.receiver));
        // An unbound method variable ranges over the stored methods and
        // `self`, which every object answers to.
        if method.is_none_or(|m| is_builtin(s, m)) {
            self.builtin(call, method.unwrap_or(s.self_method()), result, restricted, &mut *k)?;
            if method.is_some() {
                return Ok(());
            }
        }
        let mut visit = |m: &mut Self, f: ScalarFactView<'_>| {
            m.with_call(call, f.method, f.receiver, f.args, &mut |m| {
                m.with(result, f.result, &mut *k)
            })
        };
        match (method, receiver, self.bound(&call.args)) {
            (Some(m), Some(r), Some(args)) => {
                if let Some(idx) = facts.scalar_index(m, r, &args) {
                    if !restricted || dv.scalar_is_new(idx) {
                        visit(self, facts.scalar_fact_at(idx))?;
                    }
                }
            }
            (Some(m), _, _) if restricted => {
                for &idx in dv.new_scalar_facts_of_method(m) {
                    visit(self, facts.scalar_fact_at(idx))?;
                }
            }
            (Some(m), Some(r), _) => {
                for f in facts.scalar_facts_of_method_receiver(m, r) {
                    visit(self, f)?;
                }
            }
            (Some(m), None, _) => match self.get(result) {
                Some(v) => {
                    for f in facts.scalar_facts_with_result(m, v) {
                        visit(self, f)?;
                    }
                }
                None => {
                    for f in facts.scalar_facts_of_method(m) {
                        visit(self, f)?;
                    }
                }
            },
            (None, Some(r), _) if !restricted => {
                for f in facts.scalar_facts_of_receiver(r) {
                    visit(self, f)?;
                }
            }
            (None, _, _) => {
                let window = if restricted {
                    dv.new_scalar_facts()
                } else {
                    0..usize::MAX
                };
                for (_, f) in facts.scalar_facts_in(window.start, window.end) {
                    visit(self, f)?;
                }
            }
        }
        Ok(())
    }

    /// Visit the stored applications `call` can denote under the current
    /// cells, its operands bound to each — the walk narrowed to those
    /// `containing` a member, when given.  Restricted: one visit per window
    /// entry, with the member it added.  A fully bound call is one visit of
    /// its (possibly undefined, hence empty) application.
    fn each_app(
        &mut self,
        call: &Call,
        containing: Option<Oid>,
        restricted: bool,
        visit: &mut impl Visit<'a>,
    ) -> Result<()> {
        let (s, dv) = (self.structure, self.dv);
        let facts = s.facts();
        let (method, receiver) = (self.get(call.method), self.get(call.receiver));
        if let (Some(m), Some(r), Some(args)) = (method, receiver, self.bound(&call.args)) {
            let members = s.apply_set(m, r, &args).unwrap_or(OidRun::empty_ref());
            if !restricted {
                return visit(self, members, None);
            }
            let new = facts.set_index(m, r, &args).and_then(|idx| dv.new_members_of_app(idx));
            match (new, containing) {
                (Some(new), Some(x)) if new.binary_search(&x).is_ok() => visit(self, members, Some(x))?,
                (Some(new), None) => {
                    for &x in new {
                        visit(self, members, Some(x))?;
                    }
                }
                _ => {}
            }
            return Ok(());
        }
        let mut at = |m: &mut Self, f: SetFactView<'_>, new: Option<Oid>| {
            m.with_call(call, f.method, f.receiver, f.args, &mut |m| visit(m, f.members, new))
        };
        // A window entry adding another member than the one wanted is
        // rejected before its application is looked at.
        let wanted = |x: Oid| containing.is_none_or(|c| c == x);
        match (method, receiver) {
            (Some(m), _) if restricted => {
                for &(app, x) in dv.new_set_entries_of_method(m).iter().filter(|e| wanted(e.1)) {
                    at(self, facts.set_fact_at(app), Some(x))?;
                }
            }
            (None, _) if restricted => {
                let window = dv.new_set_entries();
                for (app, x) in facts.set_members_in(window.start, window.end).filter(|e| wanted(e.1)) {
                    at(self, facts.set_fact_at(app), Some(x))?;
                }
            }
            (Some(m), Some(r)) => {
                for f in facts.set_facts_of_method_receiver(m, r) {
                    at(self, f, None)?;
                }
            }
            (Some(m), None) => match containing {
                Some(x) => {
                    for f in facts.set_facts_containing(m, x) {
                        at(self, f, None)?;
                    }
                }
                None => {
                    for f in facts.set_facts_of_method(m) {
                        at(self, f, None)?;
                    }
                }
            },
            (None, Some(r)) => {
                for f in facts.set_facts_of_receiver(r) {
                    at(self, f, None)?;
                }
            }
            (None, None) => {
                for f in facts.set_facts() {
                    at(self, f, None)?;
                }
            }
        }
        Ok(())
    }

    fn member(&mut self, call: &Call, member: Operand, restricted: bool, k: &mut impl Cont<'a>) -> Result<()> {
        let wanted = self.get(member);
        // The call's own operands may bind `member` (`X[m ->> {X}]`).
        self.each_app(
            call,
            wanted,
            restricted,
            &mut |m, members, new| match (new, m.get(member)) {
                (Some(x), _) => m.with(member, x, &mut *k),
                (None, Some(x)) if members.contains(&x) => k(m),
                (None, Some(_)) => Ok(()),
                (None, None) => members.iter().try_for_each(|&x| m.with(member, x, &mut *k)),
            },
        )
    }

    fn superset(&mut self, call: &Call, rhs: &Term, restricted: bool, k: &mut impl Cont<'a>) -> Result<()> {
        // The required set is a strict use of an earlier stratum and cannot
        // change mid-stratum; the application can gain members, which
        // re-establishes the condition.
        self.each_app(call, None, restricted, &mut |m, members, _| {
            let frame = &m.cells[..m.slots];
            let required = required_members(m.structure, rhs, &m.rule.bindings_of(frame))?;
            if required.iter().all(|x| members.contains(x)) {
                k(m)
            } else {
                Ok(())
            }
        })
    }

    fn isa(&mut self, instance: Operand, class: Operand, restricted: bool, k: &mut impl Cont<'a>) -> Result<()> {
        let (s, dv) = (self.structure, self.dv);
        let mut pair = |m: &mut Self, o: Oid, c: Oid| m.with(instance, o, &mut |m| m.with(class, c, &mut *k));
        match (self.get(instance), self.get(class)) {
            (Some(o), Some(c)) => {
                let holds = if restricted {
                    dv.isa_is_new(o, c)
                } else {
                    s.in_class(o, c)
                };
                if holds {
                    pair(self, o, c)?;
                }
            }
            (None, Some(c)) if restricted => {
                for &o in dv.new_instances_of(c) {
                    pair(self, o, c)?;
                }
            }
            (None, Some(c)) => {
                for o in s.instances_of(c) {
                    pair(self, o, c)?;
                }
            }
            (Some(o), None) if !restricted => {
                for c in s.classes_of(o) {
                    pair(self, o, c)?;
                }
            }
            // The closure's insertion log holds every pair.
            (_, None) => {
                let window = if restricted { dv.new_isa_pairs() } else { 0..usize::MAX };
                for (o, c) in s.isa().pairs_in(window.start, window.end) {
                    pair(self, o, c)?;
                }
            }
        }
        Ok(())
    }

    fn signature(
        &mut self,
        call: &Call,
        set_valued: bool,
        results: &[Operand],
        restricted: bool,
        k: &mut impl Cont<'a>,
    ) -> Result<()> {
        // Declarations carry no per-fact stamps: a window that added any
        // re-matches them all.
        if restricted && !self.dv.sigs_changed() {
            return Ok(());
        }
        let s = self.structure;
        let Some(method) = self.get(call.method) else {
            // As `answers()` seeds it: an unbound method variable ranges
            // over the methods with facts stored on the receiver (and
            // `self`), not over the declarations.
            return self.each_object(std::iter::once(call.receiver), false, &mut |m| {
                let r = m.get(call.receiver).expect("enumerated above");
                let methods: BTreeSet<Oid> = if set_valued {
                    s.facts().set_facts_of_receiver(r).map(|f| f.method).collect()
                } else {
                    let stored = s.facts().scalar_facts_of_receiver(r).map(|f| f.method);
                    stored.chain([s.self_method()]).collect()
                };
                methods.into_iter().try_for_each(|method| {
                    m.with(call.method, method, &mut |m| {
                        m.signature(call, set_valued, results, false, &mut *k)
                    })
                })
            });
        };
        for sig in s.signatures().for_method(method) {
            if sig.set_valued == set_valued {
                self.with_call(call, sig.method, sig.class, &sig.arg_classes, &mut |m| {
                    m.each_result(results, &sig.result_classes, &mut *k)
                })?;
            }
        }
        Ok(())
    }

    /// Continue with every operand of `results` bound to one of `classes`.
    fn each_result(&mut self, results: &[Operand], classes: &[Oid], k: &mut impl Cont<'a>) -> Result<()> {
        let Some((&r, rest)) = results.split_first() else {
            return k(self);
        };
        classes
            .iter()
            .try_for_each(|&c| self.with(r, c, &mut |m| m.each_result(rest, classes, &mut *k)))
    }
}

/// One atom of a literal as a plan runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomStep {
    /// Index into [`CompiledLiteral::atoms`].
    pub atom: usize,
    /// The size of the index the step walks under the operands bound when
    /// it was chosen: `1` for a probe or a lookup keyed by a bound receiver,
    /// a posting-list length otherwise (`usize::MAX`: a built-in with an
    /// unbound operand, which would range over the universe; `0` throughout
    /// a literal that names an object the structure does not know).
    pub cardinality: usize,
}

/// What planning knows of an operand.
enum Known {
    /// Nothing: the step enumerates it.
    Free,
    /// It is bound, to an object that differs from frame to frame.
    InFrame,
    /// It is a name: bound to this object in every frame.
    Object(Oid),
}

fn each_operand(atom: &Atom, f: &mut impl FnMut(Operand)) {
    let call_operands = |call: &Call, f: &mut dyn FnMut(Operand)| {
        f(call.method);
        f(call.receiver);
        call.args.iter().for_each(|&a| f(a));
    };
    match atom {
        Atom::Scalar { call, result: value } | Atom::Member { call, member: value } => {
            call_operands(call, f);
            f(*value);
        }
        Atom::Isa { instance, class } => {
            f(*instance);
            f(*class);
        }
        Atom::Object { cell } => f(*cell),
        Atom::Superset { call, .. } => call_operands(call, f),
        Atom::Signature { call, results, .. } => {
            call_operands(call, f);
            results.iter().for_each(|&r| f(r));
        }
    }
}

/// Planning: the order of a literal's atoms in a plan.  `bound` marks the
/// cells — slots, names, temporaries, as [`Machine::index`] numbers them —
/// that hold an object when the literal runs.
impl<'a> Machine<'a> {
    /// The marks before any literal has run: the names the structure knows.
    pub(super) fn names_bound(&self) -> Vec<bool> {
        self.cells.iter().map(|&c| c != 0).collect()
    }

    fn known(&self, op: Operand, bound: &[bool]) -> Known {
        match (op, self.get(op)) {
            (Operand::Name(_), Some(object)) => Known::Object(object),
            _ if bound[self.index(op)] => Known::InFrame,
            _ => Known::Free,
        }
    }

    /// The size of the index `atom`'s unrestricted step walks when the cells
    /// marked in `bound` are (see [`AtomStep::cardinality`]) — mirroring the
    /// arms of the step functions above.  `None` when it is a posting-list
    /// length and `read` says not to fetch one.
    fn cardinality(&self, atom: &Atom, bound: &[bool], read: bool) -> Option<usize> {
        let s = self.structure;
        let facts = s.facts();
        let is_bound = |op: Operand| !matches!(self.known(op, bound), Known::Free);
        // One posting list of an index of `all` entries, selected by `key`:
        // its length when the key is a name; when only the frame knows the
        // key there is no count to read, and the list is charged the
        // geometric mean of a lookup and the full walk.
        let keyed = |key: Operand, list: &dyn Fn(Oid) -> usize, all: &dyn Fn() -> usize| {
            read.then(|| match self.known(key, bound) {
                Known::Object(k) => list(k),
                Known::InFrame => all().isqrt(),
                Known::Free => all(),
            })
        };
        match atom {
            Atom::Scalar { call, result } => match self.known(call.method, bound) {
                Known::Object(m) if is_builtin(s, m) => {
                    let applied = is_bound(call.receiver) && call.args.iter().all(|&a| is_bound(a));
                    Some(if applied { 1 } else { usize::MAX })
                }
                _ if is_bound(call.receiver) => Some(1),
                Known::Object(m) => keyed(*result, &|v| facts.count_scalar_with_result(m, v), &|| {
                    facts.count_scalar_of_method(m)
                }),
                // Every stored fact, and `self` of every object.
                _ => Some(facts.num_scalar().saturating_add(s.num_objects())),
            },
            Atom::Member { call, .. } | Atom::Superset { call, .. } if is_bound(call.receiver) => Some(1),
            Atom::Member { call, member } => match self.known(call.method, bound) {
                Known::Object(m) => keyed(*member, &|x| facts.count_set_containing(m, x), &|| {
                    facts.count_set_of_method(m)
                }),
                _ => Some(facts.num_set_applications()),
            },
            Atom::Superset { call, .. } => match self.known(call.method, bound) {
                Known::Object(m) => read.then(|| facts.count_set_of_method(m)),
                _ => Some(facts.num_set_applications()),
            },
            Atom::Isa { instance, .. } if is_bound(*instance) => Some(1),
            Atom::Isa { class, .. } => keyed(*class, &|c| s.isa().extent_size(c), &|| s.isa().closure_size()),
            Atom::Object { cell } if is_bound(*cell) => Some(1),
            Atom::Object { .. } => Some(s.num_objects()),
            Atom::Signature { .. } => Some(s.signatures().len()),
        }
    }

    /// The cheapest of `candidates` (atoms of `lit`) under `bound`, the
    /// earliest of equals.  A probe or a keyed lookup is taken without a
    /// posting list being read: an anchored body plans without touching an
    /// index it will not walk.
    fn cheapest(&self, lit: &CompiledLiteral, candidates: &[usize], bound: &[bool]) -> Option<(usize, AtomStep)> {
        let costed = |read| {
            candidates.iter().enumerate().filter_map(move |(at, &atom)| {
                let cardinality = self.cardinality(&lit.atoms[atom], bound, read)?;
                Some((at, AtomStep { atom, cardinality }))
            })
        };
        let keyed = costed(false).find(|(_, step)| step.cardinality <= 1);
        keyed.or_else(|| costed(true).min_by_key(|(at, step)| (step.cardinality, *at)))
    }

    /// The cardinality of the step `lit` would start with when nothing but
    /// `names` ([`Machine::names_bound`]) is bound: what the literal costs as
    /// the seed of a join (`0` when it names an object the structure does
    /// not know).
    pub(super) fn seed_cardinality(&self, lit: &CompiledLiteral, names: &[bool]) -> usize {
        if !self.knows(lit) {
            return 0;
        }
        let first_segment: Vec<usize> = (0..lit.atoms.len())
            .take_while(|&i| i == 0 || !is_barrier(&lit.atoms[i - 1]))
            .collect();
        self.cheapest(lit, &first_segment, names)
            .map_or(usize::MAX, |(_, step)| step.cardinality)
    }

    /// Order the atoms of `lit` for a run under `bound` (see the module
    /// docs), and mark in `bound` what the literal binds.
    pub(super) fn order_atoms(&self, lit: &CompiledLiteral, bound: &mut [bool]) -> Vec<AtomStep> {
        if !self.knows(lit) {
            // It has no solution (see `knows`): no step walks anything.
            let unrun = |atom| AtomStep { atom, cardinality: 0 };
            return (0..lit.atoms.len()).map(unrun).collect();
        }
        bound[self.temp_base..].fill(false);
        let mut steps = Vec::with_capacity(lit.atoms.len());
        let mut segment: Vec<usize> = Vec::new();
        for i in 0..=lit.atoms.len() {
            if lit.atoms.get(i).is_some_and(|a| !is_barrier(a)) {
                segment.push(i);
                continue;
            }
            // A barrier, or the end: the segment before it runs, cheapest
            // step first, then the barrier itself.
            while let Some((at, step)) = self.cheapest(lit, &segment, bound) {
                segment.remove(at);
                steps.push(step);
                each_operand(&lit.atoms[step.atom], &mut |op| bound[self.index(op)] = true);
            }
            if let Some(barrier) = lit.atoms.get(i) {
                let cardinality = self
                    .cardinality(barrier, bound, true)
                    .expect("known once lists are read");
                steps.push(AtomStep { atom: i, cardinality });
                each_operand(barrier, &mut |op| bound[self.index(op)] = true);
            }
        }
        steps
    }
}

/// No atom is moved across one of these (see the module docs).
fn is_barrier(atom: &Atom) -> bool {
    matches!(atom, Atom::Superset { .. } | Atom::Signature { .. })
}
