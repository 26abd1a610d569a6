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
//! **Batch steps.**  A `Machine` runs a literal's atoms a step at a time
//! over one run of rows, a flat buffer: a row holds the body's slots, then
//! the literal's temporaries, then a tag — the index of the frame it grew
//! from; the rule's names are resolved once, outside the rows.  Each atom
//! kind has one step that maps the run to the next run, row by row and in
//! order.  A fully bound call — method, receiver and arguments, built-ins
//! included — is a probe: the lookups of the whole run go in one tight loop,
//! then the step filters the run, gathers the result into a temporary or
//! expands each row by its members.  A run that is long next to a class
//! extent or a method's facts reads them from a table over the objects
//! instead (`Scope::tabulate`).  Otherwise a step picks per row the index
//! the bound operands select: an unbound receiver walks the per-method
//! index, an unbound method the per-receiver one, and a row's expansions
//! follow in the order the index lists them.  A step binds all of its
//! operands in the rows it emits, so a run binds the same cells in every
//! row.  Two buffers alternate as the run a step reads and the one it
//! writes, and a probe or an index walk builds what it needs for a row — a
//! call's arguments, an application's row — in buffers reused from row to
//! row; an enumeration over the universe copies the row it extends, and
//! `Superset` and `Signature` allocate per row (a valuated required set, a
//! receiver's methods).  Every step keeps its
//! input order and lists one row's expansions in index order, so a chain
//! emits its completions in the depth-first lexicographic order of their
//! derivations, and a run seeded from an extent or an index leaves with
//! ascending leading keys (see `FrameRun::sorted`).  Temporaries live in the
//! rows, so frames leaving the literal stay as wide as the body's variables
//! and a temporary is existentially quantified.
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
//! bound), except the order-sensitive [`Atom::Superset`].  Each chain runs
//! over the whole input in turn, so a restricted literal emits its
//! completions chain by chain; the deduplicating sort after the literal
//! restores the one order every run is committed in.
//!
//! **Anti-joins.**  A negated literal runs its chain over the rows of every
//! frame at once, as a positive one does, and the frames no row completed
//! stay, in order.  A frame costs the literal's solutions under it — where
//! stopping at its first completion would cost one — and no more.  The last
//! step only tells which frames hold, so it maps the run a part of
//! `ANTI_JOIN_PART` rows at a time and drops each part's completions once
//! their tags are read: the rows held at once are what the chain's earlier
//! steps emit plus one part's completions — one part's, for a one-atom
//! negation.
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

impl Call {
    /// The method, the receiver and the arguments, in that order.
    fn operands(&self) -> impl Iterator<Item = Operand> + Clone + '_ {
        [self.method, self.receiver]
            .into_iter()
            .chain(self.args.iter().copied())
    }
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

/// `self` and the comparisons apply to any receiver without stored facts.
fn is_builtin(structure: &Structure, method: Oid) -> bool {
    method == structure.self_method() || structure.is_comparison_method(method)
}

/// The object a cell holds: `0` is unbound, else object id + 1.
fn object(cell: u32) -> Option<Oid> {
    (cell != 0).then(|| Oid(cell - 1))
}

/// What binding the operands of `call` to one stored application binds —
/// `None` when the application has another arity.
fn call_binds<'c>(
    call: &'c Call,
    method: Oid,
    receiver: Oid,
    args: &'c [Oid],
) -> Option<impl Iterator<Item = (Operand, Oid)> + Clone + 'c> {
    let operands = [(call.method, method), (call.receiver, receiver)].into_iter();
    let arity = call.args.len() == args.len();
    arity.then(|| operands.chain(call.args.iter().copied().zip(args.iter().copied())))
}

/// What every step reads: the structure, the window, the rule, and the
/// layout of a row.
struct Scope<'a> {
    structure: &'a Structure,
    dv: &'a DeltaView,
    rule: &'a CompiledRule,
    /// One cell per name of the rule, resolved once: object id + 1, `0` when
    /// the structure does not know the name.
    names: Vec<u32>,
    /// Number of slots: where a row's temporaries start.
    slots: usize,
    /// Words per row: the slots, the temporaries, and the tag — the index
    /// of the frame the row grew from.
    width: usize,
}

/// Buffers a step reuses from row to row, and the steps of a pass from one
/// to the next.
#[derive(Default)]
struct Scratch<'a> {
    /// The objects of a call's arguments.
    args: Vec<Oid>,
    /// A row with the operands of a call bound to one stored application.
    app: Vec<u32>,
    /// What a probe found, per row of the run: object id + 1, `0` for
    /// nothing.
    found: Vec<u32>,
    /// What a probe of a set-valued application found, per row of the run:
    /// its members, and those the step reads (see [`Scope::probe_apps`]).
    runs: Vec<(&'a [Oid], &'a [Oid])>,
    /// An index tabulated over the objects (see [`Scope::tabulate`]).
    table: Vec<u32>,
}

impl<'a> Scope<'a> {
    fn rows<'r>(&self, rows: &'r [u32]) -> std::slice::ChunksExact<'r, u32> {
        rows.chunks_exact(self.width)
    }

    /// The cell `op` reads in `row`.
    fn cell(&self, row: &[u32], op: Operand) -> u32 {
        match op {
            Operand::Slot(i) => row[i],
            Operand::Temp(i) => row[self.slots + i],
            Operand::Name(i) => self.names[i],
        }
    }

    fn get(&self, row: &[u32], op: Operand) -> Option<Oid> {
        object(self.cell(row, op))
    }

    /// The objects of `ops` in `row`, in `buf`, when all are bound.
    fn bound<'b>(&self, row: &[u32], ops: &[Operand], buf: &'b mut Vec<Oid>) -> Option<&'b [Oid]> {
        buf.clear();
        for &op in ops {
            buf.push(self.get(row, op)?);
        }
        Some(buf)
    }

    /// The object `op` names, when it is a name: the same in every row.
    fn named(&self, op: Operand) -> Option<Oid> {
        match op {
            Operand::Name(i) => object(self.names[i]),
            _ => None,
        }
    }

    /// Are `ops` bound in the rows of `rows`?  A run binds the same cells
    /// in every row — the incoming frames do, and every step binds all of
    /// its operands — so its first row tells.
    fn all_bound(&self, rows: &[u32], ops: impl Iterator<Item = Operand> + Clone) -> bool {
        let Some(first) = rows.get(..self.width) else {
            return false;
        };
        let bound = |row| ops.clone().map(move |op| self.get(row, op).is_some());
        debug_assert!(self.rows(rows).all(|row| bound(row).eq(bound(first))));
        bound(first).all(|b| b)
    }

    /// Should a probe of every row of `rows` read a table over the objects
    /// filled from an index of `entries()` entries, rather than the index?
    /// Yes when filling it — one write per entry, and one cleared word per
    /// object, counted at 1/16 — costs at most 8 probes per row: a run of
    /// one row tabulates only over fewer than 144 objects.  When it pays,
    /// `table` is cleared to one `0` per object.
    fn tabulate(&self, rows: &[u32], entries: impl FnOnce() -> usize, table: &mut Vec<u32>) -> bool {
        let (objects, budget) = (self.structure.num_objects(), 8 * (rows.len() / self.width));
        let pays = objects / 16 <= budget && entries() + objects / 16 <= budget;
        if pays {
            table.clear();
            table.resize(objects, 0);
        }
        pays
    }

    /// Append `row` to `out` with every `(operand, object)` of `binds` bound
    /// — nothing, when an operand holds another object.  `true` when
    /// appended.
    fn emit(&self, out: &mut Vec<u32>, row: &[u32], binds: impl IntoIterator<Item = (Operand, Oid)>) -> bool {
        let at = out.len();
        out.extend_from_slice(row);
        for (op, o) in binds {
            let cell = match op {
                Operand::Slot(i) => &mut out[at + i],
                Operand::Temp(i) => &mut out[at + self.slots + i],
                Operand::Name(i) if self.names[i] == o.0 + 1 => continue,
                Operand::Name(_) => {
                    out.truncate(at);
                    return false;
                }
            };
            match *cell {
                0 => *cell = o.0 + 1,
                v if v == o.0 + 1 => {}
                _ => {
                    out.truncate(at);
                    return false;
                }
            }
        }
        true
    }

    /// Map `rows` through the step of `atom` — window-restricted with
    /// `restricted` — appending the rows it emits to `out`: row by row, in
    /// order, and each row's in the order its index lists them.
    fn step(
        &self,
        atom: &Atom,
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
        scratch: &mut Scratch<'a>,
    ) -> Result<()> {
        match atom {
            Atom::Scalar { call, result } => self.scalar(call, *result, restricted, rows, out, scratch),
            Atom::Member { call, member } => self.member(call, *member, restricted, rows, out, scratch)?,
            Atom::Isa { instance, class } => self.isa(*instance, *class, restricted, rows, out, scratch),
            Atom::Object { cell } => {
                for row in self.rows(rows) {
                    self.each_object(row, std::iter::once(*cell), restricted, &mut |row| {
                        out.extend_from_slice(row)
                    });
                }
            }
            Atom::Superset { call, rhs } => self.superset(call, rhs, restricted, rows, out, scratch)?,
            Atom::Signature {
                call,
                set_valued,
                results,
            } => self.signature(call, *set_valued, results, restricted, rows, out),
        }
        Ok(())
    }

    /// Call `f` with `row` extended by every combination of objects for the
    /// operands of `ops` it leaves unbound — with `need_new`, by the
    /// combinations in which at least one of them is an object the window
    /// created (none, when all are bound: a bound operand reads nothing).
    fn each_object(
        &self,
        row: &[u32],
        ops: impl Iterator<Item = Operand> + Clone,
        need_new: bool,
        f: &mut impl FnMut(&[u32]),
    ) {
        if ops.clone().all(|op| self.get(row, op).is_some()) {
            if !need_new {
                f(row);
            }
            return;
        }
        // The columns to enumerate, each once, in operand order (a name is
        // bound).
        let mut columns: Vec<usize> = Vec::new();
        for op in ops {
            let column = match op {
                Operand::Slot(i) => i,
                Operand::Temp(i) => self.slots + i,
                Operand::Name(_) => continue,
            };
            if row[column] == 0 && !columns.contains(&column) {
                columns.push(column);
            }
        }
        self.enumerate(&mut row.to_vec(), &columns, need_new, f);
    }

    fn enumerate(&self, row: &mut [u32], columns: &[usize], need_new: bool, f: &mut impl FnMut(&[u32])) {
        let Some((&column, rest)) = columns.split_first() else {
            if !need_new {
                f(row);
            }
            return;
        };
        let new = self.dv.new_objects();
        // The last column supplies the new object if none has.
        let candidates = if need_new && rest.is_empty() {
            new.clone()
        } else {
            0..self.structure.num_objects()
        };
        for i in candidates {
            row[column] = i as u32 + 1;
            self.enumerate(row, rest, need_new && !new.contains(&i), f);
        }
    }

    /// A built-in `method` applies through [`Structure::apply_scalar`] to
    /// any receiver and arguments: unbound ones range over the universe, and
    /// the only window such an application reads is its new objects.
    #[allow(clippy::too_many_arguments)]
    fn builtin(
        &self,
        row: &[u32],
        call: &Call,
        method: Oid,
        result: Operand,
        restricted: bool,
        out: &mut Vec<u32>,
        args: &mut Vec<Oid>,
    ) {
        let ops = std::iter::once(call.receiver).chain(call.args.iter().copied());
        self.each_object(row, ops, restricted, &mut |row| {
            let receiver = self.get(row, call.receiver).expect("enumerated above");
            let args = self.bound(row, &call.args, args).expect("enumerated above");
            if let Some(res) = self.structure.apply_scalar(method, receiver, args) {
                self.emit(out, row, [(call.method, method), (result, res)]);
            }
        });
    }

    fn scalar(
        &self,
        call: &Call,
        result: Operand,
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
        scratch: &mut Scratch<'a>,
    ) {
        let (s, dv) = (self.structure, self.dv);
        let facts = s.facts();
        if self.all_bound(rows, call.operands()) {
            // A probe per row, the lookups in one tight loop over the run
            // (so that those of neighbouring rows overlap) — of the method's
            // facts tabulated by receiver, when the rule names a stored
            // method without arguments and the run is long; the rows whose
            // application is defined (restricted: entered the window) go on
            // with its result gathered into a temporary, or filtered by a
            // bound one.  A built-in reads no window.
            let stored = self.named(call.method).filter(|&m| !is_builtin(s, m));
            let table = match stored {
                Some(m) if !restricted && call.args.is_empty() => {
                    let table = self.tabulate(rows, || facts.count_scalar_of_method(m), &mut scratch.table);
                    if table {
                        for f in facts.scalar_facts_of_method(m).filter(|f| f.args.is_empty()) {
                            scratch.table[f.receiver.index()] = f.result.0 + 1;
                        }
                    }
                    table
                }
                _ => false,
            };
            let Scratch {
                args,
                found,
                table: objects,
                ..
            } = scratch;
            let named = self.named(call.method);
            found.clear();
            found.extend(self.rows(rows).map(|row| {
                let receiver = self.get(row, call.receiver).expect("bound");
                if table {
                    return objects[receiver.index()];
                }
                let m = named.or_else(|| self.get(row, call.method)).expect("bound");
                let args = self.bound(row, &call.args, args).expect("bound");
                let value = match restricted {
                    false => s.apply_scalar(m, receiver, args),
                    true if is_builtin(s, m) => None,
                    true => facts
                        .scalar_index(m, receiver, args)
                        .filter(|&idx| dv.scalar_is_new(idx))
                        .map(|idx| facts.scalar_fact_at(idx).result),
                };
                value.map_or(0, |v| v.0 + 1)
            }));
            for (row, &v) in self.rows(rows).zip(found.iter()) {
                if let Some(v) = object(v) {
                    self.emit(out, row, [(result, v)]);
                }
            }
            return;
        }
        for row in self.rows(rows) {
            let (method, receiver) = (self.get(row, call.method), self.get(row, call.receiver));
            // An unbound method variable ranges over the stored methods and
            // `self`, which every object answers to.
            if method.is_none_or(|m| is_builtin(s, m)) {
                let method_or_self = method.unwrap_or(s.self_method());
                self.builtin(row, call, method_or_self, result, restricted, out, &mut scratch.args);
                if method.is_some() {
                    continue;
                }
            }
            let mut visit = |f: ScalarFactView<'_>| {
                if let Some(binds) = call_binds(call, f.method, f.receiver, f.args) {
                    self.emit(out, row, binds.chain([(result, f.result)]));
                }
            };
            // The call is not bound (a bound one was probed above): an index
            // walk.
            match (method, receiver) {
                (Some(m), _) if restricted => {
                    for &idx in dv.new_scalar_facts_of_method(m) {
                        visit(facts.scalar_fact_at(idx));
                    }
                }
                (Some(m), Some(r)) => facts.scalar_facts_of_method_receiver(m, r).for_each(visit),
                (Some(m), None) => match self.get(row, result) {
                    Some(v) => facts.scalar_facts_with_result(m, v).for_each(visit),
                    None => facts.scalar_facts_of_method(m).for_each(visit),
                },
                (None, Some(r)) if !restricted => facts.scalar_facts_of_receiver(r).for_each(visit),
                (None, _) => {
                    let window = if restricted {
                        dv.new_scalar_facts()
                    } else {
                        0..usize::MAX
                    };
                    facts
                        .scalar_facts_in(window.start, window.end)
                        .for_each(|(_, f)| visit(f));
                }
            }
        }
    }

    /// Probe the application `call` denotes in every row of `rows`, where
    /// the call is bound, in one tight loop: per row, in `scratch.runs`, its
    /// members (none when it is undefined) and the members the step reads —
    /// all of them, or restricted those the window added.
    fn probe_apps(&self, rows: &[u32], call: &Call, restricted: bool, scratch: &mut Scratch<'a>) {
        let (s, dv) = (self.structure, self.dv);
        let Scratch { args, runs, .. } = scratch;
        let named = self.named(call.method);
        runs.clear();
        runs.extend(self.rows(rows).map(|row| {
            let m = named.or_else(|| self.get(row, call.method)).expect("bound");
            let r = self.get(row, call.receiver).expect("bound");
            let args = self.bound(row, &call.args, args).expect("bound");
            let members = s.apply_set(m, r, args).map_or(&[][..], OidRun::as_slice);
            let read = match restricted {
                false => Some(members),
                true => s
                    .facts()
                    .set_index(m, r, args)
                    .and_then(|idx| dv.new_members_of_app(idx)),
            };
            (members, read.unwrap_or(&[]))
        }));
    }

    /// Visit the stored applications `call` can denote in `row` — where the
    /// call is not bound (see [`Scope::probe_apps`]) — as `row` with the
    /// call's operands bound to each, the walk narrowed to those
    /// `containing` a member, when given.  Restricted: one visit per window
    /// entry, with the member it added.
    fn each_app(
        &self,
        row: &[u32],
        call: &Call,
        containing: Option<Oid>,
        restricted: bool,
        scratch: &mut Scratch<'a>,
        visit: &mut impl FnMut(&[u32], &OidRun, Option<Oid>) -> Result<()>,
    ) -> Result<()> {
        let (s, dv) = (self.structure, self.dv);
        let facts = s.facts();
        let (method, receiver) = (self.get(row, call.method), self.get(row, call.receiver));
        let app = &mut scratch.app;
        let mut at = |f: SetFactView<'_>, new: Option<Oid>| {
            app.clear();
            let bound = call_binds(call, f.method, f.receiver, f.args).is_some_and(|binds| self.emit(app, row, binds));
            if bound {
                visit(app, f.members, new)?;
            }
            Ok(())
        };
        // A window entry adding another member than the one wanted is
        // rejected before its application is looked at.
        let wanted = |x: Oid| containing.is_none_or(|c| c == x);
        match (method, receiver) {
            (Some(m), _) if restricted => {
                for &(app, x) in dv.new_set_entries_of_method(m).iter().filter(|e| wanted(e.1)) {
                    at(facts.set_fact_at(app), Some(x))?;
                }
            }
            (None, _) if restricted => {
                let window = dv.new_set_entries();
                for (app, x) in facts.set_members_in(window.start, window.end).filter(|e| wanted(e.1)) {
                    at(facts.set_fact_at(app), Some(x))?;
                }
            }
            (Some(m), Some(r)) => facts.set_facts_of_method_receiver(m, r).try_for_each(|f| at(f, None))?,
            (Some(m), None) => match containing {
                Some(x) => facts.set_facts_containing(m, x).try_for_each(|f| at(f, None))?,
                None => facts.set_facts_of_method(m).try_for_each(|f| at(f, None))?,
            },
            (None, Some(r)) => facts.set_facts_of_receiver(r).try_for_each(|f| at(f, None))?,
            (None, None) => facts.set_facts().try_for_each(|f| at(f, None))?,
        }
        Ok(())
    }

    fn member(
        &self,
        call: &Call,
        member: Operand,
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
        scratch: &mut Scratch<'a>,
    ) -> Result<()> {
        if self.all_bound(rows, call.operands()) {
            // A probe per row, as for a scalar; each row then goes on once
            // per member the step reads, or, with the member bound, if it is
            // one of them.
            self.probe_apps(rows, call, restricted, scratch);
            for (row, &(_, read)) in self.rows(rows).zip(scratch.runs.iter()) {
                match self.get(row, member) {
                    Some(x) if read.binary_search(&x).is_ok() => out.extend_from_slice(row),
                    Some(_) => {}
                    None => {
                        for &x in read {
                            self.emit(out, row, [(member, x)]);
                        }
                    }
                }
            }
            return Ok(());
        }
        for row in self.rows(rows) {
            let wanted = self.get(row, member);
            // The call's own operands may bind `member` (`X[m ->> {X}]`):
            // it is read again in the row the application is visited in.
            self.each_app(row, call, wanted, restricted, scratch, &mut |row, members, new| {
                match (new, self.get(row, member)) {
                    (Some(x), _) => {
                        self.emit(out, row, [(member, x)]);
                    }
                    // A filter.
                    (None, Some(x)) => {
                        if members.contains(&x) {
                            out.extend_from_slice(row);
                        }
                    }
                    // An expansion: one row per member.
                    (None, None) => {
                        for &x in members.iter() {
                            self.emit(out, row, [(member, x)]);
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn superset(
        &self,
        call: &Call,
        rhs: &Term,
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
        scratch: &mut Scratch<'a>,
    ) -> Result<()> {
        // The required set is a strict use of an earlier stratum and cannot
        // change mid-stratum; the application can gain members, which
        // re-establishes the condition.
        let holds = |row: &[u32], members: &[Oid]| -> Result<bool> {
            let bindings = self.rule.bindings_of(&row[..self.slots]);
            let required = required_members(self.structure, rhs, &bindings)?;
            Ok(required.iter().all(|x| members.binary_search(x).is_ok()))
        };
        if self.all_bound(rows, call.operands()) {
            // A probe per row, as for a member; a bound application, even
            // an undefined one, is checked — restricted, when the window
            // added to it.
            self.probe_apps(rows, call, restricted, scratch);
            for (row, &(members, read)) in self.rows(rows).zip(scratch.runs.iter()) {
                if !(restricted && read.is_empty()) && holds(row, members)? {
                    out.extend_from_slice(row);
                }
            }
            return Ok(());
        }
        for row in self.rows(rows) {
            self.each_app(row, call, None, restricted, scratch, &mut |row, members, _| {
                if holds(row, members)? {
                    out.extend_from_slice(row);
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn isa(
        &self,
        instance: Operand,
        class: Operand,
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
        scratch: &mut Scratch<'a>,
    ) {
        let (s, dv) = (self.structure, self.dv);
        if self.all_bound(rows, [instance, class].into_iter()) {
            // A probe per row in one tight loop, then a filter on the run;
            // against the extent of a class the rule names, tabulated when
            // the run is long.
            let named = self.named(class).filter(|_| !restricted);
            let mut extent: &[Oid] = &[];
            let table = named.is_some_and(|c| {
                let size = || {
                    extent = s.isa().extent_run(c).map_or(&[][..], OidRun::as_slice);
                    extent.len()
                };
                self.tabulate(rows, size, &mut scratch.table)
            });
            if table {
                extent.iter().for_each(|o| scratch.table[o.index()] = 1);
            }
            let found = &mut scratch.found;
            found.clear();
            found.extend(self.rows(rows).map(|row| {
                let (o, c) = (
                    self.get(row, instance).expect("bound"),
                    self.get(row, class).expect("bound"),
                );
                match table {
                    true => scratch.table[o.index()],
                    false if restricted => u32::from(dv.isa_is_new(o, c)),
                    false => u32::from(s.in_class(o, c)),
                }
            }));
            for (row, &holds) in self.rows(rows).zip(found.iter()) {
                if holds != 0 {
                    out.extend_from_slice(row);
                }
            }
            return;
        }
        for row in self.rows(rows) {
            let mut pair = |o: Oid, c: Oid| {
                self.emit(out, row, [(instance, o), (class, c)]);
            };
            match (self.get(row, instance), self.get(row, class)) {
                (None, Some(c)) if restricted => dv.new_instances_of(c).iter().for_each(|&o| pair(o, c)),
                (None, Some(c)) => s.instances_of(c).for_each(|o| pair(o, c)),
                (Some(o), None) if !restricted => s.classes_of(o).for_each(|c| pair(o, c)),
                // The closure's insertion log holds every pair (a run with
                // both operands bound was probed above).
                _ => {
                    let window = if restricted { dv.new_isa_pairs() } else { 0..usize::MAX };
                    s.isa().pairs_in(window.start, window.end).for_each(|(o, c)| pair(o, c));
                }
            }
        }
    }

    fn signature(
        &self,
        call: &Call,
        set_valued: bool,
        results: &[Operand],
        restricted: bool,
        rows: &[u32],
        out: &mut Vec<u32>,
    ) {
        // Declarations carry no per-fact stamps: a window that added any
        // re-matches them all.
        if restricted && !self.dv.sigs_changed() {
            return;
        }
        let s = self.structure;
        for row in self.rows(rows) {
            if let Some(method) = self.get(row, call.method) {
                self.declared(row, call, method, set_valued, results, out);
                continue;
            }
            // As `answers()` seeds it: an unbound method variable ranges
            // over the methods with facts stored on the receiver (and
            // `self`), not over the declarations.
            self.each_object(row, std::iter::once(call.receiver), false, &mut |row| {
                let r = self.get(row, call.receiver).expect("enumerated above");
                let methods: BTreeSet<Oid> = if set_valued {
                    s.facts().set_facts_of_receiver(r).map(|f| f.method).collect()
                } else {
                    let stored = s.facts().scalar_facts_of_receiver(r).map(|f| f.method);
                    stored.chain([s.self_method()]).collect()
                };
                for method in methods {
                    self.declared(row, call, method, set_valued, results, out);
                }
            });
        }
    }

    /// Emit `row` bound to each declaration of `method`: its method, class
    /// and argument classes, and every operand of `results` to one of its
    /// result classes — every combination, the first operand's class
    /// varying slowest.
    fn declared(
        &self,
        row: &[u32],
        call: &Call,
        method: Oid,
        set_valued: bool,
        results: &[Operand],
        out: &mut Vec<u32>,
    ) {
        for sig in self.structure.signatures().for_method(method) {
            if sig.set_valued != set_valued {
                continue;
            }
            let Some(binds) = call_binds(call, sig.method, sig.class, &sig.arg_classes) else {
                continue;
            };
            let classes = &sig.result_classes;
            let digit =
                |k: usize, i: usize| classes[k / classes.len().pow((results.len() - 1 - i) as u32) % classes.len()];
            for k in 0..classes.len().pow(results.len() as u32) {
                let chosen = results.iter().enumerate().map(|(i, &op)| (op, digit(k, i)));
                self.emit(out, row, binds.clone().chain(chosen));
            }
        }
    }
}

/// The rows of the run an anti-join's last step maps at a time: its output
/// never holds more than their completions.
pub(super) const ANTI_JOIN_PART: usize = 1024;

/// The executor of one pass: a literal's atoms run a step at a time over
/// the rows of every incoming frame (see the module docs).
pub(super) struct Machine<'a> {
    scope: Scope<'a>,
    /// The run the next step reads, and the one it writes: swapped after
    /// every step and reused from literal to literal.
    rows: Vec<u32>,
    next: Vec<u32>,
    scratch: Scratch<'a>,
    /// `Some` when every completion also emits the object this operand
    /// holds, as one more word of the frame ([`Machine::emit_denoted`]).
    denoted: Option<Operand>,
}

impl<'a> Machine<'a> {
    pub(super) fn new(structure: &'a Structure, dv: &'a DeltaView, rule: &'a CompiledRule) -> Self {
        let names = rule
            .names
            .iter()
            .map(|name| structure.lookup_name(name).map_or(0, |o| o.0 + 1));
        let slots = rule.slot_count();
        Machine {
            scope: Scope {
                structure,
                dv,
                rule,
                names: names.collect(),
                slots,
                width: slots + rule.temps + 1,
            },
            rows: Vec::new(),
            next: Vec::new(),
            scratch: Scratch::default(),
            denoted: None,
        }
    }

    /// From here on a completion emits its frame and, as one more word, the
    /// object `denoted` holds: what a reference denotes along one derivation
    /// path, temporaries included.
    pub(super) fn emit_denoted(&mut self, denoted: Operand) {
        self.denoted = Some(denoted);
    }

    /// Does the structure know every name of `lit`?  A name it does not know
    /// denotes nothing, so the literal has no solution.
    pub(super) fn knows(&self, lit: &CompiledLiteral) -> bool {
        self.scope.names[lit.names.clone()].iter().all(|&c| c != 0)
    }

    /// The atoms of `lit` in the order of `steps` — in lowering order without.
    fn chain(lit: &'a CompiledLiteral, steps: Option<&[AtomStep]>) -> Vec<usize> {
        match steps {
            Some(steps) => steps.iter().map(|s| s.atom).collect(),
            None => (0..lit.atoms.len()).collect(),
        }
    }

    /// Load `frames` as the run the first step reads: each frame with its
    /// temporaries unbound, tagged with its index.
    fn load(&mut self, frames: &FrameRun) {
        let Scope { slots, width, .. } = self.scope;
        self.rows.clear();
        self.rows.reserve(frames.len() * width);
        for (tag, frame) in frames.frames().enumerate() {
            self.rows.extend_from_slice(frame);
            self.rows.resize(self.rows.len() + width - slots - 1, 0);
            self.rows.push(tag as u32);
        }
    }

    /// Map the loaded run through the step of `atom`.
    fn step(&mut self, atom: &Atom, restricted: bool) -> Result<()> {
        self.next.clear();
        self.scope
            .step(atom, restricted, &self.rows, &mut self.next, &mut self.scratch)?;
        std::mem::swap(&mut self.rows, &mut self.next);
        Ok(())
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
        let slots = self.scope.slots;
        let mut out = FrameRun::new(slots + usize::from(self.denoted.is_some()));
        for chain in &chains {
            self.load(frames);
            for &(atom, restricted) in chain {
                if self.rows.is_empty() {
                    break;
                }
                self.step(atom, restricted)?;
            }
            for row in self.scope.rows(&self.rows) {
                let object = self.denoted.map(|op| self.scope.cell(row, op));
                out.push_with(&row[..slots], object);
            }
        }
        Ok(out)
    }

    /// The frames of `frames` that negated literal `lit`, its atoms run in
    /// the order of `steps`, does not hold of.
    pub(super) fn anti_join(
        &mut self,
        lit: &'a CompiledLiteral,
        steps: &[AtomStep],
        frames: &FrameRun,
    ) -> Result<FrameRun> {
        self.load(frames);
        let (last, init) = steps.split_last().expect("a literal has atoms");
        for step in init {
            if self.rows.is_empty() {
                break;
            }
            self.step(&lit.atoms[step.atom], false)?;
        }
        // The last step only tells which frames hold: it maps the run a
        // part at a time, and each part's completions are read for their
        // tags and dropped.
        let width = self.scope.width;
        let mut holds = vec![false; frames.len()];
        for part in self.rows.chunks(ANTI_JOIN_PART * width) {
            self.next.clear();
            self.scope
                .step(&lit.atoms[last.atom], false, part, &mut self.next, &mut self.scratch)?;
            for row in self.scope.rows(&self.next) {
                holds[row[width - 1] as usize] = true;
            }
        }
        let mut tags = holds.iter();
        Ok(frames.filtered(|_| !tags.next().expect("one per frame")))
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

/// Call `f` with every operand of `atom` (the strict right-hand side of a
/// `->>` check is a term, not an operand).
pub(crate) fn each_operand(atom: &Atom, f: &mut impl FnMut(Operand)) {
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
        let Scope { slots, ref names, .. } = self.scope;
        let mut bound = vec![false; slots];
        bound.extend(names.iter().map(|&c| c != 0));
        bound.resize(bound.len() + self.scope.rule.temps, false);
        bound
    }

    /// Where `bound` marks `op`.
    fn index(&self, op: Operand) -> usize {
        match op {
            Operand::Slot(i) => i,
            Operand::Name(i) => self.scope.slots + i,
            Operand::Temp(i) => self.scope.slots + self.scope.names.len() + i,
        }
    }

    fn known(&self, op: Operand, bound: &[bool]) -> Known {
        match op {
            Operand::Name(i) if self.scope.names[i] != 0 => Known::Object(Oid(self.scope.names[i] - 1)),
            _ if bound[self.index(op)] => Known::InFrame,
            _ => Known::Free,
        }
    }

    /// The size of the index `atom`'s unrestricted step walks when the cells
    /// marked in `bound` are (see [`AtomStep::cardinality`]) — mirroring the
    /// arms of the step functions above.  `None` when it is a posting-list
    /// length and `read` says not to fetch one.
    fn cardinality(&self, atom: &Atom, bound: &[bool], read: bool) -> Option<usize> {
        let s = self.scope.structure;
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
        bound[self.scope.slots + self.scope.names.len()..].fill(false);
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
