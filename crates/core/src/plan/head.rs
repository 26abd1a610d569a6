//! Heads lowered once: the commit step's compiled form.
//!
//! For every solution of its body a statement's head is made true — its
//! filters asserted, its undefined head paths minted as virtual objects, the
//! path being the skolem term of the object it mints (Section 6).
//! [`HeadArena::lower`] walks a head once, when the program is installed,
//! into a flat [`HeadProgram`]: steps over operands that are objects named
//! in the head (resolved — and registered — by the walk itself, each
//! distinct name once per install through its [`NameCache`]), slots of
//! the body's compiled frame, or the object an earlier step got or minted.
//! [`HeadArena::run`] then commits one frame by running the steps in order:
//! no [`Bindings`], no term walk and no name lookup per solution.
//!
//! The steps are those of the interpreter
//! [`assert_head`](crate::engine::assert_head), in its order, and each adds
//! to the [`AssertEffect`] what the interpreter adds: a frame commits the
//! facts, the insertion-log entries and the virtual objects the interpreter
//! commits under the frame's bindings, in the same order.  The walk visits
//! the head's names in [`Term::visit`] pre-order — the interpreter's order,
//! and the order in which the reference registers them.
//!
//! One right-hand side keeps its term: `m ->> t` where `t` is not one stored
//! application is valuated under the frame's bindings
//! ([`CompiledRule::bindings_of`]).

use std::ops::Range;

use super::CompiledRule;
use crate::engine::AssertEffect;
use crate::error::{Error, Result};
use crate::names::Var;
use crate::semantics::{valuate, Bindings};
use crate::structure::{NameCache, Oid, OidRun, Signature, Structure};
use crate::term::{FilterValue, Term};

/// Where a step finds an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// An object the head names.
    Const(Oid),
    /// Slot `i` of the body's frame.
    Slot(usize),
    /// The object the `k`-th [`Step::Path`] of the program got or minted.
    Path(usize),
}

/// `receiver[method@(args)]`, the arguments a range of the arena's operands.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Call {
    receiver: Operand,
    method: Operand,
    args: Range<usize>,
}

/// One step of a head program, on the application it asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// A head path: the scalar result of the call, or — where it is
    /// undefined — a fresh virtual object stored as that result.
    Path(Call),
    /// `m -> value`.
    Scalar(Call, Operand),
    /// One member of `m ->> {…}`.
    Member(Call, Operand),
    /// `m ->> t`, `t` one stored application: its run, merged.
    MergeStored(Call, Call),
    /// `m ->> t` for any other `t`: the arena's `terms[i]`, valuated under
    /// the frame's bindings and merged.
    MergeValuated(Call, usize),
    /// `instance : class`.
    Isa(Operand, Operand),
    /// `m => (…)`, or `m =>> (…)` when set-valued: a signature declaration,
    /// its result classes a range of the arena's operands.
    Signature(Call, bool, Range<usize>),
}

/// The lowered head of one statement: a range of its arena's steps, and the
/// body slots the steps read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadProgram {
    steps: Range<usize>,
    slots: Range<usize>,
}

/// The heads of a program, lowered into one arena.
#[derive(Debug, Clone, Default)]
pub struct HeadArena {
    steps: Vec<Step>,
    operands: Vec<Operand>,
    slots: Vec<usize>,
    terms: Vec<Term>,
}

/// What [`HeadArena::run`] reuses from frame to frame: the objects of the
/// program's paths, and one application's arguments.
#[derive(Debug, Default)]
pub struct HeadBuffers {
    paths: Vec<Oid>,
    args: Vec<Oid>,
}

impl HeadArena {
    /// Lower `head`, whose variables are the body slots `vars` (none, for a
    /// fact), resolving — and registering — every name it mentions in
    /// [`Term::visit`] pre-order through the install's `names` (and so in
    /// its structure).  A
    /// set-valued head path or a head variable no slot holds is the
    /// interpreter's error; validation rejects both.
    pub fn lower<'n>(&mut self, names: &mut NameCache<'_, 'n>, head: &'n Term, vars: &[Var]) -> Result<HeadProgram> {
        let (steps, slots) = (self.steps.len(), self.slots.len());
        let mut lowering = Lowering {
            arena: self,
            names,
            vars,
            slots,
            paths: 0,
        };
        lowering.term(head)?;
        Ok(HeadProgram {
            steps: steps..self.steps.len(),
            slots: slots..self.slots.len(),
        })
    }

    /// The distinct body slots `program` reads: its head valuation.
    pub fn slots(&self, program: &HeadProgram) -> &[usize] {
        &self.slots[program.slots.clone()]
    }

    /// `(receiver slot, method, member slot)` when `program` is the one
    /// member insert `X[m ->> {Y}]`: a constant method, no arguments, a slot
    /// receiver and a slot member.
    pub fn member_insert(&self, program: &HeadProgram) -> Option<(usize, Oid, usize)> {
        match &self.steps[program.steps.clone()] {
            [Step::Member(
                Call {
                    receiver: Operand::Slot(receiver),
                    method: Operand::Const(method),
                    args,
                },
                Operand::Slot(member),
            )] if args.is_empty() => Some((*receiver, *method, *member)),
            _ => None,
        }
    }

    /// Make `program`'s head true under the slot frame `frame` of
    /// `compiled` (an empty frame and no body, for a fact).  Returns what
    /// that added.
    pub fn run(
        &self,
        program: &HeadProgram,
        structure: &mut Structure,
        frame: &[u32],
        compiled: Option<&CompiledRule>,
        buffers: &mut HeadBuffers,
    ) -> Result<AssertEffect> {
        let mut effect = AssertEffect::default();
        let HeadBuffers { paths, args } = buffers;
        paths.clear();
        let value = |op: Operand, paths: &[Oid]| match op {
            Operand::Const(oid) => oid,
            Operand::Slot(i) => {
                debug_assert!(frame[i] != 0, "a head variable is bound by the body");
                Oid(frame[i] - 1)
            }
            Operand::Path(k) => paths[k],
        };
        // The method and receiver of `call`, its arguments into `args`.
        let apply = |call: &Call, paths: &[Oid], args: &mut Vec<Oid>| {
            args.clear();
            args.extend(self.operands[call.args.clone()].iter().map(|&a| value(a, paths)));
            (value(call.method, paths), value(call.receiver, paths))
        };
        for step in &self.steps[program.steps.clone()] {
            match step {
                Step::Path(call) => {
                    let (method, receiver) = apply(call, paths, args);
                    let object = match structure.apply_scalar(method, receiver, args) {
                        Some(existing) => existing,
                        None => {
                            let fresh = structure.new_virtual();
                            effect.virtual_objects += 1;
                            if structure.assert_scalar(method, receiver, args, fresh)?.is_new() {
                                effect.scalar_facts += 1;
                            }
                            fresh
                        }
                    };
                    paths.push(object);
                }
                Step::Scalar(call, result) => {
                    let (method, receiver) = apply(call, paths, args);
                    let result = value(*result, paths);
                    if structure.assert_scalar(method, receiver, args, result)?.is_new() {
                        effect.scalar_facts += 1;
                    }
                }
                Step::Member(call, member) => {
                    let (method, receiver) = apply(call, paths, args);
                    let member = value(*member, paths);
                    if structure.assert_set_member(method, receiver, args, member).is_new() {
                        effect.set_members += 1;
                    }
                }
                Step::MergeStored(call, rhs) => {
                    // The run as stored (shared, not copied); an undefined
                    // application is the empty run.
                    let (method, receiver) = apply(rhs, paths, args);
                    let run = structure.apply_set(method, receiver, args);
                    let members = run.unwrap_or(OidRun::empty_ref()).clone();
                    let (method, receiver) = apply(call, paths, args);
                    effect.set_members += structure.assert_set_members(method, receiver, args, &members);
                }
                Step::MergeValuated(call, rhs) => {
                    let bindings = compiled.map_or_else(Bindings::new, |c| c.bindings_of(frame));
                    let members: Vec<Oid> = valuate(structure, &self.terms[*rhs], &bindings)?.into_iter().collect();
                    let (method, receiver) = apply(call, paths, args);
                    effect.set_members += structure.assert_set_members(method, receiver, args, &members);
                }
                Step::Isa(instance, class) => {
                    if structure.add_isa(value(*instance, paths), value(*class, paths)) {
                        effect.isa_edges += 1;
                    }
                }
                Step::Signature(call, set_valued, results) => {
                    let (method, class) = apply(call, paths, args);
                    let results = self.operands[results.clone()].iter();
                    let sig = Signature {
                        class,
                        method,
                        arg_classes: args.as_slice().into(),
                        result_classes: results.map(|&r| value(r, paths)).collect(),
                        set_valued: *set_valued,
                    };
                    if structure.add_signature(sig) {
                        effect.signatures += 1;
                    }
                }
            }
        }
        Ok(effect)
    }
}

/// One head being lowered into an arena.
struct Lowering<'a, 's, 'n> {
    arena: &'a mut HeadArena,
    names: &'a mut NameCache<'s, 'n>,
    /// The body's slot variables.
    vars: &'a [Var],
    /// Where this head's slots start in the arena.
    slots: usize,
    /// The head's paths so far.
    paths: usize,
}

impl<'n> Lowering<'_, '_, 'n> {
    /// Lower `term`, appending the steps that make it true; returns the
    /// operand of the object it denotes.
    fn term(&mut self, term: &'n Term) -> Result<Operand> {
        let step = match term {
            Term::Name(n) => return Ok(Operand::Const(self.names.resolve(n))),
            Term::Var(v) => return self.slot(v).map(Operand::Slot),
            Term::Paren(t) => return self.term(t),
            Term::Path(p) if p.set_valued => {
                return Err(Error::InvalidRule(format!(
                    "set-valued path `{term}` cannot be asserted in a rule head"
                )))
            }
            Term::Path(p) => {
                let receiver = self.term(&p.receiver)?;
                Step::Path(self.call(receiver, &p.method, &p.args)?)
            }
            Term::IsA(i) => {
                let instance = self.term(&i.receiver)?;
                let class = self.term(&i.class)?;
                self.arena.steps.push(Step::Isa(instance, class));
                return Ok(instance);
            }
            Term::Molecule(m) => {
                let receiver = self.term(&m.receiver)?;
                for f in &m.filters {
                    self.filter(receiver, &f.method, &f.args, &f.value)?;
                }
                return Ok(receiver);
            }
        };
        self.arena.steps.push(step);
        self.paths += 1;
        Ok(Operand::Path(self.paths - 1))
    }

    /// Lower the filter `method@(args) value` of `receiver`.
    fn filter(&mut self, receiver: Operand, method: &'n Term, args: &'n [Term], value: &'n FilterValue) -> Result<()> {
        let call = self.call(receiver, method, args)?;
        let step = match value {
            FilterValue::Scalar(value) => Step::Scalar(call, self.term(value)?),
            FilterValue::SetExplicit(values) => {
                // Each member is asserted before the next is lowered: a
                // member path mints in between.
                for value in values {
                    let member = self.term(value)?;
                    self.arena.steps.push(Step::Member(call.clone(), member));
                }
                return Ok(());
            }
            FilterValue::SetRef(value) => match self.stored(value)? {
                Some(rhs) => Step::MergeStored(call, rhs),
                None => {
                    self.register(value)?;
                    self.arena.terms.push(value.clone());
                    Step::MergeValuated(call, self.arena.terms.len() - 1)
                }
            },
            FilterValue::SigScalar(results) => Step::Signature(call, false, self.operands(results)?),
            FilterValue::SigSet(results) => Step::Signature(call, true, self.operands(results)?),
        };
        self.arena.steps.push(step);
        Ok(())
    }

    /// The application of `method` with `args` to `receiver`.
    fn call(&mut self, receiver: Operand, method: &'n Term, args: &'n [Term]) -> Result<Call> {
        let method = self.term(method)?;
        let args = self.operands(args)?;
        Ok(Call { receiver, method, args })
    }

    /// Lower `terms` — each may add steps of its own — into one range of
    /// the arena's operands.
    fn operands(&mut self, terms: &'n [Term]) -> Result<Range<usize>> {
        let operands = terms.iter().map(|t| self.term(t)).collect::<Result<Vec<_>>>()?;
        let start = self.arena.operands.len();
        self.arena.operands.extend(operands);
        Ok(start..self.arena.operands.len())
    }

    /// The slot of head variable `v`, recorded among the head's slots.
    fn slot(&mut self, v: &Var) -> Result<usize> {
        let Some(slot) = self.vars.iter().position(|w| w == v) else {
            return Err(Error::InvalidRule(format!(
                "head variable {v} is unbound (unsafe rule slipped through validation)"
            )));
        };
        if !self.arena.slots[self.slots..].contains(&slot) {
            self.arena.slots.push(slot);
        }
        Ok(slot)
    }

    /// `value` as one stored application — `V..m` or `V..m@(A, …)` whose
    /// receiver, method and arguments are each a name or a slot variable —
    /// lowered; `None` for any other shape, registering nothing.
    fn stored(&mut self, value: &'n Term) -> Result<Option<Call>> {
        let Term::Path(p) = value else { return Ok(None) };
        let simple = |t: &Term| match t {
            Term::Name(_) => true,
            Term::Var(v) => self.vars.contains(v),
            _ => false,
        };
        if !p.set_valued || !simple(&p.receiver) || !simple(&p.method) || !p.args.iter().all(simple) {
            return Ok(None);
        }
        let receiver = self.term(&p.receiver)?;
        self.call(receiver, &p.method, &p.args).map(Some)
    }

    /// Register the names of a right-hand side kept as a term, and record
    /// the slots of its variables.
    fn register(&mut self, value: &'n Term) -> Result<()> {
        let mut result = Ok(());
        value.visit(&mut |t| match t {
            Term::Name(n) => {
                self.names.resolve(n);
            }
            Term::Var(v) if result.is_ok() => result = self.slot(v).map(|_| ()),
            _ => {}
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::assert_head;
    use crate::names::Name;
    use crate::semantics::model::register_names;
    use crate::term::Filter;

    /// Heads over `X` and `Y`: a minting chain with a scalar, an explicit
    /// set out of order with a minted member, a stored and a valuated set
    /// right-hand side, a path with an argument, an is-a and a signature.
    fn heads() -> Vec<Term> {
        let (x, y) = (|| Term::var("X"), || Term::var("Y"));
        vec![
            x().scalar("boss")
                .scalar("car")
                .filter(Filter::scalar("color", Term::name("red"))),
            x().filters(vec![
                Filter::set(
                    "tags",
                    vec![Term::name("zeta"), y(), x().scalar("mate"), Term::name("alpha")],
                ),
                Filter::set_ref("pals", y().set("kids")),
                Filter::set_ref("grand", x().set("kids").set("kids")),
            ]),
            x().scalar_args("rank", vec![y()])
                .filter(Filter::scalar("by", y()))
                .isa("ranked"),
            Term::name("person").filter(Filter {
                method: Term::name("age"),
                args: vec![y()],
                value: FilterValue::SigScalar(vec![Term::name("integer")]),
            }),
        ]
    }

    #[test]
    fn lowering_registers_the_names_the_reference_registers() {
        let vars = [Var::new("X"), Var::new("Y")];
        for head in heads() {
            let mut lowered = Structure::new();
            HeadArena::default()
                .lower(&mut NameCache::new(&mut lowered), &head, &vars)
                .unwrap();
            let mut registered = Structure::new();
            register_names(&mut NameCache::new(&mut registered), &head);
            assert_eq!(lowered.canonical_dump(), registered.canonical_dump(), "`{head}`");
        }
    }

    #[test]
    fn a_frame_commits_what_assert_head_commits_under_its_bindings() {
        let vars = [Var::new("Y"), Var::new("X")];
        let mut s = Structure::new();
        let (p1, p2, p3, kids) = (s.atom("p1"), s.atom("p2"), s.atom("p3"), s.atom("kids"));
        s.assert_set_member(kids, p1, &[], p2);
        s.assert_set_member(kids, p2, &[], p3);
        let compiled = crate::plan::compile_query([(true, &Term::var("Y")), (true, &Term::var("X"))]);
        assert_eq!(compiled.slot_vars(), vars);
        let frame = [p2.0 + 1, p1.0 + 1];
        for head in heads() {
            let mut lowered = s.clone();
            let mut arena = HeadArena::default();
            let program = arena.lower(&mut NameCache::new(&mut lowered), &head, &vars).unwrap();
            let mut interpreted = lowered.clone();
            let mut buffers = HeadBuffers::default();
            for _ in 0..2 {
                let effect = arena
                    .run(&program, &mut lowered, &frame, Some(&compiled), &mut buffers)
                    .unwrap();
                let (_, expected) = assert_head(&mut interpreted, &head, &compiled.bindings_of(&frame)).unwrap();
                assert_eq!(effect, expected, "`{head}`");
                assert_eq!(lowered.canonical_dump(), interpreted.canonical_dump(), "`{head}`");
                let log = |s: &Structure| s.facts().set_members_since(0).collect::<Vec<_>>();
                assert_eq!(log(&lowered), log(&interpreted), "`{head}`");
            }
        }
    }

    #[test]
    fn only_one_slot_to_slot_member_insert_is_the_member_insert() {
        let vars = [Var::new("X"), Var::new("Y")];
        let mut s = Structure::new();
        let mut arena = HeadArena::default();
        let member = |receiver: Term, members: Vec<Term>| receiver.filter(Filter::set("desc", members));
        let tc = arena
            .lower(
                &mut NameCache::new(&mut s),
                &member(Term::var("X"), vec![Term::var("Y")]),
                &vars,
            )
            .unwrap();
        let desc = s.lookup_name(&Name::atom("desc")).unwrap();
        assert_eq!(arena.member_insert(&tc), Some((0, desc, 1)));
        assert_eq!(arena.slots(&tc), [0, 1]);
        for head in [
            member(Term::name("a"), vec![Term::var("Y")]),
            member(Term::var("X"), vec![Term::var("Y"), Term::var("X")]),
            member(Term::var("X"), vec![Term::name("b")]),
            Term::var("X").filter(Filter {
                method: Term::name("desc"),
                args: vec![Term::var("Y")],
                value: FilterValue::SetExplicit(vec![Term::var("Y")]),
            }),
        ] {
            let program = arena.lower(&mut NameCache::new(&mut s), &head, &vars).unwrap();
            assert_eq!(arena.member_insert(&program), None, "`{head}`");
        }
    }
}
