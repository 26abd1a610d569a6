//! Incremental matching of one condition body: the matcher the constraint
//! checker and the production engine share.
//!
//! A [`Condition`] is a body compiled once ([`compile_query`]) that keeps
//! its solutions as one canonical [`FrameRun`] and remembers where the
//! structure stood when it last matched it (a [`Mark`]: the watermarks, the
//! retraction count and the length of the facts' mutation journal).  A
//! refresh evaluates only the instances of the body that the span since can
//! have affected — Decker's rule for integrity checking, which holds for
//! any body whose solutions are cached:
//!
//! * The *touched keys* ([`Span`]) are the `(method, receiver)` pairs the
//!   journal records for every successful assert *and* retract, and the
//!   `(class, instance)` pairs the is-a closure gained.
//! * A body that reads no touched key keeps its run ([`Recheck::Skip`]).
//! * One that reads a touched key through a variable — the receiver of a
//!   method application or the instance of a class test, in a positive
//!   literal or in a negated one, of a variable a positive literal binds —
//!   drops the frames holding a touched receiver in that variable's slot,
//!   re-solves the body from seed frames binding the slot to those
//!   receivers ([`execute_seeded`]) and merges what it finds back in
//!   canonical order ([`Recheck::Seeded`]).  That finds what an insertion
//!   added and what a retraction took alike, so the journal needs no sign.
//! * A body is re-solved whole ([`execute_query`], [`Recheck::Whole`]) on
//!   its first match, on a signature change, when it reads an unknown key (a
//!   variable method or class), when a touched key is read through a
//!   receiver that is no variable (a path temporary as in
//!   `X.boss[salary -> S]`, a name, the right-hand side of `->>`) or through
//!   a variable only a negated literal reads (`Y` in `not Y[boss -> X]`,
//!   which has no value to seed), when its written order is pinned (see
//!   [`compile`](super::compile)), and when there are more seeds than the
//!   whole solve would start from ([`start_cardinality`]).
//! * A new object has no facts but the ones the journal and the is-a log
//!   record.  It re-solves only an *object-sensitive* body, one with a
//!   variable no stored fact binds (only built-ins and a bare `X` range over
//!   it), and one whose last solve met a name the structure did not know.
//!
//! A refresh reports the frames the run gained and lost ([`Change`]): a
//! constraint checker only asks whether there are any, a production engine
//! feeds them to its agenda.

use std::collections::{BTreeMap, BTreeSet};

use super::atoms::each_operand;
use super::{compile_query, execute_query, execute_seeded, is_builtin, start_cardinality};
use super::{Atom, CompiledLiteral, CompiledRule, FrameRun, Operand};
use crate::error::Result;
use crate::names::Name;
use crate::program::{literal_reads, DepKey, Literal};
use crate::semantics::EvalMarks;
use crate::structure::{Oid, Structure};

/// Where a structure stood when a condition last matched it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    marks: EvalMarks,
    retractions: usize,
    /// Length of the facts' mutation journal; taking it is a span boundary.
    mutations: usize,
}

impl Mark {
    /// The position of `structure` as it is now.
    pub fn capture(structure: &Structure) -> Mark {
        Mark {
            marks: EvalMarks::capture(structure),
            retractions: structure.retractions(),
            mutations: structure.facts().mutation_len(),
        }
    }
}

/// What a structure's span since a [`Mark`] touched: computed once, and
/// shared by every condition that stood at that mark.
#[derive(Debug, Clone)]
pub struct Span {
    from: Option<Mark>,
    to: Mark,
    /// Per touched key, the receivers (instances) it was touched at; `None`
    /// when every condition is solved whole — there was no mark, or a
    /// signature was declared (declarations carry no per-fact stamps).
    touched: Option<BTreeMap<Oid, Vec<Oid>>>,
}

impl Span {
    /// The span of `structure` since `from` (`None`: since nothing).  The
    /// touched keys are the methods of the facts' mutation journal and the
    /// classes of the is-a pairs the closure gained — neither log is
    /// disturbed by a retraction, as a watermark window over the fact tables
    /// would be.
    fn since(structure: &Structure, from: Option<&Mark>) -> Span {
        let to = Mark::capture(structure);
        let touched = from.filter(|lo| lo.marks.signatures == to.marks.signatures).map(|lo| {
            let methods = structure.facts().mutations_since(lo.mutations);
            let classes = structure.isa().pairs_since(lo.marks.isa_pairs).map(|(o, c)| (c, o));
            let mut touched: BTreeMap<Oid, Vec<Oid>> = BTreeMap::new();
            for (key, receiver) in methods.chain(classes) {
                touched.entry(key).or_default().push(receiver);
            }
            touched
        });
        Span {
            from: from.copied(),
            to,
            touched,
        }
    }

    /// The span `condition` is refreshed over: `shared`, when it starts at
    /// the condition's mark, else the span since that mark — which the next
    /// condition may share in turn.
    pub fn shared<'s>(shared: &'s mut Option<Span>, structure: &Structure, condition: &Condition) -> &'s Span {
        if shared.as_ref().is_none_or(|span| span.from() != condition.mark()) {
            *shared = Some(Span::since(structure, condition.mark()));
        }
        shared.as_ref().expect("set above")
    }

    /// The mark the span starts at.
    fn from(&self) -> Option<&Mark> {
        self.from.as_ref()
    }

    /// Did a retraction succeed within the span?
    pub fn retracted(&self) -> bool {
        self.from.is_some_and(|lo| lo.retractions != self.to.retractions)
    }

    /// Were objects created within the span?
    fn new_objects(&self) -> bool {
        self.from.is_some_and(|lo| lo.marks.objects != self.to.marks.objects)
    }
}

/// What one refresh does with one condition (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recheck {
    /// Nothing it reads was touched: its run stands.
    Skip,
    /// Solve the body whole.
    Whole,
    /// Re-solve it for the touched receivers: per slot, the ascending,
    /// distinct objects it is seeded with.
    Seeded(Vec<(usize, Vec<Oid>)>),
}

/// The frames one refresh added to a condition's run and took from it, each
/// in canonical key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// Frames the run holds now and did not before.
    pub gained: FrameRun,
    /// Frames the run held before and does not now.
    pub lost: FrameRun,
}

/// One condition body, matched incrementally (see the module docs).
#[derive(Debug, Clone)]
pub struct Condition {
    /// The body lowered to atoms, once: what a refresh runs.
    compiled: CompiledRule,
    /// Every method/class key the body reads, positive *and* negated — an
    /// insertion under a negated key can *remove* a solution.
    reads: BTreeSet<DepKey>,
    /// The body reads an unknown key and is re-solved whole on any delta.
    catch_all: bool,
    /// Per known key of `reads`, the slots of the variables the body reads
    /// it through — `None` when it also reads it through another receiver:
    /// touching the key then re-solves the body whole.
    seed_slots: Vec<(Name, Option<Vec<usize>>)>,
    /// A variable of the body is bound by no stored fact: a new object can
    /// satisfy it without a fact of its own.
    object_sensitive: bool,
    /// The solutions as of the last refresh, in canonical key order.
    run: FrameRun,
    /// Did the last solve meet a name the structure did not know (`true`
    /// before the first)?  A new object can be that name; a known name stays
    /// known.
    unknown_names: bool,
    /// Where the structure stood at the last refresh; `None` before the
    /// first.
    mark: Option<Mark>,
}

impl Condition {
    /// Compile `body` — a conjunction of literals, as in a rule body — into a
    /// condition that has matched nothing yet.
    pub fn new(body: &[Literal]) -> Condition {
        let reads: BTreeSet<DepKey> = body.iter().flat_map(|lit| literal_reads(&lit.term)).collect();
        let catch_all = reads.contains(&DepKey::Unknown);
        let compiled = compile_query(body.iter().map(|lit| (lit.positive, &lit.term)));
        Condition {
            seed_slots: seed_slots(&compiled, &reads),
            object_sensitive: catch_all || object_sensitive(&compiled),
            run: FrameRun::new(compiled.slot_count()),
            compiled,
            reads,
            catch_all,
            unknown_names: true,
            mark: None,
        }
    }

    /// The compiled body.
    pub fn compiled(&self) -> &CompiledRule {
        &self.compiled
    }

    /// The dependency keys the body reads.
    pub fn reads(&self) -> &BTreeSet<DepKey> {
        &self.reads
    }

    /// The solutions as of the last refresh: one frame each, in canonical
    /// key order.
    pub fn run(&self) -> &FrameRun {
        &self.run
    }

    /// Where the structure stood at the last refresh (`None` before the
    /// first).
    pub fn mark(&self) -> Option<&Mark> {
        self.mark.as_ref()
    }

    /// Per known key the body reads, the slots it reads it through.
    #[cfg(test)]
    pub(crate) fn seed_slots(&self) -> &[(Name, Option<Vec<usize>>)] {
        &self.seed_slots
    }

    /// Can a new object satisfy the body without a fact of its own?
    #[cfg(test)]
    pub(crate) fn is_object_sensitive(&self) -> bool {
        self.object_sensitive
    }

    /// What `span` — which must start at this condition's mark — asks of it:
    /// skip, solve whole, or re-solve for the touched receivers (see the
    /// module docs).
    pub fn affected(&self, structure: &Structure, span: &Span) -> Recheck {
        debug_assert_eq!(span.from(), self.mark(), "a span from this condition's mark");
        let Some(touched) = &span.touched else {
            return Recheck::Whole;
        };
        if span.new_objects() && (self.object_sensitive || self.unknown_names) {
            return Recheck::Whole;
        }
        if touched.is_empty() {
            return Recheck::Skip;
        }
        if self.catch_all {
            return Recheck::Whole;
        }
        let mut seeds: BTreeMap<usize, Vec<Oid>> = BTreeMap::new();
        for (name, slots) in &self.seed_slots {
            let Some(receivers) = structure.lookup_name(name).and_then(|key| touched.get(&key)) else {
                continue;
            };
            let Some(slots) = slots else {
                return Recheck::Whole;
            };
            for &slot in slots {
                seeds.entry(slot).or_default().extend(receivers);
            }
        }
        if seeds.is_empty() {
            return Recheck::Skip;
        }
        if self.compiled.written_order() {
            return Recheck::Whole;
        }
        for objects in seeds.values_mut() {
            objects.sort_unstable();
            objects.dedup();
        }
        // One seed costs a few probes; more are weighed against what the
        // whole solve would start from.
        let count: usize = seeds.values().map(Vec::len).sum();
        if count > 1 && count > start_cardinality(structure, &self.compiled) {
            return Recheck::Whole;
        }
        Recheck::Seeded(seeds.into_iter().collect())
    }

    /// Re-check the body over `structure` as `recheck` says and move to the
    /// end of `span`.  Returns what the run gained and lost, or `None` when
    /// it holds the same frames.  On an error nothing moves.
    pub fn resolve(&mut self, structure: &Structure, span: &Span, recheck: &Recheck) -> Result<Option<Change>> {
        let canonical = self.compiled.canonical();
        let change = match recheck {
            Recheck::Skip => None,
            Recheck::Whole => {
                let run = execute_query(structure, &self.compiled)?;
                (run != self.run).then(|| {
                    let change = Change {
                        gained: run.difference(&self.run, canonical),
                        lost: self.run.difference(&run, canonical),
                    };
                    self.run = run;
                    change
                })
            }
            Recheck::Seeded(seeds) => {
                // The frames holding a touched receiver in a seeded slot are
                // replaced by what the seeded solves find now.
                let touched = |frame: &[u32]| {
                    seeds.iter().any(|(slot, objects)| match objects.as_slice() {
                        [one] => frame[*slot] == one.0 + 1,
                        many => frame[*slot]
                            .checked_sub(1)
                            .is_some_and(|o| many.binary_search(&Oid(o)).is_ok()),
                    })
                };
                let mut found = FrameRun::new(self.compiled.slot_count());
                for (slot, objects) in seeds {
                    found = found.merge(execute_seeded(structure, &self.compiled, *slot, objects)?, canonical);
                }
                let before = self.run.filtered(touched);
                (found != before).then(|| {
                    let change = Change {
                        gained: found.difference(&before, canonical),
                        lost: before.difference(&found, canonical),
                    };
                    self.run = self.run.filtered(|f| !touched(f)).merge(found, canonical);
                    change
                })
            }
        };
        if self.unknown_names && *recheck != Recheck::Skip {
            self.unknown_names = self.compiled.names().iter().any(|n| structure.lookup_name(n).is_none());
        }
        self.mark = Some(span.to);
        Ok(change)
    }

    /// Move to `mark` keeping the run — what a refresh does last.  A caller
    /// that undid, fact for fact, everything done since the condition's
    /// mark may call this itself: the facts are those the run was solved
    /// over.
    pub fn skip_to(&mut self, mark: Mark) {
        self.mark = Some(mark);
    }
}

/// The atoms of every literal of `compiled`, positive and negated.
fn all_atoms(compiled: &CompiledRule) -> impl Iterator<Item = &Atom> {
    let literals = compiled.positives().iter().chain(compiled.negations());
    literals.flat_map(|lit| &lit.atoms)
}

/// The key `atom` reads a stored fact of (a method, a class) and the operand
/// it reads it through (the receiver, the instance).
fn read_through(compiled: &CompiledRule, atom: &Atom) -> Option<(Operand, Operand)> {
    match atom {
        Atom::Scalar { call, .. } | Atom::Member { call, .. } | Atom::Superset { call, .. } => {
            Some((call.method, call.receiver))
        }
        Atom::Isa { instance, class } => Some((*class, *instance)),
        Atom::Object { .. } | Atom::Signature { .. } => None,
    }
    .filter(|(key, _)| !is_builtin(*key, compiled.names()))
}

/// A [`Condition`]'s seed slots: per known key of `reads`, the slots the
/// body reads it through, or `None` when some read of it goes through a
/// temporary, a name, a `->>` right-hand side or a variable no positive
/// literal binds (one a negated literal reads existentially, as `Y` in
/// `X : employee, not Y[boss -> X]`) — or through no atom that reads stored
/// facts at all (a signature filter's method, a built-in).
fn seed_slots(compiled: &CompiledRule, reads: &BTreeSet<DepKey>) -> Vec<(Name, Option<Vec<usize>>)> {
    let positives = compiled.positives().iter();
    let bound: BTreeSet<usize> = positives.flat_map(|lit| lit.slots.iter().copied()).collect();
    let mut slots: BTreeMap<Name, Option<Vec<usize>>> = BTreeMap::new();
    for atom in all_atoms(compiled) {
        if let Some((Operand::Name(key), receiver)) = read_through(compiled, atom) {
            let entry = slots
                .entry(compiled.names()[key].clone())
                .or_insert_with(|| Some(Vec::new()));
            match (entry.as_mut(), receiver) {
                (Some(seeds), Operand::Slot(slot)) if bound.contains(&slot) => {
                    if !seeds.contains(&slot) {
                        seeds.push(slot);
                    }
                }
                _ => *entry = None,
            }
        }
        if let Atom::Superset { rhs, .. } = atom {
            for key in literal_reads(rhs) {
                if let DepKey::Known(name) = key {
                    slots.insert(name, None);
                }
            }
        }
    }
    let known = reads.iter().filter_map(|key| match key {
        DepKey::Known(name) => Some(name),
        DepKey::Unknown => None,
    });
    known
        .map(|name| (name.clone(), slots.get(name).cloned().flatten()))
        .collect()
}

/// Is a [`Condition`] object-sensitive?  Some variable or temporary is
/// bound by no stored fact — not an operand of an atom of a positive literal
/// that reads one (a temporary: of its own literal), nor the result of a
/// built-in applied to such operands.  Built-ins and a bare `X` range over
/// the universe.
fn object_sensitive(compiled: &CompiledRule) -> bool {
    let mut slots: Vec<Operand> = Vec::new();
    loop {
        let before = slots.len();
        for lit in compiled.positives() {
            for op in fact_bound(compiled, lit, &slots) {
                if matches!(op, Operand::Slot(_)) && !slots.contains(&op) {
                    slots.push(op);
                }
            }
        }
        if slots.len() == before {
            break;
        }
    }
    let mut literals = compiled.positives().iter().chain(compiled.negations());
    literals.any(|lit| {
        let bound = fact_bound(compiled, lit, &slots);
        let mut loose = lit.slots.iter().any(|&s| !bound.contains(&Operand::Slot(s)));
        for atom in &lit.atoms {
            each_operand(atom, &mut |op| {
                loose |= !matches!(op, Operand::Name(_)) && !bound.contains(&op);
            });
        }
        loose
    })
}

/// The operands of `lit` a stored fact binds when `slots` are bound by
/// others: `slots`, every operand of an atom reading a stored fact, and the
/// result of a built-in whose operands are bound so.
fn fact_bound(compiled: &CompiledRule, lit: &CompiledLiteral, slots: &[Operand]) -> Vec<Operand> {
    let mut bound = slots.to_vec();
    loop {
        let before = bound.len();
        for atom in &lit.atoms {
            let mut found = Vec::new();
            match atom {
                Atom::Scalar { call, result } if is_builtin(call.method, compiled.names()) => {
                    let known = |op: &Operand| matches!(op, Operand::Name(_)) || bound.contains(op);
                    if known(&call.receiver) && call.args.iter().all(known) {
                        found.push(*result);
                    }
                }
                _ if matches!(read_through(compiled, atom), Some((Operand::Name(_), _))) => {
                    each_operand(atom, &mut |op| found.push(op));
                }
                _ => {}
            }
            for op in found {
                if !bound.contains(&op) {
                    bound.push(op);
                }
            }
        }
        if bound.len() == before {
            return bound;
        }
    }
}
