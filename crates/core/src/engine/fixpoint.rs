//! The stratum loop: the least fixpoint of Section 6, one stratum after the
//! other, each to convergence, on one thread.
//!
//! A stratum is its statements in source order ([`Statement`]): facts, and
//! proper rules, each compiled once when the stratum starts
//! ([`crate::plan::compile`]).  Every iteration of the stratum has two
//! phases.
//!
//! * **Solve.**  Each proper rule in turn is solved into its own frame runs
//!   ([`crate::plan::FrameRun`]); the structure is only read.  On the first
//!   iteration that is one full solve per rule
//!   ([`crate::plan::execute_query`]).  After it, the stratum's
//!   [`SnapshotWindow`] — captured when the stratum starts — slides to the
//!   present, and a rule with a body literal the window can drive
//!   ([`delta_literals`]) is planned once for the iteration
//!   ([`crate::plan::plan_pass`]) and solved once per such literal, that
//!   literal restricted to the window ([`crate::plan::execute_delta`]); the
//!   other rules are skipped.
//! * **Commit.**  Statement by statement in stratum order, each rule's runs
//!   merged into canonical key order and its head asserted per solution;
//!   on the first iteration each fact is asserted where it stands.
//!
//! All solves come before any commit, so every solve of an iteration reads
//! the structure as it stood at the iteration boundary (Jacobi, not
//! Gauss–Seidel, iteration): a rule sees what its stratum peers derive one
//! iteration later.  The stratum has converged when the window is empty or
//! an iteration commits nothing.
//!
//! **Canonical order.**  The [`BindingKey`] of a solution — its bound
//! `(variable, object)` pairs in sorted order — is valuation-order
//! independent, so ordering solutions by it makes the order in which a
//! caller acts on them a function of the structure's content alone.  Every
//! solve returns slot frames of the rule's one compiled body in that order,
//! and the commit merges a rule's runs in it
//! ([`crate::plan::merge_frame_runs`]): the order in which a solve
//! *enumerates* solutions never reaches the structure.  The reference
//! [`fixpoint`](crate::semantics::fixpoint) sorts its written-order
//! solutions by key, and so mints under the engine's ids.

use std::collections::{BTreeSet, HashSet};

use super::{assert_head, AssertEffect, AssertOptions, EvalOptions, EvalStats, Stratification};
use crate::error::{Error, LimitKind, Result};
use crate::names::Var;
use crate::plan::{CompiledRule, FrameRun};
use crate::program::{literal_reads, DepKey, Rule};
use crate::semantics::{Bindings, DeltaView, SnapshotWindow};
use crate::structure::{Oid, Structure};
use crate::term::Term;

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

/// One statement of a stratum.
enum Statement<'a> {
    /// A fact's head: data, asserted once, when the stratum's first
    /// iteration commits — no solve, no delta test, no plan.
    Fact(&'a Term),
    /// A proper rule.
    Rule(Box<ProperRule<'a>>),
}

/// A proper rule of a stratum, compiled, with what the current iteration
/// solved for it.
struct ProperRule<'a> {
    head: &'a Term,
    compiled: CompiledRule,
    /// Per body literal, the keys it reads: `None` for a negated literal,
    /// which no window drives (negated and set-at-a-time reads are
    /// stratified below the rule).
    reads: Vec<Option<BTreeSet<DepKey>>>,
    /// The frame runs of this iteration's solve; empty when the rule was
    /// skipped.
    runs: Vec<FrameRun>,
}

impl<'a> Statement<'a> {
    fn new(rule: &'a Rule) -> Self {
        if rule.is_fact() {
            return Statement::Fact(&rule.head);
        }
        Statement::Rule(Box::new(ProperRule {
            head: &rule.head,
            compiled: crate::plan::compile(rule),
            reads: rule
                .body
                .iter()
                .map(|lit| lit.positive.then(|| literal_reads(&lit.term)))
                .collect(),
            runs: Vec::new(),
        }))
    }
}

/// Evaluate `rules` to the least fixpoint over `structure`, stratum by
/// stratum as `stratification` orders them.
pub(super) fn run(
    options: &EvalOptions,
    structure: &mut Structure,
    rules: &[Rule],
    stratification: &Stratification,
) -> Result<EvalStats> {
    let mut fixpoint = Fixpoint {
        options,
        stats: EvalStats {
            strata: stratification.len(),
            ..EvalStats::default()
        },
    };
    for stratum in &stratification.strata {
        fixpoint.stratum(structure, stratum.iter().map(|&i| &rules[i]))?;
    }
    Ok(fixpoint.stats)
}

/// One evaluation run: the options it runs under and what it has counted.
struct Fixpoint<'o> {
    options: &'o EvalOptions,
    stats: EvalStats,
}

impl Fixpoint<'_> {
    /// Run one stratum, its statements in source order, to convergence.
    fn stratum<'a>(&mut self, structure: &mut Structure, statements: impl Iterator<Item = &'a Rule>) -> Result<()> {
        let mut window = SnapshotWindow::capture(structure);
        let mut statements: Vec<Statement> = statements.map(Statement::new).collect();
        self.stats.plans_compiled += statements.iter().filter(|s| matches!(s, Statement::Rule(_))).count();
        for iteration in 1.. {
            self.stats.iterations += 1;
            if iteration > self.options.max_iterations {
                return Err(Error::LimitExceeded {
                    kind: LimitKind::Iterations,
                    limit: self.options.max_iterations,
                    observed: iteration,
                });
            }
            let first = iteration == 1;
            // Solve: the structure is only read.
            if first {
                // No delta exists for a rule the first time it runs.
                for rule in proper_rules(&mut statements) {
                    self.stats.full_solves += 1;
                    rule.runs.push(crate::plan::execute_query(structure, &rule.compiled)?);
                }
            } else {
                let dv = window.slide(structure);
                if dv.is_empty() {
                    break;
                }
                for rule in proper_rules(&mut statements) {
                    let lits = delta_literals(structure, &rule.reads, &dv);
                    if lits.is_empty() {
                        // Nothing in the window can drive any of the rule's
                        // literals: its solutions are unchanged.
                        self.stats.rules_skipped += 1;
                        continue;
                    }
                    self.stats.delta_solves += 1;
                    let plan = crate::plan::plan_pass(structure, &rule.compiled, &lits, dv.entry_count());
                    if !plan.seeded_from_delta {
                        self.stats.seed_flips += 1;
                    }
                    for lit in lits {
                        rule.runs
                            .push(crate::plan::execute_delta(structure, &rule.compiled, &plan, lit, &dv)?);
                    }
                }
            }
            // Commit, in stratum order.
            let mut any_change = false;
            for statement in &mut statements {
                any_change |= match statement {
                    Statement::Fact(head) if first => {
                        self.assert_solution(structure, head, &Bindings::new())?.changed()
                    }
                    Statement::Fact(_) => false,
                    Statement::Rule(rule) if rule.runs.is_empty() => false,
                    Statement::Rule(rule) => self.commit_rule(structure, rule)?,
                };
            }
            if !any_change {
                break;
            }
        }
        Ok(())
    }

    /// Commit the frame runs `rule` was solved into this iteration — its
    /// full solve's, or its delta passes': merge them into canonical key
    /// order and assert the head for each frame — through the compiled head
    /// when it has one (method oid resolved once, head oids read straight
    /// out of the frame slots, set members asserted a run at a time;
    /// counters identical to `assert_head` by construction, see
    /// [`CompiledHead`](crate::plan::CompiledHead)), else through
    /// [`assert_head`] on the [`Bindings`] of the first frame of each head
    /// valuation.  Returns whether anything new was committed.
    fn commit_rule(&mut self, structure: &mut Structure, rule: &mut ProperRule) -> Result<bool> {
        let (head, compiled) = (rule.head, &rule.compiled);
        let merged = crate::plan::merge_frame_runs(std::mem::take(&mut rule.runs), compiled.canonical());
        let Some(fast) = compiled.head() else {
            let mut fired = HeadValuations::new(head, compiled);
            let mut changed = false;
            for f in merged.frames().filter(|f| fired.first(f)) {
                changed |= self
                    .assert_solution(structure, head, &compiled.bindings_of(f))?
                    .changed();
            }
            return Ok(changed);
        };
        let method = structure.ensure_name(&fast.method);
        let pair = |f: &[u32]| (Oid(f[fast.receiver_slot] - 1), Oid(f[fast.member_slot] - 1));
        self.commit_member_runs(structure, method, merged.frames().map(pair))
    }

    /// Commit the compiled head `X[m ->> {Y}]` (`method` resolved) over
    /// `pairs` — `(receiver, member)` per solution, in commit order.  Each
    /// run of consecutive pairs with one receiver and ascending members is
    /// one bulk assert; a pair repeating the one before it is a re-assertion
    /// and is dropped.  Returns whether anything new was committed.
    fn commit_member_runs(
        &mut self,
        structure: &mut Structure,
        method: Oid,
        pairs: impl Iterator<Item = (Oid, Oid)>,
    ) -> Result<bool> {
        let mut changed = false;
        let mut receiver: Option<Oid> = None;
        let mut members: Vec<Oid> = Vec::new();
        for (r, m) in pairs {
            match members.last() {
                Some(&last) if receiver == Some(r) && last == m => {}
                Some(&last) if receiver == Some(r) && last < m => members.push(m),
                _ => {
                    if let Some(prev) = receiver {
                        changed |= self.commit_members(structure, method, prev, &members)?;
                    }
                    receiver = Some(r);
                    members.clear();
                    members.push(m);
                }
            }
        }
        if let Some(prev) = receiver {
            changed |= self.commit_members(structure, method, prev, &members)?;
        }
        Ok(changed)
    }

    /// Assert `members` — ascending, distinct — into `method(receiver)`, one
    /// firing per new member, in slices no longer than
    /// [`EvalOptions::max_derived`] still allows: a batch that crosses the
    /// limit fails at the same member, with the same count observed, as one
    /// assert per solution would.
    fn commit_members(
        &mut self,
        structure: &mut Structure,
        method: Oid,
        receiver: Oid,
        members: &[Oid],
    ) -> Result<bool> {
        let mut changed = false;
        let mut rest = members;
        while !rest.is_empty() {
            let room = self
                .options
                .max_derived
                .saturating_sub(self.stats.derived())
                .saturating_add(1);
            let (batch, tail) = rest.split_at(room.min(rest.len()));
            let new = structure.assert_set_members(method, receiver, &[], batch);
            self.stats.firings += new;
            self.stats.set_members += new;
            changed |= new > 0;
            self.check_max_derived()?;
            rest = tail;
        }
        Ok(changed)
    }

    /// [`Error::LimitExceeded`] once the run has derived more facts than
    /// [`EvalOptions::max_derived`] allows.
    fn check_max_derived(&self) -> Result<()> {
        if self.stats.derived() > self.options.max_derived {
            return Err(Error::LimitExceeded {
                kind: LimitKind::DerivedFacts,
                limit: self.options.max_derived,
                observed: self.stats.derived(),
            });
        }
        Ok(())
    }

    /// Make `head` true under `bindings` and fold what that added into the
    /// model counters: the commit step for a rule's solution and — with
    /// empty bindings, the one solution of an empty body — for a fact.
    fn assert_solution(&mut self, structure: &mut Structure, head: &Term, bindings: &Bindings) -> Result<AssertEffect> {
        let options = AssertOptions {
            create_virtuals: self.options.create_virtuals,
        };
        let (_, effect) = assert_head(structure, head, bindings, options)?;
        if effect.changed() {
            self.stats.firings += 1;
            self.stats.absorb(effect);
        }
        self.check_max_derived()?;
        Ok(effect)
    }
}

/// The proper rules among `statements`, in stratum order.
fn proper_rules<'s, 'a>(statements: &'s mut [Statement<'a>]) -> impl Iterator<Item = &'s mut ProperRule<'a>> {
    statements.iter_mut().filter_map(|s| match s {
        Statement::Rule(rule) => Some(&mut **rule),
        Statement::Fact(_) => None,
    })
}

/// The indices of the positive body literals the rule's delta window can
/// drive.  Selection is against the window's *contents* — not against the
/// previous iteration's changed-key set, which has the wrong granularity: a
/// rule's window spans back to its own last solve, so it can hold facts of
/// keys that only entered the iteration-level changed set earlier (e.g.
/// facts asserted by an earlier rule within the same iteration).  A literal
/// qualifies when a key it reads has new facts in the window (or is
/// `Unknown`); when objects were created or signature declarations changed,
/// every positive literal qualifies (new objects can satisfy key-less
/// positions such as bare variables or built-in filters, and declarations
/// carry no per-key stamps).
fn delta_literals(structure: &Structure, reads: &[Option<BTreeSet<DepKey>>], dv: &DeltaView) -> Vec<usize> {
    let all = dv.has_new_objects() || dv.sigs_changed();
    reads
        .iter()
        .enumerate()
        .filter_map(|(i, keys)| {
            let keys = keys.as_ref()?;
            let drivable = all
                || keys.iter().any(|k| match k {
                    DepKey::Unknown => true,
                    DepKey::Known(name) => structure.lookup_name(name).is_some_and(|oid| dv.has_new_facts_for(oid)),
                });
            drivable.then_some(i)
        })
        .collect()
}

/// The head valuations a commit batch has fired: a solution reaches a
/// generic head only when its projection onto the head's variables is new
/// in the batch.  Re-asserting a head under a valuation it was just asserted
/// under is a no-op — a head path finds the virtual object the first
/// assertion made, a set-ref right-hand side is stratified strictly below
/// the head, every other filter is idempotent — so the skip changes no fact,
/// log entry, object id or counter.
struct HeadValuations {
    /// Positions of the head's variables among the solution's; `None` when
    /// the head holds every one of them, so that distinct solutions are
    /// distinct head valuations (or a head variable is no solution's, which
    /// `assert_head` reports).
    projection: Option<Vec<usize>>,
    seen: HashSet<Vec<u32>>,
    /// The projection of the solution in hand: allocated into `seen` only
    /// when it is new.
    key: Vec<u32>,
}

impl HeadValuations {
    /// For the frames of `compiled`, committed to `head`.
    fn new(head: &Term, compiled: &CompiledRule) -> Self {
        let head_vars = head.variables();
        let slots: Vec<&Var> = (0..compiled.slot_count()).map(|i| compiled.slot_var(i)).collect();
        let projection = if slots.iter().all(|v| head_vars.contains(v)) {
            None
        } else {
            head_vars.iter().map(|v| slots.iter().position(|w| *w == v)).collect()
        };
        HeadValuations {
            projection,
            seen: HashSet::new(),
            key: Vec::new(),
        }
    }

    /// Is this solution's slot frame the first of the batch with its head
    /// valuation?
    fn first(&mut self, frame: &[u32]) -> bool {
        let Some(projection) = &self.projection else {
            return true;
        };
        self.key.clear();
        self.key.extend(projection.iter().map(|&i| frame[i]));
        !self.seen.contains(self.key.as_slice()) && self.seen.insert(self.key.clone())
    }
}
