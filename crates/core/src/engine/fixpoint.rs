//! The stratum loop: the least fixpoint of Section 6, one stratum after the
//! other, each to convergence, on one thread.
//!
//! A stratum is its statements in source order ([`Statement`]): facts, and
//! proper rules, each with its head lowered and its body compiled once, when
//! the program is installed ([`Installed`]).  The stratum owns them and
//! drops a rule's compiled body when it ends; the facts' heads, lowered into
//! an arena of their own, go once every fact has committed.  Every iteration
//! of the stratum has two phases.
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
//!   merged into canonical key order and its lowered head
//!   ([`crate::plan::HeadProgram`], lowered when the program was installed)
//!   run over each solution's frame; on the first iteration each fact's
//!   head is run over one empty frame where the fact stands.
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

use super::{AssertEffect, EvalOptions, EvalStats, Stratification};
use crate::error::{Error, LimitKind, Result};
use crate::plan::{CompiledRule, FrameRun, HeadArena, HeadBuffers, HeadProgram};
use crate::program::{literal_reads, DepKey, Query, Rule};
use crate::semantics::model::register_names;
use crate::semantics::{Bindings, DeltaView, SnapshotWindow};
use crate::structure::{NameCache, Oid, Structure};

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

/// A program's statements as installed, in source order: every head
/// lowered — the facts' into one arena, the proper rules' into another —
/// and every proper rule's body compiled.
pub(super) struct Installed {
    facts: HeadArena,
    rules: HeadArena,
    statements: Vec<Statement>,
}

impl Installed {
    /// Lower `rules` and register the names of `queries`: per rule in
    /// source order its head (the lowering registers the head's names),
    /// then the names of its body; after the rules, the queries' names.
    /// That is the order in which the reference registers them
    /// ([`register_program_names`](crate::semantics::model::register_program_names)),
    /// so every name gets the reference's object id.
    ///
    /// Each distinct name is resolved once, through one [`NameCache`].
    pub(super) fn new(structure: &mut Structure, rules: &[Rule], queries: &[Query]) -> Result<Self> {
        let (mut facts, mut heads) = (HeadArena::default(), HeadArena::default());
        let mut names = NameCache::new(structure);
        let statements = rules
            .iter()
            .map(|rule| {
                let statement = if rule.is_fact() {
                    Statement::Fact(facts.lower(&mut names, &rule.head, &[])?)
                } else {
                    let compiled = crate::plan::compile(rule);
                    let head = heads.lower(&mut names, &rule.head, compiled.slot_vars())?;
                    Statement::Rule(Box::new(ProperRule::new(rule, head, compiled)))
                };
                for lit in &rule.body {
                    register_names(&mut names, &lit.term);
                }
                Ok(statement)
            })
            .collect::<Result<Vec<_>>>()?;
        for lit in queries.iter().flat_map(|q| &q.body) {
            register_names(&mut names, &lit.term);
        }
        Ok(Installed {
            facts,
            rules: heads,
            statements,
        })
    }
}

/// One statement of a stratum.
enum Statement {
    /// A fact's head: data, asserted once, when the stratum's first
    /// iteration commits — no solve, no delta test, no plan.
    Fact(HeadProgram),
    /// A proper rule.
    Rule(Box<ProperRule>),
}

/// A proper rule of a stratum, with what the current iteration solved for
/// it.
struct ProperRule {
    head: HeadProgram,
    compiled: CompiledRule,
    /// Per body literal, the keys it reads: `None` for a negated literal,
    /// which no window drives (negated and set-at-a-time reads are
    /// stratified below the rule).
    reads: Vec<Option<BTreeSet<DepKey>>>,
    /// The frame runs of this iteration's solve; empty when the rule was
    /// skipped.
    runs: Vec<FrameRun>,
}

impl ProperRule {
    fn new(rule: &Rule, head: HeadProgram, compiled: CompiledRule) -> Self {
        ProperRule {
            head,
            compiled,
            reads: rule
                .body
                .iter()
                .map(|lit| lit.positive.then(|| literal_reads(&lit.term)))
                .collect(),
            runs: Vec::new(),
        }
    }
}

/// Evaluate the `installed` program to the least fixpoint over `structure`,
/// stratum by stratum as `stratification` orders them.  Each stratum owns
/// its statements and drops them when it ends; the facts' heads go once
/// every fact has committed.
pub(super) fn run(
    options: &EvalOptions,
    structure: &mut Structure,
    installed: Installed,
    stratification: &Stratification,
) -> Result<EvalStats> {
    let Installed {
        facts,
        rules,
        statements,
    } = installed;
    let mut fixpoint = Fixpoint {
        options,
        rules: &rules,
        facts_left: statements.iter().filter(|s| matches!(s, Statement::Fact(_))).count(),
        facts: Some(facts),
        buffers: HeadBuffers::default(),
        stats: EvalStats {
            strata: stratification.len(),
            ..EvalStats::default()
        },
    };
    for stratum in by_stratum(statements, stratification) {
        fixpoint.stratum(structure, stratum)?;
    }
    Ok(fixpoint.stats)
}

/// `statements`, in source order, stratum by stratum as `stratification`
/// orders them.
fn by_stratum(statements: Vec<Statement>, stratification: &Stratification) -> Vec<Vec<Statement>> {
    let mut statements: Vec<Option<Statement>> = statements.into_iter().map(Some).collect();
    let mut take = |i: usize| statements[i].take().expect("a statement is in one stratum");
    stratification
        .strata
        .iter()
        .map(|stratum| stratum.iter().map(|&i| take(i)).collect())
        .collect()
}

/// One evaluation run: the options it runs under, the heads it commits
/// through, what its head commits reuse and what it has counted.
struct Fixpoint<'o> {
    options: &'o EvalOptions,
    /// The proper rules' heads.
    rules: &'o HeadArena,
    /// The facts' heads, until every fact has committed.
    facts: Option<HeadArena>,
    facts_left: usize,
    buffers: HeadBuffers,
    stats: EvalStats,
}

impl Fixpoint<'_> {
    /// Run one stratum, its statements in source order, to convergence.
    fn stratum(&mut self, structure: &mut Structure, mut statements: Vec<Statement>) -> Result<()> {
        let mut window = SnapshotWindow::capture(structure);
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
                    Statement::Fact(head) if first => self.commit_fact(structure, head)?,
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
    /// order and run the lowered head over each frame.  A head that is one
    /// member insert `X[m ->> {Y}]` commits its members a run at a time
    /// ([`Fixpoint::commit_member_runs`]); any other head runs once per
    /// head valuation ([`HeadValuations`]).  Returns whether anything new was
    /// committed.
    fn commit_rule(&mut self, structure: &mut Structure, rule: &mut ProperRule) -> Result<bool> {
        let (head, compiled) = (&rule.head, &rule.compiled);
        let merged = crate::plan::merge_frame_runs(std::mem::take(&mut rule.runs), compiled.canonical());
        if let Some((receiver, method, member)) = self.rules.member_insert(head) {
            let pair = |f: &[u32]| (Oid(f[receiver] - 1), Oid(f[member] - 1));
            return self.commit_member_runs(structure, method, merged.frames().map(pair));
        }
        let mut fired = HeadValuations::new(self.rules.slots(head), compiled.slot_count());
        let mut changed = false;
        for f in merged.frames().filter(|f| fired.first(f)) {
            let effect = self.rules.run(head, structure, f, Some(compiled), &mut self.buffers)?;
            changed |= self.absorb(effect)?;
        }
        Ok(changed)
    }

    /// Commit the member insert `X[m ->> {Y}]` (`method` resolved) over
    /// `pairs` — `(receiver, member)` per solution, in commit order.  Each
    /// run of consecutive pairs with one receiver and ascending members is
    /// one bulk assert; a pair repeating the one before it is a re-assertion
    /// and is dropped.  The effect is the lowered head's, frame by frame:
    /// one firing per new member.  Returns whether anything new was
    /// committed.
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

    /// Commit a fact: run its head over one empty frame.  Once every fact
    /// has committed, the facts' heads go.  Returns whether anything new
    /// was committed.
    fn commit_fact(&mut self, structure: &mut Structure, head: &HeadProgram) -> Result<bool> {
        let facts = self.facts.as_ref().expect("a fact commits once");
        let effect = facts.run(head, structure, &[], None, &mut self.buffers)?;
        self.facts_left -= 1;
        if self.facts_left == 0 {
            self.facts = None;
        }
        self.absorb(effect)
    }

    /// Fold what one frame's head commit added into the model counters: one
    /// firing when it added anything; the limit is checked after every
    /// frame.  Returns whether anything new was committed.
    fn absorb(&mut self, effect: AssertEffect) -> Result<bool> {
        if effect.changed() {
            self.stats.firings += 1;
            self.stats.absorb(effect);
        }
        self.check_max_derived()?;
        Ok(effect.changed())
    }
}

/// The proper rules among `statements`, in stratum order.
fn proper_rules(statements: &mut [Statement]) -> impl Iterator<Item = &mut ProperRule> {
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
/// generic head only when its projection onto the head's slots is new in
/// the batch.  Re-asserting a head under a valuation it was just asserted
/// under is a no-op — a head path finds the virtual object the first
/// assertion made, a set-ref right-hand side is stratified strictly below
/// the head, every other filter is idempotent — so the skip changes no fact,
/// log entry, object id or counter.
struct HeadValuations {
    /// The head's slots; `None` when the head reads every slot of the body,
    /// so that distinct solutions are distinct head valuations.
    projection: Option<Vec<usize>>,
    seen: HashSet<Vec<u32>>,
    /// The projection of the solution in hand: allocated into `seen` only
    /// when it is new.
    key: Vec<u32>,
}

impl HeadValuations {
    /// For frames of `slot_count` slots, committed to a head reading
    /// `slots`.
    fn new(slots: &[usize], slot_count: usize) -> Self {
        let projection = (0..slot_count).any(|s| !slots.contains(&s)).then(|| slots.to_vec());
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
