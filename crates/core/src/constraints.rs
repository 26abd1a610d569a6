//! Integrity constraints as denial rules, checked incrementally, and the
//! quarantine ledger behind inconsistency-tolerant query degradation.
//!
//! A constraint is a *denial*: a rule body that must have **no** solutions
//! in a consistent structure (Decker's formulation of integrity checking in
//! deductive databases).  `forbid manager_underpaid <- X : manager[salary
//! -> S], S[lt@(1000) -> S].` reads "no manager earns under 1000"; every
//! solution of the body is a [`ConstraintViolation`] carrying the violating
//! valuation and the witnessing ground facts.
//!
//! **Incremental checking.**  Re-solving every constraint after every
//! mutation batch is the classical-but-wasteful baseline.  The
//! [`ConstraintChecker`] holds one [`Condition`] per constraint — the
//! incremental matcher the production engine shares (see
//! [`crate::plan::condition`]).  Each keeps the constraint's solutions as of
//! its last check, one canonical [`FrameRun`] with one frame per violation,
//! and where the structure stood then.  A check evaluates only the instances
//! of a denial that the span since can have affected (Decker's rule): a
//! constraint reading no `(method, receiver)` pair the mutation journal
//! touched keeps its run, one reading a touched pair through a variable is
//! re-solved from seed frames binding it to the touched receivers, and the
//! fallbacks that solve it whole are listed in the matcher's docs.
//!
//! A denial body is just a query body: it is compiled once, when the
//! [`Constraint`] is built, and solved the way [`Engine::query`] solves a
//! query — the commit path has no evaluator of its own.  A check only reads
//! the structure it is given, and renders a violation only when it is
//! reported ([`ConstraintChecker::check`],
//! [`ConstraintChecker::violations_beyond`]).
//!
//! **Tolerant degradation.**  Under the `Quarantine` policy a violation
//! does not roll the data back; the offending facts are *tagged* in a
//! [`Quarantine`] ledger and queries keep being served.  With
//! [`Tolerance::Tolerant`] enabled, [`tolerant_query`] classifies each
//! answer as *clean* (derivable without any quarantined fact) or *tainted*
//! by the constraints whose quarantined facts its derivation needs — the
//! spirit of Laurent/Spyratos' four-valued semantics for deductive
//! databases, collapsed onto the two certainty levels PathLog's two-valued
//! models can express.  On a consistent store the mode coincides with
//! classical evaluation exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::engine::{Answers, BindingKey, Engine, Tolerance};
use crate::error::{Error, Result};
use crate::names::Name;
use crate::plan::{Condition, FrameRun, Mark, Recheck, Span};
use crate::program::{DepKey, Literal, Query};
use crate::semantics::Bindings;
use crate::structure::{Oid, Structure};
use crate::term::{Filter, FilterValue, IsA, Molecule, Path, Term};

/// What the store does when a commit leaves a constraint violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConstraintPolicy {
    /// Refuse the mutation batch: the commit fails and rolls back (the
    /// default).
    #[default]
    Reject,
    /// Accept the batch and report the violations as warnings on the
    /// receipt.
    Warn,
    /// Accept the batch, tag the violating facts in the [`Quarantine`]
    /// ledger and degrade queries instead of the data (see
    /// [`tolerant_query`]).
    Quarantine,
}

/// One integrity constraint: a named denial body plus its enforcement
/// policy.
#[derive(Debug, Clone)]
pub struct Constraint {
    name: Arc<str>,
    body: Vec<Literal>,
    policy: ConstraintPolicy,
    /// The body compiled, matched nothing yet: each checker matches a copy.
    condition: Condition,
}

impl Constraint {
    /// A denial constraint: `body` must have no solutions.  Validated like
    /// a rule's body (well-formedness, safety of negated literals), so an
    /// unsafe constraint body is rejected with the message an unsafe rule
    /// body gets.
    pub fn new(name: impl Into<Arc<str>>, body: Vec<Literal>, policy: ConstraintPolicy) -> Result<Self> {
        let name = name.into();
        if let Some(message) = crate::analysis::first_body_error(&body) {
            return Err(Error::InvalidRule(message));
        }
        let condition = Condition::new(&body);
        Ok(Constraint {
            name,
            body,
            policy,
            condition,
        })
    }

    /// The constraint's name (reported on violations and receipts).
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The denial body.
    pub fn body(&self) -> &[Literal] {
        &self.body
    }

    /// The enforcement policy.
    pub fn policy(&self) -> ConstraintPolicy {
        self.policy
    }

    /// Every method/class key the body reads, positive *and* negated — an
    /// insertion under a negated key can *remove* a violation.
    pub fn reads(&self) -> &BTreeSet<DepKey> {
        self.condition.reads()
    }

    /// The violation a solution `frame` of the compiled body stands for: its
    /// bound slots in variable order, and the body's literals as ground facts.
    fn violation(&self, structure: &Structure, frame: &[u32]) -> ConstraintViolation {
        let compiled = self.condition.compiled();
        let bindings = compiled.bindings_of(frame);
        let witnesses = self
            .body
            .iter()
            .map(|lit| {
                let ground = substitute(&lit.term, structure, &bindings);
                if lit.positive {
                    ground.to_string()
                } else {
                    format!("not {ground}")
                }
            })
            .collect();
        let bound = compiled.canonical().iter().filter(|&&slot| frame[slot] != 0);
        ConstraintViolation {
            constraint: Arc::clone(&self.name),
            binding: bound
                .map(|&slot| (compiled.slot_var(slot).0.clone(), Oid(frame[slot] - 1)))
                .collect(),
            witnesses,
        }
    }
}

/// One violation of one constraint: the valuation that satisfied the denial
/// body, with the body's literals rendered as ground witnessing facts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConstraintViolation {
    /// Name of the violated constraint.
    pub constraint: Arc<str>,
    /// The violating valuation, as `(variable, object)` pairs in variable
    /// order — the canonical form the checker also sorts violations by.
    pub binding: Vec<(Arc<str>, Oid)>,
    /// The denial body under the violating valuation, one rendered ground
    /// literal per body literal (negated ones prefixed with `not`).
    pub witnesses: Vec<String>,
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint `{}` violated", self.constraint)?;
        if !self.binding.is_empty() {
            write!(f, " at ")?;
            for (i, (var, oid)) in self.binding.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{var} = #{}", oid.0)?;
            }
        }
        if !self.witnesses.is_empty() {
            write!(f, ": {}", self.witnesses.join(", "))?;
        }
        Ok(())
    }
}

/// Substitute the valuation into a reference: bound variables become the
/// display names of their objects, everything else is rebuilt unchanged.
/// Used to render the witnessing facts of a violation.
fn substitute(term: &Term, structure: &Structure, b: &Bindings) -> Term {
    match term {
        Term::Name(_) => term.clone(),
        Term::Var(v) => match b.get(v) {
            Some(oid) => Term::Name(Name::atom(structure.display_name(oid))),
            None => term.clone(),
        },
        Term::Paren(t) => Term::Paren(Box::new(substitute(t, structure, b))),
        Term::Path(p) => Term::Path(Box::new(Path {
            receiver: substitute(&p.receiver, structure, b),
            set_valued: p.set_valued,
            method: substitute(&p.method, structure, b),
            args: p.args.iter().map(|a| substitute(a, structure, b)).collect(),
        })),
        Term::Molecule(m) => Term::Molecule(Box::new(Molecule {
            receiver: substitute(&m.receiver, structure, b),
            filters: m
                .filters
                .iter()
                .map(|f| Filter {
                    method: substitute(&f.method, structure, b),
                    args: f.args.iter().map(|a| substitute(a, structure, b)).collect(),
                    value: match &f.value {
                        FilterValue::Scalar(t) => FilterValue::Scalar(substitute(t, structure, b)),
                        FilterValue::SetRef(t) => FilterValue::SetRef(substitute(t, structure, b)),
                        FilterValue::SetExplicit(ts) => {
                            FilterValue::SetExplicit(ts.iter().map(|t| substitute(t, structure, b)).collect())
                        }
                        FilterValue::SigScalar(ts) => {
                            FilterValue::SigScalar(ts.iter().map(|t| substitute(t, structure, b)).collect())
                        }
                        FilterValue::SigSet(ts) => {
                            FilterValue::SigSet(ts.iter().map(|t| substitute(t, structure, b)).collect())
                        }
                    },
                })
                .collect(),
        })),
        Term::IsA(i) => Term::IsA(Box::new(IsA {
            receiver: substitute(&i.receiver, structure, b),
            class: substitute(&i.class, structure, b),
        })),
    }
}

/// An ordered collection of constraints.  Declaration order is the report
/// order: the checker returns violations grouped by constraint in this
/// order, each group sorted by valuation.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a constraint.
    pub fn push(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The constraints, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Look a constraint up by name.
    pub fn get(&self, name: &str) -> Option<&Constraint> {
        self.constraints.iter().find(|c| &**c.name() == name)
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        ConstraintSet {
            constraints: iter.into_iter().collect(),
        }
    }
}

/// Counters of one checker's lifetime, the observable incremental checking
/// is judged by: it must perform strictly fewer condition solves than full
/// re-checking on the same mutation workload (`pathbench` reports them as
/// `constraints.*`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Calls to [`ConstraintChecker::check`], [`ConstraintChecker::check_full`]
    /// and [`ConstraintChecker::refresh`]: one per check.
    pub checks: usize,
    /// Checks that solved every constraint whole: the first check, a
    /// signature change, or a span that left no constraint to skip or to
    /// re-check by receiver.
    pub full_checks: usize,
    /// Constraints re-checked, whole or from seeds.
    pub condition_solves: usize,
    /// The constraints of `condition_solves` re-checked from the receivers
    /// the span touched rather than solved whole.
    pub seeded_checks: usize,
    /// Constraint solves skipped on a retraction-free span because no key
    /// mutated since the last check is one they read.
    pub constraints_skipped: usize,
    /// The same skips on a span in which [`Structure::retractions`] moved.
    pub retraction_skips: usize,
}

/// The incremental constraint checker, which re-checks only the instances
/// of a constraint that the mutations since its last check touched (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct ConstraintChecker {
    constraints: ConstraintSet,
    /// Per constraint, its matcher: the solutions as of the last check — one
    /// frame per violation, in canonical key order — and where the structure
    /// stood then.
    conditions: Vec<Condition>,
    /// Per constraint, the check (by [`CheckStats::checks`]) that last
    /// changed its run.
    changed_at: Vec<usize>,
    stats: CheckStats,
}

impl ConstraintChecker {
    /// A checker over `constraints`.
    pub fn new(constraints: ConstraintSet) -> Self {
        let conditions: Vec<Condition> = constraints.iter().map(|c| c.condition.clone()).collect();
        ConstraintChecker {
            changed_at: vec![0; conditions.len()],
            constraints,
            conditions,
            stats: CheckStats::default(),
        }
    }

    /// The constraints this checker enforces.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Lifetime counters (see [`CheckStats`]).
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Current violations of every constraint, re-checking only the
    /// instances the mutations since the last check can have affected.
    /// Returns the violations grouped by constraint in declaration order,
    /// each group sorted by valuation — the exact list a full re-check
    /// returns.
    pub fn check(&mut self, structure: &Structure) -> Result<Vec<ConstraintViolation>> {
        self.refresh(structure)?;
        Ok(self.violations(structure))
    }

    /// Current violations with every constraint re-solved unconditionally —
    /// the classical baseline.  It gates nothing but solves the way
    /// [`ConstraintChecker::check`] does, so the property tests compare both
    /// against a written-order reference of their own.
    pub fn check_full(&mut self, structure: &Structure) -> Result<Vec<ConstraintViolation>> {
        self.recheck(structure, true)?;
        Ok(self.violations(structure))
    }

    /// The check of [`ConstraintChecker::check`] without its report: bring
    /// every constraint's run up to date with `structure` and render
    /// nothing.  What a commit reports is read off the runs afterwards
    /// ([`ConstraintChecker::violations_beyond`]).
    pub fn refresh(&mut self, structure: &Structure) -> Result<()> {
        self.recheck(structure, false)
    }

    /// Constraint `i`'s solutions as of the last check: one frame per
    /// violation, in canonical key order.
    pub fn run(&self, i: usize) -> &FrameRun {
        self.conditions[i].run()
    }

    /// The check (by [`CheckStats::checks`]) that last changed constraint
    /// `i`'s run: it holds the same frames since.
    pub fn changed_at(&self, i: usize) -> usize {
        self.changed_at[i]
    }

    /// The violations of constraint `i` as of the last check that
    /// `accepted` — an earlier run of the constraint — does not hold, in
    /// valuation order: a merge walk, which renders the new ones only.
    pub fn violations_beyond(&self, i: usize, accepted: &FrameRun, structure: &Structure) -> Vec<ConstraintViolation> {
        let condition = &self.conditions[i];
        let canonical = condition.compiled().canonical();
        self.render(i, &condition.run().difference(accepted, canonical), structure)
    }

    /// The violations `run` — a run of constraint `i` — holds, rendered.
    pub fn render(&self, i: usize, run: &FrameRun, structure: &Structure) -> Vec<ConstraintViolation> {
        let constraint = &self.constraints.constraints[i];
        run.frames()
            .map(|frame| constraint.violation(structure, frame))
            .collect()
    }

    /// Every constraint's cached run, rendered in report order.
    fn violations(&self, structure: &Structure) -> Vec<ConstraintViolation> {
        (0..self.conditions.len())
            .flat_map(|i| self.render(i, self.run(i), structure))
            .collect()
    }

    /// Has `structure` been left alone since the last completed check —
    /// nothing asserted, retracted, created or declared?
    pub fn is_current(&self, structure: &Structure) -> bool {
        let now = Mark::capture(structure);
        self.stats.checks > 0 && self.conditions.iter().all(|c| c.mark() == Some(&now))
    }

    /// Move the checker's position to `structure` as it is now, keeping
    /// the cached results — what a completed check does last.  A caller
    /// that undid, fact for fact, everything it did since a moment at which
    /// [`ConstraintChecker::is_current`] held may call this itself: the
    /// facts are those the cache was solved over, and the span in between
    /// need not be looked at.
    pub fn skip_to(&mut self, structure: &Structure) {
        let now = Mark::capture(structure);
        for condition in &mut self.conditions {
            condition.skip_to(now);
        }
    }

    /// One check: count, and bring every constraint's run up to date with
    /// `structure` — re-checked as the span since its last check asks
    /// ([`Condition::affected`]), or whole when `full`.  Constraints that
    /// stood at one mark share the span.
    fn recheck(&mut self, structure: &Structure, full: bool) -> Result<()> {
        self.stats.checks += 1;
        let (mut whole, mut seeded) = (0, 0);
        let mut shared: Option<Span> = None;
        for (i, condition) in self.conditions.iter_mut().enumerate() {
            let span = Span::shared(&mut shared, structure, condition);
            let recheck = if full {
                Recheck::Whole
            } else {
                condition.affected(structure, span)
            };
            match recheck {
                Recheck::Skip if span.retracted() => self.stats.retraction_skips += 1,
                Recheck::Skip => self.stats.constraints_skipped += 1,
                Recheck::Whole => whole += 1,
                Recheck::Seeded(_) => seeded += 1,
            }
            if condition.resolve(structure, span, &recheck)?.is_some() {
                self.changed_at[i] = self.stats.checks;
            }
        }
        if whole == self.conditions.len() && whole > 0 {
            self.stats.full_checks += 1;
        }
        self.stats.condition_solves += whole + seeded;
        self.stats.seeded_checks += seeded;
        Ok(())
    }
}

// --- quarantine & tolerant evaluation -----------------------------------

/// The ledger of facts tagged (not removed) by `Quarantine`-policy
/// violations: each entry maps a stored fact to the constraints that
/// implicated it.  [`Quarantine::scrub`] materialises the *consistent part*
/// of a structure — everything except the tagged facts — which is what
/// tolerant evaluation compares classical answers against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// `(method, receiver, args)` of tagged scalar facts.
    scalar: BTreeMap<ScalarFactKey, Tags>,
    /// `(method, receiver, args, member)` of tagged set members.
    members: BTreeMap<MemberFactKey, Tags>,
}

/// The constraints implicating one tagged fact.
type Tags = BTreeSet<Arc<str>>;
/// Identity of a stored scalar fact: `(method, receiver, args)`.
type ScalarFactKey = (Oid, Oid, Vec<Oid>);
/// Identity of a stored set member: `(method, receiver, args, member)`.
type MemberFactKey = (Oid, Oid, Vec<Oid>, Oid);

impl Quarantine {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the ledger empty (the store is consistent, or only Reject/Warn
    /// constraints exist)?
    pub fn is_empty(&self) -> bool {
        self.scalar.is_empty() && self.members.is_empty()
    }

    /// Number of tagged facts.
    pub fn len(&self) -> usize {
        self.scalar.len() + self.members.len()
    }

    /// Tag the scalar fact `(method, receiver, args)` as implicated by
    /// `constraint`.
    pub fn tag_scalar(&mut self, method: Oid, receiver: Oid, args: Vec<Oid>, constraint: Arc<str>) {
        self.scalar
            .entry((method, receiver, args))
            .or_default()
            .insert(constraint);
    }

    /// Tag the set member `(method, receiver, args, member)` as implicated
    /// by `constraint`.
    pub fn tag_set_member(&mut self, method: Oid, receiver: Oid, args: Vec<Oid>, member: Oid, constraint: Arc<str>) {
        self.members
            .entry((method, receiver, args, member))
            .or_default()
            .insert(constraint);
    }

    /// Drop every tag implicating `constraint` (its violations were
    /// repaired); entries implicated by no remaining constraint disappear.
    pub fn clear_constraint(&mut self, constraint: &str) {
        self.scalar.retain(|_, cs| {
            cs.retain(|c| &**c != constraint);
            !cs.is_empty()
        });
        self.members.retain(|_, cs| {
            cs.retain(|c| &**c != constraint);
            !cs.is_empty()
        });
    }

    /// Every constraint name with at least one tagged fact.
    pub fn constraints(&self) -> BTreeSet<Arc<str>> {
        self.scalar
            .values()
            .chain(self.members.values())
            .flatten()
            .cloned()
            .collect()
    }

    /// The consistent part of `structure`: a clone with every tagged fact
    /// retracted.  `only` restricts the scrub to facts implicated by one
    /// constraint (for per-constraint taint attribution); `None` scrubs
    /// them all.
    pub fn scrub(&self, structure: &Structure, only: Option<&str>) -> Structure {
        let implicated = |tags: &BTreeSet<Arc<str>>| match only {
            None => true,
            Some(name) => tags.iter().any(|c| &**c == name),
        };
        let mut clean = structure.clone();
        for ((method, receiver, args), tags) in &self.scalar {
            if implicated(tags) {
                clean.retract_scalar(*method, *receiver, args);
            }
        }
        for ((method, receiver, args, member), tags) in &self.members {
            if implicated(tags) {
                clean.retract_set_member(*method, *receiver, args, *member);
            }
        }
        clean
    }
}

/// The consistency status of one tolerant answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyStatus {
    /// Derivable from the consistent part alone — quarantined facts played
    /// no role.
    Clean,
    /// The derivation needs at least one quarantined fact; the names are
    /// the constraints that implicated them.
    Tainted(BTreeSet<Arc<str>>),
}

/// One answer of a tolerant query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TolerantAnswer {
    /// The satisfying valuation.
    pub bindings: Bindings,
    /// Whether the answer survives on the consistent part.
    pub status: ConsistencyStatus,
}

/// The result of a tolerant query: classical answers annotated with their
/// consistency status, plus the answers classical evaluation *suppresses*
/// (derivable from the consistent part but blocked by a quarantined fact
/// through negation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TolerantAnswers {
    /// The classical answers, each annotated clean or tainted.
    pub answers: Vec<TolerantAnswer>,
    /// Valuations the consistent part supports that the full structure does
    /// not (only possible through negated literals reading a quarantined
    /// fact).
    pub suppressed: Vec<Bindings>,
}

impl TolerantAnswers {
    /// Do any answers depend on quarantined facts?
    pub fn any_tainted(&self) -> bool {
        self.answers
            .iter()
            .any(|a| !matches!(a.status, ConsistencyStatus::Clean))
    }
}

/// Answer `query` with inconsistency tolerance: classical answers are
/// annotated clean/tainted against `quarantine`, and answers only the
/// consistent part supports are reported as suppressed.
///
/// With [`Tolerance::Strict`] (the engine default) or an empty ledger this
/// is exactly classical evaluation: every answer comes back `Clean` with no
/// suppressions, at the cost of a single solve — the property the tolerant
/// tests pin down.
pub fn tolerant_query(
    engine: &Engine,
    structure: &Structure,
    quarantine: &Quarantine,
    query: &Query,
) -> Result<TolerantAnswers> {
    let classical = engine.query(structure, query)?;
    if engine.options().tolerance == Tolerance::Strict || quarantine.is_empty() {
        return Ok(TolerantAnswers {
            answers: classical
                .iter()
                .map(|row| TolerantAnswer {
                    bindings: row.bindings(),
                    status: ConsistencyStatus::Clean,
                })
                .collect(),
            suppressed: Vec::new(),
        });
    }
    // A query's rows come each once in ascending key order, so the keys of
    // one answer set are a sorted vector to search.
    let keys = |answers: &Answers| answers.iter().map(|row| row.key()).collect::<Vec<BindingKey>>();
    let consistent = engine.query(&quarantine.scrub(structure, None), query)?;
    let clean_keys = keys(&consistent);
    let classical_keys = keys(&classical);
    let is_clean = |key: &BindingKey| clean_keys.binary_search(key).is_ok();
    // Per-constraint attribution: an answer is tainted by `c` if scrubbing
    // only `c`'s facts makes it underivable.  Answers tainted only by a
    // *joint* dependency (no single constraint's scrub removes them) are
    // attributed to every ledger constraint, the conservative upper bound.
    let all_constraints = quarantine.constraints();
    let mut tainted_by: BTreeMap<BindingKey, Tags> = BTreeMap::new();
    for name in &all_constraints {
        let surviving = keys(&engine.query(&quarantine.scrub(structure, Some(name)), query)?);
        for key in classical_keys.iter().filter(|key| !is_clean(key)) {
            if surviving.binary_search(key).is_err() {
                tainted_by.entry(key.clone()).or_default().insert(Arc::clone(name));
            }
        }
    }
    let answers = classical
        .iter()
        .zip(&classical_keys)
        .map(|(row, key)| {
            let status = if is_clean(key) {
                ConsistencyStatus::Clean
            } else {
                let by = tainted_by.remove(key).unwrap_or_else(|| all_constraints.clone());
                ConsistencyStatus::Tainted(by)
            };
            TolerantAnswer {
                bindings: row.bindings(),
                status,
            }
        })
        .collect();
    let suppressed = consistent
        .iter()
        .zip(&clean_keys)
        .filter(|(_, key)| classical_keys.binary_search(key).is_err())
        .map(|(row, _)| row.bindings())
        .collect();
    Ok(TolerantAnswers { answers, suppressed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalOptions;
    use crate::names::Var;
    use crate::program::Rule;

    /// mary is a manager earning 900; peter a manager earning 1200.
    fn fixture() -> (Structure, Engine) {
        let mut s = Structure::new();
        let engine = Engine::new();
        let facts = vec![
            Rule::fact(Term::name("mary").isa("manager")),
            Rule::fact(Term::name("mary").filter(Filter::scalar("salary", Term::int(900)))),
            Rule::fact(Term::name("peter").isa("manager")),
            Rule::fact(Term::name("peter").filter(Filter::scalar("salary", Term::int(1200)))),
        ];
        engine.run_rules(&mut s, &facts).unwrap();
        s.int(1000); // intern the comparison threshold the constraint uses
        (s, engine)
    }

    /// `X : manager[salary -> S], S[lt@(1000) -> S]` — no manager earns
    /// under 1000.
    fn underpaid_body() -> Vec<Literal> {
        vec![
            Literal::pos(Term::var("X").isa("manager")),
            Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
            Literal::pos(Term::var("S").filter(Filter {
                method: Term::name(crate::builtins::LT),
                args: vec![Term::int(1000)],
                value: FilterValue::Scalar(Term::var("S")),
            })),
        ]
    }

    fn underpaid() -> Constraint {
        Constraint::new("manager_underpaid", underpaid_body(), ConstraintPolicy::Reject).unwrap()
    }

    /// `X[kids ->> {Y}], not Y : manager` — every kid is a manager.
    fn kid_not_manager() -> Constraint {
        let body = vec![
            Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
            Literal::neg(Term::var("Y").isa("manager")),
        ];
        Constraint::new("kid_not_manager", body, ConstraintPolicy::Reject).unwrap()
    }

    /// `?- X : manager[salary -> S].`
    fn manager_salary_query() -> Query {
        Query::new(vec![
            Literal::pos(Term::var("X").isa("manager")),
            Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
        ])
    }

    #[test]
    fn violations_carry_binding_and_ground_witnesses() {
        let (s, _) = fixture();
        let mut checker = ConstraintChecker::new([underpaid()].into_iter().collect());
        let violations = checker.check(&s).unwrap();
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(&*v.constraint, "manager_underpaid");
        let vars: Vec<&str> = v.binding.iter().map(|(name, _)| &**name).collect();
        assert_eq!(vars, vec!["S", "X"], "canonical variable order");
        assert!(v.witnesses[0].contains("mary"), "{:?}", v.witnesses);
        assert!(v.witnesses.iter().any(|w| w.contains("900")), "{:?}", v.witnesses);
        assert!(v.to_string().contains("manager_underpaid"));
    }

    #[test]
    fn unsafe_constraint_bodies_are_rejected_like_unsafe_rules() {
        let body = vec![Literal::neg(Term::var("X").isa("manager"))];
        assert!(Constraint::new("bad", body, ConstraintPolicy::Reject).is_err());
    }

    #[test]
    fn constraint_bodies_are_rejected_with_the_first_body_error() {
        let reject = |body: Vec<Literal>| {
            Constraint::new("c", body, ConstraintPolicy::Reject)
                .unwrap_err()
                .to_string()
        };
        let manager = || Literal::pos(Term::var("X").isa("manager"));
        let unsafe_negation = Literal::neg(Term::var("X").filter(Filter::scalar("boss", Term::var("Y"))));
        assert_eq!(
            reject(vec![manager(), unsafe_negation.clone()]),
            "invalid rule: variable Y of negated literal `X[boss -> Y]` does not occur in a positive literal"
        );
        // PL001 is checked before PL004, and names the literal a body literal.
        let ill_formed =
            Literal::pos(Term::name("p2").filter(Filter::scalar("boss", Term::name("p1").set("assistants"))));
        assert_eq!(
            reject(vec![manager(), unsafe_negation, ill_formed]),
            "invalid rule: body literal `p2[boss -> p1..assistants]` is ill-formed: ill-formed reference: \
             result of a scalar method must be a scalar reference, got set-valued `p1..assistants` \
             (cf. the ill-formed example p2[boss -> p1..assistants], (4.5) in the paper)"
        );
        let safe = vec![
            manager(),
            Literal::neg(Term::var("X").filter(Filter::scalar("boss", Term::var("X")))),
        ];
        assert!(Constraint::new("c", safe, ConstraintPolicy::Reject).is_ok());
    }

    #[test]
    fn unaffected_constraints_are_skipped_and_answer_from_cache() {
        let (mut s, _) = fixture();
        let set: ConstraintSet = [underpaid(), kid_not_manager()].into_iter().collect();
        let mut checker = ConstraintChecker::new(set);
        let first = checker.check(&s).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(checker.stats().condition_solves, 2, "first check solves everything");

        // Register the objects the mutation will use, then let a check
        // absorb them (the class test touches both constraints).
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let anna = s.atom("anna");
        let cheap = s.int(10);
        let manager = s.lookup_name(&Name::atom("manager")).unwrap();
        s.add_isa(anna, manager);
        checker.check(&s).unwrap();
        let base = checker.stats().condition_solves;
        // A salary-only mutation: only the salary-reading constraint re-solves.
        s.assert_scalar(salary, anna, &[], cheap).unwrap();
        let after = checker.check(&s).unwrap();
        assert_eq!(after.len(), 2, "anna now violates underpaid too");
        assert_eq!(
            checker.stats().condition_solves,
            base + 1,
            "only the salary-reading constraint re-solved"
        );
        assert!(checker.stats().constraints_skipped >= 1);

        // No mutation at all: nothing re-solves, the cache answers.
        let again = checker.check(&s).unwrap();
        assert_eq!(again, after);
        assert_eq!(checker.stats().condition_solves, base + 1);
    }

    #[test]
    fn retraction_forces_a_sound_full_recheck() {
        let (mut s, _) = fixture();
        let mut checker = ConstraintChecker::new([underpaid()].into_iter().collect());
        assert_eq!(checker.check(&s).unwrap().len(), 1);
        // Repair the violation by retracting mary's salary: the mutation
        // journal reports `salary` as touched, which the constraint reads —
        // so it re-solves and reports the store consistent.
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        assert!(s.retract_scalar(salary, mary, &[]).is_some());
        let solves_before = checker.stats().condition_solves;
        assert!(checker.check(&s).unwrap().is_empty());
        assert_eq!(checker.stats().condition_solves, solves_before + 1);
        assert_eq!(checker.stats().retraction_skips, 0);
    }

    #[test]
    fn unrelated_retractions_answer_from_cache() {
        let (mut s, _) = fixture();
        // A second fact table the constraint does not read.
        let hobby = s.atom("hobby");
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        let chess = s.atom("chess");
        s.assert_scalar(hobby, mary, &[], chess).unwrap();
        let mut checker = ConstraintChecker::new([underpaid()].into_iter().collect());
        assert_eq!(checker.check(&s).unwrap().len(), 1);
        let solves_before = checker.stats().condition_solves;
        // Retracting mary's hobby touches no key `underpaid` reads: the
        // journal-gated retraction path keeps the cached violation instead
        // of re-solving.
        assert!(s.retract_scalar(hobby, mary, &[]).is_some());
        let violations = checker.check(&s).unwrap();
        assert_eq!(violations.len(), 1, "cached violation survives");
        assert_eq!(checker.stats().condition_solves, solves_before);
        assert_eq!(checker.stats().retraction_skips, 1);
        // The skip left the checker consistent: repairing the violation
        // through a *related* retraction is still observed.
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        assert!(s.retract_scalar(salary, mary, &[]).is_some());
        assert!(checker.check(&s).unwrap().is_empty());
        assert_eq!(checker.stats().condition_solves, solves_before + 1);
    }

    #[test]
    fn new_objects_recheck_only_object_sensitive_constraints() {
        let (mut s, _) = fixture();
        let hobby = s.atom("hobby");
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        let chess = s.atom("chess");
        s.assert_scalar(hobby, mary, &[], chess).unwrap();
        // `Y[lt@(1000) -> Y]`: no stored fact binds `Y`, any object can.
        let cheap = Constraint::new(
            "cheap",
            vec![Literal::pos(Term::var("Y").filter(Filter {
                method: Term::name(crate::builtins::LT),
                args: vec![Term::int(1000)],
                value: FilterValue::Scalar(Term::var("Y")),
            }))],
            ConstraintPolicy::Reject,
        )
        .unwrap();
        assert!(cheap.condition.is_object_sensitive() && !underpaid().condition.is_object_sensitive());
        let mut checker = ConstraintChecker::new([underpaid(), cheap].into_iter().collect());
        assert_eq!(checker.check(&s).unwrap().len(), 2, "mary, and 900");
        let solves_before = checker.stats().condition_solves;
        // An unrelated retraction *plus* a new object in the same span: the
        // object has no fact `underpaid` could read, so only `cheap`
        // re-solves — and finds it.
        assert!(s.retract_scalar(hobby, mary, &[]).is_some());
        s.int(7);
        let violations = checker.check(&s).unwrap();
        assert_eq!(violations.len(), 3);
        assert_eq!(checker.stats().condition_solves, solves_before + 1);
        assert_eq!(checker.stats().retraction_skips, 1);
        assert_eq!(violations, checker.check_full(&s).unwrap());
    }

    /// One gating path, the observable of two: violations found and
    /// `(checks, full_checks, condition_solves, seeded_checks,
    /// constraints_skipped, retraction_skips)` after each kind of span.  A
    /// touched constraint is re-checked for the touched receivers — a salary
    /// for its employee, a class membership or a kid for the instance and
    /// the parent — and only the first check and a signature change solve
    /// everything whole.
    #[test]
    fn counters_tell_each_kind_of_span_apart() {
        let (mut s, _) = fixture();
        let oid = |s: &Structure, n: &str| s.lookup_name(&Name::atom(n)).unwrap();
        let (mary, peter) = (oid(&s, "mary"), oid(&s, "peter"));
        let (salary, manager) = (oid(&s, "salary"), oid(&s, "manager"));
        let (kids, hobby, chess, anna) = (s.atom("kids"), s.atom("hobby"), s.atom("chess"), s.atom("anna"));
        let low = s.int(10);
        s.assert_set_member(kids, mary, &[], peter);
        s.assert_scalar(hobby, mary, &[], chess).unwrap();
        let mut checker = ConstraintChecker::new([underpaid(), kid_not_manager()].into_iter().collect());
        type Counters = (usize, usize, usize, usize, usize, usize);
        let mut step = |s: &Structure, span: &str, violations: usize, counters: Counters| {
            assert_eq!(checker.check(s).unwrap().len(), violations, "{span}");
            let c = checker.stats();
            let got = (
                c.checks,
                c.full_checks,
                c.condition_solves,
                c.seeded_checks,
                c.constraints_skipped,
                c.retraction_skips,
            );
            assert_eq!(got, counters, "{span}");
        };
        step(&s, "first check", 1, (1, 1, 2, 0, 0, 0));
        step(&s, "nothing happened", 1, (2, 1, 2, 0, 2, 0));
        // Insertion-only spans: a key one constraint reads, a key neither
        // reads, a class both read.
        s.assert_scalar(salary, anna, &[], low).unwrap();
        step(&s, "salary asserted", 1, (3, 1, 3, 1, 3, 0));
        s.assert_scalar(hobby, anna, &[], chess).unwrap();
        step(&s, "hobby asserted", 1, (4, 1, 3, 1, 5, 0));
        s.add_isa(anna, manager);
        step(&s, "anna : manager", 2, (5, 1, 5, 3, 5, 0));
        // Retraction-bearing spans, with and without an insertion.
        assert!(s.retract_set_member(kids, mary, &[], peter));
        step(&s, "kid retracted", 2, (6, 1, 6, 4, 5, 1));
        assert!(s.retract_scalar(hobby, mary, &[]).is_some());
        step(&s, "hobby retracted", 2, (7, 1, 6, 4, 5, 3));
        assert!(s.retract_scalar(salary, anna, &[]).is_some());
        s.assert_scalar(hobby, mary, &[], chess).unwrap();
        step(&s, "salary retracted, hobby asserted", 1, (8, 1, 7, 5, 5, 4));
        s.assert_set_member(kids, mary, &[], anna);
        assert!(s.retract_scalar(hobby, mary, &[]).is_some());
        step(&s, "kid asserted, hobby retracted", 1, (9, 1, 8, 6, 5, 5));
        // A new object touches neither; a signature change touches both.
        s.atom("brand_new");
        step(&s, "new object", 1, (10, 1, 8, 6, 7, 5));
        s.add_signature(crate::structure::Signature {
            class: manager,
            method: salary,
            arg_classes: Box::new([]),
            result_classes: vec![manager],
            set_valued: false,
        });
        step(&s, "signature declared", 1, (11, 2, 10, 6, 7, 5));
        step(&s, "nothing happened again", 1, (12, 2, 10, 6, 9, 5));
    }

    /// Which keys a constraint is re-checked by receiver for, and which ones
    /// re-solve it whole.
    #[test]
    fn seed_slots_name_the_variables_a_key_is_read_through() {
        let named = |condition: &Condition| -> Vec<(String, Option<Vec<usize>>)> {
            let slots = condition.seed_slots().iter();
            slots.map(|(n, s)| (n.to_string(), s.clone())).collect()
        };
        let slots = |c: &Constraint| named(&c.condition);
        // X : manager[salary -> S], S < 1000: both keys through X (slot 0);
        // the built-in reads no stored fact.
        let seeds = vec![
            ("lt".to_owned(), None),
            ("manager".to_owned(), Some(vec![0])),
            ("salary".to_owned(), Some(vec![0])),
        ];
        assert_eq!(slots(&underpaid()), seeds);
        // X[kids ->> {Y}], not Y : manager: the negated class test reads
        // through Y, which safety binds.
        let seeds = vec![
            ("kids".to_owned(), Some(vec![0])),
            ("manager".to_owned(), Some(vec![1])),
        ];
        assert_eq!(slots(&kid_not_manager()), seeds);
        // X.boss[salary -> S]: `boss` through X, `salary` through a path
        // temporary.
        let body = vec![Literal::pos(
            Term::var("X")
                .scalar("boss")
                .filter(Filter::scalar("salary", Term::var("S"))),
        )];
        let boss = Constraint::new("boss_paid", body, ConstraintPolicy::Reject).unwrap();
        let seeds = vec![("boss".to_owned(), Some(vec![0])), ("salary".to_owned(), None)];
        assert_eq!(slots(&boss), seeds);
        assert!(!boss.condition.is_object_sensitive());
        // X : employee, not Y[boss -> X]: no constraint (safety rejects it),
        // but a production condition may read Y existentially.  Y has no
        // value to seed, so touching `boss` re-solves the body whole.
        let body = [
            Literal::pos(Term::var("X").isa("employee")),
            Literal::neg(Term::var("Y").filter(Filter::scalar("boss", Term::var("X")))),
        ];
        let seeds = vec![("boss".to_owned(), None), ("employee".to_owned(), Some(vec![0]))];
        assert_eq!(named(&Condition::new(&body)), seeds);
    }

    /// A name the structure has never seen denotes nothing: a constraint
    /// reading it is satisfied (a negated literal holds of nothing), not an
    /// error — and is violated once the name is asserted under.
    #[test]
    fn constraints_over_unseen_names_hold_until_the_names_are_asserted() {
        let (mut s, _) = fixture();
        let forbid = |name: &str, body| Constraint::new(name, body, ConstraintPolicy::Reject).unwrap();
        let scalar = |receiver: Term, method: &str, result: &str| {
            Literal::pos(receiver.filter(Filter::scalar(method, Term::var(result))))
        };
        let set: ConstraintSet = [
            forbid("nicknamed", vec![scalar(Term::var("X"), "nickname", "Y")]),
            forbid("zed_paid", vec![scalar(Term::name("zed"), "salary", "S")]),
            forbid(
                "manager_not_ghost",
                vec![
                    Literal::pos(Term::var("X").isa("manager")),
                    Literal::neg(Term::var("X").isa("ghost")),
                ],
            ),
        ]
        .into_iter()
        .collect();
        let mut checker = ConstraintChecker::new(set);
        let violated = |checker: &mut ConstraintChecker, s: &Structure| -> Vec<String> {
            let violations = checker.check(s).unwrap();
            assert_eq!(violations, checker.check_full(s).unwrap());
            violations.iter().map(|v| v.witnesses.join(", ")).collect()
        };
        let ghostless = ["mary : manager, not mary : ghost", "peter : manager, not peter : ghost"];
        assert_eq!(violated(&mut checker, &s), ghostless);
        // Named, nothing asserted under the names yet.
        let (nickname, zed, ghost, m) = (s.atom("nickname"), s.atom("zed"), s.atom("ghost"), s.atom("m"));
        assert_eq!(violated(&mut checker, &s), ghostless);
        let oid = |n: &str| s.lookup_name(&Name::atom(n)).unwrap();
        let (mary, salary) = (oid("mary"), oid("salary"));
        s.assert_scalar(nickname, mary, &[], m).unwrap();
        s.assert_scalar(salary, zed, &[], m).unwrap();
        s.add_isa(mary, ghost);
        assert_eq!(
            violated(&mut checker, &s),
            [
                "mary[nickname -> m]",
                "zed[salary -> m]",
                "peter : manager, not peter : ghost"
            ]
        );
    }

    /// A threshold the structure does not know yet holds of nothing; naming
    /// it — a new object, with no fact of its own — re-solves the
    /// constraint that met it unknown.
    #[test]
    fn a_name_that_becomes_known_is_noticed() {
        let (mut s, _) = fixture();
        let body = |limit| {
            let mut body = underpaid_body();
            body[2] = Literal::pos(Term::var("S").filter(Filter {
                method: Term::name(crate::builtins::LT),
                args: vec![Term::int(limit)],
                value: FilterValue::Scalar(Term::var("S")),
            }));
            body
        };
        let below = Constraint::new("below_5000", body(5000), ConstraintPolicy::Reject).unwrap();
        assert!(!below.condition.is_object_sensitive());
        let mut checker = ConstraintChecker::new([underpaid(), below].into_iter().collect());
        assert_eq!(checker.check(&s).unwrap().len(), 1, "5000 is no object yet");
        s.int(5000);
        let violations = checker.check(&s).unwrap();
        assert_eq!(violations.len(), 3, "mary and peter earn below it");
        assert_eq!(checker.stats().constraints_skipped, 1, "underpaid knew all its names");
        assert_eq!(violations, checker.check_full(&s).unwrap());
    }

    #[test]
    fn an_undone_span_can_be_skipped() {
        let (mut s, _) = fixture();
        let mut checker = ConstraintChecker::new([underpaid()].into_iter().collect());
        let before = checker.check(&s).unwrap();
        assert!(checker.is_current(&s));
        // Overwrite mary's salary with a value never named before, then put
        // the old one back: the facts are those of the check again.
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        let old = s.retract_scalar(salary, mary, &[]).unwrap();
        let seven = s.ensure_name(&Name::Int(7));
        s.assert_scalar(salary, mary, &[], seven).unwrap();
        s.retract_scalar(salary, mary, &[]);
        s.assert_scalar(salary, mary, &[], old).unwrap();
        assert!(!checker.is_current(&s));
        let stats = checker.stats();
        checker.skip_to(&s);
        assert!(checker.is_current(&s));
        assert_eq!(checker.check(&s).unwrap(), before, "the cache answers");
        assert_eq!(checker.stats().condition_solves, stats.condition_solves);
        assert_eq!(checker.stats().full_checks, stats.full_checks);
    }

    /// A check of a clone moves the checker to the journal's length there;
    /// a later mutation of the original must not fold into an entry made
    /// before that.
    #[test]
    fn checking_a_clone_then_the_original_sees_the_original_s_mutations() {
        let (mut s, _) = fixture();
        let mut checker = ConstraintChecker::new([underpaid()].into_iter().collect());
        assert_eq!(checker.check(&s).unwrap().len(), 1);
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let peter = s.lookup_name(&Name::atom("peter")).unwrap();
        let (raise, cut) = (s.int(1300), s.int(10));
        // peter's salary is the journal's last entry when the clone is made.
        s.retract_scalar(salary, peter, &[]);
        s.assert_scalar(salary, peter, &[], raise).unwrap();
        assert_eq!(checker.check(&s.clone()).unwrap().len(), 1);
        s.retract_scalar(salary, peter, &[]);
        s.assert_scalar(salary, peter, &[], cut).unwrap();
        let violations = checker.check(&s).unwrap();
        assert_eq!(violations.len(), 2, "peter now earns 10");
        let full = ConstraintChecker::new([underpaid()].into_iter().collect()).check_full(&s);
        assert_eq!(violations, full.unwrap());
    }

    #[test]
    fn incremental_equals_full_recheck() {
        let (mut s, _) = fixture();
        let set = || -> ConstraintSet { [underpaid()].into_iter().collect() };
        let mut incremental = ConstraintChecker::new(set());
        let mut full = ConstraintChecker::new(set());
        assert_eq!(incremental.check(&s).unwrap(), full.check_full(&s).unwrap());
        let anna = s.atom("anna");
        let manager = s.lookup_name(&Name::atom("manager")).unwrap();
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let low = s.int(3);
        s.add_isa(anna, manager);
        s.assert_scalar(salary, anna, &[], low).unwrap();
        assert_eq!(incremental.check(&s).unwrap(), full.check_full(&s).unwrap());
    }

    #[test]
    fn quarantine_scrub_materialises_the_consistent_part() {
        let (s, _) = fixture();
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        let mut q = Quarantine::new();
        q.tag_scalar(salary, mary, Vec::new(), "manager_underpaid".into());
        assert_eq!(q.len(), 1);
        let clean = q.scrub(&s, None);
        assert!(clean.apply_scalar(salary, mary, &[]).is_none());
        // The original is untouched.
        assert!(s.apply_scalar(salary, mary, &[]).is_some());
        q.clear_constraint("manager_underpaid");
        assert!(q.is_empty());
    }

    #[test]
    fn tolerant_query_taints_answers_depending_on_quarantined_facts() {
        let (s, _) = fixture();
        let engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        let salary = s.lookup_name(&Name::atom("salary")).unwrap();
        let mary = s.lookup_name(&Name::atom("mary")).unwrap();
        let mut q = Quarantine::new();
        q.tag_scalar(salary, mary, Vec::new(), "manager_underpaid".into());
        let query = manager_salary_query();
        let out = tolerant_query(&engine, &s, &q, &query).unwrap();
        assert_eq!(out.answers.len(), 2);
        let mut statuses: Vec<(String, bool)> = out
            .answers
            .iter()
            .map(|a| {
                let x = a.bindings.get(&Var::new("X")).unwrap();
                (
                    s.display_name(x).into_owned(),
                    matches!(a.status, ConsistencyStatus::Clean),
                )
            })
            .collect();
        statuses.sort();
        assert_eq!(statuses, vec![("mary".into(), false), ("peter".into(), true)]);
        let tainted = out
            .answers
            .iter()
            .find(|a| !matches!(a.status, ConsistencyStatus::Clean))
            .unwrap();
        match &tainted.status {
            ConsistencyStatus::Tainted(by) => {
                assert_eq!(by.iter().map(|c| &**c).collect::<Vec<_>>(), vec!["manager_underpaid"]);
            }
            ConsistencyStatus::Clean => unreachable!(),
        }
        assert!(out.suppressed.is_empty());
        assert!(out.any_tainted());
    }

    #[test]
    fn tolerant_coincides_with_classical_on_consistent_stores() {
        let (s, _) = fixture();
        let engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        let query = manager_salary_query();
        let classical = engine.query(&s, &query).unwrap();
        let out = tolerant_query(&engine, &s, &Quarantine::new(), &query).unwrap();
        assert_eq!(out.answers.len(), classical.len());
        assert!(out.answers.iter().all(|a| matches!(a.status, ConsistencyStatus::Clean)));
        assert!(out.suppressed.is_empty());
    }
}
