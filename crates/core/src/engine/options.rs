//! What an evaluation runs under ([`EvalOptions`], with [`Tolerance`] and
//! [`StaticChecks`]) and what it counts ([`EvalStats`]).

use super::AssertEffect;

/// How queries treat facts quarantined by an integrity-constraint violation
/// (see the [`constraints`](crate::constraints) module).
///
/// Under the default `Strict` mode quarantined facts are indistinguishable
/// from ordinary ones — queries answer over the structure as stored.
/// `Tolerant` opts into inconsistency-tolerant degradation in the spirit of
/// Laurent/Spyratos' four-valued semantics: answers derivable without any
/// quarantined fact are reported *clean*, answers that depend on one are
/// reported *tainted* by the constraints that quarantined their support,
/// and queries keep being served either way.  On a consistent store (empty
/// quarantine) the two modes coincide exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tolerance {
    /// Classical evaluation: quarantined facts answer like any other (the
    /// default).
    #[default]
    Strict,
    /// Inconsistency-tolerant evaluation: answers carry a consistency
    /// status (clean vs. tainted-by-constraint) computed against the
    /// quarantine ledger.
    Tolerant,
}

/// What [`Engine::install_checked`](super::Engine::install_checked) does
/// with `Error`-severity static diagnostics (see [`crate::analysis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaticChecks {
    /// Analyze and report, but install the program anyway (the default —
    /// matches the historical behaviour where validation alone gated
    /// installation).
    #[default]
    WarnOnly,
    /// Reject programs with `Error`-severity diagnostics before any fact is
    /// asserted, returning [`crate::error::Error::StaticRejected`] with the
    /// rendered report.
    Enforce,
}

/// Options controlling evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Maximum number of fixpoint iterations per stratum before giving up.
    pub max_iterations: usize,
    /// Maximum number of derived facts (scalar + set members + isa edges)
    /// before giving up — a guard against runaway virtual-object creation.
    pub max_derived: usize,
    /// Create virtual objects for undefined scalar paths in rule heads.
    pub create_virtuals: bool,
    /// Whether queries degrade gracefully over quarantined (constraint-
    /// violating) facts instead of answering classically — see
    /// [`Tolerance`].
    pub tolerance: Tolerance,
    /// Whether [`Engine::install_checked`](super::Engine::install_checked)
    /// rejects programs with `Error`-severity static diagnostics — see
    /// [`StaticChecks`].
    pub static_checks: StaticChecks,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_iterations: 100_000,
            max_derived: 50_000_000,
            create_virtuals: true,
            tolerance: Tolerance::Strict,
            static_checks: StaticChecks::WarnOnly,
        }
    }
}

/// Statistics of one evaluation run.
///
/// **Contract:** the derived-fact counters (`firings`, `scalar_facts`,
/// `set_members`, `isa_edges`, `signatures`, `virtual_objects`) describe the
/// least fixpoint: the engine's equal those of the reference
/// [`fixpoint`](crate::semantics::fixpoint).  The *scheduling* counters
/// (`iterations`, `rules_skipped`, `delta_solves`, `full_solves`) and the
/// planner counters (`plans_compiled`, `replans`, `seed_flips`) count
/// **proper rules only**: a fact is committed as data (one of the `firings`
/// when it adds something) and is never a solve, a skip or a compile, so a
/// fact-only program reports 0 for all of them.  They are per-iteration
/// aggregates — a "delta solve" is one (rule, iteration) solve against the
/// iteration's shared snapshot window — decided from the structure's content
/// alone, so two runs of one program over equal structures report the same
/// values.  The reference reports `strata` and `iterations` only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of strata.
    pub strata: usize,
    /// Total fixpoint iterations over all strata.
    pub iterations: usize,
    /// Number of rule/solution pairs asserted.
    pub firings: usize,
    /// Derived scalar facts.
    pub scalar_facts: usize,
    /// Derived set members.
    pub set_members: usize,
    /// Derived class memberships.
    pub isa_edges: usize,
    /// Signature declarations added.
    pub signatures: usize,
    /// Virtual objects created.
    pub virtual_objects: usize,
    /// Rule evaluations skipped because no dependency changed.
    pub rules_skipped: usize,
    /// Rule evaluations solved per-literal against an iteration delta.
    pub delta_solves: usize,
    /// Rule evaluations solved against the full structure.
    pub full_solves: usize,
    /// Rule bodies lowered to the compiled slot-frame IR of [`crate::plan`]:
    /// one per proper rule per run, when its stratum starts.
    pub plans_compiled: usize,
    /// Always 0: a compiled body holds no estimate that could go stale —
    /// every plan reads the live index cardinalities.  Kept only because the
    /// benchmark reports it (`plan.replans`).
    pub replans: usize,
    /// Iterations × rules where the planner seeded the join from a literal
    /// whose posting list is shorter than the delta instead of from a
    /// delta-driven literal.
    pub seed_flips: usize,
}

impl EvalStats {
    /// Total number of derived facts.
    pub fn derived(&self) -> usize {
        self.scalar_facts
            .saturating_add(self.set_members)
            .saturating_add(self.isa_edges)
    }

    /// The counters that describe the model, not how it was computed:
    /// `firings`, `scalar_facts`, `set_members`, `isa_edges`, `signatures`,
    /// `virtual_objects` — identical in every configuration (see the
    /// contract above).
    pub fn model_counters(&self) -> [usize; 6] {
        [
            self.firings,
            self.scalar_facts,
            self.set_members,
            self.isa_edges,
            self.signatures,
            self.virtual_objects,
        ]
    }

    /// Fold the counters of another run into this one.  Every field is summed with
    /// saturating arithmetic, so aggregating many large runs pins at
    /// `usize::MAX` instead of wrapping (or panicking in debug builds).
    pub fn merge(&mut self, other: &EvalStats) {
        self.strata = self.strata.saturating_add(other.strata);
        self.iterations = self.iterations.saturating_add(other.iterations);
        self.firings = self.firings.saturating_add(other.firings);
        self.scalar_facts = self.scalar_facts.saturating_add(other.scalar_facts);
        self.set_members = self.set_members.saturating_add(other.set_members);
        self.isa_edges = self.isa_edges.saturating_add(other.isa_edges);
        self.signatures = self.signatures.saturating_add(other.signatures);
        self.virtual_objects = self.virtual_objects.saturating_add(other.virtual_objects);
        self.rules_skipped = self.rules_skipped.saturating_add(other.rules_skipped);
        self.delta_solves = self.delta_solves.saturating_add(other.delta_solves);
        self.full_solves = self.full_solves.saturating_add(other.full_solves);
        self.plans_compiled = self.plans_compiled.saturating_add(other.plans_compiled);
        self.replans = self.replans.saturating_add(other.replans);
        self.seed_flips = self.seed_flips.saturating_add(other.seed_flips);
    }

    /// Fold what one head assert added into the model counters.
    pub(crate) fn absorb(&mut self, e: AssertEffect) {
        self.scalar_facts = self.scalar_facts.saturating_add(e.scalar_facts);
        self.set_members = self.set_members.saturating_add(e.set_members);
        self.isa_edges = self.isa_edges.saturating_add(e.isa_edges);
        self.signatures = self.signatures.saturating_add(e.signatures);
        self.virtual_objects = self.virtual_objects.saturating_add(e.virtual_objects);
    }
}
