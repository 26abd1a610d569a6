//! A forward-chaining production rule engine with PathLog conditions.
//!
//! The paper's conclusion: path expressions are "a convenient tool to
//! reference objects; the way in which a set of rules is being evaluated is
//! an orthogonal issue".  This module demonstrates that orthogonality with a
//! classic recognise–act production system:
//!
//! * the **condition** of a rule is an ordinary PathLog body (a conjunction
//!   of references), compiled once per run and matched by the same compiled
//!   atoms that answer queries and check constraints;
//! * the **actions** assert or retract references ([`Action`]);
//! * one instantiation fires per cycle, the highest-priority one; a fired
//!   instantiation never fires again (refraction).
//!
//! Unlike the deductive engine, production rules can *retract* facts, so the
//! fixpoint guarantee of the bottom-up semantics is replaced by explicit
//! cycle limits.
//!
//! **Scheduling.**  The recognise phase of a cycle brings every rule's
//! condition up to date with the structure as the last firing left it, and
//! the instantiations fire in canonical priority-then-rule-then-key order
//! (the key of a solution is its bound `(variable, object)` pairs in
//! variable order), so two runs over equal structures have the same firing
//! order, trace, statistics and final structure.
//!
//! **Incremental matching.**  Each rule's condition is a [`Condition`], the
//! incremental matcher the constraint checker shares.  It keeps the
//! condition's solutions as one canonical frame run and re-solves, after a
//! firing, only the instances the firing can have affected: a condition
//! that reads no `(method, receiver)` pair the firing touched is skipped,
//! one that reads a touched pair through a variable a positive literal
//! binds is re-solved from seeds binding that variable to the touched
//! receivers, and the rest are solved whole (the matcher's docs list when).
//! Asserts and retracts are treated alike.
//! [`ProductionStats::condition_solves`] and
//! [`ProductionStats::condition_skips`] count the re-solves and the skips.
//!
//! The conflict set is an *agenda*: each refresh feeds it the frames its
//! condition's run gained and takes out the ones it lost, so resolving a
//! cycle is popping the agenda's first entry.  Refraction is a per-rule set
//! of fired frames, consulted only when a frame is gained: a fired
//! instantiation that is lost and gained again does not return.  A rule set that keeps
//! making *new* instantiations — each firing mints an object its condition
//! matches — runs into [`ProductionOptions::max_cycles`].  A firing's
//! variable bindings are built for the one frame that fires, for its
//! actions.

use std::collections::BTreeSet;
use std::fmt;

use pathlog_core::plan::{Condition, Recheck, Span};
use pathlog_core::program::Literal;
use pathlog_core::structure::{Oid, Structure};

use crate::action::{apply_action, Action, ActionEffect};
use crate::error::{ReactiveError, Result};

/// One production rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductionRule {
    /// A name used in traces and error messages.
    pub name: String,
    /// Higher priorities fire first; ties go by rule definition order, then
    /// by binding order.
    pub priority: i64,
    /// The condition: a PathLog body.
    pub condition: Vec<Literal>,
    /// The actions, applied in order when the rule fires.
    pub actions: Vec<Action>,
}

impl ProductionRule {
    /// A rule with priority 0.
    pub fn new(name: impl Into<String>, condition: Vec<Literal>, actions: Vec<Action>) -> Self {
        ProductionRule {
            name: name.into(),
            priority: 0,
            condition,
            actions,
        }
    }

    /// Set the priority.
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }
}

impl fmt::Display for ProductionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: IF ", self.name, self.priority)?;
        for (i, l) in self.condition.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, " THEN ")?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Options of the production engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductionOptions {
    /// Maximum number of recognise–act cycles before giving up.
    pub max_cycles: usize,
}

impl Default for ProductionOptions {
    fn default() -> Self {
        ProductionOptions { max_cycles: 10_000 }
    }
}

/// Statistics of one production run.  Counters saturate instead of wrapping.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProductionStats {
    /// Recognise–act cycles executed.
    pub cycles: usize,
    /// Rule instantiations fired.
    pub firings: usize,
    /// Facts asserted by actions.
    pub asserted: usize,
    /// Facts retracted by actions.
    pub retracted: usize,
    /// Virtual objects created by actions.
    pub virtual_objects: usize,
    /// Conditions re-solved, whole or from seeds (at most one per rule per
    /// cycle).
    pub condition_solves: usize,
    /// Condition solves skipped because the firings since the rule's last
    /// refresh touched nothing its condition reads.
    pub condition_skips: usize,
}

/// One entry of the firing trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The cycle in which the rule fired (1-based).
    pub cycle: usize,
    /// The rule's name.
    pub rule: String,
    /// The instantiation, as `(variable, object)` pairs.
    pub bindings: Vec<(String, Oid)>,
}

/// The production rule engine.
#[derive(Debug, Clone, Default)]
pub struct ProductionEngine {
    rules: Vec<ProductionRule>,
    options: ProductionOptions,
}

impl ProductionEngine {
    /// An engine with default options and no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with the given options.
    pub fn with_options(options: ProductionOptions) -> Self {
        ProductionEngine {
            rules: Vec::new(),
            options,
        }
    }

    /// Add a rule; rules keep their definition order.
    pub fn add_rule(&mut self, rule: ProductionRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Add a rule only if it passes static analysis: the rule's condition
    /// is checked in isolation and the rule is rejected with
    /// [`ReactiveError::StaticRejected`] when the analyzer reports an
    /// `Error`-severity diagnostic (ill-formed reference, unsafe
    /// negation).  Warnings do not block installation; call
    /// [`ProductionEngine::analyze`] to see them.
    pub fn add_rule_checked(&mut self, rule: ProductionRule) -> Result<&mut Self> {
        let analysis = crate::analyze::analyze_production_rules(std::slice::from_ref(&rule), None);
        if !analysis.no_errors() {
            let errors: Vec<String> = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == pathlog_core::analysis::Severity::Error)
                .map(|d| d.to_string())
                .collect();
            return Err(ReactiveError::StaticRejected(format!(
                "rule `{}`: {}",
                rule.name,
                errors.join("; ")
            )));
        }
        self.rules.push(rule);
        Ok(self)
    }

    /// Statically analyze the installed rule set: condition safety
    /// diagnostics plus the trigger graph and cascade report over all
    /// rules (see [`crate::analyze`]).  Pass the structure the rules will
    /// run against so its stored facts count as defined keys.
    pub fn analyze(&self, structure: Option<&Structure>) -> pathlog_core::analysis::Analysis {
        crate::analyze::analyze_production_rules(&self.rules, structure)
    }

    /// The rules in definition order.
    pub fn rules(&self) -> &[ProductionRule] {
        &self.rules
    }

    /// The options in use.
    pub fn options(&self) -> &ProductionOptions {
        &self.options
    }

    /// Run recognise–act cycles until no (new) instantiation matches.
    /// Returns statistics; use [`ProductionEngine::run_traced`] to also get
    /// the firing trace.
    pub fn run(&self, structure: &mut Structure) -> Result<ProductionStats> {
        self.run_traced(structure).map(|(stats, _)| stats)
    }

    /// Run recognise–act cycles, returning statistics and the firing trace.
    pub fn run_traced(&self, structure: &mut Structure) -> Result<(ProductionStats, Vec<Firing>)> {
        let mut stats = ProductionStats::default();
        let mut trace = Vec::new();
        let mut conditions: Vec<Condition> = self.rules.iter().map(|r| Condition::new(&r.condition)).collect();
        // Per rule, the keys of the frames it fired.
        let mut fired: Vec<BTreeSet<Key>> = vec![BTreeSet::new(); self.rules.len()];
        // Every frame of every run that may fire, in firing order.
        let mut agenda: BTreeSet<(i64, usize, Key)> = BTreeSet::new();

        loop {
            if stats.cycles >= self.options.max_cycles {
                return Err(ReactiveError::LimitExceeded(format!(
                    "no quiescence after {} recognise-act cycles",
                    self.options.max_cycles
                )));
            }
            stats.cycles = stats.cycles.saturating_add(1);

            // Recognise: bring every condition up to date with the
            // structure, and move what its run gained and lost to the agenda.
            let mut shared = None;
            for (r, condition) in conditions.iter_mut().enumerate() {
                let span = Span::shared(&mut shared, structure, condition);
                let recheck = condition.affected(structure, span);
                if recheck == Recheck::Skip {
                    stats.condition_skips = stats.condition_skips.saturating_add(1);
                } else {
                    stats.condition_solves = stats.condition_solves.saturating_add(1);
                }
                let Some(change) = condition.resolve(structure, span, &recheck)? else {
                    continue;
                };
                let canonical = condition.compiled().canonical();
                let rank = -self.rules[r].priority;
                for frame in change.lost.frames() {
                    agenda.remove(&(rank, r, key_of(canonical, frame)));
                }
                for frame in change.gained.frames() {
                    let key = key_of(canonical, frame);
                    if !fired[r].contains(&key) {
                        agenda.insert((rank, r, key));
                    }
                }
            }

            // Resolve: the agenda's first entry.
            let Some((_, index, key)) = agenda.pop_first() else {
                break; // quiescence
            };
            let rule = &self.rules[index];
            let compiled = conditions[index].compiled();
            let mut frame = vec![0; compiled.slot_count()];
            for (&slot, &word) in compiled.canonical().iter().zip(&key) {
                frame[slot] = word;
            }
            let bindings = compiled.bindings_of(&frame);

            // Act.
            for action in &rule.actions {
                let effect: ActionEffect = apply_action(structure, action, &bindings)?;
                stats.asserted = stats.asserted.saturating_add(effect.asserted);
                stats.retracted = stats.retracted.saturating_add(effect.retracted);
                stats.virtual_objects = stats.virtual_objects.saturating_add(effect.virtual_objects);
            }
            stats.firings = stats.firings.saturating_add(1);
            let bound = compiled.canonical().iter().zip(&key).filter(|(_, &word)| word != 0);
            trace.push(Firing {
                cycle: stats.cycles,
                rule: rule.name.clone(),
                bindings: bound
                    .map(|(&slot, &word)| (compiled.slot_var(slot).0.to_string(), Oid(word - 1)))
                    .collect(),
            });
            fired[index].insert(key);
        }
        Ok((stats, trace))
    }
}

/// A frame of a condition's run projected through its canonical slot order:
/// keys compare as the solutions' `(variable, object)` pairs do.
type Key = Box<[u32]>;

/// The key of `frame`.
fn key_of(canonical: &[usize], frame: &[u32]) -> Key {
    canonical.iter().map(|&slot| frame[slot]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlog_core::term::{Filter, Term};

    /// Employees with salaries; the rules below classify and adjust them.
    fn payroll() -> Structure {
        let mut s = Structure::new();
        let employee = s.atom("employee");
        let salary = s.atom("salary");
        for (name, pay) in [("ann", 900), ("bob", 1500), ("cleo", 2000)] {
            let p = s.atom(name);
            let v = s.int(pay);
            s.add_isa(p, employee);
            s.assert_scalar(salary, p, &[], v).unwrap();
        }
        // The minimum-wage threshold must exist in the universe for the
        // comparison literal `S.lt@(1000)` to valuate it.
        s.int(1000);
        s
    }

    fn lit(text_term: Term) -> Literal {
        Literal::pos(text_term)
    }

    #[test]
    fn a_simple_rule_fires_once_per_instantiation() {
        let mut s = payroll();
        let mut engine = ProductionEngine::new();
        // IF X : employee THEN assert X : person
        engine.add_rule(ProductionRule::new(
            "classify",
            vec![lit(Term::var("X").isa("employee"))],
            vec![Action::Assert(Term::var("X").isa("person"))],
        ));
        let (stats, trace) = engine.run_traced(&mut s).unwrap();
        assert_eq!(stats.firings, 3, "one firing per employee");
        assert_eq!(stats.asserted, 3);
        assert_eq!(trace.len(), 3);
        assert!(trace.iter().all(|f| f.rule == "classify"));
        let person = s.atom("person");
        assert_eq!(s.instances_of(person).count(), 3);
        // Quiescence: running again fires nothing new thanks to refractoriness
        // (the derived facts still match, but the instantiations are the same).
        let stats2 = engine.run(&mut s).unwrap();
        assert_eq!(stats2.firings, 3, "fresh engine state refires; facts unchanged");
        assert_eq!(stats2.asserted, 0);
    }

    #[test]
    fn priorities_decide_which_rule_fires_first() {
        let mut s = payroll();
        let mut engine = ProductionEngine::new();
        engine.add_rule(
            ProductionRule::new(
                "low",
                vec![lit(Term::var("X").isa("employee"))],
                vec![Action::Assert(Term::var("X").isa("reviewedSecond"))],
            )
            .with_priority(1),
        );
        engine.add_rule(
            ProductionRule::new(
                "high",
                vec![lit(Term::var("X").isa("employee"))],
                vec![Action::Assert(Term::var("X").isa("reviewedFirst"))],
            )
            .with_priority(10),
        );
        let (_, trace) = engine.run_traced(&mut s).unwrap();
        // The first three firings must all be the high-priority rule.
        assert!(trace[..3].iter().all(|f| f.rule == "high"), "{trace:?}");
        assert!(trace[3..].iter().all(|f| f.rule == "low"));
    }

    #[test]
    fn retracting_the_triggering_fact_reaches_quiescence() {
        let mut s = payroll();
        let mut engine = ProductionEngine::new();
        // IF X : employee[salary -> S], S.lt@(1000) THEN
        //   retract X[salary -> S]; assert X[salary -> 1000]   (raise to minimum wage)
        let condition = vec![
            lit(Term::var("X")
                .isa("employee")
                .filter(Filter::scalar("salary", Term::var("S")))),
            lit(Term::var("S").scalar_args("lt", vec![Term::int(1000)])),
        ];
        engine.add_rule(ProductionRule::new(
            "minimum-wage",
            condition,
            vec![
                Action::Retract(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
                Action::Assert(Term::var("X").filter(Filter::scalar("salary", Term::int(1000)))),
            ],
        ));
        let stats = engine.run(&mut s).unwrap();
        assert_eq!(stats.firings, 1, "only ann is below minimum wage");
        assert_eq!(stats.retracted, 1);
        assert_eq!(stats.asserted, 1);
        let (salary, ann, thousand) = (s.atom("salary"), s.atom("ann"), s.int(1000));
        assert_eq!(s.apply_scalar(salary, ann, &[]), Some(thousand));
    }

    #[test]
    fn runaway_rule_sets_hit_the_cycle_limit() {
        let mut s = payroll();
        let mut engine = ProductionEngine::with_options(ProductionOptions { max_cycles: 5 });
        // Refraction stops no instantiation here: every firing mints a
        // fresh employee `X.next`, which is a new instantiation.
        engine.add_rule(ProductionRule::new(
            "loop",
            vec![lit(Term::var("X").isa("employee"))],
            vec![Action::Assert(Term::var("X").scalar("next").isa("employee"))],
        ));
        let err = engine.run(&mut s).unwrap_err();
        assert!(matches!(err, ReactiveError::LimitExceeded(_)));
        let employee = s.atom("employee");
        let minted = s.instances_of(employee).filter(|&e| s.is_virtual(e)).count();
        assert_eq!(minted, 5, "one fresh employee per cycle");
    }

    #[test]
    fn rules_and_engine_expose_their_configuration() {
        let rule = ProductionRule::new(
            "r",
            vec![lit(Term::var("X").isa("employee"))],
            vec![Action::Assert(Term::var("X").isa("person"))],
        )
        .with_priority(7);
        assert!(rule.to_string().contains("IF X : employee THEN assert X : person"));
        assert_eq!(rule.priority, 7);
        let mut engine = ProductionEngine::new();
        engine.add_rule(rule);
        assert_eq!(engine.rules().len(), 1);
        assert_eq!(engine.options().max_cycles, 10_000);
    }
}
