//! Static analysis of reactive rule sets: dependency summaries for the
//! core analyzer's trigger-cascade pass, plus checked installation.
//!
//! The core crate's analyzer ([`pathlog_core::analysis`]) knows nothing
//! about this crate's rule types; it consumes
//! [`ReactiveRuleSummary`] values describing what each rule's trigger,
//! condition and actions read and write in the same `(method/class)`
//! dependency keys the incremental matcher reads.  This module derives those
//! summaries ([`summarize_production`], [`summarize_eca`]), runs the full
//! analysis over a rule set ([`analyze_production_rules`],
//! [`analyze_eca_rules`]) and backs the engines' `analyze` /
//! `add_rule_checked` entry points: a rule whose condition carries an
//! `Error`-severity diagnostic (ill-formed reference, unsafe negation) is
//! rejected before it can fail — or worse, silently never fire — at
//! runtime.

use std::collections::BTreeSet;

use pathlog_core::analysis::{Analysis, AnalysisInput, ReactiveRuleSummary, RuleKind};
use pathlog_core::program::{head_info, literal_reads, DepKey, Literal, Program, Query};
use pathlog_core::structure::Structure;

use crate::action::Action;
use crate::active::{EcaAction, EcaRule};
use crate::production::ProductionRule;

/// The keys every literal of `body` reads (positive and negated alike).
fn body_reads(body: &[Literal]) -> BTreeSet<DepKey> {
    body.iter().flat_map(|lit| literal_reads(&lit.term)).collect()
}

/// The dependency summary of one production rule.  Production rules
/// re-match whenever a key their condition reads changes, so the trigger
/// set equals the condition's read set; assert actions write the keys a
/// deductive head with the same reference would define, retract actions
/// touch the keys the retracted molecule reads.
pub fn summarize_production(rule: &ProductionRule) -> ReactiveRuleSummary {
    let condition_reads = body_reads(&rule.condition);
    let mut writes = BTreeSet::new();
    let mut retracts = BTreeSet::new();
    for action in &rule.actions {
        match action {
            Action::Assert(term) => writes.extend(head_info(term).defines),
            Action::Retract(term) => retracts.extend(literal_reads(term)),
        }
    }
    ReactiveRuleSummary {
        name: rule.name.clone(),
        kind: RuleKind::Production,
        trigger: condition_reads.clone(),
        condition_reads,
        writes,
        retracts,
    }
}

/// The dependency summary of one ECA rule: the trigger is the watched
/// event's method/class key, the condition may read more, and each action
/// template writes or retracts exactly its named method/class.
pub fn summarize_eca(rule: &EcaRule) -> ReactiveRuleSummary {
    let trigger: BTreeSet<DepKey> = [DepKey::Known(rule.event.name().clone())].into_iter().collect();
    let mut condition_reads = body_reads(&rule.condition);
    condition_reads.extend(trigger.iter().cloned());
    let mut writes = BTreeSet::new();
    let mut retracts = BTreeSet::new();
    for action in &rule.actions {
        match action {
            EcaAction::AssertScalar { method, .. } | EcaAction::AddSetMember { method, .. } => {
                writes.insert(DepKey::Known(method.clone()));
            }
            EcaAction::AddIsA { class, .. } => {
                writes.insert(DepKey::Known(class.clone()));
            }
            EcaAction::RetractScalar { method, .. } | EcaAction::RemoveSetMember { method, .. } => {
                retracts.insert(DepKey::Known(method.clone()));
            }
        }
    }
    ReactiveRuleSummary {
        name: rule.name.to_string(),
        kind: RuleKind::Eca,
        trigger,
        condition_reads,
        writes,
        retracts,
    }
}

/// Run the core analyzer over a set of summaries and the corresponding
/// condition bodies.  The conditions join the analysis as queries, so they
/// get the same well-formedness and negation-safety checks (PL001, PL004)
/// rule bodies get; the summaries drive the trigger-cascade pass (PL010,
/// PL011) against `max_cascade_depth`.
fn analyze_summaries(
    summaries: Vec<ReactiveRuleSummary>,
    conditions: &[&[Literal]],
    max_cascade_depth: Option<usize>,
    structure: Option<&Structure>,
) -> Analysis {
    let mut program = Program::new();
    for condition in conditions {
        if !condition.is_empty() {
            program.push_query(Query::new(condition.to_vec()));
        }
    }
    let mut input = AnalysisInput::new().program(&program);
    for summary in summaries {
        input = input.reactive_rule(summary);
    }
    if let Some(depth) = max_cascade_depth {
        input = input.max_cascade_depth(depth);
    }
    if let Some(structure) = structure {
        input = input.structure(structure);
    }
    input.run()
}

/// Statically analyze a production rule set: condition safety, trigger
/// cycles and the static cascade bound.  Supply the structure the rules
/// will run against to count its stored facts as defined keys (quieting
/// PL006 for externally stored methods).
pub fn analyze_production_rules(rules: &[ProductionRule], structure: Option<&Structure>) -> Analysis {
    let summaries = rules.iter().map(summarize_production).collect();
    let conditions: Vec<&[Literal]> = rules.iter().map(|r| r.condition.as_slice()).collect();
    analyze_summaries(summaries, &conditions, None, structure)
}

/// Statically analyze an ECA rule set against a cascade-depth limit.
pub fn analyze_eca_rules(rules: &[EcaRule], max_cascade_depth: usize, structure: Option<&Structure>) -> Analysis {
    let summaries = rules.iter().map(summarize_eca).collect();
    let conditions: Vec<&[Literal]> = rules.iter().map(|r| r.condition.as_slice()).collect();
    analyze_summaries(summaries, &conditions, Some(max_cascade_depth), structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlog_core::analysis::{CascadeBound, DiagCode};
    use pathlog_core::names::Name;
    use pathlog_core::term::{Filter, Term};

    use crate::active::Event;

    fn key(name: &str) -> DepKey {
        DepKey::Known(Name::atom(name))
    }

    #[test]
    fn production_summary_collects_reads_and_writes() {
        let rule = ProductionRule::new(
            "promote",
            vec![Literal::pos(Term::var("X").isa("employee"))],
            vec![
                Action::Assert(Term::var("X").filter(Filter::scalar("level", Term::name("senior")))),
                Action::Retract(Term::var("X").filter(Filter::scalar("probation", Term::var("P")))),
            ],
        );
        let s = summarize_production(&rule);
        assert_eq!(s.kind, RuleKind::Production);
        assert!(s.trigger.contains(&key("employee")));
        assert!(s.writes.contains(&key("level")));
        assert!(s.retracts.contains(&key("probation")));
    }

    #[test]
    fn eca_summary_uses_the_event_as_trigger() {
        let rule = EcaRule::new(
            "on-salary",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("paid"),
            }],
        );
        let s = summarize_eca(&rule);
        assert_eq!(s.kind, RuleKind::Eca);
        assert_eq!(s.trigger, [key("salary")].into_iter().collect());
        assert!(s.condition_reads.contains(&key("employee")));
        assert_eq!(s.writes, [key("paid")].into_iter().collect());
        assert!(s.retracts.is_empty());
    }

    #[test]
    fn ping_pong_eca_rules_are_flagged_statically() {
        let ping = EcaRule::new(
            "ping",
            Event::ScalarAsserted(Name::atom("a")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("b"),
                value: Term::var("Value"),
            }],
        );
        let pong = EcaRule::new(
            "pong",
            Event::ScalarAsserted(Name::atom("b")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("a"),
                value: Term::var("Value"),
            }],
        );
        let analysis = analyze_eca_rules(&[ping, pong], 32, None);
        let cascade = analysis.cascade.expect("cascade analyzed");
        assert_eq!(cascade.bound, CascadeBound::Unbounded);
        let codes = analysis.diagnostics.codes();
        assert!(codes.contains(&DiagCode::CascadeCycle), "{}", analysis.diagnostics);
        assert!(codes.contains(&DiagCode::CascadeBound), "{}", analysis.diagnostics);
    }

    #[test]
    fn unsafe_conditions_carry_error_diagnostics() {
        let rule = ProductionRule::new(
            "bad",
            vec![Literal::neg(Term::var("X").isa("employee"))],
            vec![Action::Assert(Term::name("flagged").isa("seen"))],
        );
        let analysis = analyze_production_rules(&[rule], None);
        assert!(!analysis.no_errors());
        assert!(analysis.diagnostics.codes().contains(&DiagCode::UnsafeNegationVariable));
    }
}
