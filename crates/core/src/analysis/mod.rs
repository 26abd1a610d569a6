//! Static program analysis: dependency graphs and safety/lint diagnostics.
//!
//! Every consumer of PathLog rule sets — the engine's stratifier, the
//! constraint checker's read-key gating, the reactive crate's trigger
//! matching — works from the same `(method/class, polarity)` dependency
//! keys.  This module makes that view explicit: [`analyze`] takes any
//! combination of a [`Program`], a [`ConstraintSet`], reactive-rule
//! summaries and an optional [`Structure`] snapshot, builds one shared
//! [`DependencyGraph`], and produces:
//!
//! * a [`Diagnostics`] report with stable `PL0xx` codes, severities and
//!   parser spans — safety/range-restriction errors (PL001–PL005), liveness
//!   lints (PL006–PL009) and cascade warnings (PL010–PL011);
//! * the engine's [`Stratification`] (bit-identical to what evaluation
//!   uses — `engine/stratify.rs` delegates to the same graph);
//! * a [`CascadeReport`] bounding reactive trigger cascades statically.
//!
//! Join order is no concern of the analyzer: every body is planned when it
//! runs, against the live structure ([`crate::plan`]).
//!
//! The analyzer never rejects anything itself; `Engine::install_checked`
//! turns `Error`-severity diagnostics into [`crate::error::Error::StaticRejected`]
//! when [`crate::engine::StaticChecks::Enforce`] is configured.  The
//! guarantee the enforcement relies on (and a proptest pins down): every
//! program [`crate::program::validate_rule`] or the stratifier rejects
//! carries at least one `Error`-severity diagnostic here.

mod cascade;
mod diagnostics;
mod graph;
mod liveness;
mod safety;
mod stats;

pub use cascade::{analyze_cascades, CascadeBound, CascadeReport, ReactiveRuleSummary};
pub use diagnostics::{json_escape, DiagCode, Diagnostic, Diagnostics, Severity, Span};
pub use graph::{keys_intersect, DependencyGraph, Edge, Polarity, RuleKind, RuleNode};
pub use stats::MethodStats;

use crate::constraints::ConstraintSet;
use crate::engine::Stratification;
use crate::program::{rule_info, Program, Rule, RuleInfo};
use crate::structure::Structure;
use crate::term::Term;

/// Everything one analysis run looks at.  Build with the fluent setters and
/// pass to [`analyze`] (or call [`AnalysisInput::run`]).
#[derive(Default)]
pub struct AnalysisInput<'a> {
    program: Option<&'a Program>,
    rule_spans: Vec<Span>,
    query_spans: Vec<Span>,
    constraints: Option<&'a ConstraintSet>,
    reactive: Vec<ReactiveRuleSummary>,
    max_cascade_depth: Option<usize>,
    structure: Option<&'a Structure>,
}

impl<'a> AnalysisInput<'a> {
    /// An empty input.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyze this program's rules, facts and queries.
    pub fn program(mut self, program: &'a Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Statement start positions for the program's rules, parallel to
    /// `program.rules` (as produced by the parser's spanned entry point).
    pub fn rule_spans(mut self, spans: &[(usize, usize)]) -> Self {
        self.rule_spans = spans.iter().map(|&(l, c)| Span::new(l, c)).collect();
        self
    }

    /// Statement start positions for the program's queries, parallel to
    /// `program.queries`.
    pub fn query_spans(mut self, spans: &[(usize, usize)]) -> Self {
        self.query_spans = spans.iter().map(|&(l, c)| Span::new(l, c)).collect();
        self
    }

    /// Also analyze these denial constraints (their bodies join the graph as
    /// consumer nodes).
    pub fn constraints(mut self, constraints: &'a ConstraintSet) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Also analyze a reactive rule (production or ECA), described by its
    /// dependency summary.
    pub fn reactive_rule(mut self, summary: ReactiveRuleSummary) -> Self {
        self.reactive.push(summary);
        self
    }

    /// The runtime cascade-depth limit to check the static bound against
    /// (PL011 fires when the bound exceeds it).
    pub fn max_cascade_depth(mut self, depth: usize) -> Self {
        self.max_cascade_depth = Some(depth);
        self
    }

    /// Use this structure's stored facts for liveness: externally stored
    /// keys are not "always empty" (PL006).
    pub fn structure(mut self, structure: &'a Structure) -> Self {
        self.structure = Some(structure);
        self
    }

    /// Run the analysis.
    pub fn run(self) -> Analysis {
        analyze(self)
    }
}

/// The result of one [`analyze`] run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The shared dependency graph (program statements first, then
    /// constraints, then reactive rules, in input order).
    pub graph: DependencyGraph,
    /// The stratification of the program's rules — exactly what the engine
    /// evaluates with; `None` when the rules are not stratifiable (PL005).
    pub strata: Option<Stratification>,
    /// All diagnostics, sorted by source position.
    pub diagnostics: Diagnostics,
    /// Cascade analysis, when reactive rules were supplied.
    pub cascade: Option<CascadeReport>,
}

impl Analysis {
    /// `true` when no `Error`-severity diagnostic was reported.
    pub fn no_errors(&self) -> bool {
        self.diagnostics.no_errors()
    }
}

/// Analyze `input` — see the module docs for what this produces.
pub fn analyze(input: AnalysisInput<'_>) -> Analysis {
    let AnalysisInput {
        program,
        rule_spans,
        query_spans,
        constraints,
        reactive,
        max_cascade_depth,
        structure,
    } = input;

    let stats = structure.map(MethodStats::capture);
    let mut diags = Diagnostics::new();
    let mut graph = DependencyGraph::new();

    // -- program rules and facts --------------------------------------------
    if let Some(program) = program {
        let mut proper: Vec<(&Rule, Option<Span>)> = Vec::new();
        for (i, rule) in program.rules.iter().enumerate() {
            let span = rule_spans.get(i).copied();
            let info = rule_info(rule);
            let kind = if rule.is_fact() { RuleKind::Fact } else { RuleKind::Rule };
            // No diagnostic names a node that reads nothing and is not a
            // proper rule (see `RuleNode::label`): a text's facts are not
            // rendered back to source just to label their nodes.
            let label = if rule.is_fact() && info.uses.is_empty() && info.strict_uses.is_empty() {
                String::new()
            } else {
                rule.to_string()
            };
            safety::check_rule(rule, span, &mut diags);
            if !rule.is_fact() {
                proper.push((rule, span));
            }
            graph.push(RuleNode::from_info(kind, label, span, info));
        }
        liveness::check_scalar_conflicts(&proper, &mut diags);
    }

    // -- stratification (PL005): the graph holds exactly the rule set the
    // engine sees at this point, so stratify it before any consumer joins --
    let strata = match graph.stratify() {
        Ok(s) => Some(s),
        Err(e) => {
            diags.push(Diagnostic::new(
                DiagCode::NotStratifiable,
                None,
                "program".to_string(),
                e.to_string(),
            ));
            None
        }
    };

    // -- queries -------------------------------------------------------------
    for (i, query) in program.iter().flat_map(|p| p.queries.iter().enumerate()) {
        let span = query_spans.get(i).copied();
        let label = query.to_string();
        // A query is a body with no head: reuse the rule collectors via a
        // synthetic ground head that defines nothing.
        let info = rule_info(&Rule::new(Term::name("__query").empty_filters(), query.body.clone()));
        safety::check_body(&label, &query.body, span, &mut diags);
        graph.push(RuleNode::from_info(RuleKind::Query, label, span, info));
    }

    // -- constraint bodies ---------------------------------------------------
    if let Some(constraints) = constraints {
        for c in constraints.iter() {
            let label = format!("constraint `{}`", c.name());
            let info = rule_info(&Rule::new(
                Term::name("__constraint").empty_filters(),
                c.body().to_vec(),
            ));
            safety::check_body(&label, c.body(), None, &mut diags);
            graph.push(RuleNode::from_info(RuleKind::Constraint, label, None, info));
        }
    }

    // -- reactive rules ------------------------------------------------------
    for summary in &reactive {
        let mut info = RuleInfo {
            defines: summary.action_keys(),
            uses: summary.condition_reads.clone(),
            strict_uses: Default::default(),
        };
        info.uses.extend(summary.trigger.iter().cloned());
        graph.push(RuleNode::from_info(summary.kind, summary.name.clone(), None, info));
    }

    // -- liveness ------------------------------------------------------------
    liveness::check_always_empty(&graph, stats.as_ref(), &mut diags);
    liveness::check_dead_rules(&graph, &mut diags);

    // -- cascades ------------------------------------------------------------
    let cascade = if reactive.is_empty() {
        None
    } else {
        Some(analyze_cascades(&reactive, max_cascade_depth, &mut diags))
    };

    diags.sort();
    Analysis {
        graph,
        strata,
        diagnostics: diags,
        cascade,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Literal, Query};
    use crate::term::Filter;

    fn tc_program() -> Program {
        let mut p = Program::new();
        p.push_rule(Rule::fact(
            Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim"), Term::name("mary")])),
        ));
        p.push_rule(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        p.push_rule(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X")
                    .set("desc")
                    .filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        p.push_query(Query::single(Term::name("peter").set("desc").selector(Term::var("D"))));
        p
    }

    #[test]
    fn clean_program_analyzes_clean() {
        let p = tc_program();
        let a = AnalysisInput::new().program(&p).run();
        assert!(a.diagnostics.is_empty(), "{}", a.diagnostics);
        assert!(a.strata.is_some());
        assert_eq!(a.graph.len(), 4); // 1 fact + 2 rules + 1 query
    }

    #[test]
    fn strata_match_engine_stratify() {
        let p = tc_program();
        let infos = crate::program::validate_program(&p).unwrap();
        let engine_strata = crate::engine::stratify(&infos).unwrap();
        let a = AnalysisInput::new().program(&p).run();
        assert_eq!(a.strata.unwrap(), engine_strata);
    }

    #[test]
    fn spans_attach_to_rule_diagnostics() {
        let mut p = Program::new();
        p.push_rule(Rule::fact(Term::var("X").isa("person")));
        let a = AnalysisInput::new().program(&p).rule_spans(&[(7, 3)]).run();
        let d: Vec<_> = a.diagnostics.iter().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::UnsafeHeadVariable);
        assert_eq!(d[0].span, Some(Span::new(7, 3)));
    }

    #[test]
    fn unstratifiable_program_is_pl005() {
        let mut p = Program::new();
        p.push_rule(Rule::new(
            Term::var("X").filter(Filter::set("friends", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set_ref("friends", Term::var("Y").set("friends"))),
            )],
        ));
        let a = AnalysisInput::new().program(&p).run();
        assert!(a.strata.is_none());
        assert!(a.diagnostics.codes().contains(&DiagCode::NotStratifiable));
        assert!(!a.no_errors());
    }

    #[test]
    fn constraint_bodies_join_the_graph_and_anchor_liveness() {
        let mut p = Program::new();
        p.push_rule(Rule::new(
            Term::var("X").isa("adult"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("age", Term::var("_A"))),
            )],
        ));
        let mut cs = ConstraintSet::new();
        cs.push(
            crate::constraints::Constraint::new(
                "no-adult",
                vec![Literal::pos(Term::var("X").isa("adult"))],
                crate::constraints::ConstraintPolicy::Reject,
            )
            .unwrap(),
        );
        let a = AnalysisInput::new().program(&p).constraints(&cs).run();
        // The constraint is a consumer: the rule is NOT dead...
        assert!(!a.diagnostics.codes().contains(&DiagCode::DeadRule));
        // ...but `age` is never defined anywhere: PL006.
        assert!(a.diagnostics.codes().contains(&DiagCode::AlwaysEmptyLiteral));
        assert_eq!(a.graph.len(), 2);
    }

    #[test]
    fn structure_facts_quiet_pl006() {
        let mut p = Program::new();
        p.push_rule(Rule::new(
            Term::var("X").isa("adult"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("age", Term::var("_A"))),
            )],
        ));
        let mut s = Structure::new();
        let mary = s.atom("mary");
        let age = s.atom("age");
        let thirty = s.int(30);
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        let a = AnalysisInput::new().program(&p).structure(&s).run();
        assert!(a.diagnostics.is_empty(), "{}", a.diagnostics);
    }

    #[test]
    fn reactive_summaries_produce_cascade_reports() {
        use std::collections::BTreeSet;
        let key = |s: &str| {
            let mut set = BTreeSet::new();
            set.insert(crate::program::DepKey::Known(crate::names::Name::atom(s)));
            set
        };
        let ping = ReactiveRuleSummary {
            name: "ping".into(),
            kind: RuleKind::Production,
            trigger: key("a"),
            condition_reads: key("a"),
            writes: key("b"),
            retracts: BTreeSet::new(),
        };
        let pong = ReactiveRuleSummary {
            name: "pong".into(),
            kind: RuleKind::Production,
            trigger: key("b"),
            condition_reads: key("b"),
            writes: key("a"),
            retracts: BTreeSet::new(),
        };
        let a = AnalysisInput::new()
            .reactive_rule(ping)
            .reactive_rule(pong)
            .max_cascade_depth(32)
            .run();
        let cascade = a.cascade.unwrap();
        assert_eq!(cascade.bound, CascadeBound::Unbounded);
        assert!(a.diagnostics.codes().contains(&DiagCode::CascadeCycle));
        assert!(a.diagnostics.codes().contains(&DiagCode::CascadeBound));
    }
}
