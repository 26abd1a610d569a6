//! Rules, facts, queries and programs (Section 6 of the paper).
//!
//! A PathLog rule is `head <- body.` where the head is a single reference and
//! the body a conjunction of (possibly negated — an extension) references.
//! A fact is a ground reference asserted directly.  A query `?- body.` asks
//! for the variable-valuations that entail the body.
//!
//! Rules define *intensional* knowledge: intensionally defined methods on
//! existing objects (`X[power -> Y] <- X:automobile.engine[power -> Y]`) and
//! *virtual objects* referenced through paths in the head
//! (`X.address[street -> X.street] <- X:person`).

mod validate;

pub use validate::{body_info, head_info, literal_reads, rule_info, validate_program, validate_rule, DepKey, RuleInfo};
pub(crate) use validate::{walk_head, HeadKey};

use std::fmt;

use crate::names::Var;
use crate::term::Term;

/// A body literal: a reference, possibly negated.
///
/// Negation is not part of the paper and is provided as an extension; the
/// engine stratifies negated dependencies like the set-at-a-time ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    /// `false` for `not t`.
    pub positive: bool,
    /// The reference.
    pub term: Term,
}

impl Literal {
    /// A positive literal.
    pub fn pos(term: Term) -> Self {
        Literal { positive: true, term }
    }

    /// A negated literal (extension).
    pub fn neg(term: Term) -> Self {
        Literal { positive: false, term }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.term)
        } else {
            write!(f, "not {}", self.term)
        }
    }
}

/// A rule `head <- body.`; a fact is a rule with an empty body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head reference.
    pub head: Term,
    /// The body conjunction.
    pub body: Vec<Literal>,
}

impl Rule {
    /// A rule with the given head and body.
    pub fn new(head: Term, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// A fact (empty body).
    pub fn fact(head: Term) -> Self {
        Rule { head, body: Vec::new() }
    }

    /// `true` if this rule has an empty body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Variables of the head.
    pub fn head_variables(&self) -> Vec<Var> {
        self.head.variables()
    }

    /// Variables occurring in positive body literals.
    pub fn positive_body_variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for l in self.body.iter().filter(|l| l.positive) {
            for v in l.term.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A query `?- body.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The conjunction of literals to satisfy.
    pub body: Vec<Literal>,
}

impl Query {
    /// A query over the given body.
    pub fn new(body: Vec<Literal>) -> Self {
        Query { body }
    }

    /// A query with a single positive literal.
    pub fn single(term: Term) -> Self {
        Query {
            body: vec![Literal::pos(term)],
        }
    }

    /// The variables of the query, in order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for l in &self.body {
            for v in l.term.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- ")?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A program: facts, rules and queries in source order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Rules (facts are rules with empty bodies).
    pub rules: Vec<Rule>,
    /// Queries.
    pub queries: Vec<Query>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule or fact.
    pub fn push_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Add a query.
    pub fn push_query(&mut self, query: Query) -> &mut Self {
        self.queries.push(query);
        self
    }

    /// The facts (rules with empty bodies).
    pub fn facts(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().filter(|r| r.is_fact())
    }

    /// The proper rules (non-empty bodies).
    pub fn proper_rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().filter(|r| !r.is_fact())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for q in &self.queries {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Filter;

    #[test]
    fn rule_display() {
        // X[power -> Y] <- X : automobile.engine[power -> Y].
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("power", Term::var("Y"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("automobile")
                    .scalar("engine")
                    .filter(Filter::scalar("power", Term::var("Y"))),
            )],
        );
        assert_eq!(rule.to_string(), "X[power -> Y] <- X : automobile.engine[power -> Y].");
        assert!(!rule.is_fact());
    }

    #[test]
    fn fact_display_and_predicates() {
        let f =
            Rule::fact(Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim"), Term::name("mary")])));
        assert_eq!(f.to_string(), "peter[kids ->> {tim, mary}].");
        assert!(f.is_fact());
    }

    #[test]
    fn query_display_and_variables() {
        let q = Query::new(vec![
            Literal::pos(Term::var("X").isa("employee")),
            Literal::neg(Term::var("X").filter(Filter::scalar("city", "detroit"))),
        ]);
        assert_eq!(q.to_string(), "?- X : employee, not X[city -> detroit].");
        assert_eq!(q.variables(), vec![crate::names::Var::new("X")]);
    }

    #[test]
    fn rule_variable_partitions() {
        let rule = Rule::new(
            Term::var("X").filter(Filter::scalar("power", Term::var("Y"))),
            vec![
                Literal::pos(Term::var("X").isa("automobile")),
                Literal::neg(Term::var("Z").isa("broken")),
            ],
        );
        assert_eq!(rule.head_variables().len(), 2);
        // Z occurs only in a negative literal, so it is not a positive body variable.
        assert_eq!(rule.positive_body_variables(), vec![crate::names::Var::new("X")]);
    }

    #[test]
    fn program_collects_and_partitions() {
        let mut p = Program::new();
        p.push_rule(Rule::fact(Term::name("a").isa("b")));
        p.push_rule(Rule::new(
            Term::var("X").isa("c"),
            vec![Literal::pos(Term::var("X").isa("b"))],
        ));
        p.push_query(Query::single(Term::var("X").isa("c")));
        assert_eq!(p.facts().count(), 1);
        assert_eq!(p.proper_rules().count(), 1);
        assert_eq!(p.queries.len(), 1);
        let text = p.to_string();
        assert!(text.contains("a : b."));
        assert!(text.contains("?- X : c."));
    }
}
