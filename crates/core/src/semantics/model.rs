//! Model checking and the reference fixpoint (Section 6 of the paper).
//!
//! The engine computes the *least model* of a program: for every rule and
//! every variable-valuation that satisfies the body, the head is entailed
//! (Definition 5).  The tests hold it to two references written from the
//! definitions: [`is_model`] checks that property of any structure, and
//! [`fixpoint`] computes the least fixpoint the plain way.

use crate::engine::{assert_head, binding_key, stratify, EvalOptions, EvalStats};
use crate::error::{Error, LimitKind, Result};
use crate::program::{validate_program, Program, Query, Rule};
use crate::semantics::{entails, solve_body, Bindings};
use crate::structure::{NameCache, Structure};
use crate::term::Term;

/// Load `program` into `structure` by the least-fixpoint definition of
/// Section 6: the reference that
/// [`Engine::load_program`](crate::engine::Engine::load_program) is tested
/// against.
///
/// It validates the program, registers its names the way `load_program`
/// does and stratifies it.  Each stratum then runs Jacobi iterations until
/// one adds nothing: every rule is solved in full by [`solve_body`] against
/// the structure as it stood at the iteration boundary, and then its head
/// asserted ([`assert_head`]) statement by statement in source order, each
/// rule's solutions in canonical [`binding_key`] order, a fact (one empty
/// solution) in the first iteration only.  That is the engine's commit
/// order, so the two mint the same virtual objects under the same ids.
///
/// The limits of `options` apply as in the engine: a limit fails at the
/// same fact, with the same count observed.  Of the
/// scheduling counters only `strata` and `iterations` are reported.
pub fn fixpoint(structure: &mut Structure, program: &Program, options: &EvalOptions) -> Result<EvalStats> {
    let infos = validate_program(program)?;
    register_program_names(structure, &program.rules, &program.queries);
    let stratification = stratify(&infos)?;
    let mut stats = EvalStats {
        strata: stratification.len(),
        ..EvalStats::default()
    };
    for stratum in &stratification.strata {
        for iteration in 1.. {
            stats.iterations += 1;
            if iteration > options.max_iterations {
                return Err(Error::LimitExceeded {
                    kind: LimitKind::Iterations,
                    limit: options.max_iterations,
                    observed: iteration,
                });
            }
            let mut solved: Vec<(&Rule, Vec<Bindings>)> = Vec::new();
            for rule in stratum.iter().map(|&i| &program.rules[i]) {
                if iteration == 1 || !rule.is_fact() {
                    let mut solutions = solve_body(structure, &rule.body, &Bindings::new())?;
                    solutions.sort_by_cached_key(binding_key);
                    solved.push((rule, solutions));
                }
            }
            let mut changed = false;
            for (rule, solutions) in solved {
                for bindings in &solutions {
                    let (_, effect) = assert_head(structure, &rule.head, bindings)?;
                    if effect.changed() {
                        changed = true;
                        stats.firings += 1;
                        stats.absorb(effect);
                    }
                    if stats.derived() > options.max_derived {
                        return Err(Error::LimitExceeded {
                            kind: LimitKind::DerivedFacts,
                            limit: options.max_derived,
                            observed: stats.derived(),
                        });
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(stats)
}

/// Register every name occurring in `term`, in [`Term::visit`] pre-order,
/// making `I_N` total over the program's alphabet; each distinct name goes
/// through the install's `names` once.
pub(crate) fn register_names<'n>(names: &mut NameCache<'_, 'n>, term: &'n Term) {
    term.visit(&mut |t| {
        if let Term::Name(n) = t {
            names.resolve(n);
        }
    });
}

/// Register every name of a program's rules and then its queries, statement
/// by statement — per rule its head, then its body (object ids follow first
/// registration, so the order is part of the model's identity).  The
/// engine registers in the same order as it lowers the heads.
pub(crate) fn register_program_names(structure: &mut Structure, rules: &[Rule], queries: &[Query]) {
    let mut names = NameCache::new(structure);
    for rule in rules {
        register_names(&mut names, &rule.head);
        for lit in &rule.body {
            register_names(&mut names, &lit.term);
        }
    }
    for lit in queries.iter().flat_map(|q| &q.body) {
        register_names(&mut names, &lit.term);
    }
}

/// A witness that a rule is violated: the offending rule and a body
/// valuation under which the head is not entailed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated rule in the program.
    pub rule_index: usize,
    /// The rule itself, rendered in concrete syntax.
    pub rule: String,
    /// The variable-valuation satisfying the body but not the head.
    pub bindings: Bindings,
}

/// Check whether `structure` is a model of `rule`: every valuation that
/// satisfies the body must entail the head.  Returns the first
/// counter-example, if any.
pub fn check_rule(structure: &Structure, rule_index: usize, rule: &Rule) -> Result<Option<Violation>> {
    let solutions = solve_body(structure, &rule.body, &Bindings::new())?;
    for bindings in solutions {
        if !entails(structure, &rule.head, &bindings)? {
            return Ok(Some(Violation {
                rule_index,
                rule: rule.to_string(),
                bindings,
            }));
        }
    }
    Ok(None)
}

/// Check whether `structure` is a model of every rule of `program`,
/// collecting all violations (one witness per violated rule).
pub fn violations(structure: &Structure, program: &Program) -> Result<Vec<Violation>> {
    let mut out = Vec::new();
    for (i, rule) in program.rules.iter().enumerate() {
        if let Some(v) = check_rule(structure, i, rule)? {
            out.push(v);
        }
    }
    Ok(out)
}

/// `true` iff `structure` is a model of `program`.
pub fn is_model(structure: &Structure, program: &Program) -> Result<bool> {
    Ok(violations(structure, program)?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::program::{Literal, Rule};
    use crate::term::{Filter, Term};

    fn desc_program() -> Program {
        let mut p = Program::new();
        p.push_rule(Rule::fact(
            Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim"), Term::name("mary")])),
        ));
        p.push_rule(Rule::fact(
            Term::name("tim").filter(Filter::set("kids", vec![Term::name("sally")])),
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
        p
    }

    #[test]
    fn fixpoint_of_the_engine_is_a_model() {
        let program = desc_program();
        let mut s = Structure::new();
        Engine::new().load_program(&mut s, &program).unwrap();
        assert!(is_model(&s, &program).unwrap());
        assert!(violations(&s, &program).unwrap().is_empty());
    }

    #[test]
    fn missing_derived_facts_are_detected() {
        let program = desc_program();
        // Evaluate only the facts, not the rules: the result satisfies the
        // facts but violates the desc rules.
        let facts: Vec<Rule> = program.facts().cloned().collect();
        let mut s = Structure::new();
        Engine::new().run_rules(&mut s, &facts).unwrap();
        // register the rule names so entailment of the heads can be evaluated
        let vs = violations(&s, &program).unwrap();
        assert!(!vs.is_empty());
        assert!(vs.iter().all(|v| v.rule.contains("desc")));
        assert!(!is_model(&s, &program).unwrap());
    }

    #[test]
    fn an_unrelated_structure_violates_the_facts_too() {
        let program = desc_program();
        let s = Structure::new();
        let vs = violations(&s, &program).unwrap();
        // every fact (empty body, one empty valuation) is violated
        assert!(vs.len() >= 2);
        assert_eq!(vs[0].bindings.len(), 0);
    }

    #[test]
    fn violation_reports_the_offending_valuation() {
        // X : adult <- X[age -> 30].   with a fact but no rule evaluation
        let mut program = Program::new();
        program.push_rule(Rule::fact(
            Term::name("mary").filter(Filter::scalar("age", Term::int(30))),
        ));
        program.push_rule(Rule::new(
            Term::var("X").isa("adult"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("age", Term::int(30))),
            )],
        ));
        let facts: Vec<Rule> = program.facts().cloned().collect();
        let mut s = Structure::new();
        Engine::new().run_rules(&mut s, &facts).unwrap();
        let vs = violations(&s, &program).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule_index, 1);
        let mary = s.lookup_name(&crate::names::Name::atom("mary")).unwrap();
        assert_eq!(vs[0].bindings.get(&crate::names::Var::new("X")), Some(mary));
    }
}
