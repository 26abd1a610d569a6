//! Lowering of flat programs to one-application PathLog rules.
//!
//! The primitive atoms the engine compiles every body to — a scalar
//! application, a set membership, a class membership — *are* flat F-logic
//! molecules, so a [`FlatProgram`] needs no evaluator of its own: it is
//! lowered to a core [`Program`] in which every literal is one flat molecule,
//! installed with [`Engine::load_program`] and answered with
//! [`Engine::query`], on the same planner as the direct semantics.
//!
//! * **Atoms.**  Each flat atom becomes one molecule `r[m@(a) -> v]`,
//!   `r[m@(a) ->> {v}]` or `r : c`; a flat rule with k head atoms becomes k
//!   rules sharing its lowered body.
//! * **Skolem terms.**  `f(t1, .., tk)` becomes the path
//!   `t1.f'@(t2, .., tk)` under the reserved method `f'`.  In a head the
//!   path is Section 6's virtual object, so the engine's head paths are the
//!   skolem table: one object per key, reused across firings.  The method is
//!   not the program's own `f`: `X[boss -> X.boss]` would hold trivially of
//!   a stored boss, where the function symbol `boss(X)` must clash with it.
//! * **Negated groups.**  A one-atom group whose variables the positive
//!   literals all bind becomes `not <molecule>`.  Any other group becomes an
//!   auxiliary rule (Lloyd–Topor) whose head carries the group's variables
//!   that the positive literals bind, and the literal negates that head; the
//!   engine's stratifier orders the two.
//! * **Queries** lower one to one; [`answers`] reads one back as the flat
//!   query is read, projected onto its answer variables.

use std::collections::BTreeSet;

use pathlog_core::engine::{AnswerRow, Engine};
use pathlog_core::error::Result;
use pathlog_core::names::{Name, Var};
use pathlog_core::program::{Literal, Program, Query, Rule};
use pathlog_core::semantics::Bindings;
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::{Filter, FilterValue, Term};

use crate::flat::{FlatAtom, FlatLiteral, FlatProgram, FlatTerm};

/// The reserved method name `f'` a skolem functor `f` lowers to.  The
/// PathLog lexer rejects `'`, so no program text can read or write it.
fn reserved(functor: &str) -> Name {
    Name::atom(format!("{functor}'"))
}

/// Lower a flat program to a core program of one-molecule literals (see the
/// module documentation); its queries are `flat`'s, in order.
pub fn lower(flat: &FlatProgram) -> Program {
    let mut lowering = Lowering::default();
    for rule in &flat.rules {
        let body = lowering.body(&rule.body);
        for atom in &rule.head {
            lowering.program.push_rule(Rule::new(molecule(atom), body.clone()));
        }
    }
    for query in &flat.queries {
        let body = lowering.body(&query.body);
        lowering.program.push_query(Query::new(body));
    }
    lowering.program
}

/// Answer a lowered query as its flat query is read: every answer projected
/// onto `answer_variables` (the PathLog query's own variables) and each
/// projection once, in ascending order of the projected objects.  The rows
/// are ordered and deduplicated by their object words; only the distinct
/// projections are built as [`Bindings`].
pub fn answers(
    engine: &Engine,
    structure: &Structure,
    query: &Query,
    answer_variables: &[Var],
) -> Result<Vec<Bindings>> {
    let answers = engine.query(structure, query)?;
    if answer_variables.is_empty() {
        return Ok(answers.iter().take(1).map(|_| Bindings::new()).collect());
    }
    // One word per answer variable: object id + 1, `0` unbound.  Every row
    // binds the same variables (one a negation reads only is unbound in
    // all), so word order is the order of the projections.
    let word = |row: &AnswerRow, v| row.get(v).map_or(0, |o| o.0 + 1);
    let words: Vec<u32> = answers
        .iter()
        .flat_map(|row| answer_variables.iter().map(move |v| word(&row, v)))
        .collect();
    let mut rows: Vec<&[u32]> = words.chunks_exact(answer_variables.len()).collect();
    rows.sort_unstable();
    rows.dedup();
    let bound = |row: &[u32]| {
        let pairs = answer_variables.iter().zip(row).filter(|(_, &w)| w != 0);
        Bindings::from_pairs(pairs.map(|(v, &w)| (v.clone(), Oid(w - 1)))).expect("distinct variables")
    };
    Ok(rows.into_iter().map(bound).collect())
}

#[derive(Default)]
struct Lowering {
    program: Program,
    negations: usize,
}

impl Lowering {
    fn body(&mut self, literals: &[FlatLiteral]) -> Vec<Literal> {
        let bound: BTreeSet<Var> = literals
            .iter()
            .flat_map(|literal| match literal {
                FlatLiteral::Pos(atom) => atom.variables(),
                FlatLiteral::NegGroup(_) => Vec::new(),
            })
            .collect();
        literals
            .iter()
            .map(|literal| match literal {
                FlatLiteral::Pos(atom) => Literal::pos(molecule(atom)),
                FlatLiteral::NegGroup(group) => Literal::neg(self.negation(group, &bound)),
            })
            .collect()
    }

    /// The molecule a negated group negates: the group's one atom, or the
    /// head of a new auxiliary rule `n[n@(V1, .., Vk) -> n] <- group` over
    /// the group's variables `V1..Vk` that `bound` holds.
    fn negation(&mut self, group: &[FlatAtom], bound: &BTreeSet<Var>) -> Term {
        let variables: BTreeSet<Var> = group.iter().flat_map(FlatAtom::variables).collect();
        if let ([atom], true) = (group, variables.is_subset(bound)) {
            return molecule(atom);
        }
        self.negations += 1;
        let name = Term::Name(reserved(&format!("not{}", self.negations)));
        let args = variables.intersection(bound).cloned().map(Term::Var).collect();
        let head = name.clone().filter(Filter::scalar(name.clone(), name).with_args(args));
        let body = group.iter().map(|atom| Literal::pos(molecule(atom))).collect();
        self.program.push_rule(Rule::new(head.clone(), body));
        head
    }
}

fn molecule(atom: &FlatAtom) -> Term {
    let filter = |method: &FlatTerm, args: &[FlatTerm], value| Filter {
        method: simple(method),
        args: args.iter().map(term).collect(),
        value,
    };
    match atom {
        FlatAtom::Scalar {
            receiver,
            method,
            args,
            result,
        } => term(receiver).filter(filter(method, args, FilterValue::Scalar(term(result)))),
        FlatAtom::SetMember {
            receiver,
            method,
            args,
            member,
        } => term(receiver).filter(filter(method, args, FilterValue::SetExplicit(vec![term(member)]))),
        FlatAtom::IsA { receiver, class } => term(receiver).isa(simple(class)),
    }
}

fn term(t: &FlatTerm) -> Term {
    match t {
        FlatTerm::Name(n) => Term::Name(n.clone()),
        FlatTerm::Var(v) => Term::Var(v.clone()),
        FlatTerm::Skolem(sk) => {
            let method = Term::Name(reserved(&sk.functor));
            match sk.args.split_first() {
                // A nullary function symbol is a constant.
                None => method,
                Some((receiver, args)) => term(receiver).scalar_args(method, args.iter().map(term).collect()),
            }
        }
    }
}

/// A method or class position takes a simple reference: a skolem path there
/// is parenthesised (`X[(M.tc') ->> {Y}]`).
fn simple(t: &FlatTerm) -> Term {
    match term(t) {
        t if t.is_simple() => t,
        t => t.paren(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatRule;
    use crate::translate::Translator;
    use pathlog_core::engine::{EvalOptions, EvalStats};
    use pathlog_core::error::{Error, LimitKind};

    const COMPANY: &str = "mary : employee[age -> 30; vehicles ->> {a1}]. john : employee[vehicles ->> {v1}].
                           a1 : automobile[color -> red]. v1[color -> blue].\n";

    /// Translate and lower `text`, load it over `base` with `engine` and
    /// count each query's projected answers.
    fn run(engine: &Engine, base: &Structure, text: &str) -> Result<(Structure, EvalStats, Vec<usize>)> {
        let program = pathlog_parser::parse_program(text).expect("program parses");
        let (flat, _) = Translator::new().program(&program).expect("program translates");
        let lowered = lower(&flat);
        let mut structure = base.clone();
        let stats = engine.load_program(&mut structure, &lowered)?;
        let counts = lowered.queries.iter().zip(&flat.queries);
        let counts = counts.map(|(q, f)| Ok(answers(engine, &structure, q, &f.answer_variables)?.len()));
        let counts = counts.collect::<Result<_>>()?;
        Ok((structure, stats, counts))
    }

    fn counts(text: &str) -> Vec<usize> {
        run(&Engine::new(), &Structure::new(), &format!("{COMPANY}{text}"))
            .unwrap()
            .2
    }

    #[test]
    fn each_atom_kind_and_built_in_answers_through_the_engine() {
        let queries = [
            ("?- X : employee.", 2),
            ("?- mary : employee.", 1),
            ("?- a1 : employee.", 0),
            ("?- V[color -> C].", 2),
            ("?- a1[color -> red].", 1),
            ("?- a1[color -> blue].", 0),
            ("?- nobody[color -> C].", 0),
            ("?- mary[vehicles ->> {V}].", 1),
            ("?- X[vehicles ->> {V}].", 2),
            ("?- X : employee..vehicles[color -> C].", 2),
            ("?- mary[self -> Z].", 1),
            ("?- mary[age -> A], A.lt@(40).", 1),
            ("?- mary[age -> A], A.ge@(40).", 0),
            // One (X, vehicle) solution each, projected onto X alone.
            ("?- X : employee..vehicles.", 2),
        ];
        for (query, expected) in queries {
            assert_eq!(counts(query), [expected], "{query}");
        }
    }

    #[test]
    fn negated_groups_lower_to_a_literal_or_an_auxiliary_rule() {
        for (query, auxiliary) in [
            ("?- X : employee, not X[age -> 30].", 0),
            ("?- X : employee, not X.age.", 1),
            ("?- X : employee, not X..vehicles[color -> red].", 1),
        ] {
            let program = pathlog_parser::parse_program(query).unwrap();
            let (flat, _) = Translator::new().program(&program).unwrap();
            assert_eq!(lower(&flat).rules.len(), auxiliary, "{query}");
            assert_eq!(counts(query), [1], "only john: {query}");
        }
    }

    #[test]
    fn a_skolem_key_names_one_object_across_head_atoms_and_firings() {
        let engine = Engine::new();
        let rule = "X.address[owner -> X] <- X : employee.";
        let (once, stats, _) = run(&engine, &Structure::new(), &format!("{COMPANY}{rule}")).unwrap();
        assert_eq!(stats.virtual_objects, 2);
        assert_eq!(run(&engine, &once, rule).unwrap().1.virtual_objects, 0);
    }

    #[test]
    fn a_skolem_object_is_distinct_from_the_programs_own_method() {
        // X[mentor -> boss(X)] <- X[boss -> B], beside a stored boss.
        let x = || FlatTerm::var("X");
        let head = FlatAtom::scalar(x(), FlatTerm::name("mentor"), FlatTerm::skolem("boss", vec![x()]));
        let body = FlatAtom::scalar(x(), FlatTerm::name("boss"), FlatTerm::var("B"));
        let program = pathlog_parser::parse_program("p1[boss -> b1].").unwrap();
        let (mut flat, _) = Translator::new().program(&program).unwrap();
        flat.rules.push(FlatRule::new(vec![head], vec![FlatLiteral::Pos(body)]));
        let mut s = Structure::new();
        Engine::new().load_program(&mut s, &lower(&flat)).unwrap();
        let oid = |n: &str| s.lookup_name(&Name::atom(n)).unwrap();
        let mentor = s.apply_scalar(oid("mentor"), oid("p1"), &[]).unwrap();
        assert!(s.is_virtual(mentor) && mentor != oid("b1"));
        assert!(pathlog_parser::parse_program("?- X.boss'.").is_err());
    }

    #[test]
    fn conflicting_heads_unbound_head_variables_and_limits_are_engine_errors() {
        let err = run(&Engine::new(), &Structure::new(), &format!("{COMPANY}mary[age -> 31].")).unwrap_err();
        assert!(err.to_string().contains("conflicting scalar results"), "{err}");
        let unbound = "X[a -> Unbound] <- X[age -> A].";
        let err = run(&Engine::new(), &Structure::new(), unbound).unwrap_err();
        assert!(matches!(err, Error::InvalidRule(_)), "{err}");
        let engine = Engine::with_options(EvalOptions {
            max_derived: 0,
            ..EvalOptions::default()
        });
        let err = run(&engine, &Structure::new(), "a[kids ->> {b}].").unwrap_err();
        assert!(
            matches!(
                err,
                Error::LimitExceeded {
                    kind: LimitKind::DerivedFacts,
                    ..
                }
            ),
            "{err}"
        );
    }
}
