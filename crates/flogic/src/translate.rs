//! Translation of PathLog references, rules and queries into flat molecules.
//!
//! The translation follows the reduction the paper attributes to XSQL
//! (Section 2): every path step becomes one flat atom.  In *bodies* the
//! intermediate objects are named by fresh auxiliary variables (`_P1`,
//! `_P2`, ...); in *rule heads* they are named by skolem function terms —
//! the F-logic device (`address(X)`, `EmployeeBoss(p1)`) that PathLog's
//! method-based virtual objects render unnecessary.
//!
//! Two constructs cannot be expressed in the flat fragment and are rejected
//! with [`FlogicError::Untranslatable`]:
//!
//! * a set-valued reference as the right-hand side of a `->>` filter in a
//!   *body* (`... <- X[friends ->> p1..assistants]`) — this is the
//!   set-at-a-time comparison for which the paper requires stratification;
//! * signature declarations (`=>`, `=>>`) — a typing extension of this
//!   repository, outside the data fragment.

use pathlog_core::names::Var;
use pathlog_core::program::{Literal, Program, Query, Rule};
use pathlog_core::term::{Filter, FilterValue, Term};

use crate::error::{FlogicError, Result};
use crate::flat::{FlatAtom, FlatLiteral, FlatProgram, FlatQuery, FlatRule, FlatTerm};

/// Summary counters of one translation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TranslationStats {
    /// PathLog rules translated.
    pub rules: usize,
    /// PathLog queries translated.
    pub queries: usize,
    /// Flat atoms produced (head + body + query).
    pub flat_atoms: usize,
    /// Auxiliary variables introduced for path steps in bodies.
    pub aux_variables: usize,
    /// Skolem terms introduced for path steps in heads.
    pub skolem_terms: usize,
}

/// The flattening of one PathLog reference in body position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// The flat term denoting the objects the reference denotes.
    pub result: FlatTerm,
    /// The conjunction of flat atoms that constrains it.
    pub atoms: Vec<FlatAtom>,
}

impl Translation {
    /// Number of flat atoms the single reference expanded into.
    pub fn conjuncts(&self) -> usize {
        self.atoms.len()
    }
}

/// Stateful translator (generates fresh auxiliary variables).
#[derive(Debug, Default, Clone)]
pub struct Translator {
    counter: usize,
    skolems: usize,
}

impl Translator {
    /// A fresh translator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of auxiliary variables generated so far.
    pub fn aux_variables(&self) -> usize {
        self.counter
    }

    /// Number of skolem terms generated so far.
    pub fn skolem_terms(&self) -> usize {
        self.skolems
    }

    fn fresh(&mut self) -> FlatTerm {
        self.counter += 1;
        FlatTerm::Var(Var::new(format!("_P{}", self.counter)))
    }

    /// Translate a reference in body position.
    pub fn reference(&mut self, term: &Term) -> Result<Translation> {
        let mut atoms = Vec::new();
        let result = self.body_term(term, &mut atoms)?;
        Ok(Translation { result, atoms })
    }

    /// Translate a body literal.  A positive literal contributes its atoms as
    /// positive literals; a negated literal contributes one negated group.
    pub fn literal(&mut self, literal: &Literal) -> Result<Vec<FlatLiteral>> {
        let translation = self.reference(&literal.term)?;
        if literal.positive {
            Ok(translation.atoms.into_iter().map(FlatLiteral::Pos).collect())
        } else if translation.atoms.is_empty() {
            Err(FlogicError::Untranslatable(format!(
                "negated simple reference `{}` carries no atom to negate",
                literal.term
            )))
        } else {
            Ok(vec![FlatLiteral::NegGroup(translation.atoms)])
        }
    }

    /// Translate a rule.  Head paths become skolem terms; head filter values
    /// that are themselves paths become body look-ups.
    pub fn rule(&mut self, rule: &Rule) -> Result<FlatRule> {
        let mut body = Vec::new();
        for literal in &rule.body {
            body.extend(self.literal(literal)?);
        }
        let mut head_atoms = Vec::new();
        let mut extra_body = Vec::new();
        self.head_term(&rule.head, &mut head_atoms, &mut extra_body)?;
        if head_atoms.is_empty() {
            return Err(FlogicError::InvalidHead(format!(
                "head `{}` asserts nothing (a bare name or variable cannot be a head)",
                rule.head
            )));
        }
        body.extend(extra_body.into_iter().map(FlatLiteral::Pos));
        Ok(FlatRule { head: head_atoms, body })
    }

    /// Translate a query.
    pub fn query(&mut self, query: &Query) -> Result<FlatQuery> {
        let mut body = Vec::new();
        for literal in &query.body {
            body.extend(self.literal(literal)?);
        }
        Ok(FlatQuery {
            body,
            answer_variables: query.variables(),
        })
    }

    /// Translate a whole program and report counters.
    pub fn program(&mut self, program: &Program) -> Result<(FlatProgram, TranslationStats)> {
        let mut flat = FlatProgram::new();
        for rule in &program.rules {
            flat.rules.push(self.rule(rule)?);
        }
        for query in &program.queries {
            flat.queries.push(self.query(query)?);
        }
        let stats = TranslationStats {
            rules: flat.rules.len(),
            queries: flat.queries.len(),
            flat_atoms: flat.atom_count(),
            aux_variables: self.counter,
            skolem_terms: self.skolems,
        };
        Ok((flat, stats))
    }

    // ------------------------------------------------------------------ body

    fn body_term(&mut self, term: &Term, atoms: &mut Vec<FlatAtom>) -> Result<FlatTerm> {
        match term {
            Term::Name(n) => Ok(FlatTerm::Name(n.clone())),
            Term::Var(v) => Ok(FlatTerm::Var(v.clone())),
            Term::Paren(t) => self.body_term(t, atoms),
            Term::Path(p) => {
                let receiver = self.body_term(&p.receiver, atoms)?;
                let method = self.body_term(&p.method, atoms)?;
                let args = p
                    .args
                    .iter()
                    .map(|a| self.body_term(a, atoms))
                    .collect::<Result<Vec<_>>>()?;
                let result = self.fresh();
                if p.set_valued {
                    atoms.push(FlatAtom::SetMember {
                        receiver,
                        method,
                        args,
                        member: result.clone(),
                    });
                } else {
                    atoms.push(FlatAtom::Scalar {
                        receiver,
                        method,
                        args,
                        result: result.clone(),
                    });
                }
                Ok(result)
            }
            Term::IsA(i) => {
                let receiver = self.body_term(&i.receiver, atoms)?;
                let class = self.body_term(&i.class, atoms)?;
                atoms.push(FlatAtom::IsA {
                    receiver: receiver.clone(),
                    class,
                });
                Ok(receiver)
            }
            Term::Molecule(m) => {
                let receiver = self.body_term(&m.receiver, atoms)?;
                for filter in &m.filters {
                    self.body_filter(&receiver, filter, atoms)?;
                }
                Ok(receiver)
            }
        }
    }

    fn body_filter(&mut self, receiver: &FlatTerm, filter: &Filter, atoms: &mut Vec<FlatAtom>) -> Result<()> {
        let method = self.body_term(&filter.method, atoms)?;
        let args = filter
            .args
            .iter()
            .map(|a| self.body_term(a, atoms))
            .collect::<Result<Vec<_>>>()?;
        match &filter.value {
            FilterValue::Scalar(t) => {
                let value = self.body_term(t, atoms)?;
                atoms.push(FlatAtom::Scalar {
                    receiver: receiver.clone(),
                    method,
                    args,
                    result: value,
                });
            }
            FilterValue::SetExplicit(ts) => {
                for t in ts {
                    let value = self.body_term(t, atoms)?;
                    atoms.push(FlatAtom::SetMember {
                        receiver: receiver.clone(),
                        method: method.clone(),
                        args: args.clone(),
                        member: value,
                    });
                }
            }
            FilterValue::SetRef(t) => {
                return Err(FlogicError::Untranslatable(format!(
                    "set-valued reference `{t}` as the value of a `->>` filter needs a set-at-a-time \
                     comparison; the flat fragment has none (the paper handles this case with \
                     stratification in the direct semantics)"
                )));
            }
            FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {
                return Err(FlogicError::Untranslatable(
                    "signature declarations are a typing extension outside the flat data fragment".into(),
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------ head

    /// Translate a head reference.  Returns the flat term denoting the object
    /// the head describes; pushes head atoms and (for filter-value look-ups)
    /// extra body atoms.
    fn head_term(&mut self, term: &Term, head: &mut Vec<FlatAtom>, body: &mut Vec<FlatAtom>) -> Result<FlatTerm> {
        match term {
            Term::Name(n) => Ok(FlatTerm::Name(n.clone())),
            Term::Var(v) => Ok(FlatTerm::Var(v.clone())),
            Term::Paren(t) => self.head_term(t, head, body),
            Term::Path(p) => {
                if p.set_valued {
                    return Err(FlogicError::InvalidHead(format!(
                        "set-valued path `{term}` cannot be asserted in a rule head"
                    )));
                }
                let receiver = self.head_term(&p.receiver, head, body)?;
                let method = self.head_term(&p.method, head, body)?;
                let args = p
                    .args
                    .iter()
                    .map(|a| self.body_term(a, body))
                    .collect::<Result<Vec<_>>>()?;
                let skolem = self.skolemize(&method, &receiver, &args);
                head.push(FlatAtom::Scalar {
                    receiver,
                    method,
                    args,
                    result: skolem.clone(),
                });
                Ok(skolem)
            }
            Term::IsA(i) => {
                let receiver = self.head_term(&i.receiver, head, body)?;
                let class = self.head_term(&i.class, head, body)?;
                head.push(FlatAtom::IsA {
                    receiver: receiver.clone(),
                    class,
                });
                Ok(receiver)
            }
            Term::Molecule(m) => {
                let receiver = self.head_term(&m.receiver, head, body)?;
                for filter in &m.filters {
                    self.head_filter(&receiver, filter, head, body)?;
                }
                Ok(receiver)
            }
        }
    }

    fn head_filter(
        &mut self,
        receiver: &FlatTerm,
        filter: &Filter,
        head: &mut Vec<FlatAtom>,
        body: &mut Vec<FlatAtom>,
    ) -> Result<()> {
        let method = self.head_term(&filter.method, head, body)?;
        let args = filter
            .args
            .iter()
            .map(|a| self.body_term(a, body))
            .collect::<Result<Vec<_>>>()?;
        match &filter.value {
            FilterValue::Scalar(t) => {
                let value = self.head_value(t, body)?;
                head.push(FlatAtom::Scalar {
                    receiver: receiver.clone(),
                    method,
                    args,
                    result: value,
                });
            }
            FilterValue::SetExplicit(ts) => {
                for t in ts {
                    let value = self.head_value(t, body)?;
                    head.push(FlatAtom::SetMember {
                        receiver: receiver.clone(),
                        method: method.clone(),
                        args: args.clone(),
                        member: value,
                    });
                }
            }
            FilterValue::SetRef(t) => {
                // `p2[friends ->> p1..assistants].`  —  every object the inner
                // reference denotes becomes a member; the inner reference is a
                // body look-up whose auxiliary result variable appears in the
                // head (formula (4.4)).
                let member = self.body_term(t, body)?;
                head.push(FlatAtom::SetMember {
                    receiver: receiver.clone(),
                    method,
                    args,
                    member,
                });
            }
            FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {
                return Err(FlogicError::Untranslatable(
                    "signature declarations are a typing extension outside the flat data fragment".into(),
                ));
            }
        }
        Ok(())
    }

    /// A filter *value* inside a head is a look-up, not a definition: names
    /// and variables pass through, anything composite is translated in body
    /// mode (`street -> X.street` reads the existing street).
    fn head_value(&mut self, term: &Term, body: &mut Vec<FlatAtom>) -> Result<FlatTerm> {
        match term {
            Term::Name(n) => Ok(FlatTerm::Name(n.clone())),
            Term::Var(v) => Ok(FlatTerm::Var(v.clone())),
            Term::Paren(t) => self.head_value(t, body),
            _ => self.body_term(term, body),
        }
    }

    /// The skolem term naming the object a head path denotes: `m(t0, a1..ak)`
    /// when the method is a name, `apply(m, t0, a1..ak)` when the method is
    /// itself a complex term (HiLog-style, needed e.g. for `(M.tc)`).
    fn skolemize(&mut self, method: &FlatTerm, receiver: &FlatTerm, args: &[FlatTerm]) -> FlatTerm {
        self.skolems += 1;
        let mut sk_args = Vec::with_capacity(args.len() + 2);
        let functor = match method {
            FlatTerm::Name(n) => n.to_string(),
            other => {
                sk_args.push(other.clone());
                "apply".to_string()
            }
        };
        sk_args.push(receiver.clone());
        sk_args.extend(args.iter().cloned());
        FlatTerm::skolem(functor, sk_args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlog_core::program::{Literal, Program, Query, Rule};

    fn name(s: &str) -> Term {
        Term::name(s)
    }

    #[test]
    fn simple_references_translate_to_themselves() {
        let mut tr = Translator::new();
        let t = tr.reference(&name("mary")).unwrap();
        assert_eq!(t.result, FlatTerm::name("mary"));
        assert!(t.atoms.is_empty());
        let t = tr.reference(&Term::var("X")).unwrap();
        assert_eq!(t.result, FlatTerm::var("X"));
        assert!(t.atoms.is_empty());
    }

    #[test]
    fn a_path_step_becomes_one_atom_with_an_aux_variable() {
        let mut tr = Translator::new();
        let t = tr.reference(&name("mary").scalar("spouse")).unwrap();
        assert_eq!(t.conjuncts(), 1);
        assert_eq!(t.atoms[0].to_string(), "mary[spouse -> _P1]");
        assert_eq!(t.result, FlatTerm::var("_P1"));
    }

    #[test]
    fn nested_reference_expands_into_a_conjunction() {
        // mary.spouse[boss -> mary].age — 3 atoms.
        let mut tr = Translator::new();
        let reference = name("mary")
            .scalar("spouse")
            .filter(Filter::scalar("boss", name("mary")))
            .scalar("age");
        let t = tr.reference(&reference).unwrap();
        assert_eq!(t.conjuncts(), 3);
        assert_eq!(t.atoms[0].to_string(), "mary[spouse -> _P1]");
        assert_eq!(t.atoms[1].to_string(), "_P1[boss -> mary]");
        assert_eq!(t.atoms[2].to_string(), "_P1[age -> _P2]");
    }

    #[test]
    fn the_paper_2_1_reference_expands_into_six_atoms() {
        // X:employee[age->30; city->newYork]..vehicles:automobile[cylinders->4].color[Z]
        let reference = Term::var("X")
            .isa("employee")
            .filters(vec![
                Filter::scalar("age", Term::int(30)),
                Filter::scalar("city", name("newYork")),
            ])
            .set("vehicles")
            .isa("automobile")
            .filter(Filter::scalar("cylinders", Term::int(4)))
            .scalar("color")
            .selector(Term::var("Z"));
        let mut tr = Translator::new();
        let t = tr.reference(&reference).unwrap();
        // isa(X, employee), age, city, vehicles-member, isa(automobile),
        // cylinders, color, self-selector = 8 atoms.
        assert_eq!(t.conjuncts(), 8);
        let rendered: Vec<String> = t.atoms.iter().map(|a| a.to_string()).collect();
        assert!(rendered.contains(&"X : employee".to_string()));
        assert!(rendered.contains(&"X[age -> 30]".to_string()));
        assert!(rendered.iter().any(|a| a.contains("[vehicles ->> {")));
        assert!(rendered.iter().any(|a| a.contains("[cylinders -> 4]")));
        assert!(rendered.iter().any(|a| a.contains("[self -> Z]")));
    }

    #[test]
    fn set_ref_filters_in_bodies_are_untranslatable() {
        // ... <- X[friends ->> p1..assistants]
        let body_term = Term::var("X").filter(Filter::set_ref("friends", name("p1").set("assistants")));
        let rule = Rule::new(Term::var("X").isa("popular"), vec![Literal::pos(body_term)]);
        let err = Translator::new().rule(&rule).unwrap_err();
        assert!(matches!(err, FlogicError::Untranslatable(_)));
    }

    #[test]
    fn signatures_are_untranslatable() {
        let sig = Term::name("person").filter(Filter {
            method: name("age"),
            args: vec![],
            value: FilterValue::SigScalar(vec![name("integer")]),
        });
        let err = Translator::new().reference(&sig).unwrap_err();
        assert!(matches!(err, FlogicError::Untranslatable(_)));
    }

    #[test]
    fn head_paths_become_skolem_terms() {
        // X.address[street -> X.street; city -> X.city] <- X : person.
        let head = Term::var("X").scalar("address").filters(vec![
            Filter::scalar("street", Term::var("X").scalar("street")),
            Filter::scalar("city", Term::var("X").scalar("city")),
        ]);
        let rule = Rule::new(head, vec![Literal::pos(Term::var("X").isa("person"))]);
        let flat = Translator::new().rule(&rule).unwrap();
        // head: X[address -> address(X)], address(X)[street -> _], address(X)[city -> _]
        assert_eq!(flat.head.len(), 3);
        assert_eq!(flat.head[0].to_string(), "X[address -> address(X)]");
        assert!(flat.head[1].to_string().starts_with("address(X)[street -> "));
        // body: X : person plus the two look-ups for X.street / X.city.
        assert_eq!(flat.body.len(), 3);
    }

    #[test]
    fn head_set_filters_with_set_ref_move_the_member_into_the_body() {
        // p2[friends ->> p1..assistants].
        let head = name("p2").filter(Filter::set_ref("friends", name("p1").set("assistants")));
        let rule = Rule::fact(head);
        let flat = Translator::new().rule(&rule).unwrap();
        assert_eq!(flat.head.len(), 1);
        assert!(flat.head[0].to_string().starts_with("p2[friends ->> {"));
        assert_eq!(flat.body.len(), 1);
        assert!(flat.body[0].to_string().starts_with("p1[assistants ->> {"));
    }

    #[test]
    fn generic_tc_head_uses_an_apply_skolem() {
        // X[(M.tc) ->> {Y}] <- X[M ->> {Y}].
        let head = Term::var("X").filter(Filter::set(Term::var("M").scalar("tc").paren(), vec![Term::var("Y")]));
        let body = Term::var("X").filter(Filter::set(Term::var("M"), vec![Term::var("Y")]));
        let rule = Rule::new(head, vec![Literal::pos(body)]);
        let flat = Translator::new().rule(&rule).unwrap();
        // The method position `(M.tc)` is itself a head path: the skolem is
        // tc(M), linked by a head atom M[tc -> tc(M)].
        let rendered: Vec<String> = flat.head.iter().map(|a| a.to_string()).collect();
        assert!(
            rendered.contains(&"M[tc -> tc(M)]".to_string()),
            "head was {rendered:?}"
        );
        assert!(
            rendered.contains(&"X[tc(M) ->> {Y}]".to_string()),
            "head was {rendered:?}"
        );
    }

    #[test]
    fn negated_literals_become_negated_groups() {
        let rule = Rule::new(
            Term::var("X").isa("bachelor"),
            vec![
                Literal::pos(Term::var("X").isa("person")),
                Literal::neg(Term::var("X").scalar("spouse")),
            ],
        );
        let flat = Translator::new().rule(&rule).unwrap();
        assert_eq!(flat.body.len(), 2);
        assert!(matches!(flat.body[1], FlatLiteral::NegGroup(_)));
    }

    #[test]
    fn negating_a_bare_name_is_rejected() {
        let err = Translator::new().literal(&Literal::neg(name("mary"))).unwrap_err();
        assert!(matches!(err, FlogicError::Untranslatable(_)));
    }

    #[test]
    fn bare_variable_heads_are_rejected() {
        let rule = Rule::new(Term::var("X"), vec![Literal::pos(Term::var("X").isa("person"))]);
        let err = Translator::new().rule(&rule).unwrap_err();
        assert!(matches!(err, FlogicError::InvalidHead(_)));
    }

    #[test]
    fn set_valued_head_paths_are_rejected() {
        let rule = Rule::new(
            Term::var("X").set("kids"),
            vec![Literal::pos(Term::var("X").isa("person"))],
        );
        let err = Translator::new().rule(&rule).unwrap_err();
        assert!(matches!(err, FlogicError::InvalidHead(_)));
    }

    #[test]
    fn program_translation_reports_stats() {
        let mut program = Program::new();
        program.push_rule(Rule::fact(name("p1").isa("employee")));
        program.push_rule(Rule::new(
            Term::var("X")
                .scalar("boss")
                .filter(Filter::scalar("worksFor", Term::var("D"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("employee")
                    .filter(Filter::scalar("worksFor", Term::var("D"))),
            )],
        ));
        program.push_query(Query::single(Term::var("X").isa("employee")));
        let (flat, stats) = Translator::new().program(&program).unwrap();
        assert_eq!(stats.rules, 2);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.skolem_terms, 1);
        assert_eq!(stats.flat_atoms, flat.atom_count());
        assert!(stats.flat_atoms >= 5);
    }

    #[test]
    fn query_answer_variables_exclude_aux_variables() {
        let q = Query::single(
            Term::var("X")
                .isa("employee")
                .set("vehicles")
                .scalar("color")
                .selector(Term::var("Z")),
        );
        let flat = Translator::new().query(&q).unwrap();
        assert_eq!(flat.answer_variables, vec![Var::new("X"), Var::new("Z")]);
        assert!(flat.atom_count() >= 3);
    }

    #[test]
    fn method_arguments_are_translated_in_paths() {
        // john.salary@(1994)
        let reference = name("john").scalar_args("salary", vec![Term::int(1994)]);
        let t = Translator::new().reference(&reference).unwrap();
        assert_eq!(t.atoms[0].to_string(), "john[salary@(1994) -> _P1]");
    }

    #[test]
    fn translation_struct_counts_conjuncts() {
        let t = Translation {
            result: FlatTerm::name("x"),
            atoms: vec![],
        };
        assert_eq!(t.conjuncts(), 0);
    }
}
