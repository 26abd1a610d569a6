//! Bottom-up evaluation of PathLog programs (Section 6 of the paper).
//!
//! The engine validates a program, stratifies its rules (see [`stratify`]),
//! and then computes the least fixpoint stratum by stratum: in each
//! iteration every (relevant) rule's body is solved against the current
//! structure and its head asserted for every solution, creating virtual
//! objects for undefined head paths (see the `virtuals` module).  Iteration
//! stops when no rule adds new information.
//!
//! A **fact** — "a ground reference asserted directly" — is data, not a rule
//! with an empty body to schedule: it is asserted once, with empty bindings,
//! when its stratum's first iteration commits, and no later iteration looks
//! at it (no solve, no delta test, no plan).  It commits *at its
//! source-order position among the stratum's statements*, between the rules
//! written before and after it, because the order of asserts is the order in
//! which names resolve to objects and undefined head paths become virtual
//! objects: object ids, and with them `canonical_dump()`, depend on it.
//!
//! The fixpoint is computed **semi-naively** at the granularity of body
//! literals.  The engine captures watermarks
//! ([`EvalMarks`](crate::semantics::EvalMarks)) of the structure at every
//! iteration boundary; the facts between two consecutive watermarks — new
//! scalar results, set members, is-a closure pairs, objects and signatures —
//! form the iteration's *delta* ([`DeltaView`](crate::semantics::DeltaView),
//! an O(delta) slice of the fact-store insertion logs).  A rule whose read
//! set intersects the changed dependency keys is then solved once per
//! affected body literal, with that literal restricted to solutions whose
//! derivation reads the delta (the window-restricted atom steps of
//! [`crate::plan::atoms`]) while the remaining literals join against the
//! full structure.  Any firing that could add new information reads at least
//! one fact derived in the previous iteration, so the union of these
//! per-literal delta solves is complete; rules none of whose keys changed
//! are skipped outright.  On recursive workloads (the transitive closures of
//! Section 6) this turns each iteration from O(|closure|) into O(|delta|).
//!
//! The **reference** the engine is tested against is
//! [`crate::semantics::fixpoint`]: the least fixpoint computed the plain
//! way, every rule re-solved in full, in written order
//! ([`solve_body`](crate::semantics::solve_body)), each iteration, its
//! solutions committed in canonical key order.  It shares only the
//! stratifier and [`assert_head`] with this module, and the tests require
//! the engine to reproduce its `canonical_dump()` byte for byte.
//!
//! There is one schedule, one delta-pass evaluator and one thread: the
//! stratum loop of the `fixpoint` module.  Each iteration of a stratum
//! first solves its rules one after the other against the structure as it
//! stood at the iteration boundary — in the first iteration one full solve
//! per proper rule, after it one delta pass per literal the stratum's
//! [`SnapshotWindow`](crate::semantics::SnapshotWindow) can drive — and then
//! commits statement by statement in stratum order, each rule's solutions
//! in canonical [`binding_key`] order.  The commit is a deterministic
//! function of the structure's content, so two runs of one program over
//! equal structures are **bit-identical** — same model, same insertion
//! logs, same virtual-object ids, same [`EvalStats`] — and since the commit
//! order is the canonical one whatever plan ran a solve, the engine and the
//! reference mint the same virtual objects under the same ids.
//!
//! **The commit step pays once for what it derives.**  A head of the shape
//! `X[m ->> {Y}]` ([`CompiledHead`](crate::plan::CompiledHead), over the
//! frames of a full solve and of a delta pass alike) commits each run of
//! consecutive solutions with one receiver and ascending members as one
//! sorted merge ([`Structure::assert_set_members`]); a `m ->> t` head filter
//! merges its set the same way — when `t` is one stored application
//! (`V..m`, `V..m@(A, …)`), the stored run itself.  Any other head fires
//! once per *head valuation* of a batch: a solution whose projection onto
//! the head's variables an earlier solution of the same batch already
//! committed is skipped, because asserting the head again under the same
//! valuation adds nothing.  Both keep the order of every insertion, and so
//! the logs, the object ids and every [`EvalStats`] counter, exactly as one
//! assert per solution would leave them — [`EvalOptions::max_derived`]
//! included, which fails at the same fact with the same count.
//!
//! **Queries** ([`Engine::query`], [`Engine::query_term`]) run through the
//! same compiled atoms as the delta passes, with no literal restricted and
//! in the literal and atom order the structure's live index cardinalities
//! suggest ([`crate::plan::plan_query`]); they count in no planner
//! statistic, and their answers are sorted into canonical key order, so no
//! plan shows in a result.
//!
//! The same compiled atoms carry the **check-on-commit** integrity
//! constraints of [`crate::constraints`]: a [`ConstraintChecker`] re-solves
//! (as queries) only the denial rules whose read keys a mutation batch
//! touched, for the receivers it touched them at, and the object store's
//! transaction layer (`pathlog_oodb::Transaction::commit`) either commits a
//! batch whose check passes or rolls the whole batch back — there are no
//! partially-checked states.  [`EvalOptions::tolerance`] selects what an
//! *inconsistent* structure means for queries: under [`Tolerance::Strict`]
//! (default) answers are classical; under [`Tolerance::Tolerant`]
//! quarantined facts (violations admitted by `ConstraintPolicy::Quarantine`)
//! stay in the structure but [`crate::constraints::tolerant_query`]
//! annotates every answer whose derivation needs one as tainted by the
//! implicated constraints, so degraded stores keep serving.
//!
//! [`ConstraintChecker`]: crate::constraints::ConstraintChecker
//!
//! ## Static analysis
//!
//! Before a program runs, [`Engine::analyze`] hands it to the shared
//! [`crate::analysis`] subsystem: one dependency graph over every statement,
//! a `PL0xx` [`Diagnostics`](crate::analysis::Diagnostics) report
//! (safety/range restriction PL001–PL005, liveness lints PL006–PL009,
//! reactive cascade bounds PL010–PL011).
//! The stratifier itself is a thin consumer of the same graph
//! ([`crate::analysis::DependencyGraph::stratify`]), so the strata the
//! analyzer reports are bit-identical to the ones evaluation uses.
//! [`Engine::install_checked`] is `load_program` gated on the report:
//! under [`StaticChecks::Enforce`] (via [`EvalOptions::static_checks`])
//! programs with `Error`-severity diagnostics are rejected with
//! [`Error::StaticRejected`] before any fact is asserted, while the default
//! [`StaticChecks::WarnOnly`] only attaches the report.  The same analyzer
//! runs in `pathlog_shell --check`, the oodb constraint guard and the
//! reactive installers.

mod fixpoint;
mod options;
mod stratify;
mod virtuals;

pub use fixpoint::{binding_key, BindingKey};
pub use options::{EvalOptions, EvalStats, StaticChecks, Tolerance};
pub use stratify::{stratify, Stratification};
pub use virtuals::{assert_head, AssertEffect, AssertOptions};

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::names::Name;
use crate::program::{Program, Query, Rule};
use crate::semantics::{Answer, Bindings, FactorizedAnswers};
use crate::structure::{Oid, Structure};
use crate::term::Term;

/// The PathLog evaluation engine: an evaluation policy ([`EvalOptions`])
/// and the entry points that run programs, rules and queries under it.
#[derive(Debug, Default, Clone)]
pub struct Engine {
    options: EvalOptions,
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with the given options.
    pub fn with_options(options: EvalOptions) -> Self {
        Engine { options }
    }

    /// The options in use.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Load a program into `structure`: validate, register every name,
    /// stratify, assert facts and evaluate rules to the fixpoint.
    pub fn load_program(&self, structure: &mut Structure, program: &Program) -> Result<EvalStats> {
        self.install(structure, &program.rules, &program.queries)
    }

    /// Statically analyze `program` without evaluating it — see
    /// [`crate::analysis`] for what the report contains.  Pass a structure
    /// to let the analyzer treat its stored facts as defined (quieting
    /// always-empty-literal lints).
    pub fn analyze(&self, structure: Option<&Structure>, program: &Program) -> crate::analysis::Analysis {
        let mut input = crate::analysis::AnalysisInput::new().program(program);
        if let Some(s) = structure {
            input = input.structure(s);
        }
        input.run()
    }

    /// [`Engine::load_program`] preceded by static analysis.
    ///
    /// Always returns the [`crate::analysis::Analysis`] report alongside the
    /// evaluation stats.  Under [`StaticChecks::Enforce`] a program with
    /// `Error`-severity diagnostics is rejected with
    /// [`Error::StaticRejected`] *before* any fact is asserted; under the
    /// default [`StaticChecks::WarnOnly`] the diagnostics are informational
    /// and installation proceeds exactly like `load_program` (including its
    /// own validation errors, which fire either way).
    ///
    /// The evaluation runs from the stratification the analysis just
    /// computed — one `rule_info` pass and one stratification per install.
    pub fn install_checked(
        &self,
        structure: &mut Structure,
        program: &Program,
    ) -> Result<(EvalStats, crate::analysis::Analysis)> {
        let analysis = self.analyze(Some(structure), program);
        if self.options.static_checks == StaticChecks::Enforce && !analysis.no_errors() {
            return Err(Error::StaticRejected(analysis.diagnostics.render()));
        }
        let Some(stratification) = &analysis.strata else {
            // Not stratifiable (PL005): `load_program` reports it — after
            // any validation error, in the order it always has.
            return self.load_program(structure, program).map(|stats| (stats, analysis));
        };
        program.rules.iter().try_for_each(crate::program::check_valid)?;
        register_program_names(structure, &program.rules, &program.queries);
        let stats = fixpoint::run(&self.options, structure, &program.rules, stratification)?;
        Ok((stats, analysis))
    }

    /// Evaluate a set of rules (and facts) against `structure`.
    pub fn run_rules(&self, structure: &mut Structure, rules: &[Rule]) -> Result<EvalStats> {
        self.install(structure, rules, &[])
    }

    /// Validate `rules`, register every name of `rules` and then of
    /// `queries`, stratify, and evaluate to the fixpoint.
    fn install(&self, structure: &mut Structure, rules: &[Rule], queries: &[Query]) -> Result<EvalStats> {
        let infos = rules
            .iter()
            .map(crate::program::validate_rule)
            .collect::<Result<Vec<_>>>()?;
        register_program_names(structure, rules, queries);
        let stratification = stratify(&infos)?;
        fixpoint::run(&self.options, structure, rules, &stratification)
    }

    /// Answer a query: the variable-valuations that satisfy its body, each
    /// once.
    ///
    /// **Order.**  Answers come in canonical key order — ascending
    /// [`binding_key`] — whatever order the body
    /// was written in and whatever plan ran it: the body is compiled to the
    /// primitive atoms of [`crate::plan`] and run in the literal and atom
    /// order that the live index cardinalities of `structure` suggest
    /// ([`plan_query`](crate::plan::plan_query)), as frames; [`Bindings`]
    /// are built here, at the boundary.
    /// [`solve_body`](crate::semantics::solve_body) is the written-order
    /// reference the answers are tested against, as sets of keys.
    ///
    /// Unknown names in a query body are permitted and simply denote no
    /// object — queries are often generated (SQL frontend, F-logic
    /// translation) against structures that may lack some attribute, and
    /// "no solutions" is the correct answer there (a negated literal that
    /// mentions one holds of nothing).
    pub fn query(&self, structure: &Structure, query: &Query) -> Result<Vec<Bindings>> {
        let compiled = crate::plan::compile_query(query.body.iter().map(|lit| (lit.positive, &lit.term)));
        let run = crate::plan::execute_query(structure, &compiled)?;
        Ok(run.frames().map(|f| compiled.bindings_of(f)).collect())
    }

    /// Answers (valuation + denoted object) of a single reference: one per
    /// derivation path — `e..vehicles.color` answers once per vehicle, not
    /// once per colour — so equal answers may repeat.
    ///
    /// **Order.**  Canonical `(key, object)` order, duplicates kept: by
    /// [`binding_key`] of the valuation, then by object — independent of the
    /// plan, as for [`Engine::query`].  The written-order reference is
    /// [`answers()`](crate::semantics::answers()), which yields the same
    /// multiset in enumeration order.
    ///
    /// Unlike [`Engine::query`], a *symbolic* name the structure has never
    /// seen is reported as [`Error::UnknownName`]: a hand-written reference
    /// such as `peter..dsc` (a typo for `desc`) would otherwise silently
    /// return no answers.  Integer and string literals stay permissive.
    pub fn query_term(&self, structure: &Structure, term: &Term) -> Result<Vec<Answer>> {
        require_registered_names(structure, term)?;
        let compiled = crate::plan::compile_query([(true, term)]);
        let run = crate::plan::execute_term(structure, &compiled)?;
        let slots = compiled.slot_count();
        Ok(run
            .frames()
            .map(|f| Answer::new(compiled.bindings_of(&f[..slots]), Oid(f[slots] - 1)))
            .collect())
    }

    /// Answers of a single reference as a factorized representation: a DAG
    /// of unions and products over shared fact-table runs when `term` has a
    /// supported path shape, exploded tuples otherwise.  Enumeration is, in
    /// order, that of the written-order reference
    /// [`answers()`](crate::semantics::answers()), and so the same multiset
    /// as [`Engine::query_term`] (which sorts) — but for product-shaped
    /// answer sets the DAG is asymptotically smaller than the tuple list.
    pub fn query_term_factorized(&self, structure: &Structure, term: &Term) -> Result<FactorizedAnswers> {
        require_registered_names(structure, term)?;
        crate::semantics::factorized_answers(structure, term, &Bindings::new())
    }

    /// The objects denoted by a ground reference ([`Engine::query_term`]'s
    /// objects, each once); its reference is
    /// [`valuate`](crate::semantics::valuate).  Unregistered names are an
    /// [`Error::UnknownName`], a variable is [`Error::NotGround`].
    pub fn eval_ground(&self, structure: &Structure, term: &Term) -> Result<BTreeSet<Oid>> {
        require_registered_names(structure, term)?;
        let compiled = crate::plan::compile_query([(true, term)]);
        if compiled.slot_count() > 0 {
            return Err(Error::NotGround(format!(
                "variable {} is unbound",
                compiled.slot_var(0)
            )));
        }
        let run = crate::plan::execute_term(structure, &compiled)?;
        Ok(run.frames().map(|f| Oid(f[0] - 1)).collect())
    }
}

/// Reject references that mention *symbolic* names the structure has never
/// registered ([`Error::UnknownName`]).  Used by the engine's
/// reference-query APIs, where an unknown atom is almost always a typo for
/// a method or object that *was* asserted under a different spelling.
/// Integer and string literals are exempt: values are only interned when
/// some fact uses them, so probing a constant absent from the data (e.g.
/// `peter[age -> 31]` when every age is 30) is a legitimately empty answer,
/// not an error.
fn require_registered_names(structure: &Structure, term: &Term) -> Result<()> {
    let mut missing: Option<Name> = None;
    term.visit(&mut |t| {
        if let Term::Name(n @ Name::Atom(_)) = t {
            if missing.is_none() && structure.lookup_name(n).is_none() {
                missing = Some(n.clone());
            }
        }
    });
    match missing {
        Some(n) => structure.require_name(&n).map(|_| ()),
        None => Ok(()),
    }
}

/// Register every name occurring in a term, making `I_N` total over the
/// program's alphabet.
fn register_names(structure: &mut Structure, term: &Term) {
    let mut names: Vec<Name> = Vec::new();
    term.visit(&mut |t| {
        if let Term::Name(n) = t {
            names.push(n.clone());
        }
    });
    for n in names {
        structure.ensure_name(&n);
    }
}

/// Register every name of a program's rules and then its queries, statement
/// by statement (object ids follow first registration, so the order is part
/// of the model's identity).
pub(crate) fn register_program_names(structure: &mut Structure, rules: &[Rule], queries: &[Query]) {
    for rule in rules {
        register_names(structure, &rule.head);
        for lit in &rule.body {
            register_names(structure, &lit.term);
        }
    }
    for query in queries {
        for lit in &query.body {
            register_names(structure, &lit.term);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LimitKind;
    use crate::names::Var;
    use crate::program::{Literal, Program, Query, Rule};
    use crate::term::Filter;

    /// Run `rules` over `s` with the engine, or with the reference
    /// [`fixpoint`](crate::semantics::fixpoint) when `reference`.
    fn run_with(reference: bool, s: &mut Structure, rules: &[Rule], options: EvalOptions) -> Result<EvalStats> {
        if reference {
            let program = Program {
                rules: rules.to_vec(),
                ..Program::new()
            };
            crate::semantics::fixpoint(s, &program, &options)
        } else {
            Engine::with_options(options).run_rules(s, rules)
        }
    }

    fn oid(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&Name::atom(n)).unwrap()
    }

    /// The facts of Section 6: peter's kids, tim's kids, mary's kids.
    fn genealogy_facts() -> Vec<Rule> {
        vec![
            Rule::fact(Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim"), Term::name("mary")]))),
            Rule::fact(Term::name("tim").filter(Filter::set("kids", vec![Term::name("sally")]))),
            Rule::fact(Term::name("mary").filter(Filter::set("kids", vec![Term::name("tom"), Term::name("paul")]))),
        ]
    }

    #[test]
    fn facts_are_asserted() {
        let mut s = Structure::new();
        let engine = Engine::new();
        let stats = engine.run_rules(&mut s, &genealogy_facts()).unwrap();
        assert_eq!(stats.set_members, 5);
        assert_eq!(stats.virtual_objects, 0);
        let kids = oid(&s, "kids");
        assert_eq!(s.apply_set(kids, oid(&s, "peter"), &[]).unwrap().len(), 2);
    }

    #[test]
    fn transitive_closure_desc() {
        // (6.4): X[desc ->> {Y}] <- X[kids ->> {Y}].
        //        X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
        let mut rules = genealogy_facts();
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X")
                    .set("desc")
                    .filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &rules).unwrap();
        let desc = oid(&s, "desc");
        let peter_desc = s.apply_set(desc, oid(&s, "peter"), &[]).unwrap();
        let expected: BTreeSet<Oid> = ["tim", "mary", "sally", "tom", "paul"]
            .iter()
            .map(|n| oid(&s, n))
            .collect();
        assert_eq!(peter_desc, &expected);
    }

    #[test]
    fn generic_transitive_closure_via_tc_method() {
        // The paper's generic rules, guarded by a class of base methods so
        // that `tc` is not applied to the tc-methods it creates (the unguarded
        // program has an infinite minimal model — see DESIGN.md):
        //   kids : baseMethod.
        //   X[(M.tc) ->> {Y}] <- M : baseMethod, X[M ->> {Y}].
        //   X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}].
        let tc = |m: Term| m.scalar("tc").paren();
        let guard = || Literal::pos(Term::var("M").isa("baseMethod"));
        let mut rules = genealogy_facts();
        rules.push(Rule::fact(Term::name("kids").isa("baseMethod")));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set(tc(Term::var("M")), vec![Term::var("Y")])),
            vec![
                guard(),
                Literal::pos(Term::var("X").filter(Filter::set(Term::var("M"), vec![Term::var("Y")]))),
            ],
        ));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set(tc(Term::var("M")), vec![Term::var("Y")])),
            vec![
                guard(),
                Literal::pos(
                    Term::var("X")
                        .set_args(tc(Term::var("M")), vec![])
                        .filter(Filter::set(Term::var("M"), vec![Term::var("Y")])),
                ),
            ],
        ));
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &rules).unwrap();
        // peter[(kids.tc) ->> {tim, mary, sally, tom, paul}]
        let kids = oid(&s, "kids");
        let tc_m = oid(&s, "tc");
        let kids_tc = s
            .apply_scalar(tc_m, kids, &[])
            .expect("kids.tc must denote a (virtual) method");
        let closure = s.apply_set(kids_tc, oid(&s, "peter"), &[]).unwrap();
        let expected: BTreeSet<Oid> = ["tim", "mary", "sally", "tom", "paul"]
            .iter()
            .map(|n| oid(&s, n))
            .collect();
        assert_eq!(closure, &expected);
    }

    #[test]
    fn virtual_boss_rule_6_1() {
        // X.boss[worksFor -> D] <- X : employee[worksFor -> D].
        // with only p1:employee[worksFor -> cs1] given.
        let rules = vec![
            Rule::fact(
                Term::name("p1")
                    .isa("employee")
                    .filter(Filter::scalar("worksFor", Term::name("cs1"))),
            ),
            Rule::new(
                Term::var("X")
                    .scalar("boss")
                    .filter(Filter::scalar("worksFor", Term::var("D"))),
                vec![Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("worksFor", Term::var("D"))),
                )],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert_eq!(stats.virtual_objects, 1);
        let boss = oid(&s, "boss");
        let p1 = oid(&s, "p1");
        let v = s.apply_scalar(boss, p1, &[]).expect("p1.boss must now be defined");
        assert!(s.is_virtual(v));
        let works_for = oid(&s, "worksFor");
        assert_eq!(s.apply_scalar(works_for, v, &[]), Some(oid(&s, "cs1")));
    }

    #[test]
    fn existing_boss_rule_6_2_creates_no_virtuals() {
        // Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].
        let rules = vec![
            Rule::fact(
                Term::name("p1")
                    .isa("employee")
                    .filter(Filter::scalar("worksFor", Term::name("cs1"))),
            ),
            Rule::fact(Term::name("p2").isa("employee").filters(vec![
                Filter::scalar("worksFor", Term::name("cs2")),
                Filter::scalar("boss", Term::name("bert")),
            ])),
            Rule::new(
                Term::var("Z").filter(Filter::scalar("worksFor", Term::var("D"))),
                vec![Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("worksFor", Term::var("D")))
                        .scalar("boss")
                        .selector(Term::var("Z")),
                )],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert_eq!(stats.virtual_objects, 0, "only existing bosses are affected");
        let works_for = oid(&s, "worksFor");
        assert_eq!(s.apply_scalar(works_for, oid(&s, "bert"), &[]), Some(oid(&s, "cs2")));
        // p1 has no boss, so no new fact mentions p1's (nonexistent) boss.
        let boss = oid(&s, "boss");
        assert_eq!(s.apply_scalar(boss, oid(&s, "p1"), &[]), None);
    }

    #[test]
    fn address_views_rule_2_4() {
        // X.address[street -> X.street; city -> X.city] <- X : person.
        let rules = vec![
            Rule::fact(Term::name("anna").isa("person").filters(vec![
                Filter::scalar("street", Term::string("Main St")),
                Filter::scalar("city", Term::name("newYork")),
            ])),
            Rule::fact(Term::name("bert").isa("person").filters(vec![
                Filter::scalar("street", Term::string("2nd Ave")),
                Filter::scalar("city", Term::name("detroit")),
            ])),
            Rule::new(
                Term::var("X").scalar("address").filters(vec![
                    Filter::scalar("street", Term::var("X").scalar("street")),
                    Filter::scalar("city", Term::var("X").scalar("city")),
                ]),
                vec![Literal::pos(Term::var("X").isa("person"))],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert_eq!(stats.virtual_objects, 2, "one address per person");
        let address = oid(&s, "address");
        let city = oid(&s, "city");
        let anna_addr = s.apply_scalar(address, oid(&s, "anna"), &[]).unwrap();
        assert!(s.is_virtual(anna_addr));
        assert_eq!(s.apply_scalar(city, anna_addr, &[]), Some(oid(&s, "newYork")));
    }

    #[test]
    fn intensional_power_method() {
        // X[power -> Y] <- X : automobile.engine[power -> Y].
        let rules = vec![
            Rule::fact(
                Term::name("a1")
                    .isa("automobile")
                    .filter(Filter::scalar("engine", Term::name("e100"))),
            ),
            Rule::fact(Term::name("e100").filter(Filter::scalar("power", Term::int(90)))),
            Rule::new(
                Term::var("X").filter(Filter::scalar("power", Term::var("Y"))),
                vec![Literal::pos(
                    Term::var("X")
                        .isa("automobile")
                        .scalar("engine")
                        .filter(Filter::scalar("power", Term::var("Y"))),
                )],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &rules).unwrap();
        let power = oid(&s, "power");
        let ninety = s.lookup_name(&Name::Int(90)).unwrap();
        assert_eq!(s.apply_scalar(power, oid(&s, "a1"), &[]), Some(ninety));
    }

    #[test]
    fn stratified_set_copy() {
        // assistants derived first, then friends copied set-at-a-time.
        let rules = vec![
            Rule::fact(Term::name("p1").filter(Filter::set("reports", vec![Term::name("anna"), Term::name("bert")]))),
            Rule::new(
                Term::name("p1").filter(Filter::set("assistants", vec![Term::var("Y")])),
                vec![Literal::pos(
                    Term::name("p1").filter(Filter::set("reports", vec![Term::var("Y")])),
                )],
            ),
            Rule::new(
                Term::name("p2").filter(Filter::set_ref("friends", Term::name("p1").set("assistants"))),
                vec![Literal::pos(
                    Term::name("p1").filter(Filter::set("assistants", vec![Term::var("Y")])),
                )],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        let stats = engine.run_rules(&mut s, &rules).unwrap();
        assert!(stats.strata >= 2);
        let friends = oid(&s, "friends");
        assert_eq!(s.apply_set(friends, oid(&s, "p2"), &[]).unwrap().len(), 2);
    }

    #[test]
    fn unstratifiable_program_is_rejected() {
        // p2[friends ->> p2..friends.friendOf] style self-dependence:
        // head defines friends, body reads friends set-at-a-time.
        let rule = Rule::new(
            Term::name("p2").filter(Filter::set_ref("friends", Term::name("p2").set("friends"))),
            vec![Literal::pos(
                Term::name("p2").filter(Filter::set("friends", vec![Term::var("Y")])),
            )],
        );
        let mut s = Structure::new();
        let engine = Engine::new();
        assert!(matches!(
            engine.run_rules(&mut s, &[rule]),
            Err(Error::NotStratifiable(_))
        ));
    }

    #[test]
    fn negation_extension() {
        // X : single <- X : person, not X.spouse[].
        let rules = vec![
            Rule::fact(Term::name("john").isa("person")),
            Rule::fact(
                Term::name("mary")
                    .isa("person")
                    .filter(Filter::scalar("spouse", Term::name("peter"))),
            ),
            Rule::new(
                Term::var("X").isa("single"),
                vec![
                    Literal::pos(Term::var("X").isa("person")),
                    Literal::neg(Term::var("X").scalar("spouse").empty_filters()),
                ],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &rules).unwrap();
        let single = oid(&s, "single");
        assert!(s.in_class(oid(&s, "john"), single));
        assert!(!s.in_class(oid(&s, "mary"), single));
    }

    #[test]
    fn query_api() {
        let mut program = Program::new();
        for f in genealogy_facts() {
            program.push_rule(f);
        }
        program.push_query(Query::single(
            Term::name("peter").filter(Filter::set("kids", vec![Term::var("K")])),
        ));
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.load_program(&mut s, &program).unwrap();
        let solutions = engine.query(&s, &program.queries[0]).unwrap();
        assert_eq!(solutions.len(), 2);
        let ks: BTreeSet<Oid> = solutions.iter().map(|b| b.get(&Var::new("K")).unwrap()).collect();
        assert!(ks.contains(&oid(&s, "tim")) && ks.contains(&oid(&s, "mary")));

        // query_term / eval_ground agree
        let t = Term::name("peter").set("kids");
        assert_eq!(engine.query_term(&s, &t).unwrap().len(), 2);
        assert_eq!(engine.eval_ground(&s, &t).unwrap().len(), 2);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        // A rule that creates an unbounded chain of virtual objects:
        // X.next[] <- X : node.   plus  Y : node <- X : node.next[Y].
        let rules = vec![
            Rule::fact(Term::name("n0").isa("node")),
            Rule::new(
                Term::var("X").scalar("next").empty_filters(),
                vec![Literal::pos(Term::var("X").isa("node"))],
            ),
            Rule::new(
                Term::var("Y").isa("node"),
                vec![Literal::pos(
                    Term::var("X").isa("node").scalar("next").selector(Term::var("Y")),
                )],
            ),
        ];
        let mut s = Structure::new();
        let engine = Engine::with_options(EvalOptions {
            max_iterations: 50,
            ..EvalOptions::default()
        });
        let err = engine.run_rules(&mut s, &rules).unwrap_err();
        assert!(matches!(
            err,
            Error::LimitExceeded {
                kind: crate::error::LimitKind::Iterations,
                limit: 50,
                ..
            }
        ));
    }

    #[test]
    fn iteration_limit_is_counted_per_stratum() {
        // Four strata over a stored `p[s0 ->> {a}]`, each a set-at-a-time
        // copy of the one below:
        //   p[s1 ->> {Y}] <- p[s0 ->> {Y}].    p[s2 ->> p..s1] <- p[s1 ->> {Y}].   ...
        // Every stratum converges in two iterations (derive, then find
        // nothing new), so the run takes eight in total.
        let mut rules = vec![Rule::new(
            Term::name("p").filter(Filter::set("s1", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::name("p").filter(Filter::set("s0", vec![Term::var("Y")])),
            )],
        )];
        for (below, above) in [("s1", "s2"), ("s2", "s3"), ("s3", "s4")] {
            rules.push(Rule::new(
                Term::name("p").filter(Filter::set_ref(above, Term::name("p").set(below))),
                vec![Literal::pos(
                    Term::name("p").filter(Filter::set(below, vec![Term::var("Y")])),
                )],
            ));
        }
        let run = |max_iterations: usize| {
            let mut s = Structure::new();
            let (s0, p, a) = (s.atom("s0"), s.atom("p"), s.atom("a"));
            s.assert_set_member(s0, p, &[], a);
            Engine::with_options(EvalOptions {
                max_iterations,
                ..EvalOptions::default()
            })
            .run_rules(&mut s, &rules)
        };
        let stats = run(2).expect("no stratum needs more than two iterations");
        assert_eq!(
            (stats.strata, stats.iterations),
            (4, 8),
            "iterations stays the run total"
        );
        assert!(matches!(
            run(1).unwrap_err(),
            Error::LimitExceeded {
                kind: LimitKind::Iterations,
                limit: 1,
                observed: 2,
            }
        ));
    }

    #[test]
    fn delta_method_resolving_to_builtin_enumerates_receivers_in_full() {
        // Regression: a path literal whose *method derivation* lands in the
        // delta and resolves to a built-in method (here `self`, via the
        // derived alias fact a.alias = self).  Built-ins have no stored
        // facts, so the per-method receiver seeding must fall back to full
        // enumeration or the join silently drops every receiver.
        //   X : copied <- X.(a.alias), X : person.
        // `tim : person` and the seed fact live in the EDB (pre-asserted),
        // and the copied rule comes FIRST, so the alias fact is derived
        // *after* its iteration-1 solve and the only delta literal of the
        // later iteration is the path whose method resolves to `self` — the
        // join a wrongly-seeded built-in method would drop.
        let rules = vec![
            Rule::new(
                Term::var("X").isa("copied"),
                vec![
                    Literal::pos(Term::var("X").scalar(Term::name("a").scalar("alias").paren())),
                    Literal::pos(Term::var("X").isa("person")),
                ],
            ),
            Rule::new(
                Term::name("trigger").filter(Filter::scalar("on", Term::name("yes"))),
                vec![Literal::pos(
                    Term::name("seed").filter(Filter::scalar("go", Term::name("yes"))),
                )],
            ),
            Rule::new(
                Term::name("a").filter(Filter::scalar("alias", Term::name("self"))),
                vec![Literal::pos(
                    Term::name("trigger").filter(Filter::scalar("on", Term::name("yes"))),
                )],
            ),
        ];
        for reference in [false, true] {
            let mut s = Structure::new();
            let (go, seed, yes) = (s.atom("go"), s.atom("seed"), s.atom("yes"));
            s.assert_scalar(go, seed, &[], yes).unwrap();
            let (tim, person) = (s.atom("tim"), s.atom("person"));
            s.add_isa(tim, person);
            run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            let copied = oid(&s, "copied");
            assert!(
                s.in_class(oid(&s, "tim"), copied),
                "tim must be copied (reference: {reference})"
            );
        }
    }

    #[test]
    fn bare_variable_rule_sees_late_virtual_objects_under_unknown_keys() {
        // Regression: a rule whose body reads no dependency keys at all
        // (bare-variable literal) must still re-fire when the changed-key
        // set contains `Unknown` — here the generic `(M.tc)` head — so the
        // virtual tc-method object created mid-stratum is classified too.
        //   Z : thing <- Z.
        // The bare rule comes FIRST so that in iteration 1 it solves before
        // the tc rules create the virtual method object — only a later
        // iteration can classify it, which is exactly what a wrongly-skipped
        // rule would miss.
        let tc = |m: Term| m.scalar("tc").paren();
        let guard = || Literal::pos(Term::var("M").isa("baseMethod"));
        let mut rules = vec![Rule::new(
            Term::var("Z").isa("thing"),
            vec![Literal::pos(Term::var("Z"))],
        )];
        rules.extend(genealogy_facts());
        rules.push(Rule::fact(Term::name("kids").isa("baseMethod")));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set(tc(Term::var("M")), vec![Term::var("Y")])),
            vec![
                guard(),
                Literal::pos(Term::var("X").filter(Filter::set(Term::var("M"), vec![Term::var("Y")]))),
            ],
        ));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set(tc(Term::var("M")), vec![Term::var("Y")])),
            vec![
                guard(),
                Literal::pos(
                    Term::var("X")
                        .set_args(tc(Term::var("M")), vec![])
                        .filter(Filter::set(Term::var("M"), vec![Term::var("Y")])),
                ),
            ],
        ));
        let run = |reference: bool| {
            let mut s = Structure::new();
            run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            let thing = oid(&s, "thing");
            (s.num_objects(), s.extent_size(thing), s.stats().isa_edges)
        };
        let semi = run(false);
        let naive = run(true);
        assert_eq!(semi, naive, "semi-naive and naive must classify the same objects");
        // Every object — including the virtual tc method — is a thing.
        assert_eq!(
            semi.1,
            semi.0 - 1,
            "all objects except `thing` itself are in its extent"
        );
    }

    #[test]
    fn superclass_readers_are_woken_by_subclass_derivations() {
        // Regression: deriving `tim : student` also puts (tim, person) into
        // the transitive closure when `student isa person`; a rule that
        // reads only `person` must be re-fired.  The mark rule is ordered
        // FIRST so it solves before the student fact is derived and can
        // only pick it up through a later iteration's wake-up.
        //   x[mark ->> {Z}] <- Z : person.     X : student <- X[go -> yes].
        let rules = vec![
            Rule::new(
                Term::name("x").filter(Filter::set("mark", vec![Term::var("Z")])),
                vec![Literal::pos(Term::var("Z").isa("person"))],
            ),
            Rule::new(
                Term::var("X").isa("student"),
                vec![Literal::pos(
                    Term::var("X").filter(Filter::scalar("go", Term::name("yes"))),
                )],
            ),
        ];
        let run = |reference: bool| {
            let mut s = Structure::new();
            let (student, person) = (s.atom("student"), s.atom("person"));
            s.add_isa(student, person);
            let (go, tim, yes) = (s.atom("go"), s.atom("tim"), s.atom("yes"));
            s.assert_scalar(go, tim, &[], yes).unwrap();
            run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            let mark = oid(&s, "mark");
            s.apply_set(mark, oid(&s, "x"), &[]).map(|m| m.len()).unwrap_or(0)
        };
        let semi = run(false);
        let naive = run(true);
        assert_eq!(semi, naive, "semi-naive must mark the same objects as naive");
        assert_eq!(semi, 2, "both student (the class) and tim are persons");
    }

    #[test]
    fn virtual_created_under_known_keys_reaches_keyless_rules() {
        // Regression: a rule that reads no dependency keys at all must be
        // woken when a virtual object appears, even when every changed key
        // is Known (no generic `(M.tc)`-style Unknown in the program).
        // Object creation publishes the catch-all key for exactly this.
        //   Z : thing <- Z.        x.v[q -> c] <- a[p -> b].
        let rules = vec![
            Rule::new(Term::var("Z").isa("thing"), vec![Literal::pos(Term::var("Z"))]),
            Rule::fact(Term::name("a").filter(Filter::scalar("p", Term::name("b")))),
            Rule::new(
                Term::name("x").scalar("v").filter(Filter::scalar("q", Term::name("c"))),
                vec![Literal::pos(
                    Term::name("a").filter(Filter::scalar("p", Term::name("b"))),
                )],
            ),
        ];
        let run = |reference: bool| {
            let mut s = Structure::new();
            run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            let thing = oid(&s, "thing");
            (s.num_objects(), s.extent_size(thing), s.stats().isa_edges)
        };
        let semi = run(false);
        let naive = run(true);
        assert_eq!(semi, naive, "the virtual object must be classified in both modes");
        assert_eq!(semi.1, semi.0 - 1, "every object except `thing` itself is a thing");
    }

    #[test]
    fn same_iteration_fact_of_unchanged_key_is_not_lost() {
        // Regression: drivable literals must be selected from the rule's
        // own delta *window*, not from the previous iteration's changed-key
        // set.  Here `marked` is first derived in the same iteration in
        // which the `out` rule (which reads it) also runs: the iteration's
        // changed set only names `desc` at that point, but the marked fact
        // is inside the out rule's window — and by the next iteration it is
        // behind the rule's watermark, so a changed-key-based selection
        // loses the (old desc pair, new marked fact) joins forever.
        let desc = |recv: Term| recv.filter(Filter::set("desc", vec![Term::var("Y")]));
        let rules = vec![
            Rule::fact(Term::name("d3").filter(Filter::set("kids", vec![Term::name("y")]))),
            Rule::fact(Term::name("y").filter(Filter::set("kids", vec![Term::name("x")]))),
            Rule::fact(Term::name("x").filter(Filter::set("kids", vec![Term::name("goal")]))),
            Rule::fact(Term::name("d3").isa("watch")),
            Rule::new(
                desc(Term::var("X")),
                vec![Literal::pos(
                    Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
                )],
            ),
            Rule::new(
                desc(Term::var("X")),
                vec![Literal::pos(
                    Term::var("X")
                        .set("desc")
                        .filter(Filter::set("kids", vec![Term::var("Y")])),
                )],
            ),
            Rule::new(
                Term::var("X").isa("marked"),
                vec![
                    Literal::pos(Term::var("X").filter(Filter::set("desc", vec![Term::name("goal")]))),
                    Literal::pos(Term::var("X").isa("watch")),
                ],
            ),
            Rule::new(
                Term::var("X").isa("out"),
                vec![
                    Literal::pos(Term::var("W").filter(Filter::set("desc", vec![Term::var("X")]))),
                    Literal::pos(Term::var("W").isa("marked")),
                ],
            ),
            Rule::new(
                Term::name("goal").filter(Filter::set("kids", vec![Term::name("bonus")])),
                vec![Literal::pos(Term::var("X").isa("out"))],
            ),
        ];
        let run = |reference: bool| {
            let mut s = Structure::new();
            run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            let out = oid(&s, "out");
            let extent: BTreeSet<Oid> = s.instances_of(out).collect();
            (extent, s.stats().isa_edges, s.stats().set_members)
        };
        let semi = run(false);
        let naive = run(true);
        assert_eq!(semi, naive, "semi-naive must reach the naive fixpoint");
        assert_eq!(semi.0.len(), 4, "y, x, goal and bonus are all out");
    }

    #[test]
    fn eval_stats_merge_is_saturating_and_fieldwise() {
        let mut a = EvalStats {
            strata: 1,
            iterations: 2,
            firings: 3,
            scalar_facts: usize::MAX - 1,
            set_members: 5,
            isa_edges: usize::MAX,
            signatures: 0,
            virtual_objects: 7,
            rules_skipped: 8,
            delta_solves: 9,
            full_solves: 10,
            plans_compiled: 13,
            replans: 14,
            seed_flips: 15,
        };
        let b = EvalStats {
            strata: 10,
            iterations: 20,
            firings: 30,
            scalar_facts: 40,
            set_members: 50,
            isa_edges: 60,
            signatures: 70,
            virtual_objects: 80,
            rules_skipped: 90,
            delta_solves: 100,
            full_solves: 110,
            plans_compiled: 140,
            replans: 150,
            seed_flips: 160,
        };
        a.merge(&b);
        assert_eq!(a.strata, 11);
        assert_eq!(a.iterations, 22);
        assert_eq!(a.firings, 33);
        assert_eq!(a.scalar_facts, usize::MAX, "saturates instead of wrapping");
        assert_eq!(a.set_members, 55);
        assert_eq!(a.isa_edges, usize::MAX, "saturates instead of wrapping");
        assert_eq!(a.signatures, 70);
        assert_eq!(a.virtual_objects, 87);
        assert_eq!(a.rules_skipped, 98);
        assert_eq!(a.delta_solves, 109);
        assert_eq!(a.full_solves, 120);
        assert_eq!(a.plans_compiled, 153);
        assert_eq!(a.replans, 164);
        assert_eq!(a.seed_flips, 175);
        // derived() of saturated counters must not overflow either.
        assert_eq!(a.derived(), usize::MAX);
    }

    #[test]
    fn unknown_names_in_reference_queries_are_reported_not_silent() {
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &genealogy_facts()).unwrap();
        // `dsc` was never asserted by any fact or rule (a typo for `desc`).
        let typo = Term::name("peter").set("dsc");
        assert!(matches!(
            engine.eval_ground(&s, &typo),
            Err(Error::UnknownName(m)) if m.contains("dsc")
        ));
        assert!(matches!(engine.query_term(&s, &typo), Err(Error::UnknownName(_))));
        // Registered vocabulary still answers normally.
        assert_eq!(
            engine.eval_ground(&s, &Term::name("peter").set("kids")).unwrap().len(),
            2
        );
        // Value literals absent from the data are a legitimately empty
        // answer, not a typo: probing kids for a never-interned int works.
        let probe = Term::name("peter").filter(Filter::set("kids", vec![Term::int(31)]));
        assert!(engine.query_term(&s, &probe).unwrap().is_empty());
        // Query bodies stay permissive: unknown names mean "no solutions"
        // (generated queries legitimately probe absent attributes).
        let q = Query::single(Term::var("X").filter(Filter::set("dsc", vec![Term::var("Y")])));
        assert!(engine.query(&s, &q).unwrap().is_empty());
    }

    #[test]
    fn eval_ground_denotes_what_valuate_does_and_rejects_variables() {
        let mut rules = genealogy_facts();
        rules.extend(desc_rules());
        let mut s = Structure::new();
        let engine = Engine::new();
        engine.run_rules(&mut s, &rules).unwrap();
        let grounds = [
            Term::name("peter").set("desc"),
            Term::name("peter").set("kids").set("kids"),
            Term::name("mary").filter(Filter::set("kids", vec![Term::name("tom")])),
            Term::name("mary").filter(Filter::set("kids", vec![Term::name("peter")])),
            Term::name("tim").set("desc"),
        ];
        for t in &grounds {
            let expected = crate::semantics::valuate(&s, t, &Bindings::new()).unwrap();
            assert_eq!(engine.eval_ground(&s, t).unwrap(), expected, "{t}");
        }
        // A reference with a variable is not ground, as `valuate` says.
        let open = Term::name("peter")
            .set("kids")
            .filter(Filter::set("kids", vec![Term::var("Y")]));
        let expected = crate::semantics::valuate(&s, &open, &Bindings::new()).unwrap_err();
        let err = engine.eval_ground(&s, &open).unwrap_err();
        assert!(matches!(err, Error::NotGround(_)), "{err:?}");
        assert_eq!(err.to_string(), expected.to_string());
    }

    #[test]
    fn the_reference_registers_query_names_as_load_program_does() {
        // `ghost` occurs in a `?-` query only.  Both register it after the
        // rules' names and before anything is minted, so the boss objects
        // get the same ids either way — one past where they would be
        // without the query.
        let mut program = Program::new();
        program.push_rule(Rule::fact(Term::name("p1").isa("employee")));
        program.push_rule(Rule::new(
            Term::var("X")
                .scalar("boss")
                .filter(Filter::scalar("age", Term::int(50))),
            vec![Literal::pos(Term::var("X").isa("employee"))],
        ));
        let boss = |s: &Structure| s.apply_scalar(oid(s, "boss"), oid(s, "p1"), &[]).unwrap();
        let mut unqueried = Structure::new();
        Engine::new().load_program(&mut unqueried, &program).unwrap();
        program.push_query(Query::single(
            Term::var("X").filter(Filter::scalar("ghost", Term::var("Y"))),
        ));
        let mut loaded = Structure::new();
        Engine::new().load_program(&mut loaded, &program).unwrap();
        let mut reference = Structure::new();
        crate::semantics::fixpoint(&mut reference, &program, &EvalOptions::default()).unwrap();
        assert_eq!(reference.canonical_dump(), loaded.canonical_dump());
        assert_eq!(oid(&reference, "ghost"), oid(&loaded, "ghost"));
        assert!(oid(&loaded, "ghost") < boss(&loaded));
        assert_eq!(boss(&reference), boss(&loaded));
        assert_eq!(boss(&loaded), Oid(boss(&unqueried).0 + 1));
    }

    #[test]
    fn delta_and_naive_agree() {
        let mut rules = genealogy_facts();
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X")
                    .set("desc")
                    .filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let mut s1 = Structure::new();
        run_with(false, &mut s1, &rules, EvalOptions::default()).unwrap();
        let mut s2 = Structure::new();
        run_with(true, &mut s2, &rules, EvalOptions::default()).unwrap();
        assert_eq!(s1.stats().set_members, s2.stats().set_members);
        assert_eq!(s1.stats().scalar_facts, s2.stats().scalar_facts);
    }

    #[test]
    fn install_checked_warn_only_installs_with_diagnostics() {
        let mut program = Program::new();
        program.push_rule(Rule::fact(Term::name("mary").isa("person")));
        // Reads `salary`, which nothing defines: a PL006 warning.
        program.push_rule(Rule::new(
            Term::var("X").isa("rich"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("salary", Term::var("_S"))),
            )],
        ));
        let mut s = Structure::new();
        let engine = Engine::new();
        let (stats, analysis) = engine.install_checked(&mut s, &program).unwrap();
        assert!(stats.strata >= 1);
        assert!(!analysis.diagnostics.is_empty());
        assert!(analysis.no_errors());
    }

    #[test]
    fn install_checked_enforce_rejects_error_diagnostics() {
        let mut program = Program::new();
        program.push_rule(Rule::fact(Term::var("X").isa("person"))); // non-ground: PL003
        let engine = Engine::with_options(EvalOptions {
            static_checks: StaticChecks::Enforce,
            ..EvalOptions::default()
        });
        let mut s = Structure::new();
        let err = engine.install_checked(&mut s, &program).unwrap_err();
        match err {
            Error::StaticRejected(report) => assert!(report.contains("PL003"), "{report}"),
            other => panic!("expected StaticRejected, got {other:?}"),
        }
        // Nothing was installed.
        assert_eq!(s.stats().isa_edges, 0);

        // The same program under WarnOnly fails load_program's own
        // validation instead — enforcement only changes *when*, not *if*.
        let engine = Engine::new();
        assert!(engine.install_checked(&mut s, &program).is_err());
    }

    /// One stratum, over a structure already holding `q : person[city ->
    /// paris]`, with facts between the rules and four virtual objects whose
    /// numbering tells when each statement committed.
    fn interleaved_program() -> (Structure, Program) {
        let mut base = Structure::new();
        Engine::new()
            .run_rules(
                &mut base,
                &[Rule::fact(
                    Term::name("q")
                        .isa("person")
                        .filter(Filter::scalar("city", Term::name("paris"))),
                )],
            )
            .unwrap();
        let boss_age = |who: &str, age: i64| {
            Rule::fact(
                Term::name(who)
                    .scalar("boss")
                    .filter(Filter::scalar("age", Term::int(age))),
            )
        };
        let mut program = Program::new();
        program.push_rule(Rule::fact(Term::name("p1").isa("employee")));
        program.push_rule(Rule::new(
            Term::var("X").isa("person"),
            vec![Literal::pos(Term::var("X").isa("employee"))],
        ));
        program.push_rule(boss_age("p1", 50));
        program.push_rule(Rule::new(
            Term::var("X")
                .scalar("address")
                .filter(Filter::scalar("city", Term::var("C"))),
            vec![Literal::pos(
                Term::var("X")
                    .isa("person")
                    .filter(Filter::scalar("city", Term::var("C"))),
            )],
        ));
        program.push_rule(Rule::fact(
            Term::name("p1").filter(Filter::scalar("city", Term::name("berlin"))),
        ));
        program.push_rule(boss_age("p2", 40));
        program.push_rule(Rule::fact(Term::name("p2").isa("employee")));
        (base, program)
    }

    #[test]
    fn interleaved_facts_commit_at_their_source_position_in_every_configuration() {
        let (base, program) = interleaved_program();
        let mut oracle = base.clone();
        let oracle_stats = crate::semantics::fixpoint(&mut oracle, &program, &EvalOptions::default()).unwrap();
        assert_eq!(oracle_stats.virtual_objects, 4);

        // p1.boss (a fact), q.address (the rule's first firing, from stored
        // facts), p2.boss (a fact after that rule), p1.address (a later
        // iteration): allocated in source order within the first commit.
        let virt = |of: &str, method: &str| {
            let v = oracle
                .apply_scalar(oid(&oracle, method), oid(&oracle, of), &[])
                .unwrap();
            assert!(oracle.is_virtual(v));
            v
        };
        let allocated = [
            virt("p1", "boss"),
            virt("q", "address"),
            virt("p2", "boss"),
            virt("p1", "address"),
        ];
        assert!(allocated.windows(2).all(|w| w[0] < w[1]), "{allocated:?}");

        let mut s = base.clone();
        let (stats, analysis) = Engine::new().install_checked(&mut s, &program).unwrap();
        assert_eq!(analysis.strata.unwrap().len(), 1, "one stratum");
        assert_eq!(s.canonical_dump(), oracle.canonical_dump());
        assert_eq!(stats.model_counters(), oracle_stats.model_counters());
        // The scheduling counters count the two proper rules only: the
        // five facts are no solve, no skip and no compile.
        let scheduled = stats.full_solves + stats.delta_solves + stats.rules_skipped;
        assert!(scheduled <= 2 * stats.iterations, "{stats:?}");
        assert_eq!((stats.plans_compiled, stats.replans), (2, 0), "{stats:?}");
    }

    #[test]
    fn install_checked_evaluates_like_load_program() {
        // Same model, same stats — the analysis only saves recomputing the
        // summaries and strata — over two strata with facts in both.
        let (base, mut program) = interleaved_program();
        program.push_rule(Rule::fact(
            Term::name("q").filter(Filter::set("pals", vec![Term::name("p1"), Term::name("p2")])),
        ));
        program.push_rule(Rule::fact(
            Term::name("club").filter(Filter::set_ref("members", Term::name("q").set("pals"))),
        ));
        let engine = Engine::new();
        let (mut loaded, mut installed) = (base.clone(), base);
        let load_stats = engine.load_program(&mut loaded, &program).unwrap();
        let (install_stats, _) = engine.install_checked(&mut installed, &program).unwrap();
        assert_eq!(load_stats.strata, 2);
        assert_eq!(install_stats, load_stats);
        assert_eq!(installed.canonical_dump(), loaded.canonical_dump());
        let club = oid(&installed, "club");
        let members = oid(&installed, "members");
        assert_eq!(installed.apply_set(members, club, &[]).unwrap().len(), 2);

        // A program that is not stratifiable fails both ways with one error.
        program.push_rule(Rule::new(
            Term::var("X").filter(Filter::set_ref("pals", Term::var("X").set("pals"))),
            vec![Literal::pos(Term::var("X").isa("person"))],
        ));
        let load_err = engine.load_program(&mut Structure::new(), &program).unwrap_err();
        let install_err = engine.install_checked(&mut Structure::new(), &program).unwrap_err();
        assert!(matches!(load_err, Error::NotStratifiable(_)));
        assert_eq!(install_err.to_string(), load_err.to_string());
    }

    #[test]
    fn facts_are_data_to_the_scheduling_counters() {
        let mut s = Structure::new();
        let stats = Engine::new().run_rules(&mut s, &genealogy_facts()).unwrap();
        assert_eq!(stats.firings, 3);
        assert_eq!(stats.set_members, 5);
        assert_eq!(
            (
                stats.full_solves,
                stats.delta_solves,
                stats.rules_skipped,
                stats.plans_compiled
            ),
            (0, 0, 0, 0)
        );
    }

    /// Three strata, facts written between the rules of each.  At the
    /// bottom, the `desc` closure of a six-wide genealogy with a three-deep
    /// chain below it and beside it `parent`, `peter`'s `reach` (seeded from
    /// a one-member class) and a `boss` virtual object per ancestor; above a
    /// negation, `leaf` and a `tag` virtual object per leaf; above another,
    /// `inner`.
    fn scheduled_program() -> Vec<Rule> {
        let kids =
            |who: &str, kid: &str| Rule::fact(Term::name(who).filter(Filter::set("kids", vec![Term::name(kid)])));
        let x = || Term::var("X");
        let x_kids_y = || x().filter(Filter::set("kids", vec![Term::var("Y")]));
        let x_desc_y = || x().filter(Filter::set("desc", vec![Term::var("Y")]));
        let mut rules = wide_genealogy();
        let [desc_base, desc_step] = <[Rule; 2]>::try_from(desc_rules()).unwrap();
        rules.push(desc_base);
        rules.push(kids("g00", "c1"));
        rules.push(desc_step);
        rules.push(kids("c1", "c2"));
        rules.push(Rule::new(x().isa("parent"), vec![Literal::pos(x_kids_y())]));
        rules.push(kids("c2", "c3"));
        rules.push(Rule::fact(Term::name("peter").isa("root")));
        rules.push(Rule::new(
            x().filter(Filter::set("reach", vec![Term::var("Y")])),
            vec![Literal::pos(x_desc_y()), Literal::pos(x().isa("root"))],
        ));
        rules.push(Rule::new(
            x().scalar("boss").filter(Filter::scalar("age", Term::int(50))),
            vec![Literal::pos(x_desc_y())],
        ));
        rules.push(Rule::new(
            x().isa("leaf"),
            vec![
                Literal::pos(Term::name("peter").filter(Filter::set("desc", vec![x()]))),
                Literal::neg(x().isa("parent")),
            ],
        ));
        rules.push(Rule::fact(Term::name("nobody").isa("leaf")));
        rules.push(Rule::new(
            x().scalar("tag").filter(Filter::scalar("of", x())),
            vec![Literal::pos(x().isa("leaf"))],
        ));
        rules.push(Rule::new(
            x().isa("inner"),
            vec![Literal::pos(x_desc_y()), Literal::neg(x().isa("leaf"))],
        ));
        rules
    }

    #[test]
    fn the_schedule_of_a_stratified_run_is_pinned() {
        // Every counter of one run, scheduling and planner counters
        // included: which rules an iteration solves in full, per delta
        // literal or not at all follows from the window alone, so any
        // change to the stratum loop that moves one shows here.
        let rules = scheduled_program();
        let mut s = Structure::new();
        let stats = Engine::new().run_rules(&mut s, &rules).unwrap();
        let mut oracle = Structure::new();
        run_with(true, &mut oracle, &rules, EvalOptions::default()).unwrap();
        assert_eq!(s.canonical_dump(), oracle.canonical_dump());
        assert_eq!(
            stats,
            EvalStats {
                strata: 3,
                iterations: 13,
                firings: 160,
                scalar_facts: 58,
                set_members: 108,
                isa_edges: 40,
                signatures: 0,
                virtual_objects: 29,
                rules_skipped: 15,
                delta_solves: 25,
                full_solves: 8,
                plans_compiled: 8,
                replans: 0,
                seed_flips: 5,
            }
        );
    }

    #[test]
    fn derived_fact_limit_is_enforced_on_facts() {
        let engine = Engine::with_options(EvalOptions {
            max_derived: 4,
            ..EvalOptions::default()
        });
        let err = engine.run_rules(&mut Structure::new(), &genealogy_facts()).unwrap_err();
        assert!(matches!(
            err,
            Error::LimitExceeded {
                kind: LimitKind::DerivedFacts,
                limit: 4,
                observed: 5,
            }
        ));
    }

    /// `peter` with six kids, each with three: enough for runs of several
    /// members in the first iteration's full solve and in the delta passes.
    fn wide_genealogy() -> Vec<Rule> {
        let kids = |who: &str, kids: Vec<String>| {
            Rule::fact(Term::name(who).filter(Filter::set("kids", kids.into_iter().map(Term::name).collect())))
        };
        let mut rules = vec![kids("peter", (0..6).map(|i| format!("k{i}")).collect())];
        for i in 0..6 {
            rules.push(kids(&format!("k{i}"), (0..3).map(|j| format!("g{i}{j}")).collect()));
        }
        rules
    }

    /// `X[desc ->> {Y}]`, the transitive closure of `kids`.
    fn desc_rules() -> Vec<Rule> {
        let desc = || Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")]));
        vec![
            Rule::new(
                desc(),
                vec![Literal::pos(
                    Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
                )],
            ),
            Rule::new(
                desc(),
                vec![Literal::pos(
                    Term::var("X")
                        .set("desc")
                        .filter(Filter::set("kids", vec![Term::var("Y")])),
                )],
            ),
        ]
    }

    #[test]
    fn derived_fact_limit_fails_mid_batch_at_the_same_fact() {
        // The `kids` of `wide_genealogy` as stored facts: every derived fact
        // is a `desc` member committed through the compiled head, in runs of
        // up to six.
        let mut base = Structure::new();
        Engine::new().run_rules(&mut base, &wide_genealogy()).unwrap();
        let stored = base.facts().num_set_member_inserts();
        let run = |reference: bool, max_derived: usize| {
            let mut s = base.clone();
            let options = EvalOptions {
                max_derived,
                ..EvalOptions::default()
            };
            let outcome = run_with(reference, &mut s, &desc_rules(), options);
            (outcome, s.facts().set_members_since(0).collect::<Vec<_>>())
        };
        let (stats, log) = run(false, usize::MAX);
        let total = stats.unwrap().derived();
        assert_eq!((total, log.len()), (24 + 6 * 3, stored + total));
        assert_eq!(run(true, usize::MAX).1, log, "the reference logs what the engine logs");
        for reference in [false, true] {
            // Every limit fails at the fact one past it — mid-batch for most
            // of them — having asserted exactly what the unlimited engine
            // run had asserted up to that fact.
            for limit in 0..total {
                let (outcome, prefix) = run(reference, limit);
                assert!(
                    matches!(
                        outcome,
                        Err(Error::LimitExceeded {
                            kind: LimitKind::DerivedFacts,
                            limit: l,
                            observed,
                        }) if l == limit && observed == limit + 1
                    ),
                    "limit {limit} (reference: {reference}): {outcome:?}"
                );
                assert_eq!(
                    prefix,
                    log[..stored + limit + 1],
                    "limit {limit} (reference: {reference})"
                );
            }
        }
    }

    /// Load `rules` with the engine and with the reference fixpoint: the two
    /// must reach the same model, counters included, and each must be a
    /// model of the rules.  Returns the engine's run.
    fn run_checked(rules: &[Rule]) -> (Structure, EvalStats) {
        let run = |reference| {
            let mut s = Structure::new();
            let stats = run_with(reference, &mut s, rules, EvalOptions::default()).unwrap();
            (s, stats)
        };
        let (s, stats) = run(false);
        let (oracle, oracle_stats) = run(true);
        assert_eq!(s.canonical_dump(), oracle.canonical_dump());
        assert_eq!(stats.model_counters(), oracle_stats.model_counters());
        let program = Program {
            rules: rules.to_vec(),
            ..Program::new()
        };
        assert!(crate::semantics::is_model(&oracle, &program).unwrap());
        assert!(crate::semantics::is_model(&s, &program).unwrap());
        (s, stats)
    }

    #[test]
    fn a_summary_head_fires_once_per_receiver() {
        // X.summary[descendants ->> X..desc] <- X[kids ->> {Y}]: two
        // solutions per parent, one summary object each.
        let mut rules = wide_genealogy();
        rules.extend(desc_rules());
        rules.push(Rule::new(
            Term::var("X")
                .scalar("summary")
                .filter(Filter::set_ref("descendants", Term::var("X").set("desc"))),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let (s, stats) = run_checked(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 6,
                firings: 56,
                scalar_facts: 7,
                set_members: 108,
                virtual_objects: 7,
                rules_skipped: 2,
                delta_solves: 5,
                full_solves: 3,
                plans_compiled: 3,
                ..EvalStats::default()
            }
        );
        let summary = s.apply_scalar(oid(&s, "summary"), oid(&s, "peter"), &[]).unwrap();
        assert_eq!(s.apply_set(oid(&s, "descendants"), summary, &[]).unwrap().len(), 24);
    }

    #[test]
    fn an_isa_head_fires_once_per_receiver() {
        // X : parent <- X[kids ->> {Y}].
        let mut rules = wide_genealogy();
        rules.push(Rule::new(
            Term::var("X").isa("parent"),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let (s, stats) = run_checked(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 1,
                iterations: 3,
                firings: 14,
                set_members: 24,
                isa_edges: 7,
                rules_skipped: 1,
                delta_solves: 1,
                full_solves: 1,
                plans_compiled: 1,
                ..EvalStats::default()
            }
        );
        assert_eq!(s.extent_size(oid(&s, "parent")), 7);
    }

    #[test]
    fn a_boss_head_fires_once_per_employee_and_department() {
        // X.boss[worksFor -> D] <- X : employee[worksFor -> D], X[kids ->> {K}]
        // — the boss of an employee with kids, once however many kids.
        let employee = |who: &str, dept: &str, kids: &[&str]| {
            let mut filters = vec![Filter::scalar("worksFor", Term::name(dept))];
            if !kids.is_empty() {
                filters.push(Filter::set("kids", kids.iter().map(|&k| Term::name(k)).collect()));
            }
            Rule::fact(Term::name(who).isa("employee").filters(filters))
        };
        let rules = vec![
            employee("p1", "cs1", &["k1", "k2", "k3"]),
            employee("p2", "cs2", &[]),
            employee("p3", "cs1", &["k4"]),
            Rule::new(
                Term::var("X")
                    .scalar("boss")
                    .filter(Filter::scalar("worksFor", Term::var("D"))),
                vec![
                    Literal::pos(
                        Term::var("X")
                            .isa("employee")
                            .filter(Filter::scalar("worksFor", Term::var("D"))),
                    ),
                    Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("K")]))),
                ],
            ),
        ];
        let (s, stats) = run_checked(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 1,
                iterations: 3,
                firings: 5,
                scalar_facts: 7,
                set_members: 4,
                isa_edges: 3,
                virtual_objects: 2,
                delta_solves: 2,
                full_solves: 1,
                plans_compiled: 1,
                ..EvalStats::default()
            }
        );
        assert_eq!(stats.virtual_objects, 2, "p1.boss and p3.boss");
        assert_eq!(s.apply_scalar(oid(&s, "boss"), oid(&s, "p2"), &[]), None);
    }

    /// Three things, three `m` facts naming them in the opposite order, and a
    /// rule above a negation that tags each thing once: its full solve's
    /// written order is `B`-major (`b1` names `a3` first), its canonical
    /// order `A`-major.
    fn tag_program() -> Vec<Rule> {
        let thing = |a: &str| Rule::fact(Term::name(a).isa("thing"));
        let m = |b: &str, a: &str| Rule::fact(Term::name(b).filter(Filter::scalar("m", Term::name(a))));
        vec![
            thing("a1"),
            thing("a2"),
            thing("a3"),
            m("b1", "a3"),
            m("b2", "a1"),
            m("b3", "a2"),
            Rule::fact(Term::name("b9").isa("skip")),
            Rule::new(
                Term::var("X").isa("skip"),
                vec![Literal::pos(Term::var("X").isa("skipper"))],
            ),
            Rule::new(
                Term::var("A")
                    .scalar("tag")
                    .filter(Filter::scalar("of", Term::var("B"))),
                vec![
                    Literal::pos(Term::var("B").filter(Filter::scalar("m", Term::var("A")))),
                    Literal::neg(Term::var("B").isa("skip")),
                ],
            ),
        ]
    }

    #[test]
    fn a_full_solve_mints_in_canonical_order_in_both_modes() {
        let rules = tag_program();
        run_checked(&rules);
        for reference in [false, true] {
            let mut s = Structure::new();
            let stats = run_with(reference, &mut s, &rules, EvalOptions::default()).unwrap();
            assert_eq!((stats.strata, stats.virtual_objects), (2, 3), "{stats:?}");
            let tags = ["a1", "a2", "a3"].map(|a| s.apply_scalar(oid(&s, "tag"), oid(&s, a), &[]).unwrap());
            assert_eq!(tags, [Oid(19), Oid(20), Oid(21)], "reference: {reference}");
            let of = |tag: Oid| {
                s.display_name(s.apply_scalar(oid(&s, "of"), tag, &[]).unwrap())
                    .into_owned()
            };
            assert_eq!(tags.map(of), ["b2", "b3", "b1"]);
        }
    }

    /// [`run_checked`], and the virtual objects the run minted, in id order,
    /// each with the receiver and method of the path that defined it.
    fn run_checked_minting(rules: &[Rule]) -> (Structure, EvalStats, Vec<(String, String)>) {
        let (s, stats) = run_checked(rules);
        let minted: Vec<(String, String)> = s
            .facts()
            .scalar_facts()
            .filter(|f| s.is_virtual(f.result))
            .map(|f| {
                (
                    s.display_name(f.receiver).into_owned(),
                    s.display_name(f.method).into_owned(),
                )
            })
            .collect();
        assert_eq!(minted.len(), stats.virtual_objects);
        (s, stats, minted)
    }

    /// The stored members of `method` on `receiver`, by name.
    fn members(s: &Structure, method: &str, receiver: &str) -> Option<Vec<String>> {
        let run = s.apply_set(oid(s, method), oid(s, receiver), &[])?;
        Some(run.iter().map(|&m| s.display_name(m).into_owned()).collect())
    }

    #[test]
    fn a_summary_head_takes_each_desc_run_as_stored() {
        // X.summary[descendants ->> X..desc] <- X[kids ->> {Y}]: one stored
        // `desc` run per parent, copied whole into its summary.
        let mut rules = wide_genealogy();
        rules.extend(desc_rules());
        rules.push(Rule::new(
            Term::var("X")
                .scalar("summary")
                .filter(Filter::set_ref("descendants", Term::var("X").set("desc"))),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let (s, stats, minted) = run_checked_minting(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 6,
                firings: 56,
                scalar_facts: 7,
                set_members: 108,
                virtual_objects: 7,
                rules_skipped: 2,
                delta_solves: 5,
                full_solves: 3,
                plans_compiled: 3,
                ..EvalStats::default()
            }
        );
        let parents = ["peter", "k0", "k1", "k2", "k3", "k4", "k5"];
        assert_eq!(minted, parents.map(|p| (p.to_string(), "summary".to_string())));
        for p in parents {
            let summary = s.apply_scalar(oid(&s, "summary"), oid(&s, p), &[]).unwrap();
            let copied = s.apply_set(oid(&s, "descendants"), summary, &[]).unwrap();
            assert_eq!(copied, s.apply_set(oid(&s, "desc"), oid(&s, p), &[]).unwrap(), "{p}");
        }
    }

    #[test]
    fn an_argument_carrying_head_takes_each_application_as_stored() {
        // X[gk@(Y) ->> {Z}] <- X[kids ->> {Y}], Y[kids ->> {Z}].
        // X.card[via ->> X..gk@(Y)] <- X[kids ->> {Y}].
        // peter's card takes the grandkids under each of its six kids; a
        // kid's card finds no `gk@(g)` application (its kids have none) and
        // stays empty.
        let mut rules = wide_genealogy();
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set("gk", vec![Term::var("Z")]).with_args(vec![Term::var("Y")])),
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::pos(Term::var("Y").filter(Filter::set("kids", vec![Term::var("Z")]))),
            ],
        ));
        rules.push(Rule::new(
            Term::var("X").scalar("card").filter(Filter::set_ref(
                "via",
                Term::var("X").set_args("gk", vec![Term::var("Y")]),
            )),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let (s, stats, minted) = run_checked_minting(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 5,
                firings: 37,
                scalar_facts: 7,
                set_members: 60,
                virtual_objects: 7,
                rules_skipped: 1,
                delta_solves: 2,
                full_solves: 2,
                plans_compiled: 2,
                ..EvalStats::default()
            }
        );
        assert_eq!(minted.len(), 7);
        assert!(minted.iter().all(|(_, method)| method == "card"));
        let card = |who: &str| s.apply_scalar(oid(&s, "card"), oid(&s, who), &[]).unwrap();
        assert_eq!(s.apply_set(oid(&s, "via"), card("peter"), &[]).unwrap().len(), 18);
        assert_eq!(
            s.apply_set(oid(&s, "via"), card("k0"), &[]),
            None,
            "undefined: nothing asserted"
        );
    }

    #[test]
    fn a_head_over_a_named_receiver_takes_its_run_as_stored() {
        // X[sibs ->> peter..kids] <- peter[kids ->> {X}].
        let mut rules = wide_genealogy();
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set_ref("sibs", Term::name("peter").set("kids"))),
            vec![Literal::pos(
                Term::name("peter").filter(Filter::set("kids", vec![Term::var("X")])),
            )],
        ));
        let (s, stats, minted) = run_checked_minting(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 4,
                firings: 13,
                set_members: 60,
                rules_skipped: 1,
                full_solves: 1,
                plans_compiled: 1,
                ..EvalStats::default()
            }
        );
        assert!(minted.is_empty());
        let kids: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
        for k in &kids {
            assert_eq!(members(&s, "sibs", k).as_ref(), Some(&kids), "{k}");
        }
    }

    #[test]
    fn a_head_over_an_undefined_application_asserts_nothing() {
        // X.card[ckids ->> X..kids] <- Y[kids ->> {X}]: the grandkids have no
        // `kids` application — their cards are minted and stay empty, and
        // no error is raised.
        let mut rules = wide_genealogy();
        rules.push(Rule::new(
            Term::var("X")
                .scalar("card")
                .filter(Filter::set_ref("ckids", Term::var("X").set("kids"))),
            vec![Literal::pos(
                Term::var("Y").filter(Filter::set("kids", vec![Term::var("X")])),
            )],
        ));
        let (s, stats, minted) = run_checked_minting(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 4,
                firings: 31,
                scalar_facts: 24,
                set_members: 42,
                virtual_objects: 24,
                delta_solves: 1,
                full_solves: 1,
                plans_compiled: 1,
                ..EvalStats::default()
            }
        );
        assert_eq!(minted.len(), 24);
        let card = |who: &str| s.apply_scalar(oid(&s, "card"), oid(&s, who), &[]).unwrap();
        assert_eq!(s.apply_set(oid(&s, "ckids"), card("k0"), &[]).unwrap().len(), 3);
        assert_eq!(s.apply_set(oid(&s, "ckids"), card("g00"), &[]), None);
    }

    #[test]
    fn a_two_step_head_is_valuated() {
        // X[gkids ->> X..kids..kids] <- X[kids ->> {Y}]: no one stored
        // application, so the set is valuated.
        let mut rules = wide_genealogy();
        rules.push(Rule::new(
            Term::var("X").filter(Filter::set_ref("gkids", Term::var("X").set("kids").set("kids"))),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let (s, stats, minted) = run_checked_minting(&rules);
        assert_eq!(
            stats,
            EvalStats {
                strata: 2,
                iterations: 4,
                firings: 8,
                set_members: 42,
                rules_skipped: 1,
                full_solves: 1,
                plans_compiled: 1,
                ..EvalStats::default()
            }
        );
        assert!(minted.is_empty());
        assert_eq!(members(&s, "gkids", "peter").map(|m| m.len()), Some(18));
        assert_eq!(members(&s, "gkids", "k0"), None, "the empty set is not asserted");
    }

    #[test]
    fn the_derived_fact_limit_fails_inside_a_stored_run_as_before() {
        // The summary program with room for part of peter's 24
        // descendants: the set is merged whole, as the valuated set was,
        // and the limit reports what it held.
        let mut rules = wide_genealogy();
        rules.extend(desc_rules());
        rules.push(Rule::new(
            Term::var("X")
                .scalar("summary")
                .filter(Filter::set_ref("descendants", Term::var("X").set("desc"))),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        for reference in [false, true] {
            let options = EvalOptions {
                max_derived: 80,
                ..EvalOptions::default()
            };
            let err = run_with(reference, &mut Structure::new(), &rules, options).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::LimitExceeded {
                        kind: LimitKind::DerivedFacts,
                        limit: 80,
                        observed: 91,
                    }
                ),
                "reference: {reference}: {err:?}"
            );
        }
    }

    #[test]
    fn conflicting_scalar_facts_are_still_rejected() {
        let age = |n: i64| Rule::fact(Term::name("mary").filter(Filter::scalar("age", Term::int(n))));
        let err = Engine::new()
            .run_rules(&mut Structure::new(), &[age(30), age(31)])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "conflicting scalar results for method Oid(7) on receiver Oid(6): Oid(8) vs Oid(9)"
        );
    }

    #[test]
    fn non_ground_fact_is_rejected_before_any_fact_is_asserted() {
        let mut program = Program::new();
        program.push_rule(Rule::fact(Term::name("mary").isa("person")));
        program.push_rule(Rule::fact(Term::var("X").isa("person")));
        for static_checks in [StaticChecks::WarnOnly, StaticChecks::Enforce] {
            let engine = Engine::with_options(EvalOptions {
                static_checks,
                ..EvalOptions::default()
            });
            let mut s = Structure::new();
            let err = engine.install_checked(&mut s, &program).unwrap_err();
            match static_checks {
                StaticChecks::WarnOnly => assert!(matches!(err, Error::InvalidRule(_)), "{err:?}"),
                StaticChecks::Enforce => assert!(matches!(err, Error::StaticRejected(_)), "{err:?}"),
            }
            assert_eq!(s.stats().isa_edges, 0, "{static_checks:?}: mary must not be asserted");
        }
    }

    #[test]
    fn engine_analyze_reports_the_engines_strata() {
        let mut program = Program::new();
        program.push_rule(Rule::fact(
            Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim")])),
        ));
        program.push_rule(Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        ));
        let engine = Engine::new();
        let analysis = engine.analyze(None, &program);
        assert!(analysis.diagnostics.is_empty(), "{}", analysis.diagnostics);
        let strata = analysis.strata.as_ref().unwrap();
        let infos = crate::program::validate_program(&program).unwrap();
        assert_eq!(*strata, stratify(&infos).unwrap());
    }
}
