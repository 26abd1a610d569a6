//! Shared harness for the PathLog experiments.
//!
//! Every experiment in `EXPERIMENTS.md` is a function here, used both by the
//! Criterion benches (`benches/*.rs`) and by the `experiments` binary that
//! prints the result tables.  Each function takes a prepared
//! [`Structure`] (so data generation is outside the measured region) and
//! returns a small, checkable result (a count or a set size), which the
//! integration tests compare across the PathLog engine and the baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use pathlog_baseline::relational::{queries as relq, tc};
use pathlog_baseline::{evaluate_onedim, materialize, OneDimQuery, RelationalDb, ViewDef};
use pathlog_core::names::Name;
use pathlog_core::prelude::*;
use pathlog_datagen::{CompanyParams, GenealogyParams};
use pathlog_parser::{parse_program, parse_term};

/// Workload construction shared by benches, examples and tests.
pub mod workloads {
    use super::*;

    /// A company structure with roughly `employees` employees.
    pub fn company(employees: usize) -> Structure {
        pathlog_datagen::company_structure(&CompanyParams::scaled(employees))
    }

    /// A genealogy structure of the given depth and fan-out.
    pub fn genealogy(depth: usize, fanout: usize) -> Structure {
        pathlog_datagen::genealogy_structure(&GenealogyParams {
            roots: 1,
            depth,
            fanout,
            seed: 42,
        })
    }

    /// The genealogy workload with the datagen scale presets applied: the
    /// default single-tree parameters, or the 10x preset
    /// ([`GenealogyParams::scaled10`], ten independent trees) when
    /// `tenfold` is set — the E19 memory experiment's large-scale arm.
    pub fn genealogy_at_scale(depth: usize, fanout: usize, tenfold: bool) -> Structure {
        let base = if tenfold {
            GenealogyParams::scaled10()
        } else {
            GenealogyParams::default()
        };
        pathlog_datagen::genealogy_structure(&GenealogyParams { depth, fanout, ..base })
    }

    /// The exact six-person family of Section 6.
    pub fn paper_family() -> Structure {
        pathlog_datagen::paper_family().to_structure()
    }

    /// A bill-of-materials (parts explosion) structure of the given depth.
    pub fn bom(depth: usize) -> Structure {
        pathlog_datagen::bom_structure(&pathlog_datagen::BomParams::with_depth(depth))
    }
}

/// Experiment E1: colours of employees' automobiles (queries 1.1–1.3).
pub mod colours {
    use super::*;

    /// PathLog formulation: one reference, `X:employee..vehicles:automobile.color[Z]`.
    pub fn pathlog(structure: &Structure) -> usize {
        let term = parse_term("X : employee..vehicles : automobile.color[Z]").expect("valid query");
        let engine = Engine::new();
        let colours: BTreeSet<Oid> = engine
            .query_term(structure, &term)
            .expect("query evaluates")
            .into_iter()
            .map(|a| a.object)
            .collect();
        colours.len()
    }

    /// O2SQL-style formulation (query 1.1): two range variables + membership condition.
    pub fn onedim(structure: &Structure) -> usize {
        let q = OneDimQuery::new()
            .from_class("X", "employee")
            .from_set("Y", "X", "vehicles")
            .where_isa("Y", "automobile")
            .select_path("Y", &["color"]);
        evaluate_onedim(structure, &q).len()
    }

    /// Flat relational formulation: three joins.
    pub fn relational(db: &RelationalDb) -> usize {
        relq::employee_automobile_colours(db).len()
    }
}

/// Experiment E2: the two-dimensional reference (2.1) versus the conjunction
/// of one-dimensional paths (1.4) and the relational plan.
pub mod two_dimensional {
    use super::*;

    /// The paper's reference (2.1), evaluated as a single PathLog reference.
    pub fn pathlog(structure: &Structure) -> usize {
        let term =
            parse_term("X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]")
                .expect("valid query");
        Engine::new()
            .query_term(structure, &term)
            .expect("query evaluates")
            .len()
    }

    /// The same question as a conjunction of one-dimensional paths (1.4).
    pub fn onedim(structure: &Structure) -> usize {
        let q = OneDimQuery::new()
            .from_class("X", "employee")
            .from_set("Y", "X", "vehicles")
            .where_path_const("X", &["age"], Name::Int(30))
            .where_path_const("X", &["city"], Name::atom("newYork"))
            .where_isa("Y", "automobile")
            .where_path_const("Y", &["cylinders"], Name::Int(4))
            .select_var("X")
            .select_path("Y", &["color"]);
        evaluate_onedim(structure, &q).len()
    }

    /// The relational plan (six joins + three selections).
    pub fn relational(structure: &Structure, db: &RelationalDb) -> usize {
        relq::filtered_automobile_colours(structure, db).len()
    }
}

/// Experiment E3: the Section 2 manager query (red vehicle, produced in
/// Detroit, president is the owner).
pub mod manager_query {
    use super::*;

    /// One PathLog reference.
    pub fn pathlog(structure: &Structure) -> usize {
        let term = parse_term("X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]")
            .expect("valid query");
        let engine = Engine::new();
        let managers: BTreeSet<Oid> = engine
            .query_term(structure, &term)
            .expect("query evaluates")
            .into_iter()
            .filter_map(|a| a.bindings.get(&Var::new("X")))
            .collect();
        managers.len()
    }

    /// O2SQL-style: several FROM and WHERE clauses.
    pub fn onedim(structure: &Structure) -> usize {
        let q = OneDimQuery::new()
            .from_class("X", "manager")
            .from_set("Y", "X", "vehicles")
            .where_path_const("Y", &["color"], Name::atom("red"))
            .where_path_const("Y", &["producedBy", "cityOf"], Name::atom("detroit"))
            .where_path_var("Y", &["producedBy", "president"], "X")
            .select_var("X");
        evaluate_onedim(structure, &q).len()
    }

    /// Relational join plan.
    pub fn relational(structure: &Structure, db: &RelationalDb) -> usize {
        relq::manager_red_detroit_presidents(structure, db).len()
    }
}

/// Experiment E4/E6/E9: virtual objects (the address rule 2.4 and the
/// employee-boss rule 6.1) versus XSQL-style views (6.3).
pub mod virtual_objects {
    use super::*;

    /// Materialise address objects with the PathLog rule (2.4).  Returns the
    /// number of virtual objects created.
    pub fn pathlog_addresses(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let program =
            parse_program("X.address[street -> X.street; city -> X.city] <- X : employee.").expect("valid rule");
        let stats = Engine::new().load_program(&mut s, &program).expect("rule evaluates");
        stats.virtual_objects
    }

    /// Materialise the same information with an XSQL-style view.  Returns the
    /// number of view objects created.
    pub fn xsql_view_addresses(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let view = ViewDef::new("Address", "employee")
            .attr("street", &["street"])
            .attr("city", &["city"]);
        materialize(&mut s, &view).objects
    }

    /// The employee-boss rule (6.1): every employee gets a (virtual) boss that
    /// works for the same department.
    pub fn pathlog_virtual_bosses(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let program = parse_program("X.boss2[worksFor -> D] <- X : employee[worksFor -> D].").expect("valid rule");
        let stats = Engine::new().load_program(&mut s, &program).expect("rule evaluates");
        stats.virtual_objects
    }

    /// The XSQL view (6.3) for the same derived information.
    pub fn xsql_employee_boss_view(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let view = ViewDef::new("EmployeeBoss", "employee").attr("WorksFor", &["worksFor"]);
        materialize(&mut s, &view).objects
    }
}

/// Experiment E7: transitive closure (`desc` rules 6.4 and generic `kids.tc`)
/// versus the relational semi-naive baseline.
pub mod transitive_closure {
    use super::*;

    /// The PathLog program of (6.4).
    pub const DESC_RULES: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                                  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].";

    /// The generic transitive-closure program of Section 6, guarded by a
    /// class of base methods so that `tc` is only applied to extensionally
    /// given methods (the unguarded program has an infinite minimal model —
    /// see DESIGN.md).
    pub const GENERIC_TC_RULES: &str = "kids : baseMethod.\n\
                                        X[(M.tc) ->> {Y}] <- M : baseMethod, X[M ->> {Y}].\n\
                                        X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}].";

    /// Evaluate the `desc` rules; returns the total number of derived set members.
    pub fn pathlog_desc(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let program = parse_program(DESC_RULES).expect("valid rules");
        Engine::new()
            .load_program(&mut s, &program)
            .expect("rules evaluate")
            .set_members
    }

    /// Evaluate the generic `kids.tc` rules; returns the derived set members.
    pub fn pathlog_generic(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let program = parse_program(GENERIC_TC_RULES).expect("valid rules");
        Engine::new()
            .load_program(&mut s, &program)
            .expect("rules evaluate")
            .set_members
    }

    /// Relational semi-naive closure of the flat `kids` relation; returns the
    /// number of pairs in the closure.
    pub fn relational(db: &RelationalDb) -> usize {
        let base = db.attr("kids", "parent", "child");
        tc::transitive_closure(&base).len()
    }

    /// The deep-tree closure workload of the E15 `delta_driven` ablation:
    /// the `desc` rules plus the set-copying summary rule (a second stratum
    /// with virtual-object heads), the same program as the
    /// `ablation_delta_driven` bench group.
    pub const ABLATION_RULES: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                                      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
                                      X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].";
}

/// Experiment E10: parser throughput over the paper's concrete syntax.
pub mod parsing {
    use super::*;

    /// Every concrete-syntax expression quoted in the paper.
    pub const PAPER_EXPRESSIONS: &[&str] = &[
        "X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]",
        "X[age -> 30; city -> newYork].vehicles[cylinders -> 4][Y].color[Z]",
        "X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]",
        "mary.spouse[boss -> mary].age",
        "mary.spouse[boss -> mary[age -> 25]]",
        "john.salary@(1994)",
        "mary[age -> 30; boss -> peter]",
        "L : (integer.list)",
        "p1..assistants[salary -> 1000]",
        "p2[friends ->> {p3, p4}]",
        "p2[friends ->> p1..assistants]",
        "p1..assistants.salary",
        "p1..assistants..projects",
        "p1.paidFor@(p1..vehicles)",
        "p1[assistants ->> {X[salary -> 1000]}]",
        "john..kids..kids",
        "X[power -> Y] <- X : automobile.engineOf[power -> Y].",
        "X.boss[worksFor -> D] <- X : employee[worksFor -> D].",
        "Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].",
        "X.address[street -> X.street; city -> X.city] <- X : person.",
        "X[desc ->> {Y}] <- X[kids ->> {Y}].",
        "X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
        "X[(M.tc) ->> {Y}] <- X[M ->> {Y}].",
        "X[(M.tc) ->> {Y}] <- X..(M.tc)[M ->> {Y}].",
        "peter[kids ->> {tim, mary}].",
    ];

    /// Parse every paper expression once; returns the number parsed.
    pub fn parse_all() -> usize {
        let mut n = 0;
        for src in PAPER_EXPRESSIONS {
            if src.contains("<-") || src.trim_end().ends_with("}.") {
                pathlog_parser::parse_rule(src).expect("paper rule parses");
            } else {
                parse_term(src).expect("paper expression parses");
            }
            n += 1;
        }
        n
    }
}

/// Experiment E11: the direct semantics versus the F-logic translation
/// baseline (the contrast drawn in Section 2: "semantics is only sketched by
/// a transformation into F-logic, while we will give a direct semantics").
pub mod flogic_translation {
    use super::*;
    use pathlog_flogic::{FlatEngine, Translator};

    /// The filtered two-dimensional query used as the measured workload.
    pub const QUERY: &str = "?- X : employee..vehicles : automobile[cylinders -> 4].color[Z].";

    /// Answer the query with the direct semantics.
    pub fn direct(structure: &Structure) -> usize {
        let program = parse_program(QUERY).expect("query parses");
        Engine::new()
            .query(structure, &program.queries[0])
            .expect("query evaluates")
            .len()
    }

    /// Translate the query into flat molecules and answer it with the flat
    /// evaluator (includes translation time, which is part of the approach).
    pub fn translated(structure: &Structure) -> usize {
        let program = parse_program(QUERY).expect("query parses");
        let (flat, _) = Translator::new().program(&program).expect("query translates");
        FlatEngine::new()
            .query(structure, &flat.queries[0])
            .expect("flat query evaluates")
            .len()
    }

    /// The number of flat atoms the single PathLog reference expands into —
    /// the compactness measure of the "second dimension".
    pub fn translation_atoms() -> usize {
        let program = parse_program(QUERY).expect("query parses");
        let (_, stats) = Translator::new().program(&program).expect("query translates");
        stats.flat_atoms
    }
}

/// Experiment E12: the object-SQL frontend (O2SQL/XSQL surface syntax
/// compiled to PathLog) versus the native PathLog formulation.
pub mod sql_frontend {
    use super::*;
    use pathlog_sqlfront::{compile_query, execute_query, Catalog};

    /// Query (1.4) on the SQL surface.
    pub const SQL: &str = "SELECT Z FROM employee X, automobile Y WHERE X.vehicles[Y].color[Z] AND Y.cylinders[4]";
    /// The same question as a native PathLog reference.
    pub const PATHLOG: &str = "X : employee..vehicles : automobile[cylinders -> 4].color[Z]";

    /// The catalog the SQL compiler needs (which attributes are set-valued).
    pub fn catalog() -> Catalog {
        Catalog::with_set_attrs(["vehicles", "assistants", "friends", "kids"])
    }

    /// Compile the SQL text and execute it; returns the number of result rows.
    pub fn sql(structure: &Structure, catalog: &Catalog) -> usize {
        let compiled = compile_query(SQL, catalog).expect("SQL compiles");
        execute_query(structure, &compiled).expect("SQL executes").1.len()
    }

    /// Compile only (parse + translation to PathLog); returns the number of
    /// body literals of the compiled query.
    pub fn sql_compile_only(catalog: &Catalog) -> usize {
        compile_query(SQL, catalog).expect("SQL compiles").query.body.len()
    }

    /// Parse and evaluate the native PathLog reference; returns the number of
    /// distinct colours (the same result-column the SQL query projects).
    pub fn native(structure: &Structure) -> usize {
        let term = parse_term(PATHLOG).expect("reference parses");
        let colours: BTreeSet<Oid> = Engine::new()
            .query_term(structure, &term)
            .expect("reference evaluates")
            .into_iter()
            .filter_map(|a| a.bindings.get(&Var::new("Z")))
            .collect();
        colours.len()
    }
}

/// Experiment E13: production rules and active triggers (the paper's "other
/// kinds of rule languages") over the company workload.
pub mod reactive_rules {
    use super::*;
    use pathlog_core::program::Literal;
    use pathlog_core::term::{Filter, Term};
    use pathlog_reactive::{Action, ActiveStore, EcaAction, EcaRule, Event, ProductionEngine, ProductionRule};

    /// Run the minimum-wage production rule set (retract + assert) to
    /// quiescence; returns the number of rule firings.
    pub fn production_minimum_wage(structure: &Structure) -> usize {
        let mut s = structure.clone();
        s.int(60_000);
        let mut engine = ProductionEngine::new();
        engine.add_rule(ProductionRule::new(
            "minimum-wage",
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(60_000)])),
            ],
            vec![
                Action::Retract(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
                Action::Assert(Term::var("X").filter(Filter::scalar("salary", Term::int(60_000)))),
            ],
        ));
        engine.run(&mut s).expect("production rules reach quiescence").firings
    }

    /// E18 production workload: a three-phase classification cascade whose
    /// later phases stop touching the earlier phases' read keys — the shape
    /// delta-gated re-matching exploits (`staff` reads only `employee`,
    /// the band rules read `staff`/`salary`, and band assertions wake no
    /// rule at all).  Returns the run's statistics, the firing trace and
    /// the quiescent structure's canonical dump, so callers can cross-check
    /// arms bit-for-bit.
    pub fn production_classify(
        structure: &Structure,
        options: pathlog_reactive::ProductionOptions,
    ) -> (pathlog_reactive::ProductionStats, Vec<pathlog_reactive::Firing>, String) {
        let mut s = structure.clone();
        // The band threshold must exist in the universe for the comparison
        // literals to valuate it.
        s.int(60_000);
        let mut engine = ProductionEngine::with_options(options);
        engine.add_rule(ProductionRule::new(
            "staff",
            vec![Literal::pos(Term::var("X").isa("employee"))],
            vec![Action::Assert(Term::var("X").isa("staff"))],
        ));
        engine.add_rule(ProductionRule::new(
            "low-band",
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("staff")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(60_000)])),
            ],
            vec![Action::Assert(Term::var("X").isa("lowBand"))],
        ));
        engine.add_rule(ProductionRule::new(
            "high-band",
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("staff")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                Literal::pos(Term::var("S").scalar_args("ge", vec![Term::int(60_000)])),
            ],
            vec![Action::Assert(Term::var("X").isa("highBand"))],
        ));
        let (stats, trace) = engine.run_traced(&mut s).expect("classification reaches quiescence");
        (stats, trace, s.canonical_dump())
    }

    /// E18 active workload: `updates` salary updates through a store whose
    /// fan-out rule set matches several rules per event plus a second-level
    /// audit cascade.  Each update performs three external mutations (retract
    /// salary, retract the stale bonus, assert the new salary).  Returns the
    /// aggregated statistics and the final structure's canonical dump.
    pub fn active_fanout_updates(structure: &Structure, updates: usize) -> (pathlog_reactive::ActiveStats, String) {
        use pathlog_reactive::ActiveStats;
        let mut store = ActiveStore::new(structure.clone());
        store.add_rule(EcaRule::new(
            "mark-paid",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("paid"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "keep-history",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddSetMember {
                receiver: Term::var("Receiver"),
                method: Name::atom("payHistory"),
                member: Term::var("Value"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "derive-bonus",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("bonusBase"),
                value: Term::var("Value"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "audit",
            Event::ScalarAsserted(Name::atom("bonusBase")),
            vec![],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("audited"),
            }],
        ));
        let salary = store.oid("salary");
        let bonus = store.oid("bonusBase");
        let mut total = ActiveStats::default();
        for i in 0..updates {
            let employee = store.oid(&format!("e{i}"));
            let amount = store.int(70_000 + i as i64);
            total.merge(&store.retract_scalar(salary, employee).expect("retraction triggers run"));
            total.merge(
                &store
                    .retract_scalar(bonus, employee)
                    .expect("bonus retraction triggers run"),
            );
            total.merge(
                &store
                    .assert_scalar(salary, employee, amount)
                    .expect("assertion triggers run"),
            );
        }
        (total, store.into_structure().canonical_dump())
    }

    /// Push `updates` salary updates through an active store with a
    /// two-level trigger cascade; returns the total number of trigger firings.
    pub fn active_salary_cascade(structure: &Structure, updates: usize) -> usize {
        let mut store = ActiveStore::new(structure.clone());
        store.add_rule(EcaRule::new(
            "derive-bonus",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("bonusBase"),
                value: Term::var("Value"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "audit",
            Event::ScalarAsserted(Name::atom("bonusBase")),
            vec![],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("audited"),
            }],
        ));
        let salary = store.oid("salary");
        let mut firings = 0;
        for i in 0..updates {
            let employee = store.oid(&format!("e{i}"));
            let amount = store.int(70_000 + i as i64);
            store.retract_scalar(salary, employee).expect("retraction triggers run");
            // the bonusBase from the previous round must not conflict
            let bonus = store.oid("bonusBase");
            store
                .retract_scalar(bonus, employee)
                .expect("bonus retraction triggers run");
            firings += store
                .assert_scalar(salary, employee, amount)
                .expect("assertion triggers run")
                .firings;
        }
        firings
    }
}

/// Experiment E14: the Section 6 transitive-closure rules on a
/// bill-of-materials DAG (deep recursion with shared sub-assemblies).
pub mod parts_explosion {
    use super::*;

    /// The closure rules, with `subparts` in place of `kids`.
    pub const CONTAINS_RULES: &str = "X[contains ->> {Y}] <- X[subparts ->> {Y}].\n\
                                      X[contains ->> {Y}] <- X..contains[subparts ->> {Y}].";

    /// Evaluate the closure rules; returns the derived set members.
    pub fn pathlog(structure: &Structure) -> usize {
        let mut s = structure.clone();
        let program = parse_program(CONTAINS_RULES).expect("closure rules parse");
        Engine::new()
            .load_program(&mut s, &program)
            .expect("closure rules evaluate")
            .set_members
    }

    /// Relational semi-naive closure of the flat `subparts` relation.
    pub fn relational(db: &RelationalDb) -> usize {
        let base = db.attr("subparts", "parent", "child");
        tc::transitive_closure(&base).len()
    }
}

/// Experiment E21: the cost-based join planner.
pub mod join_planning {
    use super::*;

    /// The filtered-closure workload: the recursive `desc` closure plus a
    /// 3-literal join whose *written* order is deliberately bad — the big
    /// derived `desc` relation comes first, then the `kids` join, and the
    /// highly selective `special` class test dead last.  Written order
    /// enumerates the full closure per pass; the planner reorders to seed
    /// from `special` (a handful of objects) and join outward.
    pub const FILTERED_CLOSURE_RULES: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                                              X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
                                              X[sdesc ->> {Y}] <- X[desc ->> {Y}], Y[kids ->> {Z}], Z : special.";

    /// A genealogy tree of `depth`/`fanout` with a sparse `special` class:
    /// every 37th distinct child node (in oid order) is special, so the
    /// class stays a small fraction of the universe at every scale.
    pub fn workload(depth: usize, fanout: usize) -> Structure {
        let mut s = workloads::genealogy(depth, fanout);
        let kids = s.atom("kids");
        let special = s.atom("special");
        let mut members: Vec<Oid> = s
            .facts()
            .set_facts()
            .filter(|f| f.method == kids)
            .flat_map(|f| f.members.iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        for &o in members.iter().step_by(37) {
            s.add_isa(o, special);
        }
        s
    }

    /// Evaluate the filtered-closure rules under `options`; returns the
    /// run's [`EvalStats`] and the model's canonical dump, so callers can
    /// counter-assert engine ≡ oracle bit for bit.
    pub fn run(structure: &Structure, options: EvalOptions) -> (EvalStats, String) {
        let mut s = structure.clone();
        let program = parse_program(FILTERED_CLOSURE_RULES).expect("filtered-closure rules parse");
        let stats = Engine::with_options(options)
            .load_program(&mut s, &program)
            .expect("filtered-closure rules evaluate");
        (stats, s.canonical_dump())
    }

    /// Evaluate with default options; returns the derived set members —
    /// the Criterion-bench entry point.
    pub fn members(structure: &Structure) -> usize {
        run(structure, EvalOptions::default()).0.set_members
    }
}

/// Peak-RSS measurement for the memory experiments (Linux only; zero on
/// platforms or containers where `/proc` is unavailable, so callers must
/// gate assertions on a non-zero reading).
pub mod rss {
    /// The process's peak resident set size in kilobytes (`VmHWM` from
    /// `/proc/self/status`), or 0 when it cannot be read.
    pub fn peak_rss_kb() -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            }
        }
        0
    }

    /// Reset the peak-RSS watermark to the current RSS (write `5` to
    /// `/proc/self/clear_refs`, Linux >= 4.0).  Returns whether the reset
    /// succeeded; per-arm deltas are only meaningful when it did.
    pub fn reset_peak_rss() -> bool {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    /// Measure the peak-RSS increment of running `f`: reset the watermark,
    /// run, and report `(result, delta_kb)`.  The delta is 0 when the
    /// platform does not support the reset (never negative).
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let supported = reset_peak_rss();
        let before = peak_rss_kb();
        let result = f();
        let after = peak_rss_kb();
        let delta = if supported { after.saturating_sub(before) } else { 0 };
        (result, delta)
    }
}

/// Experiment E19: columnar fact storage + factorized path answers — the
/// memory side of the refactor.  Compares the exploded tuple representation
/// of `X..desc` answers against the factorized DAG (which shares the fact
/// table's member runs), on the closure of a deep genealogy.
pub mod columnar_factorized {
    use super::*;

    /// The query whose answers are product-shaped after closure.
    pub const QUERY: &str = "X..desc";

    /// Run the `desc` closure rules on a clone of `structure` and return the
    /// closed structure (shared by both representation arms, so the closure
    /// itself is outside any measured region).
    pub fn close(structure: &Structure) -> Structure {
        let mut s = structure.clone();
        let program = parse_program(transitive_closure::DESC_RULES).expect("closure rules parse");
        Engine::new().load_program(&mut s, &program).expect("closure evaluates");
        s
    }

    /// Materialize the exploded answer tuples of [`QUERY`].
    pub fn materialized(closed: &Structure) -> Vec<Answer> {
        let term = parse_term(QUERY).expect("query parses");
        Engine::new().query_term(closed, &term).expect("query evaluates")
    }

    /// Build the factorized answer DAG of [`QUERY`].
    pub fn factorized(closed: &Structure) -> FactorizedAnswers {
        let term = parse_term(QUERY).expect("query parses");
        Engine::new()
            .query_term_factorized(closed, &term)
            .expect("query evaluates")
    }

    /// Check that the factorized enumeration is bit-identical to the
    /// materialized tuples — same answers, same order — without
    /// re-materializing the DAG into a second tuple vector.
    pub fn enumeration_matches(fact: &FactorizedAnswers, tuples: &[Answer]) -> bool {
        let mut i = 0usize;
        let mut ok = true;
        fact.for_each(&mut |bindings, object| {
            ok = ok && i < tuples.len() && tuples[i].bindings == *bindings && tuples[i].object == object;
            i += 1;
        });
        ok && i == tuples.len()
    }
}

/// Experiment E20: check-on-commit integrity constraints.  Guarded
/// transactions over the datagen company store, comparing the incremental
/// (delta-gated) constraint check at commit against a forced full re-check,
/// plus the quarantine arm: inconsistency-tolerant degradation under pay
/// cuts that violate the wage-floor constraint.
pub mod constraints_commit {
    use super::*;
    use pathlog_oodb::{CommitError, ObjectStore, Value};

    /// The wage floor of the `underpaid` denial constraint.
    pub const WAGE_FLOOR: i64 = 40_000;

    /// The guarded company store at the given scale.  One salary is pinned
    /// to the exact floor so the comparison literal's threshold is interned
    /// in the image the guard checks (builtins only relate interned
    /// integers).
    pub fn store(employees: usize) -> ObjectStore {
        let mut db = pathlog_datagen::generate_company(&CompanyParams::scaled(employees));
        db.set("e0", "salary", Value::Int(WAGE_FLOOR)).expect("e0 exists");
        db
    }

    /// The E20 denial constraints: no self-bossing, no self-friendship, no
    /// salary below the wage floor.  `wage_policy` selects what happens to
    /// wage violations (the structural rules always reject).
    pub fn constraints(wage_policy: ConstraintPolicy) -> ConstraintSet {
        [
            Constraint::new(
                "self_boss",
                vec![Literal::pos(
                    Term::var("X").filter(Filter::scalar("boss", Term::var("X"))),
                )],
                ConstraintPolicy::Reject,
            )
            .expect("range-restricted"),
            Constraint::new(
                "self_friend",
                vec![Literal::pos(
                    Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
                )],
                ConstraintPolicy::Reject,
            )
            .expect("range-restricted"),
            Constraint::new(
                "underpaid",
                vec![
                    Literal::pos(
                        Term::var("X")
                            .isa("employee")
                            .filter(Filter::scalar("salary", Term::var("S"))),
                    ),
                    Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(WAGE_FLOOR)])),
                ],
                wage_policy,
            )
            .expect("range-restricted"),
        ]
        .into_iter()
        .collect()
    }

    /// The outcome of one guarded-commit run.
    pub struct CommitRun {
        /// Commits that passed the check.
        pub committed: usize,
        /// Commits rejected (and rolled back) by a constraint.
        pub rejected: usize,
        /// Constraint names of the rejecting violations, in commit order —
        /// the cross-check between the incremental and full arms.
        pub rejections: Vec<String>,
        /// Wage violations already present in the generated data, accepted
        /// at install time (inconsistency tolerance of pre-existing state).
        pub baseline_violations: usize,
        /// The check counters of the run, summed over every guard installed
        /// in it.
        pub stats: CheckStats,
    }

    /// Run `updates` guarded commits over a fresh store: friend-edge adds,
    /// with every fifth commit attempting an illegal self-friendship that
    /// must be rejected and rolled back.  With `force_full`, the guard is
    /// installed anew before each transaction, so every commit pays what a
    /// checker without watermarks pays — all constraints re-solved over the
    /// whole store — and is then judged against that fresh baseline: the
    /// ablation the incremental path is measured against.  (Touching the
    /// store directly would not do: the store's image follows a direct
    /// mutation and the next commit checks it as one more delta.)
    pub fn run_commits(employees: usize, updates: usize, force_full: bool) -> CommitRun {
        let mut db = store(employees);
        let baseline = db
            .set_constraints(constraints(ConstraintPolicy::Reject), Engine::new())
            .expect("constraints install");
        let (mut committed, mut rejected) = (0usize, 0usize);
        let mut rejections = Vec::new();
        let mut stats = CheckStats::default();
        let mut retire = |db: &ObjectStore| {
            let guard = db.constraint_guard().expect("guard installed").stats();
            stats.checks += guard.checks;
            stats.full_checks += guard.full_checks;
            stats.condition_solves += guard.condition_solves;
            stats.constraints_skipped += guard.constraints_skipped;
            stats.retraction_skips += guard.retraction_skips;
        };
        for i in 0..updates {
            if force_full {
                retire(&db);
                db.set_constraints(constraints(ConstraintPolicy::Reject), Engine::new())
                    .expect("constraints re-install");
            }
            let a = format!("e{}", i % employees);
            if i % 5 == 4 {
                let mut txn = db.begin();
                txn.add(&a, "friends", Value::obj(&a)).expect("stage self-friendship");
                match txn.commit() {
                    Err(CommitError::Rejected { violations, .. }) => {
                        rejected += 1;
                        rejections.extend(violations.into_iter().map(|v| v.constraint.to_string()));
                    }
                    other => panic!("self-friendship must be rejected, got {other:?}"),
                }
            } else {
                let mut b = format!("e{}", (i * 7 + 1) % employees);
                if b == a {
                    b = format!("e{}", (i * 7 + 2) % employees);
                }
                let mut txn = db.begin();
                txn.add(&a, "friends", Value::obj(&b)).expect("stage friend edge");
                let receipt = txn.commit().expect("legal friend edge commits");
                assert!(receipt.checked, "the guard checked the commit");
                committed += 1;
            }
        }
        retire(&db);
        CommitRun {
            committed,
            rejected,
            rejections,
            baseline_violations: baseline.len(),
            stats,
        }
    }

    /// The salary query served during degraded operation.
    pub fn salary_query() -> Query {
        Query::new(vec![
            Literal::pos(Term::var("X").isa("employee")),
            Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
        ])
    }

    /// The outcome of the quarantine (tolerant-degradation) arm.
    pub struct QuarantineRun {
        /// Violations quarantined (facts tagged, commit allowed) over the run.
        pub quarantined: usize,
        /// Tolerant answers whose derivation needs a quarantined fact.
        pub tainted: usize,
        /// Tolerant answers derivable from the consistent part alone.
        pub clean: usize,
        /// Classical answer count on the same (inconsistent) structure —
        /// must equal `tainted + clean`: quarantine degrades answers, it
        /// does not drop them.
        pub classical: usize,
    }

    /// Under a `Quarantine` wage policy, commit `cuts` pay cuts below the
    /// wage floor — each commits successfully with its violating facts
    /// tagged — then serve the salary query tolerantly and classically.
    pub fn run_quarantine(employees: usize, cuts: usize) -> QuarantineRun {
        let mut db = store(employees);
        let engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        db.set_constraints(constraints(ConstraintPolicy::Quarantine), engine)
            .expect("constraints install");
        let mut quarantined = 0usize;
        for i in 0..cuts {
            let a = format!("e{}", (i * 3) % employees);
            let mut txn = db.begin();
            txn.set(&a, "salary", Value::Int(10_000 + i as i64))
                .expect("stage pay cut");
            let receipt = txn.commit().expect("quarantine policy commits");
            quarantined += receipt.quarantined.len();
        }
        let answers = db.tolerant_query(&salary_query()).expect("tolerant query serves");
        let tainted = answers
            .answers
            .iter()
            .filter(|a| !matches!(a.status, ConsistencyStatus::Clean))
            .count();
        let clean = answers.answers.len() - tainted;
        let classical = Engine::new()
            .query(&db.to_structure(), &salary_query())
            .expect("classical query serves")
            .len();
        QuarantineRun {
            quarantined,
            tainted,
            clean,
            classical,
        }
    }
}

/// Experiment 22: the MVCC snapshot serving layer — many concurrent
/// pinned-snapshot reader sessions over a single-writer guarded commit
/// pipeline ([`ObjectStore::begin_session`](pathlog_oodb::ObjectStore::begin_session)).
///
/// The workload replays the E20 commit schedule (friend-edge adds, every
/// fifth an illegal self-friendship the guard rejects) while fanning a
/// fresh [`Session`](pathlog_oodb::Session) to every reader thread after
/// each commit attempt.  Readers dump and query their pinned epoch while
/// the writer races ahead, so epoch `k` pins are routinely alive during
/// commits at epochs `> k` — exactly the isolation the cross-check
/// verifies: every observed `(epoch, canonical_dump)` pair must be
/// bit-identical to the one a **sequential oracle** records when it
/// replays the identical history with no concurrency at all.
pub mod serving {
    use super::*;
    use pathlog_oodb::{CommitError, ObjectStore, Value};
    use std::collections::BTreeMap;
    use std::sync::mpsc;
    use std::time::Instant;

    /// One arm of the E22 grid.
    #[derive(Debug, Clone, Copy)]
    pub struct ServingParams {
        /// Company scale (employees).
        pub employees: usize,
        /// Concurrent reader threads; each receives one session per commit
        /// attempt.
        pub sessions: usize,
        /// Writer commit attempts (every fifth is rejected by the guard and
        /// publishes no epoch).
        pub commits: usize,
    }

    /// The outcome of one serving run.  Construction already asserts the
    /// invariants that do not need the oracle (epoch monotonicity, readers
    /// at the same epoch agreeing, full reclamation); the caller checks
    /// the dumps against [`sequential_oracle`].
    #[derive(Debug)]
    pub struct ServingRun {
        /// Commits that passed the guard (each published one epoch).
        pub committed: usize,
        /// Commits rejected and rolled back (no epoch published).
        pub rejected: usize,
        /// Reader session reads completed (`sessions * (commits + 1)`,
        /// counting the pre-commit bootstrap round).
        pub reads: usize,
        /// Per-read latency samples (pin + dump + salary query), in µs.
        pub read_us: Vec<u64>,
        /// Per-commit-attempt writer latencies (begin/stage/commit), in µs.
        pub commit_us: Vec<u64>,
        /// The canonical dump every reader observed at each pinned epoch —
        /// already asserted identical across readers of the same epoch.
        pub dumps: BTreeMap<Epoch, String>,
        /// Registry lifetime counters at the end of the run.
        pub stats: SnapshotStats,
        /// Epochs still retained after all sessions dropped — an epoch
        /// leak unless zero.
        pub pinned_after: usize,
    }

    /// The guarded store every arm (and the oracle) starts from.
    pub fn guarded_store(employees: usize) -> ObjectStore {
        let mut db = constraints_commit::store(employees);
        db.set_constraints(constraints_commit::constraints(ConstraintPolicy::Reject), Engine::new())
            .expect("constraints install");
        db
    }

    /// Perform commit attempt `i` of the shared schedule.  Returns the
    /// published epoch for a committed transaction, `None` for the every-
    /// fifth rejected self-friendship; panics on any other outcome.
    pub fn commit_step(db: &mut ObjectStore, i: usize, employees: usize) -> Option<Epoch> {
        let a = format!("e{}", i % employees);
        if i % 5 == 4 {
            let mut txn = db.begin();
            txn.add(&a, "friends", Value::obj(&a)).expect("stage self-friendship");
            match txn.commit() {
                Err(CommitError::Rejected { .. }) => None,
                other => panic!("self-friendship must be rejected, got {other:?}"),
            }
        } else {
            let mut b = format!("e{}", (i * 7 + 1) % employees);
            if b == a {
                b = format!("e{}", (i * 7 + 2) % employees);
            }
            let mut txn = db.begin();
            txn.add(&a, "friends", Value::obj(&b)).expect("stage friend edge");
            let receipt = txn.commit().expect("legal friend edge commits");
            Some(receipt.epoch.expect("serving is active, commits publish"))
        }
    }

    /// Run one concurrent arm: `sessions` reader threads consume pinned
    /// sessions over channels while the single writer replays the commit
    /// schedule without waiting for them.
    pub fn run(params: &ServingParams) -> ServingRun {
        let ServingParams {
            employees,
            sessions,
            commits,
        } = *params;
        let mut db = guarded_store(employees);

        let (result_tx, result_rx) = mpsc::channel::<(Epoch, String, usize, u64)>();
        let mut feeds = Vec::with_capacity(sessions);
        let mut readers = Vec::with_capacity(sessions);
        for _ in 0..sessions {
            let (tx, rx) = mpsc::channel::<pathlog_oodb::Session>();
            let results = result_tx.clone();
            feeds.push(tx);
            readers.push(std::thread::spawn(move || {
                let query = constraints_commit::salary_query();
                for session in rx {
                    let start = Instant::now();
                    let epoch = session.epoch();
                    let dump = session.canonical_dump();
                    let answers = session.query(&query).expect("snapshot query serves").len();
                    let us = start.elapsed().as_micros() as u64;
                    if results.send((epoch, dump, answers, us)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(result_tx);

        // Bootstrap round: activate serving (first publish) before the
        // first commit, same as the oracle, and give every reader a
        // pre-commit epoch to report.
        for feed in &feeds {
            feed.send(db.begin_session()).expect("reader alive");
        }

        let (mut committed, mut rejected) = (0usize, 0usize);
        let mut last_epoch = db.version();
        let mut commit_us = Vec::with_capacity(commits);
        for i in 0..commits {
            let start = Instant::now();
            let published = commit_step(&mut db, i, employees);
            commit_us.push(start.elapsed().as_micros() as u64);
            match published {
                Some(epoch) => {
                    assert!(epoch > last_epoch, "epochs are strictly increasing");
                    last_epoch = epoch;
                    committed += 1;
                }
                None => rejected += 1,
            }
            for feed in &feeds {
                feed.send(db.begin_session()).expect("reader alive");
            }
        }
        drop(feeds);

        let mut dumps: BTreeMap<Epoch, String> = BTreeMap::new();
        let mut read_us = Vec::new();
        let mut reads = 0usize;
        for (epoch, dump, answers, us) in result_rx {
            assert!(answers > 0, "the salary query answers on every snapshot");
            match dumps.get(&epoch) {
                Some(seen) => assert_eq!(seen, &dump, "readers pinned to epoch {epoch} disagree"),
                None => {
                    dumps.insert(epoch, dump);
                }
            }
            read_us.push(us);
            reads += 1;
        }
        for reader in readers {
            reader.join().expect("reader thread exits cleanly");
        }
        assert_eq!(reads, sessions * (commits + 1), "every fed session was read");

        let stats = db.serving_stats();
        let pinned_after = db.pinned_epochs();
        assert_eq!(pinned_after, 0, "all epochs reclaimed after sessions drop");
        assert_eq!(
            stats.epochs_published,
            committed + 1,
            "one epoch per commit plus the bootstrap publish"
        );
        assert_eq!(stats.snapshots_pinned, reads, "one pin per session");
        assert!(
            stats.snapshots_reclaimed <= stats.snapshots_pinned,
            "reclamations cannot outnumber pins"
        );
        ServingRun {
            committed,
            rejected,
            reads,
            read_us,
            commit_us,
            dumps,
            stats,
            pinned_after,
        }
    }

    /// The sequential oracle: replay the identical history — same store
    /// bootstrap, same serving activation point, same commit schedule —
    /// with a sequential check engine and **no concurrency**, recording
    /// the canonical dump a session pins after every commit attempt.
    /// Identical histories assign identical oids, so each concurrent
    /// arm's observed dumps must match these bit-for-bit.
    pub fn sequential_oracle(employees: usize, commits: usize) -> BTreeMap<Epoch, String> {
        let mut db = guarded_store(employees);
        let mut dumps = BTreeMap::new();
        let bootstrap = db.begin_session();
        dumps.insert(bootstrap.epoch(), bootstrap.canonical_dump());
        drop(bootstrap);
        for i in 0..commits {
            commit_step(&mut db, i, employees);
            let session = db.begin_session();
            dumps.entry(session.epoch()).or_insert_with(|| session.canonical_dump());
        }
        dumps
    }

    /// The `p`-th percentile (0–100) of `samples`, by nearest-rank on a
    /// sorted copy.  Zero on an empty slice.
    pub fn percentile_us(samples: &[u64], p: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// One row of an experiment report: the scale point and the measured values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scale label, e.g. `employees=1000` or `depth=8`.
    pub scale: String,
    /// (series name, value) pairs.
    pub values: Vec<(String, f64)>,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<20}", self.scale)?;
        for (name, value) in &self.values {
            write!(f, " {name}={value:.3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pathlog_and_baselines_agree_on_colours() {
        let s = workloads::company(100);
        let db = RelationalDb::from_structure(&s);
        let a = colours::pathlog(&s);
        let b = colours::onedim(&s);
        let c = colours::relational(&db);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(a > 0);
    }

    #[test]
    fn pathlog_and_baselines_agree_on_two_dimensional_query() {
        let s = workloads::company(200);
        let db = RelationalDb::from_structure(&s);
        let b = two_dimensional::onedim(&s);
        let c = two_dimensional::relational(&s, &db);
        // The relational plan projects colours only; the one-dimensional
        // query returns (X, colour) pairs, so compare colour counts by
        // re-deriving them from the PathLog answers instead.
        let term =
            parse_term("X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]")
                .unwrap();
        let answers = Engine::new().query_term(&s, &term).unwrap();
        let colours: BTreeSet<Oid> = answers.iter().map(|a| a.object).collect();
        let pairs: BTreeSet<(Option<Oid>, Oid)> = answers
            .iter()
            .map(|a| (a.bindings.get(&Var::new("X")), a.object))
            .collect();
        assert_eq!(colours.len(), c);
        assert_eq!(pairs.len(), b);
    }

    #[test]
    fn pathlog_and_baselines_agree_on_manager_query() {
        let s = workloads::company(300);
        let db = RelationalDb::from_structure(&s);
        let a = manager_query::pathlog(&s);
        let b = manager_query::onedim(&s);
        let c = manager_query::relational(&s, &db);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn virtual_objects_and_views_materialise_the_same_count() {
        let s = workloads::company(100);
        let rule_count = virtual_objects::pathlog_addresses(&s);
        let view_count = virtual_objects::xsql_view_addresses(&s);
        assert_eq!(rule_count, view_count);
        assert!(rule_count > 0);
        assert_eq!(
            virtual_objects::pathlog_virtual_bosses(&s),
            virtual_objects::xsql_employee_boss_view(&s)
        );
    }

    #[test]
    fn transitive_closure_counts_agree() {
        let s = workloads::genealogy(5, 2);
        let db = RelationalDb::from_structure(&s);
        let a = transitive_closure::pathlog_desc(&s);
        let b = transitive_closure::relational(&db);
        assert_eq!(a, b);
        let c = transitive_closure::pathlog_generic(&s);
        assert_eq!(a, c, "generic kids.tc derives the same closure");
    }

    #[test]
    fn paper_family_closure_has_five_descendants_of_peter() {
        let s = workloads::paper_family();
        let mut s2 = s.clone();
        let program = parse_program(transitive_closure::DESC_RULES).unwrap();
        Engine::new().load_program(&mut s2, &program).unwrap();
        let desc = Engine::new()
            .eval_ground(&s2, &parse_term("peter..desc").unwrap())
            .unwrap();
        assert_eq!(desc.len(), 5);
    }

    #[test]
    fn all_paper_expressions_parse() {
        assert_eq!(parsing::parse_all(), parsing::PAPER_EXPRESSIONS.len());
    }

    #[test]
    fn direct_and_translated_evaluation_agree() {
        let s = workloads::company(150);
        assert_eq!(flogic_translation::direct(&s), flogic_translation::translated(&s));
        assert!(
            flogic_translation::translation_atoms() >= 5,
            "one reference expands into a conjunction"
        );
    }

    #[test]
    fn sql_frontend_and_native_pathlog_agree() {
        let s = workloads::company(150);
        let catalog = sql_frontend::catalog();
        assert_eq!(sql_frontend::sql(&s, &catalog), sql_frontend::native(&s));
        assert!(sql_frontend::sql_compile_only(&catalog) >= 3);
    }

    #[test]
    fn reactive_experiments_run_on_the_company_workload() {
        let s = workloads::company(80);
        let firings = reactive_rules::production_minimum_wage(&s);
        assert!(firings > 0, "some employee is below the threshold");
        let cascade = reactive_rules::active_salary_cascade(&s, 10);
        assert_eq!(
            cascade, 20,
            "each update fires derive-bonus plus the cascaded audit trigger"
        );
    }

    #[test]
    fn parts_explosion_counts_agree_with_the_relational_closure() {
        let s = workloads::bom(5);
        let db = RelationalDb::from_structure(&s);
        assert_eq!(parts_explosion::pathlog(&s), parts_explosion::relational(&db));
        assert!(parts_explosion::pathlog(&s) > 0);
    }

    #[test]
    fn guarded_commits_cross_check_incremental_against_full_rechecks() {
        let inc = constraints_commit::run_commits(60, 20, false);
        let full = constraints_commit::run_commits(60, 20, true);
        assert_eq!(inc.rejections, full.rejections, "same violations in the same order");
        assert_eq!(inc.committed, full.committed);
        assert!(inc.rejected > 0);
        assert!(
            inc.stats.condition_solves < full.stats.condition_solves,
            "incremental must solve strictly fewer conditions"
        );
        assert!(inc.stats.constraints_skipped > 0);
    }

    #[test]
    fn quarantined_pay_cuts_degrade_answers_without_dropping_them() {
        let q = constraints_commit::run_quarantine(60, 6);
        assert!(q.quarantined >= 6);
        assert!(q.tainted > 0);
        assert_eq!(q.tainted + q.clean, q.classical);
    }

    #[test]
    fn serving_readers_match_the_sequential_oracle() {
        let oracle = serving::sequential_oracle(30, 15);
        let run = serving::run(&serving::ServingParams {
            employees: 30,
            sessions: 4,
            commits: 15,
        });
        assert_eq!(run.committed + run.rejected, 15);
        assert_eq!(run.rejected, 3);
        assert_eq!(run.dumps.len(), run.committed + 1);
        for (epoch, dump) in &run.dumps {
            assert_eq!(
                oracle.get(epoch),
                Some(dump),
                "epoch {epoch} dump diverged from the sequential oracle"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5u64, 1, 3, 2, 4];
        assert_eq!(serving::percentile_us(&v, 50.0), 3);
        assert_eq!(serving::percentile_us(&v, 95.0), 5);
        assert_eq!(serving::percentile_us(&v, 100.0), 5);
        assert_eq!(serving::percentile_us(&[], 50.0), 0);
    }

    #[test]
    fn row_display() {
        let r = Row {
            scale: "employees=1000".into(),
            values: vec![("pathlog_ms".into(), 1.5)],
        };
        assert!(r.to_string().contains("pathlog_ms=1.500"));
    }
}
