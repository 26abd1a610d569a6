//! The paper's contrasts, each described once: one case table and the runner
//! that times and cross-checks it.
//!
//! The paper argues by contrast — one two-dimensional PathLog reference
//! against one-dimensional O2SQL / XSQL paths, relational join plans, XSQL
//! views and the F-logic translation (Sections 1–2 and 6).  The modules below
//! hold the formulations being contrasted, one function per arm, each taking
//! a prepared input and returning a small checkable count.  [`CASES`] lists
//! every contrast — its scales, how its input is generated, its arms and
//! which arms must return equal counts — and [`run_case`] is the one runner:
//! the `experiments` binary loops it over the table to print
//! `EXPERIMENTS.md`'s tables, and this crate's test drives it over every case
//! at its smallest scale, so a contrast is cross-checked by the code that
//! also prints it.
//!
//! The timer contrasts arms inside one process on one input.  A claim about
//! a change over time is made with `pathbench` (the repository's benchmark),
//! never with these numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::time::Instant;

use pathlog_baseline::relational::{queries as relq, tc};
use pathlog_baseline::{evaluate_onedim, materialize, OneDimQuery, RelationalDb, ViewDef};
use pathlog_core::names::Name;
use pathlog_core::prelude::*;
use pathlog_datagen::{CompanyParams, GenealogyParams};
use pathlog_parser::{parse_program, parse_term};
use pathlog_sqlfront::Catalog;

/// The generated inputs the cases run on.
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
            .iter()
            .filter_map(|a| a.object())
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
            .iter()
            .filter_map(|a| a.get(&Var::new("X")))
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
    use pathlog_flogic::{lower, TranslationStats, Translator};

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

    /// Translate the query into flat molecules, lower them to one-molecule
    /// literals and answer those on the same engine, projected onto the
    /// query's variables (translation and lowering time included: they are
    /// part of the approach).
    pub fn translated(structure: &Structure) -> usize {
        let program = parse_program(QUERY).expect("query parses");
        let (flat, _) = Translator::new().program(&program).expect("query translates");
        let lowered = lower::lower(&flat);
        let answer_variables = &flat.queries[0].answer_variables;
        lower::answers(&Engine::new(), structure, &lowered.queries[0], answer_variables)
            .expect("lowered query evaluates")
            .len()
    }

    /// What translating the query produced: `flat_atoms` is the number of
    /// flat atoms the single PathLog reference expands into — the
    /// compactness measure of the "second dimension" — and `aux_variables`
    /// the number of intermediate objects it names.
    pub fn translation() -> TranslationStats {
        let program = parse_program(QUERY).expect("query parses");
        Translator::new().program(&program).expect("query translates").1
    }
}

/// Experiment E12: the object-SQL frontend (O2SQL/XSQL surface syntax
/// compiled to PathLog) versus the native PathLog formulation.
pub mod sql_frontend {
    use super::*;
    use pathlog_sqlfront::{compile_query, execute_query};

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

    /// Parse and evaluate the native PathLog reference; returns the number of
    /// distinct colours (the same result-column the SQL query projects).
    pub fn native(structure: &Structure) -> usize {
        let term = parse_term(PATHLOG).expect("reference parses");
        let colours: BTreeSet<Oid> = Engine::new()
            .query_term(structure, &term)
            .expect("reference evaluates")
            .iter()
            .filter_map(|a| a.get(&Var::new("Z")))
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

/// Experiment E19: the answers of `X..desc` over the closure of a deep
/// genealogy, which keep the fact table's member runs — one prefix frame and
/// one shared run per `desc` application — counted without expanding them,
/// and expanded row by row.
pub mod columnar_factorized {
    use super::*;

    /// The query whose answers are product-shaped after closure.
    pub const QUERY: &str = "X..desc";

    /// Run the `desc` closure rules on a clone of `structure` and return the
    /// closed structure (shared by both representation arms, so the closure
    /// itself is outside the timed region).
    pub fn close(structure: &Structure) -> Structure {
        let mut s = structure.clone();
        let program = parse_program(transitive_closure::DESC_RULES).expect("closure rules parse");
        Engine::new().load_program(&mut s, &program).expect("closure evaluates");
        s
    }

    /// The answers of [`QUERY`].
    pub fn answers(closed: &Structure) -> Answers {
        let term = parse_term(QUERY).expect("query parses");
        Engine::new().query_term(closed, &term).expect("query evaluates")
    }
}

/// What a case's arms run on, built once per scale outside the timed region.
pub struct Input {
    /// The generated structure.
    structure: Structure,
    /// Its flat relational image, for a case with a relational arm.
    db: Option<RelationalDb>,
    /// The set-valued attributes the SQL compiler must know, for E12.
    catalog: Option<Catalog>,
}

impl Input {
    fn new(structure: Structure) -> Self {
        Input {
            structure,
            db: None,
            catalog: None,
        }
    }

    fn with_db(mut self) -> Self {
        self.db = Some(RelationalDb::from_structure(&self.structure));
        self
    }

    fn db(&self) -> &RelationalDb {
        self.db.as_ref().expect("the case's input builds the relational image")
    }

    fn catalog(&self) -> &Catalog {
        self.catalog.as_ref().expect("the case's input builds the catalog")
    }
}

/// One scale point: the generator's parameters by name.  `[("depth", 8),
/// ("fanout", 2)]` is the row `depth=8 fanout=2`.
pub type Scale = &'static [(&'static str, usize)];

/// A named function of the input returning a checkable count: an arm (one
/// formulation, timed) or an untimed count column.
pub type Counted = (&'static str, fn(&Input) -> usize);

/// One contrast of the paper: what is generated, at which scales, which
/// formulations run on it and which of them must agree.
pub struct Case {
    /// What `experiments --only` selects the case by.
    pub id: &'static str,
    /// The table heading: experiment numbers, subject, paper section.
    pub title: &'static str,
    /// The scale points, smallest first.
    pub scales: &'static [Scale],
    /// Builds the input of one scale point.
    pub input: fn(Scale) -> Input,
    /// The formulations, each timed.
    pub arms: &'static [Counted],
    /// Further counts reported beside the arms, not timed.
    pub counts: &'static [Counted],
    /// The arms whose counts must be equal.
    pub agree: &'static [&'static str],
}

const COMPANY_SCALES: &[Scale] = &[&[("employees", 200)], &[("employees", 1_000)], &[("employees", 5_000)]];

fn company_input(scale: Scale) -> Input {
    Input::new(workloads::company(scale[0].1))
}

fn company_with_db(scale: Scale) -> Input {
    company_input(scale).with_db()
}

fn genealogy_of(scale: Scale) -> Structure {
    workloads::genealogy(scale[0].1, scale[1].1)
}

/// Every contrast `EXPERIMENTS.md` reports, in its order.
pub const CASES: &[Case] = &[
    Case {
        id: "e1",
        title: "E1: colours of employees' automobiles (1.1-1.3)",
        scales: COMPANY_SCALES,
        input: company_with_db,
        arms: &[
            ("pathlog", |i| colours::pathlog(&i.structure)),
            ("onedim", |i| colours::onedim(&i.structure)),
            ("relational", |i| colours::relational(i.db())),
        ],
        counts: &[],
        agree: &["pathlog", "onedim", "relational"],
    },
    // The relational plan projects colours where the other two arms return
    // (X, colour) pairs, so its count is reported, not compared (the test
    // below re-derives both projections from the PathLog answers).
    Case {
        id: "e2",
        title: "E2: two-dimensional reference (2.1) vs conjunction of paths (1.4)",
        scales: COMPANY_SCALES,
        input: company_with_db,
        arms: &[
            ("pathlog", |i| two_dimensional::pathlog(&i.structure)),
            ("onedim", |i| two_dimensional::onedim(&i.structure)),
            ("relational", |i| two_dimensional::relational(&i.structure, i.db())),
        ],
        counts: &[],
        agree: &["pathlog", "onedim"],
    },
    Case {
        id: "e3",
        title: "E3: manager query (Section 2)",
        scales: COMPANY_SCALES,
        input: company_with_db,
        arms: &[
            ("pathlog", |i| manager_query::pathlog(&i.structure)),
            ("onedim", |i| manager_query::onedim(&i.structure)),
            ("relational", |i| manager_query::relational(&i.structure, i.db())),
        ],
        counts: &[],
        agree: &["pathlog", "onedim", "relational"],
    },
    Case {
        id: "e4",
        title: "E4/E6/E9: virtual objects (2.4, 6.1) vs XSQL views (6.3)",
        scales: COMPANY_SCALES,
        input: company_input,
        arms: &[
            ("address_rule", |i| virtual_objects::pathlog_addresses(&i.structure)),
            ("address_view", |i| virtual_objects::xsql_view_addresses(&i.structure)),
            ("boss_rule", |i| virtual_objects::pathlog_virtual_bosses(&i.structure)),
            ("boss_view", |i| virtual_objects::xsql_employee_boss_view(&i.structure)),
        ],
        counts: &[],
        agree: &["address_rule", "address_view"],
    },
    Case {
        id: "e7",
        title: "E7: transitive closure (6.4, kids.tc) vs relational semi-naive",
        scales: &[
            &[("depth", 4), ("fanout", 2)],
            &[("depth", 6), ("fanout", 2)],
            &[("depth", 8), ("fanout", 2)],
            &[("depth", 5), ("fanout", 3)],
        ],
        input: |scale| Input::new(genealogy_of(scale)).with_db(),
        arms: &[
            ("desc_rules", |i| transitive_closure::pathlog_desc(&i.structure)),
            ("generic_tc", |i| transitive_closure::pathlog_generic(&i.structure)),
            ("relational", |i| transitive_closure::relational(i.db())),
        ],
        counts: &[],
        agree: &["desc_rules", "generic_tc", "relational"],
    },
    Case {
        id: "e10",
        title: "E10: parser over the paper's expressions",
        scales: &[&[("expressions", parsing::PAPER_EXPRESSIONS.len())]],
        input: |_| Input::new(Structure::new()),
        arms: &[("parse_all", |_| parsing::parse_all())],
        counts: &[],
        agree: &[],
    },
    Case {
        id: "e11",
        title: "E11: direct semantics vs F-logic translation (Section 2 contrast)",
        scales: COMPANY_SCALES,
        input: company_input,
        arms: &[
            ("direct", |i| flogic_translation::direct(&i.structure)),
            ("translated", |i| flogic_translation::translated(&i.structure)),
        ],
        counts: &[
            ("flat_atoms", |_| flogic_translation::translation().flat_atoms),
            ("aux_variables", |_| flogic_translation::translation().aux_variables),
        ],
        agree: &["direct", "translated"],
    },
    Case {
        id: "e12",
        title: "E12: object-SQL frontend (1.4) vs native PathLog",
        scales: COMPANY_SCALES,
        input: |scale| Input {
            catalog: Some(sql_frontend::catalog()),
            ..company_input(scale)
        },
        arms: &[
            ("sql", |i| sql_frontend::sql(&i.structure, i.catalog())),
            ("native_pathlog", |i| sql_frontend::native(&i.structure)),
        ],
        counts: &[],
        agree: &["sql", "native_pathlog"],
    },
    // Two workloads, not two formulations of one: firings are reported.
    Case {
        id: "e13",
        title: "E13: production rules / active triggers (Section 7 outlook)",
        scales: &[&[("employees", 100)], &[("employees", 500)], &[("employees", 2_000)]],
        input: company_input,
        arms: &[
            ("production", |i| reactive_rules::production_minimum_wage(&i.structure)),
            ("active_50_updates", |i| {
                reactive_rules::active_salary_cascade(&i.structure, 50)
            }),
        ],
        counts: &[],
        agree: &[],
    },
    Case {
        id: "e14",
        title: "E14: parts explosion closure (bill-of-materials DAG)",
        scales: &[&[("depth", 4)], &[("depth", 6)], &[("depth", 8)]],
        input: |scale| Input::new(workloads::bom(scale[0].1)).with_db(),
        arms: &[
            ("pathlog", |i| parts_explosion::pathlog(&i.structure)),
            ("relational", |i| parts_explosion::relational(i.db())),
        ],
        counts: &[],
        agree: &["pathlog", "relational"],
    },
    Case {
        id: "e19",
        title: "E19: X..desc answers over the stored runs, counted vs expanded row by row (closed genealogy)",
        scales: &[
            &[("depth", 4), ("fanout", 2)],
            &[("depth", 6), ("fanout", 2)],
            &[("depth", 8), ("fanout", 2)],
            &[("depth", 10), ("fanout", 2)],
        ],
        input: |scale| Input::new(columnar_factorized::close(&genealogy_of(scale))),
        arms: &[
            ("len", |i| columnar_factorized::answers(&i.structure).len()),
            ("rows", |i| columnar_factorized::answers(&i.structure).iter().count()),
        ],
        counts: &[],
        agree: &["len", "rows"],
    },
];

/// One arm's outcome at one scale point.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// The arm.
    pub name: &'static str,
    /// What every run of it returned.
    pub count: usize,
    /// Median wall-clock time of the timed runs, in milliseconds.
    pub median_ms: f64,
    /// (slowest − fastest) / median of the timed runs.
    pub spread: f64,
}

/// One row of a case's table: a scale point and what ran on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scale label, e.g. `employees=1000` or `depth=8 fanout=2`.
    pub scale: String,
    /// The arms, in table order.
    pub arms: Vec<ArmResult>,
    /// The untimed count columns.
    pub counts: Vec<(&'static str, usize)>,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<20}", self.scale)?;
        for arm in &self.arms {
            let (name, count, ms, pct) = (arm.name, arm.count, arm.median_ms, arm.spread * 100.0);
            write!(f, "  {name}={count} {ms:.3}ms ±{pct:.0}%")?;
        }
        for (name, count) in &self.counts {
            write!(f, "  {name}={count}")?;
        }
        Ok(())
    }
}

/// Run `case` at one of its scale points: build the input, then per arm one
/// warm-up run and `reps` (at least one) timed ones.
///
/// # Panics
/// When two runs of an arm return different counts, or the arms `case.agree`
/// names return different counts: the table is a correctness gate first.
pub fn run_case(case: &Case, scale: Scale, reps: usize) -> Row {
    let label: Vec<String> = scale.iter().map(|(name, value)| format!("{name}={value}")).collect();
    let label = label.join(" ");
    let input = (case.input)(scale);
    let arms: Vec<ArmResult> = case
        .arms
        .iter()
        .map(|&(name, run)| {
            let count = run(&input);
            let mut ms: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    let again = run(&input);
                    let elapsed = start.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(again, count, "{} {label}: `{name}` is not deterministic", case.id);
                    elapsed
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            let median_ms = ms[ms.len() / 2];
            ArmResult {
                name,
                count,
                median_ms,
                spread: (ms[ms.len() - 1] - ms[0]) / median_ms,
            }
        })
        .collect();
    let agreeing: Vec<&ArmResult> = case
        .agree
        .iter()
        .map(|&name| {
            let arm = arms.iter().find(|arm| arm.name == name);
            arm.unwrap_or_else(|| panic!("{}: `agree` names `{name}`, which is no arm", case.id))
        })
        .collect();
    for pair in agreeing.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert_eq!(
            a.count, b.count,
            "{} {label}: `{}` and `{}` disagree",
            case.id, a.name, b.name
        );
    }
    Row {
        scale: label,
        arms,
        counts: case.counts.iter().map(|&(name, count)| (name, count(&input))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one cross-check of the contrasts: the runner the `experiments`
    /// binary prints with, over every case at its smallest scale.
    #[test]
    fn every_case_runs_and_agrees_at_its_smallest_scale() {
        for (i, case) in CASES.iter().enumerate() {
            assert!(CASES[..i].iter().all(|c| c.id != case.id), "duplicate id {}", case.id);
            println!("{} {}", case.id, run_case(case, case.scales[0], 1));
        }
    }

    /// E2's relational arm projects colours, the others pairs, so the table
    /// cannot compare all three: re-derive both projections from the PathLog
    /// answers, at a scale where the answer is not empty.
    #[test]
    fn two_dimensional_arms_answer_the_same_question() {
        let s = workloads::company(1_000);
        let db = RelationalDb::from_structure(&s);
        let term =
            parse_term("X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]")
                .unwrap();
        let answers = Engine::new().query_term(&s, &term).unwrap();
        let colours: BTreeSet<Oid> = answers.iter().filter_map(|a| a.object()).collect();
        let pairs: BTreeSet<(Option<Oid>, Option<Oid>)> =
            answers.iter().map(|a| (a.get(&Var::new("X")), a.object())).collect();
        assert!(!colours.is_empty());
        assert_eq!(colours.len(), two_dimensional::relational(&s, &db));
        assert_eq!(pairs.len(), two_dimensional::onedim(&s));
    }
}
