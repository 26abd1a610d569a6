//! The object-SQL frontend against the native PathLog formulations.
//!
//! Sections 1 and 2 of the paper present the same questions in O2SQL, XSQL
//! and PathLog.  These tests execute the SQL texts through
//! `pathlog-sqlfront` (which compiles them to PathLog) and the PathLog texts
//! through the parser, and check that both roads give exactly the same
//! answers on the synthetic company workload.

use std::collections::BTreeSet;

use pathlog::prelude::*;
use pathlog::sqlfront::{self, StatementResult};

fn company() -> (Structure, Catalog) {
    let structure = pathlog::datagen::company::generate_structure(&CompanyParams::scaled(40));
    let catalog = Catalog::from_schema(&Schema::company());
    (structure, catalog)
}

/// Evaluate a PathLog reference and collect the display names of the objects
/// bound to `var`.
fn pathlog_answers(structure: &Structure, reference: &str, var: &str) -> BTreeSet<String> {
    let term = parse_term(reference).expect("PathLog reference parses");
    Engine::new()
        .query_term(structure, &term)
        .expect("PathLog query evaluates")
        .iter()
        .filter_map(|a| a.get(&Var::new(var)).map(|o| structure.display_name(o).into_owned()))
        .collect()
}

/// Execute an object-SQL query and collect the values of its single column.
fn sql_answers(structure: &Structure, catalog: &Catalog, sql: &str) -> BTreeSet<String> {
    let compiled = sqlfront::compile_query(sql, catalog).expect("SQL compiles");
    let (_, rows) = sqlfront::execute_query(structure, &compiled).expect("SQL executes");
    rows.into_iter().map(|mut r| r.remove(0)).collect()
}

#[test]
fn query_1_1_o2sql_matches_the_pathlog_reference() {
    let (structure, catalog) = company();
    let sql = sql_answers(
        &structure,
        &catalog,
        "SELECT Y.color FROM X IN employee FROM Y IN X.vehicles WHERE Y IN automobile",
    );
    let pathlog = pathlog_answers(&structure, "X : employee..vehicles : automobile.color[Z]", "Z");
    assert_eq!(sql, pathlog);
    assert!(!sql.is_empty());
}

#[test]
fn query_1_2_xsql_selectors_match_the_pathlog_reference() {
    let (structure, catalog) = company();
    let sql = sql_answers(
        &structure,
        &catalog,
        "SELECT Z FROM employee X, automobile Y WHERE X.vehicles[Y].color[Z]",
    );
    let pathlog = pathlog_answers(&structure, "X : employee..vehicles : automobile.color[Z]", "Z");
    assert_eq!(sql, pathlog);
}

#[test]
fn query_1_4_with_the_cylinder_conjunct_matches() {
    let (structure, catalog) = company();
    let sql = sql_answers(
        &structure,
        &catalog,
        "SELECT Z FROM employee X, automobile Y WHERE X.vehicles[Y].color[Z] AND Y.cylinders[4]",
    );
    let pathlog = pathlog_answers(
        &structure,
        "X : employee..vehicles : automobile[cylinders -> 4].color[Z]",
        "Z",
    );
    assert_eq!(sql, pathlog);
    assert!(!sql.is_empty());
}

#[test]
fn query_2_2_with_filters_matches_reference_2_1() {
    let (structure, catalog) = company();
    let sql = sql_answers(
        &structure,
        &catalog,
        "SELECT Z FROM employee X, automobile Y
         WHERE X[city -> newYork].vehicles[cylinders -> 4][Y].color[Z]",
    );
    let pathlog = pathlog_answers(
        &structure,
        "X : employee[city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]",
        "Z",
    );
    assert_eq!(sql, pathlog);
}

#[test]
fn the_manager_query_matches_the_single_pathlog_reference() {
    let (structure, catalog) = company();
    let sql = sql_answers(
        &structure,
        &catalog,
        "SELECT X FROM X IN manager FROM Y IN X.vehicles
         WHERE Y.color = red AND Y.producedBy.cityOf = detroit AND Y.producedBy.president = X",
    );
    let pathlog = pathlog_answers(
        &structure,
        "X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]",
        "X",
    );
    assert_eq!(sql, pathlog);
}

#[test]
fn view_6_3_defines_the_same_departments_as_rule_6_1_reports() {
    // The XSQL view (6.3) materialised through the SQL frontend must expose
    // the same worksFor information as querying employees directly.
    let (mut structure, catalog) = company();
    let results = sqlfront::execute(
        &mut structure,
        "CREATE VIEW employeeBoss SELECT worksFor = D FROM employee X OID FUNCTION OF X WHERE X.worksFor[D];
         SELECT D FROM X IN employee WHERE X.employeeBoss.worksFor = D;",
        &catalog,
    )
    .unwrap();
    let StatementResult::ViewDefined { virtual_objects, .. } = &results[0] else {
        panic!("expected a view")
    };
    let StatementResult::Rows { rows, .. } = &results[1] else {
        panic!("expected rows")
    };
    let via_view: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
    let direct = pathlog_answers(&structure, "X : employee[worksFor -> D]", "D");
    assert_eq!(via_view, direct);
    // One view object per employee that has a department.
    let employees_with_dept = Engine::new()
        .query_term(&structure, &parse_term("X : employee[worksFor -> D]").unwrap())
        .unwrap()
        .iter()
        .filter_map(|a| a.get(&Var::new("X")))
        .collect::<BTreeSet<_>>()
        .len();
    assert_eq!(*virtual_objects, employees_with_dept);
}

#[test]
fn the_sql_frontend_produces_well_formed_pathlog() {
    // Every compiled query must pass the core well-formedness check
    // (Definition 3) — the frontend never fabricates ill-formed references.
    let (_, catalog) = company();
    let sql_texts = [
        "SELECT Y.color FROM X IN employee FROM Y IN X.vehicles WHERE Y IN automobile",
        "SELECT Z FROM employee X, automobile Y WHERE X.vehicles[Y].color[Z] AND Y.cylinders[4]",
        "SELECT X FROM X IN manager FROM Y IN X.vehicles WHERE Y.producedBy.president = X",
        "SELECT D FROM X IN employee WHERE X.worksFor[D]",
    ];
    for sql in sql_texts {
        let compiled = sqlfront::compile_query(sql, &catalog).unwrap();
        for literal in &compiled.query.body {
            pathlog::core::wellformed::check_well_formed(&literal.term)
                .unwrap_or_else(|e| panic!("{sql} compiled to an ill-formed reference: {e}"));
        }
    }
}

#[test]
fn compiled_sql_round_trips_through_the_pathlog_parser() {
    // The PathLog text the compiler reports is real concrete syntax: parsing
    // it back yields an equivalent query.
    let (structure, catalog) = company();
    let compiled = sqlfront::compile_query(
        "SELECT Z FROM employee X, automobile Y WHERE X.vehicles[Y].color[Z] AND Y.cylinders[4]",
        &catalog,
    )
    .unwrap();
    let reparsed = parse_query(&compiled.pathlog_text()).expect("compiled text parses as PathLog");
    let direct: BTreeSet<String> = Engine::new()
        .query(&structure, &compiled.query)
        .unwrap()
        .iter()
        .filter_map(|b| b.get(&Var::new("Z")).map(|o| structure.display_name(o).into_owned()))
        .collect();
    let roundtrip: BTreeSet<String> = Engine::new()
        .query(&structure, &reparsed)
        .unwrap()
        .iter()
        .filter_map(|b| b.get(&Var::new("Z")).map(|o| structure.display_name(o).into_owned()))
        .collect();
    assert_eq!(direct, roundtrip);
}
