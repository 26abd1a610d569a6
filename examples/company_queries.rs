//! The motivating queries of Sections 1 and 2 on a generated company
//! database, evaluated three ways: as a single PathLog reference, as an
//! O2SQL-style one-dimensional query, and as a flat relational join plan.
//!
//! Run with `cargo run --release --example company_queries [employees]`.

use std::collections::BTreeSet;
use std::time::Instant;

use pathlog::baseline::relational::queries as relq;
use pathlog::baseline::RelationalDb;
use pathlog::prelude::*;

fn main() {
    let employees: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1_000);
    println!("generating a company database with {employees} employees ...");
    let structure = pathlog::datagen::company_structure(&CompanyParams::scaled(employees));
    println!("  {}", structure.stats());
    let db = RelationalDb::from_structure(&structure);
    let engine = Engine::new();

    // --- Query (1.1)/(2.1): colours of employees' automobiles -------------
    let reference =
        parse_term("X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z]").unwrap();
    println!("\nPathLog reference:\n  {reference}");
    let start = Instant::now();
    let answers = engine.query_term(&structure, &reference).unwrap();
    let colours: BTreeSet<Oid> = answers.iter().filter_map(|a| a.object()).collect();
    println!(
        "  -> {} colour(s) of 4-cylinder automobiles of 30-year-old New-Yorkers in {:.2?}",
        colours.len(),
        start.elapsed()
    );
    for c in &colours {
        println!("     {}", structure.display_name(*c));
    }

    // The same question with one-dimensional paths (query 1.4): the second
    // dimension has to be unfolded into separate WHERE clauses.
    let q = OneDimQuery::new()
        .from_class("X", "employee")
        .from_set("Y", "X", "vehicles")
        .where_path_const("X", &["age"], Name::Int(30))
        .where_path_const("X", &["city"], Name::atom("newYork"))
        .where_isa("Y", "automobile")
        .where_path_const("Y", &["cylinders"], Name::Int(4))
        .select_path("Y", &["color"]);
    let start = Instant::now();
    let onedim = pathlog::baseline::evaluate_onedim(&structure, &q);
    println!(
        "O2SQL-style conjunction of paths -> {} colour(s) in {:.2?}",
        onedim.len(),
        start.elapsed()
    );

    // And flat relations (six joins).
    let start = Instant::now();
    let relational = relq::filtered_automobile_colours(&structure, &db);
    println!(
        "relational join plan             -> {} colour(s) in {:.2?}",
        relational.len(),
        start.elapsed()
    );

    // --- The Section 2 manager query ---------------------------------------
    let reference =
        parse_term("X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]").unwrap();
    println!("\nPathLog reference:\n  {reference}");
    let start = Instant::now();
    let managers: BTreeSet<Oid> = engine
        .query_term(&structure, &reference)
        .unwrap()
        .iter()
        .filter_map(|a| a.get(&Var::new("X")))
        .collect();
    println!(
        "  -> {} manager(s) presiding over the Detroit producer of their red vehicle in {:.2?}",
        managers.len(),
        start.elapsed()
    );
    let start = Instant::now();
    let rel = relq::manager_red_detroit_presidents(&structure, &db);
    println!(
        "relational join plan -> {} manager(s) in {:.2?}",
        rel.len(),
        start.elapsed()
    );
    assert_eq!(managers.len(), rel.len(), "PathLog and the baseline must agree");
}
