//! The Section 2 contrast, made visible: PathLog's direct semantics versus
//! the translation into flat F-logic molecules.
//!
//! For each paper scenario the example prints the single PathLog formulation,
//! the conjunction of flat atoms it expands into (with auxiliary variables in
//! bodies and skolem function terms in heads), lowers that conjunction to
//! one-molecule rules, runs them on the same engine as the direct program and
//! checks that both produce the same number of answers.  It closes with the one
//! intended divergence: where an extensional fact already defines a path,
//! PathLog's method-based virtual objects reuse it while the skolem
//! translation conflicts with it.
//!
//! Run with `cargo run --example flogic_translation`.

use pathlog::flogic::{lower, Translator};
use pathlog::prelude::*;

fn main() {
    let base = pathlog::datagen::company::generate_structure(&CompanyParams::scaled(100));
    println!("workload: {}\n", base.stats());

    let scenarios: &[(&str, &str)] = &[
        (
            "query (1.1): colours of employees' automobiles",
            "?- X : employee..vehicles : automobile.color[Z].",
        ),
        (
            "reference (2.1): the two-dimensional filter",
            "?- X : employee[city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z].",
        ),
        (
            "rule (2.4): virtual address objects",
            "X.address[city -> X.city] <- X : employee.
             ?- X : employee.address[city -> C].",
        ),
        (
            "rules (6.4): transitive closure of kids (on the paper family)",
            "X[desc ->> {Y}] <- X[kids ->> {Y}].
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
             ?- peter[desc ->> {Y}].",
        ),
    ];

    for (label, text) in scenarios {
        let structure = if text.contains("peter") {
            pathlog::datagen::paper_family().to_structure()
        } else {
            base.clone()
        };
        let program = parse_program(text).expect("paper program parses");
        let (flat, stats) = Translator::new().program(&program).expect("paper program translates");

        println!("== {label}");
        println!(
            "   PathLog ({} rule(s), {} query):",
            program.rules.len(),
            program.queries.len()
        );
        for line in text.lines() {
            println!("      {}", line.trim());
        }
        println!(
            "   flat translation: {} atoms, {} auxiliary variables, {} skolem terms",
            stats.flat_atoms, stats.aux_variables, stats.skolem_terms
        );
        for rule in &flat.rules {
            println!("      {rule}");
        }
        for query in &flat.queries {
            println!("      {query}");
        }
        let lowered = lower::lower(&flat);
        if !lowered.rules.is_empty() {
            println!("   lowered to one-molecule rules (skolem f(X) is the path X.f'):");
            for rule in &lowered.rules {
                println!("      {rule}");
            }
        }

        // Both roads produce the same number of answers.
        let mut direct = structure.clone();
        Engine::new()
            .load_program(&mut direct, &program)
            .expect("direct evaluation succeeds");
        let direct_answers = Engine::new()
            .query(&direct, &program.queries[0])
            .expect("direct query succeeds")
            .len();

        let mut translated = structure.clone();
        Engine::new()
            .load_program(&mut translated, &lowered)
            .expect("lowered evaluation succeeds");
        let translated_answers = lower::answers(
            &Engine::new(),
            &translated,
            &lowered.queries[0],
            &flat.queries[0].answer_variables,
        )
        .expect("lowered query succeeds")
        .len();

        assert_eq!(direct_answers, translated_answers);
        println!("   answers: {direct_answers} (identical under both semantics)\n");
    }

    // The divergence the paper argues from: function symbols vs. methods.
    println!("== where the translation breaks down (Section 6, methods vs. function symbols)");
    let text = "p1 : employee[worksFor -> cs1].
                p2 : employee[worksFor -> cs2; boss -> b2].
                b2 : employee[worksFor -> cs2].
                X.boss[worksFor -> D] <- X : employee[worksFor -> D].";
    let program = parse_program(text).expect("program parses");
    let mut direct = Structure::new();
    let stats = Engine::new()
        .load_program(&mut direct, &program)
        .expect("direct evaluation succeeds");
    println!(
        "   direct semantics: ok — {} virtual bosses created, p2's stored boss b2 reused",
        stats.virtual_objects
    );

    let (flat, _) = Translator::new().program(&program).expect("program translates");
    match Engine::new().load_program(&mut Structure::new(), &lower::lower(&flat)) {
        Err(error) => println!("   translation      : {error}"),
        Ok(_) => unreachable!("the skolem term boss(p2) must conflict with the stored boss b2"),
    }
}
