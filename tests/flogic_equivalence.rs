//! Equivalence of the direct semantics and the F-logic translation baseline.
//!
//! Section 2 of the paper contrasts PathLog's *direct* semantics with the
//! XSQL approach of translating path expressions into (flat) F-logic.  These
//! tests run both side by side on the paper's scenarios — the translation
//! lowered to one-molecule rules on the same engine — and check that they
//! produce exactly the same answers over named objects, while the translation
//! needs strictly more atoms (the compactness claim of the "second
//! dimension").

use std::collections::{BTreeMap, BTreeSet};

use pathlog::flogic::{lower, Translator};
use pathlog::prelude::*;

/// Answers of a query as sets of `{variable -> display name}` maps, so that
/// the two engines can be compared independently of OID allocation order.
type NamedAnswers = BTreeSet<BTreeMap<String, String>>;

/// Run `program_text` with the direct engine and answer its queries.
fn direct_answers(base: &Structure, program_text: &str) -> Vec<NamedAnswers> {
    let program = parse_program(program_text).expect("program parses");
    let mut structure = base.clone();
    let engine = Engine::new();
    engine
        .load_program(&mut structure, &program)
        .expect("direct evaluation succeeds");
    program
        .queries
        .iter()
        .map(|query| {
            let vars = query.variables();
            engine
                .query(&structure, query)
                .expect("direct query succeeds")
                .iter()
                .map(|row| {
                    vars.iter()
                        .filter_map(|v| {
                            row.get(v)
                                .map(|o| (v.name().to_string(), structure.display_name(o).into_owned()))
                        })
                        .collect::<BTreeMap<_, _>>()
                })
                .collect()
        })
        .collect()
}

/// Translate `program_text` into flat molecules, lower them to one-molecule
/// rules, run those on the engine and answer the lowered queries.
fn translated_answers(base: &Structure, program_text: &str) -> Vec<NamedAnswers> {
    let program = parse_program(program_text).expect("program parses");
    let (flat, _stats) = Translator::new().program(&program).expect("program translates");
    let lowered = lower::lower(&flat);
    let mut structure = base.clone();
    let engine = Engine::new();
    engine
        .load_program(&mut structure, &lowered)
        .expect("lowered evaluation succeeds");
    lowered
        .queries
        .iter()
        .zip(&flat.queries)
        .map(|(query, flat_query)| {
            lower::answers(&engine, &structure, query, &flat_query.answer_variables)
                .expect("lowered query succeeds")
                .into_iter()
                .map(|bindings| {
                    bindings
                        .iter()
                        .map(|(v, o)| (v.name().to_string(), structure.display_name(o).into_owned()))
                        .collect::<BTreeMap<_, _>>()
                })
                .collect()
        })
        .collect()
}

/// Both evaluators must agree on every query of the program.
fn assert_equivalent(base: &Structure, program_text: &str) -> Vec<NamedAnswers> {
    let direct = direct_answers(base, program_text);
    let translated = translated_answers(base, program_text);
    assert_eq!(direct.len(), translated.len(), "same number of queries");
    for (i, (d, t)) in direct.iter().zip(translated.iter()).enumerate() {
        assert_eq!(
            d, t,
            "query {i} of `{program_text}` disagrees between direct and translated evaluation"
        );
    }
    direct
}

fn company() -> Structure {
    pathlog::datagen::company::generate_structure(&CompanyParams::scaled(25))
}

fn family() -> Structure {
    pathlog::datagen::genealogy::paper_family().to_structure()
}

#[test]
fn colours_query_1_1_agrees() {
    let answers = assert_equivalent(&company(), "?- X : employee..vehicles : automobile.color[Z].");
    assert!(
        !answers[0].is_empty(),
        "the workload contains employee-owned automobiles"
    );
}

#[test]
fn two_dimensional_reference_2_1_agrees() {
    assert_equivalent(
        &company(),
        "?- X : employee[city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z].",
    );
}

#[test]
fn manager_query_section_2_agrees() {
    assert_equivalent(
        &company(),
        "?- X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X].",
    );
}

#[test]
fn address_rule_2_4_agrees_on_named_projections() {
    let answers = assert_equivalent(
        &company(),
        "X.address[city -> X.city] <- X : employee.
         ?- X : employee.address[city -> C].",
    );
    assert!(
        !answers[0].is_empty(),
        "every employee has a (virtual) address with its city"
    );
}

#[test]
fn virtual_boss_rule_6_1_agrees() {
    // The Section 6 scenario given as facts: no employee has a recorded boss,
    // so rule (6.1) gives each one a virtual boss in both evaluators.
    let answers = assert_equivalent(
        &Structure::new(),
        "p1 : employee[worksFor -> cs1].
         p2 : employee[worksFor -> cs2].
         X.boss[worksFor -> D] <- X : employee[worksFor -> D].
         ?- X : employee[worksFor -> D].boss[worksFor -> E].",
    );
    // The rule forces boss.worksFor = worksFor, so D = E in every answer.
    assert_eq!(answers[0].len(), 2);
    for answer in &answers[0] {
        assert_eq!(answer["D"], answer["E"]);
    }
}

#[test]
fn methods_reuse_existing_objects_where_skolem_functions_conflict() {
    // The paper's argument for method-denoted virtual objects (Sections 2 and
    // 6): `X.boss` refers to the *existing* boss when one is stored, and only
    // otherwise creates a virtual object.  A function-symbol translation has
    // no such choice — `boss(p2)` is a new object distinct from the stored
    // boss `b2`, so asserting `p2[boss -> boss(p2)]` clashes with the
    // extensional fact.  The direct engine succeeds; the translation does not.
    let program_text = "p1 : employee[worksFor -> cs1].
         p2 : employee[worksFor -> cs2; boss -> b2].
         b2 : employee[worksFor -> cs2].
         X.boss[worksFor -> D] <- X : employee[worksFor -> D].
         ?- X : employee[worksFor -> D].boss[worksFor -> E].";
    let program = parse_program(program_text).unwrap();

    // Direct semantics: p1 gets a virtual boss, p2's existing boss b2 is reused.
    let mut direct = Structure::new();
    let stats = Engine::new().load_program(&mut direct, &program).unwrap();
    assert_eq!(stats.virtual_objects, 2, "virtual bosses for p1 and for b2 itself");

    // F-logic translation: the skolem term boss(p2) conflicts with b2.
    let (flat, _) = Translator::new().program(&program).unwrap();
    let err = Engine::new()
        .load_program(&mut Structure::new(), &lower::lower(&flat))
        .unwrap_err();
    assert!(err.to_string().contains("conflicting scalar results"));
}

#[test]
fn existing_boss_rule_6_2_agrees() {
    // Rule (6.2): only *existing* bosses inherit the department.
    let answers = assert_equivalent(
        &Structure::new(),
        "p1 : employee[worksFor -> cs1].
         p2 : employee[worksFor -> cs2; boss -> b2].
         b2 : employee.
         Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].
         ?- Z : employee[worksFor -> D].",
    );
    assert_eq!(answers[0].len(), 3, "p1, p2 and the derived b2/cs2 pair");
}

#[test]
fn transitive_closure_6_4_agrees_on_the_paper_family() {
    let answers = assert_equivalent(
        &family(),
        "X[desc ->> {Y}] <- X[kids ->> {Y}].
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
         ?- peter[desc ->> {Y}].",
    );
    let descendants: BTreeSet<&str> = answers[0].iter().map(|a| a["Y"].as_str()).collect();
    assert_eq!(
        descendants,
        ["tim", "mary", "sally", "tom", "paul"].into_iter().collect()
    );
}

#[test]
fn intensional_power_method_agrees() {
    // Section 6: X[power -> Y] <- X : automobile.engine[power -> Y].
    // The synthetic company workload has no engines, so extend a copy first.
    let mut base = company();
    let engine_m = base.atom("engine");
    let power = base.atom("power");
    let automobile = base.atom("automobile");
    let autos: Vec<_> = base.instances_of(automobile).collect();
    for (i, auto) in autos.into_iter().enumerate().take(5) {
        let e = base.atom(&format!("engine{i}"));
        let kw = base.int(66 + i as i64);
        base.assert_scalar(engine_m, auto, &[], e).unwrap();
        base.assert_scalar(power, e, &[], kw).unwrap();
    }
    let answers = assert_equivalent(
        &base,
        "X[power -> Y] <- X : automobile.engine[power -> Y].
         ?- X : automobile[power -> Y].",
    );
    assert_eq!(answers[0].len(), 5);
}

#[test]
fn translation_is_less_compact_than_the_direct_reference() {
    // The compactness claim: one two-dimensional reference expands into a
    // conjunction of flat atoms (here 8), one atom per step/filter.
    let program =
        parse_program("?- X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[Z].")
            .unwrap();
    let (flat, stats) = Translator::new().program(&program).unwrap();
    assert_eq!(program.queries[0].body.len(), 1, "PathLog needs a single reference");
    assert!(
        stats.flat_atoms >= 8,
        "the translation needs a conjunction (got {})",
        stats.flat_atoms
    );
    assert_eq!(flat.queries[0].atom_count(), stats.flat_atoms);
    assert!(stats.aux_variables >= 2);
}

#[test]
fn virtual_object_counts_match_between_engines() {
    let base = company();
    let program_text = "X.address[city -> X.city] <- X : employee.";
    let program = parse_program(program_text).unwrap();

    let mut direct = base.clone();
    let stats = Engine::new().load_program(&mut direct, &program).unwrap();

    let (flat, _) = Translator::new().program(&program).unwrap();
    let lowered = lower::lower(&flat);
    let mut translated = base.clone();
    let lowered_stats = Engine::new().load_program(&mut translated, &lowered).unwrap();

    assert_eq!(
        stats.virtual_objects, lowered_stats.virtual_objects,
        "one virtual address per employee in both"
    );
    // The translation names one object more per reserved skolem method.
    let reserved: BTreeSet<Name> = lowered
        .rules
        .iter()
        .flat_map(|rule| rule.head.names())
        .filter(|name| name.as_atom().is_some_and(|a| a.ends_with('\'')))
        .collect();
    assert_eq!(reserved.len(), 1, "address'");
    assert_eq!(translated.num_objects(), direct.num_objects() + reserved.len());
}
