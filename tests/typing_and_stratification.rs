//! Integration tests for the typing (signature) extension and for the
//! stratification and safety restrictions of the engine (experiments E5/E8).

use pathlog::prelude::*;

#[test]
fn signatures_written_in_pathlog_syntax_drive_the_type_checker() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "person[age => integer; kids =>> person].
         3 : integer. 7 : integer. 90 : integer.
         mary : person[age -> 3].
         mary[kids ->> {tim}].
         tim : person[age -> red].",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let errors = pathlog::core::typing::type_check(&s);
    // two violations: tim's age is `red` (not an integer), and mary's kid tim
    // is fine (tim : person) — so exactly one age violation plus ... tim is a
    // person, so kids is fine.
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].to_string().contains("age"));
}

#[test]
fn signature_declarations_are_queryable_as_formulas() {
    let mut s = Structure::new();
    let engine = Engine::new();
    // `string` is mentioned as an ordinary name so that the negative test
    // below asks about a known (but undeclared) result class.
    let program = parse_program("person[age => integer]. string : valueClass.").unwrap();
    engine.load_program(&mut s, &program).unwrap();
    // the declaration itself is entailed, a different one is not
    let yes = parse_term("person[age => integer]").unwrap();
    let no = parse_term("person[age => string]").unwrap();
    assert!(entails(&s, &yes, &Bindings::new()).unwrap());
    assert!(!entails(&s, &no, &Bindings::new()).unwrap());
}

#[test]
fn facts_no_signature_covers_are_not_type_checked() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "employee[salary => integer].
         50000 : integer.
         mary : employee[salary -> 50000].
         intruder[salary -> ten].",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    // The intruder is no employee, so employee[salary => integer] does not
    // apply to its salary; mary's salary is an integer.
    assert!(pathlog::core::typing::type_check(&s).is_empty());
}

#[test]
fn unsafe_rules_are_rejected_with_helpful_messages() {
    // head variable not bound in the body
    let rule = parse_rule("X[likes -> Y] <- X : person.").unwrap();
    let err = pathlog::core::program::validate_rule(&rule).unwrap_err();
    assert!(err.to_string().contains("Y"));

    // negated-only variable
    let rule = parse_rule("X : lonely <- X : person, not Y[friendOf -> X].").unwrap();
    assert!(pathlog::core::program::validate_rule(&rule).is_err());

    // set-valued head
    let rule = parse_rule("X..kids[age -> 1] <- X : person.").unwrap();
    let err = pathlog::core::program::validate_rule(&rule).unwrap_err();
    assert!(err.to_string().contains("set-valued"));
}

#[test]
fn stratified_negation_behaves_like_negation_as_failure() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "mary : person[spouse -> peter].
         john : person.
         X : single <- X : person, not X.spouse[].
         ?- X : single.",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let answers = engine.query(&s, &program.queries[0]).unwrap();
    assert_eq!(answers.len(), 1);
    let x = answers.iter().next().unwrap().get(&Var::new("X")).unwrap();
    assert_eq!(s.display_name(x), "john");
}

#[test]
fn negation_that_depends_on_its_own_definitions_is_rejected() {
    let program = parse_program(
        "a : p.
         X : q <- X : p, not X : r.
         X : r <- X : p, not X : q.",
    )
    .unwrap();
    let mut s = Structure::new();
    let engine = Engine::new();
    assert!(matches!(
        engine.load_program(&mut s, &program),
        Err(Error::NotStratifiable(_))
    ));
}

#[test]
fn set_at_a_time_reads_are_evaluated_after_their_producers() {
    // friends is copied from assistants, assistants is derived from reports:
    // three strata, and the copy sees the complete set.
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "boss[reports ->> {anna, bert, carl}].
         boss[assistants ->> {Y}] <- boss[reports ->> {Y}].
         buddy[friends ->> boss..assistants] <- boss[assistants ->> {Y}].
         ?- buddy[friends ->> {F}].",
    )
    .unwrap();
    let stats = engine.load_program(&mut s, &program).unwrap();
    assert!(stats.strata >= 2);
    let answers = engine.query(&s, &program.queries[0]).unwrap();
    assert_eq!(answers.len(), 3, "all three assistants became friends");
}

#[test]
fn comparison_builtins_extension_filters_bindings() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program(
        "anna : person[age -> 30].
         bert : person[age -> 50].
         carl : person[age -> 41].
         X : senior <- X : person[age -> A], A[ge@(41) -> A].
         ?- X : senior.",
    )
    .unwrap();
    engine.load_program(&mut s, &program).unwrap();
    let seniors: Vec<String> = engine
        .query(&s, &program.queries[0])
        .unwrap()
        .iter()
        .map(|b| s.display_name(b.get(&Var::new("X")).unwrap()).into_owned())
        .collect();
    assert_eq!(seniors.len(), 2);
    assert!(seniors.contains(&"bert".to_string()) && seniors.contains(&"carl".to_string()));
}

#[test]
fn scalar_conflicts_are_reported_not_silently_overwritten() {
    let mut s = Structure::new();
    let engine = Engine::new();
    let program = parse_program("mary[age -> 30]. mary[age -> 31].").unwrap();
    let err = engine.load_program(&mut s, &program).unwrap_err();
    assert!(err.to_string().contains("conflicting"));
}

#[test]
fn evaluation_limits_guard_against_runaway_programs() {
    let program = parse_program(
        "n0 : node.
         X.next[] <- X : node.
         Y : node <- X : node.next[Y].",
    )
    .unwrap();
    let mut s = Structure::new();
    let engine = Engine::with_options(EvalOptions {
        max_iterations: 30,
        ..EvalOptions::default()
    });
    assert!(matches!(
        engine.load_program(&mut s, &program),
        Err(Error::LimitExceeded {
            kind: pathlog::core::error::LimitKind::Iterations,
            limit: 30,
            ..
        })
    ));
}

/// The members of the class `class` in `s`, by name.
fn extent(s: &Structure, class: &str) -> Vec<String> {
    let Some(class) = s.lookup_name(&Name::atom(class)) else {
        return Vec::new();
    };
    s.instances_of(class).map(|o| s.display_name(o).into_owned()).collect()
}

#[test]
fn classes_asserted_in_head_values_are_stratified_below_their_negations() {
    // The first rule's head makes `b1 : c` true from inside a filter value;
    // `not Z : c` reads `c` set-at-a-time, so the second rule must wait for
    // the first.  Loaded as two programs in that order, `d` is `{b2}`.
    let facts = "a1 : a. b1 : b. b2 : b. a1[partner -> b1].";
    let negation = "Z : d <- Z : b, not Z : c.";
    for head in ["X[m -> Y : c]", "X[m ->> {Y : c}]"] {
        let rule = format!("{head} <- X : a, X[partner -> Y].");
        let engine = Engine::new();
        let mut layered = Structure::new();
        for text in [format!("{facts} {rule}"), negation.to_string()] {
            engine
                .load_program(&mut layered, &parse_program(&text).unwrap())
                .unwrap();
        }
        assert_eq!(extent(&layered, "d"), ["b2"], "{head}");

        let program = parse_program(&format!("{facts} {rule} {negation}")).unwrap();
        let strata = engine.analyze(None, &program).strata.unwrap();
        assert_eq!(strata.stratum_of[4] + 1, strata.stratum_of[5], "{head}");
        let mut loaded = Structure::new();
        engine.load_program(&mut loaded, &program).unwrap();
        assert_eq!(extent(&loaded, "d"), ["b2"], "{head}: load_program");
        let mut checked = Structure::new();
        let (_, analysis) = engine.install_checked(&mut checked, &program).unwrap();
        assert_eq!(extent(&checked, "d"), ["b2"], "{head}: install_checked");
        assert_eq!(loaded.canonical_dump(), layered.canonical_dump(), "{head}");
        assert_eq!(checked.canonical_dump(), layered.canonical_dump(), "{head}");
        assert!(
            !analysis.diagnostics.codes().contains(&DiagCode::AlwaysEmptyLiteral),
            "{head}: {}",
            analysis.diagnostics
        );
    }
}

#[test]
fn a_set_right_hand_side_nested_in_a_head_value_reads_a_complete_set() {
    // `Y..q` sits in the value of `m`: the head reads `q` set-at-a-time, so
    // its rule runs after the rule defining `q`, and the result is a model.
    let program = parse_program(
        "a1 : a. b1 : b. a1[partner -> b1]. b1[k ->> {b1}].
         X[m -> Y[n ->> Y..q]] <- X : a, X[partner -> Y].
         Y[q ->> {Z}] <- Y[k ->> {Z}].
         ?- b1[n ->> {N}].",
    )
    .unwrap();
    let engine = Engine::new();
    let mut s = Structure::new();
    let stats = engine.load_program(&mut s, &program).unwrap();
    assert_eq!(stats.strata, 2);
    let answers = engine.query(&s, &program.queries[0]).unwrap();
    let members: Vec<String> = answers
        .iter()
        .map(|b| s.display_name(b.get(&Var::new("N")).unwrap()).into_owned())
        .collect();
    assert_eq!(members, ["b1"]);
    assert!(is_model(&s, &program).unwrap());
}

#[test]
fn a_scalar_assigned_inside_a_head_value_conflicts_with_its_other_assigner() {
    let program = parse_program(
        "a1 : a. b1 : b. a1[partner -> b1].
         X[m -> Y[n -> 1]] <- X : a, X[partner -> Y].
         Y[n -> 2] <- Y : b.",
    )
    .unwrap();
    let engine = Engine::new();
    let analysis = engine.analyze(None, &program);
    assert_eq!(analysis.diagnostics.codes(), [DiagCode::ScalarConflict]);
    assert!(analysis.diagnostics.to_string().contains("`n`"));
    // The fact store rejects what the warning predicts.
    let err = engine.load_program(&mut Structure::new(), &program).unwrap_err();
    assert!(err.to_string().contains("conflicting"), "{err}");
}
