//! Property-based tests (proptest) over the core data structures and the
//! invariants the paper's definitions promise.

use proptest::prelude::*;

use pathlog::core::scalarity::is_set_valued;
use pathlog::core::structure::Isa;
use pathlog::core::wellformed::is_well_formed;
use pathlog::prelude::*;

// ---------------------------------------------------------------------------
// Term generation: produces references in the normal form the parser yields
// (filter lists are flattened, method/class positions are simple references),
// so that print -> parse -> print is the identity.
// ---------------------------------------------------------------------------

fn atom_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "mary", "peter", "employee", "vehicles", "color", "kids", "boss", "city", "salary", "address", "tc",
    ])
    .prop_map(|s| s.to_string())
}

fn var_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["X", "Y", "Z", "Boss", "M"]).prop_map(|s| s.to_string())
}

fn simple_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        atom_name().prop_map(Term::name),
        var_name().prop_map(Term::var),
        // non-negative: a negative integer directly after a path dot (`x.-3`)
        // is not representable in the concrete syntax without parentheses
        (0i64..200).prop_map(Term::int),
        atom_name().prop_map(|s| Term::string(format!("lit {s}"))),
    ]
}

/// A reference in parser normal form, with bounded depth.
fn term_strategy() -> impl Strategy<Value = Term> {
    terms_over(simple_term)
}

/// References in parser normal form over the leaves `simple` makes.  A
/// negative integer in a path's method position is parenthesised: `x.-3`
/// would read as the statement end `x.` before `-3`.
fn terms_over<S: Strategy<Value = Term> + 'static>(simple_term: fn() -> S) -> BoxedStrategy<Term> {
    simple_term().prop_recursive(3, 24, 4, move |inner| {
        let filter = (
            simple_term(),
            prop::collection::vec(inner.clone(), 0..2),
            inner.clone(),
            0..3u8,
        )
            .prop_map(|(method, args, value, kind)| {
                // Method positions must be simple; wrap anything else in parentheses.
                let method = if method.is_simple() { method } else { method.paren() };
                let value = match kind {
                    0 => FilterValue::Scalar(value),
                    1 => FilterValue::SetExplicit(vec![value]),
                    _ => FilterValue::SigScalar(vec![Term::name("integer")]),
                };
                Filter { method, args, value }
            });
        prop_oneof![
            // paths
            (inner.clone(), simple_term(), any::<bool>()).prop_map(|(recv, method, set)| {
                let negative = matches!(method, Term::Name(Name::Int(i)) if i < 0);
                let method = if method.is_simple() && !negative {
                    method
                } else {
                    method.paren()
                };
                // avoid a molecule receiver being re-associated is not a
                // concern for paths; any receiver is fine
                if set {
                    recv.set(method)
                } else {
                    recv.scalar(method)
                }
            }),
            // molecules (receiver must not itself be a molecule so that the
            // printed `r[f1][f2]` form does not re-parse to a merged filter list)
            (
                inner
                    .clone()
                    .prop_filter("non-molecule receiver", |t| !matches!(t, Term::Molecule(_))),
                prop::collection::vec(filter, 1..3)
            )
                .prop_map(|(recv, filters)| recv.filters(filters)),
            // class membership
            (inner.clone(), simple_term()).prop_map(|(recv, class)| {
                let class = if class.is_simple() { class } else { class.paren() };
                recv.isa(class)
            }),
            // parentheses
            inner.prop_map(Term::paren),
        ]
    })
}

/// Leaves for the program round trip: besides the plain ones, non-ASCII
/// atoms and variables, negative and extreme integers (`i64::MIN` has no
/// literal: its digits overflow), and strings built from escapes, tabs,
/// newlines, quotes and non-ASCII text.
fn rich_simple_term() -> impl Strategy<Value = Term> {
    let atom = prop::sample::select(vec![
        "mary", "kids", "müller", "straße", "日本", "ärger", "émile", "x_1",
    ]);
    let var = prop::sample::select(vec!["X", "Y", "Ärger", "Öl", "_tmp", "Z9"]);
    let piece = prop::sample::select(vec!["lit", "\"", "\\", "\n", "\t", "ü", " ", "%", "//", "a.b"]);
    prop_oneof![
        atom.prop_map(Term::name),
        var.prop_map(Term::var),
        (-200i64..200).prop_map(Term::int),
        prop::sample::select(vec![i64::MAX, -i64::MAX, 0]).prop_map(Term::int),
        prop::collection::vec(piece, 0..5).prop_map(|pieces| Term::string(pieces.concat())),
    ]
}

/// A program: facts and rules over rich references, then queries.
fn program_strategy() -> impl Strategy<Value = Program> {
    let literal = (any::<bool>(), terms_over(rich_simple_term)).prop_map(|(positive, term)| {
        if positive {
            Literal::pos(term)
        } else {
            Literal::neg(term)
        }
    });
    let rule = (
        terms_over(rich_simple_term),
        prop::collection::vec(literal.clone(), 0..3),
    )
        .prop_map(|(head, body)| Rule::new(head, body));
    let query = prop::collection::vec(literal, 1..3).prop_map(Query::new);
    (prop::collection::vec(rule, 1..6), prop::collection::vec(query, 0..3)).prop_map(|(rules, queries)| {
        let mut program = Program::new();
        rules.into_iter().for_each(|r| {
            program.push_rule(r);
        });
        queries.into_iter().for_each(|q| {
            program.push_query(q);
        });
        program
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Printing a reference and parsing it back yields the same reference.
    #[test]
    fn print_parse_roundtrip(term in term_strategy()) {
        let printed = term.to_string();
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("printed form `{printed}` failed to parse: {e}"));
        prop_assert_eq!(term, reparsed, "printed as `{}`", printed);
    }

    /// Printing a program and parsing it back yields the same program:
    /// statement boundaries, negated literals, escapes, negative integers
    /// and non-ASCII names survive the round trip.
    #[test]
    fn program_print_parse_roundtrip(program in program_strategy()) {
        let printed = program.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(program, reparsed, "printed as\n{}", printed);
    }

    /// Scalarity (Definition 2) is invariant under parenthesisation and is
    /// determined by the receiver for molecules and class memberships.
    #[test]
    fn scalarity_invariants(term in term_strategy()) {
        prop_assert_eq!(is_set_valued(&term.clone().paren()), is_set_valued(&term));
        let as_molecule = term.clone().filters(vec![Filter::scalar("age", Term::int(1))]);
        prop_assert_eq!(is_set_valued(&as_molecule), is_set_valued(&term));
        let as_isa = term.clone().isa("employee");
        prop_assert_eq!(is_set_valued(&as_isa), is_set_valued(&term));
        // a set-valued postfix always makes the reference set-valued
        prop_assert!(is_set_valued(&term.clone().set("kids")));
    }

    /// Well-formedness (Definition 3): attaching a scalar filter whose result
    /// is a set-valued reference always makes a term ill-formed, and
    /// well-formedness is preserved by parenthesisation.
    #[test]
    fn wellformedness_invariants(term in term_strategy()) {
        prop_assert_eq!(is_well_formed(&term.clone().paren()), is_well_formed(&term));
        let bad = term.clone().filter(Filter::scalar("boss", Term::name("p1").set("assistants")));
        prop_assert!(!is_well_formed(&bad));
        // variables collected are unique and parenthesisation does not change them
        let vars = term.variables();
        let mut dedup = vars.clone();
        dedup.dedup();
        prop_assert_eq!(vars.len(), dedup.len());
        prop_assert_eq!(term.clone().paren().variables(), vars);
    }

    /// The incremental transitive closure of the is-a relation agrees with a
    /// from-scratch reachability computation for all pairs of *distinct*
    /// objects, regardless of insertion order.  Membership is deliberately
    /// irreflexive (see DESIGN.md), so `x isa x` never holds — not even when
    /// a self-edge or a cycle is asserted.
    #[test]
    fn isa_closure_matches_reachability(edges in prop::collection::vec((0u32..12, 0u32..12), 0..30)) {
        let mut isa = Isa::new();
        for &(a, b) in &edges {
            isa.add(Oid(a), Oid(b));
        }
        // reference reachability by BFS over the raw edges
        for from in 0u32..12 {
            let mut reachable = std::collections::BTreeSet::new();
            let mut stack = vec![from];
            while let Some(x) = stack.pop() {
                for &(a, b) in &edges {
                    if a == x && reachable.insert(b) {
                        stack.push(b);
                    }
                }
            }
            prop_assert!(!isa.in_class(Oid(from), Oid(from)), "membership must be irreflexive ({from})");
            for to in 0u32..12 {
                if from == to {
                    continue;
                }
                prop_assert_eq!(
                    isa.in_class(Oid(from), Oid(to)),
                    reachable.contains(&to),
                    "from {} to {}", from, to
                );
            }
        }
    }

    /// The PathLog `desc` rules compute exactly the relational transitive
    /// closure on random forests.
    #[test]
    fn desc_rules_match_relational_closure(parents in prop::collection::vec(0usize..8, 1..14)) {
        // node i+1 gets parent `parents[i] % (i+1)` — always a forest
        let mut s = Structure::new();
        let kids = s.atom("kids");
        let nodes: Vec<Oid> = (0..=parents.len()).map(|i| s.atom(&format!("n{i}"))).collect();
        let mut edges = Vec::new();
        for (i, &p) in parents.iter().enumerate() {
            let parent = nodes[p % (i + 1)];
            let child = nodes[i + 1];
            s.assert_set_member(kids, parent, &[], child);
            edges.push((parent, child));
        }
        let program = parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}].
             X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
        ).unwrap();
        let mut evaluated = s.clone();
        let stats = Engine::new().load_program(&mut evaluated, &program).unwrap();

        let db = pathlog::baseline::RelationalDb::from_structure(&s);
        let closure = pathlog::baseline::relational::tc::transitive_closure(&db.attr("kids", "p", "c"));
        prop_assert_eq!(stats.set_members, closure.len());
    }

    /// Entailment of a ground molecule implies entailment after dropping
    /// filters (molecule filters only restrict the valuation).
    #[test]
    fn dropping_filters_only_widens_the_valuation(age in 0i64..5, asked in 0i64..5) {
        let mut s = Structure::new();
        let (mary, age_m) = (s.atom("mary"), s.atom("age"));
        let v = s.int(age);
        s.assert_scalar(age_m, mary, &[], v).unwrap();
        let filtered = Term::name("mary").filter(Filter::scalar("age", Term::int(asked)));
        let unfiltered = Term::name("mary").empty_filters();
        let filtered_holds = entails(&s, &filtered, &Bindings::new()).unwrap();
        let unfiltered_holds = entails(&s, &unfiltered, &Bindings::new()).unwrap();
        prop_assert!(unfiltered_holds);
        if filtered_holds {
            prop_assert_eq!(age, asked);
        }
    }
}
