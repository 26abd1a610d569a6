//! Property-based tests for the engine's delta passes: they run through
//! compiled slot-frame rule bodies — every literal lowered to primitive atoms
//! — in the literal and atom order the planner chooses from live index
//! cardinalities (`pathlog_core::plan`), and the result
//! must be *bit-identical* to the reference fixpoint
//! (`pathlog_core::semantics::fixpoint`: every rule re-solved in full, in
//! written order, each iteration, and its solutions committed in canonical
//! order, sharing none of the engine's scheduling), on random trees
//! and random (possibly cyclic) graphs, for one program of planner-relevant
//! rules and a table of rule families covering every literal shape.
//!
//! A stratum's first, full solve runs the same atoms with nothing
//! restricted, planned like a query, and commits in canonical order, as the
//! reference's sorted written-order solutions do: every rule body of the
//! table and of `JOINS`, as the body of a rule that mints one virtual object
//! per solution, must mint the reference's objects under the reference's
//! ids.
//!
//! The read side runs the same atoms with nothing restricted, in the literal
//! and atom order the live index cardinalities suggest: over the models of
//! those programs, `Engine::query` must equal the written-order reference
//! `solve_body` as a set of keys and `Engine::query_term` must equal
//! `answers()` as a multiset of `(key, object)`, both in canonical order,
//! errors included (the last section) — read through the rows of the
//! `Answers` they return, whose key, variables and object must be those of
//! the `Bindings` a row builds.

use proptest::prelude::*;

use std::collections::BTreeSet;

use pathlog::core::engine::{binding_key, BindingKey};
use pathlog::core::plan::{compile, compile_query, execute_delta, execute_seeded, plan_in_order, plan_query, AtomStep};
use pathlog::core::program::Literal;
use pathlog::core::semantics::{fixpoint, solve_body, Bindings, SnapshotWindow};
use pathlog::core::structure::{Oid, Structure};
use pathlog::prelude::*;

/// The recursive closure program both evaluators run: a 2-literal recursive
/// rule, the non-linear closure rule — both of its literals read `desc`, so
/// every iteration that grows `desc` runs two delta passes for it and the
/// commit merges two frame runs — a second stratum over the closure, a
/// 3-literal join with a deliberately bad written order (the big `desc`
/// relation first), a negation, and two bodies whose built-in guard
/// *enumerates* — `self` binds `Y` to `X`, `neq` runs `Y` over every other
/// object before `Y : parent` filters — which the planner must leave in
/// written order.
const PROGRAM: &str = "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                       X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n\
                       X[desc ->> {Z}] <- X[desc ->> {Y}], Y[desc ->> {Z}].\n\
                       X : parent <- X[kids ->> {Y}].\n\
                       X[gk ->> {Z}] <- X[desc ->> {Z}], Z[kids ->> {W}], Z : parent.\n\
                       X : grandparent <- X[gk ->> {Z}].\n\
                       X : onlyparent <- X : parent, not X : grandparent.\n\
                       X[same ->> {Y}] <- X : grandparent, X[self -> Y], Y : parent.\n\
                       X[peer ->> {Y}] <- X : grandparent, X[neq@(Y) -> X], Y : parent.\n";

/// The proper rules of `PROGRAM`.
const RULES: usize = 9;

/// What every family of `SHAPES` starts with: `kids` (the company's
/// `assistants` count as kids too) and a frontier `reached` that advances one
/// generation per iteration from the roots (and from `n0`, for graphs without
/// one), dragging scalar facts (`id`, `kind`, `hop@(Y)`) and set members
/// (`next`) along — so the recursive stratum runs several delta iterations
/// whose windows hold every kind of fact, and whatever a family derives into
/// `seen` feeds back into it.
const FRONTIER: &str = "X[kids ->> {Y}] <- X[assistants ->> {Y}].\n\
                        X : parent <- X[kids ->> {Y}].\n\
                        Y : child <- X[kids ->> {Y}].\n\
                        X : root <- X : parent, not X : child.\n\
                        n0 : reached.\n\
                        X : reached <- X : root.\n\
                        Y : reached <- X : reached, X[kids ->> {Y}].\n\
                        X : reached <- X : seen.\n\
                        X[id -> X] <- X : reached.\n\
                        X[kind -> inner] <- X : reached, X[kids ->> {Y}].\n\
                        X[hop@(Y) -> X] <- X : reached, X[kids ->> {Y}].\n\
                        X[next ->> {Y}] <- X : reached, X[kids ->> {Y}].\n";

/// The closure rules two families build on.
const DESC: &str = "X[kids ->> {Y}] <- X[assistants ->> {Y}].\n\
                    X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
                    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].\n";

/// One rule family per literal shape the compiled IR has to lower — name,
/// what precedes it, the family's own rules — each with the shape inside a
/// recursive stratum, so that delta passes (not only the first, written-order
/// full solve) evaluate it.  `V` stands for a variable, `n` for a name, `c`
/// for a class, `m` for a method.  Node names are those of the random trees
/// (`p0_0`, …) and graphs (`n0`, …).
const SHAPES: &[(&str, &str, &str)] = &[
    // V : c[m -> V]
    ("isa_scalar_filter", FRONTIER, "Z : seen <- X : reached[id -> Z]."),
    // V : c.m[m -> V]
    ("isa_path_filter", FRONTIER, "Z : seen <- X : reached.id[id -> Z]."),
    // V : c[m -> V].m[m -> V]
    (
        "isa_filter_path_filter",
        FRONTIER,
        "Z : seen <- X : reached[id -> W].id[id -> Z].",
    ),
    // V.m[m -> V]
    ("scalar_path_filter", FRONTIER, "Z : seen <- X.id[id -> Z]."),
    // V..m..m[m -> V]
    ("set_path_path_filter", FRONTIER, "Z : seen <- X..next..next[id -> Z]."),
    // V[M ->> {V}] and V..(M.tc)[M ->> {V}]: the paper's generic closure
    // (6.4).  Its heads define an unknown key, which every reader depends
    // on, so no negation may stand beside it.
    (
        "generic_closure",
        "X[kids ->> {Y}] <- X[assistants ->> {Y}].\n",
        "kids : baseMethod.\n\
         X[(M.tc) ->> {Y}] <- M : baseMethod, X[M ->> {Y}].\n\
         X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}].",
    ),
    // V.(n.n): the method is itself a path, whose fact is derived mid-stratum.
    (
        "path_as_method",
        FRONTIER,
        "conf[alias -> id] <- X : reached.\n\
         X : seen <- X.(conf.alias).",
    ),
    // A bare V behind a ground guard, and a virtual-object head a later rule
    // reads: every `X.tag` is created mid-stratum and must become a thing.
    (
        "bare_variable_and_virtual_head",
        FRONTIER,
        "go[on -> yes] <- X : reached.\n\
         Z : thing <- go[on -> yes], Z.\n\
         X.tag[of -> X] <- X : reached, X : thing.\n\
         Z : seen <- X.tag[of -> Z].",
    ),
    // n[m -> n] and n[m ->> {V}]
    (
        "ground_literals",
        FRONTIER,
        "Y : seen <- n0[id -> n0], n0[next ->> {Y}].\n\
         Y : seen <- p0_0[id -> p0_0], p0_0[next ->> {Y}].",
    ),
    // A body without variables in a recursive stratum: the closure makes the
    // ground rule fire, the flag adds an edge, the edge feeds the closure.
    (
        "ground_body",
        DESC,
        "flag[on ->> {yes}] <- n0[desc ->> {n3}].\n\
         flag[on ->> {yes}] <- p0_0[desc ->> {p0_2}].\n\
         n3[kids ->> {n0}] <- flag[on ->> {yes}].\n\
         p0_2[kids ->> {p0_1}] <- flag[on ->> {yes}].",
    ),
    // V[m -> n]
    ("scalar_filter_name", FRONTIER, "X : seen <- X[kind -> inner]."),
    // V[m ->> {n}]
    (
        "set_filter_name",
        FRONTIER,
        "X : seen <- X[next ->> {n3}].\n\
         X : seen <- X[next ->> {p0_2}].",
    ),
    // V[m@(V) -> V]
    ("method_arguments", FRONTIER, "Y : seen <- X[hop@(Y) -> D]."),
    // V[m ->> {V}; m -> V]
    (
        "multi_filter_molecule",
        FRONTIER,
        "Y : seen <- X[next ->> {Y}; id -> C].",
    ),
    // V[m ->> {V[m -> n]}]
    (
        "nested_element",
        FRONTIER,
        "Y : seen <- X[next ->> {Y[kind -> inner]}].",
    ),
    // V[m ->> V..m]: strict right-hand sides from a lower stratum (which
    // `parent` then belongs to as well, so only the growing `desc` can drive
    // the rules): grandkids, which `desc` covers an iteration late, and
    // siblings, which it covers on cycles only.
    (
        "strict_superset",
        DESC,
        "X : parent <- X[kids ->> {Y}].\n\
         X[gk ->> {Z}] <- X : parent, X[kids ->> {Y}], Y[kids ->> {Z}].\n\
         Y[sibs ->> {Z}] <- X : parent, X[kids ->> {Y}], X[kids ->> {Z}].\n\
         X : covered <- X : parent, X[desc ->> X..gk].\n\
         X : closed <- X : parent, X[desc ->> X..sibs].\n\
         X[desc ->> {X}] <- X : covered.\n\
         X[desc ->> {X}] <- X : closed.",
    ),
    // V : c, V[m ->> V..m] with the strict literal written after the one
    // that binds its receiver: a leaf has no `next` application and no kids,
    // so it is `seen` — but only if the check runs under a bound receiver
    // (an unbound one ranges over the defined applications, which miss it).
    (
        "strict_superset_after_binder",
        FRONTIER,
        "X : seen <- X : reached, X[next ->> X..kids].",
    ),
    // V[M -> V]: an unbound method variable ranges over the stored methods
    // and `self`.
    (
        "scalar_method_variable",
        FRONTIER,
        "X[via ->> {M}] <- X : reached, X[M -> Y].",
    ),
    // V[m ->> {V}], the member bound by the call's own receiver; and
    // not V..m, which a frame with several kids completes several times.
    (
        "self_member_and_negated_member",
        DESC,
        "X : cyclic <- X[desc ->> {X}].\n\
         Y : leaf <- X[desc ->> {Y}], not Y..kids.",
    ),
    // not V..m[m -> n], in a stratum whose second rule reads the first's
    // head: a parent of a tip is an uptip unless a kid of its has kids.
    (
        "negated_path",
        FRONTIER,
        "X : tip <- X : reached, not X..next[kind -> inner].\n\
         Y : uptip <- X : tip, Y[kids ->> {X}], not Y..next[kind -> inner].",
    ),
];

/// Load `text` with the engine, or with the reference [`fixpoint`] when
/// `reference`; returns the model dump followed by the set-member insertion
/// log, and the stats.
///
/// No model check here: `bare_variable_and_virtual_head` derives
/// `thing : thing`, which the is-a closure does not store (it is
/// irreflexive), so `is_model` reports that rule violated by either run.
fn run(text: &str, structure: &Structure, reference: bool) -> (String, EvalStats) {
    let program = parse_program(text).expect("program parses");
    let mut s = structure.clone();
    let stats = if reference {
        fixpoint(&mut s, &program, &EvalOptions::default())
    } else {
        Engine::new().load_program(&mut s, &program)
    };
    let mut dump = s.canonical_dump();
    for (app, member) in s.facts().set_members_since(0) {
        dump.push_str(&format!("log {app} {member}\n"));
    }
    (dump, stats.expect("evaluation succeeds"))
}

/// Assert `engine ≡ reference` for the program `name` — `text` — on
/// `structure`: the engine must reproduce the reference fixpoint's model
/// and set-member insertion log byte for byte and its model counters
/// exactly, and a second engine run
/// must repeat the first's whole `EvalStats` (scheduling and planner
/// counters included).  Returns the engine's stats.
fn assert_engine_matches_oracle(name: &str, text: &str, structure: &Structure) -> EvalStats {
    let (oracle_dump, oracle_stats) = run(text, structure, true);
    let (dump, stats) = run(text, structure, false);
    assert_eq!(
        dump, oracle_dump,
        "{name}: model must be byte-identical to the reference"
    );
    assert_eq!(stats.model_counters(), oracle_stats.model_counters(), "{name}");
    let (again_dump, again) = run(text, structure, false);
    assert_eq!(again_dump, dump, "{name}");
    assert_eq!(again, stats, "{name}: stats must repeat run to run");
    stats
}

/// `PROGRAM` and every family of `SHAPES` against the oracle on `structure`;
/// returns each one's delta solves, `PROGRAM`'s first.
fn assert_every_program_matches_oracle(structure: &Structure) -> Vec<usize> {
    let families = SHAPES
        .iter()
        .map(|(name, prelude, rules)| (*name, format!("{prelude}{rules}")));
    std::iter::once(("PROGRAM", PROGRAM.to_string()))
        .chain(families)
        .map(|(name, text)| assert_engine_matches_oracle(name, &text, structure).delta_solves)
        .collect()
}

/// Facts written in the text are data to the planner: only the proper rules
/// of `PROGRAM` are ever compiled, solved or skipped, however many `kids`
/// facts precede them, and the model still equals the reference's.
#[test]
fn facts_in_the_text_are_never_planned_or_scheduled() {
    let facts: String = (0..60)
        .map(|i| format!("n{i}[kids ->> {{n{}, n{}}}].\n", 2 * i + 1, 2 * i + 2))
        .collect();
    let text = format!("{facts}{PROGRAM}");
    let (oracle_dump, oracle) = run(&text, &Structure::new(), true);
    let (planned_dump, planned) = run(&text, &Structure::new(), false);
    assert_eq!(planned_dump, oracle_dump);
    assert_eq!(planned.model_counters(), oracle.model_counters());

    assert_eq!(
        (planned.plans_compiled, planned.replans),
        (RULES, 0),
        "one compile per proper rule"
    );
    let scheduled = planned.full_solves + planned.delta_solves + planned.rules_skipped;
    assert!(scheduled <= RULES * planned.iterations, "{planned:?}");
    assert_eq!(planned.full_solves, RULES, "one full solve per proper rule");
}

/// The shape table over three fixed inputs — a tree, a cyclic graph and a
/// small company — on which every family must actually reach its delta
/// passes: a family whose recursive stratum never ran one would hold the
/// oracle vacuously.
#[test]
fn every_shape_runs_delta_passes_and_matches_the_oracle() {
    let tree = pathlog::datagen::genealogy_structure(&pathlog::datagen::GenealogyParams {
        roots: 1,
        depth: 3,
        fanout: 2,
        seed: 7,
    });
    let mut graph = Structure::new();
    let kids = graph.atom("kids");
    let nodes: Vec<Oid> = (0..8).map(|i| graph.atom(&format!("n{i}"))).collect();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 3), (6, 7)] {
        graph.assert_set_member(kids, nodes[a], &[], nodes[b]);
    }
    let company = pathlog::datagen::company_structure(&pathlog::datagen::CompanyParams::scaled(30));
    let mut delta_solves = vec![0; 1 + SHAPES.len()];
    for structure in [&tree, &graph, &company] {
        for (total, n) in delta_solves
            .iter_mut()
            .zip(assert_every_program_matches_oracle(structure))
        {
            *total += n;
        }
    }
    for ((name, _, _), n) in SHAPES.iter().zip(&delta_solves[1..]) {
        assert!(*n > 0, "family `{name}` never ran a delta pass");
    }
}

/// Bodies over the `FRONTIER` vocabulary whose literals, once their order is
/// permuted, meet the atom steps with every pattern of bound and unbound
/// operands: method, receiver, argument, value and class each bound by an
/// earlier literal in one order and enumerated from an index in another.
const JOINS: &[&str] = &[
    "X : out <- X[kind -> inner], X[next ->> {Y}], Y : reached.",
    "X : out <- X : reached, X[M -> Y], Y : C.",
    "X : out <- X : fresh, X[M ->> {Y}], M : baseMethod.",
    "X : out <- X : fresh, X[hop@(Y) -> D], Y[id -> Z].",
    "X : out <- X : fresh, X[pair@(A) ->> {B}], B : reached.",
    "X : out <- X..next[id -> Y], Y[kids ->> {Z}], Z[id -> Z].",
    "X : out <- X.id.kind[self -> K], X : C, Y[kind -> K].",
    "X : out <- X[next ->> X..kids], X[kids ->> {Y}], not Y..next[kind -> inner].",
    "X : out <- X[next ->> {Y[kind -> inner]}; id -> X], Y : parent.",
    // Signature filters match the declarations table, whichever of class,
    // method and result the other literals have bound.
    "X : out <- X : C, C[kind => R], X[kind -> Y].",
    "X : out <- X : fresh, X[M => R], X[M -> Y].",
    // `pair@(X)` is undefined on `X` itself — the empty set, which covers
    // the kids of a leaf only.
    "X : out <- X : reached, not X[pair@(X) ->> X..kids].",
];

/// The solutions of `body` over `s` by the written-order reference, as keys.
fn oracle_keys(s: &Structure, body: &[Literal]) -> BTreeSet<BindingKey> {
    let solutions = solve_body(s, body, &Bindings::new()).expect("body solves");
    solutions.iter().map(binding_key).collect()
}

/// What the `JOINS` bodies read: `FRONTIER`, `pair@(Y)` sets, base methods
/// and a signature.
fn joins_program() -> String {
    format!(
        "{FRONTIER}next : baseMethod.\nkids : baseMethod.\nreached[id => reached].\n\
         X[pair@(Y) ->> {{X, Y}}] <- X : reached, X[kids ->> {{Y}}]."
    )
}

/// The structures the `JOINS` bodies are written for: a tree closed under
/// `FRONTIER`, with `pair@(Y)` sets, base methods and a signature — and the
/// same after the frontier advanced into a grafted branch, two old parents
/// turned `fresh` and four more declarations were made.
fn joins_structures() -> (Structure, Structure) {
    let program = parse_program(&joins_program()).expect("parses");
    let mut before = pathlog::datagen::genealogy_structure(&pathlog::datagen::GenealogyParams {
        roots: 1,
        depth: 2,
        fanout: 2,
        seed: 3,
    });
    Engine::new().load_program(&mut before, &program).expect("evaluates");
    let mut after = before.clone();
    let kids = after.atom("kids");
    let graft = ["p0_1", "g1", "g2", "g3"].map(|n| after.atom(n));
    for (a, b) in [(0, 1), (0, 2), (1, 3)] {
        after.assert_set_member(kids, graft[a], &[], graft[b]);
    }
    let fresh = after.atom("fresh");
    for n in ["p0_0", "p0_4", "g1"] {
        let n = after.atom(n);
        after.add_isa(n, fresh);
    }
    Engine::new().load_program(&mut after, &program).expect("evaluates");
    let declaration = "fresh[kind => inner]. p0_0[kind => inner]. parent[kind => inner]. parent[kind =>> reached].";
    let declaration = parse_program(declaration).expect("parses");
    Engine::new().load_program(&mut after, &declaration).expect("evaluates");
    (before, after)
}

/// Every order of its literals — not only the planned one — is an execution
/// the atom steps must get right: over the window in which the frontier of a
/// tree advances into a grafted branch (and two old parents turn `fresh`, so
/// that new solutions join old facts too), each order's passes (one per
/// restricted literal) find only solutions of the body, and between them
/// every solution the window added — with every unrestricted literal's atoms
/// in lowering order, and in the order the planner gives them under that
/// literal order.
#[test]
fn passes_match_the_oracle_in_every_literal_order() {
    let (before, after) = joins_structures();
    let dv = SnapshotWindow::capture(&before).slide(&after);
    assert!(dv.has_new_objects() && dv.sigs_changed() && dv.entry_count() > 10);

    for text in JOINS {
        let rule = &parse_program(text).expect("parses").rules[0];
        let compiled = compile(rule);
        let (old, new) = (oracle_keys(&before, &rule.body), oracle_keys(&after, &rule.body));
        assert!(new.len() > old.len(), "`{text}` gains no solution in the window");
        let positives: Vec<usize> = compiled.positives().iter().map(|l| l.body_index).collect();
        for positions in permutations(&positives) {
            let planned = plan_in_order(&after, &compiled, &positions);
            let mut lowered = planned.clone();
            for l in lowered.positives.iter_mut().chain(&mut lowered.negations) {
                let atoms = 0..compiled.literal(l.body_index).atoms.len();
                l.atoms = atoms.map(|atom| AtomStep { atom, cardinality: 0 }).collect();
            }
            for plan in [&lowered, &planned] {
                let mut found = BTreeSet::new();
                for &delta_lit in &positives {
                    let run = execute_delta(&after, &compiled, plan, delta_lit, &dv).expect("pass runs");
                    for frame in run.frames() {
                        let key = binding_key(&compiled.bindings_of(frame));
                        assert!(new.contains(&key), "`{text}` {plan:?}: {key:?} is no solution");
                        found.insert(key);
                    }
                }
                let missed: Vec<_> = new.difference(&old).filter(|k| !found.contains(*k)).collect();
                assert!(missed.is_empty(), "`{text}` {plan:?} missed {missed:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full solves: the same atoms, planned like a query, committed in canonical
// order.
// ---------------------------------------------------------------------------

/// The rule that mints one virtual object per solution of `body` — its
/// positive variables `V1, …, Vk` key `mint.key@(V1, …, Vk)[of -> V1]` — so
/// that the object ids record the order in which the solutions were
/// committed.  `None` for the empty body of a fact, which has no solve, and
/// for a body with a bare variable, which ranges over the objects the rule
/// mints and so would mint without end.
fn minting_rule(body: &[Literal]) -> Option<Rule> {
    if body.is_empty() {
        return None;
    }
    let mut vars: Vec<Term> = Vec::new();
    for lit in body.iter().filter(|l| l.positive) {
        if matches!(lit.term, Term::Var(_)) {
            return None;
        }
        for v in lit.term.variables() {
            let v = Term::Var(v);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let of = vars.first().cloned().unwrap_or(Term::name("mint"));
    let head = Term::name("mint")
        .scalar_args("key", vars)
        .filter(Filter::scalar("of", of));
    Some(Rule::new(head, body.to_vec()))
}

/// Assert that the minting rule over `body`, installed by itself over
/// `model` — the structure its body was written for, so that its one full
/// solve does all the work — mints the same objects under the same ids with
/// the engine as with the reference fixpoint (equal `canonical_dump()` and
/// model counters), that the engine solved it in full once, and that each
/// result is a model of the rule.  Returns how many objects were minted.
fn assert_full_solve_matches_oracle(label: &str, model: &Structure, body: &[Literal]) -> usize {
    let Some(rule) = minting_rule(body) else {
        return 0;
    };
    let program = Program {
        rules: vec![rule],
        ..Program::new()
    };
    let mut oracle = model.clone();
    let oracle_stats =
        fixpoint(&mut oracle, &program, &EvalOptions::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut s = model.clone();
    let stats = Engine::new()
        .load_program(&mut s, &program)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        s.canonical_dump(),
        oracle.canonical_dump(),
        "{label}: `{}` mints what the reference mints, in its order",
        program.rules[0]
    );
    assert_eq!(stats.model_counters(), oracle_stats.model_counters(), "{label}");
    assert_eq!(stats.full_solves, 1, "{label}: one full solve, planned: {stats:?}");
    assert!(is_model(&oracle, &program).expect("the rule checks"), "{label}");
    assert!(is_model(&s, &program).expect("the rule checks"), "{label}");
    stats.virtual_objects
}

/// Every body of `SHAPES` over the model of its family on `structure`: how
/// many objects each minted.
fn assert_every_shape_body_mints_like_the_oracle(input: &str, structure: &Structure) -> Vec<usize> {
    let mut minted = Vec::new();
    for (name, prelude, rules) in SHAPES {
        let text = format!("{prelude}{rules}");
        let model = closed(&text, structure);
        for rule in parse_program(rules).expect("parses").rules {
            let label = format!("{name} over the {input}: `{rule}`");
            minted.push(assert_full_solve_matches_oracle(&label, &model, &rule.body));
        }
    }
    minted
}

/// The full solve of every `SHAPES` and `JOINS` body, over the fixed inputs
/// of the delta-pass and query tests: each body that can mint must mint on
/// one of them, so that none is held vacuously.
#[test]
fn full_solves_mint_like_the_oracle_for_every_body() {
    let (tree, graph) = tree_and_diamond_graph();
    let on_tree = assert_every_shape_body_mints_like_the_oracle("tree", &tree);
    let on_graph = assert_every_shape_body_mints_like_the_oracle("graph", &graph);
    let minted = on_tree.iter().zip(&on_graph).map(|(a, b)| a + b);
    let bodies = SHAPES.iter().flat_map(|(name, _, rules)| {
        parse_program(rules)
            .expect("parses")
            .rules
            .into_iter()
            .map(move |r| (name, r))
    });
    let unminted: Vec<String> = bodies
        .zip(minted)
        .filter(|((_, rule), n)| *n == 0 && minting_rule(&rule.body).is_some())
        .map(|((name, rule), _)| format!("{name}: `{rule}`"))
        .collect();
    assert!(unminted.is_empty(), "never minted: {unminted:#?}");

    let (_, joins) = joins_structures();
    for text in JOINS {
        let rule = &parse_program(text).expect("parses").rules[0];
        let minted = assert_full_solve_matches_oracle(&format!("`{text}`"), &joins, &rule.body);
        assert!(minted > 0, "`{text}` never minted");
    }
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for &first in items {
        let rest: Vec<usize> = items.iter().copied().filter(|&x| x != first).collect();
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planned_equals_unplanned_on_random_trees(
        depth in 1usize..5,
        fanout in 1usize..4,
        seed in 0u64..300,
    ) {
        let structure = pathlog::datagen::genealogy_structure(
            &pathlog::datagen::GenealogyParams { roots: 1, depth, fanout, seed });
        let delta_solves = assert_every_program_matches_oracle(&structure);
        prop_assert!(delta_solves[0] > 0, "delta passes run compiled");
    }

    #[test]
    fn planned_equals_unplanned_on_random_graphs(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
    ) {
        // Cyclic graphs: convergence takes a different number of iterations
        // per strongly connected component, exercising the per-iteration
        // plans and the seed-flip decision on non-tree shapes.
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        let delta_solves = assert_every_program_matches_oracle(&structure);
        prop_assert!(delta_solves[0] > 0, "delta passes run compiled");
    }

    #[test]
    fn full_solves_mint_like_the_oracle_on_random_graphs(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
    ) {
        // The shapes' bodies over their families' models, and the joins'
        // over the model of what they read, on a random (possibly cyclic)
        // graph: the written order and the planned one enumerate these
        // differently, and the ids must not show it.
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        let minted = assert_every_shape_body_mints_like_the_oracle("random graph", &structure);
        prop_assert!(minted.iter().any(|&n| n > 0), "some body mints");
        let model = closed(&joins_program(), &structure);
        for text in JOINS {
            let rule = &parse_program(text).expect("parses").rules[0];
            assert_full_solve_matches_oracle(&format!("`{text}` over a random graph"), &model, &rule.body);
        }
    }
}

// ---------------------------------------------------------------------------
// Heads: every head shape, committed in the reference's order.
// ---------------------------------------------------------------------------

/// Every head shape the commit step lowers, over two body variables `$a`
/// and `$b`: a nested minting chain, two undefined paths minted in one head,
/// a virtual method, a head path with an argument, an explicit set written
/// out of ascending order (`zeta` is registered before `alpha`) and one
/// whose members are minted, a set right-hand side that is one stored
/// application and one that is not, a signature head, and a scalar that two
/// valuations may assign differently.
const HEADS: &[&str] = &[
    "$a.boss.car[color -> red]",
    "$a.home[near -> $b.office]",
    "$a[(kids.tc) ->> {$b}]",
    "$a.rank@($b)[of -> $a; by -> $b]",
    "$a[tags ->> {zeta, $b, alpha}]",
    "$a[pals ->> {$b.mate, $a.mate}]",
    "$a[friends ->> $b..kids]",
    "$a[grand ->> $a..kids..kids]",
    "$a[size => $b]",
    "$a[pick -> $b]",
];

/// The fact every head program starts with: a head path minting a chain.
const HEAD_FACT: &str = "hub.boss.car[color -> blue].";

/// The positive variables of `body`, in order of first occurrence; `None`
/// when it has none, or a bare variable (which would range over what the
/// head mints, without end).
fn body_variables(body: &[Literal]) -> Option<Vec<String>> {
    let mut vars: Vec<String> = Vec::new();
    for lit in body.iter().filter(|l| l.positive) {
        if matches!(lit.term, Term::Var(_)) {
            return None;
        }
        for v in lit.term.variables() {
            if !vars.contains(&v.0.to_string()) {
                vars.push(v.0.to_string());
            }
        }
    }
    (!vars.is_empty()).then_some(vars)
}

/// Load `program` over a copy of `model` with the engine, or with the
/// reference [`fixpoint`] when `reference`, both under one derived-fact
/// limit: the model counters or the error text, and the dump, the
/// set-member insertion log and the mutation journal left behind.
fn head_run(
    program: &Program,
    model: &Structure,
    reference: bool,
) -> (std::result::Result<[usize; 6], String>, String) {
    let mut s = model.clone();
    let options = EvalOptions {
        max_derived: 20_000,
        ..EvalOptions::default()
    };
    let outcome = if reference {
        fixpoint(&mut s, program, &options)
    } else {
        Engine::with_options(options).load_program(&mut s, program)
    };
    let mut dump = s.canonical_dump();
    for (app, member) in s.facts().set_members_since(0) {
        dump.push_str(&format!("log {app} {member}\n"));
    }
    let journal: Vec<String> = s.facts().mutation_keys_since(0).map(|m| m.to_string()).collect();
    dump.push_str(&format!("journal {}\n", journal.join(" ")));
    (
        outcome.map(|stats| stats.model_counters()).map_err(|e| e.to_string()),
        dump,
    )
}

/// Each head of `HEADS` as the head of every body of every `SHAPES` family,
/// after `HEAD_FACT`, over the model of the family on `structure`: the
/// engine must leave what the reference leaves — dump, log, journal and
/// model counters — or fail with its error text.  Returns how many runs
/// succeeded.
fn assert_heads_commit_like_the_reference(structure: &Structure) -> usize {
    let mut succeeded = 0;
    for (name, prelude, rules) in SHAPES {
        let model = closed(&format!("{prelude}{rules}"), structure);
        for rule in parse_program(rules).expect("parses").rules {
            let Some(vars) = body_variables(&rule.body) else {
                continue;
            };
            let (a, b) = (&vars[0], vars.get(1).unwrap_or(&vars[0]));
            let body: Vec<String> = rule.body.iter().map(Literal::to_string).collect();
            for head in HEADS {
                let head = head.replace("$a", a).replace("$b", b);
                let text = format!("{HEAD_FACT}\n{head} <- {}.", body.join(", "));
                let program = parse_program(&text).expect("parses");
                let engine = head_run(&program, &model, false);
                assert_eq!(engine, head_run(&program, &model, true), "{name}: `{text}`");
                succeeded += usize::from(engine.0.is_ok());
            }
        }
    }
    succeeded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn heads_commit_like_the_reference(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
    ) {
        let mut structure = Structure::new();
        let kids = structure.atom("kids");
        let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
        for &(a, b) in &edges {
            structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
        }
        prop_assert!(assert_heads_commit_like_the_reference(&structure) > 0, "some head commits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn queries_match_the_reference_on_random_graphs(
        program in 0usize..SHAPES.len() + 1,
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        ages in prop::collection::vec((0u8..12, 28i64..32), 0..12),
    ) {
        let (name, model) = random_model(program, &edges, &ages);
        let bodies = query_bodies();
        assert_queries_match_the_reference(name, &model, &bodies, &mut BTreeSet::new());
        assert_queries_match_the_reference(name, &model, &reversed(&bodies), &mut BTreeSet::new());
    }

    #[test]
    fn answer_rows_read_like_their_bindings_on_random_graphs(
        program in 0usize..SHAPES.len() + 1,
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        ages in prop::collection::vec((0u8..12, 28i64..32), 0..12),
    ) {
        let (name, model) = random_model(program, &edges, &ages);
        prop_assert!(assert_rows_read_like_their_bindings(name, &model, &query_bodies()) > 0, "some row is read");
    }
}

/// The model of program `program` of [`programs`] over a random (possibly
/// cyclic) graph of `edges` whose nodes carry the scalar facts `ages`, so
/// that the result index has lists of every length, empty included.
fn random_model(program: usize, edges: &[(u8, u8)], ages: &[(u8, i64)]) -> (&'static str, Structure) {
    let mut structure = Structure::new();
    let (kids, age) = (structure.atom("kids"), structure.atom("age"));
    let nodes: Vec<Oid> = (0..12).map(|i| structure.atom(&format!("n{i}"))).collect();
    for &(a, b) in edges {
        structure.assert_set_member(kids, nodes[a as usize], &[], nodes[b as usize]);
    }
    for &(n, years) in ages {
        let years = structure.int(years);
        // First wins: a second age for a node is a conflict, not a fact.
        let _ = structure.assert_scalar(age, nodes[n as usize], &[], years);
    }
    let (name, text) = &programs()[program];
    (name, closed(text, &structure))
}

// ---------------------------------------------------------------------------
// Queries: the same atoms, nothing restricted, ordered by live cardinalities.
// ---------------------------------------------------------------------------

/// What a body of `QUERIES` must do on at least one of the fixed inputs, so
/// that no arm is held vacuously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Have a solution.
    Solutions,
    /// Nothing: it may have no solution anywhere.
    Nothing,
    /// Raise `Error::NotGround` from both evaluators.
    NotGround,
}

/// Query bodies that — with every rule body of `PROGRAM`, `SHAPES` and
/// `JOINS` — meet every atom kind and access arm with bound and unbound
/// operands.  Vocabulary: the generated company (`e3`, `age`, `vehicles`, …),
/// the trees and graphs (`p0_0`, `n0`, `kids`) and what `FRONTIER`, `DESC`
/// and the families derive from them.
const QUERIES: &[(&str, Expect)] = {
    use Expect::{NotGround, Nothing, Solutions};
    &[
        // Scalar: receiver from the result index, from the method index, bound.
        ("X[age -> 33]", Solutions),
        ("X[age -> A]", Solutions),
        ("e3[age -> A; city -> C]", Solutions),
        ("X : employee[age -> 33; city -> C].boss[city -> D]", Solutions),
        // The selective filter written last, and an inverse lookup whose key
        // only the frame knows.
        ("X : employee, X[city -> C], X[age -> 33]", Solutions),
        ("B : employee, X[boss -> B]", Solutions),
        ("X[boss -> B], B[city -> boston]", Solutions),
        // Member: receiver from the member index, from the method index, bound.
        ("X..vehicles[color -> red]", Solutions),
        ("X[assistants ->> {e16}]", Solutions),
        ("e1[assistants ->> {X[city -> C]}]", Solutions),
        ("Y : reached, X[kids ->> {Y}]", Solutions),
        ("X[next ->> {Y}; next ->> {Z}]", Solutions),
        // One answer per derivation path: temporaries count.
        ("e3..vehicles.color", Solutions),
        ("e1.boss.boss.worksFor", Solutions),
        ("X..kids..kids", Solutions),
        (
            "X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> P]",
            Solutions,
        ),
        // An unbound method: over a receiver's facts, over every fact.
        ("X[(M.tc) ->> {Y}]", Solutions),
        ("X[M ->> {Y}]", Solutions),
        ("n0[M ->> {Y}]", Solutions),
        ("X.M", Solutions),
        ("e3.M", Solutions),
        ("M : baseMethod, X[M ->> {Y}]", Solutions),
        // Objects and classes.
        ("X[]", Solutions),
        ("X", Solutions),
        ("X : C", Solutions),
        ("n1 : C", Solutions),
        ("C : baseMethod, X : C", Nothing),
        // Built-ins with an unbound operand range over the universe.
        ("X[self -> Y]", Solutions),
        ("e3.age[lt@(Y) -> A]", Solutions),
        ("X[age -> A], A[lt@(40) -> A]", Solutions),
        ("A[lt@(40) -> A], X[age -> A]", Solutions),
        ("X : grandparent, X[neq@(Y) -> X], Y : parent", Solutions),
        // … with a bound receiver and an unbound argument, and nothing after
        // it to filter.
        ("n1[neq@(Y) -> n1]", Solutions),
        // A selector on a temporary: `self` of the colour, per vehicle.
        ("X..vehicles.color[Z]", Solutions),
        // `self` folds away where it equates a temporary with a slot or a
        // temporary: a path's last step binds the selector's variable, a
        // bound slot filters the step that made the temporary, a folded
        // negation; a bare `X.self` keeps its one atom, and `X[self -> Y]`
        // (two slots) stays.
        ("X.self", Solutions),
        ("X..kids.self[Y]", Solutions),
        ("X..kids[Y]", Solutions),
        ("X.boss[self -> X]", Nothing),
        ("X..kids[self -> X]", Nothing),
        ("X[self -> Y], Y..kids[Z]", Solutions),
        ("X : reached, not X..kids[self -> X]", Solutions),
        ("X : reached, X..next.self[Y], Y..kids[self -> Z]", Solutions),
        // … but not beside a strict `m ->> t`, whose receiver, were `X`
        // put in `_1`'s place, would range over the defined applications
        // only and miss every leaf.
        ("X.self[desc ->> X..kids]", Solutions),
        // The call's own receiver binds its member; a member only a negated
        // literal mentions, completed once per kid.
        ("X[desc ->> {X}]", Solutions),
        ("X : reached, not X[kids ->> {Y}]", Solutions),
        ("X : parent, not X[kids ->> {Y}]", Nothing),
        // An unbound method variable in a molecule.
        ("X[M -> V]", Solutions),
        // Signatures, with the method bound and unbound — and unbound under
        // a receiver an earlier literal bound.
        ("C[kind => R]", Solutions),
        ("C[kind =>> R]", Solutions),
        ("X[M => R]", Solutions),
        ("X : reached, X[M => R]", Solutions),
        ("reached[M => R]", Nothing),
        // A strict `m ->> t`: bound receiver, unbound receiver, ground
        // right-hand side, and behind a negation.
        ("X : parent, X[desc ->> X..kids]", Solutions),
        // … whose required set differs between the rows of one receiver.
        ("X[kids ->> {Y}], X[desc ->> Y..kids]", Solutions),
        ("X[desc ->> X..kids]", Solutions),
        ("X[kids ->> n1..kids]", Solutions),
        ("X[desc ->> X..kids; desc ->> {Y}]", Solutions),
        ("X : reached, not X[next ->> X..kids]", Nothing),
        // Its variable bound only by a later literal, a later filter.
        ("X[kids ->> Y..kids], Y : parent", NotGround),
        ("X[kids ->> Y..kids; kids ->> {Y}]", NotGround),
        // … a later filter that could bind it first from a shorter list (no
        // program derives as many classes as the graphs have parents).
        ("X[kids ->> Y..kids; kids ->> {Y : C}]", NotGround),
        ("X : parent, not X[kids ->> Y..kids]", NotGround),
        // Negation; a variable only a negated literal mentions.
        ("X : parent, not X : grandparent", Solutions),
        ("X : reached, not X..next[kind -> inner]", Solutions),
        ("X : employee, not X[boss -> B]", Solutions),
        // Ground bodies: one empty frame or none.
        ("n0[kids ->> {n1}]", Solutions),
        ("n0[kids ->> {n0}], n1 : reached", Nothing),
        ("e3 : employee, not e3 : manager", Solutions),
        ("not n0 : reached", Nothing),
        // A name no structure has seen: no solution; negated, it holds of
        // nothing.
        ("X : nosuchclass", Nothing),
        ("X[nosuchmethod -> Y]", Nothing),
        ("X : reached, not X : nosuchclass", Solutions),
        ("not nosuchobject[kids ->> {X}]", Solutions),
    ]
};

/// Every query body there is: `QUERIES`, and the bodies of the rules of
/// `PROGRAM`, `SHAPES` and `JOINS`.
fn query_bodies() -> Vec<(String, Vec<Literal>, Expect)> {
    let families = SHAPES.iter().map(|(_, prelude, rules)| format!("{prelude}{rules}"));
    let programs = families.chain([PROGRAM.to_string(), JOINS.join("\n")]);
    let mut bodies: Vec<(String, Vec<Literal>, Expect)> = Vec::new();
    for text in programs {
        for rule in parse_program(&text).expect("parses").rules {
            let shown: Vec<String> = rule.body.iter().map(|l| l.to_string()).collect();
            let shown = shown.join(", ");
            if !rule.body.is_empty() && !bodies.iter().any(|(t, _, _)| *t == shown) {
                bodies.push((shown, rule.body, Expect::Solutions));
            }
        }
    }
    for (text, expect) in QUERIES {
        let body = parse_query(text).expect("parses").body;
        bodies.push((text.to_string(), body, *expect));
    }
    bodies
}

/// `bodies` with their literals reversed: guards enumerate, binders come
/// last, and the planner has an order to repair.
fn reversed(bodies: &[(String, Vec<Literal>, Expect)]) -> Vec<(String, Vec<Literal>, Expect)> {
    let several = bodies.iter().filter(|(_, body, _)| body.len() > 1);
    several
        .map(|(text, body, _)| {
            let body: Vec<Literal> = body.iter().rev().cloned().collect();
            (format!("{text} (reversed)"), body, Expect::Nothing)
        })
        .collect()
}

/// Does `term` mention a symbolic name `s` has never seen?  Then
/// `Engine::query_term` reports it instead of answering.
fn mentions_unknown_atom(s: &Structure, term: &Term) -> bool {
    let mut unknown = false;
    term.visit(&mut |t| {
        if let Term::Name(n @ Name::Atom(_)) = t {
            unknown |= s.lookup_name(n).is_none();
        }
    });
    unknown
}

/// `Engine::query` ≡ `solve_body` and, literal by literal, `Engine::query_term`
/// ≡ `answers()` on `s`, for every body of `bodies`: the same keys (as a set;
/// as a multiset with the denoted object for a reference), in canonical
/// order, or the same error.  Records in `met` which bodies had a solution
/// (`Ok`) or raised `NotGround` (`Err`).
fn assert_queries_match_the_reference(
    label: &str,
    s: &Structure,
    bodies: &[(String, Vec<Literal>, Expect)],
    met: &mut BTreeSet<(String, bool)>,
) {
    let engine = Engine::new();
    for (text, body, _) in bodies {
        let reference =
            solve_body(s, body, &Bindings::new()).map(|b| b.iter().map(binding_key).collect::<BTreeSet<_>>());
        let asked = engine.query(s, &Query::new(body.clone()));
        let asked = asked.map(|a| a.iter().map(|row| row.key()).collect::<Vec<_>>());
        match (&reference, &asked) {
            (Ok(reference), Ok(asked)) => {
                assert!(
                    asked.windows(2).all(|w| w[0] < w[1]),
                    "{label}: `{text}` answers in canonical order, each once: {asked:?}"
                );
                let asked: BTreeSet<BindingKey> = asked.iter().cloned().collect();
                assert_eq!(&asked, reference, "{label}: `{text}`");
                if !asked.is_empty() {
                    met.insert((text.clone(), true));
                }
            }
            (Err(reference), Err(asked)) => {
                assert_eq!(asked, reference, "{label}: `{text}`");
                if matches!(asked, Error::NotGround(_)) {
                    met.insert((text.clone(), false));
                }
            }
            _ => panic!("{label}: `{text}`: the reference says {reference:?}, the engine {asked:?}"),
        }

        for lit in body.iter().filter(|l| l.positive) {
            let term = &lit.term;
            let asked = engine.query_term(s, term);
            if mentions_unknown_atom(s, term) {
                assert!(
                    matches!(asked, Err(Error::UnknownName(_))),
                    "{label}: `{term}` names an unknown atom: {asked:?}"
                );
                continue;
            }
            let reference = answers(s, term, &Bindings::new()).map(|a| {
                let mut a: Vec<(BindingKey, Oid)> = a.iter().map(|a| (binding_key(&a.bindings), a.object)).collect();
                a.sort();
                a
            });
            let rows = |a: Answers| -> Vec<(BindingKey, Oid)> {
                a.iter()
                    .map(|row| (row.key(), row.object().expect("a reference row denotes")))
                    .collect()
            };
            assert_eq!(
                asked.map(rows),
                reference,
                "{label}: `{term}` denotes once per derivation path, in canonical order"
            );
        }
    }
}

/// Every row `Engine::query` and `Engine::query_term` return on `s` for
/// the bodies of `bodies` and their positive literals reads like the
/// `Bindings` it builds: its key is their [`binding_key`], each variable of
/// the header reads their object, and only a reference's row denotes one.
/// Returns the number of rows read.
fn assert_rows_read_like_their_bindings(
    label: &str,
    s: &Structure,
    bodies: &[(String, Vec<Literal>, Expect)],
) -> usize {
    let engine = Engine::new();
    let mut read = 0;
    let mut check = |text: &str, answers: Answers, denoting: bool| {
        for row in answers.iter() {
            let bindings = row.bindings();
            assert_eq!(row.key(), binding_key(&bindings), "{label}: `{text}`");
            for var in answers.vars() {
                assert_eq!(row.get(var), bindings.get(var), "{label}: `{text}`: {var}");
            }
            assert_eq!(row.object().is_some(), denoting, "{label}: `{text}`");
            read += 1;
        }
    };
    for (text, body, _) in bodies {
        if let Ok(answers) = engine.query(s, &Query::new(body.clone())) {
            check(text, answers, false);
        }
        for lit in body.iter().filter(|l| l.positive) {
            if let Ok(answers) = engine.query_term(s, &lit.term) {
                check(text, answers, true);
            }
        }
    }
    read
}

/// The model of `text` over `structure`.
fn closed(text: &str, structure: &Structure) -> Structure {
    let mut s = structure.clone();
    let program = parse_program(text).expect("program parses");
    Engine::new()
        .load_program(&mut s, &program)
        .expect("evaluation succeeds");
    s
}

/// `PROGRAM` and every family of `SHAPES`, by name.
fn programs() -> Vec<(&'static str, String)> {
    let families = SHAPES
        .iter()
        .map(|(name, prelude, rules)| (*name, format!("{prelude}{rules}")));
    std::iter::once(("PROGRAM", PROGRAM.to_string()))
        .chain(families)
        .collect()
}

/// The fixed tree and cyclic graph of the query and full-solve tests.  The
/// graph has a diamond — n0 reaches n2 through n1 and through n4 — so that
/// `X..kids..kids` denotes n2 twice for the same X.
fn tree_and_diamond_graph() -> (Structure, Structure) {
    let tree = pathlog::datagen::genealogy_structure(&pathlog::datagen::GenealogyParams {
        roots: 1,
        depth: 3,
        fanout: 2,
        seed: 7,
    });
    let mut graph = Structure::new();
    let kids = graph.atom("kids");
    let nodes: Vec<Oid> = (0..8).map(|i| graph.atom(&format!("n{i}"))).collect();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 5), (4, 2), (5, 3), (6, 7)] {
        graph.assert_set_member(kids, nodes[a], &[], nodes[b]);
    }
    (tree, graph)
}

/// The read side over fixed inputs — the models of every program over a
/// tree, a cyclic graph and a small company, and the structure the `JOINS`
/// are written for — on which every body must also do what `QUERIES` says
/// it does: have a solution, or raise `NotGround`.
#[test]
fn queries_match_the_written_order_reference() {
    let (tree, graph) = tree_and_diamond_graph();
    let company = pathlog::datagen::company_structure(&pathlog::datagen::CompanyParams::scaled(30));
    let bodies = query_bodies();
    let backwards = reversed(&bodies);
    let mut met = BTreeSet::new();
    for (input, structure) in [("tree", &tree), ("graph", &graph)] {
        for (name, text) in programs() {
            let (label, model) = (format!("{name} over the {input}"), closed(&text, structure));
            assert_queries_match_the_reference(&label, &model, &bodies, &mut met);
            assert_queries_match_the_reference(&label, &model, &backwards, &mut met);
        }
    }
    // The company's universe is the largest: it is spared the reversed
    // bodies, whose enumerating guards are quadratic in it, and all but two
    // of the models — the vocabulary it adds is its own.
    for (name, text) in &programs()[..2] {
        let (label, model) = (format!("{name} over the company"), closed(text, &company));
        assert_queries_match_the_reference(&label, &model, &bodies, &mut met);
    }
    let (_, joins) = joins_structures();
    assert_queries_match_the_reference("joins", &joins, &bodies, &mut met);
    assert_queries_match_the_reference("joins", &joins, &backwards, &mut met);
    let unmet: Vec<&String> = bodies
        .iter()
        .filter(|(text, _, expect)| match expect {
            Expect::Solutions => !met.contains(&(text.clone(), true)),
            Expect::NotGround => !met.contains(&(text.clone(), false)),
            Expect::Nothing => false,
        })
        .map(|(text, _, _)| text)
        .collect();
    assert!(
        unmet.is_empty(),
        "never had a solution / never raised NotGround: {unmet:#?}"
    );
}

/// A body written in the bad order — the class test first, the selective
/// filter last — is planned from the filter's posting list, and its atoms
/// likewise; a strict `m ->> t` stays where it was written.
#[test]
fn query_plans_start_from_the_shortest_posting_list() {
    let company = pathlog::datagen::company_structure(&pathlog::datagen::CompanyParams::scaled(200));
    let plan = |text: &str| {
        let body = parse_query(text).expect("parses").body;
        let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
        let plan = plan_query(&company, &compiled);
        (compiled, plan)
    };
    let (_, literals) = plan("X : employee, X[city -> C], X[age -> 30]");
    let order: Vec<usize> = literals.positives.iter().map(|l| l.body_index).collect();
    assert_eq!(order, [2, 0, 1], "{literals:?}");
    let costs: Vec<usize> = literals.positives.iter().map(|l| l.cost).collect();
    assert!(costs[0] < 20 && costs[1] >= 200 && costs[2] >= 200, "{costs:?}");

    // Within the one literal of reference (2.1): `age -> 30` seeds, the
    // class test and the other filters probe, `boss` is looked up.
    let (compiled, atoms) = plan("X : employee[age -> 30; city -> boston].boss[city -> boston]");
    let steps = &atoms.positives[0].atoms;
    assert_eq!(steps.iter().map(|s| s.atom).collect::<Vec<_>>(), [1, 0, 2, 3, 4]);
    assert!(
        steps[0].cardinality < 20 && steps[1..].iter().all(|s| s.cardinality == 1),
        "{steps:?}"
    );
    assert_eq!(compiled.positives()[0].atoms.len(), 5);

    // Nothing crosses the strict check: `age` may not run before it.
    let (_, strict) = plan("X[assistants ->> e3..assistants; age -> 30]");
    assert_eq!(
        strict.positives[0].atoms.iter().map(|s| s.atom).collect::<Vec<_>>(),
        [0, 1]
    );
}

/// E11's query — `X : employee..vehicles : automobile[cylinders -> 4].color[Z]`,
/// lowered to five atoms (the selector's `self` folds away: `color` binds
/// `Z` itself) — starts from the `cylinders -> 4` result list and reaches
/// the vehicles' owners last, a member step with its member bound (answered
/// in one pass over the `vehicles` applications), then the class test on
/// the owner, at every scale the experiment runs.
#[test]
fn e11_plans_cylinders_first_and_the_owners_last() {
    for employees in [200, 1_000, 5_000] {
        let company = pathlog::datagen::company_structure(&pathlog::datagen::CompanyParams::scaled(employees));
        let body = parse_query("X : employee..vehicles : automobile[cylinders -> 4].color[Z]")
            .expect("parses")
            .body;
        let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
        let texts: Vec<String> = compiled.positives()[0]
            .atoms
            .iter()
            .map(|a| compiled.atom_text(a))
            .collect();
        let plan = plan_query(&company, &compiled);
        let order: Vec<&str> = plan.positives[0].atoms.iter().map(|s| texts[s.atom].as_str()).collect();
        assert_eq!(texts[4], "_1[color -> Z]", "{texts:?}");
        let written: Vec<&str> = [3, 2, 4, 1, 0].iter().map(|&i| texts[i].as_str()).collect();
        assert_eq!(order, written, "{employees} employees: {plan:?}");
        let steps = &plan.positives[0].atoms;
        assert!(steps[1..3].iter().all(|s| s.cardinality == 1), "{steps:?}");
        assert!(steps[0].cardinality > steps[3].cardinality, "{steps:?}");
    }
}

// ---------------------------------------------------------------------------
// Member steps with the member bound and the receiver free.
// ---------------------------------------------------------------------------

/// Bodies whose member steps run with the member bound and the receiver
/// free — a named member (a run of one row), a member an earlier literal
/// binds (a run per solution of it), a method with an argument, free or
/// bound, a method variable whose methods want different members — and
/// their neighbours: the receiver's own member, a named receiver.
const MEMBER_BOUND: &[&str] = &[
    "X[kids ->> {n3}]",
    "X[link@(A) ->> {n5}]",
    "X[link@(n1) ->> {n5}]",
    "X[kids ->> {Y}], Z[kids ->> {Y}]",
    "X[link@(A) ->> {Y}], Z[link@(A) ->> {Y}]",
    "X[kids ->> {Y}], Z[link@(A) ->> {Y}]",
    "M : base, X[M ->> {n5}]",
    "M : base, M[tag ->> {Y}], X[M ->> {Y}]",
    "X[kids ->> {X}]",
    "n0[kids ->> {Y}], X[kids ->> {Y}; link@(n1) ->> {Y}]",
];

/// Bodies run from frames binding `Y` alone: a member-bound step over a run
/// of one row, or of one per node — and a set probe of `Y`'s own `link`
/// application, argument-less among argument-carrying ones, over a run of
/// one row (an index probe) or of one per node (read from a table).
const MEMBER_SEEDED: &[&str] = &[
    "X[kids ->> {Y}]",
    "X[link@(A) ->> {Y}]",
    "M : base, X[M ->> {Y}]",
    "X[kids ->> {Y}; link@(n2) ->> {Y}]",
    "Y[link ->> {X}]",
    "Y..link[X], X[kids ->> {Z}]",
];

/// How many nodes a member graph has: enough that a run of one row marks
/// its members in a sorted list, not a table over the objects.
const MEMBER_NODES: usize = 160;

/// A graph of `edges` — receiver, member, and which method: `kids`,
/// `link@(n1)`, `link@(n2)` or `link` — over `MEMBER_NODES` nodes of class `node`,
/// with the `retracted` edges (indexes, wrapped) taken out again.  The two
/// methods are of class `base` and tagged with the even and the odd nodes
/// below 8.
fn member_graph(edges: &[(u8, u8, u8)], retracted: &[usize]) -> (Structure, Vec<Oid>) {
    let mut s = Structure::new();
    let (kids, link, base, node) = (s.atom("kids"), s.atom("link"), s.atom("base"), s.atom("node"));
    let tag = s.atom("tag");
    s.add_isa(kids, base);
    s.add_isa(link, base);
    let nodes: Vec<Oid> = (0..MEMBER_NODES).map(|i| s.atom(&format!("n{i}"))).collect();
    for (i, &n) in nodes.iter().enumerate() {
        s.add_isa(n, node);
        if i < 8 {
            s.assert_set_member(tag, if i % 2 == 0 { kids } else { link }, &[], n);
        }
    }
    let call = |&(a, b, kind): &(u8, u8, u8)| {
        let args = if kind % 3 == 0 {
            vec![]
        } else {
            vec![nodes[usize::from(kind)]]
        };
        let method = if kind == 0 { kids } else { link };
        (method, nodes[usize::from(a)], args, nodes[usize::from(b)])
    };
    for edge in edges {
        let (m, r, args, x) = call(edge);
        s.assert_set_member(m, r, &args, x);
    }
    for &k in retracted {
        let (m, r, args, x) = call(&edges[k % edges.len()]);
        s.retract_set_member(m, r, &args, x);
    }
    (s, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random graphs — sparse edges over every node, dense ones over
    /// the first 8 — with retracted members, every body of
    /// `MEMBER_BOUND` answers like the written-order reference (queries and
    /// references), and every body of `MEMBER_SEEDED` run from one `Y` or
    /// from every node finds the reference's solutions holding that `Y`.
    #[test]
    fn member_steps_match_the_reference_on_random_graphs(
        sparse in prop::collection::vec((0u8..24, 0u8..MEMBER_NODES as u8, 0u8..4), 1..120),
        dense in prop::collection::vec((0u8..24, 0u8..8, 0u8..4), 1..60),
        retracted in prop::collection::vec(0usize..180, 0..40),
        seed in 0usize..MEMBER_NODES,
    ) {
        let edges: Vec<(u8, u8, u8)> = sparse.into_iter().chain(dense).collect();
        let (s, nodes) = member_graph(&edges, &retracted);
        let bodies: Vec<(String, Vec<Literal>, Expect)> = MEMBER_BOUND
            .iter()
            .map(|text| (text.to_string(), parse_query(text).expect("parses").body, Expect::Nothing))
            .collect();
        assert_queries_match_the_reference("member graph", &s, &bodies, &mut BTreeSet::new());
        for text in MEMBER_SEEDED {
            let body = parse_query(text).expect("parses").body;
            let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
            let slot = compiled.slot_vars().iter().position(|v| &*v.0 == "Y").expect("binds Y");
            let reference: Vec<BindingKey> = solve_body(&s, &body, &Bindings::new())
                .expect("solves")
                .iter()
                .map(binding_key)
                .collect();
            for seeds in [&nodes[seed..=seed], &nodes[..]] {
                let run = execute_seeded(&s, &compiled, slot, seeds).expect("runs");
                let found: Vec<BindingKey> = run.frames().map(|f| binding_key(&compiled.bindings_of(f))).collect();
                let holding = |key: &&BindingKey| key.iter().any(|(v, o)| &**v == "Y" && seeds.iter().any(|y| y.0 == *o));
                let expected: BTreeSet<BindingKey> = reference.iter().filter(holding).cloned().collect();
                prop_assert!(found.windows(2).all(|w| w[0] < w[1]), "`{text}`: canonical, each once");
                prop_assert_eq!(found.into_iter().collect::<BTreeSet<_>>(), expected, "`{}`", text);
            }
        }
    }
}
