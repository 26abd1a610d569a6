//! Property-based tests for the columnar fact store and the reference
//! answers that keep its member runs:
//!
//! 1. the columnar `Facts`/`Isa` backend agrees, line for line, with an
//!    independent row-oriented shadow model of `canonical_dump()` under any
//!    interleaving of asserts and retracts (random trees *and* cyclic isa
//!    graphs; zero- and one-argument applications of the same methods on
//!    the same receivers, scalar and set-valued);
//! 2. `canonical_dump()` is invariant under the insertion order of the
//!    surviving facts — the per-`(method, receiver)` run grouping must not
//!    leak arrival order into the canonical form;
//! 3. `Engine::query_term`'s answers — which keep the stored member runs of
//!    a reference's last step where its shape allows, and one frame per row
//!    otherwise — read, row by row and in `len()`, like the written-order
//!    reference's, and stay as they were when the structure is written to
//!    after the query.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pathlog::core::engine::{binding_key, BindingKey};
use pathlog::core::semantics::{answers, Bindings};
use pathlog::core::structure::{Oid, Structure};
use pathlog::prelude::*;

const NUM_METHODS: u8 = 3;
const NUM_OBJECTS: u8 = 6;

/// Intern the fixed method/object universe in a deterministic order so two
/// structures built from the same ops assign identical oids.
fn intern_universe(structure: &mut Structure) -> (Vec<Oid>, Vec<Oid>) {
    let methods = (0..NUM_METHODS).map(|i| structure.atom(&format!("m{i}"))).collect();
    let objects = (0..NUM_OBJECTS).map(|i| structure.atom(&format!("o{i}"))).collect();
    (methods, objects)
}

// ---------------------------------------------------------------------------
// 1 + 2. Columnar store vs a row-oriented shadow model of canonical_dump().
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    AssertScalar {
        method: u8,
        receiver: u8,
        value: u8,
    },
    RetractScalar {
        method: u8,
        receiver: u8,
    },
    /// A one-argument application of the same methods on the same
    /// receivers: applications of mixed arity.
    AssertScalarArg {
        method: u8,
        receiver: u8,
        arg: u8,
        value: u8,
    },
    RetractScalarArg {
        method: u8,
        receiver: u8,
        arg: u8,
    },
    AddMember {
        method: u8,
        receiver: u8,
        member: u8,
    },
    RemoveMember {
        method: u8,
        receiver: u8,
        member: u8,
    },
    /// A one-argument set application beside the zero-argument one of
    /// `AddMember`.
    AddMemberArg {
        method: u8,
        receiver: u8,
        arg: u8,
        member: u8,
    },
    RemoveMemberArg {
        method: u8,
        receiver: u8,
        arg: u8,
        member: u8,
    },
    AddIsa {
        sub: u8,
        sup: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let m = 0u8..NUM_METHODS;
    let o = 0u8..NUM_OBJECTS;
    prop_oneof![
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, value)| Op::AssertScalar {
            method,
            receiver,
            value
        }),
        (m.clone(), o.clone()).prop_map(|(method, receiver)| Op::RetractScalar { method, receiver }),
        (m.clone(), o.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, arg, value)| {
            Op::AssertScalarArg {
                method,
                receiver,
                arg,
                value,
            }
        }),
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, arg)| Op::RetractScalarArg {
            method,
            receiver,
            arg
        }),
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, member)| Op::AddMember {
            method,
            receiver,
            member
        }),
        (m.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, member)| Op::RemoveMember {
            method,
            receiver,
            member
        }),
        (m.clone(), o.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, arg, member)| {
            Op::AddMemberArg {
                method,
                receiver,
                arg,
                member,
            }
        }),
        (m.clone(), o.clone(), o.clone(), o.clone()).prop_map(|(method, receiver, arg, member)| {
            Op::RemoveMemberArg {
                method,
                receiver,
                arg,
                member,
            }
        }),
        // Cycles and self-loops included: `sub` and `sup` range over the
        // same objects, so random sequences build cyclic isa graphs.
        (o.clone(), o).prop_map(|(sub, sup)| Op::AddIsa { sub, sup }),
    ]
}

/// Row-oriented shadow of the fact store: plain maps keyed by
/// `(method, receiver)` and the argument, if any.
#[derive(Default)]
struct Shadow {
    scalars: BTreeMap<(u8, u8, Option<u8>), u8>,
    sets: BTreeMap<(u8, u8, Option<u8>), BTreeSet<u8>>,
    isa_direct: Vec<(u8, u8)>,
}

impl Shadow {
    fn apply(&mut self, structure: &mut Structure, methods: &[Oid], objects: &[Oid], op: &Op) {
        match *op {
            Op::AssertScalar {
                method,
                receiver,
                value,
            } => {
                let outcome = structure.assert_scalar(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[],
                    objects[value as usize],
                );
                if outcome.is_ok() {
                    self.scalars.insert((method, receiver, None), value);
                }
            }
            Op::RetractScalar { method, receiver } => {
                structure.retract_scalar(methods[method as usize], objects[receiver as usize], &[]);
                self.scalars.remove(&(method, receiver, None));
            }
            Op::AssertScalarArg {
                method,
                receiver,
                arg,
                value,
            } => {
                let outcome = structure.assert_scalar(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[objects[arg as usize]],
                    objects[value as usize],
                );
                if outcome.is_ok() {
                    self.scalars.insert((method, receiver, Some(arg)), value);
                }
            }
            Op::RetractScalarArg { method, receiver, arg } => {
                structure.retract_scalar(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[objects[arg as usize]],
                );
                self.scalars.remove(&(method, receiver, Some(arg)));
            }
            Op::AddMember {
                method,
                receiver,
                member,
            } => {
                structure.assert_set_member(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[],
                    objects[member as usize],
                );
                self.sets.entry((method, receiver, None)).or_default().insert(member);
            }
            Op::RemoveMember {
                method,
                receiver,
                member,
            } => {
                structure.retract_set_member(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[],
                    objects[member as usize],
                );
                if let Some(s) = self.sets.get_mut(&(method, receiver, None)) {
                    s.remove(&member);
                }
            }
            Op::AddMemberArg {
                method,
                receiver,
                arg,
                member,
            } => {
                structure.assert_set_member(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[objects[arg as usize]],
                    objects[member as usize],
                );
                self.sets
                    .entry((method, receiver, Some(arg)))
                    .or_default()
                    .insert(member);
            }
            Op::RemoveMemberArg {
                method,
                receiver,
                arg,
                member,
            } => {
                structure.retract_set_member(
                    methods[method as usize],
                    objects[receiver as usize],
                    &[objects[arg as usize]],
                    objects[member as usize],
                );
                if let Some(s) = self.sets.get_mut(&(method, receiver, Some(arg))) {
                    s.remove(&member);
                }
            }
            Op::AddIsa { sub, sup } => {
                structure.add_isa(objects[sub as usize], objects[sup as usize]);
                self.isa_direct.push((sub, sup));
            }
        }
    }

    /// The transitive closure the store's isa log must contain: `(x, y)`
    /// for every distinct `y` reachable from `x` over one or more direct
    /// edges.  The store keeps its closure irreflexive — cycles never
    /// produce `(x, x)` pairs — so the shadow drops them too.
    fn isa_closure(&self) -> BTreeSet<(u8, u8)> {
        let mut closure: BTreeSet<(u8, u8)> = self.isa_direct.iter().copied().collect();
        loop {
            let mut grew = false;
            let pairs: Vec<(u8, u8)> = closure.iter().copied().collect();
            for &(a, b) in &pairs {
                for &(c, d) in &pairs {
                    if b == c && closure.insert((a, d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        closure.retain(|&(a, b)| a != b);
        closure
    }

    /// Render the `scalar` / `member` / `isa` sections of the canonical dump
    /// from the shadow rows, using the same format strings and sort keys as
    /// `Structure::canonical_dump()` — independently of the columnar store.
    fn expected_sections(&self, methods: &[Oid], objects: &[Oid]) -> Vec<String> {
        let mut scalar_rows: Vec<(Oid, Oid, Vec<Oid>, Oid)> = self
            .scalars
            .iter()
            .map(|(&(m, r, a), &v)| {
                let args = a.map(|a| objects[a as usize]).into_iter().collect();
                (methods[m as usize], objects[r as usize], args, objects[v as usize])
            })
            .collect();
        scalar_rows.sort_unstable();
        let mut out: Vec<String> = scalar_rows
            .into_iter()
            .map(|(m, r, args, v)| format!("scalar {m} {r} {args:?} -> {v}"))
            .collect();
        let mut member_rows: Vec<(Oid, Oid, Vec<Oid>, Oid)> = self
            .sets
            .iter()
            .flat_map(|(&(m, r, a), members)| {
                let args: Vec<Oid> = a.map(|a| objects[a as usize]).into_iter().collect();
                members.iter().map(move |&v| {
                    (
                        methods[m as usize],
                        objects[r as usize],
                        args.clone(),
                        objects[v as usize],
                    )
                })
            })
            .collect();
        member_rows.sort_unstable();
        out.extend(
            member_rows
                .into_iter()
                .map(|(m, r, args, v)| format!("member {m} {r} {args:?} ->> {v}")),
        );
        let mut isa_rows: Vec<(Oid, Oid)> = self
            .isa_closure()
            .into_iter()
            .map(|(a, b)| (objects[a as usize], objects[b as usize]))
            .collect();
        isa_rows.sort_unstable();
        out.extend(isa_rows.into_iter().map(|(a, b)| format!("isa {a} : {b}")));
        out
    }

    /// Every `(method, receiver)` pair's scalar results and member sets, in
    /// argument-tuple order (the zero-argument application first).
    fn expected_applications(&self, objects: &[Oid]) -> Vec<String> {
        let args = |a: Option<u8>| -> Vec<Oid> { a.map(|a| objects[a as usize]).into_iter().collect() };
        let mut out = Vec::new();
        for m in 0..NUM_METHODS {
            for r in 0..NUM_OBJECTS {
                let keys = (m, r, None)..=(m, r, Some(u8::MAX));
                let scalars: Vec<(Vec<Oid>, Oid)> = self
                    .scalars
                    .range(keys.clone())
                    .map(|(&(_, _, a), &v)| (args(a), objects[v as usize]))
                    .collect();
                let sets: Vec<(Vec<Oid>, Vec<Oid>)> = self
                    .sets
                    .range(keys)
                    .map(|(&(_, _, a), s)| (args(a), s.iter().map(|&v| objects[v as usize]).collect()))
                    .collect();
                out.push(format!("{m} {r}: {scalars:?} {sets:?}"));
            }
        }
        out
    }
}

/// What `scalar_facts_of_method_receiver` and `set_facts_of_method_receiver`
/// list for every pair, in the shape of [`Shadow::expected_applications`].
fn applications(structure: &Structure, methods: &[Oid], objects: &[Oid]) -> Vec<String> {
    let facts = structure.facts();
    let mut out = Vec::new();
    for (m, &method) in methods.iter().enumerate() {
        for (r, &receiver) in objects.iter().enumerate() {
            let scalars: Vec<(Vec<Oid>, Oid)> = facts
                .scalar_facts_of_method_receiver(method, receiver)
                .map(|f| (f.args.to_vec(), f.result))
                .collect();
            let sets: Vec<(Vec<Oid>, Vec<Oid>)> = facts
                .set_facts_of_method_receiver(method, receiver)
                .map(|f| (f.args.to_vec(), f.members.to_vec()))
                .collect();
            out.push(format!("{m} {r}: {scalars:?} {sets:?}"));
        }
    }
    out
}

/// The fact/isa lines of a canonical dump (the header lines name the object
/// universe, which the shadow does not model).
fn fact_sections(dump: &str) -> Vec<String> {
    dump.lines()
        .filter(|l| l.starts_with("scalar ") || l.starts_with("member ") || l.starts_with("isa "))
        .map(str::to_string)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn columnar_dump_matches_a_row_oriented_shadow(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut structure = Structure::new();
        let (methods, objects) = intern_universe(&mut structure);
        let mut shadow = Shadow::default();
        for op in &ops {
            shadow.apply(&mut structure, &methods, &objects, op);
        }
        prop_assert_eq!(
            fact_sections(&structure.canonical_dump()),
            shadow.expected_sections(&methods, &objects),
            "columnar sections must match the row-oriented shadow"
        );
        prop_assert_eq!(
            applications(&structure, &methods, &objects),
            shadow.expected_applications(&objects),
            "each pair lists its applications in argument-tuple order"
        );
    }

    #[test]
    fn canonical_dump_is_insertion_order_invariant(ops in prop::collection::vec(op_strategy(), 0..120)) {
        // First structure: the full op sequence, retractions included.
        let mut first = Structure::new();
        let (methods, objects) = intern_universe(&mut first);
        let mut shadow = Shadow::default();
        for op in &ops {
            shadow.apply(&mut first, &methods, &objects, op);
        }
        // Second structure: only the *surviving* facts, replayed in reverse
        // order (members interleaved across applications, isa edges last-
        // asserted-first).  The columnar grouping must canonicalise both to
        // the same bytes.
        let mut second = Structure::new();
        let (methods2, objects2) = intern_universe(&mut second);
        let mut isa_edges: Vec<(u8, u8)> = shadow.isa_direct.clone();
        isa_edges.reverse();
        for (a, b) in isa_edges {
            second.add_isa(objects2[a as usize], objects2[b as usize]);
        }
        let mut members: Vec<(u8, u8, Option<u8>, u8)> = shadow
            .sets
            .iter()
            .flat_map(|(&(m, r, a), s)| s.iter().map(move |&v| (m, r, a, v)))
            .collect();
        members.reverse();
        for (m, r, a, v) in members {
            let args: Vec<Oid> = a.map(|a| objects2[a as usize]).into_iter().collect();
            second.assert_set_member(methods2[m as usize], objects2[r as usize], &args, objects2[v as usize]);
        }
        let mut scalars: Vec<(u8, u8, Option<u8>, u8)> =
            shadow.scalars.iter().map(|(&(m, r, a), &v)| (m, r, a, v)).collect();
        scalars.reverse();
        for (m, r, a, v) in scalars {
            let args: Vec<Oid> = a.map(|a| objects2[a as usize]).into_iter().collect();
            second
                .assert_scalar(methods2[m as usize], objects2[r as usize], &args, objects2[v as usize])
                .expect("replaying a conflict-free final state succeeds");
        }
        prop_assert_eq!(
            fact_sections(&first.canonical_dump()),
            fact_sections(&second.canonical_dump()),
            "fact sections must not depend on insertion order"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Reference answers that keep the store's member runs read like the
//    reference's.
// ---------------------------------------------------------------------------

/// `(key, object)` per row, in iteration order.
fn keyed_rows(answers: &Answers) -> Vec<(BindingKey, Oid)> {
    let row = |row: AnswerRow| (row.key(), row.object().expect("a reference row denotes"));
    answers.iter().map(row).collect()
}

/// `Engine::query_term`'s rows — expanded from the stored member runs its
/// answers keep when the reference's last step reads them (`X..m`,
/// `o..m@(A)`), read frame by frame otherwise — and its `len()` against the
/// written-order reference `answers()`, as multisets of `(key, object)`: the
/// rows in canonical order, the same multiset, the same count.  Returns the
/// answers.
fn assert_rows_match_the_reference(structure: &Structure, term: &pathlog::core::term::Term) -> Answers {
    let reference = answers(structure, term, &Bindings::new()).expect("the reference enumerates");
    let mut expected: Vec<(BindingKey, Oid)> = reference.iter().map(|a| (binding_key(&a.bindings), a.object)).collect();
    expected.sort();
    let held = Engine::new().query_term(structure, term).expect("the query runs");
    assert_eq!(keyed_rows(&held), expected, "rows of {term}");
    assert_eq!(held.len(), expected.len(), "len of {term}");
    assert_eq!(held.is_empty(), expected.is_empty(), "emptiness of {term}");
    held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factorized_enumeration_matches_materialized_answers(
        set_facts in prop::collection::vec((0u8..NUM_METHODS, 0u8..NUM_OBJECTS, 0u8..NUM_OBJECTS), 0..50),
        arg_facts in prop::collection::vec(
            (0u8..NUM_METHODS, 0u8..NUM_OBJECTS, 0u8..NUM_OBJECTS, 0u8..NUM_OBJECTS),
            0..25,
        ),
        retracted in prop::collection::vec((0u8..NUM_METHODS, 0u8..NUM_OBJECTS, 0u8..NUM_OBJECTS), 0..30),
        scalar_facts in prop::collection::vec((0u8..NUM_METHODS, 0u8..NUM_OBJECTS, 0u8..NUM_OBJECTS), 0..25),
        ground in 0u8..NUM_OBJECTS,
        emptied in 0u8..NUM_OBJECTS,
    ) {
        let mut structure = Structure::new();
        let (methods, objects) = intern_universe(&mut structure);
        for &(m, r, v) in &set_facts {
            structure.assert_set_member(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
        }
        for &(m, r, a, v) in &arg_facts {
            let (m, r, a, v) = (methods[m as usize], objects[r as usize], objects[a as usize], objects[v as usize]);
            structure.assert_set_member(m, r, &[a], v);
        }
        // Retracted members, and one application of `m0` left empty.
        for &(m, r, v) in &retracted {
            structure.retract_set_member(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
        }
        for v in objects.clone() {
            structure.retract_set_member(methods[0], objects[emptied as usize], &[], v);
        }
        for &(m, r, v) in &scalar_facts {
            // First-wins: conflicting scalar asserts are rejected, which is
            // fine — the comparison only needs *a* consistent store.
            let _ = structure.assert_scalar(methods[m as usize], objects[r as usize], &[], objects[v as usize]);
        }
        let ground_name = format!("o{ground}");
        let ground = || Term::name(ground_name.as_str());
        for m in 0..NUM_METHODS {
            let method = format!("m{m}");
            let method = method.as_str();
            // The receiver unbound, and a ground one.
            assert_rows_match_the_reference(&structure, &Term::var("X").set(method));
            assert_rows_match_the_reference(&structure, &Term::var("X").scalar(method));
            assert_rows_match_the_reference(&structure, &ground().set(method));
            assert_rows_match_the_reference(&structure, &ground().scalar(method));
            // A method with an argument, bound by the reference or not.
            assert_rows_match_the_reference(&structure, &Term::var("X").set_args(method, vec![Term::var("A")]));
            assert_rows_match_the_reference(&structure, &ground().set_args(method, vec![Term::name("o1")]));
        }
        assert_rows_match_the_reference(&structure, &Term::var("X").set(Term::var("M")));
        // A path into a path: the receiver of the last step is a temporary,
        // so its answers keep one frame per row.
        assert_rows_match_the_reference(&structure, &Term::var("X").set("m0").set("m1"));
        assert_rows_match_the_reference(&structure, &Term::var("X").scalar("m0").set("m1"));

        // Held answers read the structure as it was when the query ran.
        let query = Term::var("X").set("m1");
        let held = assert_rows_match_the_reference(&structure, &query);
        let before = keyed_rows(&held);
        for (i, &o) in objects.iter().enumerate() {
            structure.retract_set_member(methods[1], o, &[], objects[(i + 1) % objects.len()]);
            structure.assert_set_member(methods[1], o, &[], objects[(i + 2) % objects.len()]);
        }
        prop_assert_eq!(keyed_rows(&held), before);
        prop_assert_eq!(held.len(), before.len());
        assert_rows_match_the_reference(&structure, &query);
    }
}

/// `X..desc` over the `desc` closure of fan-out-2 genealogies of growing
/// depth (experiment E19's input): its rows and its `len()` are the
/// reference's, and the answers held stay as they were while the closure
/// is written to.  The answers keep one prefix and one shared stored run
/// per `desc` application (the core's `engine::answers` tests assert that
/// on the kept runs themselves); here the applications per answer fall as
/// the depth grows, so what the answers keep grows sublinearly in their
/// count.
#[test]
fn factorized_closure_answers_grow_sublinearly_in_the_answer_count() {
    let rules = pathlog::parser::parse_program(
        "X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
         X[desc ->> {Y}] <- X..desc[kids ->> {Y}].",
    )
    .expect("closure rules parse");
    let query = Term::var("X").set("desc");
    let mut applications_per_answer = Vec::new();
    for depth in [4, 6, 8, 10] {
        let mut closed = pathlog::datagen::genealogy_structure(&GenealogyParams {
            roots: 1,
            depth,
            fanout: 2,
            seed: 42,
        });
        Engine::new()
            .load_program(&mut closed, &rules)
            .expect("closure evaluates");
        let held = assert_rows_match_the_reference(&closed, &query);
        let before = keyed_rows(&held);
        let desc = closed.lookup_name(&Name::atom("desc")).expect("desc is a name");
        let receivers: Vec<Oid> = closed.facts().set_facts_of_method(desc).map(|f| f.receiver).collect();
        assert!(
            receivers.len() < held.len(),
            "depth {depth}: {} applications for {} answers",
            receivers.len(),
            held.len()
        );
        applications_per_answer.push(receivers.len() as f64 / held.len() as f64);
        for &r in &receivers {
            let first = closed.apply_set(desc, r, &[]).expect("a receiver of desc")[0];
            closed.retract_set_member(desc, r, &[], first);
            closed.assert_set_member(desc, r, &[], r);
        }
        assert_eq!(keyed_rows(&held), before, "depth {depth}");
        assert_eq!(held.len(), before.len());
    }
    assert!(
        applications_per_answer.is_sorted_by(|a, b| a > b),
        "{applications_per_answer:?}"
    );
}

// ---------------------------------------------------------------------------
// 5. A structure is a persistent value: a clone shares its tables with the
//    original, and neither ever sees the other's later writes.
// ---------------------------------------------------------------------------

use pathlog::core::semantics::{DeltaView, EvalMarks};

#[derive(Debug, Clone)]
enum HistOp {
    Name(u16),
    Isa(u16, u16),
    Scalar(u8, u16, u16),
    /// Method, receiver, argument, result: a one-argument application
    /// beside the zero-argument ones of `Scalar`.
    ScalarArg(u8, u16, u16, u16),
    Member(u8, u16, u16),
    /// Method, receiver, argument, member: a one-argument set application
    /// beside the zero-argument ones of `Member`.
    MemberArg(u8, u16, u16, u16),
    RetractScalar(u8, u16),
    RetractScalarArg(u8, u16, u16),
    RetractMember(u8, u16, u16),
    RetractMemberArg(u8, u16, u16, u16),
    /// `count` scalar facts and as many set members over consecutive
    /// objects — long enough runs to seal chunks and to double shard
    /// counts, so that clones really share sealed storage.
    Bulk(u16, u16),
    /// The structure was cloned here.  A clone is a boundary of the
    /// mutation journal's spans in both copies, so a replay clones too.
    Cloned,
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    let m = 0u8..NUM_METHODS;
    let o = 0u16..40;
    prop_oneof![
        (0u16..2000).prop_map(HistOp::Name),
        (o.clone(), o.clone()).prop_map(|(a, b)| HistOp::Isa(a, b)),
        (m.clone(), o.clone(), o.clone()).prop_map(|(m, r, v)| HistOp::Scalar(m, r, v)),
        (m.clone(), o.clone(), o.clone(), o.clone()).prop_map(|(m, r, a, v)| HistOp::ScalarArg(m, r, a, v)),
        (m.clone(), o.clone(), o.clone()).prop_map(|(m, r, v)| HistOp::Member(m, r, v)),
        (m.clone(), o.clone(), o.clone(), o.clone()).prop_map(|(m, r, a, v)| HistOp::MemberArg(m, r, a, v)),
        (m.clone(), o.clone()).prop_map(|(m, r)| HistOp::RetractScalar(m, r)),
        (m.clone(), o.clone(), o.clone()).prop_map(|(m, r, a)| HistOp::RetractScalarArg(m, r, a)),
        (m.clone(), o.clone(), o.clone()).prop_map(|(m, r, v)| HistOp::RetractMember(m, r, v)),
        (m, o.clone(), o.clone(), o).prop_map(|(m, r, a, v)| HistOp::RetractMemberArg(m, r, a, v)),
        (0u16..1200, 1u16..700).prop_map(|(start, count)| HistOp::Bulk(start, count)),
    ]
}

fn apply_hist(s: &mut Structure, op: &HistOp) {
    let obj = |s: &mut Structure, k: u16| s.atom(&format!("x{k}"));
    let method = |s: &mut Structure, m: u8| s.atom(&format!("m{m}"));
    match *op {
        HistOp::Name(k) => {
            s.int(i64::from(k));
        }
        HistOp::Isa(a, b) => {
            let (a, b) = (obj(s, a), obj(s, b));
            s.add_isa(a, b);
        }
        HistOp::Scalar(m, r, v) => {
            let (m, r, v) = (method(s, m), obj(s, r), obj(s, v));
            // A conflicting result is an error and changes nothing.
            let _ = s.assert_scalar(m, r, &[], v);
        }
        HistOp::ScalarArg(m, r, a, v) => {
            let (m, r, a, v) = (method(s, m), obj(s, r), obj(s, a), obj(s, v));
            let _ = s.assert_scalar(m, r, &[a], v);
        }
        HistOp::Member(m, r, v) => {
            let (m, r, v) = (method(s, m), obj(s, r), obj(s, v));
            s.assert_set_member(m, r, &[], v);
        }
        HistOp::MemberArg(m, r, a, v) => {
            let (m, r, a, v) = (method(s, m), obj(s, r), obj(s, a), obj(s, v));
            s.assert_set_member(m, r, &[a], v);
        }
        HistOp::RetractScalar(m, r) => {
            let (m, r) = (method(s, m), obj(s, r));
            s.retract_scalar(m, r, &[]);
        }
        HistOp::RetractScalarArg(m, r, a) => {
            let (m, r, a) = (method(s, m), obj(s, r), obj(s, a));
            s.retract_scalar(m, r, &[a]);
        }
        HistOp::RetractMember(m, r, v) => {
            let (m, r, v) = (method(s, m), obj(s, r), obj(s, v));
            s.retract_set_member(m, r, &[], v);
        }
        HistOp::RetractMemberArg(m, r, a, v) => {
            let (m, r, a, v) = (method(s, m), obj(s, r), obj(s, a), obj(s, v));
            s.retract_set_member(m, r, &[a], v);
        }
        HistOp::Bulk(start, count) => {
            let (pay, pals, staff) = (s.atom("pay"), s.atom("pals"), s.atom("staff"));
            for k in start..start + count {
                let (who, next) = (obj(s, k), obj(s, k + 1));
                let grade = s.int(i64::from(k % 13));
                s.add_isa(who, staff);
                let _ = s.assert_scalar(pay, who, &[], grade);
                s.assert_set_member(pals, who, &[], next);
            }
        }
        HistOp::Cloned => drop(s.clone()),
    }
}

/// The scalar methods a history writes: the three of `hist_op` and `Bulk`'s
/// `pay`.
const SCALAR_METHODS: [&str; 4] = ["m0", "m1", "m2", "pay"];

/// Every keyed scalar enumeration, in its own order — per application
/// (argument-tuple order), per method, per method and result and per
/// receiver (posting order) — for every scalar method a history writes and
/// every object: one line per non-empty list.
fn scalar_enumerations(s: &Structure) -> Vec<String> {
    let facts = s.facts();
    let methods = SCALAR_METHODS.into_iter().filter_map(|m| s.lookup_name(&Name::atom(m)));
    let mut out = Vec::new();
    for method in methods {
        out.push(format!(
            "{method}: {:?}",
            facts.scalar_facts_of_method(method).collect::<Vec<_>>()
        ));
        for o in s.objects() {
            let applied: Vec<_> = facts.scalar_facts_of_method_receiver(method, o).collect();
            let valued: Vec<_> = facts.scalar_facts_with_result(method, o).collect();
            if !applied.is_empty() || !valued.is_empty() {
                out.push(format!("{method} {o}: {applied:?} {valued:?}"));
            }
        }
    }
    for o in s.objects() {
        let received: Vec<_> = facts.scalar_facts_of_receiver(o).collect();
        if !received.is_empty() {
            out.push(format!("{o}: {received:?}"));
        }
    }
    out
}

/// The set methods a history writes: the three of `hist_op` and `Bulk`'s
/// `pals`.
const SET_METHODS: [&str; 4] = ["m0", "m1", "m2", "pals"];

/// Every keyed set enumeration, in its own order — per application
/// (argument-tuple order), per method, per method and member and per
/// receiver (posting order) — for every set method a history writes and
/// every object: one line per non-empty list.
fn set_enumerations(s: &Structure) -> Vec<String> {
    let facts = s.facts();
    let methods = SET_METHODS.into_iter().filter_map(|m| s.lookup_name(&Name::atom(m)));
    let mut out = Vec::new();
    for method in methods {
        out.push(format!(
            "{method}: {:?}",
            facts.set_facts_of_method(method).collect::<Vec<_>>()
        ));
        for o in s.objects() {
            let applied: Vec<_> = facts.set_facts_of_method_receiver(method, o).collect();
            let holding: Vec<_> = facts.set_facts_containing(method, o).collect();
            if !applied.is_empty() || !holding.is_empty() {
                out.push(format!("{method} {o}: {applied:?} {holding:?}"));
            }
        }
    }
    for o in s.objects() {
        let received: Vec<_> = facts.set_facts_of_receiver(o).collect();
        if !received.is_empty() {
            out.push(format!("{o}: {received:?}"));
        }
    }
    out
}

/// Everything a reader can observe of a structure, orders included: the
/// canonical dump, the counters, the watermarks, the assertion-order and
/// keyed enumerations and the delta window since `since`.
fn observed(s: &Structure, since: &EvalMarks) -> Vec<String> {
    let now = EvalMarks::capture(s);
    let facts = s.facts();
    let window = DeltaView::between(s, since, &now);
    let touched: Vec<Oid> = s.objects().filter(|&o| window.has_new_facts_for(o)).collect();
    let keyed = [scalar_enumerations(s), set_enumerations(s)].concat();
    vec![
        s.canonical_dump(),
        format!("{:?} {now:?} retractions {}", s.stats(), s.retractions()),
        format!("{:?}", s.names().collect::<Vec<_>>()),
        format!("{:?}", facts.scalar_facts().collect::<Vec<_>>()),
        format!("{:?}", facts.set_facts().collect::<Vec<_>>()),
        format!(
            "{:?}",
            facts
                .scalar_facts_in(since.scalar_facts, now.scalar_facts)
                .collect::<Vec<_>>()
        ),
        format!(
            "{:?}",
            facts
                .set_members_in(since.set_member_inserts, now.set_member_inserts)
                .collect::<Vec<_>>()
        ),
        format!(
            "{:?}",
            s.isa().pairs_in(since.isa_pairs, now.isa_pairs).collect::<Vec<_>>()
        ),
        format!("{:?}", facts.mutation_keys_since(0).collect::<Vec<_>>()),
        format!("{:?}", s.isa().direct_edges().collect::<Vec<_>>()),
        format!(
            "window: {} entries, empty {}, new objects {}, touched {touched:?}",
            window.entry_count(),
            window.is_empty(),
            window.has_new_objects()
        ),
        keyed.join("\n"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clones taken at random points of a random history, every version
    /// mutated on afterwards: each equals the structure built from scratch
    /// by replaying its own history, down to enumeration orders, watermarks
    /// and delta windows.
    #[test]
    fn every_clone_equals_a_replay_of_its_own_history(
        steps in prop::collection::vec((0usize..6, prop_oneof![
            hist_op().prop_map(Some),
            hist_op().prop_map(Some),
            hist_op().prop_map(Some),
            (0u8..1).prop_map(|_| None),
        ]), 0..60),
    ) {
        let mut versions: Vec<(Structure, Vec<HistOp>)> = vec![(Structure::new(), Vec::new())];
        for (which, step) in steps {
            let at = which % versions.len();
            match step {
                Some(op) => {
                    apply_hist(&mut versions[at].0, &op);
                    versions[at].1.push(op);
                }
                None => {
                    let copy = versions[at].clone();
                    versions.push(copy);
                    for version in [at, versions.len() - 1] {
                        versions[version].1.push(HistOp::Cloned);
                    }
                }
            }
        }
        for (structure, history) in &versions {
            let mut replay = Structure::new();
            let mut since = EvalMarks::capture(&replay);
            for (i, op) in history.iter().enumerate() {
                if i == history.len() / 2 {
                    since = EvalMarks::capture(&replay);
                }
                apply_hist(&mut replay, op);
            }
            prop_assert_eq!(observed(structure, &since), observed(&replay, &since));
        }
    }
}

// ---------------------------------------------------------------------------
// 6. A bulk set assert is a loop of single asserts: same model, same logs,
//    same posting order — on a clone that shares its chunks with a parent
//    the writes must not reach.
// ---------------------------------------------------------------------------

/// One batch: a set method, receiver, argument tuple (empty or one object)
/// and members, all over the objects `x0..x40` `hist_op` writes to.
fn batch() -> impl Strategy<Value = (usize, u16, Vec<u16>, Vec<u16>)> {
    (
        0usize..SET_METHODS.len(),
        0u16..40,
        prop::collection::vec(0u16..40, 0..2),
        prop::collection::vec(0u16..42, 0..12),
    )
}

/// The object `name` denotes in `s`, which has interned it.
fn interned(s: &Structure, name: &str) -> Oid {
    s.lookup_name(&Name::atom(name)).expect("interned")
}

/// Who holds `member` of `method`, in posting order, for every method a
/// batch writes and every object it names: one line per pair.
fn postings_of(s: &Structure) -> Vec<String> {
    let mut out = Vec::new();
    for name in SET_METHODS {
        let method = interned(s, name);
        for k in 0..42 {
            let member = interned(s, &format!("x{k}"));
            let apps: Vec<(Oid, &[Oid])> = s
                .facts()
                .set_facts_containing(method, member)
                .map(|f| (f.receiver, f.args))
                .collect();
            out.push(format!("{method} {member} {apps:?}"));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `assert_set_members` ≡ a loop of `assert_set_member` over the same
    /// ascending members: equal counts per batch, and afterwards equal
    /// dumps, insertion logs, mutation journals and posting orders — with
    /// batches that mix stored and new members and that open new
    /// applications and argument tuples, written to a clone of a store
    /// whose tables are sealed and shared.  The parent sees none of it.
    #[test]
    fn assert_set_members_equals_a_loop_of_single_asserts(
        history in prop::collection::vec(hist_op(), 0..30),
        batches in prop::collection::vec(batch(), 1..25),
    ) {
        let mut parent = Structure::new();
        // Every name a batch uses exists before the clones are taken.
        apply_hist(&mut parent, &HistOp::Bulk(0, 41));
        for name in SET_METHODS {
            parent.atom(name);
        }
        for op in &history {
            apply_hist(&mut parent, op);
        }
        let since = EvalMarks::capture(&parent);
        let before = observed(&parent, &since);
        let (mut bulk, mut single) = (parent.clone(), parent.clone());
        let object = |k: u16| interned(&parent, &format!("x{k}"));
        for (m, receiver, args, members) in batches {
            let method = interned(&parent, SET_METHODS[m]);
            let receiver = object(receiver);
            let args: Vec<Oid> = args.into_iter().map(object).collect();
            let mut members: Vec<Oid> = members.into_iter().map(object).collect();
            members.sort();
            members.dedup();
            let bulk_new = bulk.assert_set_members(method, receiver, &args, &members);
            let single_new = members
                .iter()
                .filter(|&&x| single.assert_set_member(method, receiver, &args, x).is_new())
                .count();
            prop_assert_eq!(bulk_new, single_new);
        }
        prop_assert_eq!(bulk.canonical_dump(), single.canonical_dump());
        prop_assert_eq!(
            bulk.facts().set_members_since(0).collect::<Vec<_>>(),
            single.facts().set_members_since(0).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            bulk.facts().mutation_keys_since(0).collect::<Vec<_>>(),
            single.facts().mutation_keys_since(0).collect::<Vec<_>>()
        );
        prop_assert_eq!(postings_of(&bulk), postings_of(&single));
        prop_assert_eq!(observed(&bulk, &since), observed(&single, &since));
        prop_assert_eq!(observed(&parent, &since), before, "the parent is untouched");
    }
}
