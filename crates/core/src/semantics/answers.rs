//! Answer enumeration: which variable-valuations make a reference denote
//! something, and what does it denote?
//!
//! [`valuate`] implements Definition 4 for a *given*
//! variable-valuation.  Rule evaluation needs the other direction: given a
//! body reference with free variables, enumerate the pairs
//! `(sigma', object)` such that `object ∈ nu_{I,sigma'}(t)` and `sigma'`
//! extends the incoming valuation.  That is what [`answers`] computes.
//!
//! The enumeration is index-directed where it matters:
//!
//! * an unbound variable at the *receiver* position of a path or molecule is
//!   seeded from the per-method indexes of the structure instead of scanning
//!   the whole universe;
//! * an unbound variable at the *result* position of a scalar filter is bound
//!   directly to the method result;
//! * an unbound variable at the *method* position (the paper's generic
//!   transitive closure `M.tc`) is seeded from the methods defined on the
//!   receiver;
//! * an unbound variable at the receiver of an `IsA` is seeded from the class
//!   extent.
//!
//! A bare unbound variable with no such context falls back to enumerating the
//! universe, which is correct but slow; the rule compiler orders body
//! literals to avoid this.

use std::collections::{BTreeSet, HashSet};

use crate::engine::{binding_key, BindingKey};
use crate::error::{Error, Result};
use crate::names::Var;
use crate::program::Literal;
use crate::structure::{Oid, OidRun, Structure};
use crate::term::{Filter, FilterValue, Term};

use super::{valuate, Bindings};

/// One answer: an extended variable-valuation and one object the reference
/// denotes under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The extended valuation.
    pub bindings: Bindings,
    /// One object in the valuation of the reference under `bindings`.
    pub object: Oid,
}

impl Answer {
    pub(crate) fn new(bindings: Bindings, object: Oid) -> Self {
        Answer { bindings, object }
    }
}

/// Enumerate all answers of `term` extending `seed`.
pub fn answers(structure: &Structure, term: &Term, seed: &Bindings) -> Result<Vec<Answer>> {
    match term {
        Term::Name(n) => Ok(structure
            .lookup_name(n)
            .map(|o| vec![Answer::new(seed.clone(), o)])
            .unwrap_or_default()),
        Term::Var(v) => match seed.get(v) {
            Some(o) => Ok(vec![Answer::new(seed.clone(), o)]),
            None => Ok(structure
                .objects()
                .filter_map(|o| seed.bind(v, o).map(|b| Answer::new(b, o)))
                .collect()),
        },
        Term::Paren(t) => answers(structure, t, seed),
        Term::Path(p) => path_answers(structure, p, seed),
        Term::IsA(i) => isa_answers(structure, i, seed),
        Term::Molecule(m) => molecule_answers(structure, m, seed),
    }
}

/// Enumerate the valuations under which `term` denotes `expected`.
///
/// This is the "match a reference against a known object" operation used for
/// filter results and explicit set members; it avoids the universe scan that
/// `answers` would do for a bare unbound variable by binding it directly.
pub fn answers_matching(structure: &Structure, term: &Term, seed: &Bindings, expected: Oid) -> Result<Vec<Bindings>> {
    match term {
        Term::Name(n) => Ok(match structure.lookup_name(n) {
            Some(o) if o == expected => vec![seed.clone()],
            _ => Vec::new(),
        }),
        Term::Var(v) => Ok(seed.bind(v, expected).into_iter().collect()),
        Term::Paren(t) => answers_matching(structure, t, seed, expected),
        _ => Ok(answers(structure, term, seed)?
            .into_iter()
            .filter(|a| a.object == expected)
            .map(|a| a.bindings)
            .collect()),
    }
}

/// Solve a body conjunction: enumerate the variable-valuations extending
/// `seed` that satisfy every literal.  Positive literals are joined in
/// source order against the full structure, with per-stage deduplication;
/// negated literals are applied as filters last (validation guarantees their
/// variables are bound by then).
///
/// This written-order routine is the reference semantics of a body: the
/// reference fixpoint ([`super::fixpoint`]) and the model check
/// ([`super::is_model`]) run it.  The engine runs no body through it: its
/// delta passes go through [`crate::plan::execute_delta`], its full solves,
/// its queries and the constraint checker's denial bodies through
/// [`crate::plan::execute_query`], and the reactive layer's trigger
/// conditions through [`crate::plan::run_prepared`]; a full solve, a query,
/// a check or a trigger must reach the same set of solutions.
pub fn solve_body(structure: &Structure, body: &[Literal], seed: &Bindings) -> Result<Vec<Bindings>> {
    let mut states = vec![seed.clone()];
    for lit in body.iter().filter(|l| l.positive) {
        let mut next = Vec::new();
        let mut seen: HashSet<BindingKey> = HashSet::new();
        for s in &states {
            for a in answers(structure, &lit.term, s)? {
                if seen.insert(binding_key(&a.bindings)) {
                    next.push(a.bindings);
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Ok(states);
        }
    }
    // then negated literals as filters
    for lit in body.iter().filter(|l| !l.positive) {
        let mut next = Vec::new();
        for s in states {
            if answers(structure, &lit.term, &s)?.is_empty() {
                next.push(s);
            }
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    Ok(states)
}

/// Answers of a path `t0 (.|..) m @ (args)`.
fn path_answers(structure: &Structure, p: &crate::term::Path, seed: &Bindings) -> Result<Vec<Answer>> {
    let mut out = Vec::new();
    for recv in receiver_answers_for_path(structure, p, seed)? {
        for ma in method_answers(structure, &p.method, &recv.bindings, recv.object, p.set_valued)? {
            for (bindings, args) in arg_answers(structure, &p.args, &ma.bindings)? {
                if p.set_valued {
                    if let Some(members) = structure.apply_set(ma.object, recv.object, &args) {
                        for &member in members {
                            out.push(Answer::new(bindings.clone(), member));
                        }
                    }
                } else if let Some(res) = structure.apply_scalar(ma.object, recv.object, &args) {
                    out.push(Answer::new(bindings.clone(), res));
                }
            }
        }
    }
    Ok(out)
}

/// Answers of the receiver of a path.  An unbound variable receiver of a
/// stored method (not a built-in, which applies without facts) is seeded
/// from the method's facts instead of the whole universe.
fn receiver_answers_for_path(structure: &Structure, p: &crate::term::Path, seed: &Bindings) -> Result<Vec<Answer>> {
    let seeded = unbound_var(&p.receiver, seed).zip(resolved_method_oid(structure, &p.method, seed));
    let Some((v, m)) = seeded else {
        return answers(structure, &p.receiver, seed);
    };
    let facts = structure.facts();
    Ok(match p.set_valued {
        true => bind_each(seed, v, facts.set_facts_of_method(m).map(|f| f.receiver)),
        false => bind_each(seed, v, facts.scalar_facts_of_method(m).map(|f| f.receiver)),
    })
}

/// `term`, when it is a variable `seed` leaves unbound.
fn unbound_var<'t>(term: &'t Term, seed: &Bindings) -> Option<&'t Var> {
    match term {
        Term::Var(v) if seed.get(v).is_none() => Some(v),
        _ => None,
    }
}

/// `seed` with `v` bound to each of `objects`, ascending and once each.
fn bind_each(seed: &Bindings, v: &Var, objects: impl IntoIterator<Item = Oid>) -> Vec<Answer> {
    let objects: BTreeSet<Oid> = objects.into_iter().collect();
    objects
        .into_iter()
        .filter_map(|o| seed.bind(v, o).map(|b| Answer::new(b, o)))
        .collect()
}

/// Answers of a method position.  An unbound variable is seeded from the
/// methods defined on the receiver (this is what makes the generic
/// `X[(M.tc) ->> {Y}]` rules of Section 6 evaluable).
fn method_answers(
    structure: &Structure,
    method: &Term,
    seed: &Bindings,
    receiver: Oid,
    set_valued: bool,
) -> Result<Vec<Answer>> {
    let Some(v) = unbound_var(method, seed) else {
        return answers(structure, method, seed);
    };
    let facts = structure.facts();
    Ok(if set_valued {
        bind_each(seed, v, facts.set_facts_of_receiver(receiver).map(|f| f.method))
    } else {
        let stored = facts.scalar_facts_of_receiver(receiver).map(|f| f.method);
        bind_each(seed, v, stored.chain([structure.self_method()]))
    })
}

/// Enumerate bindings and concrete argument tuples for a call argument list.
fn arg_answers(structure: &Structure, args: &[Term], seed: &Bindings) -> Result<Vec<(Bindings, Vec<Oid>)>> {
    let mut states = vec![(seed.clone(), Vec::new())];
    for arg in args {
        let mut next = Vec::new();
        for (bindings, prefix) in &states {
            for a in answers(structure, arg, bindings)? {
                let mut row = prefix.clone();
                row.push(a.object);
                next.push((a.bindings, row));
            }
        }
        states = next;
    }
    Ok(states)
}

/// Answers of `t0 : c`.
fn isa_answers(structure: &Structure, i: &crate::term::IsA, seed: &Bindings) -> Result<Vec<Answer>> {
    let mut out = Vec::new();
    // Unbound-variable receiver: enumerate the extent of the class.
    if let Some(v) = unbound_var(&i.receiver, seed) {
        for ca in answers(structure, &i.class, seed)? {
            out.extend(bind_each(&ca.bindings, v, structure.instances_of(ca.object)));
        }
        return Ok(out);
    }
    for ra in answers(structure, &i.receiver, seed)? {
        // Unbound-variable class: enumerate the classes of the receiver.
        if let Some(v) = unbound_var(&i.class, &ra.bindings) {
            let bound = structure.classes_of(ra.object).filter_map(|c| ra.bindings.bind(v, c));
            out.extend(bound.map(|b| Answer::new(b, ra.object)));
            continue;
        }
        for ca in answers(structure, &i.class, &ra.bindings)? {
            if structure.in_class(ra.object, ca.object) {
                out.push(Answer::new(ca.bindings, ra.object));
            }
        }
    }
    Ok(out)
}

/// Answers of a molecule `t0 [ filters ]`.
fn molecule_answers(structure: &Structure, m: &crate::term::Molecule, seed: &Bindings) -> Result<Vec<Answer>> {
    let receivers = receiver_answers_for_molecule(structure, m, seed)?;
    let mut out = Vec::new();
    for ra in receivers {
        let mut states = vec![ra.bindings.clone()];
        for f in &m.filters {
            let mut next = Vec::new();
            for b in &states {
                next.extend(filter_answers(structure, ra.object, f, b)?);
            }
            states = next;
            if states.is_empty() {
                break;
            }
        }
        for b in states {
            out.push(Answer::new(b, ra.object));
        }
    }
    Ok(out)
}

/// Answers of the receiver of a molecule, seeding unbound variables from the
/// most selective usable filter.
fn receiver_answers_for_molecule(
    structure: &Structure,
    m: &crate::term::Molecule,
    seed: &Bindings,
) -> Result<Vec<Answer>> {
    let Some(v) = unbound_var(&m.receiver, seed) else {
        return answers(structure, &m.receiver, seed);
    };
    // Seed it from the smallest receiver set a filter with a determined
    // method selects through an index (the first of equals).
    let facts = structure.facts();
    let mut candidates: Option<BTreeSet<Oid>> = None;
    for f in &m.filters {
        let Some(method) = resolved_method_oid(structure, &f.method, seed) else {
            continue;
        };
        let ground = |t: &Term| single_ground_object(structure, t, seed);
        let set: BTreeSet<Oid> = match &f.value {
            FilterValue::Scalar(rt) => match ground(rt) {
                Some(r) => facts.scalar_facts_with_result(method, r).map(|f| f.receiver).collect(),
                None => facts.scalar_facts_of_method(method).map(|f| f.receiver).collect(),
            },
            // A ground element filters the method's applications.
            FilterValue::SetExplicit(elems) => match elems.iter().find_map(ground) {
                Some(first) => facts.set_facts_containing(method, first).map(|f| f.receiver).collect(),
                None => facts.set_facts_of_method(method).map(|f| f.receiver).collect(),
            },
            FilterValue::SetRef(_) => facts.set_facts_of_method(method).map(|f| f.receiver).collect(),
            FilterValue::SigScalar(_) | FilterValue::SigSet(_) => continue,
        };
        if candidates.as_ref().is_none_or(|prev| set.len() < prev.len()) {
            candidates = Some(set);
        }
    }
    match candidates {
        Some(set) => Ok(bind_each(seed, v, set)),
        None => answers(structure, &m.receiver, seed),
    }
}

/// All valuations extending `seed` under which `receiver` satisfies `filter`.
fn filter_answers(structure: &Structure, receiver: Oid, filter: &Filter, seed: &Bindings) -> Result<Vec<Bindings>> {
    // Fast path for the overwhelmingly common shape — a ground zero-argument
    // method — skipping the method/argument enumeration ceremony.
    if filter.args.is_empty() {
        if let Some(method) = ground_name_oid(structure, &filter.method, seed) {
            return filter_value_answers(structure, receiver, filter, method, &[], seed);
        }
    }
    let mut out = Vec::new();
    let set_valued_method = matches!(
        filter.value,
        FilterValue::SetRef(_) | FilterValue::SetExplicit(_) | FilterValue::SigSet(_)
    );
    for ma in method_answers(structure, &filter.method, seed, receiver, set_valued_method)? {
        for (bindings, args) in arg_answers(structure, &filter.args, &ma.bindings)? {
            out.extend(filter_value_answers(
                structure, receiver, filter, ma.object, &args, &bindings,
            )?);
        }
    }
    Ok(out)
}

/// Match a filter's value for an already-resolved method application.
fn filter_value_answers(
    structure: &Structure,
    receiver: Oid,
    filter: &Filter,
    method: Oid,
    args: &[Oid],
    bindings: &Bindings,
) -> Result<Vec<Bindings>> {
    let mut out = Vec::new();
    match &filter.value {
        FilterValue::Scalar(rt) => {
            if let Some(res) = structure.apply_scalar(method, receiver, args) {
                out.extend(answers_matching(structure, rt, bindings, res)?);
            }
        }
        FilterValue::SetRef(rt) => {
            let members = structure.apply_set(method, receiver, args);
            let required = required_members(structure, rt, bindings)?;
            let ok = match members {
                Some(ms) => required.iter().all(|x| ms.contains(x)),
                None => required.is_empty(),
            };
            if ok {
                out.push(bindings.clone());
            }
        }
        FilterValue::SetExplicit(elems) => {
            let members = structure
                .apply_set(method, receiver, args)
                .unwrap_or(OidRun::empty_ref());
            let mut states = vec![bindings.clone()];
            for e in elems {
                let mut next = Vec::new();
                for b in &states {
                    next.extend(element_answers(structure, e, b, members)?);
                }
                states = next;
                if states.is_empty() {
                    break;
                }
            }
            out.extend(states);
        }
        FilterValue::SigScalar(results) | FilterValue::SigSet(results) => {
            let set_valued = matches!(filter.value, FilterValue::SigSet(_));
            // Signatures are matched against the declarations table.
            for sig in structure.signatures().for_method(method) {
                if sig.set_valued != set_valued || sig.class != receiver || sig.arg_classes.as_ref() != args {
                    continue;
                }
                let mut states = vec![bindings.clone()];
                for r in results {
                    let mut next = Vec::new();
                    for b in &states {
                        for &rc in &sig.result_classes {
                            next.extend(answers_matching(structure, r, b, rc)?);
                        }
                    }
                    states = next;
                    if states.is_empty() {
                        break;
                    }
                }
                out.extend(states);
            }
        }
    }
    Ok(out)
}

/// The objects the strict right-hand side `rt` of an `m ->> rt` filter
/// requires.  It is read set-at-a-time (Definition 4, item 7), so it must be
/// evaluable under the current valuation — the engine's stratification and
/// safety checks guarantee this.
pub(crate) fn required_members(structure: &Structure, rt: &Term, bindings: &Bindings) -> Result<BTreeSet<Oid>> {
    valuate(structure, rt, bindings).map_err(|e| match e {
        Error::NotGround(msg) => Error::NotGround(format!(
            "set-valued right-hand side `{rt}` must be bound by earlier literals: {msg}"
        )),
        other => other,
    })
}

/// Valuations under which `element` denotes a member of `members`.
fn element_answers(structure: &Structure, element: &Term, seed: &Bindings, members: &OidRun) -> Result<Vec<Bindings>> {
    // Unbound variable: bind to every member (this is the paper's
    // "p1[assistants ->> {X[salary -> 1000]}]" access pattern).
    if let Some(v) = unbound_var(element, seed) {
        return Ok(members.iter().filter_map(|&o| seed.bind(v, o)).collect());
    }
    let found = answers(structure, element, seed)?.into_iter();
    Ok(found
        .filter(|a| members.contains(&a.object))
        .map(|a| a.bindings)
        .collect())
}

/// If `term` is a ground name (or a bound variable), the object it denotes.
pub(crate) fn ground_name_oid(structure: &Structure, term: &Term, seed: &Bindings) -> Option<Oid> {
    match term {
        Term::Name(n) => structure.lookup_name(n),
        Term::Var(v) => seed.get(v),
        Term::Paren(t) => ground_name_oid(structure, t, seed),
        _ => None,
    }
}

/// The method object a method-position term denotes, when it is fully
/// determined under `seed`: a ground name or bound variable resolves
/// directly, and any other fully-bound term (e.g. the parenthesised `(M.tc)`
/// of the paper's generic transitive closure with `M` bound) is valuated.
/// Built-in methods (`self`, comparisons) yield `None`: they apply to
/// arbitrary receivers without stored facts, so the per-method fact indexes
/// must not be used to seed receiver candidates for them.
pub(crate) fn resolved_method_oid(structure: &Structure, method: &Term, seed: &Bindings) -> Option<Oid> {
    let oid = ground_name_oid(structure, method, seed).or_else(|| single_ground_object(structure, method, seed))?;
    let builtin = oid == structure.self_method() || structure.is_comparison_method(oid);
    (!builtin).then_some(oid)
}

/// If `term` evaluates, under `seed`, to exactly one object without needing
/// further bindings, that object.
fn single_ground_object(structure: &Structure, term: &Term, seed: &Bindings) -> Option<Oid> {
    if !term.variables().iter().all(|v| seed.is_bound(v)) {
        return None;
    }
    let set = valuate(structure, term, seed).ok()?;
    set.first().copied().filter(|_| set.len() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Name, Var};
    use crate::term::Filter as TFilter;

    fn world() -> Structure {
        let mut s = Structure::new();
        let (employee, automobile, vehicle, person) = (
            s.atom("employee"),
            s.atom("automobile"),
            s.atom("vehicle"),
            s.atom("person"),
        );
        s.add_isa(employee, person);
        s.add_isa(automobile, vehicle);

        let (vehicles, color, cylinders, age, city) = (
            s.atom("vehicles"),
            s.atom("color"),
            s.atom("cylinders"),
            s.atom("age"),
            s.atom("city"),
        );
        let (red, blue, ny, detroit) = (s.atom("red"), s.atom("blue"), s.atom("newYork"), s.atom("detroit"));
        let (four, six, thirty, forty) = (s.int(4), s.int(6), s.int(30), s.int(40));

        // e1: 30, newYork, owns a1 (red, 4 cyl) and b1 (a plain vehicle)
        let (e1, e2) = (s.atom("e1"), s.atom("e2"));
        let (a1, a2, b1) = (s.atom("a1"), s.atom("a2"), s.atom("b1"));
        s.add_isa(e1, employee);
        s.add_isa(e2, employee);
        s.add_isa(a1, automobile);
        s.add_isa(a2, automobile);
        s.add_isa(b1, vehicle);
        s.assert_scalar(age, e1, &[], thirty).unwrap();
        s.assert_scalar(age, e2, &[], forty).unwrap();
        s.assert_scalar(city, e1, &[], ny).unwrap();
        s.assert_scalar(city, e2, &[], detroit).unwrap();
        s.assert_set_member(vehicles, e1, &[], a1);
        s.assert_set_member(vehicles, e1, &[], b1);
        s.assert_set_member(vehicles, e2, &[], a2);
        s.assert_scalar(color, a1, &[], red).unwrap();
        s.assert_scalar(color, a2, &[], blue).unwrap();
        s.assert_scalar(cylinders, a1, &[], four).unwrap();
        s.assert_scalar(cylinders, a2, &[], six).unwrap();
        s
    }

    fn o(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&Name::atom(n)).unwrap()
    }

    #[test]
    fn name_and_bound_variable_answers() {
        let s = world();
        let a = answers(&s, &Term::name("e1"), &Bindings::new()).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].object, o(&s, "e1"));
        let seed = Bindings::from_pairs([(Var::new("X"), o(&s, "e1"))]).unwrap();
        let a = answers(&s, &Term::var("X"), &seed).unwrap();
        assert_eq!(a.len(), 1);
        let a = answers(&s, &Term::name("unknown"), &Bindings::new()).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn unbound_variable_falls_back_to_universe() {
        let s = world();
        let a = answers(&s, &Term::var("X"), &Bindings::new()).unwrap();
        assert_eq!(a.len(), s.num_objects());
    }

    #[test]
    fn isa_enumerates_extent() {
        let s = world();
        let a = answers(&s, &Term::var("X").isa("employee"), &Bindings::new()).unwrap();
        let mut got: Vec<_> = a.iter().map(|x| x.object).collect();
        got.sort();
        let mut want = vec![o(&s, "e1"), o(&s, "e2")];
        want.sort();
        assert_eq!(got, want);
        // each answer binds X to the member
        for ans in &a {
            assert_eq!(ans.bindings.get(&Var::new("X")), Some(ans.object));
        }
    }

    #[test]
    fn isa_with_unbound_class_enumerates_classes() {
        let s = world();
        let seed = Bindings::from_pairs([(Var::new("X"), o(&s, "a1"))]).unwrap();
        let a = answers(&s, &Term::var("X").isa(Term::var("C")), &seed).unwrap();
        let mut classes: Vec<_> = a.iter().map(|x| x.bindings.get(&Var::new("C")).unwrap()).collect();
        classes.sort();
        classes.dedup();
        assert_eq!(classes.len(), 2); // automobile and vehicle
    }

    #[test]
    fn path_with_unbound_receiver_uses_method_index() {
        let s = world();
        // X..vehicles — receivers seeded from the `vehicles` method index.
        let a = answers(&s, &Term::var("X").set("vehicles"), &Bindings::new()).unwrap();
        assert_eq!(a.len(), 3); // a1, b1 for e1; a2 for e2
                                // X.color — scalar variant
        let a = answers(&s, &Term::var("X").scalar("color"), &Bindings::new()).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn molecule_with_unbound_receiver_uses_result_index() {
        let s = world();
        // X[color -> red] — only a1.
        let a = answers(
            &s,
            &Term::var("X").filter(TFilter::scalar("color", "red")),
            &Bindings::new(),
        )
        .unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].object, o(&s, "a1"));
    }

    #[test]
    fn scalar_filter_binds_result_variable() {
        let s = world();
        // e1[age -> A]
        let t = Term::name("e1").filter(TFilter::scalar("age", Term::var("A")));
        let a = answers(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(
            a[0].bindings.get(&Var::new("A")),
            Some(o(&s, "e1")).map(|_| s.lookup_name(&Name::int(30)).unwrap())
        );
    }

    #[test]
    fn two_dimensional_reference_2_1() {
        let s = world();
        // X:employee[age->30; city->newYork]..vehicles:automobile[cylinders->4].color[Z]
        let t = Term::var("X")
            .isa("employee")
            .filters(vec![
                TFilter::scalar("age", Term::int(30)),
                TFilter::scalar("city", "newYork"),
            ])
            .set("vehicles")
            .isa("automobile")
            .filter(TFilter::scalar("cylinders", Term::int(4)))
            .scalar("color")
            .selector(Term::var("Z"));
        let a = answers(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(a.len(), 1);
        let ans = &a[0];
        assert_eq!(ans.bindings.get(&Var::new("X")), Some(o(&s, "e1")));
        assert_eq!(ans.bindings.get(&Var::new("Z")), Some(o(&s, "red")));
        assert_eq!(ans.object, o(&s, "red"));
    }

    #[test]
    fn set_filter_element_variable_ranges_over_members() {
        let s = world();
        // e1[vehicles ->> {V}] — V successively bound to each vehicle.
        let t = Term::name("e1").filter(TFilter::set("vehicles", vec![Term::var("V")]));
        let a = answers(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(a.len(), 2);
        let mut vs: Vec<_> = a.iter().map(|x| x.bindings.get(&Var::new("V")).unwrap()).collect();
        vs.sort();
        let mut want = vec![o(&s, "a1"), o(&s, "b1")];
        want.sort();
        assert_eq!(vs, want);
        // the molecule still denotes its receiver
        assert!(a.iter().all(|x| x.object == o(&s, "e1")));
    }

    #[test]
    fn unbound_method_variable_enumerates_defined_methods() {
        let s = world();
        // e1[M -> thirty]? enumerate scalar methods M with that result on e1.
        let t = Term::name("e1").filter(TFilter::scalar(Term::var("M"), Term::int(30)));
        let a = answers(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].bindings.get(&Var::new("M")), Some(o(&s, "age")));
    }

    #[test]
    fn set_ref_rhs_requires_bound_variables() {
        let s = world();
        // e1[vehicles ->> Y..vehicles] with Y unbound: must be an error, the
        // engine's stratification/safety pass prevents this situation.
        let t = Term::name("e1").filter(TFilter::set_ref("vehicles", Term::var("Y").set("vehicles")));
        assert!(answers(&s, &t, &Bindings::new()).is_err());
        // With Y bound to e1 it holds (every vehicle of e1 is a vehicle of e1).
        let seed = Bindings::from_pairs([(Var::new("Y"), o(&s, "e1"))]).unwrap();
        let a = answers(&s, &t, &seed).unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn answers_matching_binds_or_checks() {
        let s = world();
        let red = o(&s, "red");
        let b = answers_matching(&s, &Term::var("Z"), &Bindings::new(), red).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].get(&Var::new("Z")), Some(red));
        let b = answers_matching(&s, &Term::name("red"), &Bindings::new(), red).unwrap();
        assert_eq!(b.len(), 1);
        let b = answers_matching(&s, &Term::name("blue"), &Bindings::new(), red).unwrap();
        assert!(b.is_empty());
        // complex term: a1.color matched against red
        let b = answers_matching(&s, &Term::name("a1").scalar("color"), &Bindings::new(), red).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn answers_agree_with_valuate_on_ground_terms() {
        let s = world();
        let terms = vec![
            Term::name("e1").set("vehicles"),
            Term::name("e1").set("vehicles").scalar("color"),
            Term::name("e1").filter(TFilter::scalar("age", Term::int(30))),
            Term::name("e2").filter(TFilter::scalar("age", Term::int(30))),
            Term::name("a1").isa("vehicle"),
        ];
        for t in terms {
            let via_answers: BTreeSet<_> = answers(&s, &t, &Bindings::new())
                .unwrap()
                .into_iter()
                .map(|a| a.object)
                .collect();
            let via_valuate = valuate(&s, &t, &Bindings::new()).unwrap();
            assert_eq!(via_answers, via_valuate, "mismatch for {t}");
        }
    }

    #[test]
    fn nested_path_in_filter_value() {
        let mut s = world();
        // boss city equality: e1's boss is e2; ask X[city -> X.boss.city].
        let boss = s.atom("boss");
        let (e1, e2) = (o(&s, "e1"), o(&s, "e2"));
        s.assert_scalar(boss, e1, &[], e2).unwrap();
        // e1 lives in newYork, e2 in detroit -> no answer.
        let t = Term::var("X").filter(TFilter::scalar("city", Term::var("X").scalar("boss").scalar("city")));
        let a = answers(&s, &t, &Bindings::new()).unwrap();
        assert!(a.is_empty());
        // Move e2 to newYork -> one answer (e1).
        let city = o(&s, "city");
        let ny = o(&s, "newYork");
        let mut s2 = world();
        let boss2 = s2.atom("boss");
        s2.assert_scalar(boss2, e1, &[], e2).unwrap();
        // overwrite by building fresh: assert e2 city newYork in a new world
        // (scalar conflict would be an error otherwise).
        let _ = (city, ny);
        let mut s3 = Structure::new();
        let (employee, age2, city3) = (s3.atom("employee"), s3.atom("age"), s3.atom("city"));
        let (f1, f2) = (s3.atom("f1"), s3.atom("f2"));
        let ny3 = s3.atom("newYork");
        let boss3 = s3.atom("boss");
        let t30 = s3.int(30);
        s3.add_isa(f1, employee);
        s3.add_isa(f2, employee);
        s3.assert_scalar(age2, f1, &[], t30).unwrap();
        s3.assert_scalar(city3, f1, &[], ny3).unwrap();
        s3.assert_scalar(city3, f2, &[], ny3).unwrap();
        s3.assert_scalar(boss3, f1, &[], f2).unwrap();
        let a = answers(&s3, &t, &Bindings::new()).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].object, f1);
    }
}
