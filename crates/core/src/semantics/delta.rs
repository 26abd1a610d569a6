//! Delta-restricted answer enumeration — the workhorse of the engine's
//! semi-naive evaluation.
//!
//! Semi-naive bottom-up evaluation rests on one observation: a rule firing
//! can only contribute *new* information if the body solution it fires on
//! reads at least one fact that was itself derived in the previous
//! iteration.  [`delta_answers`] is the enumeration that makes this
//! exploitable for PathLog's composite references: it returns exactly the
//! answers of a reference whose derivation touches the *delta* — the facts
//! (scalar results, set members, is-a closure pairs, objects, signatures)
//! added between two [`EvalMarks`] watermarks — and it *drives* the
//! enumeration from the delta wherever an index allows, instead of
//! enumerating the full structure and filtering.
//!
//! The implementation follows the product rule of differentiation.  A path
//! `t0..m@(a)` reads facts in four places — the receiver derivation, the
//! method derivation, the argument derivations and the method application
//! itself — so its delta answers are the union of four parts, each with one
//! position restricted to the delta and the remaining positions evaluated
//! against the full structure (via the sibling [`answers`] module):
//!
//! ```text
//!   Δ(t0..m@(a)) = Δt0 ..m @(a)  ∪  t0 ..Δm @(a)  ∪  t0 ..m @(Δa)  ∪  t0 ..m @(a) |Δfacts
//! ```
//!
//! The last part is where the delta indexes earn their keep: instead of
//! enumerating every receiver, it walks the per-method delta slice directly
//! and *matches* the reference's receiver/method/argument sub-terms against
//! each new fact ([`answers_matching`]), which is O(delta) when the receiver
//! is an unbound variable.  Molecules, is-a references and filters decompose
//! the same way.  Duplicates between parts are harmless (head assertion is
//! idempotent and the engine deduplicates bindings); omissions would be
//! unsound, which is why positions that *cannot* change mid-stratum
//! (set-at-a-time right-hand sides, built-in methods) are the only ones
//! skipped.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::error::Result;
use crate::structure::{Oid, OidRun, Structure};
use crate::term::{Filter, FilterValue, Term};

use super::answers::{
    answers, answers_matching, arg_answers, element_answers, filter_answers, filter_value_answers, ground_name_oid,
    index_seeded_receivers, method_answers, receiver_answers_for_molecule, resolved_method_oid, Answer,
};
use super::{valuate, Bindings};

pub use crate::structure::EvalMarks;

/// A sliding snapshot window over a structure's insertion logs — the
/// iteration-boundary plumbing of the engine's cross-rule scheduling.
///
/// The window remembers the watermarks of its last capture; [`slide`]
/// advances them to the present and returns the [`DeltaView`] of everything
/// asserted in between.  One window per stratum, slid once per fixpoint
/// iteration, gives every rule of the stratum the *same* delta — the
/// scheduling contract that lets their solves run concurrently (see the
/// `pathlog_core::engine` module docs).
///
/// [`slide`]: SnapshotWindow::slide
#[derive(Debug, Clone, Copy)]
pub struct SnapshotWindow {
    lo: EvalMarks,
}

impl SnapshotWindow {
    /// Open a window at the structure's current watermarks (the first
    /// [`slide`](SnapshotWindow::slide) covers everything asserted after
    /// this call).
    pub fn capture(structure: &Structure) -> Self {
        SnapshotWindow {
            lo: EvalMarks::capture(structure),
        }
    }

    /// The lower watermarks of the window (the structure state its next
    /// [`slide`](SnapshotWindow::slide) reaches back to).
    pub fn marks(&self) -> EvalMarks {
        self.lo
    }

    /// Advance the window to the structure's present and return the view of
    /// the facts asserted since the previous boundary.  O(window).
    pub fn slide(&mut self, structure: &Structure) -> DeltaView {
        let hi = EvalMarks::capture(structure);
        let view = DeltaView::between(structure, &self.lo, &hi);
        self.lo = hi;
        view
    }
}

/// The facts added between two watermarks, indexed for delta joins.
///
/// Building a view is O(delta): it slices the insertion logs of the fact
/// store and the is-a closure and groups the entries by method / class so
/// [`delta_answers`] can drive enumeration from them.
#[derive(Debug, Default)]
pub struct DeltaView {
    scalar_lo: usize,
    scalar_hi: usize,
    /// New scalar facts, grouped by method: dense-vector fact positions.
    scalar_by_method: HashMap<Oid, Vec<usize>>,
    /// New set members, grouped by method: `(application index, member)`.
    set_by_method: HashMap<Oid, Vec<(usize, Oid)>>,
    /// New set members, grouped by application index.
    set_by_app: HashMap<usize, BTreeSet<Oid>>,
    /// New is-a closure pairs.
    isa_pairs: HashSet<(Oid, Oid)>,
    /// New is-a closure pairs, grouped by class: the new instances.
    isa_by_class: HashMap<Oid, Vec<Oid>>,
    object_lo: usize,
    object_hi: usize,
    sigs_changed: bool,
}

impl DeltaView {
    /// The delta between watermarks `lo` and `hi` of `structure`.
    pub fn between(structure: &Structure, lo: &EvalMarks, hi: &EvalMarks) -> Self {
        let facts = structure.facts();
        let mut view = DeltaView {
            scalar_lo: lo.scalar_facts,
            scalar_hi: hi.scalar_facts,
            object_lo: lo.objects,
            object_hi: hi.objects,
            sigs_changed: hi.signatures > lo.signatures,
            ..DeltaView::default()
        };
        // The bounded log slices: entries past the `hi` watermark belong to
        // the next window and must not leak into this one.
        for (idx, fact) in facts.scalar_facts_in(lo.scalar_facts, hi.scalar_facts) {
            view.scalar_by_method.entry(fact.method).or_default().push(idx);
        }
        for (app_idx, member) in facts.set_members_in(lo.set_member_inserts, hi.set_member_inserts) {
            let method = facts.set_fact_at(app_idx).method;
            view.set_by_method.entry(method).or_default().push((app_idx, member));
            view.set_by_app.entry(app_idx).or_default().insert(member);
        }
        for (sub, sup) in structure.isa().pairs_in(lo.isa_pairs, hi.isa_pairs) {
            view.isa_pairs.insert((sub, sup));
            view.isa_by_class.entry(sup).or_default().push(sub);
        }
        view
    }

    /// Is the delta empty (no new facts of any kind)?
    pub fn is_empty(&self) -> bool {
        self.scalar_lo == self.scalar_hi
            && self.set_by_method.is_empty()
            && self.isa_pairs.is_empty()
            && self.object_lo == self.object_hi
            && !self.sigs_changed
    }

    /// Were any objects created inside the window?  New (virtual) objects
    /// can satisfy literals through positions that read no named key — the
    /// engine treats every positive literal as delta-drivable when this
    /// holds.
    pub fn has_new_objects(&self) -> bool {
        self.object_lo != self.object_hi
    }

    /// Were any signature declarations added inside the window?
    /// Declarations carry no per-fact stamps, so readers must be re-matched
    /// conservatively.
    pub fn sigs_changed(&self) -> bool {
        self.sigs_changed
    }

    /// Does the window contain any fact — scalar result, set member or is-a
    /// pair — whose method/class position is `oid`?  This is what decides
    /// whether a body literal reading that key can be driven by this delta.
    pub fn has_new_facts_for(&self, oid: Oid) -> bool {
        self.scalar_by_method.contains_key(&oid)
            || self.set_by_method.contains_key(&oid)
            || self.isa_by_class.contains_key(&oid)
    }

    fn scalar_is_new(&self, idx: usize) -> bool {
        self.scalar_lo <= idx && idx < self.scalar_hi
    }

    fn new_scalar_facts_of_method(&self, method: Oid) -> &[usize] {
        self.scalar_by_method.get(&method).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn new_set_entries_of_method(&self, method: Oid) -> &[(usize, Oid)] {
        self.set_by_method.get(&method).map_or(&[], Vec::as_slice)
    }

    fn new_members_of_app(&self, app_idx: usize) -> Option<&BTreeSet<Oid>> {
        self.set_by_app.get(&app_idx)
    }

    pub(crate) fn new_instances_of(&self, class: Oid) -> &[Oid] {
        self.isa_by_class.get(&class).map_or(&[], Vec::as_slice)
    }

    fn scalar_methods(&self) -> impl Iterator<Item = Oid> + '_ {
        self.scalar_by_method.keys().copied()
    }

    fn set_methods(&self) -> impl Iterator<Item = Oid> + '_ {
        self.set_by_method.keys().copied()
    }

    fn isa_classes(&self) -> impl Iterator<Item = Oid> + '_ {
        self.isa_by_class.keys().copied()
    }

    pub(crate) fn new_objects(&self) -> impl Iterator<Item = Oid> + '_ {
        (self.object_lo as u32..self.object_hi as u32).map(Oid)
    }

    /// Total number of log entries in the window (scalar facts, set members,
    /// is-a closure pairs) — the work a delta-driven solve is proportional to.
    pub fn entry_count(&self) -> usize {
        let scalars: usize = self.scalar_by_method.values().map(Vec::len).sum();
        let members: usize = self.set_by_method.values().map(Vec::len).sum();
        scalars + members + self.isa_pairs.len()
    }
}

/// Can this term's own derivation read method/class facts?  Names and
/// variables cannot (they resolve through `I_N` and the valuation only), so
/// their delta parts are empty; everything else must be differentiated.
fn reads_facts(term: &Term) -> bool {
    match term {
        Term::Name(_) | Term::Var(_) => false,
        Term::Paren(t) => reads_facts(t),
        Term::Path(_) | Term::IsA(_) | Term::Molecule(_) => true,
    }
}

/// Enumerate the answers of `term` (extending `seed`) whose derivation reads
/// at least one fact in `dv` — the delta-restricted counterpart of
/// [`answers`].
pub fn delta_answers(structure: &Structure, term: &Term, seed: &Bindings, dv: &DeltaView) -> Result<Vec<Answer>> {
    match term {
        // A name resolves through `I_N` only; never in the delta.
        Term::Name(_) => Ok(Vec::new()),
        // A bound variable reads nothing.  An unbound variable's universe
        // enumeration is new exactly for the objects created in the delta
        // (virtual objects may appear mid-stratum).
        Term::Var(v) => match seed.get(v) {
            Some(_) => Ok(Vec::new()),
            None => Ok(dv
                .new_objects()
                .filter_map(|o| seed.bind(v, o).map(|b| Answer::new(b, o)))
                .collect()),
        },
        Term::Paren(t) => delta_answers(structure, t, seed, dv),
        Term::Path(p) => delta_path_answers(structure, p, seed, dv),
        Term::IsA(i) => delta_isa_answers(structure, i, seed, dv),
        Term::Molecule(m) => delta_molecule_answers(structure, m, seed, dv),
    }
}

/// The valuations under which `term` denotes `expected` with a derivation
/// that reads the delta — the delta-restricted counterpart of
/// [`answers_matching`].
fn delta_answers_matching(
    structure: &Structure,
    term: &Term,
    seed: &Bindings,
    expected: Oid,
    dv: &DeltaView,
) -> Result<Vec<Bindings>> {
    match term {
        Term::Name(_) | Term::Var(_) => Ok(Vec::new()),
        Term::Paren(t) => delta_answers_matching(structure, t, seed, expected, dv),
        _ => Ok(delta_answers(structure, term, seed, dv)?
            .into_iter()
            .filter(|a| a.object == expected)
            .map(|a| a.bindings)
            .collect()),
    }
}

/// Match each argument term against the concrete argument tuple of a delta
/// fact.
fn tuple_matching(structure: &Structure, args: &[Term], seed: &Bindings, tuple: &[Oid]) -> Result<Vec<Bindings>> {
    debug_assert_eq!(args.len(), tuple.len());
    let mut states = vec![seed.clone()];
    for (term, &oid) in args.iter().zip(tuple) {
        let mut next = Vec::new();
        for b in &states {
            next.extend(answers_matching(structure, term, b, oid)?);
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    Ok(states)
}

/// Bindings and argument tuples with the argument at `delta_pos` restricted
/// to the delta, the others full.
fn arg_answers_delta_at(
    structure: &Structure,
    args: &[Term],
    seed: &Bindings,
    delta_pos: usize,
    dv: &DeltaView,
) -> Result<Vec<(Bindings, Vec<Oid>)>> {
    let mut states = vec![(seed.clone(), Vec::new())];
    for (k, arg) in args.iter().enumerate() {
        let mut next = Vec::new();
        for (bindings, prefix) in &states {
            let arg_answers = if k == delta_pos {
                delta_answers(structure, arg, bindings, dv)?
            } else {
                answers(structure, arg, bindings)?
            };
            for a in arg_answers {
                let mut row = prefix.clone();
                row.push(a.object);
                next.push((a.bindings, row));
            }
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    Ok(states)
}

/// Apply a resolved method to a resolved receiver against the full
/// structure, collecting answers.
fn apply_full(
    structure: &Structure,
    set_valued: bool,
    method: Oid,
    receiver: Oid,
    args: &[Oid],
    bindings: &Bindings,
    out: &mut Vec<Answer>,
) {
    if set_valued {
        if let Some(members) = structure.apply_set(method, receiver, args) {
            for &member in members {
                out.push(Answer::new(bindings.clone(), member));
            }
        }
    } else if let Some(res) = structure.apply_scalar(method, receiver, args) {
        out.push(Answer::new(bindings.clone(), res));
    }
}

/// Delta answers of a path `t0 (.|..) m @ (args)`: the four-part product
/// rule described in the module docs.
fn delta_path_answers(
    structure: &Structure,
    p: &crate::term::Path,
    seed: &Bindings,
    dv: &DeltaView,
) -> Result<Vec<Answer>> {
    let mut out = Vec::new();

    // Part 1: the receiver derivation reads the delta; method, arguments and
    // application against the full structure.
    for recv in delta_answers(structure, &p.receiver, seed, dv)? {
        for ma in method_answers(structure, &p.method, &recv.bindings, recv.object, p.set_valued)? {
            for (bindings, args) in arg_answers(structure, &p.args, &ma.bindings)? {
                apply_full(
                    structure,
                    p.set_valued,
                    ma.object,
                    recv.object,
                    &args,
                    &bindings,
                    &mut out,
                );
            }
        }
    }

    // Part 2: the *method* derivation reads the delta (e.g. the `(M.tc)`
    // fact of the generic transitive closure was just created).  An unbound
    // method variable reads nothing itself — any new fact it leads to is
    // caught by part 4 — so only fact-reading method terms contribute.
    if reads_facts(&p.method) {
        for ma in delta_answers(structure, &p.method, seed, dv)? {
            // A method *object* created inside (or after) the window — e.g.
            // the virtual `kids.tc` method right after its defining fact —
            // only has applications that postdate the window too; part 4
            // (or the next iteration's delta) covers every one of them.
            // This part exists for new derivations of *old* method objects,
            // whose stored applications part 4 cannot see.
            if ma.object.index() >= dv.object_lo {
                continue;
            }
            // Seed receivers from the per-method index for the now-known
            // method object instead of enumerating the universe; the shared
            // helper declines (full enumeration) for bound/complex receivers
            // and for built-in methods, which have no stored facts.
            let receivers: Vec<Answer> =
                match index_seeded_receivers(structure, &p.receiver, &ma.bindings, ma.object, p.set_valued) {
                    Some(seeded) => seeded,
                    None => answers(structure, &p.receiver, &ma.bindings)?,
                };
            for recv in receivers {
                for (bindings, args) in arg_answers(structure, &p.args, &recv.bindings)? {
                    apply_full(
                        structure,
                        p.set_valued,
                        ma.object,
                        recv.object,
                        &args,
                        &bindings,
                        &mut out,
                    );
                }
            }
        }
    }

    // Part 3: an argument derivation reads the delta.  The receiver/method
    // join is enumerated once, with the delta position varied innermost.
    // Arguments that are names or variables only read the delta through new
    // objects, so the whole pass is skipped when neither can apply.
    if p.args.iter().any(reads_facts) || (!p.args.is_empty() && dv.has_new_objects()) {
        for recv in super::answers::receiver_answers_for_path(structure, p, seed)? {
            for ma in method_answers(structure, &p.method, &recv.bindings, recv.object, p.set_valued)? {
                for k in 0..p.args.len() {
                    for (bindings, args) in arg_answers_delta_at(structure, &p.args, &ma.bindings, k, dv)? {
                        apply_full(
                            structure,
                            p.set_valued,
                            ma.object,
                            recv.object,
                            &args,
                            &bindings,
                            &mut out,
                        );
                    }
                }
            }
        }
    }

    // Part 4: the application itself reads a delta fact.  Driven from the
    // per-method delta slices: O(delta) when the receiver is an unbound
    // variable, independent of the size of the full structure.
    let resolved = resolved_method_oid(structure, &p.method, seed);
    if p.set_valued {
        let methods: Vec<Oid> = match resolved {
            Some(m) => vec![m],
            None => {
                // Sorted for run-to-run determinism (virtual objects are
                // allocated in answer order).
                let mut ms: Vec<Oid> = dv.set_methods().collect();
                ms.sort_unstable();
                ms
            }
        };
        for m_oid in methods {
            let entries = dv.new_set_entries_of_method(m_oid);
            if entries.is_empty() {
                continue;
            }
            for mb in answers_matching(structure, &p.method, seed, m_oid)? {
                for &(app_idx, member) in entries {
                    let fact = structure.facts().set_fact_at(app_idx);
                    for rb in answers_matching(structure, &p.receiver, &mb, fact.receiver)? {
                        if p.args.is_empty() {
                            out.push(Answer::new(rb, member));
                        } else {
                            for ab in tuple_matching(structure, &p.args, &rb, fact.args)? {
                                out.push(Answer::new(ab, member));
                            }
                        }
                    }
                }
            }
        }
    } else {
        let methods: Vec<Oid> = match resolved {
            Some(m) => vec![m],
            None => {
                let mut ms: Vec<Oid> = dv.scalar_methods().collect();
                ms.sort_unstable();
                ms
            }
        };
        for m_oid in methods {
            let indices = dv.new_scalar_facts_of_method(m_oid);
            if indices.is_empty() {
                continue;
            }
            for mb in answers_matching(structure, &p.method, seed, m_oid)? {
                for &idx in indices {
                    let fact = structure.facts().scalar_fact_at(idx);
                    for rb in answers_matching(structure, &p.receiver, &mb, fact.receiver)? {
                        if p.args.is_empty() {
                            out.push(Answer::new(rb, fact.result));
                        } else {
                            for ab in tuple_matching(structure, &p.args, &rb, fact.args)? {
                                out.push(Answer::new(ab, fact.result));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Delta answers of `t0 : c`.
fn delta_isa_answers(
    structure: &Structure,
    i: &crate::term::IsA,
    seed: &Bindings,
    dv: &DeltaView,
) -> Result<Vec<Answer>> {
    let mut out = Vec::new();

    // Part 1: the membership pair itself is new, driven from the per-class
    // delta slices.
    let resolved = resolved_class_oid(structure, &i.class, seed);
    let classes: Vec<Oid> = match resolved {
        Some(c) => vec![c],
        None => {
            let mut cs: Vec<Oid> = dv.isa_classes().collect();
            cs.sort_unstable();
            cs
        }
    };
    for c in classes {
        let instances = dv.new_instances_of(c);
        if instances.is_empty() {
            continue;
        }
        for cb in answers_matching(structure, &i.class, seed, c)? {
            for &o in instances {
                for rb in answers_matching(structure, &i.receiver, &cb, o)? {
                    out.push(Answer::new(rb, o));
                }
            }
        }
    }

    // Part 2: the receiver derivation reads the delta; membership against
    // the full relation.
    for ra in delta_answers(structure, &i.receiver, seed, dv)? {
        if let Term::Var(v) = &i.class {
            if ra.bindings.get(v).is_none() {
                for class in structure.classes_of(ra.object) {
                    if let Some(b) = ra.bindings.bind(v, class) {
                        out.push(Answer::new(b, ra.object));
                    }
                }
                continue;
            }
        }
        for ca in answers(structure, &i.class, &ra.bindings)? {
            if structure.in_class(ra.object, ca.object) {
                out.push(Answer::new(ca.bindings, ra.object));
            }
        }
    }

    // Part 3: the class derivation reads the delta (e.g. `L : (integer.list)`
    // where the `list` fact was just derived); extent against the full
    // relation.
    if reads_facts(&i.class) {
        for ca in delta_answers(structure, &i.class, seed, dv)? {
            let members: Vec<Oid> = structure.instances_of(ca.object).collect();
            for o in members {
                for rb in answers_matching(structure, &i.receiver, &ca.bindings, o)? {
                    out.push(Answer::new(rb, o));
                }
            }
        }
    }
    Ok(out)
}

/// Like [`resolved_method_oid`] but for class positions (no built-in
/// exclusion applies to classes).
fn resolved_class_oid(structure: &Structure, class: &Term, seed: &Bindings) -> Option<Oid> {
    ground_name_oid(structure, class, seed).or_else(|| super::answers::single_ground_object(structure, class, seed))
}

/// Delta answers of a molecule `t0 [ filters ]`.
fn delta_molecule_answers(
    structure: &Structure,
    m: &crate::term::Molecule,
    seed: &Bindings,
    dv: &DeltaView,
) -> Result<Vec<Answer>> {
    let mut out = Vec::new();

    // Part 1: the receiver derivation reads the delta; every filter is
    // checked against the full structure.
    for ra in delta_answers(structure, &m.receiver, seed, dv)? {
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

    // Part 2: one filter reads the delta, the others (and the receiver) are
    // full.  Filters that provably cannot touch the delta are skipped, which
    // is what keeps an iteration O(delta) when only one method is growing.
    for (j, f) in m.filters.iter().enumerate() {
        if !filter_may_touch_delta(structure, f, seed, dv) {
            continue;
        }
        for ra in receivers_for_delta_filter(structure, m, seed, dv, j)? {
            let mut states = vec![ra.bindings.clone()];
            for (k, fk) in m.filters.iter().enumerate() {
                let mut next = Vec::new();
                for b in &states {
                    if k == j {
                        next.extend(filter_delta_answers(structure, ra.object, fk, b, dv)?);
                    } else {
                        next.extend(filter_answers(structure, ra.object, fk, b)?);
                    }
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
    }
    Ok(out)
}

/// Can `filter` possibly have a delta-touching derivation on *any* receiver?
/// A cheap static+index test used to skip whole filter passes.
fn filter_may_touch_delta(structure: &Structure, f: &Filter, seed: &Bindings, dv: &DeltaView) -> bool {
    if reads_facts(&f.method) || f.args.iter().any(reads_facts) {
        return true;
    }
    match &f.value {
        FilterValue::Scalar(rt) => {
            if reads_facts(rt) {
                return true;
            }
        }
        FilterValue::SetRef(_) => {
            // The right-hand side is a strict (set-at-a-time) use computed in
            // an earlier stratum, but the application on the left can still
            // gain members.
        }
        FilterValue::SetExplicit(elems) => {
            if elems.iter().any(reads_facts) {
                return true;
            }
        }
        FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {
            return dv.sigs_changed;
        }
    }
    // A built-in method's application reads no stored facts and can never
    // be new.
    if let Some(m) = ground_name_oid(structure, &f.method, seed) {
        if m == structure.self_method() || structure.is_comparison_method(m) {
            return false;
        }
    }
    let set_valued = matches!(
        f.value,
        FilterValue::SetRef(_) | FilterValue::SetExplicit(_) | FilterValue::SigSet(_)
    );
    match resolved_method_oid(structure, &f.method, seed) {
        Some(m) => {
            if set_valued {
                !dv.new_set_entries_of_method(m).is_empty()
            } else {
                !dv.new_scalar_facts_of_method(m).is_empty()
            }
        }
        // Unresolved method position (e.g. an unbound variable): any new
        // fact of the right kind could match.
        None => {
            if set_valued {
                !dv.set_by_method.is_empty()
            } else {
                dv.scalar_lo != dv.scalar_hi
            }
        }
    }
}

/// Receiver candidates for the part-2 pass of [`delta_molecule_answers`]
/// with filter `j` restricted to the delta.  When the receiver is an unbound
/// variable and the only way filter `j` can touch the delta is through its
/// own application, the candidates are exactly the receivers of the new
/// facts of that method — O(delta).  Otherwise fall back to the full,
/// index-seeded receiver enumeration.
fn receivers_for_delta_filter(
    structure: &Structure,
    m: &crate::term::Molecule,
    seed: &Bindings,
    dv: &DeltaView,
    j: usize,
) -> Result<Vec<Answer>> {
    let f = &m.filters[j];
    let delta_only_in_application = !reads_facts(&f.method)
        && !f.args.iter().any(reads_facts)
        && match &f.value {
            FilterValue::Scalar(rt) => !reads_facts(rt),
            FilterValue::SetRef(_) => true,
            FilterValue::SetExplicit(elems) => !elems.iter().any(reads_facts),
            FilterValue::SigScalar(_) | FilterValue::SigSet(_) => false,
        };
    if let Term::Var(v) = &m.receiver {
        if seed.get(v).is_none() && delta_only_in_application {
            if let Some(method) = resolved_method_oid(structure, &f.method, seed) {
                let set_valued = matches!(
                    f.value,
                    FilterValue::SetRef(_) | FilterValue::SetExplicit(_) | FilterValue::SigSet(_)
                );
                let mut candidates: BTreeSet<Oid> = BTreeSet::new();
                if set_valued {
                    for &(app_idx, _) in dv.new_set_entries_of_method(method) {
                        candidates.insert(structure.facts().set_fact_at(app_idx).receiver);
                    }
                } else {
                    for &idx in dv.new_scalar_facts_of_method(method) {
                        candidates.insert(structure.facts().scalar_fact_at(idx).receiver);
                    }
                }
                return Ok(candidates
                    .into_iter()
                    .filter_map(|o| seed.bind(v, o).map(|b| Answer::new(b, o)))
                    .collect());
            }
        }
    }
    receiver_answers_for_molecule(structure, m, seed)
}

/// Delta-restricted filter satisfaction: the valuations under which
/// `receiver` satisfies `filter` with a derivation that reads the delta.
fn filter_delta_answers(
    structure: &Structure,
    receiver: Oid,
    filter: &Filter,
    seed: &Bindings,
    dv: &DeltaView,
) -> Result<Vec<Bindings>> {
    let mut out = Vec::new();
    let set_valued_method = matches!(
        filter.value,
        FilterValue::SetRef(_) | FilterValue::SetExplicit(_) | FilterValue::SigSet(_)
    );

    // Part A: the *method* derivation reads the delta; everything else full.
    if reads_facts(&filter.method) {
        for ma in delta_answers(structure, &filter.method, seed, dv)? {
            for (bindings, args) in arg_answers(structure, &filter.args, &ma.bindings)? {
                out.extend(filter_value_answers(
                    structure, receiver, filter, ma.object, &args, &bindings,
                )?);
            }
        }
    }

    // Part B: an *argument* derivation reads the delta (names and variables
    // only through new objects — skip the pass when neither can apply).
    if filter.args.iter().any(reads_facts) || (!filter.args.is_empty() && dv.has_new_objects()) {
        for ma in method_answers(structure, &filter.method, seed, receiver, set_valued_method)? {
            for k in 0..filter.args.len() {
                for (bindings, args) in arg_answers_delta_at(structure, &filter.args, &ma.bindings, k, dv)? {
                    out.extend(filter_value_answers(
                        structure, receiver, filter, ma.object, &args, &bindings,
                    )?);
                }
            }
        }
    }

    // Part C: the application or the value derivation reads the delta.
    for ma in method_answers(structure, &filter.method, seed, receiver, set_valued_method)? {
        for (bindings, args) in arg_answers(structure, &filter.args, &ma.bindings)? {
            match &filter.value {
                FilterValue::Scalar(rt) => {
                    // C1: the scalar fact itself is new.
                    if let Some(idx) = structure.facts().scalar_index(ma.object, receiver, &args) {
                        if dv.scalar_is_new(idx) {
                            let res = structure.facts().scalar_fact_at(idx).result;
                            out.extend(answers_matching(structure, rt, &bindings, res)?);
                            continue; // the full match already covers Δrt
                        }
                    }
                    // C2: the fact is old but the result term's derivation
                    // reads the delta (e.g. `city -> X.boss.city` after a new
                    // `boss` fact).
                    if reads_facts(rt) {
                        if let Some(res) = structure.apply_scalar(ma.object, receiver, &args) {
                            out.extend(delta_answers_matching(structure, rt, &bindings, res, dv)?);
                        }
                    }
                }
                FilterValue::SetRef(rt) => {
                    // The required set is a strict use from an earlier
                    // stratum and cannot change mid-stratum; the application
                    // on the left can gain members, re-establishing the
                    // superset condition.
                    let app_is_new = structure
                        .facts()
                        .set_index(ma.object, receiver, &args)
                        .is_some_and(|idx| dv.new_members_of_app(idx).is_some());
                    if !app_is_new {
                        continue;
                    }
                    let members = structure.apply_set(ma.object, receiver, &args);
                    let required = valuate(structure, rt, &bindings)?;
                    let ok = match members {
                        Some(ms) => required.iter().all(|x| ms.contains(x)),
                        None => required.is_empty(),
                    };
                    if ok {
                        out.push(bindings.clone());
                    }
                }
                FilterValue::SetExplicit(elems) => {
                    let empty = BTreeSet::new();
                    let (full_members, new_members) = match structure.facts().set_index(ma.object, receiver, &args) {
                        Some(idx) => (
                            structure.facts().set_fact_at(idx).members,
                            dv.new_members_of_app(idx).unwrap_or(&empty),
                        ),
                        None => (OidRun::empty_ref(), &empty),
                    };
                    // One element witnesses the delta (a new member, or an
                    // element derivation that reads the delta); the others
                    // match the full member set.
                    for k in 0..elems.len() {
                        let mut states = vec![bindings.clone()];
                        for (e_idx, e) in elems.iter().enumerate() {
                            let mut next = Vec::new();
                            for b in &states {
                                if e_idx == k {
                                    next.extend(element_delta_answers(structure, e, b, full_members, new_members, dv)?);
                                } else {
                                    next.extend(element_answers(structure, e, b, full_members)?);
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
                FilterValue::SigScalar(_) | FilterValue::SigSet(_) => {
                    // Signature declarations carry no per-fact stamps; when
                    // any were added, conservatively re-match in full.
                    if dv.sigs_changed {
                        out.extend(filter_answers(structure, receiver, filter, &bindings)?);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Valuations under which `element` denotes a member whose access reads the
/// delta: either the member itself is new, or the element's own derivation
/// reads the delta and denotes an existing member.
fn element_delta_answers(
    structure: &Structure,
    element: &Term,
    seed: &Bindings,
    full_members: &OidRun,
    new_members: &BTreeSet<Oid>,
    dv: &DeltaView,
) -> Result<Vec<Bindings>> {
    if let Term::Var(v) = element {
        if seed.get(v).is_none() {
            return Ok(new_members.iter().filter_map(|&o| seed.bind(v, o)).collect());
        }
    }
    let mut out = Vec::new();
    for a in answers(structure, element, seed)? {
        if new_members.contains(&a.object) {
            out.push(a.bindings);
        }
    }
    if reads_facts(element) {
        for a in delta_answers(structure, element, seed, dv)? {
            if full_members.contains(&a.object) {
                out.push(a.bindings);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Name, Var};
    use crate::term::Filter as TFilter;

    fn oid(s: &Structure, n: &str) -> Oid {
        s.lookup_name(&Name::atom(n)).unwrap()
    }

    /// Base structure, a captured mark, then new facts on top: the delta.
    fn base_and_delta() -> (Structure, EvalMarks) {
        let mut s = Structure::new();
        let (kids, desc, person) = (s.atom("kids"), s.atom("desc"), s.atom("person"));
        let (peter, tim, mary, sally) = (s.atom("peter"), s.atom("tim"), s.atom("mary"), s.atom("sally"));
        s.assert_set_member(kids, peter, &[], tim);
        s.assert_set_member(kids, peter, &[], mary);
        s.assert_set_member(kids, tim, &[], sally);
        s.assert_set_member(desc, peter, &[], tim);
        s.assert_set_member(desc, peter, &[], mary);
        s.add_isa(peter, person);
        let mark = EvalMarks::capture(&s);
        // Delta: one new desc member, one new isa edge, one new scalar fact.
        s.assert_set_member(desc, peter, &[], sally);
        s.add_isa(tim, person);
        let age = s.atom("age");
        let five = s.int(5);
        s.assert_scalar(age, sally, &[], five).unwrap();
        (s, mark)
    }

    #[test]
    fn delta_set_path_enumerates_only_new_members() {
        let (s, mark) = base_and_delta();
        let dv = DeltaView::between(&s, &mark, &EvalMarks::capture(&s));
        assert!(!dv.is_empty());
        // X..desc — full: 3 answers; delta: only the new (peter, sally) pair.
        let t = Term::var("X").set("desc");
        assert_eq!(answers(&s, &t, &Bindings::new()).unwrap().len(), 3);
        let d = delta_answers(&s, &t, &Bindings::new(), &dv).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].object, oid(&s, "sally"));
        assert_eq!(d[0].bindings.get(&Var::new("X")), Some(oid(&s, "peter")));
        // X..kids did not change: no delta answers.
        let t = Term::var("X").set("kids");
        assert!(delta_answers(&s, &t, &Bindings::new(), &dv).unwrap().is_empty());
    }

    #[test]
    fn delta_scalar_path_and_filter() {
        let (s, mark) = base_and_delta();
        let dv = DeltaView::between(&s, &mark, &EvalMarks::capture(&s));
        // X.age — only sally's age is new.
        let d = delta_answers(&s, &Term::var("X").scalar("age"), &Bindings::new(), &dv).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bindings.get(&Var::new("X")), Some(oid(&s, "sally")));
        // X[age -> A] as a molecule filter.
        let t = Term::var("X").filter(TFilter::scalar("age", Term::var("A")));
        let d = delta_answers(&s, &t, &Bindings::new(), &dv).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bindings.get(&Var::new("A")), s.lookup_name(&Name::int(5)));
    }

    #[test]
    fn delta_isa_enumerates_only_new_pairs() {
        let (s, mark) = base_and_delta();
        let dv = DeltaView::between(&s, &mark, &EvalMarks::capture(&s));
        let t = Term::var("X").isa("person");
        assert_eq!(answers(&s, &t, &Bindings::new()).unwrap().len(), 2);
        let d = delta_answers(&s, &t, &Bindings::new(), &dv).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].object, oid(&s, "tim"));
    }

    #[test]
    fn delta_recursive_literal_matches_semi_naive_expectation() {
        // The recursive closure literal X..desc[kids ->> {Y}]: delta answers
        // must be exactly the joins through the *new* desc member.
        let (s, mark) = base_and_delta();
        let dv = DeltaView::between(&s, &mark, &EvalMarks::capture(&s));
        let t = Term::var("X")
            .set("desc")
            .filter(TFilter::set("kids", vec![Term::var("Y")]));
        // Full: desc members {tim, mary, sally}; tim has kid sally — so the
        // (X=peter via tim, Y=sally) join exists in full...
        let full = answers(&s, &t, &Bindings::new()).unwrap();
        assert_eq!(full.len(), 1);
        // ...but the new desc member sally has no kids, so the delta-join is
        // empty: the old (peter, tim) edge may not be re-derived.
        let d = delta_answers(&s, &t, &Bindings::new(), &dv).unwrap();
        assert!(d.is_empty());
        // Now extend the delta with a kid for sally and re-check.
        let mut s2 = s.clone();
        let kids = oid(&s2, "kids");
        let tom = s2.atom("tom");
        s2.assert_set_member(kids, oid(&s2, "sally"), &[], tom);
        let dv2 = DeltaView::between(&s2, &mark, &EvalMarks::capture(&s2));
        // Both the new desc edge and the new kids fact derive the same join;
        // the parts of the union may report it more than once (the engine
        // deduplicates bindings), but it must be the only distinct answer.
        let d2: BTreeSet<(Vec<(String, u32)>, Oid)> = delta_answers(&s2, &t, &Bindings::new(), &dv2)
            .unwrap()
            .into_iter()
            .map(|a| (canon(&a.bindings), a.object))
            .collect();
        assert_eq!(d2.len(), 1);
        // The molecule denotes its receiver — the desc member sally — and
        // binds X to the root and Y to the new grandchild.
        let (bindings, object) = d2.into_iter().next().unwrap();
        assert_eq!(object, oid(&s2, "sally"));
        assert!(bindings.contains(&("X".to_string(), oid(&s2, "peter").0)));
        assert!(bindings.contains(&("Y".to_string(), tom.0)));
    }

    #[test]
    fn empty_delta_yields_no_answers() {
        let (s, _) = base_and_delta();
        let mark = EvalMarks::capture(&s);
        let dv = DeltaView::between(&s, &mark, &mark);
        assert!(dv.is_empty());
        for t in [
            Term::var("X").set("desc"),
            Term::var("X").scalar("age"),
            Term::var("X").isa("person"),
            Term::var("X").filter(TFilter::set("kids", vec![Term::var("Y")])),
        ] {
            assert!(delta_answers(&s, &t, &Bindings::new(), &dv).unwrap().is_empty());
        }
    }

    #[test]
    fn delta_answers_are_a_subset_of_full_answers() {
        let (s, mark) = base_and_delta();
        let dv = DeltaView::between(&s, &mark, &EvalMarks::capture(&s));
        let terms = vec![
            Term::var("X").set("desc"),
            Term::var("X").set("kids"),
            Term::var("X").scalar("age"),
            Term::var("X").isa("person"),
            Term::var("X").filter(TFilter::set("desc", vec![Term::var("Y")])),
            Term::var("X")
                .set("desc")
                .filter(TFilter::set("kids", vec![Term::var("Y")])),
        ];
        for t in terms {
            let full: BTreeSet<(Vec<(String, u32)>, Oid)> = answers(&s, &t, &Bindings::new())
                .unwrap()
                .into_iter()
                .map(|a| (canon(&a.bindings), a.object))
                .collect();
            for a in delta_answers(&s, &t, &Bindings::new(), &dv).unwrap() {
                assert!(
                    full.contains(&(canon(&a.bindings), a.object)),
                    "delta answer not in full answers for {t}"
                );
            }
        }
    }

    fn canon(b: &Bindings) -> Vec<(String, u32)> {
        let mut key: Vec<(String, u32)> = b.iter().map(|(v, o)| (v.0.to_string(), o.0)).collect();
        key.sort();
        key
    }
}
