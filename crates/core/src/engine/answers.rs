//! The answers of a query, as the join produced them: one flat run of slot
//! frames in canonical order under a header of slot variables.
//!
//! [`Engine::query`](super::Engine::query) and
//! [`Engine::query_term`](super::Engine::query_term) hand back the frame run
//! their execution sorted, moved in with no copy.  A row reads its slots in
//! place: [`AnswerRow::get`] and [`AnswerRow::object`] cost one word each,
//! [`AnswerRow::key`] one `Arc<str>` clone per bound variable, and only
//! [`AnswerRow::bindings`] builds a [`Bindings`] — a caller that counts
//! answers, or reads a column, allocates nothing per answer.

use crate::names::Var;
use crate::plan::{slot_bindings, CompiledRule, FrameRun};
use crate::semantics::Bindings;
use crate::structure::Oid;

use super::BindingKey;

/// The answers of one query or reference, in canonical order: ascending
/// [`BindingKey`] for [`Engine::query`](super::Engine::query), each once;
/// `(key, object)` for [`Engine::query_term`](super::Engine::query_term),
/// duplicates kept.
#[derive(Debug)]
pub struct Answers {
    /// Slot `i` of a row holds the binding of `vars[i]`.
    vars: Vec<Var>,
    /// Slot indices in variable-name order: a row's key reads its bound
    /// slots in this order.
    canonical: Vec<usize>,
    /// The rows: the slots, then — for a reference — the denoted object.
    run: FrameRun,
}

impl Answers {
    /// The answers `run` holds, solutions of the body `compiled` was compiled
    /// from.
    pub(crate) fn new(compiled: CompiledRule, run: FrameRun) -> Self {
        let (vars, canonical) = compiled.into_header();
        Answers { vars, canonical, run }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Are there none?
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The query's variables, slot by slot, in the order they first occur
    /// in the body.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The rows, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = AnswerRow<'_>> + '_ {
        self.run.frames().map(move |frame| AnswerRow { answers: self, frame })
    }
}

/// One answer, borrowed from its [`Answers`].
#[derive(Clone, Copy)]
pub struct AnswerRow<'a> {
    answers: &'a Answers,
    frame: &'a [u32],
}

impl AnswerRow<'_> {
    /// The object `var` is bound to; `None` when the query has no such
    /// variable or this answer leaves it unbound.
    pub fn get(&self, var: &Var) -> Option<Oid> {
        let slot = self.answers.vars.iter().position(|v| v == var)?;
        word_oid(self.frame[slot])
    }

    /// The object the reference denotes along this answer's derivation path
    /// (a [`Engine::query_term`](super::Engine::query_term) row); `None` for
    /// a row of [`Engine::query`](super::Engine::query).
    pub fn object(&self) -> Option<Oid> {
        self.frame.get(self.answers.vars.len()).copied().and_then(word_oid)
    }

    /// The canonical key of this answer's valuation — what
    /// [`binding_key`](super::binding_key) of [`AnswerRow::bindings`] is.
    pub fn key(&self) -> BindingKey {
        let Answers { vars, canonical, .. } = self.answers;
        let bound = canonical.iter().filter(|&&s| self.frame[s] != 0);
        bound.map(|&s| (vars[s].0.clone(), self.frame[s] - 1)).collect()
    }

    /// This answer's valuation, built: its bound variables, bound in slot
    /// order, so [`Bindings::iter`] yields the last slot first.
    pub fn bindings(&self) -> Bindings {
        slot_bindings(&self.answers.vars, self.frame)
    }
}

/// The object a frame word holds (object id + 1), `None` for `0`, unbound.
fn word_oid(word: u32) -> Option<Oid> {
    word.checked_sub(1).map(Oid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{binding_key, Engine};
    use crate::plan::{compile_query, execute_query, execute_term};
    use crate::program::{Literal, Query};
    use crate::structure::Structure;
    use crate::term::{Filter, Term};

    /// n0 reaches n2 through n1 and through n4 (a diamond), n2 reaches n3;
    /// n0, n1 and n3 are persons, n0 is 30 and n1 is 5.
    fn diamond() -> Structure {
        let mut s = Structure::new();
        let (kids, age, person) = (s.atom("kids"), s.atom("age"), s.atom("person"));
        let n: Vec<Oid> = (0..5).map(|i| s.atom(&format!("n{i}"))).collect();
        for (a, b) in [(0, 1), (1, 2), (0, 4), (4, 2), (2, 3)] {
            s.assert_set_member(kids, n[a], &[], n[b]);
        }
        for i in [0, 1, 3] {
            s.add_isa(n[i], person);
        }
        let (thirty, five) = (s.int(30), s.int(5));
        s.assert_scalar(age, n[0], &[], thirty).unwrap();
        s.assert_scalar(age, n[1], &[], five).unwrap();
        s
    }

    fn kids(receiver: Term, member: Term) -> Term {
        receiver.filter(Filter::set("kids", vec![member]))
    }

    #[test]
    fn query_rows_come_in_ascending_key_order_each_once() {
        let s = diamond();
        // Written with the member first, so the plan and the key disagree on
        // which variable leads.
        let body = vec![
            Literal::pos(kids(Term::var("Y"), Term::var("Z"))),
            Literal::pos(kids(Term::var("X"), Term::var("Y"))),
        ];
        let answers = Engine::new().query(&s, &Query::new(body)).unwrap();
        let keys: Vec<BindingKey> = answers.iter().map(|row| row.key()).collect();
        assert_eq!(keys.len(), 4, "n0-n1-n2, n0-n4-n2, n1-n2-n3, n4-n2-n3");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert!(answers.iter().all(|row| row.object().is_none()));
    }

    #[test]
    fn reference_rows_come_in_key_then_object_order_with_duplicates() {
        let s = diamond();
        let term = Term::var("X").set("kids").set("kids");
        let answers = Engine::new().query_term(&s, &term).unwrap();
        let rows: Vec<(BindingKey, Oid)> = answers.iter().map(|row| (row.key(), row.object().unwrap())).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]), "{rows:?}");
        let n2 = s.lookup_name(&crate::names::Name::atom("n2")).unwrap();
        let n0 = s.lookup_name(&crate::names::Name::atom("n0")).unwrap();
        let twice = rows.iter().filter(|(key, o)| *o == n2 && key[0].1 == n0.0).count();
        assert_eq!(twice, 2, "n0..kids..kids denotes n2 once per path: {rows:?}");
    }

    #[test]
    fn a_ground_query_has_no_slots_and_one_row_or_none() {
        let s = diamond();
        let ground = |member: &str| Query::single(kids(Term::name("n0"), Term::name(member)));
        let holds = Engine::new().query(&s, &ground("n1")).unwrap();
        assert!(holds.vars().is_empty());
        assert_eq!(holds.len(), 1);
        let row = holds.iter().next().unwrap();
        assert!(row.key().is_empty() && row.bindings().is_empty());
        let fails = Engine::new().query(&s, &ground("n3")).unwrap();
        assert!(fails.vars().is_empty());
        assert_eq!((fails.len(), fails.is_empty()), (0, true));
        assert_eq!(fails.iter().count(), 0);
    }

    #[test]
    fn an_unbound_slot_reads_none() {
        let s = diamond();
        // Y occurs under negation only: its slot is never bound.
        let body = vec![
            Literal::pos(Term::var("X").isa("person")),
            Literal::neg(kids(Term::var("X"), Term::var("Y"))),
        ];
        let answers = Engine::new().query(&s, &Query::new(body)).unwrap();
        assert_eq!(answers.vars(), [Var::new("X"), Var::new("Y")]);
        assert_eq!(answers.len(), 1, "n3 has no kids");
        let row = answers.iter().next().unwrap();
        assert_eq!(row.get(&Var::new("Y")), None);
        assert_eq!(row.get(&Var::new("W")), None, "not a variable of the query");
        assert!(row.get(&Var::new("X")).is_some());
        assert_eq!(row.bindings().len(), 1);
    }

    #[test]
    fn row_bindings_are_what_the_compiled_body_builds_of_a_frame() {
        let s = diamond();
        let engine = Engine::new();
        let body = vec![
            Literal::pos(kids(Term::var("X"), Term::var("Y"))),
            Literal::pos(Term::var("Y").filter(Filter::scalar("age", Term::var("A")))),
        ];
        let compiled = compile_query(body.iter().map(|l| (l.positive, &l.term)));
        let run = execute_query(&s, &compiled).unwrap();
        let answers = engine.query(&s, &Query::new(body.clone())).unwrap();
        assert_eq!(answers.len(), run.len());
        assert!(!answers.is_empty());
        for (row, frame) in answers.iter().zip(run.frames()) {
            assert_eq!(row.bindings(), compiled.bindings_of(frame));
            assert_eq!(row.key(), binding_key(&row.bindings()));
        }

        let term = Term::var("X").set("kids").filter(Filter::scalar("age", Term::var("A")));
        let compiled = compile_query([(true, &term)]);
        let run = execute_term(&s, &compiled).unwrap();
        let answers = engine.query_term(&s, &term).unwrap();
        assert_eq!(answers.len(), run.len());
        assert!(!answers.is_empty());
        let slots = compiled.slot_count();
        for (row, frame) in answers.iter().zip(run.frames()) {
            assert_eq!(row.bindings(), compiled.bindings_of(&frame[..slots]));
            assert_eq!(row.object(), Some(Oid(frame[slots] - 1)));
        }
    }
}
