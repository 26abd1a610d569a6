//! The answers of a query, as the join produced them: one run of slot
//! frames in canonical order under a header of slot variables.
//!
//! [`Engine::query`](super::Engine::query) and
//! [`Engine::query_term`](super::Engine::query_term) hand back the frame run
//! their execution sorted, moved in with no copy.  A row reads its slots in
//! place: [`AnswerRow::get`] and [`AnswerRow::object`] cost one word each,
//! [`AnswerRow::key`] one `Arc<str>` clone per bound variable, and only
//! [`AnswerRow::bindings`] builds a [`Bindings`] — a caller that counts
//! answers, or reads a column, allocates nothing per answer.
//!
//! **Stored runs.**  A set-valued path such as `X..desc` denotes, per
//! receiver, a set the store already holds as one sorted [`OidRun`].  When a
//! reference's last step expands such runs — a member step into the object
//! the reference denotes, its method, receiver and arguments slots or
//! names, in a literal whose other steps read no temporary (`X..m`,
//! `X..m@(Y)`, `peter..m`, `X : c..m`; see
//! [`execute_term`](crate::plan::execute_term)) — its answers keep one
//! frame per application, the *prefix* of the rows it denotes, and beside
//! it the application's stored run: an `Arc` clone, not a copy of the
//! members.  Each prefix is one application and each run is sorted, so
//! reading the runs prefix by prefix, in the prefixes' canonical order, is
//! reading the rows in `(key, object)` order.  [`Answers::len`] sums the
//! runs and [`Answers::iter`] expands them as it goes.  Which form a
//! reference gets depends on its shape alone; every other reference, and
//! every [`Engine::query`](super::Engine::query), holds one frame per row.
//! A run is copy-on-write: a structure written to while its answers are
//! held copies the run it changes, and the answers read the run as it was
//! when the query ran.

use crate::names::Var;
use crate::plan::{slot_bindings, CompiledRule, FrameRun};
use crate::semantics::Bindings;
use crate::structure::{Oid, OidRun};

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
    /// The rows: the slots, then — for a reference — the denoted object, or
    /// the prefixes of the rows, each followed by the index of its run in
    /// `members`.
    run: FrameRun,
    /// The non-empty stored runs the prefixes of `run` denote, when the
    /// reference's answers keep them (see the module docs).
    members: Option<Vec<OidRun>>,
}

impl Answers {
    /// The answers `run` holds — with `members`, the runs its prefixes
    /// index — solutions of the body `compiled` was compiled from.
    pub(crate) fn new(compiled: CompiledRule, run: FrameRun, members: Option<Vec<OidRun>>) -> Self {
        let (vars, canonical) = compiled.into_header();
        Answers {
            vars,
            canonical,
            run,
            members,
        }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        match &self.members {
            Some(runs) => runs.iter().map(|run| run.len()).sum(),
            None => self.run.len(),
        }
    }

    /// Are there none?  (No kept run is empty.)
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
        let slots = self.vars.len();
        self.run.frames().flat_map(move |frame| {
            let run = self.members.as_ref().map(|runs| runs[frame[slots] as usize].as_slice());
            let framed = run.is_none().then(|| frame.get(slots).copied().and_then(word_oid));
            let kept = run.unwrap_or_default().iter().map(|&o| Some(o));
            let row = move |object| AnswerRow {
                answers: self,
                frame,
                object,
            };
            framed.into_iter().chain(kept).map(row)
        })
    }
}

/// One answer, borrowed from its [`Answers`].
#[derive(Clone, Copy)]
pub struct AnswerRow<'a> {
    answers: &'a Answers,
    /// The frame, or the prefix, the row reads its slots from.
    frame: &'a [u32],
    object: Option<Oid>,
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
        self.object
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
    use crate::program::{Literal, Query, Rule};
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
        let (run, members) = execute_term(&s, &compiled).unwrap();
        assert!(members.is_none(), "the molecule's check reads the path's temporary");
        let answers = engine.query_term(&s, &term).unwrap();
        assert_eq!(answers.len(), run.len());
        assert!(!answers.is_empty());
        let slots = compiled.slot_count();
        for (row, frame) in answers.iter().zip(run.frames()) {
            assert_eq!(row.bindings(), compiled.bindings_of(&frame[..slots]));
            assert_eq!(row.object(), Some(Oid(frame[slots] - 1)));
        }
    }

    /// The `desc` closure of a complete binary `kids` tree of `depth` levels.
    fn closed_tree(depth: u32) -> Structure {
        let mut s = Structure::new();
        let kids = s.atom("kids");
        let nodes: Vec<Oid> = (0..(1 << depth) - 1).map(|i| s.atom(&format!("n{i}"))).collect();
        for i in 1..nodes.len() {
            s.assert_set_member(kids, nodes[(i - 1) / 2], &[], nodes[i]);
        }
        let member = |m: &str| Term::var("X").filter(Filter::set(m, vec![Term::var("Y")]));
        let closure = [
            Rule::new(member("desc"), vec![Literal::pos(member("kids"))]),
            Rule::new(
                member("desc"),
                vec![Literal::pos(
                    Term::var("X")
                        .set("desc")
                        .filter(Filter::set("kids", vec![Term::var("Y")])),
                )],
            ),
        ];
        Engine::new().run_rules(&mut s, &closure).unwrap();
        s
    }

    /// `X..desc` keeps one prefix and the stored run per `desc`
    /// application, not one frame per answer: the kept part grows with the
    /// receivers while the answers grow with the receivers times their
    /// depth below.  The rows it expands are those of a copy, in order.
    #[test]
    fn x_desc_over_a_closed_genealogy_keeps_one_segment_per_desc_application() {
        let mut segments_per_answer = Vec::new();
        for depth in [4, 6, 8] {
            let s = closed_tree(depth);
            let desc = s.lookup_name(&crate::names::Name::atom("desc")).unwrap();
            let answers = Engine::new().query_term(&s, &Term::var("X").set("desc")).unwrap();
            let runs = answers.members.as_ref().expect("the last step keeps its runs");
            assert_eq!(runs.len(), s.facts().set_facts_of_method(desc).count());
            assert_eq!(answers.run.len(), runs.len(), "one prefix per application");
            for frame in answers.run.frames() {
                let stored = s.apply_set(desc, Oid(frame[0] - 1), &[]).unwrap();
                let kept = &runs[frame[1] as usize];
                assert_eq!(
                    kept.as_slice().as_ptr(),
                    stored.as_slice().as_ptr(),
                    "shared, not copied"
                );
            }
            let rows: Vec<(BindingKey, Oid)> = answers.iter().map(|row| (row.key(), row.object().unwrap())).collect();
            assert!(rows.is_sorted());
            let copied: usize = s.facts().set_facts_of_method(desc).map(|f| f.members.len()).sum();
            assert_eq!((answers.len(), rows.len()), (copied, copied));
            assert!(runs.len() < answers.len(), "depth {depth}");
            segments_per_answer.push(runs.len() as f64 / answers.len() as f64);
        }
        assert!(
            segments_per_answer.is_sorted_by(|a, b| a > b),
            "{segments_per_answer:?}"
        );
    }

    /// A literal whose other steps read slots only runs the member step last
    /// and keeps its runs, in whatever order the plan put it; a path into a
    /// path, or a check on the denoted object, keeps one frame per row.
    #[test]
    fn which_references_keep_their_runs_is_a_matter_of_shape() {
        let s = diamond();
        let engine = Engine::new();
        let kept = |term: &Term| engine.query_term(&s, term).unwrap().members.is_some();
        let person_kids = Term::var("X").isa("person").set("kids");
        assert!(kept(&person_kids) && kept(&Term::name("n0").set("kids")));
        assert!(!kept(&Term::var("X").set("kids").set("kids")));
        assert!(!kept(&Term::var("X").set("kids").isa("person")));
        let answers = engine.query_term(&s, &person_kids).unwrap();
        let rows: Vec<(BindingKey, Oid)> = answers.iter().map(|row| (row.key(), row.object().unwrap())).collect();
        let mut reference: Vec<(BindingKey, Oid)> = crate::semantics::answers(&s, &person_kids, &Default::default())
            .unwrap()
            .into_iter()
            .map(|a| (binding_key(&a.bindings), a.object))
            .collect();
        reference.sort();
        assert_eq!(rows, reference);
        assert_eq!(answers.len(), 3, "n0 has n1 and n4, n1 has n2, n3 none");
    }
}
