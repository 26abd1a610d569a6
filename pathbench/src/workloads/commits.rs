//! `commit_check` and `serve_mixed`: one commit cycle, without and with a
//! reader.
//!
//! The store is a generated company guarded by three denial constraints.
//! One op is a transaction: begin, stage one change, commit.  A 20-step
//! cycle stages 12 friend-edge adds, 3 self-friendships the guard must
//! reject, 2 transactions that each remove the 6 oldest edges, and 3 salary
//! changes, one of them below the wage floor (committed, but quarantined).
//! A cycle removes as many edges as it adds, on top of two friends per
//! employee written in set-up, and every round starts on a fresh clone of
//! the store as set-up left it: the guard re-solves a touched constraint
//! over the whole relation and over what retractions leave behind, so a
//! store that aged from round to round would make every later op dearer
//! than the one before.  By cost a rejection is cheapest (15 % of the
//! ops), adds and removes follow (70 %), a salary change is dearest (15 %,
//! a fresh integer is a new object and forces the full re-check): the
//! median op is an add or a remove, the 90th percentile a salary change,
//! each well inside its class.
//!
//! `commit_check` never opens a session, so nothing is ever published.  In
//! `serve_mixed` the writer opens a session after every commit attempt and
//! hands it to one reader thread over a channel of capacity 2; the reader
//! runs 20 reads against the pinned epoch (13 point reads of the objects
//! just written, 4 filtered scans, 3 tolerant queries) while the writer
//! commits the next one.  The reads are sized so that the writer stays the
//! slower side: `ops_per_s` and the latencies are the writer's, the reader's
//! work shows in `cpu_ms_per_op`, and every read is checked against a
//! replay model of the epoch it is pinned to.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

use pathlog_core::constraints::{Constraint, ConstraintPolicy, ConstraintSet};
use pathlog_core::engine::Engine;
use pathlog_core::names::{Name, Var};
use pathlog_core::program::{Literal, Query};
use pathlog_core::term::{Filter, Term};
use pathlog_datagen::company::CITIES;
use pathlog_oodb::{CommitError, ObjectStore, Session, Value};
use pathlog_parser::parse_query;

use crate::company::{generate, Company};
use crate::harness::{Counters, TraceView, Workload};
use crate::rng::Rng;
use crate::trace::Recorder;

const WAGE_FLOOR: i64 = 40_000;
const DEPARTMENTS: usize = 10;
/// Friends every employee has before the first op.
const BASE_FRIENDS: usize = 2;
/// Edges one `Remove` transaction takes: 2 of them undo a cycle's 12 adds.
const REMOVED_PER_TXN: usize = 6;

const ADD: u8 = 0;
const REJECT: u8 = 1;
const REMOVE: u8 = 2;
const SET: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Add,
    Reject,
    Remove,
    SetOk,
    SetLow,
}

const CYCLE: [Step; 20] = {
    use Step::*;
    [
        Add, Add, SetOk, Add, Add, Reject, Add, Remove, Add, Add, SetLow, Add, Reject, Add, Add, Remove, Add, SetOk,
        Add, Reject,
    ]
};

/// One planned transaction; employees are numbered as in their names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    Add(usize, usize),
    Reject(usize),
    Remove([(usize, usize); REMOVED_PER_TXN]),
    Set { who: usize, salary: i64, low: bool },
}

impl Planned {
    fn class(&self) -> u8 {
        match self {
            Planned::Add(..) => ADD,
            Planned::Reject(_) => REJECT,
            Planned::Remove(..) => REMOVE,
            Planned::Set { .. } => SET,
        }
    }
}

/// The replay model: what the store must hold after the commits so far.
#[derive(Debug, Clone)]
pub struct Model {
    employees: usize,
    rng: Rng,
    friends: HashMap<usize, BTreeSet<usize>>,
    salary: HashMap<usize, i64>,
    /// Live edges, oldest first: what `Remove` takes.
    edges: VecDeque<(usize, usize)>,
    sets: i64,
    step: usize,
    /// Employees written since the last comparison with the store.
    dirty: BTreeSet<usize>,
}

impl Model {
    /// The model of a store in which every employee already has
    /// [`BASE_FRIENDS`] friends, drawn from the seed.
    pub fn new(employees: usize, seed: u64) -> Self {
        let mut model = Model {
            employees,
            rng: Rng::new(seed, 3),
            friends: HashMap::new(),
            salary: HashMap::new(),
            edges: VecDeque::new(),
            sets: 0,
            step: 0,
            dirty: BTreeSet::new(),
        };
        for _ in 0..BASE_FRIENDS * employees {
            let (a, b) = model.fresh_edge();
            model.apply(Planned::Add(a, b));
        }
        model.dirty.clear();
        model
    }

    /// Two distinct employees who are not friends yet.
    fn fresh_edge(&mut self) -> (usize, usize) {
        loop {
            let (a, b) = (self.rng.below(self.employees), self.rng.below(self.employees));
            if a != b && !self.friends.get(&a).is_some_and(|f| f.contains(&b)) {
                return (a, b);
            }
        }
    }

    /// The next transaction of the schedule.
    pub fn plan(&mut self) -> Planned {
        let step = CYCLE[self.step % CYCLE.len()];
        self.step += 1;
        match step {
            Step::Add => {
                let (a, b) = self.fresh_edge();
                Planned::Add(a, b)
            }
            Step::Reject => Planned::Reject(self.rng.below(self.employees)),
            Step::Remove => Planned::Remove(std::array::from_fn(|i| self.edges[i])),
            Step::SetOk | Step::SetLow => {
                self.sets += 1;
                let low = step == Step::SetLow;
                // Mostly fresh integers, as a payroll would write: each one
                // is a new object of the universe.
                let salary = if low {
                    20_000 + self.sets % 10_000
                } else {
                    50_000 + self.sets % 50_000
                };
                Planned::Set {
                    who: self.rng.below(self.employees),
                    salary,
                    low,
                }
            }
        }
    }

    /// Apply a transaction that committed.  A rejected one changes nothing.
    pub fn apply(&mut self, planned: Planned) {
        match planned {
            Planned::Add(a, b) => {
                self.friends.entry(a).or_default().insert(b);
                self.edges.push_back((a, b));
                self.dirty.insert(a);
            }
            Planned::Remove(edges) => {
                for (a, b) in edges {
                    self.friends.entry(a).or_default().remove(&b);
                    self.edges.pop_front();
                    self.dirty.insert(a);
                }
            }
            Planned::Set { who, salary, .. } => {
                self.salary.insert(who, salary);
                self.dirty.insert(who);
            }
            Planned::Reject(_) => {}
        }
    }

    fn friend_count(&self, who: usize) -> usize {
        self.friends.get(&who).map_or(0, BTreeSet::len)
    }
}

fn constraints() -> ConstraintSet {
    let salary_of_x = Term::var("X")
        .isa("employee")
        .filter(Filter::scalar("salary", Term::var("S")));
    [
        Constraint::new(
            "self_boss",
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("boss", Term::var("X"))),
            )],
            ConstraintPolicy::Reject,
        ),
        Constraint::new(
            "self_friend",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        ),
        Constraint::new(
            "underpaid",
            vec![
                Literal::pos(salary_of_x),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(WAGE_FLOOR)])),
            ],
            ConstraintPolicy::Quarantine,
        ),
    ]
    .into_iter()
    .map(|c| c.expect("the constraints are range-restricted"))
    .collect()
}

/// Every (department, city) pair: what the filtered scans ask about.
fn department_cities() -> impl Iterator<Item = (usize, &'static str)> {
    (0..DEPARTMENTS).flat_map(|d| CITIES.iter().map(move |c| (d, *c)))
}

/// One read of a session, with what the model says it must return.
#[derive(Debug, Clone, Copy)]
enum Read {
    Friends { who: usize, count: usize },
    Salary { who: usize, value: i64 },
    Scan { query: usize, count: usize },
    Tolerant { query: usize, count: usize },
}

/// The pre-parsed queries the reader runs, shared with its thread.
struct ReadSet {
    friends: Vec<Query>,
    salary: Vec<Query>,
    /// `?- X : employee[worksFor -> d; city -> c].`, department-major.
    scans: Vec<Query>,
    /// `?- X : manager[worksFor -> d; salary -> S].`, one per department.
    tolerant: Vec<Query>,
}

fn run_read(session: &Session, reads: &ReadSet, read: Read, rec: &mut Recorder) {
    rec.attempt();
    let count =
        |rec: &mut Recorder, span: &'static str, q: &Query, want: usize| match rec.span(span, || session.query(q)) {
            Ok(answers) => rec.check(span, answers.len(), want),
            Err(e) => rec.fail(|| format!("{span}: {e}")),
        };
    match read {
        Read::Friends { who, count: want } => count(rec, "semantics.point", &reads.friends[who], want),
        Read::Scan { query, count: want } => count(rec, "semantics.filter_scan", &reads.scans[query], want),
        Read::Salary { who, value } => match rec.span("semantics.point", || session.query(&reads.salary[who])) {
            Ok(answers) => {
                let got: Vec<Option<&Name>> = answers
                    .iter()
                    .map(|b| b.get(&Var::new("S")).and_then(|oid| session.structure().name_of(oid)))
                    .collect();
                rec.check("salary at the pinned epoch", got, vec![Some(&Name::Int(value))]);
            }
            Err(e) => rec.fail(|| format!("salary read: {e}")),
        },
        Read::Tolerant { query, count } => {
            match rec.span("semantics.tolerant", || session.tolerant_query(&reads.tolerant[query])) {
                Ok(answers) => rec.check("semantics.tolerant", answers.answers.len(), count),
                Err(e) => rec.fail(|| format!("tolerant read: {e}")),
            }
        }
    }
}

pub struct Commits<const SERVE: bool> {
    /// The guarded store and its model as set-up left them.
    pristine: (ObjectStore, Model),
    /// This round's copy.
    db: ObjectStore,
    names: Vec<String>,
    model: Model,
    base_salary: Vec<i64>,
    /// What the reader runs; `None` without one.
    reads: Option<Arc<ReadSet>>,
    /// Answers a scan of the store expects of each scan and tolerant query.
    scan_counts: Vec<usize>,
    tolerant_counts: Vec<usize>,
    /// Employees written most recently, newest first: what point reads ask about.
    recent: VecDeque<usize>,
    sessions: usize,
    install_ms: f64,
    /// Outcomes of this round's transactions.
    committed: u64,
    rejected: u64,
    quarantined: u64,
    pinned_after: usize,
    max_epoch_lag: u64,
}

pub type CommitCheck = Commits<false>;
pub type ServeMixed = Commits<true>;

impl<const SERVE: bool> Commits<SERVE> {
    /// Stage and commit one planned transaction, then hold the outcome
    /// against the plan.
    fn transact(&mut self, planned: Planned, rec: &mut Recorder) {
        let name = |i: usize| self.names[i].as_str();
        let op = rec.begin_op(planned.class());
        let stage = rec.begin("oodb.stage");
        let mut txn = self.db.begin();
        let staged = match planned {
            Planned::Add(a, b) => txn.add(name(a), "friends", Value::obj(name(b))),
            Planned::Reject(a) => txn.add(name(a), "friends", Value::obj(name(a))),
            Planned::Remove(edges) => edges
                .iter()
                .try_for_each(|&(a, b)| txn.remove(name(a), "friends", &Value::obj(name(b))).map(|_| ())),
            Planned::Set { who, salary, .. } => txn.set(name(who), "salary", Value::Int(salary)),
        };
        rec.end(stage);
        let outcome = rec.span("oodb.commit", || txn.commit());
        rec.end_op(op);

        if let Err(e) = staged {
            rec.fail(|| format!("staging {planned:?}: {e}"));
            return;
        }
        let low = matches!(planned, Planned::Set { low: true, .. });
        match (planned, outcome) {
            (Planned::Reject(_), Err(CommitError::Rejected { violations, .. })) => {
                let by: Vec<&str> = violations.iter().map(|v| &*v.constraint).collect();
                rec.check("rejecting constraint", by, vec!["self_friend"]);
                self.rejected += 1;
            }
            (Planned::Reject(_), other) => rec.fail(|| format!("a self-friendship must be rejected, got {other:?}")),
            (_, Ok(receipt)) => {
                rec.check("the guard checked the commit", receipt.checked, true);
                rec.check("quarantined by the commit", receipt.quarantined.len(), usize::from(low));
                rec.check("an epoch was published", receipt.epoch.is_some(), SERVE);
                self.quarantined += receipt.quarantined.len() as u64;
                self.committed += 1;
                self.model.apply(planned);
            }
            (_, Err(e)) => rec.fail(|| format!("{planned:?} must commit, got {e}")),
        }
        match planned {
            Planned::Add(a, b) => {
                self.recent.push_front(b);
                self.recent.push_front(a);
            }
            Planned::Remove(edges) => edges.iter().for_each(|&(a, _)| self.recent.push_front(a)),
            Planned::Reject(a) | Planned::Set { who: a, .. } => self.recent.push_front(a),
        }
        self.recent.truncate(16);
    }

    /// What the model says about employee `who`, as the `k`-th point read.
    fn point_read(&self, who: usize, k: usize) -> Read {
        if k.is_multiple_of(2) {
            Read::Friends {
                who,
                count: self.model.friend_count(who),
            }
        } else {
            Read::Salary {
                who,
                value: self.model.salary.get(&who).copied().unwrap_or(self.base_salary[who]),
            }
        }
    }

    /// The 20 reads of the next session: 13 point, 4 filtered, 3 tolerant.
    fn session_reads(&mut self) -> Vec<Read> {
        let mut out = Vec::with_capacity(20);
        for k in 0..13 {
            let who = self.recent[k % self.recent.len()];
            out.push(self.point_read(who, k));
        }
        for k in 0..4 {
            let query = (self.sessions * 4 + k) % self.scan_counts.len();
            out.push(Read::Scan {
                query,
                count: self.scan_counts[query],
            });
        }
        for k in 0..3 {
            let query = (self.sessions * 3 + k) % self.tolerant_counts.len();
            out.push(Read::Tolerant {
                query,
                count: self.tolerant_counts[query],
            });
        }
        self.sessions += 1;
        out
    }

    /// Compare what was written since the last call with the store itself.
    fn compare_with_store(&mut self, rec: &mut Recorder) {
        for who in std::mem::take(&mut self.model.dirty) {
            rec.attempt();
            let stored: BTreeSet<&str> = self
                .db
                .get_set(&self.names[who], "friends")
                .into_iter()
                .flatten()
                .filter_map(crate::company::sym)
                .collect();
            let modelled: BTreeSet<&str> = self
                .model
                .friends
                .get(&who)
                .into_iter()
                .flatten()
                .map(|&f| self.names[f].as_str())
                .collect();
            rec.check("friends in the store", stored, modelled);
            if let Some(&salary) = self.model.salary.get(&who) {
                rec.check(
                    "salary in the store",
                    self.db.get(&self.names[who], "salary"),
                    Some(&Value::Int(salary)),
                );
            }
        }
    }
}

impl<const SERVE: bool> Workload for Commits<SERVE> {
    const NAME: &'static str = if SERVE { "serve_mixed" } else { "commit_check" };
    const COUNT_CYCLES: usize = 5;
    const THREADS: usize = if SERVE { 2 } else { 1 };

    fn setup(seed: u64, quick: bool) -> Self {
        let employees = if quick { 200 } else { 2_000 };
        let mut db = generate(employees, seed);
        // One salary sits on the floor, so that the constraint's threshold
        // is an object of the structure the guard checks.
        db.set("e0", "salary", Value::Int(WAGE_FLOOR)).expect("e0 exists");
        let names: Vec<String> = (0..employees).map(|i| format!("e{i}")).collect();
        let model = Model::new(employees, seed);
        for &(a, b) in &model.edges {
            db.add(&names[a], "friends", Value::obj(&names[b]))
                .expect("employees can be friends");
        }
        let start = std::time::Instant::now();
        db.set_constraints(constraints(), Engine::new())
            .expect("the constraints install");
        let install_ms = start.elapsed().as_secs_f64() * 1e3;
        let reads = SERVE.then(|| {
            let parse = |text: String| parse_query(&text).expect("the benchmark's own query text parses");
            Arc::new(ReadSet {
                friends: names
                    .iter()
                    .map(|e| parse(format!("?- {e}[friends ->> {{F}}].")))
                    .collect(),
                salary: names.iter().map(|e| parse(format!("?- {e}[salary -> S]."))).collect(),
                scans: department_cities()
                    .map(|(d, c)| parse(format!("?- X : employee[worksFor -> dept{d}; city -> {c}].")))
                    .collect(),
                tolerant: (0..DEPARTMENTS)
                    .map(|d| parse(format!("?- X : manager[worksFor -> dept{d}; salary -> S].")))
                    .collect(),
            })
        });
        Commits {
            pristine: (db.clone(), model.clone()),
            db,
            names,
            model,
            base_salary: Vec::new(),
            reads,
            scan_counts: Vec::new(),
            tolerant_counts: Vec::new(),
            recent: VecDeque::from([0]),
            sessions: 0,
            install_ms,
            committed: 0,
            rejected: 0,
            quarantined: 0,
            pinned_after: 0,
            max_epoch_lag: 0,
        }
    }

    fn prepare_oracle(&mut self) {
        let company = Company::scan(&self.db);
        self.base_salary = self
            .names
            .iter()
            .map(|e| {
                company
                    .get(e)
                    .and_then(|o| o.int("salary"))
                    .expect("every employee has a salary")
            })
            .collect();
        let in_dept = |class: &str, d: usize, city: Option<&str>| {
            let dept = format!("dept{d}");
            company
                .members(class)
                .filter(|e| e.sym("worksFor") == Some(&dept))
                .filter(|e| city.is_none_or(|c| e.sym("city") == Some(c)))
                .count()
        };
        self.scan_counts = department_cities()
            .map(|(d, c)| in_dept("employee", d, Some(c)))
            .collect();
        self.tolerant_counts = (0..DEPARTMENTS).map(|d| in_dept("manager", d, None)).collect();
    }

    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder) {
        // A fresh copy of the store; the schedule's generator runs on.
        self.db = self.pristine.0.clone();
        let rng = std::mem::replace(&mut self.model, self.pristine.1.clone()).rng;
        self.model.rng = rng;
        (self.committed, self.rejected, self.quarantined) = (0, 0, 0);
        if SERVE {
            // Serving starts here: the first session publishes the first epoch.
            drop(self.db.begin_session());
        }

        let ops = cycles * CYCLE.len();
        if !SERVE {
            for _ in 0..ops {
                let planned = self.model.plan();
                self.transact(planned, rec);
            }
        } else {
            let reads = Arc::clone(self.reads.as_ref().expect("a serving workload parsed its reads"));
            let mut reader_rec = rec.sibling();
            let done = AtomicU64::new(0);
            let reader_rec = std::thread::scope(|scope| {
                let (feed, sessions) = sync_channel::<(Session, Vec<Read>, u32)>(2);
                let done = &done;
                let reader = scope.spawn(move || {
                    for (session, session_reads, op) in sessions {
                        reader_rec.set_op(op);
                        for read in session_reads {
                            run_read(&session, &reads, read, &mut reader_rec);
                        }
                        drop(session);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    reader_rec
                });
                for sent in 0..ops as u64 {
                    let planned = self.model.plan();
                    let op = rec.ops.len() as u32;
                    self.transact(planned, rec);
                    let session = rec.span("oodb.session_begin", || self.db.begin_session());
                    let session_reads = self.session_reads();
                    self.max_epoch_lag = self.max_epoch_lag.max(sent - done.load(Ordering::Relaxed));
                    feed.send((session, session_reads, op))
                        .expect("the reader runs until the feed closes");
                }
                drop(feed);
                reader.join().expect("the reader thread does not panic")
            });
            rec.absorb(reader_rec);
            self.pinned_after = self.pinned_after.max(self.db.pinned_epochs());
        }
        self.compare_with_store(rec);

        rec.attempt();
        let checks = self.db.constraint_guard().expect("guard installed").stats();
        // One check at install, one per commit attempt.
        rec.check(
            "constraint checks",
            checks.checks as u64,
            1 + self.committed + self.rejected,
        );
        let published = if SERVE { self.committed + 1 } else { 0 };
        rec.check(
            "epochs published",
            self.db.serving_stats().epochs_published as u64,
            published,
        );
        rec.check("epochs still pinned", self.db.pinned_epochs(), 0);
    }

    fn counters(&self) -> Counters {
        let checks = self.db.constraint_guard().expect("guard installed").stats();
        let serving = self.db.serving_stats();
        Counters::from([
            ("constraints.checks", checks.checks as f64),
            ("constraints.full_checks", checks.full_checks as f64),
            ("constraints.condition_solves", checks.condition_solves as f64),
            ("constraints.constraints_skipped", checks.constraints_skipped as f64),
            ("constraints.retraction_skips", checks.retraction_skips as f64),
            ("oodb.quarantined", self.quarantined as f64),
            ("snapshot.epochs_published", serving.epochs_published as f64),
            ("snapshot.snapshots_pinned", serving.snapshots_pinned as f64),
            ("snapshot.snapshots_reclaimed", serving.snapshots_reclaimed as f64),
            ("snapshot.pinned_after", self.pinned_after as f64),
            ("snapshot.max_epoch_lag", self.max_epoch_lag as f64),
        ])
    }

    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters) {
        out.insert("constraints.install_ms", self.install_ms);
        out.insert(
            "constraints.full_check_share",
            view.count("constraints.full_checks") / view.count("constraints.checks").max(1.0),
        );
        out.insert("oodb.stage_us", view.mean_us("oodb.stage"));
        out.insert("oodb.commit_call_us", view.mean_us("oodb.commit"));
        out.insert("oodb.commit_add_p50_us", view.p50_us("oodb.commit", Some(ADD)));
        out.insert("oodb.commit_set_p50_us", view.p50_us("oodb.commit", Some(SET)));
        out.insert("oodb.commit_remove_p50_us", view.p50_us("oodb.commit", Some(REMOVE)));
        out.insert("oodb.commit_reject_p50_us", view.p50_us("oodb.commit", Some(REJECT)));
        out.insert("oodb.session_begin_us", view.mean_us("oodb.session_begin"));
        out.insert("semantics.point_p50_us", view.p50_us("semantics.point", None));
        out.insert(
            "semantics.filter_scan_p50_us",
            view.p50_us("semantics.filter_scan", None),
        );
        out.insert("semantics.tolerant_p50_us", view.p50_us("semantics.tolerant", None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_has_the_shares_the_percentiles_rely_on() {
        let count = |s| CYCLE.iter().filter(|&&c| c == s).count();
        assert_eq!(
            (
                count(Step::Add),
                count(Step::Reject),
                count(Step::Remove),
                count(Step::SetOk),
                count(Step::SetLow)
            ),
            (12, 3, 2, 2, 1)
        );
        assert_eq!(
            count(Step::Add),
            count(Step::Remove) * REMOVED_PER_TXN,
            "a cycle leaves the relation as large as it was"
        );
    }

    fn schedule(seed: u64, ops: usize) -> Vec<Planned> {
        let mut model = Model::new(50, seed);
        (0..ops)
            .map(|_| {
                let p = model.plan();
                model.apply(p);
                p
            })
            .collect()
    }

    #[test]
    fn the_seed_fixes_the_schedule() {
        assert_eq!(schedule(9, 200), schedule(9, 200));
        assert_ne!(schedule(9, 200), schedule(10, 200));
    }

    #[test]
    fn the_model_replays_adds_removes_and_sets() {
        let mut model = Model::new(50, 1);
        let mut live: BTreeSet<(usize, usize)> = model.edges.iter().copied().collect();
        assert_eq!(live.len(), BASE_FRIENDS * 50);
        for _ in 0..400 {
            match model.plan() {
                p @ Planned::Add(a, b) => {
                    assert!(a != b && live.insert((a, b)), "an add is a new edge");
                    model.apply(p);
                }
                p @ Planned::Remove(edges) => {
                    for edge in edges {
                        assert!(live.remove(&edge), "a remove takes an edge that is there");
                    }
                    model.apply(p);
                }
                p @ Planned::Set { who, salary, low } => {
                    assert_eq!(low, salary < WAGE_FLOOR);
                    model.apply(p);
                    assert_eq!(model.salary[&who], salary);
                }
                Planned::Reject(_) => {}
            }
        }
        let modelled: usize = (0..50).map(|e| model.friend_count(e)).sum();
        assert_eq!(modelled, live.len());
        assert_eq!(live.len(), BASE_FRIENDS * 50, "400 ops are 20 whole cycles");
    }
}
