//! The executor subsystem: how the engine's solve tasks are scheduled onto
//! threads.
//!
//! Evaluation produces batches of *solve tasks* — one full body solve per
//! rule on the first iteration of a stratum, and one `(rule, drivable
//! literal, delta shard)` pass per affected rule afterwards (see
//! [`SolveTask`]).  Callers outside stratified fixpoint evaluation submit
//! *condition batches* instead ([`ConditionBatch`]): independent full body
//! solves from pre-bound seeds, the unit of the reactive layer's production
//! recognise phases and active-store quiescence rounds.  Tasks of either
//! shape only read: they run against a structure that is frozen for the
//! duration of the batch, so any subset of them may execute concurrently.
//! The [`Executor`] is the boundary between the engine loop (which plans
//! batches and commits their results) and the thread management.  Without a
//! pool (sequential evaluation) every batch runs inline on the calling
//! thread; with one, batches are handed to a persistent [`WorkerPool`]
//! created once per [`Engine`](super::Engine) and reused across strata,
//! iterations and batches, so a whole `run_rules` call spawns O(workers)
//! threads however many batches it solves.
//!
//! The pool is implemented without `unsafe` (this crate forbids it): the
//! coordinator *moves* the structure into an [`Arc`]'d batch, broadcasts the
//! batch to the workers, participates in the work itself, and reclaims sole
//! ownership with [`Arc::try_unwrap`] once every task has completed.
//! Workers claim tasks off a shared atomic cursor, so scheduling is
//! work-stealing-ish and never depends on which worker runs what.
//!
//! **Sorted runs.**  Each delta task returns its solutions as a locally
//! *sorted run* — deduplicated and ordered by the canonical, valuation-order
//! independent [`BindingKey`] — so the sorting work happens on the workers,
//! in parallel.  The single writer then only k-way-merges the runs
//! ([`merge_sorted_runs`]): the per-element min is found by a linear scan
//! over the run heads (the run count — drivable literals × shards — is a
//! few dozen at most, where a heap's constant factors would not pay), so
//! the serial commit section of an iteration is O(solutions · runs) cheap
//! comparisons instead of a full O(solutions · log solutions) sort.  Full
//! solves skip the sort: they are one task per rule whose enumeration order
//! is already deterministic (every index iterates an ordered container),
//! and that order is the oracle's commit order.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use crate::error::{Error, Result};
use crate::program::{Literal, Rule};
use crate::semantics::{Bindings, DeltaView};
use crate::structure::Structure;

/// Fault-injection hooks and recovery counters shared by an engine's
/// executors (and the engine's clones).
///
/// The counters on the **recovery** side are bumped by the executors
/// whenever they repair a fault: a task whose worker panicked is re-run on
/// the coordinator (`tasks_recovered`), and a pool worker whose thread died
/// to an escaped panic is replaced at the next batch broadcast
/// (`workers_respawned`).  [`super::Engine::run_rules`] snapshots them
/// around every run and surfaces the per-run deltas in
/// [`super::EvalStats`].
///
/// The **injection** side is a test/bench hook: arming `n` one-shot faults
/// makes the next `n` tasks *claimed by a worker thread* fail —
/// `inject_task_panics` panics inside the task (caught, recovered inline by
/// the coordinator), `inject_worker_kills` panics outside the catch so the
/// worker thread itself dies (exercising the pool's respawn path).  The
/// coordinator and the inline (sequential) path never consume injections,
/// so a sequential oracle run is unaffected even while faults are armed.
/// When unarmed the checks are two relaxed atomic loads per task.
#[derive(Debug, Default)]
pub struct FaultControl {
    /// Pending one-shot in-task panics (caught and recovered).
    task_panics: AtomicUsize,
    /// Pending one-shot worker-thread kills (escape the catch).
    worker_kills: AtomicUsize,
    /// Tasks re-run on the coordinator after their worker panicked.
    tasks_recovered: AtomicUsize,
    /// Dead pool workers replaced by a freshly spawned thread.
    workers_respawned: AtomicUsize,
}

impl FaultControl {
    /// Arm `n` one-shot task panics: the next `n` tasks claimed by worker
    /// threads panic inside the task and are recovered by the coordinator.
    pub fn inject_task_panics(&self, n: usize) {
        self.task_panics.fetch_add(n, Ordering::SeqCst);
    }

    /// Arm `n` one-shot worker kills: the next `n` tasks claimed by pool
    /// worker threads panic *outside* the recovery catch, killing the worker
    /// thread; the pool respawns it on the next batch broadcast.
    pub fn inject_worker_kills(&self, n: usize) {
        self.worker_kills.fetch_add(n, Ordering::SeqCst);
    }

    /// Injections armed but not yet consumed, as `(task panics, worker
    /// kills)`.
    pub fn pending(&self) -> (usize, usize) {
        (
            self.task_panics.load(Ordering::SeqCst),
            self.worker_kills.load(Ordering::SeqCst),
        )
    }

    /// Cumulative count of tasks recovered on the coordinator after a worker
    /// panic.
    pub fn tasks_recovered(&self) -> usize {
        self.tasks_recovered.load(Ordering::SeqCst)
    }

    /// Cumulative count of dead pool workers replaced by fresh threads.
    pub fn workers_respawned(&self) -> usize {
        self.workers_respawned.load(Ordering::SeqCst)
    }

    /// Consume one armed fault from `counter`; `false` when none is pending.
    fn take(counter: &AtomicUsize) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn take_task_panic(&self) -> bool {
        self.task_panics.load(Ordering::Relaxed) > 0 && Self::take(&self.task_panics)
    }

    fn take_worker_kill(&self) -> bool {
        self.worker_kills.load(Ordering::Relaxed) > 0 && Self::take(&self.worker_kills)
    }

    fn note_task_recovered(&self) {
        self.tasks_recovered.fetch_add(1, Ordering::SeqCst);
    }

    fn note_worker_respawned(&self) {
        self.workers_respawned.fetch_add(1, Ordering::SeqCst);
    }
}

/// A canonical, valuation-order independent key for a set of bindings:
/// the bound `(variable, object)` pairs in sorted order.  Two bindings with
/// equal keys denote the same valuation, so the key both deduplicates and
/// totally orders rule-body solutions — the order in which the writer
/// asserts them, and with that the order in which virtual objects are
/// allocated, in every evaluation mode.
pub type BindingKey = Vec<(std::sync::Arc<str>, u32)>;

/// A locally sorted, deduplicated sequence of keyed solutions — the output
/// of one delta task, ready for the writer's k-way merge.
pub type SortedRun = Vec<(BindingKey, Bindings)>;

/// The canonical key of `b` (see [`BindingKey`]).
pub fn binding_key(b: &Bindings) -> BindingKey {
    let mut key: BindingKey = b.iter().map(|(v, o)| (v.0.clone(), o.0)).collect();
    key.sort();
    key
}

/// Sort `solutions` into a canonical [`SortedRun`], dropping duplicate
/// valuations (first occurrence wins).
pub fn sorted_run(solutions: Vec<Bindings>) -> SortedRun {
    let mut run: SortedRun = solutions.into_iter().map(|b| (binding_key(&b), b)).collect();
    run.sort_by(|a, b| a.0.cmp(&b.0));
    run.dedup_by(|a, b| a.0 == b.0);
    run
}

/// K-way-merge canonically sorted runs into one deduplicated solution list
/// in [`BindingKey`] order.  Duplicate keys across runs collapse to the
/// first occurrence (all of them denote the same valuation).  This is the
/// single writer's merge point and the mode-identity boundary: the merged
/// list is a function of the *union* of the runs only, so any sharding of
/// the same answer set — one run per literal, per shard, or one big
/// sequential run — commits the same solutions in the same order.
pub fn merge_sorted_runs(runs: Vec<SortedRun>) -> Vec<Bindings> {
    let mut runs: Vec<SortedRun> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    match runs.len() {
        0 => Vec::new(),
        1 => runs.pop().expect("one run").into_iter().map(|(_, b)| b).collect(),
        _ => {
            let mut cursor = vec![0usize; runs.len()];
            let mut out: Vec<Bindings> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
            let mut last: Option<BindingKey> = None;
            loop {
                let mut min: Option<usize> = None;
                for (i, run) in runs.iter().enumerate() {
                    if cursor[i] < run.len() && min.is_none_or(|j| run[cursor[i]].0 < runs[j][cursor[j]].0) {
                        min = Some(i);
                    }
                }
                let Some(i) = min else { break };
                let slot = &mut runs[i][cursor[i]];
                let (key, b) = std::mem::replace(slot, (Vec::new(), Bindings::new()));
                cursor[i] += 1;
                if last.as_ref() != Some(&key) {
                    out.push(b);
                    last = Some(key);
                }
            }
            out
        }
    }
}

/// One schedulable unit of solve work: a rule body solved in full
/// (`delta: None`), or with one body literal restricted to one delta view
/// (`delta: Some((literal index, view index))`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveTask {
    /// Index of the rule (into the batch's rule slice) whose body this task
    /// solves.
    pub rule: usize,
    /// `None` for a full solve; `Some((l, v))` for a delta pass with
    /// positive body literal `l` restricted to the batch's view `v`.
    pub delta: Option<(usize, usize)>,
}

/// One execution round: every task of a batch runs against the same frozen
/// structure, reading the same delta views.
#[derive(Debug)]
pub struct SolveBatch {
    /// The rules of the run; tasks index into this slice.
    pub rules: Arc<[Rule]>,
    /// The delta views tasks reference by index (the iteration window, or
    /// its per-method shards).
    pub views: Vec<DeltaView>,
    /// The tasks, in deterministic schedule order.
    pub tasks: Vec<SolveTask>,
    /// The compiled bodies and this iteration's pass orders ([`crate::plan`])
    /// every delta task of the batch runs through.  `None` for a batch of
    /// full solves: those run written-order through [`super::solve_body`],
    /// since their enumeration order is the commit order.
    pub plans: Option<Arc<crate::plan::IterationPlans>>,
}

/// The result of one task.
#[derive(Debug)]
pub enum SolveOutput {
    /// A full solve's buffer in its (deterministic) enumeration order —
    /// deliberately unsorted, see the module docs.
    Enumerated(Vec<Bindings>),
    /// A delta pass's locally sorted, deduplicated run.
    Sorted(SortedRun),
    /// A compiled delta pass's raw slot frames in canonical key order, for
    /// rules whose compiled head commits without `Bindings` or keys.
    Frames(crate::plan::FrameRun),
}

/// One independent condition-solve job of a [`ConditionBatch`]: a full body
/// solve from a pre-bound seed (the event participants of an ECA trigger,
/// or an empty seed for a production rule's recognise phase).
#[derive(Debug, Clone)]
pub struct ConditionTask {
    /// Index into the batch's body slice.
    pub body: usize,
    /// The seed bindings the solve extends.
    pub seed: Bindings,
}

/// A batch of independent full body solves against a frozen structure — the
/// entry point for callers *outside* stratified fixpoint evaluation (the
/// reactive layer's production recognise phases and active-store quiescence
/// rounds).  Unlike [`SolveBatch`] the jobs carry seeds and arbitrary bodies
/// rather than rule/delta indices; they share the same frozen-structure
/// contract, so any subset may execute concurrently on the same pool.
#[derive(Debug)]
pub struct ConditionBatch {
    /// The distinct condition bodies; tasks index into this slice.
    pub bodies: Arc<[Vec<Literal>]>,
    /// The jobs, in deterministic order (outputs are returned in the same
    /// order).
    pub tasks: Vec<ConditionTask>,
}

/// Either batch shape the executors schedule.  Internal: the public trait
/// methods wrap and unwrap it so each caller keeps its natural result type.
#[derive(Debug)]
enum BatchKind {
    Fixpoint(SolveBatch),
    Conditions(ConditionBatch),
}

impl BatchKind {
    fn len(&self) -> usize {
        match self {
            BatchKind::Fixpoint(b) => b.tasks.len(),
            BatchKind::Conditions(b) => b.tasks.len(),
        }
    }

    /// Solve task `i` against `structure`.  Pure: reads only.
    fn run(&self, structure: &Structure, i: usize) -> Result<TaskResult> {
        match self {
            BatchKind::Fixpoint(b) => run_task(structure, b, b.tasks[i]).map(TaskResult::Fixpoint),
            BatchKind::Conditions(b) => {
                let task = &b.tasks[i];
                let solutions = super::solve_body(structure, &b.bodies[task.body], &task.seed)?;
                // Conditions commit in canonical `binding_key` order, so the
                // sort happens here, on the worker.
                Ok(TaskResult::Conditions(sorted_run(solutions)))
            }
        }
    }
}

/// The result of one task of either batch shape.
#[derive(Debug)]
enum TaskResult {
    Fixpoint(SolveOutput),
    Conditions(SortedRun),
}

/// Unwrap fixpoint results (the batch shape guarantees the variant).
fn expect_fixpoint(results: Vec<TaskResult>) -> Vec<SolveOutput> {
    results
        .into_iter()
        .map(|r| match r {
            TaskResult::Fixpoint(o) => o,
            TaskResult::Conditions(_) => unreachable!("fixpoint batch produced a condition result"),
        })
        .collect()
}

/// Unwrap condition results (the batch shape guarantees the variant).
fn expect_conditions(results: Vec<TaskResult>) -> Vec<SortedRun> {
    results
        .into_iter()
        .map(|r| match r {
            TaskResult::Conditions(run) => run,
            TaskResult::Fixpoint(_) => unreachable!("condition batch produced a fixpoint result"),
        })
        .collect()
}

/// Solve one task of `batch` against `structure`.
fn run_task(structure: &Structure, batch: &SolveBatch, task: SolveTask) -> Result<SolveOutput> {
    let body = &batch.rules[task.rule].body;
    match task.delta {
        None => super::solve_body(structure, body, &Bindings::new()).map(SolveOutput::Enumerated),
        Some((lit, view)) => {
            let (compiled, order) = batch
                .plans
                .as_ref()
                .expect("a batch with delta tasks carries the iteration's plans")
                .for_rule(task.rule);
            Ok(
                match crate::plan::execute_delta(structure, body, compiled, order, lit, &batch.views[view])? {
                    crate::plan::PassRun::Sorted(run) => SolveOutput::Sorted(run),
                    crate::plan::PassRun::Frames(fr) => SolveOutput::Frames(fr),
                },
            )
        }
    }
}

/// Solve every task on the calling thread, in order.
fn execute_inline(structure: &Structure, batch: &BatchKind) -> Result<Vec<TaskResult>> {
    (0..batch.len()).map(|i| batch.run(structure, i)).collect()
}

/// A counting latch: the coordinator waits until `target` arrivals.
#[derive(Default)]
struct Latch {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn arrive(&self) {
        let mut count = self.count.lock().expect("latch poisoned");
        *count += 1;
        self.cv.notify_all();
    }

    fn wait_until(&self, target: usize) {
        let mut count = self.count.lock().expect("latch poisoned");
        while *count < target {
            count = self.cv.wait(count).expect("latch poisoned");
        }
    }
}

/// Arrive at the latch when dropped — runs even if the task panicked, so the
/// coordinator never waits forever; the missing result slot is then re-run
/// by the coordinator instead of deadlocking the batch.
struct ArriveOnDrop<'a>(&'a Latch);

impl Drop for ArriveOnDrop<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// Everything one pooled batch shares between the coordinator and the
/// workers.  The structure lives *inside* (moved in by the coordinator,
/// moved back out once it is the sole owner again), which is what makes the
/// pool safe without `unsafe`: workers can never outlive their access.
struct PooledBatch {
    structure: Structure,
    batch: BatchKind,
    next: AtomicUsize,
    results: Mutex<Vec<Option<Result<TaskResult>>>>,
    progress: Latch,
    control: Arc<FaultControl>,
}

impl PooledBatch {
    /// Claim and solve tasks until the cursor is exhausted.  Called by every
    /// participating worker (`pool_worker: true`) *and* by the coordinator
    /// itself (`pool_worker: false`).  A task that panics under the catch
    /// leaves its result slot empty; [`ArriveOnDrop`] still arrives at the
    /// latch, and the coordinator re-runs the slot after reclaiming the
    /// batch.  Injected *task panics* land inside the catch and are
    /// therefore safe for any claimant — including the coordinator, which
    /// guarantees a pending injection is consumed even when a small batch
    /// drains before a parked worker wakes.  An injected *worker kill*
    /// panics outside the catch, unwinding the claiming thread itself, so
    /// only pool workers consume kills (the coordinator must survive to
    /// drain the batch); the dead worker's slot is likewise recovered, and
    /// the pool respawns the thread at the next broadcast.
    fn work(&self, pool_worker: bool) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.batch.len() {
                break;
            }
            let _arrive = ArriveOnDrop(&self.progress);
            if pool_worker && self.control.take_worker_kill() {
                panic!("fault injection: worker kill");
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                if self.control.take_task_panic() {
                    panic!("fault injection: task panic");
                }
                self.batch.run(&self.structure, i)
            }));
            if let Ok(result) = run {
                self.results.lock().expect("results poisoned")[i] = Some(result);
            }
        }
    }
}

/// A persistent pool of parked worker threads, created once and reused for
/// every batch of every run of an [`Engine`](super::Engine) (clones share
/// it).  Each worker owns a private wake-up channel: the coordinator sends
/// one [`Weak`] handle on the batch per worker, so no lock is ever held
/// while a thread is parked, and a stale wake-up (a worker that never got
/// scheduled before the batch ran dry) holds no ownership — the coordinator
/// can reclaim the structure without waiting for laggards to drain their
/// queues.  Dropping the last pool handle closes the channels and joins the
/// threads.
///
/// The pool is **self-healing**: a worker whose thread dies to an escaped
/// panic (task code panicking is a bug, but fault injection exercises the
/// path deliberately) is detected at the next broadcast —
/// either its [`JoinHandle`] reports finished or the send into its wake-up
/// channel fails because the receiver was dropped during the unwind — and
/// replaced by a freshly spawned thread, counted into
/// [`FaultControl::workers_respawned`].  The batch the worker died on is
/// still completed by the coordinator (`PooledBatch::work` recovers the
/// missing slot), so a panic costs one respawn and zero correctness:
/// effective parallelism returns to [`WorkerPool::workers`] by the next
/// batch.
pub struct WorkerPool {
    slots: Mutex<WorkerSlots>,
    workers: usize,
    spawns: Arc<AtomicUsize>,
    control: Arc<FaultControl>,
}

/// The respawnable per-worker state: wake-up channel sender plus join
/// handle, index-aligned.  `None` handles mark workers whose OS thread
/// could not be spawned; their sends fail and trigger a respawn attempt.
struct WorkerSlots {
    senders: Vec<Sender<Weak<PooledBatch>>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` parked threads, counting the spawns into
    /// `spawns`.
    pub fn new(workers: usize, spawns: &Arc<AtomicUsize>) -> Self {
        Self::with_control(workers, spawns, Arc::new(FaultControl::default()))
    }

    /// Like [`WorkerPool::new`], sharing the engine's [`FaultControl`] so
    /// injected faults reach the workers and respawns are counted where the
    /// caller can see them.
    pub fn with_control(workers: usize, spawns: &Arc<AtomicUsize>, control: Arc<FaultControl>) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (sender, handle) = Self::spawn_worker(i, spawns);
            senders.push(sender);
            handles.push(handle);
        }
        WorkerPool {
            slots: Mutex::new(WorkerSlots { senders, handles }),
            workers,
            spawns: Arc::clone(spawns),
            control,
        }
    }

    /// Spawn the parked worker thread for slot `i`.  On OS spawn failure the
    /// handle is `None` and the returned sender's channel is already closed
    /// (the receiver died with the never-run closure), so broadcasts notice
    /// and retry the spawn.
    fn spawn_worker(i: usize, spawns: &Arc<AtomicUsize>) -> (Sender<Weak<PooledBatch>>, Option<JoinHandle<()>>) {
        let (sender, receiver): (Sender<Weak<PooledBatch>>, Receiver<Weak<PooledBatch>>) = channel();
        let spawned = std::thread::Builder::new()
            .name(format!("pathlog-worker-{i}"))
            .spawn(move || {
                while let Ok(weak) = receiver.recv() {
                    // A failed upgrade is a stale wake-up for a batch
                    // that already completed without this worker.
                    if let Some(shared) = weak.upgrade() {
                        shared.work(true);
                    }
                }
                // channel closed: pool dropped (or this slot was respawned)
            });
        match spawned {
            Ok(handle) => {
                spawns.fetch_add(1, Ordering::Relaxed);
                (sender, Some(handle))
            }
            Err(_) => (sender, None),
        }
    }

    /// The number of worker threads the pool was created with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fault control shared with this pool's workers.
    pub fn control(&self) -> &Arc<FaultControl> {
        &self.control
    }

    /// Replace the dead worker in slot `i` with a fresh thread, counting the
    /// respawn.  The old handle (if any) is joined first — the thread is
    /// already finished or far into its unwind, so the join is prompt — and
    /// its panic payload discarded.
    fn respawn(&self, slots: &mut WorkerSlots, i: usize) {
        if let Some(dead) = slots.handles[i].take() {
            let _ = dead.join();
        }
        let (sender, handle) = Self::spawn_worker(i, &self.spawns);
        if handle.is_some() {
            self.control.note_worker_respawned();
        }
        slots.senders[i] = sender;
        slots.handles[i] = handle;
    }

    /// Wake every worker with its own (weak) handle on `shared`, respawning
    /// workers found dead (finished handle, or send failure because the
    /// receiver was dropped by the unwinding thread).
    fn broadcast(&self, shared: &Arc<PooledBatch>) {
        let mut slots = self.slots.lock().expect("pool poisoned");
        for i in 0..slots.senders.len() {
            if slots.handles[i].as_ref().is_some_and(|h| h.is_finished()) {
                self.respawn(&mut slots, i);
            }
            if slots.senders[i].send(Arc::downgrade(shared)).is_err() {
                self.respawn(&mut slots, i);
                let _ = slots.senders[i].send(Arc::downgrade(shared));
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut slots = self.slots.lock().expect("pool poisoned");
        slots.senders.clear(); // closes the channels; workers exit their loops
        for handle in slots.handles.drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// How a batch of tasks is mapped onto threads: inline on the calling thread
/// without a pool, by the Arc hand-off to the persistent [`WorkerPool`] with
/// one (see the module docs).  Either way the result is one output per task,
/// in task order, and `structure` is left unmodified (it is `&mut` only so
/// that the hand-off can temporarily move it into shared ownership and back
/// — tasks themselves only read).
#[derive(Debug, Clone)]
pub struct Executor {
    pool: Option<Arc<WorkerPool>>,
}

impl Executor {
    /// An executor that runs every batch inline on the calling thread.
    pub fn inline() -> Self {
        Executor { pool: None }
    }

    /// An executor backed by `pool`.
    pub fn pooled(pool: Arc<WorkerPool>) -> Self {
        Executor { pool: Some(pool) }
    }

    /// Solve every task of `batch` against the frozen `structure`.
    pub fn execute(&self, structure: &mut Structure, batch: SolveBatch) -> Result<Vec<SolveOutput>> {
        self.execute_any(structure, BatchKind::Fixpoint(batch))
            .map(expect_fixpoint)
    }

    /// Solve every condition job of `batch` against the frozen `structure`,
    /// returning one canonically sorted, deduplicated run per job, in job
    /// order.  Each job is solved whole by one thread, so the runs are
    /// bit-identical at any worker count — the contract the reactive layer's
    /// pooled condition matching relies on.
    pub fn execute_conditions(&self, structure: &mut Structure, batch: ConditionBatch) -> Result<Vec<SortedRun>> {
        self.execute_any(structure, BatchKind::Conditions(batch))
            .map(expect_conditions)
    }

    /// The number of worker threads batches fan out over (1 means every
    /// batch runs inline on the calling thread).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.workers())
    }

    /// The Arc-handoff protocol shared by both batch shapes (see the type
    /// docs): move the structure in, broadcast, work, latch, reclaim.
    fn execute_any(&self, structure: &mut Structure, batch: BatchKind) -> Result<Vec<TaskResult>> {
        let n_tasks = batch.len();
        let pool = match &self.pool {
            Some(pool) if pool.workers() > 1 && n_tasks > 1 => pool,
            _ => return execute_inline(structure, &batch),
        };
        let shared = Arc::new(PooledBatch {
            structure: std::mem::take(structure),
            batch,
            next: AtomicUsize::new(0),
            results: Mutex::new((0..n_tasks).map(|_| None).collect()),
            progress: Latch::default(),
            control: Arc::clone(pool.control()),
        });
        pool.broadcast(&shared);
        // The coordinator participates instead of blocking, which also keeps
        // the batch finite when workers died (every task it claims completes
        // on this thread).
        shared.work(false);
        shared.progress.wait_until(n_tasks);
        // Reclaim sole ownership.  Wake-ups are weak, so queued stragglers
        // hold nothing; after the latch the only other holders are workers
        // in the instant between their last (empty) claim and their drop,
        // which resolves within a yield or two — exactly the window
        // `snapshot::reclaim_arc` is built for.
        let inner = crate::snapshot::reclaim_arc(shared);
        let PooledBatch {
            structure: frozen,
            batch,
            results,
            control,
            ..
        } = inner;
        *structure = frozen;
        let mut results = results.into_inner().expect("results poisoned");
        // Recovery: a task whose worker panicked left its slot empty.  Tasks
        // are pure functions of (structure, batch, index), so re-running one
        // here yields exactly the result the dead worker would have produced
        // — recovered batches stay bit-identical to fault-free ones.
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(batch.run(structure, i));
                control.note_task_recovered();
            }
        }
        let completed = results.iter().filter(|r| r.is_some()).count();
        if completed != n_tasks {
            return Err(Error::LostWork {
                completed,
                expected: n_tasks,
            });
        }
        results.into_iter().map(|r| r.expect("checked complete")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Var;
    use crate::program::{Literal, Rule};
    use crate::structure::Oid;
    use crate::term::{Filter, Term};

    fn keyed(pairs: &[(&str, u32)]) -> (BindingKey, Bindings) {
        let bindings = Bindings::from_pairs(pairs.iter().map(|&(v, o)| (Var::new(v), Oid(o)))).unwrap();
        (binding_key(&bindings), bindings)
    }

    #[test]
    fn sorted_run_orders_and_deduplicates() {
        let (x, y) = (Var::new("X"), Var::new("Y"));
        let b1 = Bindings::from_pairs([(x.clone(), Oid(3)), (y.clone(), Oid(1))]).unwrap();
        let b2 = Bindings::from_pairs([(x.clone(), Oid(1)), (y.clone(), Oid(2))]).unwrap();
        // Same valuation as b2, bound in the opposite order.
        let b2_rev = Bindings::from_pairs([(y, Oid(2)), (x.clone(), Oid(1))]).unwrap();
        let run = sorted_run(vec![b1, b2, b2_rev]);
        assert_eq!(run.len(), 2, "order-independent duplicates collapse");
        assert!(run[0].0 < run[1].0, "ascending key order");
        assert_eq!(run[0].1.get(&x), Some(Oid(1)));
    }

    #[test]
    fn merge_sorted_runs_is_a_canonical_union() {
        let (k1, b1) = keyed(&[("X", 1), ("Y", 2)]);
        let (k2, b2) = keyed(&[("X", 2), ("Y", 1)]);
        let (k3, b3) = keyed(&[("X", 3), ("Y", 3)]);
        // k2 appears in both runs; the merge must emit it once.
        let merged = merge_sorted_runs(vec![
            vec![(k1.clone(), b1), (k2.clone(), b2.clone())],
            vec![(k2, b2), (k3, b3)],
        ]);
        assert_eq!(merged.len(), 3);
        let xs: Vec<Option<Oid>> = merged.iter().map(|b| b.get(&Var::new("X"))).collect();
        assert_eq!(xs, vec![Some(Oid(1)), Some(Oid(2)), Some(Oid(3))]);
        // Merging the same answers as one big run yields the same list.
        let (k1, b1) = keyed(&[("X", 1), ("Y", 2)]);
        let (k2, b2) = keyed(&[("X", 2), ("Y", 1)]);
        let (k3, b3) = keyed(&[("X", 3), ("Y", 3)]);
        let single = merge_sorted_runs(vec![vec![(k1, b1), (k2, b2), (k3, b3)]]);
        let xs1: Vec<Option<Oid>> = single.iter().map(|b| b.get(&Var::new("X"))).collect();
        assert_eq!(xs, xs1, "sharding must not change the committed order");
        assert!(merge_sorted_runs(vec![]).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]]).is_empty());
    }

    /// A small structure + rule whose batch has several tasks, executed
    /// inline and through the pool; both must return identical outputs in
    /// task order.
    fn executor_fixture() -> (Structure, SolveBatch) {
        let mut s = Structure::new();
        let kids = s.atom("kids");
        let nodes: Vec<Oid> = (0..20).map(|i| s.atom(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            s.assert_set_member(kids, w[0], &[], w[1]);
        }
        let rule = Rule::new(
            Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
        );
        let window = crate::semantics::SnapshotWindow::capture(&s);
        let mut grown = s.clone();
        let desc = grown.atom("desc");
        for w in nodes.windows(2) {
            grown.assert_set_member(desc, w[0], &[], w[1]);
        }
        let mut window = window;
        let dv = window.slide(&grown);
        let compiled = crate::plan::compile(&rule, &crate::analysis::plan_rule(&rule, None, None));
        let order = crate::plan::pass_order(&compiled, &[0], dv.entry_count());
        let plans = crate::plan::IterationPlans {
            compiled: Arc::new([(0, compiled)].into()),
            orders: [(0, order)].into(),
        };
        let rules: Arc<[Rule]> = vec![rule].into();
        let batch = SolveBatch {
            rules,
            views: vec![dv],
            tasks: vec![
                SolveTask { rule: 0, delta: None },
                SolveTask {
                    rule: 0,
                    delta: Some((0, 0)),
                },
            ],
            plans: Some(Arc::new(plans)),
        };
        (grown, batch)
    }

    fn output_shape(outputs: &[SolveOutput]) -> Vec<(bool, usize)> {
        outputs
            .iter()
            .map(|o| match o {
                SolveOutput::Enumerated(v) => (false, v.len()),
                SolveOutput::Sorted(r) => (true, r.len()),
                SolveOutput::Frames(fr) => (true, fr.len()),
            })
            .collect()
    }

    #[test]
    fn pooled_executor_agrees_with_inline_execution() {
        let spawns = Arc::new(AtomicUsize::new(0));
        let (mut s, batch) = executor_fixture();
        let inline = Executor::inline().execute(&mut s, batch).unwrap();
        assert_eq!(output_shape(&inline), vec![(false, 19), (true, 0)]);

        let pool = Arc::new(WorkerPool::new(3, &spawns));
        let pooled = Executor::pooled(Arc::clone(&pool));
        let (mut s3, batch3) = executor_fixture();
        let pooled_out = pooled.execute(&mut s3, batch3).unwrap();
        assert_eq!(output_shape(&pooled_out), output_shape(&inline));
        // The pool spawned exactly its workers, once.
        assert_eq!(spawns.load(Ordering::Relaxed), 3);
        // The structure was moved out and back unchanged.
        assert_eq!(s3.canonical_dump(), s.canonical_dump());
        // Reuse: a second batch spawns nothing new.
        let (mut s4, batch4) = executor_fixture();
        pooled.execute(&mut s4, batch4).unwrap();
        assert_eq!(spawns.load(Ordering::Relaxed), 3);
        drop(pooled);
        drop(pool); // joins the workers
    }

    #[test]
    fn pooled_executor_runs_tiny_batches_inline() {
        let spawns = Arc::new(AtomicUsize::new(0));
        let pool = Arc::new(WorkerPool::new(2, &spawns));
        let pooled = Executor::pooled(pool);
        let (mut s, mut batch) = executor_fixture();
        batch.tasks.truncate(1);
        let out = pooled.execute(&mut s, batch).unwrap();
        assert_eq!(output_shape(&out), vec![(false, 19)]);
    }

    /// A condition batch over the fixture's structure: one seeded and one
    /// unseeded full body solve, executed inline and through the pool; both
    /// must return the same canonically sorted runs in job order.
    fn condition_fixture() -> (Structure, ConditionBatch) {
        let (s, _) = executor_fixture();
        let n0 = s.lookup_name(&crate::names::Name::atom("n0")).unwrap();
        let bodies: Arc<[Vec<Literal>]> = vec![
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])),
            )],
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
            )],
        ]
        .into();
        let seed = Bindings::from_pairs([(Var::new("X"), n0)]).unwrap();
        let batch = ConditionBatch {
            bodies,
            tasks: vec![
                ConditionTask {
                    body: 0,
                    seed: Bindings::new(),
                },
                ConditionTask { body: 0, seed },
                ConditionTask {
                    body: 1,
                    seed: Bindings::new(),
                },
            ],
        };
        (s, batch)
    }

    #[test]
    fn condition_batches_return_identical_sorted_runs_inline_and_pooled() {
        let spawns = Arc::new(AtomicUsize::new(0));
        let (mut s, batch) = condition_fixture();
        let inline = Executor::inline().execute_conditions(&mut s, batch).unwrap();
        // 19 kids edges in full, 1 from the seeded receiver, 19 desc edges.
        assert_eq!(inline.iter().map(Vec::len).collect::<Vec<_>>(), vec![19, 1, 19]);
        // Runs are canonically sorted.
        for run in &inline {
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "ascending key order");
        }
        let keys = |runs: &[SortedRun]| -> Vec<Vec<BindingKey>> {
            runs.iter()
                .map(|r| r.iter().map(|(k, _)| k.clone()).collect())
                .collect()
        };

        let pool = Arc::new(WorkerPool::new(3, &spawns));
        let pooled = Executor::pooled(pool);
        let (mut s3, batch3) = condition_fixture();
        let pooled_out = pooled.execute_conditions(&mut s3, batch3).unwrap();
        assert_eq!(keys(&pooled_out), keys(&inline));
        // The structure was moved out and back unchanged.
        assert_eq!(s3.canonical_dump(), s.canonical_dump());
    }

    #[test]
    fn pooled_executor_recovers_injected_task_panics() {
        let spawns = Arc::new(AtomicUsize::new(0));
        let control = Arc::new(FaultControl::default());
        let pool = Arc::new(WorkerPool::with_control(3, &spawns, Arc::clone(&control)));
        let pooled = Executor::pooled(pool);
        let (mut s, batch) = executor_fixture();
        let baseline = output_shape(&Executor::inline().execute(&mut s, batch).unwrap());
        // The coordinator races the workers for tasks and never consumes
        // injections, so whether an armed panic fires in any one batch is
        // timing-dependent; every batch must come out identical regardless,
        // and across enough batches a worker claims a task and panics.
        let mut recovered = false;
        for _ in 0..200 {
            if control.pending().0 == 0 {
                control.inject_task_panics(1);
            }
            let (mut s2, batch2) = executor_fixture();
            let out = pooled.execute(&mut s2, batch2).unwrap();
            assert_eq!(output_shape(&out), baseline);
            assert_eq!(s2.canonical_dump(), s.canonical_dump());
            if control.tasks_recovered() >= 1 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "no injected task panic was consumed in 200 batches");
    }

    #[test]
    fn pooled_executor_survives_worker_kills_and_respawns_the_pool() {
        let spawns = Arc::new(AtomicUsize::new(0));
        let control = Arc::new(FaultControl::default());
        let pool = Arc::new(WorkerPool::with_control(3, &spawns, Arc::clone(&control)));
        let pooled = Executor::pooled(Arc::clone(&pool));
        let (mut s, batch) = executor_fixture();
        let baseline = output_shape(&Executor::inline().execute(&mut s, batch).unwrap());
        let mut respawned = false;
        for _ in 0..200 {
            if control.pending().1 == 0 {
                control.inject_worker_kills(1);
            }
            let (mut s2, batch2) = executor_fixture();
            let out = pooled.execute(&mut s2, batch2).unwrap();
            // Every solve completes bit-identically even while workers die.
            assert_eq!(output_shape(&out), baseline);
            assert_eq!(s2.canonical_dump(), s.canonical_dump());
            // Respawn happens at the *next* broadcast after a death, hence
            // the loop rather than a single-shot assertion.
            if control.workers_respawned() >= 1 {
                respawned = true;
                break;
            }
        }
        assert!(respawned, "no killed worker was respawned in 200 batches");
        assert_eq!(pool.workers(), 3, "advertised parallelism is unchanged");
    }
}
