//! MVCC snapshot serving: many concurrent readers, one writer, push streams.
//!
//! The serving layer (PR 10) turns the object store into a tiny database
//! server:
//!
//! 1. **Pinned reader sessions** — [`ObjectStore::begin_session`] hands out
//!    an epoch-stamped immutable snapshot.  Sessions are `Send` and
//!    lock-free on the read path, so this example fans them to 16 (or
//!    `--sessions N`) reader threads that dump and query their epoch while
//!    the single writer keeps committing ahead of them.
//! 2. **Single-writer commit pipeline** — guarded transactions publish one
//!    epoch per commit; rejected commits roll back and publish nothing.
//!    Every `(epoch, canonical_dump)` a reader observes is cross-checked
//!    bit-for-bit against a **sequential oracle** replay of the identical
//!    history: snapshot isolation, verified, not assumed.
//! 3. **Notify streams** — the reactive layer's push front: a subscriber
//!    receives per-epoch change/firing/quiescence notifications from an
//!    [`ActiveStore`] instead of polling and diffing dumps.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pathlog_serve -- --sessions 16 --commits 40
//! ```

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pathlog::core::names::Name;
use pathlog::oodb::{CommitError, ObjectStore, Session, Value};
use pathlog::prelude::*;
use pathlog::reactive::{ActiveStore, EcaAction, EcaRule, Event, NotificationKind};

/// The wage floor of the `underpaid` denial constraint.
const WAGE_FLOOR: i64 = 40_000;

struct Args {
    sessions: usize,
    commits: usize,
    employees: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 16,
        commits: 40,
        employees: 60,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().and_then(|v| v.parse::<usize>().ok());
        match (flag.as_str(), value) {
            ("--sessions", Some(n)) if n > 0 => args.sessions = n,
            ("--commits", Some(n)) if n > 0 => args.commits = n,
            ("--employees", Some(n)) if n > 0 => args.employees = n,
            _ => {
                eprintln!("usage: pathlog_serve [--sessions N] [--commits N] [--employees N]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The guarded company store every run starts from.  One salary is pinned
/// to the exact floor so the comparison literal's threshold is interned.
fn guarded_store(employees: usize) -> ObjectStore {
    let mut db = pathlog::datagen::generate_company(&CompanyParams::scaled(employees));
    db.set("e0", "salary", Value::Int(WAGE_FLOOR)).expect("e0 exists");
    let constraints: ConstraintSet = [
        Constraint::new(
            "self_friend",
            vec![Literal::pos(
                Term::var("X").filter(Filter::set("friends", vec![Term::var("X")])),
            )],
            ConstraintPolicy::Reject,
        )
        .expect("range-restricted"),
        Constraint::new(
            "underpaid",
            vec![
                Literal::pos(
                    Term::var("X")
                        .isa("employee")
                        .filter(Filter::scalar("salary", Term::var("S"))),
                ),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(WAGE_FLOOR)])),
            ],
            ConstraintPolicy::Reject,
        )
        .expect("range-restricted"),
    ]
    .into_iter()
    .collect();
    db.set_constraints(constraints, Engine::new())
        .expect("constraints install");
    db
}

/// Commit attempt `i` of the schedule shared by the concurrent run and the
/// oracle: friend-edge adds, every fifth an illegal self-friendship the
/// guard must reject.  Returns the published epoch on commit.
fn commit_step(db: &mut ObjectStore, i: usize, employees: usize) -> Option<Epoch> {
    let a = format!("e{}", i % employees);
    if i % 5 == 4 {
        let mut txn = db.begin();
        txn.add(&a, "friends", Value::obj(&a)).expect("stage self-friendship");
        match txn.commit() {
            Err(CommitError::Rejected { .. }) => None,
            other => panic!("self-friendship must be rejected, got {other:?}"),
        }
    } else {
        let mut b = format!("e{}", (i * 7 + 1) % employees);
        if b == a {
            b = format!("e{}", (i * 7 + 2) % employees);
        }
        let mut txn = db.begin();
        txn.add(&a, "friends", Value::obj(&b)).expect("stage friend edge");
        Some(txn.commit().expect("legal commit").epoch.expect("serving active"))
    }
}

/// The query every reader session answers against its pinned snapshot.
fn salary_query() -> Query {
    Query::new(vec![
        Literal::pos(Term::var("X").isa("employee")),
        Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
    ])
}

/// Sequential oracle: replay the identical history with no concurrency,
/// recording the canonical dump a session pins after every commit attempt.
fn sequential_oracle(args: &Args) -> BTreeMap<Epoch, String> {
    let mut db = guarded_store(args.employees);
    let mut dumps = BTreeMap::new();
    let bootstrap = db.begin_session();
    dumps.insert(bootstrap.epoch(), bootstrap.canonical_dump());
    drop(bootstrap);
    for i in 0..args.commits {
        commit_step(&mut db, i, args.employees);
        let session = db.begin_session();
        dumps.entry(session.epoch()).or_insert_with(|| session.canonical_dump());
    }
    dumps
}

fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Fan pinned sessions to reader threads while the writer replays the
/// commit schedule, then cross-check every observed dump against `oracle`.
fn serve(args: &Args, oracle: &BTreeMap<Epoch, String>) {
    let mut db = guarded_store(args.employees);

    let (result_tx, result_rx) = mpsc::channel::<(Epoch, String, u64)>();
    let mut feeds = Vec::with_capacity(args.sessions);
    let mut readers = Vec::with_capacity(args.sessions);
    for _ in 0..args.sessions {
        let (tx, rx) = mpsc::channel::<Session>();
        let results = result_tx.clone();
        feeds.push(tx);
        readers.push(std::thread::spawn(move || {
            let query = salary_query();
            for session in rx {
                let start = Instant::now();
                let epoch = session.epoch();
                let dump = session.canonical_dump();
                let answers = session.query(&query).expect("snapshot query serves").len();
                assert!(answers > 0, "the salary query answers on every snapshot");
                let us = start.elapsed().as_micros() as u64;
                if results.send((epoch, dump, us)).is_err() {
                    break;
                }
            }
        }));
    }
    drop(result_tx);

    // Bootstrap round: activate serving before the first commit (the oracle
    // replays the same activation point).
    for feed in &feeds {
        feed.send(db.begin_session()).expect("reader alive");
    }
    let (mut committed, mut rejected) = (0usize, 0usize);
    let mut commit_us = Vec::with_capacity(args.commits);
    for i in 0..args.commits {
        let start = Instant::now();
        let published = commit_step(&mut db, i, args.employees);
        commit_us.push(start.elapsed().as_micros() as u64);
        match published {
            Some(_) => committed += 1,
            None => rejected += 1,
        }
        for feed in &feeds {
            feed.send(db.begin_session()).expect("reader alive");
        }
    }
    drop(feeds);

    let mut read_us = Vec::new();
    let mut epochs_seen = BTreeMap::<Epoch, usize>::new();
    for (epoch, dump, us) in result_rx {
        assert_eq!(
            oracle.get(&epoch),
            Some(&dump),
            "epoch {epoch} dump diverged from the sequential oracle"
        );
        *epochs_seen.entry(epoch).or_default() += 1;
        read_us.push(us);
    }
    for reader in readers {
        reader.join().expect("reader exits cleanly");
    }

    let stats = db.serving_stats();
    assert_eq!(
        db.pinned_epochs(),
        0,
        "epoch leak: sessions dropped but epochs retained"
    );
    println!(
        "== serving {} readers over {} commit attempts ==",
        args.sessions, args.commits
    );
    println!("committed={committed} rejected={rejected} (every fifth attempt is illegal)");
    println!(
        "reads={} across {} epochs ({} publishes, {} pins, {} reclamations, 0 pinned at rest)",
        read_us.len(),
        epochs_seen.len(),
        stats.epochs_published,
        stats.snapshots_pinned,
        stats.snapshots_reclaimed,
    );
    println!(
        "read latency  p50={}us p95={}us p99={}us",
        percentile(&read_us, 50.0),
        percentile(&read_us, 95.0),
        percentile(&read_us, 99.0),
    );
    println!(
        "commit latency p50={}us p95={}us p99={}us",
        percentile(&commit_us, 50.0),
        percentile(&commit_us, 95.0),
        percentile(&commit_us, 99.0),
    );
    println!(
        "every (epoch, canonical_dump) pair a reader observed was bit-identical to the \
         sequential oracle's dump for that epoch."
    );
}

/// The push front: a subscriber thread consumes per-epoch notification
/// streams from an active store instead of polling it.
fn notify_streams() {
    println!("\n== notify streams (active store push front) ==");
    let mut store = ActiveStore::new(Structure::new());
    store.add_rule(EcaRule::new(
        "bonus-follows-salary",
        Event::ScalarAsserted(Name::atom("salary")),
        vec![],
        vec![EcaAction::AssertScalar {
            receiver: Term::var("Receiver"),
            method: Name::atom("bonus"),
            value: Term::var("Value"),
        }],
    ));
    let sub = store.subscribe();
    let consumer = std::thread::spawn(move || {
        let mut lines = Vec::new();
        while let Some(epoch) = sub.next_epoch(Duration::from_secs(5)) {
            let changes = epoch
                .iter()
                .filter(|n| matches!(n.kind, NotificationKind::Change { .. }))
                .count();
            let firings: Vec<&str> = epoch
                .iter()
                .filter_map(|n| match &n.kind {
                    NotificationKind::Firing { rule } => Some(&**rule),
                    _ => None,
                })
                .collect();
            let n = epoch.first().map(|n| n.epoch).unwrap_or_default();
            lines.push(format!(
                "epoch {n}: {changes} changes, {} firings {firings:?}",
                firings.len()
            ));
        }
        lines
    });
    for i in 0..3 {
        let salary = store.oid("salary");
        let employee = store.oid(&format!("e{i}"));
        let amount = store.oid(&format!("v{i}"));
        store.assert_scalar(salary, employee, amount).expect("mutation runs");
    }
    drop(store); // closes the stream; the consumer drains and exits
    for line in consumer.join().expect("consumer exits cleanly") {
        println!("{line}");
    }
    println!("the subscriber saw each mutation's cascade as one epoch-delimited stream.");
}

fn main() {
    let args = parse_args();
    let oracle = sequential_oracle(&args);
    serve(&args, &oracle);
    notify_streams();
}
