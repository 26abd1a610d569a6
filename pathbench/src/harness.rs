//! One run of one workload: repeated set-up, a counting round of fixed
//! size, then equal rounds that fill `--seconds`, and the metrics read off
//! them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, nearest_rank, percentile_over_rounds, spread, RoundLatencies, Tail};
use crate::sys;
use crate::trace::{self_times, OpSample, Recorder, Span, NO_PARENT};

/// Measured rounds of a pass; a metric is the median over them.  Short
/// rounds, each with its own reading of the machine's speed, follow the
/// machine more closely than a few long ones.
const ROUNDS: usize = 20;
/// Times set-up is repeated at least, and at most; `setup_s` is the median.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 30;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round, one set-up, a tenth of the sizes: a smoke test, not a measurement.
    pub quick: bool,
}

/// Named numbers: a workload's cumulative counts, or its layer metrics.
pub type Counters = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Schedule cycles in the first round.  It warms caches and allocator,
    /// its duration sizes the later rounds, and because its length does not
    /// depend on the clock its counts repeat exactly between runs.
    const COUNT_CYCLES: usize;
    /// Threads the ops keep busy.  The machine's speed is read with as many.
    const THREADS: usize = 1;

    /// Build what the measured ops read, from the seed.  Timed as set-up.
    fn setup(seed: u64, quick: bool) -> Self;
    /// Work out the expected outputs without the engine.  Not timed.
    fn prepare_oracle(&mut self);
    /// Run `cycles` cycles of the op schedule, checking each output.
    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder);
    /// Counts the layers report, cumulative since set-up.  One named like a
    /// per-layer metric is reported as that metric.
    fn counters(&self) -> Counters;
    /// This workload's other per-layer metrics: times from the traced
    /// rounds, and what follows from times and counts together.
    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters);
}

/// One measured round.  Its times are already at the nominal machine speed.
pub struct RoundData {
    pub traced: bool,
    /// The machine's speed while the round ran; see [`speed`].
    pub speed: f64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub failed: u64,
    pub latencies: RoundLatencies,
    /// Class of every op, for the spans of a traced round; empty otherwise.
    pub ops: Vec<OpSample>,
    pub spans: Vec<Span>,
}

impl RoundData {
    fn ops(&self) -> f64 {
        self.latencies.samples as f64
    }

    fn mean_op_ns(&self) -> f64 {
        self.latencies.total_ns as f64 / self.ops()
    }
}

pub struct SetupInfo {
    /// Time of each repetition, at the nominal machine speed.
    pub seconds: Vec<f64>,
    /// Growth of the resident set over the first repetition.
    pub rss_growth_bytes: u64,
}

/// What the traced rounds and the counting round say, for `layer_metrics`.
pub struct TraceView<'a> {
    rounds: Vec<&'a RoundData>,
    pub counts: &'a Counters,
    pub setup: &'a SetupInfo,
}

impl TraceView<'_> {
    fn durations(&self, name: &str, class: Option<u8>) -> Vec<u64> {
        let mut out = Vec::new();
        for round in &self.rounds {
            out.extend(
                round
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .filter(|s| class.is_none_or(|c| round.ops.get(s.op as usize).is_some_and(|o| o.class == c)))
                    .map(Span::ns),
            );
        }
        out
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Calls of `name` in the traced rounds.
    pub fn calls(&self, name: &str) -> usize {
        self.durations(name, None).len()
    }

    /// Seconds spent in `name` over the traced rounds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name, None).iter().sum::<u64>() as f64 / 1e9
    }

    /// Mean duration of one call of `name`, 0 when it was never called.
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations(name, None);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3
    }

    pub fn mean_ms(&self, name: &str) -> f64 {
        self.mean_us(name) / 1e3
    }

    /// Median duration of the calls of `name` made for ops of `class`.
    pub fn p50_us(&self, name: &str, class: Option<u8>) -> f64 {
        let mut d = self.durations(name, class);
        if d.is_empty() {
            return 0.0;
        }
        d.sort_unstable();
        nearest_rank(&d, 50.0) as f64 / 1e3
    }

    /// Mean time an op spends in the benchmark's own glue: the op span
    /// minus the layer calls inside it.
    fn op_self_us(&self) -> f64 {
        let (mut total, mut n) = (0u64, 0usize);
        for round in &self.rounds {
            let own = self_times(&round.spans);
            for (s, own) in round.spans.iter().zip(own) {
                if s.name == "op" && s.parent == NO_PARENT {
                    total += own;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }
}

/// One metric as reported.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile distance of the rounds over their median, where rounds apply.
    pub spread: Option<f64>,
    pub samples: Option<usize>,
}

pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Reported>,
    /// Median machine speed over the rounds: a reported time divided by
    /// this is the time the clock showed.
    pub speed_index: f64,
    pub setup_s: f64,
    pub pass_s: f64,
    /// Every span of every traced round, with the round it came from.
    pub spans: Vec<(usize, Span)>,
}

impl Outcome {
    /// The line the driver reads.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// This run's part of a report file.
    pub fn report(&self) -> Json {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(s) = m.spread {
                fields.push(("spread", Json::Num(s)));
            }
            if let Some(n) = m.samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            (m.name, Json::obj(fields))
        }));
        let (section, pass) = if self.trace {
            ("per_layer", "traced_pass_s")
        } else {
            ("end_to_end", "measured_pass_s")
        };
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            ("setup_s", Json::Num(self.setup_s)),
            ("speed_index", Json::Num(self.speed_index)),
            (pass, Json::Num(self.pass_s)),
            (section, metrics),
        ])
    }

    pub fn print_table(&self) {
        eprintln!(
            "{} (trace {}): {} attempted, {} failed, pass {:.2} s, machine speed {:.2}",
            self.workload,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.pass_s,
            self.speed_index
        );
        for m in &self.metrics {
            let mut line = format!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            if let Some(s) = m.spread {
                line.push_str(&format!("  spread {:.1}%", s * 100.0));
            }
            if let Some(n) = m.samples {
                line.push_str(&format!("  n={n}"));
            }
            eprintln!("{line}");
        }
        for f in &self.failures {
            eprintln!("  FAILED {f}");
        }
    }
}

/// Time the reference kernel takes at the nominal machine speed, in
/// nanoseconds: about what this sandbox needs with one core busy.
const NOMINAL_REFERENCE_NS: f64 = 40_000.0;

/// One pass of a fixed piece of work that uses the standard library only:
/// a sort, ordered-map inserts and lookups, and string formatting.  No
/// change to the repository can make it faster or slower.
fn reference_kernel(round: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
    let mut keys: Vec<u64> = (0..2048)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys.iter().take(512).enumerate().map(|(i, k)| (*k, i)).collect();
    let hits: usize = keys.iter().step_by(3).filter_map(|k| map.get(k)).sum();
    let text: String = keys.iter().take(64).map(|k| format!("{k:x}")).collect();
    (hits + text.len()) as u64
}

/// How long the reference kernel takes right now, with `threads` threads
/// running it at once: the median of five samples of about 5 ms each on
/// this thread, so that one interruption does not count.  The sandbox's
/// two cores are slower together than one is alone, and by a share that
/// changes from hour to hour, so a workload that keeps both busy reads the
/// speed with both busy.
fn reference_ns(threads: usize) -> f64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let mut passes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(reference_kernel(passes));
                    passes += 1;
                }
            });
        }
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let mut passes = 0u64;
                while start.elapsed().as_micros() < 5_000 {
                    std::hint::black_box(reference_kernel(passes));
                    passes += 1;
                }
                start.elapsed().as_nanos() as f64 / passes as f64
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        median(&samples)
    })
}

/// The machine's speed over a stretch of work, from the reference kernel
/// timed just before and just after it: 1 at the nominal speed, below 1
/// when the machine is slower.  The sandbox's processor changes speed by a
/// fifth for seconds at a time; every time the benchmark reports is
/// multiplied by this, which turns "seconds on whatever the machine was
/// doing" into "seconds at the nominal speed".
fn speed(before_ns: f64, after_ns: f64) -> f64 {
    NOMINAL_REFERENCE_NS / ((before_ns + after_ns) / 2.0)
}

fn scale(ns: u64, speed: f64) -> u64 {
    (ns as f64 * speed).round() as u64
}

/// Cost of one clock read pair, the floor under every latency sample.
fn timer_ns() -> f64 {
    let n = 10_000;
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Set up until it has been done [`SETUPS`] times and for a quarter of a
/// second, so that a set-up of a few milliseconds still yields a steady median.
fn repeated_setup<W: Workload>(cfg: &Config) -> Result<(W, SetupInfo), String> {
    let rss_before = sys::rss_bytes()?;
    let mut info = SetupInfo {
        seconds: Vec::new(),
        rss_growth_bytes: 0,
    };
    let began = Instant::now();
    let mut before_ns = reference_ns(1);
    let mut workload = None;
    loop {
        // Drop the earlier copy first, so that set-up never holds two.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(cfg.seed, cfg.quick));
        let took = start.elapsed().as_secs_f64();
        if info.seconds.is_empty() {
            info.rss_growth_bytes = sys::rss_bytes()?.saturating_sub(rss_before);
        }
        let after_ns = reference_ns(1);
        info.seconds.push(took * speed(before_ns, after_ns));
        before_ns = after_ns;
        let enough = info.seconds.len() >= SETUPS && began.elapsed().as_secs_f64() >= 0.25;
        if cfg.quick || enough || info.seconds.len() >= MAX_SETUPS {
            let workload = workload.expect("set-up just ran");
            return Ok((workload, info));
        }
    }
}

pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let origin = Instant::now();
    let (mut w, setup) = repeated_setup::<W>(cfg)?;
    w.prepare_oracle();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures = Vec::new();
    let mut absorb = |rec: &mut Recorder| {
        attempted += rec.attempted;
        failed += rec.failed;
        failures.append(&mut rec.failures);
        failures.truncate(5);
    };

    // The counting round.
    let pass_start = Instant::now();
    let count_cycles = if cfg.quick { 1 } else { W::COUNT_CYCLES };
    let mut first = Recorder::new(origin, cfg.trace);
    w.run_cycles(count_cycles, &mut first);
    let counts = w.counters();
    let count_ops = first.ops.len();
    absorb(&mut first);

    // The measured rounds.  A traced pass alternates untraced and traced
    // rounds, so that both kinds see the same machine.
    let plan: Vec<bool> = match (cfg.trace, cfg.quick) {
        (false, true) => vec![false],
        (false, false) => vec![false; ROUNDS],
        (true, true) => vec![false, true],
        (true, false) => (0..ROUNDS).map(|r| r % 2 == 1).collect(),
    };
    let cycle_s = pass_start.elapsed().as_secs_f64() / count_cycles as f64;
    let per_round_s = (cfg.seconds - pass_start.elapsed().as_secs_f64()).max(0.0) / plan.len() as f64;
    let cycles = ((per_round_s / cycle_s) as usize).max(1);

    let mut data = Vec::new();
    let mut before_ns = reference_ns(W::THREADS);
    for traced in plan {
        let cpu_before = sys::process_cpu_ns()?;
        let start = Instant::now();
        let mut rec = Recorder::with_capacity(origin, traced, cycles * count_ops / count_cycles);
        w.run_cycles(cycles, &mut rec);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = sys::process_cpu_ns()?.saturating_sub(cpu_before);
        let after_ns = reference_ns(W::THREADS);
        let speed = speed(before_ns, after_ns);
        before_ns = after_ns;
        if rec.ops.is_empty() {
            return Err(format!("{}: a round of {cycles} cycles ran no op", W::NAME));
        }
        let round_failed = rec.failed;
        absorb(&mut rec);
        let latencies = RoundLatencies::of(rec.ops.iter().map(|op| scale(op.ns, speed)).collect());
        if !traced {
            rec.ops = Vec::new();
        }
        for span in &mut rec.spans {
            span.start_ns = scale(span.start_ns, speed);
            span.end_ns = scale(span.end_ns, speed).max(span.start_ns);
        }
        data.push(RoundData {
            traced,
            speed,
            wall_ns: scale(wall_ns, speed),
            cpu_ns: scale(cpu_ns, speed),
            failed: round_failed,
            latencies,
            ops: rec.ops,
            spans: rec.spans,
        });
    }
    let pass_s = pass_start.elapsed().as_secs_f64();

    let untraced: Vec<&RoundData> = data.iter().filter(|r| !r.traced).collect();
    let per_round = |f: &dyn Fn(&RoundData) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let ops_per_s = per_round(&|r| (r.ops() - r.failed as f64).max(0.0) / (r.wall_ns as f64 / 1e9));
    let cpu_ms_per_op = per_round(&|r| r.cpu_ns as f64 / 1e6 / r.ops());
    let speeds: Vec<f64> = data.iter().map(|r| r.speed).collect();
    let latencies: Vec<RoundLatencies> = untraced.iter().map(|r| r.latencies.clone()).collect();
    let p50 = percentile_over_rounds(&latencies, Tail::P50);
    let p90 = percentile_over_rounds(&latencies, Tail::P90);
    if !p90.supported {
        eprintln!(
            "{}: op_p90_us is read from {} samples, fewer than ten beyond it",
            W::NAME,
            p90.samples
        );
    }

    let mut metrics = Vec::new();
    if !cfg.trace {
        let peak_rss_mb = sys::peak_rss_bytes()? as f64 / (1024.0 * 1024.0);
        let samples = Some(p50.samples);
        let values: [(f64, Option<f64>, Option<usize>); 6] = [
            (median(&ops_per_s), Some(spread(&ops_per_s)), samples),
            (p50.value / 1e3, Some(p50.spread), samples),
            (p90.value / 1e3, Some(p90.spread), samples),
            (median(&cpu_ms_per_op), Some(spread(&cpu_ms_per_op)), samples),
            (peak_rss_mb, None, None),
            (
                median(&setup.seconds),
                Some(spread(&setup.seconds)),
                Some(setup.seconds.len()),
            ),
        ];
        for (m, (value, spread, samples)) in END_TO_END.iter().zip(values) {
            metrics.push(Reported {
                name: m.name,
                value,
                unit: m.unit,
                spread,
                samples,
            });
        }
    } else {
        let view = TraceView {
            rounds: data.iter().filter(|r| r.traced).collect(),
            counts: &counts,
            setup: &setup,
        };
        // A count named like a per-layer metric is that metric; the
        // workload adds the times and what it derives from both.
        let mut layer: Counters = counts
            .iter()
            .filter(|(name, _)| PER_LAYER.iter().any(|m| m.name == **name))
            .map(|(name, value)| (*name, *value))
            .collect();
        w.layer_metrics(&view, &mut layer);
        let per_op = |traced: bool| {
            let v: Vec<f64> = data
                .iter()
                .filter(|r| r.traced == traced)
                .map(RoundData::mean_op_ns)
                .collect();
            median(&v)
        };
        layer.insert("bench.self_us_per_op", view.op_self_us());
        layer.insert("bench.trace_overhead_pct", (per_op(true) / per_op(false) - 1.0) * 100.0);
        layer.insert("bench.timer_ns", timer_ns());
        layer.insert("bench.speed_index", median(&speeds));
        layer.insert("bench.speed_spread_pct", spread(&speeds) * 100.0);
        layer.insert("bench.count_ops", count_ops as f64);
        layer.insert("bench.samples.op", p50.samples as f64);
        layer.insert("bench.round_spread_pct.ops_per_s", spread(&ops_per_s) * 100.0);
        layer.insert("bench.round_spread_pct.op_p50_us", p50.spread * 100.0);
        layer.insert("bench.round_spread_pct.op_p90_us", p90.spread * 100.0);
        layer.insert("bench.round_spread_pct.cpu_ms_per_op", spread(&cpu_ms_per_op) * 100.0);
        for m in PER_LAYER {
            metrics.push(Reported {
                name: m.name,
                value: layer.remove(m.name).unwrap_or(0.0),
                unit: m.unit,
                spread: None,
                samples: None,
            });
        }
        if let Some(stray) = layer.keys().next() {
            return Err(format!("{}: metric {stray} is not in the per-layer table", W::NAME));
        }
    }

    let spans = data
        .iter_mut()
        .enumerate()
        .flat_map(|(i, r)| std::mem::take(&mut r.spans).into_iter().map(move |s| (i, s)))
        .collect();
    Ok(Outcome {
        workload: W::NAME,
        trace: cfg.trace,
        attempted,
        failed,
        failures,
        metrics,
        speed_index: median(&speeds),
        setup_s: median(&setup.seconds),
        pass_s,
        spans,
    })
}
