//! Parallel sharded delta evaluation: the semi-naive `desc` closure workload
//! with per-rule delta solves fanned over worker threads
//! (`EvalMode::Parallel`), against the sequential semi-naive arm.
//!
//! Scaling depends on the host: the fan-out unit is one rule's per-literal
//! delta passes split into per-method shards, so the win appears on
//! multi-core machines with large per-iteration deltas (deep trees).  On a
//! single-core container the parallel arms measure the scheduling overhead
//! instead — the `experiments` binary records both honestly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathlog_bench::{transitive_closure, workloads};
use pathlog_core::engine::EvalMode;

fn bench_parallel_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_workers");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &(depth, fanout) in &[(8usize, 2usize), (10, 2)] {
        let structure = workloads::genealogy(depth, fanout);
        let label = format!("d{depth}f{fanout}");
        group.bench_with_input(BenchmarkId::new("sequential", &label), &structure, |b, s| {
            b.iter(|| transitive_closure::pathlog_desc_with_mode(s, EvalMode::Sequential).0)
        });
        for workers in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("workers{workers}"), &label),
                &structure,
                |b, s| b.iter(|| transitive_closure::pathlog_desc_with_mode(s, EvalMode::Parallel { workers }).0),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_eval);
criterion_main!(benches);
