//! Experiment E13: production rules and active triggers over the company
//! workload (the paper's "other kinds of rule languages"), and the E18
//! reactive ablation (delta-gated vs full production re-matching, plus the
//! active fan-out workload).
//!
//! Series: running the minimum-wage production rule set to quiescence, and
//! pushing a batch of salary updates through a two-level trigger cascade,
//! over increasing database sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathlog_bench::{reactive_rules, workloads};
use pathlog_reactive::ProductionOptions;

fn bench_reactive_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_reactive_rules");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &employees in &[100usize, 250, 500] {
        let structure = workloads::company(employees);
        group.bench_with_input(
            BenchmarkId::new("production_minimum_wage", employees),
            &structure,
            |b, s| b.iter(|| reactive_rules::production_minimum_wage(s)),
        );
        group.bench_with_input(
            BenchmarkId::new("active_salary_cascade_50", employees),
            &structure,
            |b, s| b.iter(|| reactive_rules::active_salary_cascade(s, 50)),
        );
    }
    group.finish();
}

/// The E18 arms: delta-gated vs full production re-matching, and the active
/// fan-out workload.
fn bench_reactive_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_reactive_executor");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &employees in &[100usize, 250] {
        let structure = workloads::company(employees);
        group.bench_with_input(
            BenchmarkId::new("production_delta_gated", employees),
            &structure,
            |b, s| {
                b.iter(|| {
                    reactive_rules::production_classify(s, ProductionOptions::default())
                        .0
                        .firings
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("production_full_rematch", employees),
            &structure,
            |b, s| {
                b.iter(|| {
                    reactive_rules::production_classify(
                        s,
                        ProductionOptions {
                            delta_gated: false,
                            ..ProductionOptions::default()
                        },
                    )
                    .0
                    .firings
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("active_fanout_50", employees), &structure, |b, s| {
            b.iter(|| reactive_rules::active_fanout_updates(s, 50).0.firings)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reactive_rules, bench_reactive_executor);
criterion_main!(benches);
