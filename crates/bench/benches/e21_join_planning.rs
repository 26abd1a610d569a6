//! Experiment E21: the cost-based join planner — the speed side.
//! Benchmarks the filtered-closure workload (recursive `desc` closure plus
//! a 3-literal join written in deliberately bad order), plus the plain E7
//! closure as the regression guard for the planner's overhead on bodies it
//! cannot improve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathlog_bench::{join_planning, transitive_closure, workloads};

fn bench_e21_join_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("e21_join_planning");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &(depth, fanout) in &[(6usize, 2usize), (8, 2), (5, 3)] {
        let label = format!("d{depth}f{fanout}");
        let s = join_planning::workload(depth, fanout);
        group.bench_with_input(BenchmarkId::new("filtered_closure_planned", &label), &s, |b, s| {
            b.iter(|| join_planning::members(s))
        });
        // The E7 closure under the planner: single-literal recursive bodies,
        // so this measures pure planner/compile overhead on the workload the
        // E7 gap is judged against.
        let plain = workloads::genealogy(depth, fanout);
        group.bench_with_input(BenchmarkId::new("desc_closure_planned", &label), &plain, |b, s| {
            b.iter(|| transitive_closure::pathlog_desc(s))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e21_join_planning);
criterion_main!(benches);
