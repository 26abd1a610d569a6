//! Experiment E22: the MVCC snapshot serving layer — concurrent pinned
//! reader sessions over the single-writer guarded commit pipeline, plus the
//! sequential oracle replay the concurrent arms are cross-checked against —
//! and, as the `publish_cost` group, what one epoch publish costs by store
//! size.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pathlog_bench::serving::{self, ServingParams};
use pathlog_core::names::Name;
use pathlog_core::structure::Structure;

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("e22_serving");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let employees = 60usize;
    let commits = 40usize;
    for &sessions in &[4usize, 16] {
        let params = ServingParams {
            employees,
            sessions,
            commits,
        };
        group.bench_with_input(
            BenchmarkId::new("concurrent", format!("sessions{sessions}")),
            &params,
            |b, p| b.iter(|| serving::run(p).reads),
        );
    }
    group.bench_function(BenchmarkId::new("sequential_oracle", "replay"), |b| {
        b.iter(|| serving::sequential_oracle(employees, commits).len())
    });
    group.finish();
}

/// What one epoch publish costs, by store size: the pieces (`clone` of the
/// image, the first write into the clone, freeing a superseded image) and
/// the whole (one guarded add-commit while a session pins an epoch, so the
/// commit publishes).  `clone + first_write + drop_superseded` staying flat
/// from 500 to 10 000 employees is the O(delta)-publish claim.
fn bench_publish_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_cost");
    group.sample_size(30);
    for employees in [500usize, 2_000, 10_000] {
        let mut db = serving::guarded_store(employees);
        let image = db.to_structure();
        let friends = image
            .lookup_name(&Name::atom("friends"))
            .expect("the schema has friends");
        let oid = |i: usize| {
            let name = Name::atom(format!("e{}", i % employees));
            image.lookup_name(&name).expect("employees are named e<i>")
        };
        // The write of one add-commit: a new friend edge.
        let write = |mut version: Structure, i: usize| {
            version.assert_set_member(friends, oid(i), &[], oid(i + 2));
            version
        };
        group.bench_function(BenchmarkId::new("clone", employees), |b| {
            b.iter_batched(|| (), |()| image.clone(), BatchSize::LargeInput)
        });
        group.bench_function(BenchmarkId::new("first_write", employees), |b| {
            b.iter_batched(|| image.clone(), |version| write(version, 7), BatchSize::LargeInput)
        });
        group.bench_function(BenchmarkId::new("drop_superseded", employees), |b| {
            // `old` sits between two neighbours that each share most of it.
            b.iter_batched(
                || {
                    let old = write(image.clone(), 3);
                    let new = write(old.clone(), 5);
                    (old, new)
                },
                |(old, new)| {
                    drop(old);
                    new
                },
                BatchSize::LargeInput,
            )
        });
        let _session = db.begin_session();
        let mut step = 0;
        group.bench_function(BenchmarkId::new("guarded_add_commit", employees), |b| {
            b.iter(|| {
                step += 1;
                // `commit_step` rejects every fifth attempt; skip those.
                step += usize::from(step % 5 == 4);
                serving::commit_step(&mut db, step, employees).expect("an add commit publishes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serving, bench_publish_cost);
criterion_main!(benches);
