//! E9 — batch-runner scaling: the full models×kernels matrix on 1, 2, 4
//! and 8 workers. Throughput is in simulated cycles, so criterion's
//! rate column reads directly as cycles/second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lisa_exec::BatchRunner;
use lisa_models::kernels::full_matrix;
use lisa_sim::SimMode;

fn bench_scaling(c: &mut Criterion) {
    let matrix = full_matrix().expect("models build");
    let scenarios: Vec<_> = matrix
        .iter()
        .flat_map(|(wb, kernels)| {
            kernels.iter().flat_map(move |k| {
                [SimMode::Interpretive, SimMode::Ops]
                    .into_iter()
                    .map(move |mode| wb.scenario(k, mode))
            })
        })
        .collect();
    let cycles = BatchRunner::new(1).run(&scenarios).total_cycles();

    let mut group = c.benchmark_group("batch_scaling");
    group.throughput(Throughput::Elements(cycles));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            b.iter(|| {
                let report = BatchRunner::new(workers).run(&scenarios);
                assert!(report.all_passed());
                report
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
