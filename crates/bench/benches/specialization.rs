//! E5 — compile-time SWITCH/CASE specialisation vs run-time operand
//! checks (paper §3.4, Example 6), on identical workloads and cycle
//! counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lisa_bench::specialization::{run_workload, workbench};
use lisa_sim::SimMode;

fn bench_specialization(c: &mut Criterion) {
    let iterations = 2_000u32;
    let spec = workbench(true).expect("specialized builds");
    let rt = workbench(false).expect("runtime builds");
    let (cycles, _) = run_workload(&spec, iterations, SimMode::Ops).expect("probe");

    let mut group = c.benchmark_group("specialization");
    group.throughput(Throughput::Elements(cycles));
    for (name, wb) in [("switch_specialised", &spec), ("runtime_checks", &rt)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), wb, |b, wb| {
            b.iter(|| run_workload(wb, iterations, SimMode::Ops).expect("runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_specialization);
criterion_main!(benches);
