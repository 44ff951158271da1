//! E3 — compiled (ops) vs interpretive simulation speed (the paper's
//! headline contrast, §3.3). Each benchmark runs one DSP kernel to completion and
//! reports throughput in simulated cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::SimMode;

fn bench_suite(c: &mut Criterion, label: &str, wb: &Workbench, suite: &[kernels::Kernel]) {
    for kernel in suite {
        // Cycle count is mode-independent; measure once for throughput.
        let mut probe = kernels::load_kernel(wb, kernel, SimMode::Interpretive).expect("loads");
        let cycles = wb.run_to_halt(&mut probe, kernel.max_steps).expect("halts");

        let mut group = c.benchmark_group(format!("sim_speed/{label}/{}", kernel.name));
        group.throughput(Throughput::Elements(cycles));
        for (mode_name, mode) in [("interpretive", SimMode::Interpretive), ("ops", SimMode::Ops)] {
            group.bench_function(BenchmarkId::from_parameter(mode_name), |b| {
                b.iter_batched(
                    || kernels::load_kernel(wb, kernel, mode).expect("loads"),
                    |mut sim| {
                        wb.run_to_halt(&mut sim, kernel.max_steps).expect("halts");
                        sim
                    },
                    criterion::BatchSize::SmallInput,
                );
            });
        }
        group.finish();
    }
}

fn bench_vliw(c: &mut Criterion) {
    let wb = vliw62::workbench().expect("builds");
    bench_suite(c, "vliw62", &wb, &kernels::vliw_suite());
}

fn bench_accu(c: &mut Criterion) {
    let wb = accu16::workbench().expect("builds");
    bench_suite(c, "accu16", &wb, &kernels::accu_suite());
}

criterion_group!(benches, bench_vliw, bench_accu);
criterion_main!(benches);
