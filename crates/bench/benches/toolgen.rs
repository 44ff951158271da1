//! E2 — tool-generation time under Criterion: parse + analyse, decoder and
//! assembler table generation (part of analysis), compiled-simulator
//! lowering, for each bundled model.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lisa_core::model::ToolTables;
use lisa_core::Model;
use lisa_models::{accu16, tinyrisc, vliw62};
use lisa_sim::{SimMode, Simulator};
use std::hint::black_box;

fn models() -> Vec<(&'static str, &'static str)> {
    vec![("vliw62", vliw62::SOURCE), ("accu16", accu16::SOURCE), ("tinyrisc", tinyrisc::SOURCE)]
}

fn bench_parse_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("toolgen/parse_analyze");
    for (name, source) in models() {
        group.bench_with_input(BenchmarkId::from_parameter(name), source, |b, src| {
            b.iter(|| Model::from_source(black_box(src)).expect("builds"));
        });
    }
    group.finish();
}

fn bench_tool_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("toolgen/tool_tables");
    for (name, source) in models() {
        let model = Model::from_source(source).expect("builds");
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            b.iter(|| ToolTables::generate(black_box(m).operations()));
        });
    }
    group.finish();
}

/// The first ops simulator on a model builds the model's image (lowering
/// plus default-variant translation); later ones share it. Each
/// iteration therefore runs on a fresh clone, whose image slot is empty.
fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("toolgen/compiled_lowering");
    for (name, source) in models() {
        let model = Model::from_source(source).expect("builds");
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            b.iter_batched(
                || m.clone(),
                |fresh| {
                    Simulator::new(black_box(&fresh), SimMode::Ops).expect("lowers");
                    fresh
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parse_analyze, bench_tool_tables, bench_lowering);
criterion_main!(benches);
