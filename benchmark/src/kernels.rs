//! The `kernels-*` workloads (the E15 kernel suite at the largest sizes
//! its constructors accept, timed around `run_to_halt` only), the kernel
//! section of the traced run, and the static per-model layer costs
//! (model build, decoder, assembler, simulator construction, load and
//! predecode) every traced run reports.

use std::time::{Duration, Instant};

use lisa_asm::Assembler;
use lisa_bits::Bits;
use lisa_conform::Rng;
use lisa_core::ast::ResourceClass;
use lisa_core::Model;
use lisa_isa::Decoder;
use lisa_models::kernels::{self, Check, Kernel};
use lisa_models::{accu16, scalar2, tinyrisc, vliw62, Workbench};
use lisa_sim::{ArchProfile, ProbeSpec, SimMode, SimStats, Simulator};

use crate::report::{
    geomean, host_factor, mean, median, median_of_best_low, print_breakdown, shuffle, timed,
    Calibration, EndToEnd, Layers, Round, SetupTimes, Stage,
};

/// The four bundled models, in report order.
pub const MODELS: [&str; 4] = ["tinyrisc", "accu16", "scalar2", "vliw62"];

/// A simulator configuration: backend plus what is armed of the
/// observation `/v1/simulate` and `lisa-tool run --probe` use: the arch
/// profile and one watch probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub label: &'static str,
    pub mode: SimMode,
    pub arch: bool,
    pub watch: bool,
}

const fn variant(label: &'static str, mode: SimMode, observed: bool) -> Variant {
    Variant { label, mode, arch: observed, watch: observed }
}

pub const INTERP: Variant = variant("interp", SimMode::Interpretive, false);
pub const COMPILED: Variant = variant("compiled", SimMode::Compiled, false);
pub const OPS: Variant = variant("ops", SimMode::Ops, false);
pub const OPS_OBSERVED: Variant = variant("ops_observed", SimMode::Ops, true);
const INTERP_OBSERVED: Variant = variant("interp_observed", SimMode::Interpretive, true);
const COMPILED_OBSERVED: Variant = variant("compiled_observed", SimMode::Compiled, true);
/// Ops with the arch profile alone, as `/v1/simulate` arms it.
const OPS_ARCH: Variant =
    Variant { label: "ops_arch", mode: SimMode::Ops, arch: true, watch: false };

/// Every variant the traced kernel section interleaves.
const ALL_VARIANTS: [Variant; 6] =
    [INTERP, COMPILED, OPS, INTERP_OBSERVED, COMPILED_OBSERVED, OPS_OBSERVED];

/// The bundled models' workbenches, in [`MODELS`] order.
pub fn workbenches() -> Vec<Workbench> {
    vec![
        tinyrisc::workbench().expect("tinyrisc builds"),
        accu16::workbench().expect("accu16 builds"),
        scalar2::workbench().expect("scalar2 builds"),
        vliw62::workbench().expect("vliw62 builds"),
    ]
}

/// The LISA source of model `m` (index into [`MODELS`]).
fn source(m: usize) -> &'static str {
    [tinyrisc::SOURCE, accu16::SOURCE, scalar2::SOURCE, vliw62::SOURCE][m]
}

/// The standard kernel suite of model `m` (the sizes E15 reports).
pub fn standard_suite(m: usize) -> Vec<Kernel> {
    match m {
        0 => kernels::tiny_suite(),
        1 => kernels::accu_suite(),
        2 => kernels::scalar_suite(),
        _ => kernels::vliw_suite(),
    }
}

/// The E15 kernels at the largest sizes their constructors accept,
/// tagged with their model index.
pub fn long_suite() -> Vec<(usize, Kernel)> {
    vec![
        (0, kernels::tiny_fib(31)),
        (0, kernels::tiny_memsum(31)),
        (1, kernels::accu_dot_product(128)),
        (1, kernels::accu_block_scale(128, 3)),
        (1, kernels::accu_fir_unrolled(8, 32)),
        (2, kernels::scalar_dot_product(64)),
        (2, kernels::scalar_memsum(64)),
        (3, kernels::vliw_dot_product(256)),
        (3, kernels::vliw_vecadd(250)),
        (3, kernels::vliw_fir(32, 64)),
        (3, kernels::vliw_memcpy(1024)),
        (3, kernels::vliw_biquad(128)),
    ]
}

/// The assembler `/v1/simulate` and the kernel harness use for a model:
/// the fetch-packet assembler for vliw62, the plain one otherwise.
pub fn assembler(model: &Model) -> Assembler<'_> {
    if model.resource_by_name("fp").is_some() {
        Assembler::with_packet(model, vliw62::FETCH_PACKET, 1)
    } else {
        Assembler::new(model)
    }
}

/// One watch probe on the last cell of the model's first data memory:
/// matched on every data write, never hit by the kernels.
fn watch_spec(model: &Model) -> ProbeSpec {
    let mem = model
        .resources()
        .iter()
        .find(|r| r.class == ResourceClass::DataMemory)
        .expect("every bundled model has a data memory");
    ProbeSpec::parse(&format!("watch {}[{}]", mem.name, mem.element_count().saturating_sub(1)))
        .expect("watch spec parses")
}

/// A kernel assembled once, ready to be loaded into fresh simulators.
pub struct Prepared {
    pub model: usize,
    pub kernel: Kernel,
    pub origin: u64,
    pub words: Vec<u128>,
}

/// Assembles every kernel against its model's workbench.
pub fn prepare(wbs: &[Workbench], suite: Vec<(usize, Kernel)>) -> Vec<Prepared> {
    suite
        .into_iter()
        .map(|(model, kernel)| {
            let program = assembler(wbs[model].model())
                .assemble(&kernel.source)
                .unwrap_or_else(|e| panic!("kernel `{}` does not assemble: {e}", kernel.name));
            Prepared { model, kernel, origin: program.origin, words: program.words }
        })
        .collect()
}

/// Writes a program image into `program_memory` and a data image
/// (resource, index, value) into a fresh simulator — the same public
/// calls the kernel harness, the batch runner and `/v1/simulate` make.
pub fn load(
    sim: &mut Simulator<'_>,
    model: &Model,
    program_memory: &str,
    origin: u64,
    words: &[u128],
    data: &[(&str, i64, i64)],
) {
    let pmem = model.resource_by_name(program_memory).expect("program memory").clone();
    for (i, &word) in words.iter().enumerate() {
        let value = Bits::from_u128_wrapped(pmem.ty.width(), word);
        sim.state_mut().write(&pmem, &[origin as i64 + i as i64], value).expect("program fits");
    }
    for &(resource, index, value) in data {
        let res = model.resource_by_name(resource).expect("data resource").clone();
        let indices: &[i64] = if res.is_array() { std::slice::from_ref(&index) } else { &[] };
        sim.state_mut().write_int(&res, indices, value).expect("data fits");
    }
}

/// [`load`] of a prepared kernel into a simulator of its workbench.
fn load_kernel(sim: &mut Simulator<'_>, wb: &Workbench, p: &Prepared) {
    load(sim, wb.model(), wb.program_memory(), p.origin, &p.words, &p.kernel.data);
}

/// Whether every golden value of the kernel holds in `sim`.
fn goldens_hold(wb: &Workbench, kernel: &Kernel, sim: &Simulator<'_>) -> bool {
    kernel.checks.iter().all(|check| {
        let (resource, addr, expected) = match check {
            Check::Mem { resource, addr, value } => (*resource, *addr, *value),
            Check::Reg { resource, index, value } => (*resource, *index, *value),
        };
        let Some(res) = wb.model().resource_by_name(resource) else { return false };
        let index = [addr];
        let indices: &[i64] = if res.is_array() { &index } else { &[] };
        let expected = Bits::from_i128_wrapped(res.ty.width(), i128::from(expected));
        sim.state().read(res, indices).is_ok_and(|got| got == expected)
    })
}

/// What one kernel job produced.
struct JobOut {
    ok: bool,
    cycles: u64,
    digest: u64,
    stats: SimStats,
    profile: Option<ArchProfile>,
}

/// Stage times of one kernel job, in microseconds.
#[derive(Default)]
struct JobTimes {
    new: f64,
    load: f64,
    predecode: f64,
    arm: f64,
    run: f64,
    extract: f64,
    total: f64,
}

/// One kernel job: build, load, predecode, arm, run to halt, verify.
fn kernel_job(wb: &Workbench, p: &Prepared, v: Variant) -> (JobOut, JobTimes) {
    let start = Instant::now();
    let mut t = JobTimes::default();
    let (sim, us) = timed(|| Simulator::new(wb.model(), v.mode).expect("simulator builds"));
    t.new = us;
    let mut sim = sim;
    t.load = timed(|| load_kernel(&mut sim, wb, p)).1;
    if v.mode != SimMode::Interpretive {
        t.predecode = timed(|| sim.predecode_program_memory()).1;
    }
    t.arm = timed(|| {
        if v.watch {
            sim.set_probes(watch_spec(wb.model()).compile(wb.model()).expect("watch compiles"));
        }
        if v.arch {
            sim.enable_arch_profile();
        }
    })
    .1;
    let (result, us) = timed(|| wb.run_to_halt(&mut sim, p.kernel.max_steps));
    t.run = us;
    let mut profile = None;
    if v.arch {
        let (prof, us) = timed(|| sim.arch_profile());
        t.extract = us;
        profile = prof;
    }
    t.total = start.elapsed().as_secs_f64() * 1e6;
    let ok = result.is_ok() && goldens_hold(wb, &p.kernel, &sim) && sim.probe_hits() == 0;
    let out = JobOut {
        ok,
        cycles: result.unwrap_or(0),
        digest: sim.state().digest(),
        stats: *sim.stats(),
        profile,
    };
    (out, t)
}

/// Reference results: every kernel on interp, compiled and ops. Returns
/// the interpretive (cycles, digest) per kernel and the number of
/// kernels whose backends disagree or miss a golden value.
fn reference(wbs: &[Workbench], suite: &[Prepared]) -> (Vec<(u64, u64)>, u64) {
    let mut refs = Vec::with_capacity(suite.len());
    let mut bad = 0;
    for p in suite {
        let outs: Vec<JobOut> =
            [INTERP, COMPILED, OPS].iter().map(|&v| kernel_job(&wbs[p.model], p, v).0).collect();
        let agree = outs.iter().all(|o| {
            o.ok && o.cycles == outs[0].cycles
                && o.digest == outs[0].digest
                && o.stats.instructions_retired == outs[0].stats.instructions_retired
        });
        if !agree {
            eprintln!("kernel {}: backends disagree or a golden value fails", p.kernel.name);
            bad += 1;
        }
        refs.push((outs[0].cycles, outs[0].digest));
    }
    (refs, bad)
}

/// Runs of a kernel per group of [`median_of_best_low`].
pub const BEST_OF: usize = 4;

/// Geometric mean over kernels of simulated Mcycles per host second at
/// each kernel's typical `run_to_halt` time (E15's aggregation), the
/// time being the median over groups of [`BEST_OF`] runs of each
/// group's fastest.
fn suite_mcps(cycles: &[u64], times_us: &[Vec<f64>]) -> f64 {
    geomean(
        &cycles
            .iter()
            .zip(times_us)
            .map(|(&c, t)| c as f64 / median_of_best_low(t, BEST_OF))
            .collect::<Vec<_>>(),
    )
}

/// The untraced `kernels-*` workload for one variant. A round runs
/// every kernel once, in a seeded order, and counts only `run_to_halt`
/// time, each run scaled by the [`host_factor`] measured right before
/// its job; rounds repeat until the budget is spent. `sim_mcps` is
/// [`suite_mcps`]; the other figures come from the rounds.
pub fn run(seed: u64, v: Variant, budget: Duration) -> EndToEnd {
    let build = || {
        let wbs = workbenches();
        let suite = prepare(&wbs, long_suite());
        (wbs, suite)
    };
    let mut setup = SetupTimes::default();
    let (wbs, suite) = setup.repeat(build);
    let (refs, bad) = reference(&wbs, &suite);
    let mut rng = Rng::new(seed);
    let mut e2e =
        EndToEnd { attempted: 3 * suite.len() as u64, failed: bad, ..EndToEnd::default() };
    let mut times = vec![Vec::new(); suite.len()];
    let mut rounds = Vec::new();
    let deadline = Instant::now() + budget;
    while rounds.is_empty() || Instant::now() < deadline {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut round = Round::default();
        for &k in &order {
            let p = &suite[k];
            let factor = host_factor(Calibration::Interpreter);
            let (out, t) = kernel_job(&wbs[p.model], p, v);
            e2e.attempted += 1;
            if !out.ok || (out.cycles, out.digest) != refs[k] {
                e2e.failed += 1;
            }
            round.add(t.run, factor, out.cycles);
            times[k].push(factor * t.run);
        }
        rounds.push(round);
    }
    drop(setup.repeat(build));
    e2e.setup_s = setup.seconds();
    e2e.summarize(&rounds, BEST_OF);
    e2e.sim_mcps = suite_mcps(&refs.iter().map(|r| r.0).collect::<Vec<_>>(), &times);
    e2e
}

/// Static per-model layer costs: `Model::from_source`, `Decoder::new`,
/// `Assembler::assemble`, `Simulator::new`, program load, predecode and
/// `ArchProfile::merge`, each the median over repeated calls on the
/// model's standard suite. Also prints, per standard kernel, its
/// assembly time and its ops `run_to_halt` time plain, with the arch
/// profile alone, and with the profile plus the watch probe.
pub fn static_costs(layers: &mut Layers) {
    const REPS: usize = 9;
    let wbs = workbenches();
    let mut aggregate = ArchProfile::new();
    let mut merges = Vec::new();
    for (m, name) in MODELS.iter().enumerate() {
        let wb = &wbs[m];
        let model = wb.model();
        let build: Vec<f64> =
            (0..REPS).map(|_| timed(|| Model::from_source(source(m)).expect("builds")).1).collect();
        layers.set(format!("core.model_build_us.{name}"), median(&build));
        let dec: Vec<f64> =
            (0..REPS).map(|_| timed(|| Decoder::new(model).expect("decoder builds")).1).collect();
        layers.set(format!("isa.decoder_new_us.{name}"), median(&dec));

        let suite = standard_suite(m);
        let asm = assembler(model);
        let mut assemble = Vec::new();
        for k in &suite {
            let times: Vec<f64> = (0..REPS)
                .map(|_| timed(|| asm.assemble(&k.source).expect("assembles")).1)
                .collect();
            println!("  assemble {name}/{}: median {:.1} us", k.name, median(&times));
            assemble.extend(times);
        }
        layers.set(format!("asm.assemble_us.{name}"), median(&assemble));

        let prepared = prepare(&wbs, suite.into_iter().map(|k| (m, k)).collect());
        let mut loads = Vec::new();
        for v in [INTERP, COMPILED, OPS] {
            let mut news = Vec::new();
            let mut predecodes = Vec::new();
            for p in &prepared {
                for _ in 0..3 {
                    let (sim, us) = timed(|| Simulator::new(model, v.mode).expect("builds"));
                    news.push(us);
                    let mut sim = sim;
                    loads.push(timed(|| load_kernel(&mut sim, wb, p)).1);
                    predecodes.push(timed(|| sim.predecode_program_memory()).1);
                }
            }
            layers.set(format!("sim.new_us.{name}.{}", v.label), median(&news));
            if v.mode != SimMode::Interpretive {
                layers.set(format!("sim.predecode_us.{name}.{}", v.label), median(&predecodes));
            }
        }
        layers.set(format!("sim.load_us.{name}"), median(&loads));
        for p in &prepared {
            let mut runs = [Vec::new(), Vec::new(), Vec::new()];
            let mut profile = None;
            for _ in 0..REPS {
                for (times, v) in runs.iter_mut().zip([OPS, OPS_ARCH, OPS_OBSERVED]) {
                    let (out, t) = kernel_job(wb, p, v);
                    times.push(t.run);
                    profile = out.profile.or(profile);
                }
            }
            let [plain, arch, observed] = runs.map(|r| median(&r));
            println!(
                "  ops run {name}/{}: plain {plain:.1} us, +arch profile {arch:.1} us ({:.2}x), \
                 +arch+watch {observed:.1} us ({:.2}x)",
                p.kernel.name,
                arch / plain,
                observed / plain
            );
            let profile = profile.unwrap_or_default();
            for _ in 0..3 {
                merges.push(timed(|| aggregate.merge(&profile)).1);
            }
        }
    }
    layers.set("probe.arch_merge_us", median(&merges));
}

/// Per (model, variant) accumulation of the traced kernel section.
#[derive(Default, Clone)]
struct Cell {
    run_us: f64,
    cycles: u64,
}

/// What a traced section reports back to the driver.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    /// The section's end-to-end figures on the traced path, summarized
    /// the way the untraced run summarizes its own.
    pub path: EndToEnd,
    /// Unaccounted share of the section's traced operation.
    pub unaccounted_share: f64,
}

/// The traced kernel section: every kernel of the long suite on all six
/// variants, interleaved per kernel, with stage times per job. Runs at
/// least one round and then until `deadline`; `focus` picks the variant
/// whose job breakdown is printed.
pub fn section(seed: u64, deadline: Instant, focus: Variant, layers: &mut Layers) -> Traced {
    let wbs = workbenches();
    let suite = prepare(&wbs, long_suite());
    let mut rng = Rng::new(seed ^ 0x6b65_726e);
    let mut cells = vec![vec![Cell::default(); ALL_VARIANTS.len()]; MODELS.len()];
    let mut focus_runs: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut focus_cycles = vec![0; suite.len()];
    let mut focus_rounds = Vec::new();
    let mut focus_times: Vec<(usize, JobTimes)> = Vec::new();
    let mut traced =
        Traced { attempted: 0, failed: 0, path: EndToEnd::default(), unaccounted_share: 0.0 };
    let mut first_round = true;
    // (decode requests, cache hits) per plain backend over the first round.
    let mut decodes = [(0u64, 0u64); 3];
    loop {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut focus_round = Round::default();
        for &k in &order {
            let p = &suite[k];
            let wb = &wbs[p.model];
            let mut outs = Vec::with_capacity(ALL_VARIANTS.len());
            for (vi, &v) in ALL_VARIANTS.iter().enumerate() {
                let factor = host_factor(Calibration::Interpreter);
                let (out, t) = kernel_job(wb, p, v);
                traced.attempted += 1;
                let cell = &mut cells[p.model][vi];
                cell.run_us += t.run;
                cell.cycles += out.cycles;
                if v == focus {
                    focus_runs[k].push(factor * t.run);
                    focus_cycles[k] = out.cycles;
                    focus_round.add(t.run, factor, out.cycles);
                    focus_times.push((p.model, t));
                }
                outs.push(out);
            }
            let reference = &outs[0];
            for out in &outs {
                let same = out.ok
                    && out.cycles == reference.cycles
                    && out.digest == reference.digest
                    && out.stats.instructions_retired == reference.stats.instructions_retired
                    && out.stats.stalls == reference.stats.stalls
                    && out.stats.flushes == reference.stats.flushes;
                if !same {
                    traced.failed += 1;
                }
            }
            if first_round {
                let name = &p.kernel.name;
                layers.set(format!("sim.cycles.{name}"), reference.cycles as f64);
                let model = MODELS[p.model];
                for (counter, value) in [
                    ("instructions_retired", reference.stats.instructions_retired),
                    ("stalls", reference.stats.stalls),
                    ("flushes", reference.stats.flushes),
                ] {
                    let key = format!("sim.{counter}.{model}");
                    let sum = layers.get(&key) + value as f64;
                    layers.set(key, sum);
                }
                for (vi, total) in decodes.iter_mut().enumerate() {
                    total.0 += outs[vi].stats.decodes;
                    total.1 += outs[vi].stats.decode_cache_hits;
                }
            }
        }
        focus_rounds.push(focus_round);
        first_round = false;
        if Instant::now() >= deadline {
            break;
        }
    }
    for (v, (requests, hits)) in [INTERP, COMPILED, OPS].iter().zip(decodes) {
        layers
            .set(format!("sim.decode_hit_ratio.{}", v.label), hits as f64 / requests.max(1) as f64);
    }
    let ns_per_cycle = |c: &Cell| 1e3 * c.run_us / c.cycles.max(1) as f64;
    for (m, model) in MODELS.iter().enumerate() {
        for (vi, v) in ALL_VARIANTS.iter().enumerate() {
            if matches!(v.label, "interp" | "compiled" | "ops" | "ops_observed") {
                let key = format!("sim.run_ns_per_cycle.{model}.{}", v.label);
                layers.set(key, ns_per_cycle(&cells[m][vi]));
            }
        }
    }
    let total = |vi: usize| {
        let mut sum = Cell::default();
        for row in &cells {
            sum.run_us += row[vi].run_us;
            sum.cycles += row[vi].cycles;
        }
        ns_per_cycle(&sum)
    };
    for (plain, observed) in [(0, 3), (1, 4), (2, 5)] {
        let key = format!("probe.arch_overhead_ratio.{}", ALL_VARIANTS[plain].label);
        layers.set(key, total(observed) / total(plain));
    }

    traced.path.summarize(&focus_rounds, BEST_OF);
    traced.path.sim_mcps = suite_mcps(&focus_cycles, &focus_runs);
    let col =
        |f: fn(&JobTimes) -> f64| mean(&focus_times.iter().map(|(_, t)| f(t)).collect::<Vec<_>>());
    let decoder = mean(
        &focus_times
            .iter()
            .map(|(m, _)| layers.get(&format!("isa.decoder_new_us.{}", MODELS[*m])))
            .collect::<Vec<_>>(),
    );
    let new = col(|t| t.new);
    let stages = [
        Stage { name: "Decoder::new (est.)", layer: "isa", self_us: decoder.min(new) },
        Stage { name: "Simulator::new rest", layer: "sim", self_us: (new - decoder).max(0.0) },
        Stage { name: "load", layer: "sim", self_us: col(|t| t.load) },
        Stage { name: "predecode", layer: "sim", self_us: col(|t| t.predecode) },
        Stage { name: "arm probes+arch", layer: "probe", self_us: col(|t| t.arm) },
        Stage { name: "run_to_halt", layer: "sim", self_us: col(|t| t.run) },
        Stage { name: "arch_profile()", layer: "probe", self_us: col(|t| t.extract) },
    ];
    traced.unaccounted_share =
        print_breakdown(&format!("kernel job ({})", focus.label), col(|t| t.total), &stages);
    traced
}
