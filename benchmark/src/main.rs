//! The repository benchmark for the LISA simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload kernels-ops --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run prints a human-readable report and, as its last line, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics;
//! with `--trace 1` they are the per-layer metrics, measured by timing
//! calls into each crate's public functions from the outside. The run
//! exits 1 when any operation failed or produced wrong output, and 2 on
//! a usage error. `benchmark/README.md` documents every workload and
//! metric.

mod batch;
mod fuzz;
mod kernels;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kernels::{Traced, Variant, MODELS};
use report::{num, peak_rss_mb, EndToEnd, Layers};

const USAGE: &str = "usage: lisa-benchmark --workload <kernels-interp|kernels-ops|\
kernels-observed|serve-short|batch-matrix|fuzz-lockstep> --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, each chosen so that one layer does most of its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Kernels(Variant),
    ServeShort,
    BatchMatrix,
    FuzzLockstep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "kernels-interp" => Workload::Kernels(kernels::INTERP),
            "kernels-ops" => Workload::Kernels(kernels::OPS),
            "kernels-observed" => Workload::Kernels(kernels::OPS_OBSERVED),
            "serve-short" => Workload::ServeShort,
            "batch-matrix" => Workload::BatchMatrix,
            "fuzz-lockstep" => Workload::FuzzLockstep,
            _ => return None,
        })
    }

    /// What one operation of the workload is.
    fn op(self) -> &'static str {
        match self {
            Workload::Kernels(_) => "kernel run",
            Workload::ServeShort => "request",
            Workload::BatchMatrix => "job",
            Workload::FuzzLockstep => "program",
        }
    }

    fn run(self, seed: u64, budget: Duration) -> EndToEnd {
        match self {
            Workload::Kernels(v) => kernels::run(seed, v, budget),
            Workload::ServeShort => serve::run(seed, budget),
            Workload::BatchMatrix => batch::run(seed, budget),
            Workload::FuzzLockstep => fuzz::run(seed, budget),
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut name = String::new();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
                name.clone_from(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err("`--seconds` must be between 1 and 600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}` (0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        name,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Every per-layer metric of a traced run, with its unit, in report order.
fn per_layer_spec() -> Vec<(String, &'static str)> {
    let mut spec: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| spec.push((name, unit));
    for m in MODELS {
        add(format!("core.model_build_us.{m}"), "us");
    }
    for m in MODELS {
        add(format!("isa.decoder_new_us.{m}"), "us");
    }
    for m in MODELS {
        add(format!("asm.assemble_us.{m}"), "us");
    }
    for m in MODELS {
        for b in ["interp", "compiled", "ops"] {
            add(format!("sim.new_us.{m}.{b}"), "us");
        }
    }
    for m in MODELS {
        add(format!("sim.load_us.{m}"), "us");
    }
    for m in MODELS {
        for b in ["compiled", "ops"] {
            add(format!("sim.predecode_us.{m}.{b}"), "us");
        }
    }
    for m in MODELS {
        for b in ["interp", "compiled", "ops", "ops_observed"] {
            add(format!("sim.run_ns_per_cycle.{m}.{b}"), "ns");
        }
    }
    for (_, k) in kernels::long_suite() {
        add(format!("sim.cycles.{}", k.name), "count");
    }
    for counter in ["instructions_retired", "stalls", "flushes"] {
        for m in MODELS {
            add(format!("sim.{counter}.{m}"), "count");
        }
    }
    for b in ["interp", "compiled", "ops"] {
        add(format!("sim.decode_hit_ratio.{b}"), "ratio");
    }
    for b in ["interp", "compiled", "ops"] {
        add(format!("probe.arch_overhead_ratio.{b}"), "ratio");
    }
    add("probe.arch_merge_us".to_owned(), "us");
    for name in ["http_parse_us", "request_decode_us", "response_encode_us"] {
        add(format!("serve.{name}"), "us");
    }
    for m in MODELS {
        add(format!("serve.dispatch_us.{m}"), "us");
    }
    for name in ["transport_us", "queue_wait_us", "unaccounted_us"] {
        add(format!("serve.{name}"), "us");
    }
    add("exec.job_p50_us".to_owned(), "us");
    add("exec.job_p90_us".to_owned(), "us");
    add("exec.worker_busy_ratio".to_owned(), "ratio");
    for metric in ["check_us", "gen_us"] {
        for m in MODELS {
            add(format!("conform.{metric}.{m}"), "us");
        }
    }
    for count in ["halted", "budget", "errored", "paths"] {
        for m in MODELS {
            add(format!("conform.{count}.{m}"), "count");
        }
    }
    add("breakdown.unaccounted_share".to_owned(), "ratio");
    for metric in ["sim_mcps", "ops_per_s", "op_p50_us"] {
        add(format!("trace.overhead_ratio.{metric}"), "ratio");
    }
    add("fail_ratio".to_owned(), "ratio");
    spec
}

/// The traced run: the untraced workload on a third of the budget (the
/// baseline for the tracing overhead), the static layer costs, one
/// round of every other layer section, then the workload's own section
/// until the budget is spent.
fn traced_run(args: &Args, budget: Duration) -> (u64, u64, Layers) {
    let start = Instant::now();
    let untraced = args.workload.run(args.seed, budget / 3);
    let mut layers = Layers::default();
    kernels::static_costs(&mut layers);
    let focus = match args.workload {
        Workload::Kernels(v) => v,
        _ => kernels::OPS,
    };
    let once = Instant::now();
    let end = start + budget;
    let own = |w: Workload| if w == args.workload { end } else { once };
    let mut sections: Vec<(Workload, Traced)> = Vec::new();
    let kernel_deadline = match args.workload {
        Workload::Kernels(_) => end,
        _ => once,
    };
    println!("traced sections (own section last):");
    let order: [Workload; 4] = {
        let mut all = [
            Workload::Kernels(focus),
            Workload::ServeShort,
            Workload::BatchMatrix,
            Workload::FuzzLockstep,
        ];
        let own_at = all.iter().position(|&w| w == args.workload).unwrap_or(0);
        all[own_at..].rotate_left(1);
        all
    };
    for w in order {
        let traced = match w {
            Workload::Kernels(v) => kernels::section(args.seed, kernel_deadline, v, &mut layers),
            Workload::ServeShort => serve::section(args.seed, own(w), &mut layers),
            Workload::BatchMatrix => batch::section(args.seed, own(w), &mut layers),
            Workload::FuzzLockstep => fuzz::section(args.seed, own(w), &mut layers),
        };
        sections.push((w, traced));
    }
    let (_, mine) = sections.last().expect("own section ran");
    // Each ratio reads above 1 when the traced path is slower.
    println!("tracing overhead (untraced vs traced, median of rounds, ratio):");
    for (metric, untraced, traced, ratio) in [
        ("sim_mcps", untraced.sim_mcps, mine.path.sim_mcps, untraced.sim_mcps / mine.path.sim_mcps),
        (
            "ops_per_s",
            untraced.ops_per_s,
            mine.path.ops_per_s,
            untraced.ops_per_s / mine.path.ops_per_s,
        ),
        (
            "op_p50_us",
            untraced.op_p50_us,
            mine.path.op_p50_us,
            mine.path.op_p50_us / untraced.op_p50_us,
        ),
    ] {
        println!("  {metric:<10} {untraced:>14.4} {traced:>14.4} {ratio:>8.3}");
        layers.set(format!("trace.overhead_ratio.{metric}"), ratio);
    }
    layers.set("breakdown.unaccounted_share", mine.unaccounted_share);
    let attempted = untraced.attempted + sections.iter().map(|(_, t)| t.attempted).sum::<u64>();
    let failed = untraced.failed + sections.iter().map(|(_, t)| t.failed).sum::<u64>();
    layers.set("fail_ratio", failed as f64 / attempted.max(1) as f64);
    (attempted, failed, layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lisa-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    println!(
        "workload {} seed {} seconds {} trace {} (host threads: {})",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let (attempted, failed, metrics) = if args.trace {
        let (attempted, failed, layers) = traced_run(&args, budget);
        (attempted, failed, layers.to_json(&per_layer_spec()))
    } else {
        let e2e = args.workload.run(args.seed, budget);
        e2e.print(args.workload.op());
        let metrics = format!(
            "{{\"setup_s\": {{\"value\": {}, \"unit\": \"s\"}}, \
             \"sim_mcps\": {{\"value\": {}, \"unit\": \"Mcycles/s\"}}, \
             \"ops_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}, \
             \"op_p50_us\": {{\"value\": {}, \"unit\": \"us\"}}, \
             \"op_p90_us\": {{\"value\": {}, \"unit\": \"us\"}}, \
             \"peak_rss_mb\": {{\"value\": {}, \"unit\": \"MB\"}}}}",
            num(e2e.setup_s),
            num(e2e.sim_mcps),
            num(e2e.ops_per_s),
            num(e2e.op_p50_us),
            num(e2e.op_p90_us),
            num(peak_rss_mb()),
        );
        (e2e.attempted, e2e.failed, metrics)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
