//! `lisa-tool` — command-line front-end for the LISA toolchain.
//!
//! ```text
//! lisa-tool check  <model>                     parse + analyse, report stats/warnings
//! lisa-tool stats  <model>                     model complexity table (E1 metrics)
//! lisa-tool doc    <model> [-o FILE]           generate the ISA manual
//! lisa-tool asm    <model> <prog.s> [-o FILE]  assemble a program (listing to stdout)
//! lisa-tool disasm <model> <image.hex>         disassemble an image
//! lisa-tool run    <model> <prog.s> [options]  assemble + simulate to halt
//!     --mode interp|compiled|ops    backend (default compiled, an alias of ops)
//!     --max-steps N             step budget (default 1000000)
//!     --trace                   print the execution trace
//!     --dump RES[:N]            print a resource (first N elements) after the run
//!     --probe EXPR              arm probes (`watch dmem[0..16]; break 5; reg R`);
//!                               a matched `break` stops the run early
//!     --arch-profile FILE       collect + write the architectural profile
//!                               (.json for JSON, anything else for the report)
//! lisa-tool trace  <model> <prog.s> [options]  run + export the structured trace
//!     --out FILE                write to FILE instead of stdout
//!     --vcd                     emit a pipeline-timeline VCD instead of JSON lines
//!     --spans                   also print runtime spans (JSONL) after the run
//!     --probe EXPR              arm probes; hits appear in the event stream
//! lisa-tool profile <model> <prog.s> [options] run + print the architecture profile
//!                                              (`inspect` is the same command)
//!     --probe EXPR              arm probes; hit counts join the report
//!     --json                    print the profile as JSON instead of text
//! lisa-tool batch  [options]                   run the builtin models x kernels matrix
//!     --workers N               worker threads (default: available parallelism)
//!     --mode interp|compiled|ops|both|all   backends (default both = all = interp + ops)
//!     --profile                 collect + print the merged architecture profile
//!     --spans FILE              write a Perfetto-loadable Chrome trace of the run
//! lisa-tool fuzz   [model] [options]           differential conformance fuzzing
//!     --model M                 model to fuzz (default: all builtins)
//!     --seed N                  master seed (default 0)
//!     --start N                 first iteration index (default 0)
//!     --iters N                 fresh programs per model (default 500)
//!     --corpus-dir DIR          replay reproducers first; persist new failures
//!                               (verified: unreadable or hash-mismatched files abort)
//!     --max-len N               longest synthesized prefix (default 24)
//!     --max-cycles N            cycle budget per run (default 2000)
//!     --self-check              only validate the harness via fault injection
//!     --distill FILE            write the distilled covering seed set as JSON
//! lisa-tool bench  [options]                   benchmark models x backends x kernels
//!     --quick                   reduced suite (1 kernel per model)
//!     --repeats N               timed runs per cell (default 3, --quick 2)
//!     --out DIR                 output directory (default: the current directory)
//! lisa-tool serve  [options]                   HTTP simulation service
//!     --addr A                  bind address (default 127.0.0.1:8080; port 0 = ephemeral)
//!     --workers N               connection worker threads (default 4)
//!     --queue N                 accept-queue capacity; full queue sheds 503 (default 64)
//!     --timeout-ms N            per-request deadline in milliseconds (default 5000)
//!     --once                    serve a single connection, then exit
//! ```
//!
//! `run`, `trace`, `batch`, `fuzz` and `bench` also accept `--metrics
//! FILE` to dump the run's metric registry in Prometheus text format.
//!
//! Exit codes: `0` success; `1` the tools ran but the work failed (batch
//! job failures, fuzz divergence); `2` usage or model/program errors.
//!
//! `<model>` is a `.lisa` file path or one of the builtins `@vliw62`,
//! `@accu16`, `@scalar2`, `@tinyrisc`. VLIW packing (`||` bars, p-bits) is enabled
//! automatically for `@vliw62`; use `--packet N` for custom VLIW models.

use std::fs;
use std::process::ExitCode;

use lisa::core::model::ModelStats;
use lisa::metrics::Registry;
use lisa::models::Workbench;
use lisa::sim::SimMode;

/// CLI failure, split by exit code: `Usage` exits 2 (bad invocation,
/// unreadable input, model errors), `Failed` exits 1 (the tools ran but
/// the work failed — job failures, divergences).
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failed(msg)) => {
            eprintln!("lisa-tool: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("lisa-tool: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(usage().into());
    };
    if let Some(flags) = command_flags(command) {
        check_flags(command, flags, &args[1..])?;
    }
    match command.as_str() {
        "check" => Ok(check(args.get(1).ok_or_else(usage)?)?),
        "stats" => Ok(stats(args.get(1).ok_or_else(usage)?)?),
        "doc" => Ok(doc(args.get(1).ok_or_else(usage)?, flag_value(args, "-o"))?),
        "asm" => Ok(asm(args)?),
        "disasm" => Ok(disasm(args)?),
        "run" => Ok(simulate(args)?),
        "trace" => Ok(trace_cmd(args)?),
        "profile" | "inspect" => Ok(profile_cmd(args)?),
        "batch" => batch(args),
        "fuzz" => fuzz(args),
        "bench" => bench(args),
        "serve" => serve(args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

/// The flags a command takes, space-separated, a trailing `=` marking
/// one that takes a value; `None` for an unknown command.
fn command_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "check" | "stats" | "help" | "--help" | "-h" => "",
        "doc" => "-o=",
        "asm" => "-o= --packet=",
        "disasm" => "--packet=",
        "run" => {
            "--mode= --max-steps= --packet= --metrics= --trace --dump= --probe= --arch-profile="
        }
        "trace" => "--mode= --max-steps= --packet= --metrics= --out= --vcd --spans --probe=",
        "profile" | "inspect" => "--mode= --max-steps= --packet= --metrics= --probe= --json",
        "batch" => "--workers= --mode= --profile --metrics= --spans=",
        "fuzz" => {
            "--model= --seed= --start= --iters= --corpus-dir= --max-len= --max-cycles= \
             --self-check --metrics= --distill="
        }
        "bench" => "--quick --repeats= --out= --metrics=",
        "serve" => "--addr= --workers= --queue= --timeout-ms= --once",
        _ => return None,
    })
}

/// Rejects an argument that looks like a flag (starts with `-`) but is
/// not one of `flags`, and a value flag given last with no value.
fn check_flags(command: &str, flags: &str, args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            continue;
        }
        match flags.split_whitespace().find(|f| f.trim_end_matches('=') == arg) {
            Some(flag) if flag.ends_with('=') && rest.next().is_none() => {
                return Err(format!("`{command}`: flag `{arg}` needs a value\n{}", usage()));
            }
            Some(_) => {}
            None => return Err(format!("`{command}` takes no flag `{arg}`\n{}", usage())),
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: lisa-tool <check|stats|doc|asm|disasm|run|trace|profile|inspect|batch|fuzz|bench|serve> <model> [...]\n\
     model: a .lisa file or @vliw62 | @accu16 | @scalar2 | @tinyrisc\n\
     run options: --mode interp|compiled|ops  --max-steps N  --trace  --dump RES[:N]\n\
                  --probe EXPR  --arch-profile FILE  --metrics FILE  --packet N\n\
     trace options: --out FILE  --vcd  --spans  --probe EXPR  --metrics FILE\n\
                    --mode M  --max-steps N  --packet N\n\
     profile/inspect options: --probe EXPR  --json  --metrics FILE\n\
                              --mode M  --max-steps N  --packet N\n\
     asm/disasm options: -o FILE  --packet N\n\
     batch options: --workers N  --mode interp|compiled|ops|both|all  --profile\n\
                    --metrics FILE\n\
                    --spans FILE\n\
     fuzz options: --model M|all  --seed N  --start N  --iters N  --corpus-dir DIR\n\
                   --max-len N  --max-cycles N  --self-check  --metrics FILE\n\
                   --distill FILE\n\
     bench options: --quick  --repeats N  --out DIR  --metrics FILE\n\
     serve options: --addr A  --workers N  --queue N  --timeout-ms N  --once\n\
     exit codes: 0 ok; 1 jobs failed / divergence; 2 usage or model error"
        .to_owned()
}

/// Writes the registry's snapshot in Prometheus text format when the
/// command was given `--metrics FILE`.
fn dump_metrics(args: &[String], registry: &Registry) -> Result<(), String> {
    if let Some(path) = flag_value(args, "--metrics") {
        fs::write(path, registry.snapshot().to_prometheus())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The builtin models, by their `@name` specs.
const BUILTINS: [&str; 4] = ["@tinyrisc", "@scalar2", "@accu16", "@vliw62"];

/// Builds the workbench for a model spec: a builtin (`@name`), or a
/// `.lisa` file whose programs load into `pmem` and which halts on
/// `halt`.
fn workbench(spec: &str) -> Result<Workbench, String> {
    let wb = match spec {
        "@vliw62" => lisa::models::vliw62::workbench(),
        "@accu16" => lisa::models::accu16::workbench(),
        "@scalar2" => lisa::models::scalar2::workbench(),
        "@tinyrisc" => lisa::models::tinyrisc::workbench(),
        path => {
            let text =
                fs::read_to_string(path).map_err(|e| format!("cannot read model `{path}`: {e}"))?;
            Workbench::from_source(&text, "pmem", "halt")
        }
    };
    wb.map_err(|e| e.to_string())
}

/// The program assembler for a workbench, packing `--packet N` words
/// per fetch packet when given (the workbench's own packing otherwise).
fn assembler<'m>(wb: &'m Workbench, args: &[String]) -> lisa::asm::Assembler<'m> {
    match flag_value(args, "--packet").and_then(|v| v.parse().ok()) {
        Some(n) => lisa::asm::Assembler::with_packet(wb.model(), n, 1),
        None => wb.assembler(),
    }
}

fn check(spec: &str) -> Result<(), String> {
    let wb = workbench(spec)?;
    let model = wb.model();
    println!("ok: {} operations, {} resources", model.operations().len(), model.resources().len());
    for warning in model.warnings() {
        println!("warning: {warning}");
    }
    if model.decode_roots().is_empty() {
        println!("note: no decode root — decoder/assembler generation will fail");
    }
    if model.main_op().is_none() {
        println!("note: no `main` operation — the simulator has no cycle driver");
    }
    Ok(())
}

fn stats(spec: &str) -> Result<(), String> {
    println!("{}", ModelStats::of(workbench(spec)?.model()));
    Ok(())
}

fn doc(spec: &str, out: Option<&str>) -> Result<(), String> {
    let title = spec.trim_start_matches('@');
    let manual = lisa::docgen::manual(workbench(spec)?.model(), title);
    match out {
        Some(path) => {
            fs::write(path, &manual).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {path} ({} lines)", manual.lines().count());
        }
        None => print!("{manual}"),
    }
    Ok(())
}

fn asm(args: &[String]) -> Result<(), String> {
    let wb = workbench(args.get(1).ok_or_else(usage)?)?;
    let program_path = args.get(2).ok_or_else(usage)?;
    let source = fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read `{program_path}`: {e}"))?;
    let program = assembler(&wb, args).assemble(&source).map_err(|e| e.to_string())?;
    print!("{}", program.listing);
    if let Some(path) = flag_value(args, "-o") {
        let hex: String = program.words.iter().map(|w| format!("{w:08x}\n")).collect();
        fs::write(path, hex).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {} words to {path} (origin {:#x})", program.words.len(), program.origin);
    }
    Ok(())
}

fn disasm(args: &[String]) -> Result<(), String> {
    let wb = workbench(args.get(1).ok_or_else(usage)?)?;
    let image_path = args.get(2).ok_or_else(usage)?;
    let text =
        fs::read_to_string(image_path).map_err(|e| format!("cannot read `{image_path}`: {e}"))?;
    let words: Vec<u128> = text
        .split_whitespace()
        .map(|t| u128::from_str_radix(t.trim_start_matches("0x"), 16))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad hex word: {e}"))?;
    print!("{}", assembler(&wb, args).disassemble_listing(&words, 0));
    Ok(())
}

/// Runs a program with structured tracing on and exports the events as
/// JSON lines (default) or a pipeline-timeline VCD (`--vcd`).
fn trace_cmd(args: &[String]) -> Result<(), String> {
    let run = load_run(args)?;
    let mode = sim_mode(args)?;
    let mut sim = boot_sim(&run, mode)?;
    sim.set_trace(true);
    arm_probes(args, &mut sim)?;

    // With --spans, hang the simulator's spans off a synthetic `run`
    // root so the exported tree is connected.
    let spans = has_flag(args, "--spans").then(|| {
        let recorder = std::sync::Arc::new(lisa::spans::SpanRecorder::new(1 << 16));
        recorder.set_enabled(true);
        let scope = lisa::spans::SpanScope::new(std::sync::Arc::clone(&recorder), 1);
        let root = scope.start(lisa::spans::SpanKind::Run);
        sim.set_spans(Some(scope.child(root.id())));
        (recorder, root)
    });
    let cycles = run_to_halt(&mut sim, &run, max_steps(args)?)?.cycles;
    let span_lines = spans.map(|(recorder, root)| {
        drop(root);
        lisa::spans::export::to_jsonl(&recorder.collect())
    });

    let events = sim.take_events();
    let names = sim.name_table();
    let text = if has_flag(args, "--vcd") {
        let mut buf = Vec::new();
        lisa::trace::write_vcd(&names, &events, &mut buf)
            .map_err(|e| format!("cannot render VCD: {e}"))?;
        String::from_utf8(buf).map_err(|e| format!("VCD is not UTF-8: {e}"))?
    } else {
        lisa::trace::events_to_jsonl(&names, &events)
    };
    match flag_value(args, "--out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {} events over {cycles} control steps to {path}", events.len());
        }
        None => print!("{text}"),
    }
    if let Some(lines) = span_lines {
        print!("{lines}");
    }
    dump_run_metrics(args, &sim, mode)?;
    Ok(())
}

/// Runs a program with the architecture profile on and prints its
/// report (or `--json`): IPC, the operation histogram, hot PCs, the
/// stage occupancy/stall/flush table, unit utilization, memory heatmaps
/// and probe hit counts. `profile` and `inspect` both land here.
fn profile_cmd(args: &[String]) -> Result<(), String> {
    let run = load_run(args)?;
    let mode = sim_mode(args)?;
    let mut sim = boot_sim(&run, mode)?;
    arm_probes(args, &mut sim)?;
    sim.enable_arch_profile();
    let outcome = run_to_halt(&mut sim, &run, max_steps(args)?)?;
    let profile = sim.arch_profile().ok_or("architecture profiling produced no data")?;
    if has_flag(args, "--json") {
        println!("{}", profile.to_json());
    } else {
        let stop = match outcome.reason {
            lisa::sim::StopReason::Halted => "halted",
            lisa::sim::StopReason::Breakpoint { .. } => "stopped at a breakpoint",
        };
        println!("{stop} after {} control steps ({mode:?})", outcome.cycles);
        print!("{}", profile.report());
    }
    dump_run_metrics(args, &sim, mode)?;
    Ok(())
}

/// Runs every builtin kernel on every builtin model (the models×kernels
/// matrix) across the selected backends on a worker pool.
fn batch(args: &[String]) -> Result<(), CliError> {
    let workers: usize = match flag_value(args, "--workers") {
        Some(v) => v.parse().map_err(|e| format!("bad --workers: {e}"))?,
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    let modes = SimMode::parse_set(flag_value(args, "--mode").unwrap_or("both"))?;

    let profile = has_flag(args, "--profile");
    let matrix = lisa::models::kernels::full_matrix().map_err(|e| e.to_string())?;
    let scenarios: Vec<lisa::exec::Scenario<'_>> = matrix
        .iter()
        .flat_map(|(wb, kernels)| {
            kernels.iter().flat_map(move |kernel| {
                modes.iter().map(move |&mode| wb.scenario(kernel, mode).profiled(profile))
            })
        })
        .collect();

    let registry = Registry::new();
    let mut observer = lisa::exec::BatchObserver::new().with_metrics(&registry);
    // Live heartbeat with ETA when a human is watching; file/pipe
    // consumers (tests, CI logs) get the silent deterministic output.
    if std::io::IsTerminal::is_terminal(&std::io::stderr()) {
        observer = observer.with_heartbeat(std::time::Duration::from_secs(1), |p| {
            eprintln!("batch: {}", p.line());
        });
    }
    let spans = flag_value(args, "--spans").map(|path| {
        let recorder = std::sync::Arc::new(lisa::spans::SpanRecorder::new(1 << 18));
        recorder.set_enabled(true);
        (path.to_owned(), recorder)
    });
    if let Some((_, recorder)) = &spans {
        observer =
            observer.with_spans(lisa::spans::SpanScope::new(std::sync::Arc::clone(recorder), 1));
    }
    let report = lisa::exec::BatchRunner::new(workers).run_observed(&scenarios, &observer);
    print!("{}", report.table());
    if let Some((path, recorder)) = &spans {
        let collected = recorder.collect();
        let chrome = lisa::spans::export::to_chrome_trace(&collected);
        fs::write(path, chrome).map_err(|e| format!("cannot write spans to `{path}`: {e}"))?;
        println!(
            "{} span(s) written to {path} (Chrome trace; load at https://ui.perfetto.dev)",
            collected.len()
        );
    }
    for job in &report.jobs {
        if let Ok(r) = &job.result {
            lisa::sim::publish_stats(&registry, &r.stats, scenarios[job.index].mode.metric_label());
        }
    }
    dump_metrics(args, &registry)?;
    if let Some(merged) = report.merged_profile() {
        println!("\nmerged profile:");
        print!("{}", merged.report());
    }
    if report.all_passed() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "{} of {} jobs failed",
            report.failures().len(),
            report.jobs.len()
        )))
    }
}

/// Benchmarks every builtin model × both backends × its kernel suite and
/// records the schema-versioned `BENCH_<date>.json` trajectory (E15's
/// `table_ops_speed` is the speed regression gate).
fn bench(args: &[String]) -> Result<(), CliError> {
    let quick = has_flag(args, "--quick");
    let repeats: u32 = parse_flag(args, "--repeats", if quick { 2 } else { 3 })?;

    let registry = Registry::new();
    let report = lisa_bench::trajectory::measure(quick, repeats, Some(&registry));
    print!("{}", report.table());

    let out_dir = flag_value(args, "--out").map(std::path::PathBuf::from).unwrap_or_default();
    let path = out_dir.join(format!("BENCH_{}.json", report.date));
    fs::write(&path, report.to_json())
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!("wrote {}", path.display());
    dump_metrics(args, &registry)?;
    Ok(())
}

/// Boots the HTTP simulation service and blocks until shutdown (or, with
/// `--once`, until the first connection has been served).
fn serve(args: &[String]) -> Result<(), CliError> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:8080").to_owned();
    let workers: usize = parse_flag(args, "--workers", 4)?;
    let queue: usize = parse_flag(args, "--queue", 64)?;
    let timeout_ms: u64 = parse_flag(args, "--timeout-ms", 5000)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned().into());
    }
    if queue == 0 {
        return Err("--queue must be at least 1".to_owned().into());
    }
    if timeout_ms == 0 {
        return Err("--timeout-ms must be at least 1".to_owned().into());
    }

    let config = lisa::serve::ServeConfig {
        addr: addr.clone(),
        workers,
        queue,
        timeout: std::time::Duration::from_millis(timeout_ms),
        once: has_flag(args, "--once"),
        limits: lisa::serve::http::Limits::default(),
    };
    let state = std::sync::Arc::new(lisa::serve::AppState::new());
    let server = lisa::serve::Server::bind(config, state)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Announce the resolved address (and flush) before accepting, so
    // scripts driving `--addr 127.0.0.1:0` can scrape the port.
    println!(
        "serving on http://{local} ({workers} workers, queue {queue}, timeout {timeout_ms}ms)"
    );
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let summary =
        server.run().map_err(|e| CliError::Failed(format!("server error on {local}: {e}")))?;
    println!("serve done: accepted {} connection(s), shed {}", summary.accepted, summary.shed);
    Ok(())
}

/// Differential conformance fuzzing: replay the corpus, then synthesize
/// fresh programs and run the full oracle stack on each.
fn fuzz(args: &[String]) -> Result<(), CliError> {
    let spec = flag_value(args, "--model")
        .or_else(|| args.get(1).map(String::as_str).filter(|a| !a.starts_with("--")))
        .unwrap_or("all");
    let config = lisa::conform::FuzzConfig {
        seed: parse_flag(args, "--seed", 0)?,
        start: parse_flag(args, "--start", 0)?,
        iters: parse_flag(args, "--iters", 500)?,
        max_len: parse_flag(args, "--max-len", 24)?,
        max_cycles: parse_flag(args, "--max-cycles", 2000)?,
        fault: None,
    };
    let corpus_dir = flag_value(args, "--corpus-dir").map(std::path::PathBuf::from);
    let self_check_only = has_flag(args, "--self-check");

    // `fuzz` also names a builtin without its `@`.
    let builtin = format!("@{spec}");
    let specs: Vec<&str> = if spec == "all" {
        BUILTINS.to_vec()
    } else if BUILTINS.contains(&builtin.as_str()) {
        vec![&builtin]
    } else {
        vec![spec]
    };

    // An untrustworthy corpus aborts the whole run up front — exit 1
    // with the typed diagnostic, before any replay or fresh fuzzing.
    if let Some(dir) = &corpus_dir {
        lisa::conform::corpus::load_dir_verified(dir)
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }

    let distill_path = flag_value(args, "--distill");
    let registry = Registry::new();
    let mut failed = Vec::new();
    let mut distilled = Vec::new();
    for spec in specs {
        let wb = workbench(spec)?;
        let name = match spec.strip_prefix('@') {
            Some(builtin) => builtin.to_owned(),
            None => std::path::Path::new(spec)
                .file_stem()
                .map_or_else(|| spec.to_owned(), |s| s.to_string_lossy().into_owned()),
        };
        match fuzz_one(
            &name,
            &wb,
            config,
            corpus_dir.as_deref(),
            self_check_only,
            distill_path.is_some(),
            &registry,
        ) {
            Ok(Some(d)) => distilled.push((name, d)),
            Ok(None) => {}
            Err(msg) => {
                eprintln!("{msg}");
                failed.push(name);
            }
        }
    }
    if let Some(path) = distill_path {
        let mut out = String::from("{");
        for (i, (name, d)) in distilled.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let indices: Vec<String> = d.indices.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\"{name}\": {{\"seed\": {}, \"paths\": {}, \"indices\": [{}]}}",
                config.seed,
                d.coverage.len(),
                indices.join(", ")
            ));
        }
        out.push('}');
        fs::write(path, out)
            .map_err(|e| CliError::Usage(format!("cannot write distilled set to `{path}`: {e}")))?;
        println!("distilled seed set written to {path}");
    }
    dump_metrics(args, &registry)?;
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failed(format!("conformance failures in: {}", failed.join(", "))))
    }
}

/// Fuzzes one model: harness self-check, corpus replay, fresh programs.
/// Returns the distilled covering seed set when `distill` is requested
/// and the run was clean.
fn fuzz_one<'a>(
    name: &str,
    wb: &'a Workbench,
    config: lisa::conform::FuzzConfig,
    corpus_dir: Option<&std::path::Path>,
    self_check_only: bool,
    distill: bool,
    registry: &'a Registry,
) -> Result<Option<lisa::conform::Distilled>, String> {
    use lisa::conform::{corpus, Fuzzer};

    // Prove the harness can catch a real divergence before trusting a
    // clean fuzzing run.
    let caught = Fuzzer::self_check(wb, 4).map_err(|e| format!("{name}: self-check: {e}"))?;
    println!(
        "{name}: self-check ok — injected fault caught by {} oracle, shrunk to {} word(s)",
        caught.verdict.oracle,
        caught.shrunk.len()
    );
    if self_check_only {
        return Ok(None);
    }

    let fuzzer =
        Fuzzer::new(wb, config).map_err(|e| format!("{name}: {e}"))?.with_metrics(registry);

    if let Some(dir) = corpus_dir {
        // Integrity was verified up front in `fuzz`; a failure here
        // (e.g. a file changed underneath us) is still fatal.
        let entries = corpus::load_dir_verified(dir).map_err(|e| e.to_string())?;
        let mine: Vec<_> = entries.iter().filter(|(_, r)| r.model == name).collect();
        for (path, rep) in &mine {
            if let Err(verdict) = fuzzer.replay(rep) {
                return Err(format!(
                    "{name}: regression resurfaced replaying {}: {verdict}",
                    path.display()
                ));
            }
        }
        if !mine.is_empty() {
            println!("{name}: replayed {} corpus reproducer(s), all fixed", mine.len());
        }
    }

    let report = fuzzer.run();
    if let Some(failure) = &report.failure {
        let mut msg = format!(
            "{name}: DIVERGENCE at iteration {} (seed {}): {}\n  shrunk to {} word(s):",
            failure.iteration,
            config.seed,
            failure.verdict,
            failure.shrunk.len()
        );
        for &word in &failure.shrunk {
            let text = wb.disassemble(word).unwrap_or_else(|_| "<undecodable>".to_owned());
            msg.push_str(&format!("\n    {word:#x}  {text}"));
        }
        if let Some(dir) = corpus_dir {
            let rep = fuzzer.reproducer(name, failure);
            match rep.save(dir) {
                Ok(path) => msg.push_str(&format!("\n  reproducer written to {}", path.display())),
                Err(e) => msg.push_str(&format!("\n  could not write reproducer: {e}")),
            }
        }
        return Err(msg);
    }
    println!(
        "{name}: {} iterations ok (halted {}, budget {}, errored {}), \
         {} coding-tree path(s) covered — all oracles agree",
        report.iterations,
        report.halted,
        report.budget,
        report.errored,
        report.coverage.len()
    );
    if distill {
        let d = fuzzer.distill();
        println!(
            "{name}: distilled to {} seed(s) covering all {} path(s)",
            d.indices.len(),
            d.coverage.len()
        );
        return Ok(Some(d));
    }
    Ok(None)
}

/// Parses an integer flag with a default.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag) {
        Some(v) => v.parse().map_err(|e| format!("bad {flag}: {e}")),
        None => Ok(default),
    }
}

/// A workbench + assembled program, ready to be booted into a simulator.
struct LoadedRun {
    wb: Workbench,
    words: Vec<u128>,
    origin: u64,
}

/// Parses `<model> <prog.s>` from positions 1/2 and assembles the program.
fn load_run(args: &[String]) -> Result<LoadedRun, String> {
    let wb = workbench(args.get(1).ok_or_else(usage)?)?;
    let program_path = args.get(2).ok_or_else(usage)?;
    let source = fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read `{program_path}`: {e}"))?;
    let program = assembler(&wb, args).assemble(&source).map_err(|e| e.to_string())?;
    Ok(LoadedRun { words: program.words, origin: program.origin, wb })
}

fn sim_mode(args: &[String]) -> Result<SimMode, String> {
    flag_value(args, "--mode").unwrap_or("compiled").parse()
}

fn max_steps(args: &[String]) -> Result<u64, String> {
    flag_value(args, "--max-steps")
        .map(|v| v.parse().map_err(|e| format!("bad --max-steps: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(1_000_000))
}

/// Builds a simulator from a loaded run: program memory filled
/// (honouring the program origin), pre-decoded in ops mode.
fn boot_sim<'m>(run: &'m LoadedRun, mode: SimMode) -> Result<lisa::sim::Simulator<'m>, String> {
    let mut sim = run.wb.simulator(mode).map_err(|e| e.to_string())?;
    sim.load_program_at(run.wb.program_memory(), run.origin, &run.words)
        .map_err(|e| e.to_string())?;
    Ok(sim)
}

/// Arms `--probe EXPR` probes on a simulator. Returns whether any were
/// armed.
fn arm_probes(args: &[String], sim: &mut lisa::sim::Simulator<'_>) -> Result<bool, String> {
    let Some(expr) = flag_value(args, "--probe") else {
        return Ok(false);
    };
    let spec = lisa::sim::ProbeSpec::parse(expr).map_err(|e| e.to_string())?;
    let set = spec.compile(sim.model()).map_err(|e| e.to_string())?;
    let armed = !set.is_empty();
    sim.set_probes(set);
    Ok(armed)
}

/// Prints the per-probe hit counts after a probed run.
fn print_probe_report(sim: &lisa::sim::Simulator<'_>) {
    println!("probe hits ({} total):", sim.probe_hits());
    for (label, hits) in sim.probe_report() {
        println!("  {label}: {hits}");
    }
}

/// Dumps simulator + probe metrics when `--metrics FILE` was given.
fn dump_run_metrics(
    args: &[String],
    sim: &lisa::sim::Simulator<'_>,
    mode: SimMode,
) -> Result<(), String> {
    if flag_value(args, "--metrics").is_none() {
        return Ok(());
    }
    let registry = Registry::new();
    lisa::sim::publish_stats(&registry, sim.stats(), mode.metric_label());
    if let Some(profile) = sim.arch_profile() {
        lisa::sim::publish_arch(&registry, &profile);
    }
    dump_metrics(args, &registry)
}

/// Runs until the model's halt flag goes nonzero, a `break` probe
/// matches, or the step budget runs out.
fn run_to_halt(
    sim: &mut lisa::sim::Simulator<'_>,
    run: &LoadedRun,
    max_steps: u64,
) -> Result<lisa::sim::RunOutcome, String> {
    let halt_name = run.wb.halt_flag();
    let halt = run
        .wb
        .model()
        .resource_by_name(halt_name)
        .ok_or_else(|| format!("model has no `{halt_name}` flag"))?
        .clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, max_steps)
        .map_err(|e| e.to_string())
}

fn simulate(args: &[String]) -> Result<(), String> {
    let run = load_run(args)?;
    let mode = sim_mode(args)?;
    let mut sim = boot_sim(&run, mode)?;
    sim.set_trace(has_flag(args, "--trace"));
    let probed = arm_probes(args, &mut sim)?;
    let arch_out = flag_value(args, "--arch-profile").map(str::to_owned);
    if arch_out.is_some() {
        sim.enable_arch_profile();
    }

    let t = std::time::Instant::now();
    let outcome = run_to_halt(&mut sim, &run, max_steps(args)?)?;
    let cycles = outcome.cycles;
    let elapsed = t.elapsed();

    if has_flag(args, "--trace") {
        for line in sim.take_trace() {
            println!("{line}");
        }
    }
    let mips = sim.stats().instructions_retired as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6;
    match outcome.reason {
        lisa::sim::StopReason::Breakpoint { probe, pc } => {
            let report = sim.probe_report();
            let label = report
                .get(probe as usize)
                .map_or_else(|| format!("probe #{probe}"), |(label, _)| label.clone());
            println!(
                "stopped at breakpoint `{label}` (pc {pc}) after {cycles} control steps \
                 in {elapsed:?} ({mode:?})"
            );
        }
        lisa::sim::StopReason::Halted => println!(
            "halted after {cycles} control steps in {elapsed:?} ({mode:?}, {mips:.2} simulated MIPS)"
        ),
    }
    println!("stats: {}", sim.stats());
    if probed {
        print_probe_report(&sim);
    }
    if let Some(path) = arch_out {
        let profile = sim.arch_profile().ok_or("architecture profiling produced no data")?;
        let text = if path.ends_with(".json") { profile.to_json() } else { profile.report() };
        fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("architectural profile written to {path}");
    }
    dump_run_metrics(args, &sim, mode)?;

    if let Some(dump) = flag_value(args, "--dump") {
        let (name, count) = match dump.split_once(':') {
            Some((n, c)) => (n, c.parse::<usize>().map_err(|e| format!("bad --dump count: {e}"))?),
            None => (dump, 8),
        };
        let res = run
            .wb
            .model()
            .resource_by_name(name)
            .ok_or_else(|| format!("unknown resource `{name}`"))?;
        if res.is_array() {
            let base = res.dims.first().map_or(0, |d| d.base()) as i64;
            print!("{name} =");
            for i in 0..count.min(res.element_count() as usize) {
                let v = sim.state().read_int(res, &[base + i as i64]).map_err(|e| e.to_string())?;
                print!(" {v}");
            }
            println!();
        } else {
            println!("{name} = {}", sim.state().read_int(res, &[]).map_err(|e| e.to_string())?);
        }
    }
    Ok(())
}
