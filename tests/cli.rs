//! End-to-end tests of the `lisa-tool` command-line binary, driving the
//! real executable the way a user would.

use std::fs;
use std::process::Command;

fn lisa_tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lisa-tool"))
}

fn run_ok(args: &[&str]) -> String {
    let output = lisa_tool().args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "lisa-tool {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn check_reports_model_shape() {
    let out = run_ok(&["check", "@vliw62"]);
    assert!(out.contains("ok:"), "{out}");
    assert!(out.contains("operations"), "{out}");
}

#[test]
fn stats_prints_the_e1_metrics() {
    let out = run_ok(&["stats", "@tinyrisc"]);
    assert!(out.contains("instructions:     15"), "{out}");
    assert!(out.contains("aliases:          1"), "{out}");
}

#[test]
fn doc_writes_a_manual() {
    let dir = std::env::temp_dir().join("lisa_cli_doc_test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manual.md");
    let path_str = path.to_str().unwrap();
    let out = run_ok(&["doc", "@accu16", "-o", path_str]);
    assert!(out.contains("wrote"), "{out}");
    let manual = fs::read_to_string(&path).unwrap();
    assert!(manual.contains("# accu16 Instruction Set Manual"));
    assert!(manual.contains("### `mac`"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn asm_run_and_disasm_round_trip() {
    let dir = std::env::temp_dir().join("lisa_cli_asm_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    let hex = dir.join("prog.hex");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nST R3, R1\nHLT\n").unwrap();

    // Assemble to a hex image.
    let out = run_ok(&["asm", "@tinyrisc", src.to_str().unwrap(), "-o", hex.to_str().unwrap()]);
    assert!(out.contains("MUL R3, R1, R2"), "listing shown: {out}");
    assert!(out.contains("wrote 5 words"), "{out}");

    // Disassemble the image back.
    let out = run_ok(&["disasm", "@tinyrisc", hex.to_str().unwrap()]);
    assert!(out.contains("LDI R1, 6"), "{out}");
    assert!(out.contains("HLT"), "{out}");

    // Run it and dump the register file.
    let out =
        run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--mode", "interp", "--dump", "R:8"]);
    assert!(out.contains("halted after"), "{out}");
    assert!(out.contains("R = 0 6 7 42"), "{out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_vliw_program_with_packets() {
    let dir = std::env::temp_dir().join("lisa_cli_vliw_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "MVK A2, 5\n || MVK B2, 6\nADD .L A3, A2, B2\nHALT\n").unwrap();
    let out = run_ok(&["run", "@vliw62", src.to_str().unwrap(), "--dump", "A:4"]);
    assert!(out.contains("A = 0 0 5 11"), "{out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_emits_json_lines_and_vcd() {
    let dir = std::env::temp_dir().join("lisa_cli_trace_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n").unwrap();

    // JSON lines to stdout: every line is one well-formed JSON object
    // with the mandatory cycle/kind fields.
    let out = run_ok(&["trace", "@tinyrisc", src.to_str().unwrap()]);
    assert!(!out.is_empty());
    for line in out.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"cycle\":"), "{line}");
        assert!(line.contains("\"kind\":\""), "{line}");
    }
    assert!(out.lines().any(|l| l.contains("\"kind\":\"exec\"")), "{out}");
    assert!(out.lines().any(|l| l.contains("\"kind\":\"register_write\"")), "{out}");

    // JSON lines to a file via --out.
    let jsonl = dir.join("trace.jsonl");
    let out =
        run_ok(&["trace", "@tinyrisc", src.to_str().unwrap(), "--out", &jsonl.to_string_lossy()]);
    assert!(out.contains("wrote"), "{out}");
    assert!(fs::read_to_string(&jsonl).unwrap().lines().count() > 4);

    // VCD: header, at least one var, timestamped value changes.
    let vcd = run_ok(&["trace", "@tinyrisc", src.to_str().unwrap(), "--vcd"]);
    assert!(vcd.contains("$timescale"), "{vcd}");
    assert!(vcd.contains("$var wire"), "{vcd}");
    assert!(vcd.contains("$enddefinitions $end"), "{vcd}");
    assert!(vcd.lines().any(|l| l.starts_with('#')), "{vcd}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_runs_the_kernel_matrix() {
    let out = run_ok(&["batch", "--workers", "2", "--mode", "interp"]);
    assert!(out.contains("0 failed"), "{out}");
    assert!(out.contains("on 2 workers"), "{out}");
    assert!(!out.contains("merged profile"), "no profile without --profile: {out}");

    let out = run_ok(&["batch", "--workers", "2", "--mode", "interp", "--profile"]);
    assert!(out.contains("merged profile"), "{out}");
    assert!(out.contains("per-operation execution histogram"), "{out}");
    assert!(out.contains("stage"), "{out}");
}

#[test]
fn unknown_simulation_mode_is_a_usage_error() {
    // `run` (sim_mode) and `batch` (mode list) both reject unknown
    // backends with exit 2 and a diagnostic naming the valid set.
    let dir = std::env::temp_dir().join("lisa_cli_badmode_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("mode.s");
    fs::write(&src, "HLT\n").unwrap();
    let output = lisa_tool()
        .args(["run", "@tinyrisc", src.to_str().unwrap(), "--mode", "sideways"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown mode `sideways`"), "{err}");
    assert!(err.contains("interp|compiled|ops"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn ops_mode_runs_and_reports_like_the_others() {
    let dir = std::env::temp_dir().join("lisa_cli_opsmode_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("ops.s");
    fs::write(&src, "LDI R1, 7\nLDI R2, 5\nADD R3, R1, R2\nHLT\n").unwrap();
    let out =
        run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--mode", "ops", "--dump", "R:4"]);
    assert!(out.contains("halted after 4 control steps"), "{out}");
    assert!(out.contains("Ops"), "{out}");
    assert!(out.contains("12"), "R3 should hold 12: {out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_and_model_errors_exit_2() {
    let output = lisa_tool().args(["check", "/nonexistent.lisa"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read model"));

    let output = lisa_tool().args(["frobnicate"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown command"));

    let output = lisa_tool().output().unwrap();
    assert_eq!(output.status.code(), Some(2), "no arguments is a usage error");
    // Continuation lines of the usage text stay indented under their
    // command's options.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("\n             --probe EXPR"), "{stderr}");

    let output = lisa_tool().args(["batch", "--mode", "sideways"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));

    // An unknown flag is a usage error naming the flag and the command,
    // not a flag silently ignored or read as a positional argument.
    let dir = std::env::temp_dir().join(format!("lisa-cli-flags-{}", std::process::id()));
    let out = dir.to_str().unwrap();
    for (args, flag) in [
        (
            &[
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--out",
                out,
                "--baseline",
                "/nonexistent.json",
                "--threshold",
                "1",
            ][..],
            "--baseline",
        ),
        (&["run", "@tinyrisc", "--bogus-flag", "x"][..], "--bogus-flag"),
        (&["run", "@tinyrisc", "prog.s", "--max-steps"][..], "--max-steps"),
        (&["fuzz", "--remote", "127.0.0.1:1"][..], "--remote"),
    ] {
        let output = lisa_tool().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("`{}`", args[0])), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{flag}`")), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a rejected bench run writes no trajectory");
}

#[test]
fn serve_once_answers_a_request_and_exits_0() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = lisa_tool()
        .args(["serve", "--addr", "127.0.0.1:0", "--once", "--timeout-ms", "10000"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The announce line carries the resolved ephemeral port.
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut announce = String::new();
    stdout.read_line(&mut announce).expect("read announce line");
    assert!(announce.starts_with("serving on http://"), "{announce}");
    let addr = announce
        .trim_start_matches("serving on http://")
        .split_whitespace()
        .next()
        .expect("address in announce line")
        .to_owned();

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    drop(conn);

    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(0), "--once must exit 0 after one connection");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("accepted 1 connection"), "{rest}");
}

#[test]
fn serve_flag_validation_exits_2() {
    // Unbindable address.
    let output = lisa_tool().args(["serve", "--addr", "999.0.0.1:0", "--once"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "bad --addr is a usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot bind"));

    // Zero-capacity queue.
    let output = lisa_tool().args(["serve", "--queue", "0", "--once"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "zero --queue is a usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--queue"));

    // Zero workers.
    let output = lisa_tool().args(["serve", "--workers", "0", "--once"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "zero --workers is a usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--workers"));
}

#[test]
fn run_reports_simulated_mips() {
    let dir = std::env::temp_dir().join("lisa_cli_mips_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n").unwrap();
    let out = run_ok(&["run", "@tinyrisc", src.to_str().unwrap()]);
    assert!(out.contains("simulated MIPS"), "{out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_dumps_prometheus_metrics() {
    let dir = std::env::temp_dir().join("lisa_cli_batch_metrics_test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.prom");
    let out = run_ok(&[
        "batch",
        "--workers",
        "2",
        "--mode",
        "compiled",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(out.contains("0 failed"), "{out}");
    assert!(out.contains("job latency: min"), "{out}");
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("# TYPE lisa_exec_jobs_started_total counter"), "{text}");
    assert!(text.contains("lisa_exec_job_duration_us_bucket"), "{text}");
    // `compiled` is an alias of ops, and its series carry the ops label.
    assert!(text.contains("lisa_sim_cycles_total{backend=\"ops\"}"), "{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_and_trace_dump_prometheus_metrics() {
    let dir = std::env::temp_dir().join("lisa_cli_run_metrics_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n").unwrap();

    // `run --metrics` writes the simulator counters in Prometheus
    // exposition format, labelled with the backend that produced them.
    let prom = dir.join("run.prom");
    let out = run_ok(&[
        "run",
        "@tinyrisc",
        src.to_str().unwrap(),
        "--mode",
        "compiled",
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    assert!(out.contains("halted after"), "{out}");
    let text = fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE lisa_sim_cycles_total counter"), "{text}");
    assert!(text.contains("lisa_sim_cycles_total{backend=\"ops\"}"), "{text}");
    assert!(text.contains("lisa_sim_instructions_retired_total{backend=\"ops\"}"), "{text}");

    // `trace --metrics` does the same for the tracing path.
    let prom = dir.join("trace.prom");
    run_ok(&[
        "trace",
        "@tinyrisc",
        src.to_str().unwrap(),
        "--mode",
        "interp",
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    let text = fs::read_to_string(&prom).unwrap();
    assert!(text.contains("lisa_sim_cycles_total{backend=\"interpretive\"}"), "{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_with_probes_reports_hits_and_breakpoints() {
    let dir = std::env::temp_dir().join("lisa_cli_probe_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nST R3, R1\nHLT\n").unwrap();

    // Watch + register probes: the run halts normally and the hit
    // report enumerates every armed probe with its hit count.
    let out =
        run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--probe", "watch dmem; reg R[3]"]);
    assert!(out.contains("halted after"), "{out}");
    assert!(out.contains("probe hits (2 total)"), "{out}");
    assert!(out.contains("watch dmem: 1"), "{out}");
    assert!(out.contains("reg R[3]: 1"), "{out}");

    // A breakpoint stops the run early and names the probe and PC.
    let out = run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--probe", "break 2"]);
    assert!(out.contains("stopped at breakpoint `break 2` (pc 2)"), "{out}");

    // An unparseable probe expression is a usage error.
    let output = lisa_tool()
        .args(["run", "@tinyrisc", src.to_str().unwrap(), "--probe", "watch nosuch"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "bad probe target is a usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("nosuch"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_writes_the_architecture_profile() {
    let dir = std::env::temp_dir().join("lisa_cli_archprof_test");
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nST R3, R1\nHLT\n").unwrap();

    // `.json` suffix selects the machine-readable rendering.
    let json = dir.join("arch.json");
    run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--arch-profile", json.to_str().unwrap()]);
    let text = fs::read_to_string(&json).unwrap();
    assert!(text.contains("\"cycles\":"), "{text}");
    assert!(text.contains("\"op_execs\":"), "{text}");
    assert!(text.contains("\"write_heat\":"), "{text}");

    // Any other suffix gets the human report.
    let txt = dir.join("arch.txt");
    run_ok(&["run", "@tinyrisc", src.to_str().unwrap(), "--arch-profile", txt.to_str().unwrap()]);
    let text = fs::read_to_string(&txt).unwrap();
    assert!(text.contains("operation executions"), "{text}");
    fs::remove_dir_all(&dir).ok();
}

/// `profile` and `inspect` are one command printing one ArchProfile
/// report; drives `cmd` through every part of it and returns the plain
/// report for the tinyrisc program. `tag` keeps the scratch directory
/// of each call apart from those of tests running in parallel.
fn check_architecture_report(cmd: &str, tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("lisa_cli_{tag}_test"));
    fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.s");
    fs::write(&src, "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nST R3, R1\nHLT\n").unwrap();
    let prog = src.to_str().unwrap();
    let vliw = dir.join("vliw.s");
    fs::write(&vliw, "MVK A2, 5\n || MVK B2, 6\nADD .L A3, A2, B2\nHALT\n").unwrap();

    let report = run_ok(&[cmd, "@tinyrisc", prog, "--mode", "interp"]);
    assert!(report.contains("halted after 5 control steps"), "{cmd}: {report}");
    assert!(report.contains("operation executions"), "{cmd}: {report}");
    assert!(report.contains("per-operation execution histogram"), "{cmd}: {report}");
    assert!(report.contains("ldi"), "{cmd}: {report}");
    assert!(report.contains("hot PCs"), "{cmd}: {report}");
    assert!(report.contains("memory writes:"), "{cmd}: {report}");

    // A pipelined model adds the per-stage table.
    let out = run_ok(&[cmd, "@vliw62", vliw.to_str().unwrap()]);
    assert!(out.contains("occupied") && out.contains("stalls"), "{cmd}: {out}");
    assert!(out.lines().any(|l| l.starts_with("fetch_pipe.PG")), "{cmd}: {out}");

    // Probes armed on the command show up in the report body.
    let out = run_ok(&[cmd, "@tinyrisc", prog, "--probe", "watch dmem"]);
    assert!(out.contains("probe hits (1 total)"), "{cmd}: {out}");
    let hit_line = out.lines().find(|l| l.trim_start().starts_with("watch dmem"));
    assert_eq!(hit_line.map(|l| l.split_whitespace().last()), Some(Some("1")), "{out}");

    // --json emits the machine-readable profile instead.
    let out = run_ok(&[cmd, "@tinyrisc", prog, "--json"]);
    let line = out.lines().next().unwrap_or_default();
    assert!(line.starts_with('{') && line.ends_with('}'), "{cmd}: not JSON: {out}");
    assert!(out.contains("\"stage_busy\":"), "{cmd}: {out}");
    fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn profile_prints_the_execution_report() {
    check_architecture_report("profile", "profile");
}

#[test]
fn inspect_prints_the_architecture_report() {
    let report = check_architecture_report("inspect", "inspect");
    assert_eq!(
        report,
        check_architecture_report("profile", "inspect_vs_profile"),
        "both command names print the same report"
    );
}

#[test]
fn fuzz_fails_fast_on_a_tampered_corpus() {
    // A canonical `<model>-<16 hex>.repro` name whose contents hash to
    // something else: the corpus cannot be trusted, so `fuzz` must exit
    // 1 with a typed diagnostic *before* doing any fuzzing work.
    let dir = std::env::temp_dir().join("lisa_cli_fuzz_tamper_test");
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join("tinyrisc-0000000000000000.repro"),
        "# lisa-conform reproducer\nmodel = tinyrisc\nseed = 0\noracle = lockstep\nword = 0xf000\n",
    )
    .unwrap();
    let output = lisa_tool()
        .args(["fuzz", "--model", "tinyrisc", "--iters", "1", "--corpus-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "tampered corpus must abort the run");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("content hash mismatch"), "{err}");
    assert!(err.contains("file name says 0000000000000000"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_fails_fast_on_an_unreadable_corpus_entry() {
    // A directory carrying the .repro extension cannot be read as a
    // file — unlike permission bits, this stays unreadable under root.
    let dir = std::env::temp_dir().join("lisa_cli_fuzz_unread_test");
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(dir.join("trap.repro")).unwrap();
    let output = lisa_tool()
        .args(["fuzz", "--model", "tinyrisc", "--iters", "1", "--corpus-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "unreadable corpus entry must abort the run");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("corpus file unreadable"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_distills_a_covering_seed_set() {
    let dir = std::env::temp_dir().join("lisa_cli_fuzz_distill_test");
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("distill.json");
    let out = run_ok(&[
        "fuzz",
        "--model",
        "tinyrisc",
        "--iters",
        "30",
        "--max-len",
        "12",
        "--distill",
        path.to_str().unwrap(),
    ]);
    assert!(out.contains("coding-tree path(s) covered"), "{out}");
    assert!(out.contains("distilled to"), "{out}");
    let text = fs::read_to_string(&path).unwrap();
    let doc = lisa::metrics::json::parse(&text).expect("distill file is valid JSON");
    let entry = doc.get("tinyrisc").expect("per-model entry");
    let paths = entry.get("paths").and_then(lisa::metrics::json::Value::as_u64).unwrap_or(0);
    assert!(paths > 0, "{text}");
    let indices =
        entry.get("indices").and_then(lisa::metrics::json::Value::as_array).expect("indices array");
    assert!(!indices.is_empty() && indices.len() <= 30, "{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_writes_the_trajectory_document() {
    let dir = std::env::temp_dir().join("lisa_cli_bench_test");
    fs::remove_dir_all(&dir).ok();
    // Into `--out`, and without it into the current directory.
    let (to_out, to_cwd) = (dir.join("out"), dir.join("cwd"));
    for (out_flag, cwd) in [(Some(&to_out), &dir), (None, &to_cwd)] {
        let target = out_flag.unwrap_or(cwd);
        fs::create_dir_all(target).unwrap();
        let mut args = vec!["bench", "--quick", "--repeats", "1"];
        if let Some(out) = out_flag {
            args.extend(["--out", out.to_str().unwrap()]);
        }
        let output = lisa_tool().args(&args).current_dir(cwd).output().expect("binary runs");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let out = String::from_utf8(output.stdout).expect("utf-8 output");
        assert!(out.contains("MIPS"), "{out}");
        assert!(out.contains("wrote"), "{out}");

        // Exactly one BENCH_<date>.json appeared, with the expected schema
        // and the full model × backend matrix.
        let files: Vec<_> = fs::read_dir(target)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        assert_eq!(files.len(), 1, "{args:?}: {files:?}");
        let text = fs::read_to_string(&files[0]).unwrap();
        assert!(text.contains("\"schema\": \"lisa-bench/1\""), "{text}");
        for model in ["vliw62", "accu16", "scalar2", "tinyrisc"] {
            assert!(text.contains(model), "missing {model}: {text}");
        }
        for backend in ["interpretive", "ops"] {
            assert!(text.contains(backend), "missing {backend}: {text}");
        }
    }

    fs::remove_dir_all(&dir).ok();
}
