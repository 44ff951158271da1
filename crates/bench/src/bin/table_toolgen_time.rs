//! Experiment E2: tool-generation time. The paper reports "the
//! translation of the TMS320C6201 processor model into the simulator
//! takes only 30 seconds on a Sparc Ultra 10" (§4.1).
//!
//! The `tables` column is the decoder and assembler table generation
//! that `Model::build` runs once per model; it is part of
//! `parse+analyze`, so the total does not add it again. The last column
//! is what the generated assembler then costs: microseconds per source
//! line over the model's standard and long kernel suites.

use std::fmt::Write as _;

use lisa_bench::{assemble_us_per_line, fmt_duration, long_suite, model_suites, toolgen_once};
use lisa_models::{accu16, scalar2, tinyrisc, vliw62};

fn main() {
    let mut out = String::new();
    writeln!(out, "E2 — simulator/tool generation time (paper §4.1: 30 s on a Sparc Ultra 10)")
        .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<10} {:>16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "model", "parse+analyze", "(tables)", "lowering", "predecode", "total", "asm µs/line"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(93)).unwrap();
    let suites = model_suites(false);
    for (name, source) in [
        ("vliw62", vliw62::SOURCE),
        ("accu16", accu16::SOURCE),
        ("scalar2", scalar2::SOURCE),
        ("tinyrisc", tinyrisc::SOURCE),
    ] {
        // Warm up once, then keep the best of five runs.
        let _ = toolgen_once(source);
        let best = (0..5)
            .map(|_| toolgen_once(source))
            .min_by_key(lisa_bench::ToolgenTiming::total)
            .expect("five runs");
        let (_, wb, suite) = suites.iter().find(|(n, ..)| *n == name).expect("builtin model");
        let kernels = [suite.clone(), long_suite(name)].concat();
        let asm_us = assemble_us_per_line(wb, &kernels, 21);
        writeln!(
            out,
            "{:<10} {:>16} {:>12} {:>12} {:>12} {:>12} {:>12.2}",
            name,
            fmt_duration(best.parse_and_analyze),
            fmt_duration(best.tables),
            fmt_duration(best.lower),
            fmt_duration(best.predecode),
            fmt_duration(best.total()),
            asm_us,
        )
        .unwrap();
    }
    print!("{out}");
}
