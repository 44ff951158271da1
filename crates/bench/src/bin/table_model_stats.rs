//! Experiment E1: model complexity statistics, side by side with the
//! paper's TMS320C6201 figures (§4).

use std::fmt::Write as _;

use lisa_bench::model_stats_rows;

fn main() {
    let mut out = String::new();
    writeln!(out, "E1 — model complexity (paper §4)").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>11} {:>13} {:>8} {:>11} {:>9} {:>8}",
        "model",
        "resources",
        "operations",
        "instructions",
        "aliases",
        "LISA lines",
        "lines/op",
        "variants"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(86)).unwrap();
    for row in model_stats_rows() {
        let s = &row.stats;
        writeln!(
            out,
            "{:<10} {:>10} {:>11} {:>13} {:>8} {:>11} {:>9.1} {:>8}",
            row.model,
            s.resources,
            s.operations,
            s.instructions,
            s.aliases,
            s.lisa_lines,
            s.lines_per_operation(),
            s.variants
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(86)).unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>11} {:>13} {:>8} {:>11} {:>9.1} {:>8}",
        "paper", 54, 256, 156, 8, 5362, 21.0, "-"
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "paper row: the TMS320C6201 model of Pees et al. (DAC 1999), §4.").unwrap();
    print!("{out}");
}
