//! Machine-readable benchmark trajectories.
//!
//! `lisa-tool bench` runs the standard kernel suites on every builtin
//! model in every simulation backend and serializes the result as a
//! schema-versioned JSON document (`BENCH_<date>.json`), a dated record
//! of simulation speed. Nothing gates on these documents: E15
//! (`table_ops_speed`) is the speed regression gate.
//!
//! Wall-clock fields are integers (microseconds), so a document
//! round-trips exactly; derived rates (MIPS, cycles/s) are computed,
//! never stored.

use lisa_metrics::{json, Registry};
use lisa_sim::{publish_stats, SimMode};

use crate::model_suites;
use crate::sampler::{sample_rounds, Arm, Samples, BUDGET_CYCLES};

/// Document schema identifier; bump on breaking field changes.
pub const SCHEMA: &str = "lisa-bench/1";

/// Wall-clock spread over the timed rounds of one cell, in microseconds
/// (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Fastest round.
    pub min_us: u64,
    /// Median round.
    pub p50_us: u64,
    /// 99th-percentile round.
    pub p99_us: u64,
    /// Slowest round.
    pub max_us: u64,
}

impl Quantiles {
    /// Nearest-rank quantiles of a set of round durations.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (a cell always has at least one round).
    #[must_use]
    pub fn of(durations_us: &[u64]) -> Quantiles {
        assert!(!durations_us.is_empty(), "at least one round per cell");
        let mut sorted = durations_us.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| {
            let n = sorted.len();
            sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
        };
        Quantiles {
            min_us: sorted[0],
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// One model × backend × kernel measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Builtin model name.
    pub model: String,
    /// Backend label (`"interpretive"` / `"ops"`).
    pub backend: String,
    /// Kernel name.
    pub kernel: String,
    /// Simulated control steps per run (backend-independent).
    pub cycles: u64,
    /// Instructions retired per run.
    pub instructions: u64,
    /// Wall-clock spread over the timed rounds.
    pub wall_us: Quantiles,
}

impl BenchRow {
    /// Simulated MIPS of the best round: millions of retired
    /// instructions per wall-clock second.
    #[must_use]
    pub fn mips(&self) -> f64 {
        if self.wall_us.min_us == 0 {
            0.0
        } else {
            self.instructions as f64 / self.wall_us.min_us as f64
        }
    }

    /// Simulation speed of the best round in cycles/second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_us.min_us == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e6 / self.wall_us.min_us as f64
        }
    }
}

/// A full benchmark run: every builtin model × both backends × its
/// kernel suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Civil date (UTC) the run was taken, `YYYY-MM-DD`.
    pub date: String,
    /// Repeats per cell; each repeat holds the paired rounds that fit
    /// the cycle budget (best/percentiles are over all rounds).
    pub repeats: u32,
    /// Whether the reduced quick suite was used.
    pub quick: bool,
    /// Measurements, in deterministic model/backend/kernel order.
    pub rows: Vec<BenchRow>,
}

/// Runs the benchmark matrix: every builtin model × both backends × its
/// kernel suite, each kernel timed by [`sample_rounds`] with an
/// interpretive and an ops arm; a cell's quantiles are over its
/// backend's round times.
///
/// When `metrics` is given, each timed simulator publishes its stats
/// into the registry (`lisa_sim_*` series) and per-round wall clocks
/// land in the `lisa_bench_cell_duration_us` histogram.
///
/// # Panics
///
/// Panics if a builtin model or kernel is broken, or the backends
/// disagree on cycles (covered by tier-1 tests).
#[must_use]
pub fn measure(quick: bool, repeats: u32, metrics: Option<&Registry>) -> BenchReport {
    let repeats = repeats.max(1);
    let modes = [SimMode::Interpretive, SimMode::Ops];
    let arms = modes.map(|mode| {
        Arm::new(mode).check(move |sim| {
            if let Some(reg) = metrics {
                publish_stats(reg, sim.stats(), sim.mode().metric_label());
            }
        })
    });
    let mut rows = Vec::new();
    for (model, wb, suite) in model_suites(quick) {
        let samples: Vec<Samples> = suite
            .iter()
            .map(|kernel| sample_rounds(&wb, kernel, &arms, repeats as usize, BUDGET_CYCLES))
            .collect();
        for (arm, mode) in modes.into_iter().enumerate() {
            let backend = mode.metric_label();
            for (kernel, s) in suite.iter().zip(&samples) {
                let durations_us: Vec<u64> =
                    s.times(arm).iter().map(|t| ((t * 1e6).round() as u64).max(1)).collect();
                if let Some(reg) = metrics {
                    let hist = reg.histogram(
                        "lisa_bench_cell_duration_us",
                        "Wall-clock kernel run duration in microseconds.",
                        &[("model", model), ("backend", backend), ("kernel", &kernel.name)],
                    );
                    for &us in &durations_us {
                        hist.observe(us);
                    }
                }
                rows.push(BenchRow {
                    model: model.to_owned(),
                    backend: backend.to_owned(),
                    kernel: kernel.name.clone(),
                    cycles: s.cycles,
                    instructions: s.instructions,
                    wall_us: Quantiles::of(&durations_us),
                });
            }
        }
    }
    BenchReport { date: today_utc(), repeats, quick, rows }
}

impl BenchReport {
    /// Serializes to the `lisa-bench/1` JSON document (deterministic
    /// field and row order, integer wall clocks).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(SCHEMA)));
        out.push_str(&format!("  \"date\": {},\n", json::escape(&self.date)));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"model\": {}, ", json::escape(&row.model)));
            out.push_str(&format!("\"backend\": {}, ", json::escape(&row.backend)));
            out.push_str(&format!("\"kernel\": {}, ", json::escape(&row.kernel)));
            out.push_str(&format!("\"cycles\": {}, ", row.cycles));
            out.push_str(&format!("\"instructions\": {}, ", row.instructions));
            out.push_str(&format!(
                "\"wall_us\": {{\"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}, ",
                row.wall_us.min_us, row.wall_us.p50_us, row.wall_us.p99_us, row.wall_us.max_us
            ));
            out.push_str(&format!(
                "\"mips\": {:.4}, \"cycles_per_sec\": {:.1}}}",
                row.mips(),
                row.cycles_per_sec()
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// A plain-text summary table, one row per cell.
    #[must_use]
    pub fn table(&self) -> String {
        let width = self.rows.iter().map(|r| r.kernel.len()).max().unwrap_or(0).max(6);
        let mut out = format!(
            "{:<9} {:<13} {:<width$} {:>9} {:>12} {:>12} {:>9}\n",
            "model", "backend", "kernel", "cycles", "cycles/s", "best (µs)", "MIPS"
        );
        out.push_str(&"-".repeat(width + 70));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!(
                "{:<9} {:<13} {:<width$} {:>9} {:>12.0} {:>12} {:>9.3}\n",
                row.model,
                row.backend,
                row.kernel,
                row.cycles,
                row.cycles_per_sec(),
                row.wall_us.min_us,
                row.mips()
            ));
        }
        out
    }
}

/// Today's UTC civil date as `YYYY-MM-DD`, from the system clock
/// (no external date dependency; days-to-civil per Howard Hinnant's
/// public-domain algorithm).
#[must_use]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a `lisa-bench/1` document: malformed JSON, an unknown
    /// schema or a missing field is an error.
    fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text)?;
        let schema = doc.get("schema").and_then(json::Value::as_str).unwrap_or("<missing>");
        if schema != SCHEMA {
            return Err(format!("unsupported bench schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let date =
            doc.get("date").and_then(json::Value::as_str).ok_or("missing `date`")?.to_owned();
        let repeats = doc
            .get("repeats")
            .and_then(json::Value::as_u64)
            .and_then(|r| u32::try_from(r).ok())
            .ok_or("missing `repeats`")?;
        let quick = doc.get("quick").and_then(json::Value::as_bool).ok_or("missing `quick`")?;
        let rows = doc
            .get("rows")
            .and_then(json::Value::as_array)
            .ok_or("missing `rows`")?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let field_str = |name: &str| {
                    row.get(name)
                        .and_then(json::Value::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("row {i}: missing `{name}`"))
                };
                let field_u64 = |v: &json::Value, name: &str| {
                    v.get(name)
                        .and_then(json::Value::as_u64)
                        .ok_or(format!("row {i}: missing `{name}`"))
                };
                let wall = row.get("wall_us").ok_or(format!("row {i}: missing `wall_us`"))?;
                Ok(BenchRow {
                    model: field_str("model")?,
                    backend: field_str("backend")?,
                    kernel: field_str("kernel")?,
                    cycles: field_u64(row, "cycles")?,
                    instructions: field_u64(row, "instructions")?,
                    wall_us: Quantiles {
                        min_us: field_u64(wall, "min")?,
                        p50_us: field_u64(wall, "p50")?,
                        p99_us: field_u64(wall, "p99")?,
                        max_us: field_u64(wall, "max")?,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport { date, repeats, quick, rows })
    }

    fn sample() -> BenchReport {
        BenchReport {
            date: "2026-08-06".to_owned(),
            repeats: 3,
            quick: true,
            rows: vec![
                BenchRow {
                    model: "tinyrisc".into(),
                    backend: "ops".into(),
                    kernel: "fib".into(),
                    cycles: 1000,
                    instructions: 500,
                    wall_us: Quantiles { min_us: 100, p50_us: 120, p99_us: 150, max_us: 150 },
                },
                BenchRow {
                    model: "tinyrisc".into(),
                    backend: "interpretive".into(),
                    kernel: "fib".into(),
                    cycles: 1000,
                    instructions: 500,
                    wall_us: Quantiles { min_us: 400, p50_us: 420, p99_us: 500, max_us: 500 },
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let back = from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
        // And the re-serialization is byte-identical (deterministic).
        assert_eq!(back.to_json(), report.to_json());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = sample().to_json().replace(SCHEMA, "lisa-bench/99");
        let err = from_json(&doc).expect_err("wrong schema");
        assert!(err.contains("lisa-bench/99"), "{err}");
        assert!(from_json("{not json").is_err());
    }

    #[test]
    fn derived_rates_come_from_best_repeat() {
        let report = sample();
        // 500 instructions in 100 µs = 5 MIPS; 1000 cycles in 100 µs = 1e7 c/s.
        assert!((report.rows[0].mips() - 5.0).abs() < 1e-12);
        assert!((report.rows[0].cycles_per_sec() - 1e7).abs() < 1e-3);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let q = Quantiles::of(&[40, 10, 30, 20]);
        assert_eq!(q, Quantiles { min_us: 10, p50_us: 20, p99_us: 40, max_us: 40 });
        let single = Quantiles::of(&[7]);
        assert_eq!(single, Quantiles { min_us: 7, p50_us: 7, p99_us: 7, max_us: 7 });
    }

    #[test]
    fn today_utc_is_a_plausible_civil_date() {
        let date = today_utc();
        assert_eq!(date.len(), 10, "{date}");
        let parts: Vec<&str> = date.split('-').collect();
        assert_eq!(parts.len(), 3, "{date}");
        let year: i64 = parts[0].parse().expect("year");
        let month: u32 = parts[1].parse().expect("month");
        let day: u32 = parts[2].parse().expect("day");
        assert!(year >= 2024, "{date}");
        assert!((1..=12).contains(&month), "{date}");
        assert!((1..=31).contains(&day), "{date}");
    }

    #[test]
    fn quick_measurement_covers_all_models_and_all_backends() {
        let reg = Registry::new();
        let report = measure(true, 1, Some(&reg));
        assert!(report.quick);
        for model in ["vliw62", "accu16", "scalar2", "tinyrisc"] {
            for backend in ["interpretive", "ops"] {
                assert!(
                    report.rows.iter().any(|r| r.model == model && r.backend == backend),
                    "missing {model}/{backend}"
                );
            }
        }
        for row in &report.rows {
            assert!(row.cycles > 0, "{row:?}");
            assert!(row.instructions > 0, "{row:?}");
            assert!(row.mips() > 0.0, "{row:?}");
        }
        // The registry saw the simulators run.
        let snap = reg.snapshot();
        assert!(
            snap.metrics.keys().any(|k| k.name == "lisa_sim_cycles_total"),
            "sim stats published"
        );
        assert!(
            snap.metrics.keys().any(|k| k.name == "lisa_bench_cell_duration_us"),
            "cell latency recorded"
        );
    }

    /// The cells `measure(false, ..)` produces, in report order.
    fn matrix_keys() -> Vec<(String, String, String)> {
        let mut keys = Vec::new();
        for (model, _, suite) in model_suites(false) {
            for mode in [SimMode::Interpretive, SimMode::Ops] {
                for kernel in &suite {
                    let backend = mode.metric_label().to_owned();
                    keys.push((model.to_owned(), backend, kernel.name.clone()));
                }
            }
        }
        keys
    }

    #[test]
    fn checked_in_documents_parse_and_cover_the_matrix() {
        let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs");
        let parse = |name: &str| {
            let text = std::fs::read_to_string(docs.join(name))
                .unwrap_or_else(|e| panic!("cannot read docs/{name}: {e}"));
            from_json(&text).unwrap_or_else(|e| panic!("docs/{name}: {e}"))
        };
        let keys = |report: &BenchReport| {
            report
                .rows
                .iter()
                .map(|r| (r.model.clone(), r.backend.clone(), r.kernel.clone()))
                .collect::<Vec<_>>()
        };
        // Every dated trajectory parses; the one the E3 table cites is
        // the full matrix.
        for entry in std::fs::read_dir(&docs).expect("docs/ is readable") {
            let name = entry.expect("docs/ entry").file_name().into_string().expect("utf-8 name");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let _ = parse(&name);
            }
        }
        let cited = parse("BENCH_2026-10-18.json");
        assert!(!cited.quick);
        assert_eq!(keys(&cited), matrix_keys());
    }
}
