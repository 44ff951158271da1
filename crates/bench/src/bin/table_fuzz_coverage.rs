//! Experiment E17: coding-tree coverage saturation under coverage-guided
//! fuzzing, and the losslessness of splitting a run into seed ranges.
//!
//! Two questions, per builtin model:
//!
//! 1. **Saturation** — how fast does the per-path coverage of
//!    `ProgramGen`'s coding-tree walk saturate as the program budget
//!    grows? The table reports distinct paths at checkpoints, plus how
//!    few seeds corpus distillation needs to replay the final set.
//! 2. **Range-split losslessness** — splitting the same budget into
//!    four disjoint contiguous ranges (four `lisa-tool fuzz --start`
//!    runs) and merging the four coverage maps with `CoverageMap::merge`
//!    must reproduce the whole-range map **exactly**. Program `i` is a
//!    pure function of `(seed, i)`, so split runs check exactly the
//!    programs one run checks; this is a hard gate: any mismatch exits
//!    non-zero.

use std::fmt::Write as _;

use lisa_conform::{distill, CoverageMap, ProgramGen, Rng};
use lisa_models::{accu16, scalar2, tinyrisc, vliw62};

/// Total program budget per model.
const BUDGET: u64 = 2000;
/// Master seed (programs are pure functions of `(seed, index)`).
const SEED: u64 = 0;
/// Longest synthesized prefix, in words.
const MAX_LEN: usize = 24;
/// Checkpoints at which saturation is sampled.
const CHECKPOINTS: [u64; 7] = [10, 50, 100, 250, 500, 1000, 2000];
/// Disjoint `--start` ranges the budget is split into.
const INSTANCES: u64 = 4;

fn main() {
    let mut out = String::new();
    writeln!(out, "E17 — coverage-guided fuzzing: saturation and range-split losslessness")
        .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "distinct coding-tree paths after N generated programs (seed {SEED}, max_len {MAX_LEN}):"
    )
    .unwrap();
    writeln!(out).unwrap();
    write!(out, "{:<10}", "model").unwrap();
    for cp in CHECKPOINTS {
        write!(out, " {cp:>7}").unwrap();
    }
    writeln!(out, " {:>10} {:>10}", "distilled", "4-way").unwrap();
    writeln!(out, "{}", "-".repeat(10 + CHECKPOINTS.len() * 8 + 22)).unwrap();

    let mut all_lossless = true;
    let workbenches = [
        ("vliw62", vliw62::workbench().expect("vliw62 builds")),
        ("accu16", accu16::workbench().expect("accu16 builds")),
        ("tinyrisc", tinyrisc::workbench().expect("tinyrisc builds")),
        ("scalar2", scalar2::workbench().expect("scalar2 builds")),
    ];
    for (name, wb) in &workbenches {
        let gen = ProgramGen::new(wb).expect("program generator");

        // Single instance over the whole budget, sampling checkpoints.
        let mut per_program: Vec<CoverageMap> = Vec::with_capacity(BUDGET as usize);
        let mut single = CoverageMap::new();
        write!(out, "{name:<10}").unwrap();
        for index in 0..BUDGET {
            let mut rng = Rng::for_iteration(SEED, index);
            let cov = gen.coverage_of(&gen.gen_program(&mut rng, MAX_LEN));
            single.merge(&cov);
            per_program.push(cov);
            if CHECKPOINTS.contains(&(index + 1)) {
                write!(out, " {:>7}", single.len()).unwrap();
            }
        }

        // Corpus distillation: the minimal greedy seed subset that
        // replays to the full path set.
        let picked = distill(&per_program);
        let mut replayed = CoverageMap::new();
        for &i in &picked {
            replayed.merge(&per_program[i]);
        }
        assert!(replayed.covers(&single), "{name}: distilled replay lost paths");

        // Range split: four disjoint contiguous ranges, merged. The
        // merge must be identical to the whole-range map.
        let mut merged = CoverageMap::new();
        let chunk = BUDGET / INSTANCES;
        for i in 0..INSTANCES {
            let mut part = CoverageMap::new();
            for index in i * chunk..(i + 1) * chunk {
                let mut rng = Rng::for_iteration(SEED, index);
                part.merge(&gen.coverage_of(&gen.gen_program(&mut rng, MAX_LEN)));
            }
            merged.merge(&part);
        }
        let lossless = merged == single;
        all_lossless &= lossless;
        writeln!(
            out,
            " {:>10} {:>10}",
            format!("{}/{}", picked.len(), BUDGET),
            if lossless { "exact" } else { "MISMATCH" }
        )
        .unwrap();
    }

    writeln!(out).unwrap();
    writeln!(out, "distilled = smallest greedy seed subset replaying 100% of the final path set")
        .unwrap();
    writeln!(
        out,
        "4-way = coverage from {INSTANCES} disjoint ranges merged vs one whole-range run"
    )
    .unwrap();

    print!("{out}");
    assert!(all_lossless, "range split/merge must be lossless");
}
