//! Pins the ops backend's translate-time lowering.
//!
//! Two contracts: the micro-op listing of a small fixed program is
//! stable against a checked-in golden file (so translator changes are
//! reviewed, not accidental), and lowering is **deterministic** — the
//! same program always produces a byte-identical op array, regardless
//! of how the simulator got there.
//!
//! To bless an intentional translator change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lisa-sim --test ops_lowering
//! ```

use lisa_models::Workbench;
use lisa_sim::{SimMode, Simulator};
use proptest::prelude::*;

/// A fixed tinyrisc program exercising the interesting translator
/// paths: label folding (LDI immediates, register indices), operand
/// expression inlining (ADD/MUL), memory writes (ST) and the halt flag.
const DEMO: &[&str] =
    &["LDI R1, 7", "LDI R2, 5", "ADD R3, R1, R2", "MUL R4, R3, R1", "ST R4, R2", "HLT"];

fn listing(wb: &Workbench) -> String {
    let words = wb.assemble(DEMO).expect("demo assembles");
    let mut sim = wb.simulator(SimMode::Ops).expect("ops simulator");
    sim.load_program(wb.program_memory(), &words).expect("program loads");
    sim.ops_listing()
}

#[test]
fn listing_matches_the_golden_file() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ops_tinyrisc.txt");
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let rendered = listing(&wb);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "micro-op listing drifted from tests/golden/ops_tinyrisc.txt; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

/// Three-address form: the `ADD R3, R1, R2` instance (word 0x2650) is
/// its entry marker, the add into R[3] and the zero-flag compare.
#[test]
fn add_instance_is_three_micro_ops() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    // Section headers start a line with `== `.
    let rendered = format!("\n{}", listing(&wb));
    let add = rendered
        .split("\n== ")
        .find(|s| s.starts_with("word 0x2650 "))
        .expect("the demo decodes word 0x2650");
    let ops: Vec<&str> = add.lines().skip(1).collect();
    assert_eq!(
        ops,
        ["  0000  enter add", "  0001  R[3] = R[1] + R[2]", "  0002  zflag = R[3] == 0"]
    );
}

#[test]
fn listing_is_empty_outside_ops_mode() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let words = wb.assemble(DEMO).unwrap();
    let mut sim = wb.simulator(SimMode::Interpretive).unwrap();
    sim.load_program(wb.program_memory(), &words).unwrap();
    assert_eq!(sim.ops_listing(), "", "the interpretive backend has no ops tables");
}

/// The listing is a faithful projection of the translated op arrays, so
/// byte-identical listings mean byte-identical lowering.
fn load_ops<'w>(wb: &'w Workbench, words: &[u128]) -> Simulator<'w> {
    let mut sim = wb.simulator(SimMode::Ops).expect("ops simulator");
    sim.load_program(wb.program_memory(), words).expect("program loads");
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same program, two independently constructed simulators:
    /// identical lowering. Random 16-bit words cover undecodable
    /// patterns too (they are skipped at predecode in both runs).
    #[test]
    fn lowering_is_deterministic(words in proptest::collection::vec(0u128..=0xffff, 1..=24)) {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let first = load_ops(&wb, &words);
        let second = load_ops(&wb, &words);
        prop_assert_eq!(first.ops_listing(), second.ops_listing());
    }

    /// Running the program (which may re-translate through the runtime
    /// caches) must not change what any word lowers to.
    #[test]
    fn lowering_is_stable_across_execution(steps in 0u64..64) {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let words = wb.assemble(DEMO).expect("demo assembles");
        let cold = load_ops(&wb, &words);
        let mut warm = load_ops(&wb, &words);
        let _ = warm.run(steps);
        prop_assert_eq!(cold.ops_listing(), warm.ops_listing());
    }
}
