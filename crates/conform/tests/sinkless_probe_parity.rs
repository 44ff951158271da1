//! Profile and probe parity on the path without a trace.
//!
//! The `probe_parity` oracle always traces, so every event it checks is
//! also built as a `TraceEvent`. `/v1/simulate` and `lisa-tool run
//! --probe` do not: the simulator then calls the probe runtime's typed
//! entries directly, and the ops backend counts register writes,
//! executions and activations in its own plain counters. Over a fixed
//! range of generated programs per model, the probe report and the
//! architecture profile of untraced runs on both backends must equal
//! those of the traced interpretive run.

use lisa_conform::oracle::derived_probe_spec;
use lisa_conform::{ProgramGen, Rng};
use lisa_models::Workbench;
use lisa_sim::{ArchProfile, ProbeSpec, SimMode};

const SEED: u64 = 0;
const PROGRAMS: u64 = 100;
const MAX_LEN: usize = 24;
const MAX_CYCLES: u64 = 2000;

fn all_workbenches() -> Vec<(&'static str, Workbench)> {
    vec![
        ("tinyrisc", lisa_models::tinyrisc::workbench().unwrap()),
        ("scalar2", lisa_models::scalar2::workbench().unwrap()),
        ("accu16", lisa_models::accu16::workbench().unwrap()),
        ("vliw62", lisa_models::vliw62::workbench().unwrap()),
    ]
}

/// The oracle's derived probes, a breakpoint on a PC no program reaches
/// and a tracepoint on the third program word.
fn spec_for(wb: &Workbench) -> ProbeSpec {
    let base = wb
        .model()
        .resource_by_name(wb.program_memory())
        .and_then(|r| r.dims.first())
        .map_or(0, |d| d.base());
    let mut spec = derived_probe_spec(wb).expect("derived spec parses");
    let pcs = format!("break 1000000007; trace {}", base + 2);
    spec.probes.extend(ProbeSpec::parse(&pcs).expect("pc probes parse").probes);
    spec
}

/// What a probed run reports: per-probe hits and the profile.
type Observed = (Vec<(String, u64)>, Option<ArchProfile>);

fn observe(
    wb: &Workbench,
    mode: SimMode,
    image: &[u128],
    spec: &ProbeSpec,
    traced: bool,
) -> Observed {
    let mut sim = wb.simulator(mode).expect("simulator builds");
    sim.set_trace(traced);
    sim.set_probes(spec.compile(wb.model()).expect("spec compiles"));
    sim.enable_arch_profile();
    sim.load_program(wb.program_memory(), image).expect("image fits");
    // A runtime error or the cycle budget ends the run like a halt: the
    // partial profile must agree as well.
    let _ = wb.run_to_halt(&mut sim, MAX_CYCLES);
    (sim.probe_report(), sim.arch_profile())
}

#[test]
fn sinkless_runs_match_the_traced_interpretive_run() {
    for (name, wb) in all_workbenches() {
        let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = spec_for(&wb);
        let (mut hits, mut register_writes) = (0, 0);
        for index in 0..PROGRAMS {
            let mut rng = Rng::for_iteration(SEED, index);
            let image = gen.image(&gen.gen_program(&mut rng, MAX_LEN));
            let want = observe(&wb, SimMode::Interpretive, &image, &spec, true);
            for mode in [SimMode::Interpretive, SimMode::Ops] {
                let got = observe(&wb, mode, &image, &spec, false);
                assert_eq!(got, want, "{name}: program {index}, {mode:?} untraced");
            }
            hits += want.0.iter().map(|(_, n)| n).sum::<u64>();
            register_writes += want.1.map_or(0, |p| p.register_writes);
        }
        assert!(hits > 0, "{name}: no probe ever hit");
        assert!(register_writes > 0, "{name}: no register write counted");
    }
}
