//! Experiment E8 (supplementary): architecture exploration turnaround —
//! the workflow the paper positions LISA for ("the flexibility of
//! software allows late design changes, thus shortening design cycles",
//! §1). Adds a fused dual-fetch MAC (`MACP`) to the accu16 *description*,
//! regenerates all tools, and measures both the regeneration cost and
//! the kernel-level win.

use std::fmt::Write as _;
use std::time::Instant;

use lisa_models::{accu16, Workbench};
use lisa_sim::SimMode;

const MACP_OP: &str = r#"
OPERATION macp {
    CODING { 0b011000 0bx[18] }
    SYNTAX { "MACP" }
    SEMANTICS { MAC_DUAL_POSTINC(accu, data_mem1[ar0], data_mem1[ar1]) }
    BEHAVIOR {
        r[0] = data_mem1[ar[0] & 4095];
        ar[0] = ar[0] + 1;
        r[1] = data_mem1[ar[1] & 4095];
        ar[1] = ar[1] + 1;
        long sum = sext(accu, 40) + r[0] * r[1];
        if (sat_mode) {
            accu = saturate(sum, 40);
        } else {
            accu = sum;
        }
    }
}

OPERATION decode {"#;

fn dot_program(n: usize, fused: bool) -> String {
    let body = if fused {
        "loop:   MACP\n        DBNZ loop\n"
    } else {
        "loop:   MOVP r0, a0\n        MOVP r1, a1\n        MAC r0, r1\n        DBNZ loop\n"
    };
    format!(
        ".org 0x100\n        CLR\n        SSAT 0\n        LAR a0, 0\n        LAR a1, 256\n        LDLC {n}\n{body}        SAT16\n        STA 512\n        HLT\n"
    )
}

fn run_dot(wb: &Workbench, n: usize, fused: bool) -> (u64, i64) {
    let program =
        lisa_asm::Assembler::new(wb.model()).assemble(&dot_program(n, fused)).expect("assembles");
    let mut sim = wb.simulator(SimMode::Ops).expect("sim");
    let dmem = wb.model().resource_by_name("data_mem1").expect("dmem").clone();
    for i in 0..n as i64 {
        sim.state_mut().write_int(&dmem, &[i], i % 7 - 3).unwrap();
        sim.state_mut().write_int(&dmem, &[256 + i], (i * 3) % 11 - 5).unwrap();
    }
    sim.load_program_at("prog_mem", program.origin, &program.words).expect("loads");
    let cycles = wb.run_to_halt(&mut sim, 100_000).expect("halts");
    (cycles, sim.state().read_int(&dmem, &[512]).unwrap())
}

fn main() {
    let mut out = String::new();
    writeln!(out, "E8 — architecture exploration turnaround (ASIP workflow, paper §1/§5)").unwrap();
    writeln!(out).unwrap();
    let n = 256;

    let base = accu16::workbench().expect("baseline builds");
    let (base_cycles, base_result) = run_dot(&base, n, false);

    let t = Instant::now();
    let extended_source = accu16::SOURCE.replacen("OPERATION decode {", MACP_OP, 1).replacen(
        "nop || clr ||",
        "nop || clr || macp ||",
        1,
    );
    let extended =
        Workbench::from_source(&extended_source, "prog_mem", "halt").expect("extended builds");
    // Force full tool generation for an honest turnaround time.
    let _decoder = extended.decoder().expect("decoder");
    let _sim = extended.simulator(SimMode::Ops).expect("ops sim");
    let regen = t.elapsed();
    let (ext_cycles, ext_result) = run_dot(&extended, n, true);

    assert_eq!(base_result, ext_result, "bit-accurate custom instruction");
    writeln!(out, "{:<28} {:>10} {:>12}", "architecture", "cycles", "dot result").unwrap();
    writeln!(out, "{}", "-".repeat(54)).unwrap();
    writeln!(out, "{:<28} {:>10} {:>12}", "accu16 (baseline)", base_cycles, base_result).unwrap();
    writeln!(out, "{:<28} {:>10} {:>12}", "accu16 + MACP", ext_cycles, ext_result).unwrap();
    writeln!(out, "{}", "-".repeat(54)).unwrap();
    writeln!(
        out,
        "kernel speedup: {:.2}x; full tool regeneration took {}",
        base_cycles as f64 / ext_cycles as f64,
        lisa_bench::fmt_duration(regen)
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "paper context: the C6201 model regenerated in 30 s (§4.1); iteration").unwrap();
    writeln!(out, "at this cost is what makes description-driven ASIP exploration work.").unwrap();
    print!("{out}");
}
