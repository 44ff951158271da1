//! Architecture exploration: the ADL workflow the paper positions LISA
//! for. Starting from the `accu16` DSP, we add a custom dual-fetch
//! multiply-accumulate instruction (`MACP`) to the *description*,
//! regenerate every tool automatically, and measure the cycle-count win
//! on a dot-product workload — a late design change with zero hand-written
//! simulator code.
//!
//! ```sh
//! cargo run --release --example asip_exploration
//! ```

use lisa::models::{accu16, Workbench};
use lisa::sim::SimMode;

/// The new instruction: both operand fetches (with post-increment) and
/// the MAC in a single control step.
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

fn run_dot(
    wb: &Workbench,
    n: usize,
    fused: bool,
) -> Result<(u64, i64), Box<dyn std::error::Error>> {
    let program = lisa::asm::Assembler::new(wb.model()).assemble(&dot_program(n, fused))?;
    let mut sim = wb.simulator(SimMode::Ops)?;
    let dmem = wb.model().resource_by_name("data_mem1").expect("dmem").clone();
    for i in 0..n as i64 {
        sim.state_mut().write_int(&dmem, &[i], i % 7 - 3)?;
        sim.state_mut().write_int(&dmem, &[256 + i], (i * 3) % 11 - 5)?;
    }
    sim.load_program_at("prog_mem", program.origin, &program.words)?;
    let cycles = wb.run_to_halt(&mut sim, 100_000)?;
    let result = sim.state().read_int(&dmem, &[512])?;
    Ok((cycles, result))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;

    // Baseline architecture: generated tools straight from the shipped
    // description.
    let base = accu16::workbench()?;
    let (base_cycles, base_result) = run_dot(&base, n, false)?;
    println!("baseline accu16:   dot({n}) = {base_result} in {base_cycles} cycles");

    // Late design change: patch the *description*, regenerate everything.
    let extended_source = accu16::SOURCE.replacen("OPERATION decode {", MACP_OP, 1).replacen(
        "nop || clr ||",
        "nop || clr || macp ||",
        1,
    );
    let extended = Workbench::from_source(&extended_source, "prog_mem", "halt")?;
    let (ext_cycles, ext_result) = run_dot(&extended, n, true)?;
    println!("accu16 + MACP:     dot({n}) = {ext_result} in {ext_cycles} cycles");

    assert_eq!(base_result, ext_result, "the new instruction must be bit-accurate");
    println!(
        "\nadding MACP to the LISA description (and nothing else) makes the\nkernel {:.2}x faster — assembler, decoder, disassembler and both\nsimulators were regenerated automatically.",
        base_cycles as f64 / ext_cycles as f64
    );

    // The generated manual documents the new instruction too.
    let manual = lisa::docgen::manual(extended.model(), "accu16+MACP");
    let entry = manual
        .lines()
        .skip_while(|l| !l.contains("### `macp`"))
        .take(12)
        .collect::<Vec<_>>()
        .join("\n");
    println!("\ngenerated manual entry:\n{entry}");
    Ok(())
}
