//! FIR filtering on the TMS320C62xx-shaped VLIW model: the workload class
//! the paper's introduction motivates (telecom DSP software).
//!
//! Assembles the FIR kernel with the program-level assembler, runs it on
//! both simulation backends, verifies the golden outputs, and prints the
//! cycle-accurate statistics plus the compiled-over-interpretive speedup.
//!
//! ```sh
//! cargo run --release --example vliw_fir
//! ```

use std::time::Instant;

use lisa::models::{kernels, vliw62};
use lisa::sim::SimMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wb = vliw62::workbench()?;
    let kernel = kernels::vliw_fir(8, 16);
    println!("kernel: {} (8 taps, 16 outputs, 16-bit data)\n", kernel.name);

    // Show the first packets of the program listing.
    let program = wb.assembler().assemble(&kernel.source)?;
    println!("program listing (first fetch packets):");
    for line in program.listing.lines().take(18) {
        println!("  {line}");
    }
    println!("  ...\n");

    let mut rows = Vec::new();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = kernels::load_kernel(&wb, &kernel, mode)?;
        let t = Instant::now();
        let cycles = wb.run_to_halt(&mut sim, kernel.max_steps)?;
        let elapsed = t.elapsed();
        kernels::verify_kernel(&wb, &kernel, &sim);
        println!(
            "{mode:?}: {cycles} cycles in {elapsed:?} ({:.0} cycles/s) — golden outputs verified",
            cycles as f64 / elapsed.as_secs_f64()
        );
        println!("  {}", sim.stats());
        rows.push((cycles, elapsed));
    }
    assert_eq!(rows[0].0, rows[1].0, "cycle counts must not depend on the backend");
    println!(
        "\ncompiled simulation speedup: {:.1}x (paper §3.3 claims >100x against\n1998-era commercial interpretive simulators; see EXPERIMENTS.md)",
        rows[0].1.as_secs_f64() / rows[1].1.as_secs_f64()
    );

    // Dump the filtered signal.
    let dmem = wb.model().resource_by_name("dmem").expect("dmem");
    let mut sim = kernels::load_kernel(&wb, &kernel, SimMode::Ops)?;
    wb.run_to_halt(&mut sim, kernel.max_steps)?;
    print!("\ny[] = ");
    for i in 0..16 {
        let mut w: i64 = 0;
        for k in 0..4 {
            w |= (sim.state().read_int(dmem, &[2048 + 4 * i + k])? & 0xFF) << (8 * k);
        }
        print!("{} ", lisa::bits::Bits::from_u128_wrapped(32, w as u128).to_i128());
    }
    println!();
    Ok(())
}
