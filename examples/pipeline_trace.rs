//! Watch the vliw62 fetch pipeline fill, stall on a multicycle NOP, and
//! redirect on a branch — the cycle-accurate mechanisms of paper §3.2.3,
//! via the simulator's structured trace events.
//!
//! ```sh
//! cargo run --example pipeline_trace
//! ```

use lisa::models::vliw62;
use lisa::sim::SimMode;
use lisa::trace::{TraceEvent, TraceKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wb = vliw62::workbench()?;
    let program = wb.assembler().assemble(
        r#"
            MVK A2, 1
            MVK B2, 2       ; serial packets: one dispatch per cycle
            NOP 3           ; multicycle NOP: dispatch stalls 2 cycles
            ADD .L A3, A2, B2
            HALT
            "#,
    )?;
    let mut sim = wb.simulator(SimMode::Interpretive)?;
    sim.load_program("pmem", &program.words)?;
    sim.set_trace(true);

    let halt = wb.model().resource_by_name("halt").expect("halt").clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100)?;

    let events = sim.take_events();
    let names = sim.name_table();

    println!("pipeline trace (cycle in brackets; note the PG→PS→PW→PR→DP fill");
    println!("and the Dispatch gap while the multicycle NOP stalls DP/DC):\n");
    for event in &events {
        if event.kind() == TraceKind::Exec {
            println!("  {}", names.line(event));
        }
    }
    println!("\nstats: {}", sim.stats());

    // The typed events carry the pipeline structure directly — check a
    // few cycle-accurate facts the string trace could only hint at.
    assert!(events.iter().any(|e| e.kind() == TraceKind::Fetch));
    assert!(events.iter().any(|e| e.kind() == TraceKind::Decode));
    let staged_execs =
        events.iter().filter(|e| matches!(e, TraceEvent::Exec { stage: Some(_), .. })).count();
    assert!(staged_execs > 0, "vliw62 executes operations inside pipeline stages");
    assert!(
        events.iter().any(|e| e.kind() == TraceKind::Stall),
        "the multicycle NOP must stall the fetch pipeline"
    );
    assert!(
        events.iter().any(|e| e.kind() == TraceKind::RegisterWrite),
        "register writes are observable"
    );

    let a = wb.model().resource_by_name("A").expect("A file");
    assert_eq!(sim.state().read_int(a, &[3])?, 3);
    Ok(())
}
