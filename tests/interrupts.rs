//! Interrupt-controller tests on vliw62 (the paper's C6201 model covers
//! "memory interface and interrupt controller", §4): acceptance,
//! priority, masking, global enable, delay-slot deferral, and precise
//! resume through IRET — in both simulation backends.

use lisa::models::vliw62;
use lisa::models::Workbench;
use lisa::sim::{SimMode, Simulator};

/// Main program: sets up one ISR at word 64 for lines 0 and 1, enables
/// interrupts, then counts A2 up in a loop until A2 == 40, then HALTs.
/// ISR: increments B5, then IRET.
const PROGRAM: &str = r#"
        LDVEC 0, isr
        LDVEC 1, isr
        LDIER 3          ; enable lines 0 and 1
        EINT
        MVK A2, 0
        MVK A3, 1
        MVK A4, 40
loop:   ADD .L A2, A2, A3
        CMPLT B2, A2, A4
        [B2] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT

        .org 64
isr:    ADDK B5, 1
        IRET
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1            ; IRET delay slots
"#;

fn load<'m>(wb: &'m Workbench, mode: SimMode) -> Simulator<'m> {
    let program = wb.assembler().assemble(PROGRAM).expect("assembles");
    let mut sim = wb.simulator(mode).expect("sim");
    sim.load_program("pmem", &program.words).unwrap();
    sim
}

fn reg(sim: &Simulator<'_>, file: &str, i: i64) -> i64 {
    sim.state().read_int(sim.model().resource_by_name(file).unwrap(), &[i]).unwrap()
}

fn scalar(sim: &Simulator<'_>, name: &str) -> i64 {
    sim.state().read_int(sim.model().resource_by_name(name).unwrap(), &[]).unwrap()
}

fn raise(sim: &mut Simulator<'_>, mask: i64) {
    let ifr = sim.model().resource_by_name("ifr").unwrap().clone();
    let current = sim.state().read_int(&ifr, &[]).unwrap();
    sim.state_mut().write_int(&ifr, &[], current | mask).unwrap();
}

fn run_to_halt(wb: &Workbench, sim: &mut Simulator<'_>) {
    let halt = wb.model().resource_by_name("halt").unwrap().clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 10_000).expect("halts");
}

#[test]
fn interrupt_is_serviced_and_execution_resumes_precisely() {
    let wb = vliw62::workbench().expect("builds");
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = load(&wb, mode);
        // Let setup + some loop iterations run, raise line 0, continue.
        sim.run(40).unwrap();
        raise(&mut sim, 1);
        run_to_halt(&wb, &mut sim);
        assert_eq!(reg(&sim, "B", 5), 1, "{mode:?}: ISR ran exactly once");
        assert_eq!(reg(&sim, "A", 2), 40, "{mode:?}: main loop completed correctly");
        assert_eq!(scalar(&sim, "in_isr"), 0, "{mode:?}: returned from the ISR");
        assert_eq!(scalar(&sim, "gie"), 1, "{mode:?}: interrupts re-enabled");
        assert_eq!(scalar(&sim, "ifr"), 0, "{mode:?}: flag cleared");
    }
}

#[test]
fn backends_agree_through_an_interrupt() {
    let wb = vliw62::workbench().expect("builds");
    let mut interp = load(&wb, SimMode::Interpretive);
    let mut ops = load(&wb, SimMode::Ops);
    for cycle in 0..200 {
        if cycle == 45 {
            raise(&mut interp, 1);
            raise(&mut ops, 1);
        }
        interp.step().unwrap();
        ops.step().unwrap();
        assert_eq!(interp.state(), ops.state(), "diverged at cycle {cycle}");
    }
}

#[test]
fn masked_lines_are_ignored() {
    let wb = vliw62::workbench().expect("builds");
    let mut sim = load(&wb, SimMode::Ops);
    sim.run(40).unwrap();
    raise(&mut sim, 0b0100); // line 2: not in IER (mask 3)
    run_to_halt(&wb, &mut sim);
    assert_eq!(reg(&sim, "B", 5), 0, "ISR never ran");
    assert_eq!(scalar(&sim, "ifr"), 0b0100, "flag stays pending");
}

#[test]
fn priority_services_lowest_line_first() {
    let wb = vliw62::workbench().expect("builds");
    let mut sim = load(&wb, SimMode::Interpretive);
    sim.run(40).unwrap();
    raise(&mut sim, 0b0011); // lines 0 and 1 together
                             // After the first acceptance, line 0 must be cleared, line 1 pending.
    let ifr = wb.model().resource_by_name("ifr").unwrap().clone();
    let in_isr = wb.model().resource_by_name("in_isr").unwrap().clone();
    sim.run_until(|st| st.read_int(&in_isr, &[]).unwrap_or(0) != 0, 100)
        .expect("interrupt accepted");
    assert_eq!(sim.state().read_int(&ifr, &[]).unwrap(), 0b0010, "line 0 taken first");
    run_to_halt(&wb, &mut sim);
    assert_eq!(reg(&sim, "B", 5), 2, "both lines eventually serviced");
    assert_eq!(scalar(&sim, "ifr"), 0);
}

#[test]
fn dint_defers_until_eint() {
    let wb = vliw62::workbench().expect("builds");
    // Program with interrupts disabled the whole run.
    let program = r#"
        LDVEC 0, isr
        LDIER 1
        DINT
        MVK A1, 30
        MVK A3, 1
loop:   SUB .L A1, A1, A3
        [A1] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT
        .org 64
isr:    ADDK B5, 1
        IRET
        NOP 5
"#;
    let image = wb.assembler().assemble(program).expect("assembles");
    let mut sim = wb.simulator(SimMode::Ops).expect("sim");
    sim.load_program("pmem", &image.words).unwrap();
    sim.run(30).unwrap();
    raise(&mut sim, 1);
    run_to_halt(&wb, &mut sim);
    assert_eq!(reg(&sim, "B", 5), 0, "ISR blocked by DINT");
    assert_eq!(scalar(&sim, "ifr"), 1, "request still pending at halt");
}

#[test]
fn interrupts_wait_out_branch_delay_slots() {
    let wb = vliw62::workbench().expect("builds");
    let mut sim = load(&wb, SimMode::Interpretive);
    sim.run(40).unwrap();
    // Find a cycle where a branch is pending, then raise the line.
    let br_pending = wb.model().resource_by_name("br_pending").unwrap().clone();
    sim.run_until(|st| st.read_int(&br_pending, &[]).unwrap_or(0) != 0, 200)
        .expect("a loop branch is in flight");
    raise(&mut sim, 1);
    let in_isr = wb.model().resource_by_name("in_isr").unwrap().clone();
    // Not taken immediately (delay slots in progress)...
    sim.step().unwrap();
    assert_eq!(sim.state().read_int(&in_isr, &[]).unwrap(), 0);
    // ...but taken soon after, and the program still finishes correctly.
    run_to_halt(&wb, &mut sim);
    assert_eq!(reg(&sim, "B", 5), 1);
    assert_eq!(reg(&sim, "A", 2), 40);
}
