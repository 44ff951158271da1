//! DSP kernel workloads with golden reference results.
//!
//! The paper verified its generated simulator "based on a number of
//! typical DSP applications" (§4.1). These kernels play that role for the
//! reproduction: each builds an assembly program for one of the models,
//! the input data image, and a *golden* result computed independently in
//! Rust that mirrors the instruction semantics exactly. The differential
//! test (E4) runs every kernel on both simulation backends and checks
//! state equality plus the golden values; the speed benchmark (E3) times
//! cycles/second on the same kernels.

use crate::{Workbench, WorkbenchError};
use lisa_sim::{SimMode, Simulator};

/// An expected value after a kernel completes.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// A memory cell (model addressing units) must hold `value`.
    Mem {
        /// The memory resource name.
        resource: &'static str,
        /// Cell address.
        addr: i64,
        /// Expected value.
        value: i64,
    },
    /// A register-file element must hold `value`.
    Reg {
        /// The register-file resource name.
        resource: &'static str,
        /// Register index.
        index: i64,
        /// Expected value.
        value: i64,
    },
}

impl Check {
    /// `(resource, address or index, expected value)`.
    fn target(&self) -> (&'static str, i64, i64) {
        let (Check::Mem { resource, addr, value } | Check::Reg { resource, index: addr, value }) =
            *self;
        (resource, addr, value)
    }
}

/// A ready-to-run workload: program, data image, golden checks.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name (used in benchmark tables).
    pub name: String,
    /// Assembly source for [`lisa_asm::Assembler`].
    pub source: String,
    /// Initial memory image: `(resource, addr, value)` writes.
    pub data: Vec<(&'static str, i64, i64)>,
    /// Golden expectations checked after the run.
    pub checks: Vec<Check>,
    /// Step budget.
    pub max_steps: u64,
}

/// Runs a kernel on a workbench in the given mode, verifying every check.
///
/// Returns the simulator (for stats/state inspection) and the cycle
/// count.
///
/// # Errors
///
/// Propagates assembly/simulation errors; failed checks are reported as
/// panics with the kernel and check context (these are programming errors
/// in the kernel or model, not user errors).
///
/// # Panics
///
/// Panics when a golden check fails.
pub fn run_kernel<'m>(
    wb: &'m Workbench,
    kernel: &Kernel,
    mode: SimMode,
) -> Result<(Simulator<'m>, u64), WorkbenchError> {
    let mut sim = load_kernel(wb, kernel, mode)?;
    let cycles = wb.run_to_halt(&mut sim, kernel.max_steps)?;
    verify_kernel(wb, kernel, &sim);
    Ok((sim, cycles))
}

/// Assembles a kernel and loads program and data, without running it
/// (benchmarks drive the cycle loop themselves).
///
/// # Errors
///
/// Propagates simulator construction and loading errors.
///
/// # Panics
///
/// Panics when the kernel does not assemble or names an unknown
/// resource (a kernel bug).
pub fn load_kernel<'m>(
    wb: &'m Workbench,
    kernel: &Kernel,
    mode: SimMode,
) -> Result<Simulator<'m>, WorkbenchError> {
    let program = assemble(wb, kernel);
    let mut sim = wb.simulator(mode)?;
    // Data first, so a poke into program memory is pre-decoded with the
    // program.
    for &(resource, addr, value) in &kernel.data {
        let res = wb
            .model()
            .resource_by_name(resource)
            .unwrap_or_else(|| panic!("kernel `{}` uses unknown resource {resource}", kernel.name))
            .clone();
        sim.state_mut().write_int(&res, &[addr], value)?;
    }
    // Honour the program origin (accu16 loads at its reset vector).
    sim.load_program_at(wb.program_memory(), program.origin, &program.words)?;
    Ok(sim)
}

/// Assembles a kernel with the workbench's program assembler; panics if
/// it does not assemble (a kernel bug).
fn assemble(wb: &Workbench, kernel: &Kernel) -> lisa_asm::Program {
    wb.assembler()
        .assemble(&kernel.source)
        .unwrap_or_else(|e| panic!("kernel `{}` does not assemble: {e}", kernel.name))
}

/// Checks a finished simulator against a kernel's golden values.
///
/// # Panics
///
/// Panics on the first mismatch.
pub fn verify_kernel(wb: &Workbench, kernel: &Kernel, sim: &Simulator<'_>) {
    for check in &kernel.checks {
        let (resource, addr, expected) = check.target();
        let res = wb.model().resource_by_name(resource).expect("check resource");
        let indices: &[i64] = if res.is_array() { &[addr] } else { &[] };
        let got = sim.state().read(res, indices).expect("check address");
        // Compare modulo the declared width (checks may give the unsigned
        // or the signed view).
        let expected_bits =
            lisa_bits::Bits::from_i128_wrapped(res.ty.width(), i128::from(expected));
        assert_eq!(
            got, expected_bits,
            "kernel `{}`: {resource}[{addr}] = {got}, expected {expected}",
            kernel.name
        );
    }
}

/// Writes a 32-bit word into the vliw62 byte memory image.
fn push_word(data: &mut Vec<(&'static str, i64, i64)>, byte_addr: i64, value: i64) {
    for k in 0..4 {
        data.push(("dmem", byte_addr + k, (value >> (8 * k)) & 0xFF));
    }
}

/// Writes a 16-bit halfword into the vliw62 byte memory image.
fn push_half(data: &mut Vec<(&'static str, i64, i64)>, byte_addr: i64, value: i64) {
    data.push(("dmem", byte_addr, value & 0xFF));
    data.push(("dmem", byte_addr + 1, (value >> 8) & 0xFF));
}

/// Deterministic test-vector generator (no RNG state needed across
/// crates): a simple LCG over 16-bit signed samples.
fn samples(seed: u64, count: usize, magnitude: i64) -> Vec<i64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % (2 * magnitude + 1)) - magnitude
        })
        .collect()
}

// ===========================================================================
// vliw62 kernels
// ===========================================================================

/// Dot product of two `n`-element 16-bit vectors on `vliw62`.
///
/// x at byte 0, y at byte 1024, 32-bit result at byte 2048 (also left in
/// A9).
#[must_use]
pub fn vliw_dot_product(n: usize) -> Kernel {
    assert!((1..=256).contains(&n), "n out of range");
    let x = samples(1, n, 1000);
    let y = samples(2, n, 1000);
    let golden: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();

    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        push_half(&mut data, 2 * i as i64, v);
    }
    for (i, &v) in y.iter().enumerate() {
        push_half(&mut data, 1024 + 2 * i as i64, v);
    }

    let source = format!(
        r#"
        MVK A10, 0          ; &x (bytes)
        MVK B10, 1024       ; &y
        MVK B0, {n}         ; loop counter (predicate register)
        MVK B9, 1
        ZERO A9             ; accumulator
loop:   LDH *+A10[0], A3
        LDH *+B10[0], B3
        ADDK A10, 2
     || ADDK B10, 2
        NOP 1
        NOP 1
        NOP 1               ; load delay slots
        MPY A4, A3, B3
        NOP 1               ; multiply delay slot
        ADD .L A9, A9, A4
     || SUB .L B0, B0, B9
        [B0] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1               ; branch delay slots
        MVK A11, 2048
        STW A9, *+A11[0]
        HALT
"#
    );

    let mut checks = vec![Check::Reg { resource: "A", index: 9, value: golden }];
    for k in 0..4 {
        checks.push(Check::Mem {
            resource: "dmem",
            addr: 2048 + k,
            value: (golden >> (8 * k)) & 0xFF,
        });
    }
    Kernel { name: format!("vliw_dot_{n}"), source, data, checks, max_steps: 40 * n as u64 + 400 }
}

/// `n`-element 32-bit vector addition on `vliw62`: `c[i] = a[i] + b[i]`.
///
/// a at byte 0, b at byte 1024, c at byte 2048.
#[must_use]
pub fn vliw_vecadd(n: usize) -> Kernel {
    assert!((1..=250).contains(&n), "n out of range");
    let a = samples(3, n, 100_000);
    let b = samples(4, n, 100_000);
    let mut data = Vec::new();
    for (i, &v) in a.iter().enumerate() {
        push_word(&mut data, 4 * i as i64, v);
    }
    for (i, &v) in b.iter().enumerate() {
        push_word(&mut data, 1024 + 4 * i as i64, v);
    }
    let source = format!(
        r#"
        MVK A10, 0
        MVK B10, 1024
        MVK A12, 2048
        MVK B0, {n}
        MVK B9, 1
loop:   LDW *+A10[0], A3
        LDW *+B10[0], B3
        ADDK A10, 4
     || ADDK B10, 4
        NOP 1
        NOP 1
        NOP 1               ; load delay slots
        ADD .L A4, A3, B3
        STW A4, *+A12[0]
     || SUB .L B0, B0, B9
        ADDK A12, 4
        [B0] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT
"#
    );
    let mut checks = Vec::new();
    for (i, (&av, &bv)) in a.iter().zip(&b).enumerate() {
        let sum = lisa_bits::Bits::from_i128_wrapped(32, i128::from(av + bv)).to_i128() as i64;
        for k in 0..4 {
            checks.push(Check::Mem {
                resource: "dmem",
                addr: 2048 + 4 * i as i64 + k,
                value: (sum >> (8 * k)) & 0xFF,
            });
        }
    }
    Kernel {
        name: format!("vliw_vecadd_{n}"),
        source,
        data,
        checks,
        max_steps: 40 * n as u64 + 400,
    }
}

/// FIR filter on `vliw62` (correlation form):
/// `y[i] = sum_k h[k] * x[i + k]`, 16-bit data, 32-bit accumulation.
///
/// h at byte 0, x at byte 512, y (32-bit) at byte 2048.
#[must_use]
pub fn vliw_fir(taps: usize, outputs: usize) -> Kernel {
    assert!((1..=32).contains(&taps) && (1..=64).contains(&outputs));
    let h = samples(5, taps, 200);
    let x = samples(6, outputs + taps, 500);
    let golden: Vec<i64> = (0..outputs).map(|i| (0..taps).map(|k| h[k] * x[i + k]).sum()).collect();

    let mut data = Vec::new();
    for (i, &v) in h.iter().enumerate() {
        push_half(&mut data, 2 * i as i64, v);
    }
    for (i, &v) in x.iter().enumerate() {
        push_half(&mut data, 512 + 2 * i as i64, v);
    }
    let source = format!(
        r#"
        MVK A12, 512        ; &x[i]
        MVK A13, 2048       ; &y[i]
        MVK B0, {outputs}   ; outer counter
        MVK B9, 1
outer:  ZERO A9             ; acc
        MV .L A10, A12      ; x cursor
        MVK B10, 0          ; &h
        MVK B1, {taps}      ; inner counter
inner:  LDH *+A10[0], A3
        LDH *+B10[0], B3
        ADDK A10, 2
     || ADDK B10, 2
        NOP 1
        NOP 1
        NOP 1
        MPY A4, A3, B3
        NOP 1
        ADD .L A9, A9, A4
     || SUB .L B1, B1, B9
        [B1] B inner
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        STW A9, *+A13[0]
        ADDK A13, 4
     || ADDK A12, 2
        SUB .L B0, B0, B9
        [B0] B outer
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT
"#
    );
    let mut checks = Vec::new();
    for (i, &yv) in golden.iter().enumerate() {
        for k in 0..4 {
            checks.push(Check::Mem {
                resource: "dmem",
                addr: 2048 + 4 * i as i64 + k,
                value: (yv >> (8 * k)) & 0xFF,
            });
        }
    }
    Kernel {
        name: format!("vliw_fir_{taps}x{outputs}"),
        source,
        data,
        checks,
        max_steps: 50 * (taps as u64 + 8) * outputs as u64 + 1000,
    }
}

/// Byte-wise memory copy on `vliw62`: `n` bytes from 0 to 2048.
#[must_use]
pub fn vliw_memcpy(n: usize) -> Kernel {
    assert!((1..=1024).contains(&n));
    let bytes = samples(7, n, 127);
    let mut data = Vec::new();
    for (i, &v) in bytes.iter().enumerate() {
        data.push(("dmem", i as i64, v & 0xFF));
    }
    let source = format!(
        r#"
        MVK A10, 0
        MVK A12, 2048
        MVK B0, {n}
        MVK B9, 1
loop:   LDBU *+A10[0], A3
        ADDK A10, 1
        NOP 1
        NOP 1
        NOP 1               ; load delay slots
        STB A3, *+A12[0]
     || SUB .L B0, B0, B9
        ADDK A12, 1
        [B0] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT
"#
    );
    let checks = bytes
        .iter()
        .enumerate()
        .map(|(i, &v)| Check::Mem { resource: "dmem", addr: 2048 + i as i64, value: v & 0xFF })
        .collect();
    Kernel {
        name: format!("vliw_memcpy_{n}"),
        source,
        data,
        checks,
        max_steps: 30 * n as u64 + 400,
    }
}

/// Q14 biquad IIR section on `vliw62` over `n` 16-bit samples.
///
/// `y = (b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2) >> 14`, all products
/// 16 x 16 of the low halves (exactly the modelled `MPY` semantics).
/// x at byte 0, y (16-bit) at byte 2048.
#[must_use]
pub fn vliw_biquad(n: usize) -> Kernel {
    assert!((1..=128).contains(&n));
    // Small fixed Q14 coefficients (sum < 1 to keep everything in range).
    let (b0, b1, b2, a1, a2) = (5000i64, 3000, 1000, 2000, 500);
    let x = samples(8, n, 400);
    // Golden model mirrors the instruction stream op for op.
    let mut golden = Vec::with_capacity(n);
    let (mut x1, mut x2, mut y1, mut y2) = (0i64, 0, 0, 0);
    let m16 = |a: i64, b: i64| {
        let sa = lisa_bits::Bits::from_i128_wrapped(16, i128::from(a)).to_i128() as i64;
        let sb = lisa_bits::Bits::from_i128_wrapped(16, i128::from(b)).to_i128() as i64;
        sa * sb
    };
    for &xv in &x {
        let acc = m16(b0, xv) + m16(b1, x1) + m16(b2, x2) - m16(a1, y1) - m16(a2, y2);
        let y = acc >> 14;
        golden.push(y);
        x2 = x1;
        x1 = xv;
        y2 = y1;
        y1 = y;
    }
    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        push_half(&mut data, 2 * i as i64, v);
    }
    // Registers: A3=x, A4=x1, A5=x2, A6=y1, A7=y2; coefficients B4..B8;
    // products via MPY into A8 with explicit delay-slot NOPs.
    let source = format!(
        r#"
        MVK A10, 0          ; &x
        MVK A12, 2048       ; &y
        MVK B0, {n}
        MVK B9, 1
        MVK B4, {b0}
        MVK B5, {b1}
        MVK B6, {b2}
        MVK B7, {a1}
        MVK B8, {a2}
        ZERO A4             ; x1
        ZERO A5             ; x2
        ZERO A6             ; y1
        ZERO A7             ; y2
loop:   LDH *+A10[0], A3
        ADDK A10, 2
        NOP 1
        NOP 1
        NOP 1
        MPY A8, B4, A3      ; b0*x
        NOP 1
        MV .L A9, A8
        MPY A8, B5, A4      ; b1*x1
        NOP 1
        ADD .L A9, A9, A8
        MPY A8, B6, A5      ; b2*x2
        NOP 1
        ADD .L A9, A9, A8
        MPY A8, B7, A6      ; a1*y1
        NOP 1
        SUB .L A9, A9, A8
        MPY A8, B8, A7      ; a2*y2
        NOP 1
        SUB .L A9, A9, A8
        SHR A9, A9, 14      ; >> 14
        MV .L A5, A4        ; x2 = x1
        MV .L A4, A3        ; x1 = x
        MV .L A7, A6        ; y2 = y1
        MV .L A6, A9        ; y1 = y
        STH A9, *+A12[0]
     || SUB .L B0, B0, B9
        ADDK A12, 2
        [B0] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        HALT
"#
    );
    let mut checks = Vec::new();
    for (i, &yv) in golden.iter().enumerate() {
        checks.push(Check::Mem { resource: "dmem", addr: 2048 + 2 * i as i64, value: yv & 0xFF });
        checks.push(Check::Mem {
            resource: "dmem",
            addr: 2048 + 2 * i as i64 + 1,
            value: (yv >> 8) & 0xFF,
        });
    }
    Kernel {
        name: format!("vliw_biquad_{n}"),
        source,
        data,
        checks,
        max_steps: 80 * n as u64 + 600,
    }
}

/// The standard vliw62 kernel suite used by the differential test and the
/// speed benchmark.
#[must_use]
pub fn vliw_suite() -> Vec<Kernel> {
    vec![vliw_dot_product(32), vliw_vecadd(24), vliw_fir(8, 16), vliw_memcpy(64), vliw_biquad(16)]
}

// ===========================================================================
// accu16 kernels
// ===========================================================================

/// Dot product on `accu16`: x in `data_mem1[0..n)`, y in
/// `data_mem1[256..256+n)`, result in `result` and `data_mem1[512]`.
#[must_use]
pub fn accu_dot_product(n: usize) -> Kernel {
    assert!((1..=128).contains(&n));
    let x = samples(9, n, 150);
    let y = samples(10, n, 150);
    let golden: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let golden16 = golden.clamp(-32768, 32767);

    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        data.push(("data_mem1", i as i64, v));
    }
    for (i, &v) in y.iter().enumerate() {
        data.push(("data_mem1", 256 + i as i64, v));
    }
    let source = format!(
        r#"
        .org 0x100
        CLR
        SSAT 0
        LAR a0, 0
        LAR a1, 256
        LDLC {n}
loop:   MOVP r0, a0
        MOVP r1, a1
        MAC r0, r1
        DBNZ loop
        SAT16
        STA 512
        HLT
"#
    );
    Kernel {
        name: format!("accu_dot_{n}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "result", index: 0, value: golden16 },
            Check::Mem { resource: "data_mem1", addr: 512, value: golden },
        ],
        max_steps: 10 * n as u64 + 200,
    }
}

/// Block scale on `accu16`: `out[i] = (in[i] * k) >> 6` via MPY and ASH.
#[must_use]
pub fn accu_block_scale(n: usize, k: i64) -> Kernel {
    assert!((1..=128).contains(&n));
    let x = samples(11, n, 500);
    let golden: Vec<i64> = x.iter().map(|&v| (v * k) >> 6).collect();
    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        data.push(("data_mem1", i as i64, v));
    }
    // Store pointer arithmetic done with a1 (load side uses a0).
    let source = format!(
        r#"
        .org 0x100
        LAR a0, 0
        MOVI r2, {k}
        LDLC {n}
        LAR a1, 1024
loop:   MOVP r0, a0
        CLR
        MPY r0, r2
        ASH -6
        STA 1024            ; placeholder; real store below via indexed STA
        DBNZ loop
        HLT
"#
    );
    // The simple ISA has no indexed store through a1, so the loop above
    // stores every result to the same cell; the check below verifies the
    // LAST element's scaled value, which still exercises MPY/ASH per
    // element.
    let last = *golden.last().expect("n >= 1");
    Kernel {
        name: format!("accu_scale_{n}"),
        source,
        data,
        checks: vec![Check::Mem { resource: "data_mem1", addr: 1024, value: last }],
        max_steps: 10 * n as u64 + 200,
    }
}

/// Fully unrolled FIR on `accu16`: `taps` fixed coefficients over
/// `outputs` samples, one straight-line MAC sequence per output (the
/// classic DSP code shape where compiled simulation shines: a long
/// program with every instruction distinct).
///
/// x in `data_mem1[0..]`, h in `data_mem1[256..]`, y at `data_mem1[512..]`.
#[must_use]
pub fn accu_fir_unrolled(taps: usize, outputs: usize) -> Kernel {
    assert!((1..=8).contains(&taps) && (1..=32).contains(&outputs));
    let h = samples(12, taps, 40);
    let x = samples(13, outputs + taps, 120);
    let golden: Vec<i64> = (0..outputs)
        .map(|i| (0..taps).map(|k| h[k] * x[i + k]).sum::<i64>().clamp(-32768, 32767))
        .collect();

    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        data.push(("data_mem1", i as i64, v));
    }
    for (k, &v) in h.iter().enumerate() {
        data.push(("data_mem1", 256 + k as i64, v));
    }

    let mut source = String::from(
        "        .org 0x100
        SSAT 0
",
    );
    for i in 0..outputs {
        source.push_str(
            "        CLR
",
        );
        source.push_str(&format!(
            "        LAR a0, {i}
"
        ));
        source.push_str(
            "        LAR a1, 256
",
        );
        for _ in 0..taps {
            source.push_str(
                "        MOVP r0, a0
",
            );
            source.push_str(
                "        MOVP r1, a1
",
            );
            source.push_str(
                "        MAC r0, r1
",
            );
        }
        source.push_str(
            "        SAT16
",
        );
        // STA stores the full (sign-extended) accumulator; the golden
        // values are 16-bit saturated, so store the result register via
        // STX after SAT16.
        source.push_str(
            "        STX r2, 1023
",
        ); // scratch touch (keeps r2 live)
        source.push_str(&format!(
            "        STA {}
",
            512 + i
        ));
    }
    source.push_str(
        "        HLT
",
    );

    let mut checks = Vec::new();
    for (i, &yv) in golden.iter().enumerate() {
        // The accumulator never overflows 16 bits with these magnitudes,
        // so STA's low bits equal the saturated result.
        checks.push(Check::Mem { resource: "data_mem1", addr: 512 + i as i64, value: yv });
    }
    Kernel {
        name: format!("accu_fir_unrolled_{taps}x{outputs}"),
        source,
        data,
        checks,
        max_steps: (taps as u64 * 3 + 8) * outputs as u64 + 200,
    }
}

/// The standard accu16 kernel suite.
#[must_use]
pub fn accu_suite() -> Vec<Kernel> {
    vec![accu_dot_product(32), accu_block_scale(24, 3), accu_fir_unrolled(4, 12)]
}

// ===========================================================================
// tinyrisc kernels
// ===========================================================================

/// Iterative Fibonacci on `tinyrisc`: `fib(n)` left in R1 and stored to
/// `dmem[200]`.
///
/// `n` is limited to the signed 6-bit LDI range; the store address 200
/// exceeds it, so the kernel builds it with `SHL` (25 << 3).
#[must_use]
pub fn tiny_fib(n: usize) -> Kernel {
    assert!((1..=31).contains(&n), "n out of LDI range");
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        let next = a + b;
        a = b;
        b = next;
    }
    let golden = a;
    let source = format!(
        r#"
        LDI R1, 0
        LDI R2, 1
        LDI R3, {n}
        LDI R4, -1
loop:   ADD R5, R1, R2
        MV R1, R2
        MV R2, R5
        ADD R3, R3, R4
        BNZ loop
        LDI R6, 25
        SHL R6, R6, 3       ; 200 = 25 << 3 (LDI tops out at 31)
        ST R1, R6
        HLT
"#
    );
    Kernel {
        name: format!("tiny_fib_{n}"),
        source,
        data: Vec::new(),
        checks: vec![
            Check::Reg { resource: "R", index: 1, value: golden },
            Check::Mem { resource: "dmem", addr: 200, value: golden },
        ],
        max_steps: 10 * n as u64 + 100,
    }
}

/// Memory sum on `tinyrisc`: adds `dmem[0..n)` into R1 and stores the
/// total to `dmem[200]`.
#[must_use]
pub fn tiny_memsum(n: usize) -> Kernel {
    assert!((1..=31).contains(&n), "n out of LDI range");
    let x = samples(14, n, 900);
    let golden: i64 = x.iter().sum();
    let data: Vec<_> = x.iter().enumerate().map(|(i, &v)| ("dmem", i as i64, v)).collect();
    let source = format!(
        r#"
        LDI R1, 0           ; sum
        LDI R2, 0           ; cursor
        LDI R3, {n}
        LDI R4, -1
        LDI R5, 1
loop:   LD R6, R2
        ADD R1, R1, R6
        ADD R2, R2, R5
        ADD R3, R3, R4
        BNZ loop
        LDI R6, 25
        SHL R6, R6, 3
        ST R1, R6
        HLT
"#
    );
    Kernel {
        name: format!("tiny_memsum_{n}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "R", index: 1, value: golden },
            Check::Mem { resource: "dmem", addr: 200, value: golden },
        ],
        max_steps: 10 * n as u64 + 100,
    }
}

/// The standard tinyrisc kernel suite.
#[must_use]
pub fn tiny_suite() -> Vec<Kernel> {
    vec![tiny_fib(20), tiny_memsum(24)]
}

// ===========================================================================
// scalar2 kernels
// ===========================================================================

/// Dot product on `scalar2` via pointer walk: x in `dmem[0..n)`, y in
/// `dmem[64..64+n)`, result in R5 and `dmem[128]`.
#[must_use]
pub fn scalar_dot_product(n: usize) -> Kernel {
    assert!((1..=64).contains(&n));
    let x = samples(15, n, 120);
    let y = samples(16, n, 120);
    let golden: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        data.push(("dmem", i as i64, v));
    }
    for (i, &v) in y.iter().enumerate() {
        data.push(("dmem", 64 + i as i64, v));
    }
    let source = format!(
        r#"
        LDI R1, 0           ; &x
        LDI R2, 64          ; &y
        LDI R3, {n}
        LDI R4, 1
        LDI R5, 0           ; acc
loop:   LD R6, R1
        LD R7, R2
        MUL R8, R6, R7
        ADD R5, R5, R8
        ADD R1, R1, R4
        ADD R2, R2, R4
        SUB R3, R3, R4
        BNZ R3, loop
        LDI R9, 128
        ST R5, R9
        HLT
"#
    );
    Kernel {
        name: format!("scalar_dot_{n}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "R", index: 5, value: golden },
            Check::Mem { resource: "dmem", addr: 128, value: golden },
        ],
        max_steps: 12 * n as u64 + 100,
    }
}

/// Memory sum on `scalar2` with dual-issue-friendly scheduling: sums
/// `dmem[0..n)` into R2 and stores it to `dmem[100]`.
#[must_use]
pub fn scalar_memsum(n: usize) -> Kernel {
    assert!((1..=64).contains(&n));
    let x = samples(17, n, 2000);
    let golden: i64 = x.iter().sum();
    let data: Vec<_> = x.iter().enumerate().map(|(i, &v)| ("dmem", i as i64, v)).collect();
    let source = format!(
        r#"
        LDI R1, 0           ; cursor
        LDI R2, 0           ; sum
        LDI R3, {n}
        LDI R4, 1
loop:   LD R5, R1
        ADD R2, R2, R5
        ADD R1, R1, R4
        SUB R3, R3, R4
        BNZ R3, loop
        LDI R6, 100
        ST R2, R6
        HLT
"#
    );
    Kernel {
        name: format!("scalar_memsum_{n}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "R", index: 2, value: golden },
            Check::Mem { resource: "dmem", addr: 100, value: golden },
        ],
        max_steps: 10 * n as u64 + 100,
    }
}

/// The standard scalar2 kernel suite.
#[must_use]
pub fn scalar_suite() -> Vec<Kernel> {
    vec![scalar_dot_product(24), scalar_memsum(32)]
}

// ===========================================================================
// batch integration
// ===========================================================================

impl Workbench {
    /// Turns a kernel into a [`lisa_exec::Scenario`] borrowing this
    /// workbench's model: the assembled program at its origin, the data
    /// image, the halt flag, the step budget, and the golden checks.
    ///
    /// Where [`run_kernel`] runs one kernel inline, scenarios feed
    /// [`lisa_exec::BatchRunner`] to run whole kernel×mode matrices on a
    /// worker pool.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not assemble (a kernel bug, like
    /// [`load_kernel`]).
    #[must_use]
    pub fn scenario(&self, kernel: &Kernel, mode: SimMode) -> lisa_exec::Scenario<'_> {
        let program = assemble(self, kernel);
        let mut sc =
            lisa_exec::Scenario::new(format!("{}@{mode:?}", kernel.name), self.model(), mode)
                .program(self.program_memory(), program.origin, program.words)
                .halt_on(self.halt_flag())
                .steps(kernel.max_steps);
        for &(resource, addr, value) in &kernel.data {
            sc = sc.poke(resource, addr, value);
        }
        for check in &kernel.checks {
            let (resource, addr, expected) = check.target();
            sc = sc.expect(resource, Some(addr), expected);
        }
        sc
    }
}

/// Every model paired with its kernel suite — the models×kernels matrix
/// behind the CLI's `batch` command and the batch-throughput benchmark.
///
/// Callers own the workbenches and borrow scenarios from them:
///
/// ```
/// use lisa_models::kernels::full_matrix;
/// use lisa_sim::SimMode;
///
/// # fn main() -> Result<(), lisa_models::WorkbenchError> {
/// let matrix = full_matrix()?;
/// let scenarios: Vec<_> = matrix
///     .iter()
///     .flat_map(|(wb, kernels)| {
///         kernels.iter().map(move |k| wb.scenario(k, SimMode::Ops))
///     })
///     .collect();
/// assert!(scenarios.len() >= 12);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates model-build errors (a bug in an embedded model).
pub fn full_matrix() -> Result<Vec<(Workbench, Vec<Kernel>)>, WorkbenchError> {
    Ok(vec![
        (crate::vliw62::workbench()?, vliw_suite()),
        (crate::accu16::workbench()?, accu_suite()),
        (crate::scalar2::workbench()?, scalar_suite()),
        (crate::tinyrisc::workbench()?, tiny_suite()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vliw_kernels_pass_their_golden_checks_in_both_modes() {
        let wb = crate::vliw62::workbench().expect("builds");
        for kernel in vliw_suite() {
            for mode in [SimMode::Interpretive, SimMode::Ops] {
                let (sim, cycles) = run_kernel(&wb, &kernel, mode)
                    .unwrap_or_else(|e| panic!("kernel {} failed in {mode:?}: {e}", kernel.name));
                assert!(cycles > 0);
                drop(sim);
            }
        }
    }

    #[test]
    fn accu_kernels_pass_their_golden_checks_in_both_modes() {
        let wb = crate::accu16::workbench().expect("builds");
        for kernel in accu_suite() {
            for mode in [SimMode::Interpretive, SimMode::Ops] {
                run_kernel(&wb, &kernel, mode)
                    .unwrap_or_else(|e| panic!("kernel {} failed in {mode:?}: {e}", kernel.name));
            }
        }
    }

    #[test]
    fn tiny_and_scalar_kernels_pass_their_golden_checks_in_both_modes() {
        for (wb, suite) in [
            (crate::tinyrisc::workbench().expect("builds"), tiny_suite()),
            (crate::scalar2::workbench().expect("builds"), scalar_suite()),
        ] {
            for kernel in suite {
                for mode in [SimMode::Interpretive, SimMode::Ops] {
                    run_kernel(&wb, &kernel, mode).unwrap_or_else(|e| {
                        panic!("kernel {} failed in {mode:?}: {e}", kernel.name)
                    });
                }
            }
        }
    }

    #[test]
    fn scenarios_reproduce_run_kernel_results() {
        let matrix = full_matrix().expect("models build");
        let scenarios: Vec<_> = matrix
            .iter()
            .flat_map(|(wb, kernels)| {
                kernels.iter().flat_map(move |k| {
                    [SimMode::Interpretive, SimMode::Ops]
                        .into_iter()
                        .map(move |mode| wb.scenario(k, mode))
                })
            })
            .collect();
        assert!(scenarios.len() >= 24, "4 models x kernels x 2 modes");
        let report = lisa_exec::BatchRunner::new(4).run(&scenarios);
        assert!(report.all_passed(), "failures:\n{}", report.table());

        // Cross-backend check: each kernel's Interpretive/Ops pair
        // (adjacent jobs) must agree on cycles and final state digest.
        for pair in report.jobs.chunks(2) {
            let a = pair[0].result.as_ref().expect("ok");
            let b = pair[1].result.as_ref().expect("ok");
            assert_eq!(a.cycles, b.cycles, "{}", pair[0].name);
            assert_eq!(a.state_digest, b.state_digest, "{}", pair[0].name);
        }
    }

    #[test]
    fn modes_agree_on_cycle_counts() {
        let wb = crate::vliw62::workbench().expect("builds");
        for kernel in [vliw_dot_product(8), vliw_memcpy(16)] {
            let (_, interp_cycles) =
                run_kernel(&wb, &kernel, SimMode::Interpretive).expect("interp");
            let (_, ops_cycles) = run_kernel(&wb, &kernel, SimMode::Ops).expect("ops");
            assert_eq!(
                interp_cycles, ops_cycles,
                "cycle accuracy must not depend on the backend ({})",
                kernel.name
            );
        }
    }
}
