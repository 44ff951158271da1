//! Edge cases of the ops backend's translate-time specialization:
//! constant-trip `for` unrolling and three-address code (operands read
//! where they are used, conditions as one compare-and-jump).
//!
//! Every model runs in both backends; cycles, the state digest, the
//! mode-independent statistics and the error (value and cycle) must agree
//! with the interpretive reference. The ops listing of `main` then shows
//! whether the translator took the specialized path, so each case pins
//! both the semantics and the shape of the emitted code.

use lisa_core::Model;
use lisa_sim::{ArchProfile, SimError, SimMode, Simulator};

/// What one backend observed: everything the modes must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    digest: u64,
    /// executed_ops, decodes, activations, stalls, flushes,
    /// instructions_retired (decode-cache hits legitimately differ).
    stats: [u64; 6],
    error: Option<SimError>,
    /// The architectural profile (memory read and write heat among it),
    /// when the run had it on.
    profile: Option<ArchProfile>,
}

fn observe(model: &Model, mode: SimMode, steps: u64, profiled: bool) -> (Observed, Simulator<'_>) {
    let mut sim = Simulator::new(model, mode).expect("simulator builds");
    if profiled {
        sim.enable_arch_profile();
    }
    let error = sim.run(steps).err();
    let s = sim.stats();
    let observed = Observed {
        cycles: s.cycles,
        digest: sim.state().digest(),
        stats: [
            s.executed_ops,
            s.decodes,
            s.activations,
            s.stalls,
            s.flushes,
            s.instructions_retired,
        ],
        error,
        profile: sim.arch_profile(),
    };
    (observed, sim)
}

fn build(src: &str) -> Model {
    Model::from_source(src).expect("model builds")
}

/// Runs `model` for `steps` cycles in both backends, asserts they agree —
/// unobserved, and again with the architectural profile on — and returns
/// the unobserved interpretive result plus the ops listing of `main`.
fn run_both(model: &Model, steps: u64) -> (Observed, Simulator<'_>, String) {
    let (reference, interp) = observe(model, SimMode::Interpretive, steps, false);
    let (got, _) = observe(model, SimMode::Ops, steps, false);
    assert_eq!(got, reference, "Ops diverged from the interpretive backend");
    let (profiled, _) = observe(model, SimMode::Interpretive, steps, true);
    let (got, _) = observe(model, SimMode::Ops, steps, true);
    assert!(profiled.profile.is_some(), "the profiled run has a profile");
    assert_eq!(got, profiled, "Ops diverged from the interpretive backend under the profile");
    let ops = Simulator::new(model, SimMode::Ops).expect("ops simulator");
    // Section headers start a line with `== `; `==` inside a line is a
    // comparison.
    let listing = format!("\n{}", ops.ops_listing());
    let main = listing
        .split("\n== ")
        .find(|s| s.starts_with("op main "))
        .expect("main has a routine")
        .to_owned();
    (reference, interp, main)
}

fn read(sim: &Simulator<'_>, name: &str, indices: &[i64]) -> i64 {
    let res = sim.model().resource_by_name(name).expect(name);
    sim.state().read_int(res, indices).expect(name)
}

/// A routine still contains a loop when it has an indexed access or a
/// jump (the unrolled forms have neither).
fn has_loop(listing: &str) -> bool {
    listing.contains("[idx ") || listing.contains("[dyn ") || listing.contains("jump ")
}

#[test]
fn constant_shift_loop_unrolls_to_flat_accesses() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int q[5]; }
        OPERATION main {
            BEHAVIOR {
                for (int i = 0; i < 4; i++) {
                    q[i] = q[i + 1];
                }
                q[4] = pc;
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 7);
    assert_eq!(obs.error, None);
    assert!(!has_loop(&main), "constant loop was not unrolled:\n{main}");
    assert!(main.contains("q[0] = q[1]") && main.contains("q[4] = pc"), "{main}");
    // q holds the last five pc values, oldest first.
    let q: Vec<i64> = (0..5).map(|i| read(&sim, "q", &[i])).collect();
    assert_eq!(q, [2, 3, 4, 5, 6]);
}

#[test]
fn induction_variable_written_in_the_body_stays_a_loop() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int acc; DATA_MEMORY int m[8]; }
        OPERATION main {
            BEHAVIOR {
                for (int i = 0; i < 8; i++) {
                    m[i] = m[i] + 1;
                    if (i == 2) { i = i + 2; }
                    acc += i;
                }
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 3);
    assert_eq!(obs.error, None);
    assert!(has_loop(&main), "a written induction variable must keep the loop:\n{main}");
    // i visits 0,1,2(->4),5,6,7: acc += 0+1+4+5+6+7 per cycle.
    assert_eq!(read(&sim, "acc", &[]), 3 * 23);
    assert_eq!(read(&sim, "m", &[3]), 0);
    assert_eq!(read(&sim, "m", &[5]), 3);
}

#[test]
fn break_and_continue_keep_the_loop() {
    for body in [
        "if (i == lim) { break; } acc += i;",
        "if (i % 2 == lim) { continue; } acc += i;",
        "if (i > lim) { if (i > 5) { break; } }",
    ] {
        let src = format!(
            r#"
            RESOURCE {{ PROGRAM_COUNTER int pc; REGISTER int acc; REGISTER int lim; }}
            OPERATION main {{
                BEHAVIOR {{
                    lim = pc % 3;
                    for (int i = 0; i < 8; i++) {{ {body} }}
                    pc = pc + 1;
                }}
            }}
            "#
        );
        let model = build(&src);
        let (obs, _, main) = run_both(&model, 6);
        assert_eq!(obs.error, None);
        assert!(main.contains("jump "), "`{body}` must keep the loop:\n{main}");
    }
}

#[test]
fn break_inside_a_nested_switch_does_not_block_unrolling() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int acc; }
        OPERATION main {
            BEHAVIOR {
                for (int i = 0; i < 4; i++) {
                    switch (pc % 2) {
                        case 0: acc += i; break;
                        default: acc += 10 * i; break;
                    }
                    // The switch's breaks bind to it; the next loop's do not.
                    while (acc > 1000) { acc -= 1000; break; }
                }
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 4);
    assert_eq!(obs.error, None);
    // `i` is slot 0: a kept loop would step it with `%0 = %0 + 1`.
    assert!(!main.contains("%0 = %0 + 1"), "loop with switch breaks was not unrolled:\n{main}");
    // Two even and two odd cycles: 2 * 6 + 2 * 60.
    assert_eq!(read(&sim, "acc", &[]), 132);
}

#[test]
fn trip_count_cap_is_sixteen() {
    for (trips, unrolled) in [(16, true), (17, false)] {
        let src = format!(
            r#"
            RESOURCE {{ PROGRAM_COUNTER int pc; DATA_MEMORY int m[32]; }}
            OPERATION main {{
                BEHAVIOR {{
                    for (int i = 0; i < {trips}; i++) {{ m[i] = m[i] + i; }}
                    pc = pc + 1;
                }}
            }}
            "#
        );
        let model = build(&src);
        let (obs, sim, main) = run_both(&model, 2);
        assert_eq!(obs.error, None);
        assert_eq!(!has_loop(&main), unrolled, "{trips} trips:\n{main}");
        assert_eq!(read(&sim, "m", &[trips - 1]), 2 * (trips - 1));
    }
}

#[test]
fn nested_constant_loops_unroll_together() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; DATA_MEMORY int m[12]; }
        OPERATION main {
            BEHAVIOR {
                for (int i = 3; i >= 0; i--) {
                    for (int j = 0; j != 3; j++) {
                        m[i * 3 + j] = m[i * 3 + j] + i - j;
                    }
                }
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 2);
    assert_eq!(obs.error, None);
    assert!(!has_loop(&main), "nested loops were not unrolled:\n{main}");
    // Two cycles of m[i*3+j] += i - j.
    let expect: Vec<i64> = (0..12).map(|k| 2 * (k / 3 - k % 3)).collect();
    assert_eq!((0..12).map(|k| read(&sim, "m", &[k])).collect::<Vec<_>>(), expect);
}

#[test]
fn nested_unrolling_stops_at_256_body_copies() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int acc; }
        OPERATION main {
            BEHAVIOR {
                for (int i = 0; i < 16; i++) {
                    for (int j = 0; j < 16; j++) {
                        for (int k = 0; k < 16; k++) { acc += i ^ j ^ k; }
                    }
                }
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, _, main) = run_both(&model, 1);
    assert_eq!(obs.error, None);
    // The outer two loops unroll into 256 copies of the innermost one,
    // which stays a loop: one back-edge jump per copy.
    assert_eq!(main.matches("jump ").count(), 256, "{main}");
}

#[test]
fn loop_variable_keeps_its_exit_value_after_the_loop() {
    let model = build(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc; REGISTER int up; REGISTER int down;
            REGISTER int empty; REGISTER int wrapped; REGISTER int sum;
        }
        OPERATION main {
            BEHAVIOR {
                int i;
                for (i = 2; i <= 6; i++) { sum += i; }
                up = i;
                for (i = 3; i > -2; i--) { sum += i; }
                down = i;
                for (i = 9; i < 4; i++) { sum += 1000; }
                empty = i;
                // The declared width wraps the start: 65540 is 4 as a short.
                short s;
                for (short k = 65540; k < 8; k++) { sum += k; s = k; }
                wrapped = s;
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 1);
    assert_eq!(obs.error, None);
    assert!(!has_loop(&main), "{main}");
    assert_eq!(read(&sim, "up", &[]), 7);
    assert_eq!(read(&sim, "down", &[]), -2);
    assert_eq!(read(&sim, "empty", &[]), 9);
    assert_eq!(read(&sim, "wrapped", &[]), 7);
    assert_eq!(read(&sim, "sum", &[]), 20 + 5 + 22);
}

#[test]
fn out_of_bounds_index_fails_at_the_same_iteration() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int seen; DATA_MEMORY int m[4]; }
        OPERATION main {
            BEHAVIOR {
                pc = pc + 1;
                if (pc == 3) {
                    for (int i = 0; i < 6; i++) {
                        seen = i;
                        m[i] = m[i] + 1;
                    }
                }
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 5);
    assert!(!has_loop(&main), "{main}");
    assert!(main.contains("fail IndexOutOfBounds"), "{main}");
    assert_eq!(obs.cycles, 2, "fails during the third cycle");
    assert!(
        matches!(obs.error, Some(SimError::IndexOutOfBounds { index: 4, .. })),
        "{:?}",
        obs.error
    );
    // Iterations 0..=3 ran, and iteration 4 set `seen` before faulting.
    assert_eq!(read(&sim, "seen", &[]), 4);
    assert_eq!((0..4).map(|i| read(&sim, "m", &[i])).collect::<Vec<_>>(), [1, 1, 1, 1]);
}

#[test]
fn division_by_zero_through_immediates_names_the_operation() {
    for (expr, code) in [
        ("r = x / 0;", "r = x / 0"),
        ("r = x % 0;", "r = x % 0"),
        ("if (x / 0 == 1) { r = 1; }", "%0 = x / 0"),
        ("if (x % 0) { r = 1; }", "unless x % 0 -> "),
        ("if (x / y) { r = 1; }", "unless x / y -> "),
    ] {
        let src = format!(
            r#"
            RESOURCE {{ PROGRAM_COUNTER int pc; REGISTER int x; REGISTER int y; REGISTER int r; }}
            OPERATION divide {{ BEHAVIOR {{ {expr} }} }}
            OPERATION main {{
                BEHAVIOR {{
                    pc = pc + 1;
                    x = 7;
                    if (pc == 2) {{ divide; }}
                }}
            }}
            "#
        );
        let model = build(&src);
        let ops = Simulator::new(&model, SimMode::Ops).expect("ops simulator");
        let listing = ops.ops_listing();
        assert!(listing.contains(code), "`{expr}` should translate to `{code}`:\n{listing}");
        let (obs, _, _) = run_both(&model, 4);
        assert_eq!(obs.cycles, 1, "`{expr}`");
        assert_eq!(
            obs.error,
            Some(SimError::DivisionByZero { operation: "divide".to_owned() }),
            "`{expr}`"
        );
    }
}

#[test]
fn jump_targets_inside_conditional_operands_are_respected() {
    // Each shape lands a jump inside one value's computation: a ternary
    // or short-circuit operand joins its arms right before the op that
    // consumes it, and `&&`/`||` conditions become chains of
    // compare-and-jumps whose targets skip into the middle of the chain.
    let model = build(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc; REGISTER int a; REGISTER int b; REGISTER int c;
            REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
            REGISTER int r4; REGISTER int r5;
        }
        OPERATION main {
            BEHAVIOR {
                a = pc & 1;
                b = (pc >> 1) & 1;
                c = (pc >> 2) & 1;
                r0 += 5 - (a ? b : 3);
                if (10 - (a ? c : 3) > 8) { r1 += 1; }
                if (a ? b : c + 1) { r2 += 1; }
                if ((a && b) == 0) { r3 += 1; }
                if (a || b && c) { r4 += 1; }
                r5 += (a || c) + 7;
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 8);
    assert_eq!(obs.error, None);
    assert!(main.contains("unless %0 > 8 -> "), "the compare did not join its jump:\n{main}");
    let mut expect = [0i64; 6];
    for pc in 0..8i64 {
        let (a, b, c) = (pc & 1, (pc >> 1) & 1, (pc >> 2) & 1);
        expect[0] += 5 - if a != 0 { b } else { 3 };
        expect[1] += i64::from(10 - (if a != 0 { c } else { 3 }) > 8);
        expect[2] += i64::from((if a != 0 { b } else { c + 1 }) != 0);
        expect[3] += i64::from(!(a != 0 && b != 0));
        expect[4] += i64::from(a != 0 || (b != 0 && c != 0));
        expect[5] += i64::from(a != 0 || c != 0) + 7;
    }
    let got: Vec<i64> = (0..6).map(|k| read(&sim, &format!("r{k}"), &[])).collect();
    assert_eq!(got, expect);
}

#[test]
fn nested_operands_each_get_a_temporary() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int R[5]; }
        OPERATION main {
            BEHAVIOR {
                R[1] = pc;
                R[2] = pc * 3;
                R[3] = 7 - pc;
                R[4] = pc & 2;
                R[0] = (R[1] + R[2]) * (R[3] - R[4]);
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 5);
    assert_eq!(obs.error, None);
    assert!(main.contains("R[0] = %0 * %1"), "two temporaries feed one op:\n{main}");
    // The last cycle ran with pc = 4.
    let pc = 4;
    assert_eq!(read(&sim, "R", &[0]), (pc + pc * 3) * ((7 - pc) - (pc & 2)));
}

#[test]
fn logical_values_and_a_ternary_land_in_registers() {
    let model = build(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc; REGISTER int a; REGISTER int b; REGISTER int c;
            REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
        }
        OPERATION main {
            BEHAVIOR {
                a = pc & 1;
                b = (pc >> 1) & 3;
                c = (pc >> 2) & 1;
                r0 += a && b;
                r1 += a || c;
                r2 += a ? b + 1 : c - 1;
                r3 = !a && (b || c);
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 8);
    assert_eq!(obs.error, None);
    // Each arm of the ternary writes its value where it is consumed.
    assert!(main.contains("%0 = b + 1") && main.contains("%0 = c - 1"), "{main}");
    let mut expect = [0i64; 4];
    for pc in 0..8i64 {
        let (a, b, c) = (pc & 1, (pc >> 1) & 3, (pc >> 2) & 1);
        expect[0] += i64::from(a != 0 && b != 0);
        expect[1] += i64::from(a != 0 || c != 0);
        expect[2] += if a != 0 { b + 1 } else { c - 1 };
        expect[3] = i64::from(a == 0 && (b != 0 || c != 0));
    }
    let got: Vec<i64> = (0..4).map(|k| read(&sim, &format!("r{k}"), &[])).collect();
    assert_eq!(got, expect);
}

#[test]
fn switch_on_a_computed_scrutinee_takes_case_and_default_arms() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER long acc; REGISTER long wide; }
        OPERATION main {
            BEHAVIOR {
                switch ((pc * 3) & 7) {
                    case 0: acc += 1; break;
                    case 3: acc += 10; break;
                    case 6: acc += 100; break;
                    default: acc += 1000;
                }
                // A case value too wide for an immediate operand.
                long s = pc;
                switch (s << 32) {
                    case 8589934592: wide += 1; break;
                    default: wide += 2;
                }
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 8);
    assert_eq!(obs.error, None);
    assert!(main.contains("= 8589934592"), "the wide case value loads into a slot:\n{main}");
    let mut acc = 0;
    for pc in 0..8i64 {
        acc += match (pc * 3) & 7 {
            0 => 1,
            3 => 10,
            6 => 100,
            _ => 1000,
        };
    }
    assert_eq!(read(&sim, "acc", &[]), acc);
    assert_eq!(read(&sim, "wide", &[]), 1 + 7 * 2);
}

#[test]
fn print_passes_its_value_through() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r; REGISTER int s; }
        OPERATION main {
            BEHAVIOR {
                r = print(pc * 2) + 1;
                s += print(r);
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 4);
    assert_eq!(obs.error, None);
    assert!(main.contains("print("), "{main}");
    assert_eq!(read(&sim, "r", &[]), 7);
    assert_eq!(read(&sim, "s", &[]), 1 + 3 + 5 + 7);
}

#[test]
fn memory_write_indexed_by_a_memory_read() {
    let model = build(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; DATA_MEMORY int m[8]; }
        OPERATION main {
            BEHAVIOR {
                m[m[pc & 3] & 7] = pc + 10;
                m[pc & 3] = pc;
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 9);
    assert_eq!(obs.error, None);
    assert!(main.contains("m[idx "), "{main}");
    let mut m = [0i64; 8];
    for pc in 0..9i64 {
        let i = (m[(pc & 3) as usize] & 7) as usize;
        m[i] = pc + 10;
        m[(pc & 3) as usize] = pc;
    }
    assert_eq!((0..8).map(|i| read(&sim, "m", &[i])).collect::<Vec<_>>(), m);
}

#[test]
fn memory_reads_keep_their_place_before_a_fault() {
    // The read of m[3] happens before the division faults, so it counts
    // in the read heat; a register read has no such trace.
    let model = build(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc; REGISTER int x; REGISTER int y; REGISTER int r;
            DATA_MEMORY int m[4];
        }
        OPERATION main {
            BEHAVIOR {
                pc = pc + 1;
                y = 2 - pc;
                r = m[3] + x / y;
                r = x + m[y + 1];
            }
        }
        "#,
    );
    let (obs, _, main) = run_both(&model, 4);
    assert!(main.contains("load m[3]"), "{main}");
    assert_eq!(obs.cycles, 1, "faults during the second cycle");
    assert_eq!(obs.error, Some(SimError::DivisionByZero { operation: "main".to_owned() }));
}

#[test]
fn declared_widths_wrap_unless_the_value_fits() {
    let model = build(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc; REGISTER int x; REGISTER bit[8] b8; REGISTER char c8;
            REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
            REGISTER int r4; REGISTER int r5;
        }
        OPERATION main {
            BEHAVIOR {
                x = pc * 21845 - 3;
                b8 = x;
                c8 = x;
                short s0 = zext(x, 16);
                short s1 = zext(x, 15);
                short s2 = b8;
                unsigned char u3 = c8;
                char s4 = x & 127;
                char s5 = x & 255;
                r0 = s0; r1 = s1; r2 = s2; r3 = u3; r4 = s4; r5 = s5;
                pc = pc + 1;
            }
        }
        "#,
    );
    let (obs, sim, main) = run_both(&model, 6);
    assert_eq!(obs.error, None);
    // Values that fit their declared width are stored as they are...
    for fits in ["%1 = zext(x, 15)", "%2 = b8", "%4 = x & 127"] {
        assert!(main.contains(fits), "`{fits}` needs no wrap:\n{main}");
    }
    // ...and the rest wrap: 16 unsigned bits overflow a short, a signed
    // byte is not an unsigned one, and `& 255` overflows a char.
    for wraps in ["%0 = sext(", "%3 = zext(c8, 8)", "%5 = sext("] {
        assert!(main.contains(wraps), "`{wraps}` must wrap:\n{main}");
    }
    let x = 5 * 21845 - 3i64;
    let expect = [
        i64::from(x as u16 as i16),
        x & 0x7fff,
        x & 0xff,
        i64::from(x as i8 as u8),
        x & 127,
        i64::from(x as u8 as i8),
    ];
    let got: Vec<i64> = (0..6).map(|k| read(&sim, &format!("r{k}"), &[])).collect();
    assert_eq!(got, expect);
}

#[test]
fn conditions_that_jump_when_true_invert_every_comparison() {
    // The lhs of `||` jumps when true, and so does a `do`-`while` back
    // edge: both turn the comparison into its inverse.
    for (op, holds) in [
        ("<", i64::lt as fn(&i64, &i64) -> bool),
        ("<=", i64::le),
        (">", i64::gt),
        (">=", i64::ge),
        ("==", i64::eq),
        ("!=", i64::ne),
    ] {
        let src = format!(
            r#"
            RESOURCE {{
                PROGRAM_COUNTER int pc; REGISTER int x; REGISTER int y;
                REGISTER int hits; REGISTER int laps;
            }}
            OPERATION main {{
                BEHAVIOR {{
                    x = pc % 3;
                    y = pc % 2 + 1;
                    if (x {op} y || pc == 100) {{ hits += 1; }}
                    int n = 0;
                    do {{ n = n + 1; laps += 1; }} while (n < 3 && n {op} x);
                    pc = pc + 1;
                }}
            }}
            "#
        );
        let model = build(&src);
        let (obs, sim, main) = run_both(&model, 6);
        assert_eq!(obs.error, None, "`{op}`");
        assert!(main.contains("unless x "), "`{op}`:\n{main}");
        let (mut hits, mut laps) = (0, 0);
        for pc in 0..6i64 {
            let (x, y) = (pc % 3, pc % 2 + 1);
            hits += i64::from(holds(&x, &y));
            let mut n = 0;
            loop {
                n += 1;
                laps += 1;
                if !(n < 3 && holds(&n, &x)) {
                    break;
                }
            }
        }
        assert_eq!((read(&sim, "hits", &[]), read(&sim, "laps", &[])), (hits, laps), "`{op}`");
    }
}
