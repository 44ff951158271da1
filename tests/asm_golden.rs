//! Golden digests of assembled programs: the words and listing of every
//! standard-suite and long-suite kernel, and of every `tests/corpus`
//! program reassembled from its disassembly, are pinned to
//! `tests/golden/asm_programs.txt`. Any change to the generated assembler
//! that alters a single word or listing byte fails here.
//!
//! A second section pins the assembler's answer to a fixed list of
//! malformed programs on every model: the error text, or the words when
//! the program assembles.
//!
//! After an intentional change, regenerate the file with
//! `UPDATE_GOLDEN=1 cargo test --test asm_golden`.

use std::fmt::Write as _;
use std::path::Path;

use lisa::asm::Program;
use lisa::conform::corpus;
use lisa::models::kernels::{self, Kernel};
use lisa::models::{accu16, scalar2, tinyrisc, vliw62, Workbench};

const GOLDEN: &str = "tests/golden/asm_programs.txt";

/// FNV-1a, 64-bit: a stable digest independent of the std hasher.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn digest_line(out: &mut String, model: &str, name: &str, program: &Program) {
    let words = fnv1a(program.words.iter().flat_map(|w| w.to_le_bytes()));
    let listing = fnv1a(program.listing.bytes());
    let _ = writeln!(
        out,
        "{model} {name} origin={} words={} words_fnv={words:016x} listing_fnv={listing:016x}",
        program.origin,
        program.words.len()
    );
}

/// The standard suites plus the largest sizes each kernel constructor
/// accepts, per model name.
fn kernel_sets() -> Vec<(&'static str, Vec<Kernel>)> {
    vec![
        (
            "tinyrisc",
            [kernels::tiny_suite(), vec![kernels::tiny_fib(31), kernels::tiny_memsum(31)]].concat(),
        ),
        (
            "accu16",
            [
                kernels::accu_suite(),
                vec![
                    kernels::accu_dot_product(128),
                    kernels::accu_block_scale(128, 3),
                    kernels::accu_fir_unrolled(8, 32),
                ],
            ]
            .concat(),
        ),
        (
            "scalar2",
            [
                kernels::scalar_suite(),
                vec![kernels::scalar_dot_product(64), kernels::scalar_memsum(64)],
            ]
            .concat(),
        ),
        (
            "vliw62",
            [
                kernels::vliw_suite(),
                vec![
                    kernels::vliw_dot_product(256),
                    kernels::vliw_vecadd(250),
                    kernels::vliw_fir(32, 64),
                    kernels::vliw_memcpy(1024),
                    kernels::vliw_biquad(128),
                ],
            ]
            .concat(),
        ),
    ]
}

fn workbench(name: &str) -> Workbench {
    match name {
        "tinyrisc" => tinyrisc::workbench(),
        "accu16" => accu16::workbench(),
        "scalar2" => scalar2::workbench(),
        "vliw62" => vliw62::workbench(),
        other => panic!("unknown model {other}"),
    }
    .expect("builtin model builds")
}

fn current_digests() -> String {
    let mut out = String::new();
    for (model, kernels) in kernel_sets() {
        let wb = workbench(model);
        let asm = wb.assembler();
        for kernel in kernels {
            let program = asm.assemble(&kernel.source).unwrap_or_else(|e| {
                panic!("{model} kernel {} does not assemble: {e}", kernel.name)
            });
            digest_line(&mut out, model, &kernel.name, &program);
        }
    }

    // Corpus programs: disassemble every word (undecodable ones become
    // `.word` directives) and assemble the text back.
    let entries = corpus::load_dir_verified(Path::new("tests/corpus")).expect("corpus loads");
    for (path, rep) in entries {
        let wb = workbench(&rep.model);
        let decoder = wb.decoder().expect("decoder");
        let isa = lisa::isa::Assembler::new(wb.model(), &decoder);
        let mut source = String::new();
        for &word in &rep.words {
            match decoder.decode(word) {
                Ok(decoded) => {
                    let _ = writeln!(source, "{}", isa.disassemble(&decoded));
                }
                Err(_) => {
                    let _ = writeln!(source, ".word {word:#x}");
                }
            }
        }
        let program = wb.assembler().assemble(&source).unwrap_or_else(|e| {
            panic!("corpus {} does not reassemble: {e}\n{source}", path.display())
        });
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        digest_line(&mut out, &rep.model, &name, &program);
    }

    out.push_str(ERRORS_HEADER);
    for (model, dialect) in &DIALECTS {
        let wb = workbench(model);
        let asm = wb.assembler();
        for (case, source) in error_cases(dialect) {
            let outcome = match asm.assemble(&source) {
                Ok(program) => {
                    let words: Vec<String> =
                        program.words.iter().map(|w| format!("{w:x}")).collect();
                    format!("ok words=[{}]", words.join(" "))
                }
                Err(e) => format!("error {e}"),
            };
            let _ = writeln!(out, "{model} {case}: {outcome}");
        }
    }
    out
}

const ERRORS_HEADER: &str = "# malformed programs\n";

/// The statements one model's error cases are written with.
struct Dialect {
    nop: &'static str,
    halt: &'static str,
    /// Load-immediate mnemonic: `{mov} {reg}, {value}`.
    mov: &'static str,
    jump: &'static str,
    reg: &'static str,
    bad_reg: &'static str,
    non_ascii_reg: &'static str,
    big_imm: &'static str,
}

const DIALECTS: [(&str, Dialect); 4] = [
    (
        "tinyrisc",
        Dialect {
            nop: "NOP",
            halt: "HLT",
            mov: "LDI",
            jump: "JMP",
            reg: "R1",
            bad_reg: "R9",
            non_ascii_reg: "R\u{e9}",
            big_imm: "99",
        },
    ),
    (
        "accu16",
        Dialect {
            nop: "NOP",
            halt: "HLT",
            mov: "MOVI",
            jump: "JMP",
            reg: "r1",
            bad_reg: "r7",
            non_ascii_reg: "r\u{e9}",
            big_imm: "70000",
        },
    ),
    (
        "scalar2",
        Dialect {
            nop: "NOP",
            halt: "HLT",
            mov: "LDI",
            jump: "JMP",
            reg: "R1",
            bad_reg: "R16",
            non_ascii_reg: "R\u{e9}",
            big_imm: "99999",
        },
    ),
    (
        "vliw62",
        Dialect {
            nop: "NOP 1",
            halt: "HALT",
            mov: "MVK",
            jump: "B",
            reg: "A1",
            bad_reg: "A16",
            non_ascii_reg: "A\u{e9}",
            big_imm: "70000",
        },
    ),
];

/// The fixed list of malformed programs, `(case, source)`.
fn error_cases(d: &Dialect) -> Vec<(&'static str, String)> {
    let Dialect { nop, halt, mov, jump, reg, bad_reg, non_ascii_reg, big_imm } = d;
    let nine_slots = format!("{nop}\n{}", format!("|| {nop}\n").repeat(8));
    vec![
        ("unknown_mnemonic", format!("{nop}\nFROB {reg}, {reg}\n")),
        ("trailing_text", format!("top: {jump} top extra\n")),
        ("register_out_of_range", format!("{mov} {bad_reg}, 1\n")),
        ("immediate_out_of_range", format!("{mov} {reg}, {big_imm}\n")),
        ("undefined_label", format!("{jump} nowhere\n")),
        ("duplicate_label", format!("x: {nop}\nx: {halt}\n")),
        ("dangling_bar", format!("|| {nop}\n")),
        ("packet_too_long", nine_slots),
        ("org_backwards", format!("{nop}\n{nop}\n.org 1\n{nop}\n")),
        ("non_ascii_operand", format!("{mov} {non_ascii_reg}, 2\n")),
        ("label_named_like_register", format!("{reg}: {mov} {reg}, 1\n{halt}\n")),
    ]
}

#[test]
fn assembled_programs_match_golden_digests() {
    let actual = current_digests();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "program count differs");
}
