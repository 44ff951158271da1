//! One-shot corpus seeder (run manually, not part of the build).

use std::path::Path;

use lisa_conform::Reproducer;
use lisa_models::Workbench;

fn save(wb: &Workbench, model: &str, oracle: &str, program: &[&str], extra: &[u128]) {
    let mut words = wb.assemble(program).unwrap();
    words.extend_from_slice(extra);
    let rep = Reproducer { model: model.to_owned(), seed: 0, oracle: oracle.to_owned(), words };
    let path = rep.save(Path::new("tests/corpus")).unwrap();
    println!("{}", path.display());
}

fn main() {
    let tinyrisc = lisa_models::tinyrisc::workbench().unwrap();
    save(
        &tinyrisc,
        "tinyrisc",
        "lockstep",
        &["LDI R1, 7", "LDI R2, 5", "ADD R3, R1, R2", "MUL R4, R3, R1", "ST R4, R2", "HLT"],
        &[],
    );
    // Wild jump into the halt padding plus an undecodable word (0xe000):
    // both backends must agree on the decode error and on the landing.
    save(&tinyrisc, "tinyrisc", "lockstep", &["JMP 200"], &[0xe000]);

    let scalar2 = lisa_models::scalar2::workbench().unwrap();
    save(
        &scalar2,
        "scalar2",
        "snapshot-restore",
        &["LDI R1, 9", "LDI R2, 4", "ADD R3, R1, R2", "MUL R4, R3, R2", "HLT"],
        &[],
    );

    let accu16 = lisa_models::accu16::workbench().unwrap();
    save(
        &accu16,
        "accu16",
        "probe-parity",
        &["MOVI r1, 11", "MOVI r2, 3", "MPY r1, r2", "SAT16", "HLT"],
        &[],
    );

    let vliw62 = lisa_models::vliw62::workbench().unwrap();
    save(
        &vliw62,
        "vliw62",
        "batch-parity",
        &["MVK A1, 40", "MVK B1, 2", "ADD .L A2, A1, A1", "HALT"],
        &[],
    );
}
