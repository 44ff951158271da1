//! Assembler/disassembler fixed point on every model: each word the
//! conformance generator emits (fixed seeds) and each word of the
//! `tests/corpus` reproducers must survive decode → disassemble →
//! assemble → encode → decode → disassemble unchanged, and re-assembling
//! the second listing must give the same word again.

use std::path::Path;

use lisa::conform::{corpus, ProgramGen, Rng};
use lisa::isa::{Assembler, Decoder};
use lisa::models::{accu16, scalar2, tinyrisc, vliw62};

const SEEDS: u64 = 100;
const MAX_LEN: usize = 24;

fn round_trip(name: &str, decoder: &Decoder<'_>, word: u128) {
    let model = decoder.model();
    let asm = Assembler::new(model, decoder);
    // Junk words that do not decode have no text to round-trip.
    let Ok(first) = decoder.decode(word) else { return };
    let text = asm.disassemble(&first);
    let assembled = asm
        .assemble_instruction(&text)
        .unwrap_or_else(|e| panic!("{name}: `{text}` (from {word:#x}) does not assemble: {e}"));
    let again = assembled.encode(model).expect("assembled tree encodes");
    let second = decoder.decode(again).expect("assembled word decodes");
    let text_again = asm.disassemble(&second);
    assert_eq!(text_again, text, "{name}: listing of {word:#x} is not a fixed point");
    let reassembled = asm.assemble_instruction(&text_again).expect("fixed-point text assembles");
    assert_eq!(
        reassembled.encode(model).expect("encodes"),
        again,
        "{name}: `{text}` assembles to two different words"
    );
}

#[test]
fn generated_and_corpus_words_round_trip_on_every_model() {
    let corpus = corpus::load_dir_verified(Path::new("tests/corpus")).expect("corpus loads");
    let models = [
        ("tinyrisc", tinyrisc::workbench()),
        ("accu16", accu16::workbench()),
        ("scalar2", scalar2::workbench()),
        ("vliw62", vliw62::workbench()),
    ];
    for (name, wb) in models {
        let wb = wb.expect("builtin model builds");
        let decoder = wb.decoder().expect("decoder");
        let gen = ProgramGen::new(&wb).expect("generator");
        let mut checked = 0usize;
        for seed in 0..SEEDS {
            let mut rng = Rng::for_iteration(seed, 0);
            for word in gen.gen_program(&mut rng, MAX_LEN) {
                round_trip(name, &decoder, word);
                checked += 1;
            }
        }
        for (_, rep) in corpus.iter().filter(|(_, r)| r.model == name) {
            for &word in &rep.words {
                round_trip(name, &decoder, word);
                checked += 1;
            }
        }
        assert!(checked > SEEDS as usize, "{name}: too few words checked ({checked})");
    }
}
