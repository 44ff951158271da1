//! Tier-1 conformance replay: every reproducer in `tests/corpus/` is
//! run through the full lisa-conform oracle stack on every `cargo
//! test`. A reproducer that fires again means a fixed divergence has
//! resurfaced — the corpus is the permanent regression suite that
//! fresh fuzzing (`lisa-tool fuzz`) grows over time.

use std::collections::BTreeMap;
use std::path::Path;

use lisa::conform::corpus::load_dir_verified;
use lisa::conform::{FuzzConfig, Fuzzer};
use lisa::models::Workbench;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn workbench(model: &str) -> Workbench {
    match model {
        "tinyrisc" => lisa::models::tinyrisc::workbench(),
        "scalar2" => lisa::models::scalar2::workbench(),
        "accu16" => lisa::models::accu16::workbench(),
        "vliw62" => lisa::models::vliw62::workbench(),
        other => panic!("corpus names unknown model `{other}`"),
    }
    .unwrap()
}

#[test]
fn the_corpus_is_not_empty() {
    let entries = load_dir_verified(corpus_dir()).unwrap();
    assert!(
        entries.len() >= 5,
        "tests/corpus/ should ship seeded reproducers, found {}",
        entries.len()
    );
}

#[test]
fn every_corpus_entry_replays_clean() {
    let entries = load_dir_verified(corpus_dir()).unwrap();
    let mut fuzzers: BTreeMap<String, (Workbench, FuzzConfig)> = BTreeMap::new();
    for (path, rep) in &entries {
        let (wb, config) = fuzzers
            .entry(rep.model.clone())
            .or_insert_with(|| (workbench(&rep.model), FuzzConfig::default()));
        let fuzzer = Fuzzer::new(wb, *config).unwrap();
        if let Err(verdict) = fuzzer.replay(rep) {
            panic!(
                "{}: regression resurfaced — {} oracle: {}",
                path.display(),
                verdict.oracle.label(),
                verdict.detail
            );
        }
    }
}

#[test]
fn corpus_file_names_are_content_addressed() {
    for (path, rep) in load_dir_verified(corpus_dir()).unwrap() {
        let expect = rep.file_name();
        let actual = path.file_name().unwrap().to_string_lossy();
        assert_eq!(
            actual,
            expect,
            "{}: file name does not match its content hash (was it hand-edited?)",
            path.display()
        );
    }
}

#[test]
fn every_model_has_at_least_one_corpus_entry() {
    let entries = load_dir_verified(corpus_dir()).unwrap();
    for model in ["tinyrisc", "scalar2", "accu16", "vliw62"] {
        assert!(entries.iter().any(|(_, rep)| rep.model == model), "no corpus entry for {model}");
    }
}
