//! Property tests for the coverage algebra and corpus distillation,
//! mirroring the merge suites in `lisa-probe` and `lisa-metrics`. The
//! coverage maps of fuzz runs over disjoint `--start` ranges fold in any
//! order, and merging one run twice must not inflate anything, so the
//! merge must be a join-semilattice: associative, commutative, and
//! idempotent, with the empty map as identity. Distillation must be
//! lossless — replaying the distilled seed subset reaches exactly the
//! coverage of the run that produced it.

use lisa_conform::{distill, CoverageMap, ProgramGen, Rng};
use proptest::prelude::*;

/// `(path key, hit count)` samples; keys collide across samples on
/// purpose so merges exercise the per-key max.
type Samples = Vec<(u64, u64)>;

fn samples() -> impl Strategy<Value = Samples> {
    proptest::collection::vec((0u64..12, 1u64..50), 0..=10)
}

fn build(samples: &Samples) -> CoverageMap {
    let mut map = CoverageMap::new();
    for &(key, n) in samples {
        for _ in 0..n {
            map.record(key);
        }
    }
    map
}

fn merged(a: &CoverageMap, b: &CoverageMap) -> CoverageMap {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_associative(a in samples(), b in samples(), c in samples()) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (a, b) = (build(&a), build(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_idempotent(a in samples()) {
        // Merging the same run's coverage twice must not inflate
        // anything: per-key max, not sum.
        let a = build(&a);
        prop_assert_eq!(merged(&a, &a), a);
    }

    #[test]
    fn empty_is_identity(a in samples()) {
        let a = build(&a);
        prop_assert_eq!(merged(&a, &CoverageMap::new()), a.clone());
        prop_assert_eq!(merged(&CoverageMap::new(), &a), a);
    }

    #[test]
    fn merge_never_loses_paths(a in samples(), b in samples()) {
        let (a, b) = (build(&a), build(&b));
        let m = merged(&a, &b);
        prop_assert!(m.covers(&a));
        prop_assert!(m.covers(&b));
        prop_assert_eq!(
            m.len(),
            merged(&a, &b).iter().count()
        );
    }

    #[test]
    fn distilled_subset_covers_the_union(sets in proptest::collection::vec(samples(), 0..=8)) {
        let maps: Vec<CoverageMap> = sets.iter().map(build).collect();
        let picked = distill(&maps);
        // Valid indices, no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for &i in &picked {
            prop_assert!(i < maps.len());
            prop_assert!(seen.insert(i), "duplicate index {}", i);
        }
        // The subset reaches every path the full set reaches.
        let mut full = CoverageMap::new();
        for m in &maps {
            full.merge(m);
        }
        let mut subset = CoverageMap::new();
        for &i in &picked {
            subset.merge(&maps[i]);
        }
        prop_assert!(subset.covers(&full), "distillation lost paths");
        // And never picks a map contributing nothing new (minimality of
        // the greedy cover: every pick has positive marginal gain).
        prop_assert!(picked.len() <= full.len().max(1));
    }

    #[test]
    fn distillation_replays_to_identical_coverage_on_a_real_model(
        seed in 0u64..1000,
        start in 0u64..1000,
        iters in 1u64..24,
        max_len in 1usize..12,
    ) {
        // The real ProgramGen: programs are pure functions of
        // (seed, index), so the distilled indices regenerate programs
        // whose replayed coverage equals the generating run's — on any
        // machine, with no corpus bytes shipped.
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc workbench");
        let gen = ProgramGen::new(&wb).expect("program generator");
        let per_program: Vec<(u64, CoverageMap)> = (start..start + iters)
            .map(|i| {
                let mut rng = Rng::for_iteration(seed, i);
                let words = gen.gen_program(&mut rng, max_len);
                (i, gen.coverage_of(&words))
            })
            .collect();
        let maps: Vec<CoverageMap> = per_program.iter().map(|(_, m)| m.clone()).collect();
        let mut full = CoverageMap::new();
        for m in &maps {
            full.merge(m);
        }
        // Replay: regenerate each distilled index from scratch.
        let mut replayed = CoverageMap::new();
        for &local in &distill(&maps) {
            let index = per_program[local].0;
            let mut rng = Rng::for_iteration(seed, index);
            let words = gen.gen_program(&mut rng, max_len);
            replayed.merge(&gen.coverage_of(&words));
        }
        // Coverage is a set of reached paths; hit counts are telemetry
        // and may legitimately differ between the full run and the
        // subset. The distilled replay must reach the exact path set.
        prop_assert!(replayed.covers(&full), "distilled replay must reach 100% of run coverage");
        prop_assert_eq!(replayed.len(), full.len(), "replay reached paths the run never did");
    }
}
