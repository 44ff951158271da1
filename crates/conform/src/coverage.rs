//! Coding-tree path coverage: what the fuzzer has actually exercised.
//!
//! A synthesized program is interesting to the degree it reaches coding
//! -tree shapes no earlier program reached. This module defines that
//! notion precisely: the **path** of an instruction word is the
//! structural shape of its decode — which operation matched at each
//! group/reference field, recursively, ignoring operand (label) values.
//! Paths are a pure function of `(model, word)`, so the same coverage is
//! observed whether a word was freshly generated, replayed from a corpus
//! file, or produced by another run over a disjoint `start` range — the
//! property distillation and range merging both rest on.
//!
//! A [`CoverageMap`] counts path witnesses and merges as a
//! **join-semilattice** (per-path `max`): merging is associative,
//! commutative and idempotent, so the maps of runs over disjoint ranges
//! fold into one view in any grouping and merging a run twice cannot
//! inflate coverage. [`distill`] computes a small sub-multiset of
//! programs whose union covers every reached path (greedy set cover),
//! which keeps a checked-in seed corpus minimal while coverage only
//! grows.

use std::collections::BTreeMap;

use lisa_isa::Decoded;

/// The sentinel path for words that do not decode. Junk words exercise
/// the shared decode-failure path, which is itself worth covering once.
pub const JUNK_PATH: u64 = 0;

/// Hashes the structural decode path of one instruction: the operation,
/// the chosen variant, and recursively every child decode — label values
/// are deliberately excluded, so two `ADD`s with different operands
/// share a path while `ADD` and `SUB` do not.
#[must_use]
pub fn path_key(decoded: &Decoded) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fold_path(decoded, &mut hash);
    // Reserve JUNK_PATH for undecodable words.
    if hash == JUNK_PATH {
        1
    } else {
        hash
    }
}

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_path(decoded: &Decoded, hash: &mut u64) {
    fnv(hash, decoded.op.0 as u64);
    fnv(hash, decoded.variant as u64);
    for child in &decoded.children {
        match child {
            Some(sub) => fold_path(sub, hash),
            // A pattern/label field: mark the position so shapes with
            // different field layouts never collide by omission.
            None => fnv(hash, u64::MAX),
        }
    }
}

/// A set of covered coding-tree paths with witness counts.
///
/// `merge` takes the per-path **maximum**, making the map a
/// join-semilattice: associative, commutative, idempotent (property-
/// tested in `tests/coverage_props.rs`). The quantity that matters for
/// coverage is the key *set*; counts are a debugging aid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    paths: BTreeMap<u64, u64>,
}

impl CoverageMap {
    /// An empty map (the merge identity).
    #[must_use]
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Records one witness of `path`.
    pub fn record(&mut self, path: u64) {
        let count = self.paths.entry(path).or_insert(0);
        *count = count.saturating_add(1);
    }

    /// Number of distinct paths covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no path has been covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Whether `path` is covered.
    #[must_use]
    pub fn contains(&self, path: u64) -> bool {
        self.paths.contains_key(&path)
    }

    /// Whether every path in `other` is also covered here.
    #[must_use]
    pub fn covers(&self, other: &CoverageMap) -> bool {
        other.paths.keys().all(|p| self.paths.contains_key(p))
    }

    /// Joins `other` into `self` (per-path max — see the type docs).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (&path, &count) in &other.paths {
            let mine = self.paths.entry(path).or_insert(0);
            *mine = (*mine).max(count);
        }
    }

    /// Iterates `(path, witness count)` in ascending path order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.paths.iter().map(|(&p, &c)| (p, c))
    }
}

/// Greedy set cover over per-program coverage: returns the indices (into
/// `sets`, in selection order) of a small subset whose union equals the
/// union of all sets. The classic greedy bound applies (within `ln n` of
/// optimal); exactness of the *union* is guaranteed by construction and
/// property-tested.
#[must_use]
pub fn distill(sets: &[CoverageMap]) -> Vec<usize> {
    let mut uncovered: std::collections::BTreeSet<u64> =
        sets.iter().flat_map(|s| s.paths.keys().copied()).collect();
    let mut chosen = Vec::new();
    let mut used = vec![false; sets.len()];
    while !uncovered.is_empty() {
        let mut best = None;
        let mut best_gain = 0usize;
        for (i, set) in sets.iter().enumerate() {
            if used[i] {
                continue;
            }
            let gain = set.paths.keys().filter(|p| uncovered.contains(p)).count();
            if gain > best_gain {
                best = Some(i);
                best_gain = gain;
            }
        }
        // Every uncovered path lives in some set, so greedy always
        // makes progress; the guard is belt-and-braces.
        let Some(i) = best else { break };
        used[i] = true;
        chosen.push(i);
        for path in sets[i].paths.keys() {
            uncovered.remove(path);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(paths: &[u64]) -> CoverageMap {
        let mut m = CoverageMap::new();
        for &p in paths {
            m.record(p);
        }
        m
    }

    #[test]
    fn merge_is_max_and_idempotent() {
        let mut a = map(&[1, 1, 2]);
        let b = map(&[2, 2, 2, 3]);
        a.merge(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(1, 2), (2, 3), (3, 1)]);
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a, before, "re-merging the same report must not inflate");
    }

    #[test]
    fn covers_is_superset() {
        let a = map(&[1, 2, 3]);
        let b = map(&[2, 3]);
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn distill_reaches_the_full_union() {
        let sets = vec![map(&[1, 2]), map(&[2, 3]), map(&[1, 2, 3]), map(&[4])];
        let chosen = distill(&sets);
        let mut union = CoverageMap::new();
        for &i in &chosen {
            union.merge(&sets[i]);
        }
        let mut full = CoverageMap::new();
        for s in &sets {
            full.merge(s);
        }
        assert!(union.covers(&full) && full.covers(&union));
        // The greedy pick takes the superset program plus the unique one.
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn distill_of_nothing_is_nothing() {
        assert!(distill(&[]).is_empty());
        assert!(distill(&[CoverageMap::new()]).is_empty());
    }
}
