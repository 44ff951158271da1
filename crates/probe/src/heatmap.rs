//! Bucketed address heatmaps with an exact, order-independent merge.

/// A histogram of accesses over a resource's flat element indices.
///
/// Bucket sizes are always powers of two, so coarsening is *exact*:
/// bucket boundaries of a wider heatmap always align with boundaries of
/// a narrower one, and [`Heatmap::merge`] (coarsen both sides to the
/// larger bucket size, then add counts) is associative and commutative
/// with the empty heatmap as identity — the property that lets
/// per-run profiles fold into fleet aggregates in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// Elements per bucket (a power of two).
    pub bucket_size: u64,
    /// Access counts; bucket `b` covers flat indices
    /// `[b * bucket_size, (b + 1) * bucket_size)`. Never ends with a
    /// zero bucket (trailing zeros are trimmed), so equal recordings
    /// compare equal regardless of growth history.
    pub counts: Vec<u64>,
}

impl Default for Heatmap {
    fn default() -> Heatmap {
        Heatmap { bucket_size: 1, counts: Vec::new() }
    }
}

impl Heatmap {
    /// An empty heatmap with single-element buckets (the merge identity).
    #[must_use]
    pub fn new() -> Heatmap {
        Heatmap::default()
    }

    /// An empty heatmap whose bucket size is chosen so a resource of
    /// `elements` flat cells spans at most `max_buckets` buckets.
    ///
    /// The chosen size is the smallest power of two `>=
    /// ceil(elements / max_buckets)`, so small register files get
    /// per-cell resolution while large memories stay bounded.
    #[must_use]
    pub fn for_elements(elements: u64, max_buckets: u64) -> Heatmap {
        let per = elements.div_ceil(max_buckets.max(1)).max(1);
        Heatmap { bucket_size: per.next_power_of_two(), counts: Vec::new() }
    }

    /// Records one access to flat index `addr`.
    #[inline]
    pub fn record(&mut self, addr: u64) {
        debug_assert!(self.bucket_size.is_power_of_two());
        let idx = (addr >> self.bucket_size.trailing_zeros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Total accesses recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Re-buckets in place to a coarser power-of-two `bucket_size`.
    /// No-op when `bucket_size <= self.bucket_size`.
    pub fn coarsen_to(&mut self, bucket_size: u64) {
        debug_assert!(bucket_size.is_power_of_two(), "bucket sizes are powers of two");
        if bucket_size <= self.bucket_size {
            return;
        }
        let factor = (bucket_size / self.bucket_size) as usize;
        let mut merged = vec![0u64; self.counts.len().div_ceil(factor)];
        for (i, c) in self.counts.iter().enumerate() {
            merged[i / factor] += c;
        }
        self.bucket_size = bucket_size;
        self.counts = merged;
        self.trim();
    }

    /// Adds another heatmap's counts into this one, coarsening both
    /// sides to the larger bucket size first. Associative, commutative,
    /// with [`Heatmap::default`] as identity.
    pub fn merge(&mut self, other: &Heatmap) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            // An empty heatmap is the identity regardless of its own
            // bucket size — adopt the other side wholesale so merge
            // stays commutative.
            self.bucket_size = other.bucket_size;
            self.counts = other.counts.clone();
            return;
        }
        let target = self.bucket_size.max(other.bucket_size);
        self.coarsen_to(target);
        let factor = (target / other.bucket_size) as usize;
        let need = other.counts.len().div_ceil(factor);
        if need > self.counts.len() {
            self.counts.resize(need, 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i / factor] += c;
        }
        self.trim();
    }

    fn trim(&mut self) {
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// A one-line ASCII rendering: one density character per bucket
    /// (space = zero, `.` through `@` scaled to the hottest bucket).
    #[must_use]
    pub fn sparkline(&self) -> String {
        const RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return String::new();
        }
        self.counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    ' '
                } else {
                    // Map 1..=max onto the ramp, hottest bucket always '@'.
                    let slot = ((c as u128 * RAMP.len() as u128 - 1) / max as u128) as usize;
                    RAMP[slot.min(RAMP.len() - 1)]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_size_scales_with_resource_size() {
        assert_eq!(Heatmap::for_elements(16, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(64, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(65, 64).bucket_size, 2);
        assert_eq!(Heatmap::for_elements(4096, 64).bucket_size, 64);
        assert_eq!(Heatmap::for_elements(0, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(10, 0).bucket_size, 16);
    }

    #[test]
    fn records_land_on_bucket_boundaries() {
        let mut h = Heatmap::for_elements(256, 64); // bucket_size 4
        assert_eq!(h.bucket_size, 4);
        h.record(0);
        h.record(3); // last index of bucket 0
        h.record(4); // first index of bucket 1
        h.record(255); // last bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[63], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn coarsen_preserves_totals_and_alignment() {
        let mut h = Heatmap::new();
        for a in [0, 1, 2, 3, 7, 8, 15] {
            h.record(a);
        }
        let total = h.total();
        h.coarsen_to(8);
        assert_eq!(h.bucket_size, 8);
        assert_eq!(h.total(), total);
        assert_eq!(h.counts, vec![5, 2]); // 0..8 got 0,1,2,3,7; 8..16 got 8,15
    }

    #[test]
    fn merge_coarsens_to_the_wider_side() {
        let mut a = Heatmap { bucket_size: 2, counts: vec![1, 1] };
        let b = Heatmap { bucket_size: 8, counts: vec![0, 5] };
        a.merge(&b);
        assert_eq!(a.bucket_size, 8);
        assert_eq!(a.counts, vec![2, 5]);

        // And the mirror image gives the same result.
        let mut b2 = Heatmap { bucket_size: 8, counts: vec![0, 5] };
        b2.merge(&Heatmap { bucket_size: 2, counts: vec![1, 1] });
        assert_eq!(a, b2);
    }

    #[test]
    fn empty_is_the_merge_identity_in_both_directions() {
        let mut h = Heatmap { bucket_size: 4, counts: vec![3, 0, 9] };
        let orig = h.clone();
        h.merge(&Heatmap::default());
        assert_eq!(h, orig);
        let mut e = Heatmap::default();
        e.merge(&orig);
        assert_eq!(e, orig);
    }

    #[test]
    fn trailing_zeros_never_survive() {
        let mut a = Heatmap { bucket_size: 1, counts: vec![0, 1, 1, 0] };
        a.trim();
        assert_eq!(a.counts.len(), 3);
        a.coarsen_to(4);
        assert_eq!(a.counts, vec![2]);
    }

    #[test]
    fn sparkline_marks_hot_and_cold_buckets() {
        let mut h = Heatmap::new();
        for _ in 0..100 {
            h.record(0);
        }
        h.record(2);
        let line = h.sparkline();
        assert_eq!(line.chars().next(), Some('@'));
        assert_eq!(line.chars().nth(1), Some(' '));
        assert_eq!(line.chars().nth(2), Some('.'));
        assert_eq!(Heatmap::new().sparkline(), "");
    }
}
