//! Shared order statistics: the one nearest-rank percentile implementation
//! used by every latency summary in the workspace.
//!
//! `percentile_sorted` is the single source of truth for the
//! nearest-rank rule, and [`Samples`] wraps a sorted sample set with the
//! derived statistics a report needs (percentiles and mean).

/// The `p`-th nearest-rank percentile of an already-sorted slice
/// (`p` in `0..=100`).
///
/// Nearest-rank with round-half-up on the fractional index — the exact
/// rule the workspace has always used, so existing report values do not
/// move.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `0..=100`.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    assert!(!sorted.is_empty(), "no samples");
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// A sorted set of scalar samples with derived order statistics.
///
/// The backing vector is sorted once at construction; every percentile
/// query is then O(1). Used for latency distributions (seconds) by the
/// queueing and serving simulators, but unit-agnostic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Builds a sample set, sorting the values (total order, NaN-safe).
    pub fn from_unsorted(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// The samples in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-th nearest-rank percentile (`p` in `0..=100`).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `p` is out of range (see
    /// `percentile_sorted`).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_historical_rule() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 4.0);
        // (50/100) * 3 = 1.5 rounds to index 2 — round-half-up.
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_slice_panics() {
        let _ = percentile_sorted(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn out_of_range_percentile_panics() {
        let _ = percentile_sorted(&[1.0], 101.0);
    }

    #[test]
    fn samples_sort_and_summarize() {
        let s = Samples::from_unsorted(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.sorted(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.percentile(50.0), 2.0);
    }

    #[test]
    fn empty_samples_are_benign_for_non_percentile_stats() {
        let s = Samples::default();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let s = Samples::from_unsorted((0..100).map(|i| (i * 7 % 100) as f64).collect());
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }
}
