//! Deterministic memory-fault (bit-flip) injection model.
//!
//! Edge devices running at thermal and power limits see DRAM bit flips,
//! undervolting glitches, and flash read errors that silently corrupt
//! model weights and intermediate activations. This module decides *which
//! bits flip and when* as a pure function of `(seed, region, inference)`
//! using the same stream-keyed SplitMix64 idiom as the rest of the fault
//! tree — so an injection campaign replays byte-identically regardless of
//! thread count, kernel tier, or the order regions are visited in.
//!
//! The model is intentionally tensor-agnostic: a *region* is any
//! contiguous run of `f32` words (a weight tensor, a packed panel, an
//! activation buffer) identified by a caller-chosen `u64` id. The executor
//! side (in `edgebench-tensor` / `edgebench` core) maps regions to real
//! buffers and applies the flips; this crate only draws them.

use super::rng::FaultRng;

/// Stream tag for memory-fault draws (ASCII "memf").
pub(crate) const TAG_MEMORY: u64 = 0x6d65_6d66;

/// Bits per `f32` word — flips address `[0, 32)`.
pub(crate) const BITS_PER_WORD: u8 = 32;

/// A single bit flip inside a region of `f32` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BitFlip {
    /// Index of the affected `f32` word within the region.
    pub element: usize,
    /// Bit position within the word, `0..32` (31 = sign bit).
    pub bit: u8,
}

/// Deterministic DRAM-decay model: a per-byte-per-exposure flip rate
/// evaluated with seeded streams.
///
/// `flip_rate` is the expected number of flips *per byte per exposure
/// interval* (for weights the natural interval is one inference; for
/// transient activation buffers callers should pre-scale the rate by the
/// much smaller residency fraction). The number of flips in a region for
/// a given exposure is Poisson-distributed around
/// `flip_rate × region_bytes`, drawn from the stream
/// `(seed, TAG_MEMORY, region, exposure)`, and each flip's coordinates
/// come from the sub-stream `(seed, TAG_MEMORY, region, exposure, k)` —
/// every flip a pure function of its indices, independent of every other
/// draw in the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFaultModel {
    /// Base seed; all flip streams derive from it.
    pub seed: u64,
    /// Expected flips per byte per exposure interval.
    pub flip_rate: f64,
}

impl MemoryFaultModel {
    /// A model flipping `flip_rate` bits per byte per exposure.
    pub fn new(seed: u64, flip_rate: f64) -> MemoryFaultModel {
        MemoryFaultModel { seed, flip_rate }
    }

    /// A disabled model (zero rate) — the control arm.
    #[cfg(test)]
    fn none(seed: u64) -> MemoryFaultModel {
        MemoryFaultModel {
            seed,
            flip_rate: 0.0,
        }
    }

    /// Whether any flips can ever fire.
    pub(crate) fn is_active(&self) -> bool {
        self.flip_rate > 0.0
    }

    /// The deterministic flip set for one `(region, exposure)` pair over a
    /// region of `n_elems` `f32` words. Sorted by `(element, bit)` so the
    /// application order is canonical.
    pub fn flips(&self, region: u64, exposure: u64, n_elems: usize) -> Vec<BitFlip> {
        if !self.is_active() || n_elems == 0 {
            return Vec::new();
        }
        let bytes = (n_elems as u64).saturating_mul(4);
        let lambda = self.flip_rate * bytes as f64;
        let mut count_rng = FaultRng::for_stream(self.seed, &[TAG_MEMORY, region, exposure]);
        let count = poisson(&mut count_rng, lambda);
        let mut flips: Vec<BitFlip> = (0..count)
            .map(|k| {
                let mut r =
                    FaultRng::for_stream(self.seed, &[TAG_MEMORY, region, exposure, k as u64 + 1]);
                BitFlip {
                    element: (r.next_u64() % n_elems as u64) as usize,
                    bit: (r.next_u64() % BITS_PER_WORD as u64) as u8,
                }
            })
            .collect();
        flips.sort_unstable();
        flips
    }

    /// Expected flip count for a region of `bytes` bytes over one
    /// exposure interval (the Poisson mean the draws are centred on).
    #[cfg(test)]
    fn expected_flips(&self, bytes: u64) -> f64 {
        self.flip_rate * bytes as f64
    }
}

/// Seeded Poisson draw (Knuth's product-of-uniforms method), capped so a
/// misconfigured rate cannot allocate unboundedly. The cap is far above
/// any plausible draw for the small lambdas SDC campaigns use.
fn poisson(rng: &mut FaultRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let cap = (lambda * 8.0 + 64.0) as usize;
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.next_f64();
        if p <= limit || k >= cap {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_model_never_flips() {
        let m = MemoryFaultModel::none(7);
        assert!(!m.is_active());
        assert!(m.flips(0, 0, 1 << 20).is_empty());
    }

    #[test]
    fn flips_are_a_pure_function_of_their_stream() {
        let m = MemoryFaultModel::new(42, 1e-5);
        let a = m.flips(3, 11, 50_000);
        let b = m.flips(3, 11, 50_000);
        assert_eq!(a, b);
        // A different region or exposure gives an independent draw.
        assert!(m.flips(4, 11, 50_000) != a || m.flips(3, 12, 50_000) != a);
    }

    #[test]
    fn flip_coordinates_are_in_range_and_sorted() {
        let m = MemoryFaultModel::new(1, 1e-3);
        let flips = m.flips(0, 0, 10_000);
        assert!(!flips.is_empty());
        for w in flips.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for f in &flips {
            assert!(f.element < 10_000);
            assert!(f.bit < BITS_PER_WORD);
        }
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let m = MemoryFaultModel::new(9, 1e-6);
        // 100 exposures over a 1 MiB region: lambda ~= 1.05 per exposure.
        let n_elems = (1 << 20) / 4;
        let total: usize = (0..100).map(|e| m.flips(0, e, n_elems).len()).sum();
        let mean = total as f64 / 100.0;
        let lambda = m.expected_flips(1 << 20);
        assert!(
            (mean - lambda).abs() < 0.5,
            "mean {mean} too far from lambda {lambda}"
        );
    }

    #[test]
    fn zero_sized_regions_are_safe() {
        let m = MemoryFaultModel::new(5, 1.0);
        assert!(m.flips(0, 0, 0).is_empty());
    }
}
