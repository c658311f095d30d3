//! Deterministic bit-flip injection on IPC links.
//!
//! The runtime's frame path crosses shared-memory ring buffers between
//! stage processes; a DMA glitch, a cosmic-ray strike on the shared pages,
//! or a torn mapping all surface as silently corrupted frames. This model
//! reuses the DRAM bit-flip machinery ([`super::memory::MemoryFaultModel`])
//! keyed by `(link, frame seq)` so every flip decision is a pure function
//! of the seed — replay-identical across runs and process layouts.
//!
//! Flips are injected *after* the producer computes the frame's integrity
//! checksum, mimicking corruption in transit: the consumer's checksum
//! verification is what must catch them.

use super::memory::MemoryFaultModel;

/// Stream tag separating IPC-link draws from other fault streams.
pub(crate) const TAG_IPC: u64 = 0x6970_636c; // "ipcl"

/// Well-known link ids for the runtime pipeline's three rings.
pub const LINK_CAPTURE: u64 = 1;
/// Link between preprocess and inference.
pub const LINK_PREPROCESS: u64 = 2;
/// Link between inference and gateway.
#[cfg(test)]
const LINK_INFERENCE: u64 = 3;

/// Deterministic per-link frame corruption model.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    model: MemoryFaultModel,
}

impl LinkFaults {
    /// A model flipping each payload bit with `flip_rate` probability per
    /// frame traversal (0 disables injection).
    pub fn new(seed: u64, flip_rate: f64) -> LinkFaults {
        LinkFaults {
            model: MemoryFaultModel::new(seed ^ TAG_IPC, flip_rate),
        }
    }

    /// Whether any flips can ever be drawn.
    pub(crate) fn is_active(&self) -> bool {
        self.model.is_active()
    }

    /// Flip bits in `payload` for frame `seq` crossing `link`, returning
    /// how many flips were applied. Deterministic in `(seed, link, seq)`;
    /// independent of delivery order.
    pub fn corrupt_frame(&self, link: u64, seq: u64, payload: &mut [f32]) -> u64 {
        if !self.is_active() || payload.is_empty() {
            return 0;
        }
        let flips = self.model.flips(link, seq, payload.len());
        let n = flips.len() as u64;
        for flip in flips {
            let bits = payload[flip.element].to_bits() ^ (1u32 << flip.bit);
            payload[flip.element] = f32::from_bits(bits);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_corrupts() {
        let faults = LinkFaults::new(7, 0.0);
        assert!(!faults.is_active());
        let mut payload = vec![1.0f32; 64];
        assert_eq!(faults.corrupt_frame(LINK_CAPTURE, 3, &mut payload), 0);
        assert!(payload.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn flips_are_deterministic_per_link_and_seq() {
        let faults = LinkFaults::new(11, 1e-3);
        let mut a = vec![0.5f32; 256];
        let mut b = vec![0.5f32; 256];
        let na = faults.corrupt_frame(LINK_PREPROCESS, 42, &mut a);
        let nb = faults.corrupt_frame(LINK_PREPROCESS, 42, &mut b);
        assert_eq!(na, nb);
        assert_eq!(a, b);

        // Different links or seqs draw different flip sets over enough
        // frames; sanity check that at least one frame differs.
        let mut c = vec![0.5f32; 256];
        let mut any_diff = false;
        for seq in 0..32 {
            c.fill(0.5);
            faults.corrupt_frame(LINK_INFERENCE, seq, &mut c);
            if c != a {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn flips_actually_mutate_the_payload() {
        let faults = LinkFaults::new(3, 0.05);
        let clean: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let mut corrupted_any = false;
        for seq in 0..64 {
            let mut payload = clean.clone();
            let n = faults.corrupt_frame(LINK_CAPTURE, seq, &mut payload);
            if n > 0 {
                corrupted_any = true;
                assert_ne!(payload, clean);
                break;
            }
        }
        assert!(corrupted_any, "expected at least one corrupted frame");
    }
}
