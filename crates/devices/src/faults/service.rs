//! Seeded straggler and request-loss faults for *serving* workloads.
//!
//! The pipeline executor's [`super::FaultProfile`] models faults per
//! frame/stage; a serving fleet needs them per `(replica, batch)` so the
//! discrete-event scheduler can draw each decision independently of event
//! interleaving. Every draw is a pure function of
//! `(seed, tag, replica, batch index)` via the stream-keyed SplitMix64
//! generator — identically-seeded runs replay the exact same stragglers
//! and losses at any worker count.

use super::rng::FaultRng;

/// Stream tag for straggler (service-time inflation) draws.
const TAG_STRAGGLER: u64 = 0x7374_7261; // "stra"
/// Stream tag for batch request-loss draws.
const TAG_LOSS: u64 = 0x6c6f_7373; // "loss"

/// Per-(replica, batch) fault probabilities for a serving fleet.
///
/// `straggler` inflates a batch's service time by a seeded factor in
/// `[1 + (factor-1)/2, factor]` — the tail the hedging policy defends
/// against. `loss` drops every request of a batch after it consumed its
/// service time (work done, results lost) — the tail the retry budget
/// defends against. `only_replica` scopes both faults to a single sick
/// replica, which is how circuit-breaker scenarios are built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFaults {
    /// Per-batch probability of a straggler episode.
    pub straggler: f64,
    /// Service-time inflation upper bound during an episode (> 1).
    pub straggler_factor: f64,
    /// Per-batch probability that the batch's results are lost.
    pub loss: f64,
    /// When set, faults apply only to this replica index (a "sick"
    /// replica); healthy replicas draw nothing.
    pub only_replica: Option<usize>,
}

impl Default for ServiceFaults {
    fn default() -> Self {
        ServiceFaults::none()
    }
}

impl ServiceFaults {
    /// No service faults (inflation 1.0, nothing lost).
    pub(crate) fn none() -> ServiceFaults {
        ServiceFaults {
            straggler: 0.0,
            straggler_factor: 4.0,
            loss: 0.0,
            only_replica: None,
        }
    }

    /// Returns the model with the given straggler probability and
    /// inflation factor.
    pub fn with_straggler(mut self, p: f64, factor: f64) -> ServiceFaults {
        self.straggler = p;
        self.straggler_factor = factor.max(1.0);
        self
    }

    /// Returns the model with the given per-batch loss probability.
    pub fn with_loss(mut self, p: f64) -> ServiceFaults {
        self.loss = p;
        self
    }

    /// Returns the model scoped to one sick replica.
    pub fn only_on(mut self, replica: usize) -> ServiceFaults {
        self.only_replica = Some(replica);
        self
    }

    /// Whether any fault source is active.
    pub fn is_active(&self) -> bool {
        self.straggler > 0.0 || self.loss > 0.0
    }

    fn applies(&self, replica: usize) -> bool {
        self.only_replica.is_none_or(|only| only == replica)
    }

    /// Service-time inflation factor for batch `batch` on `replica`
    /// (1.0 when no episode fires). Pure function of its arguments.
    pub fn inflation(&self, seed: u64, replica: usize, batch: u64) -> f64 {
        if self.straggler <= 0.0 || !self.applies(replica) {
            return 1.0;
        }
        let mut rng = FaultRng::for_stream(seed, &[TAG_STRAGGLER, replica as u64, batch]);
        if rng.chance(self.straggler) {
            let f = self.straggler_factor.max(1.0);
            1.0 + (f - 1.0) * (0.5 + 0.5 * rng.next_f64())
        } else {
            1.0
        }
    }

    /// Whether batch `batch` on `replica` loses its results. Pure
    /// function of its arguments.
    pub fn lost(&self, seed: u64, replica: usize, batch: u64) -> bool {
        if self.loss <= 0.0 || !self.applies(replica) {
            return false;
        }
        FaultRng::for_stream(seed, &[TAG_LOSS, replica as u64, batch]).chance(self.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_model_never_draws() {
        let f = ServiceFaults::none();
        assert!(!f.is_active());
        for b in 0..64 {
            assert_eq!(f.inflation(1, 0, b), 1.0);
            assert!(!f.lost(1, 0, b));
        }
    }

    #[test]
    fn draws_are_replayable_and_order_independent() {
        let f = ServiceFaults::none()
            .with_straggler(0.3, 5.0)
            .with_loss(0.2);
        let forward: Vec<(f64, bool)> = (0..128)
            .map(|b| (f.inflation(9, 1, b), f.lost(9, 1, b)))
            .collect();
        let backward: Vec<(f64, bool)> = (0..128)
            .rev()
            .map(|b| (f.inflation(9, 1, b), f.lost(9, 1, b)))
            .rev()
            .collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|&(i, _)| i > 1.0), "some stragglers");
        assert!(forward.iter().any(|&(_, l)| l), "some losses");
    }

    #[test]
    fn inflation_is_bounded_by_the_factor() {
        let f = ServiceFaults::none().with_straggler(1.0, 4.0);
        for b in 0..256 {
            let i = f.inflation(3, 0, b);
            assert!((2.5..=4.0).contains(&i), "inflation {i}");
        }
    }

    #[test]
    fn sick_replica_scoping_spares_the_healthy() {
        let f = ServiceFaults::none()
            .with_straggler(1.0, 4.0)
            .with_loss(1.0)
            .only_on(1);
        for b in 0..32 {
            assert_eq!(f.inflation(7, 0, b), 1.0);
            assert!(!f.lost(7, 0, b));
            assert!(f.inflation(7, 1, b) > 1.0);
            assert!(f.lost(7, 1, b));
        }
    }

    #[test]
    fn straggler_and_loss_streams_are_independent() {
        // The same (replica, batch) coordinate draws from disjoint
        // streams: observed loss pattern must not change when the
        // straggler model is toggled.
        let lossy = ServiceFaults::none().with_loss(0.5);
        let both = lossy.with_straggler(0.5, 3.0);
        for b in 0..128 {
            assert_eq!(lossy.lost(11, 2, b), both.lost(11, 2, b));
        }
    }
}
