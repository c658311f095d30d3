//! Deterministic fault injection and graceful degradation for sustained
//! and distributed inference.
//!
//! The paper's field scenarios — drones over a disaster area, fleets of
//! Raspberry Pis running a pipelined model — fail in practice through
//! device dropout, flaky links, stragglers, transient compute faults and
//! thermally-triggered throttling or shutdown (§VI-F annotates an RPi
//! "device shutdown" under sustained load). This module makes those
//! failures *first-class and reproducible*:
//!
//! * [`rng`] — order-independent seeded randomness: every fault decision
//!   is a pure function of `(seed, stream ids)`, so runs replay
//!   byte-identically regardless of parallelism.
//! * [`events`] — the structured fault event log
//!   (injected → detected → retried → repartitioned → recovered).
//! * [`executor`] — [`ResilientPipeline`], a sustained multi-frame
//!   simulator over [`crate::distributed::PipelinePlan`] with per-link
//!   timeouts, bounded exponential backoff, and Musical-Chair-style
//!   repartitioning onto surviving devices.
//! * [`service`] — [`ServiceFaults`], per-(replica, batch) stragglers and
//!   request loss for the serving fleet's resilience layer.
//! * [`memory`] — [`MemoryFaultModel`], deterministic DRAM bit-flip
//!   draws over weight/activation regions for the SDC defense layer.
//! * [`ipc`] — [`ipc::LinkFaults`], per-(link, frame) bit flips on the
//!   runtime's shared-memory frame path, injected post-checksum so the
//!   consumer's integrity verification must catch them.
//! * [`chaos`] — [`ChaosPlan`], deterministic kill/hang/panic/corrupt
//!   schedules keyed by `(seed, stage, frame)` that drive the runtime's
//!   self-healing supervisor campaigns.
//!
//! Faults degrade results — a dead device yields a degraded report row —
//! but never panic the harness.

pub mod chaos;
pub mod events;
pub mod executor;
pub mod ipc;
pub mod memory;
pub mod rng;
pub mod service;

pub use chaos::{ChaosKind, ChaosPlan};
pub use events::{EventKind, FaultEvent, FaultKind};
pub use executor::ResilientPipeline;
pub use memory::MemoryFaultModel;
pub use rng::{stream_seed, FaultRng};
pub use service::ServiceFaults;

/// Per-run fault probabilities, all evaluated with the deterministic
/// seeded RNG. Probabilities are per *frame* (dropout, straggler) or per
/// *transfer attempt* (link faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Base seed; all fault streams derive from it.
    pub seed: u64,
    /// Per-frame probability that a pipeline device dies permanently.
    pub device_dropout: f64,
    /// Per-transfer probability that a boundary activation is lost.
    pub link_loss: f64,
    /// Per-transfer probability that the link is transiently degraded.
    pub link_degraded: f64,
    /// Transfer slowdown multiplier while a link is degraded (> 1).
    pub link_degradation_factor: f64,
    /// Per-frame-per-stage probability of a straggler episode.
    pub straggler: f64,
    /// Stage slowdown multiplier during a straggler episode (> 1).
    pub straggler_factor: f64,
    /// Per-frame-per-stage probability of a corrupt (retryable) result.
    pub transient_compute: f64,
    /// Couple the run to each device's [`crate::thermal::ThermalSim`]:
    /// throttling slows stages, crossing `shutdown_c` kills the device.
    pub thermal: bool,
    /// Scripted deterministic kill: `(frame, device)` — the device dies
    /// when it begins processing that frame. Used by tests to force a
    /// mid-pipeline loss without probabilistic search.
    pub kill_device: Option<(usize, usize)>,
}

impl FaultProfile {
    /// No faults at all — the control arm of resilience experiments.
    pub fn none(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            device_dropout: 0.0,
            link_loss: 0.0,
            link_degraded: 0.0,
            link_degradation_factor: 4.0,
            straggler: 0.0,
            straggler_factor: 5.0,
            transient_compute: 0.0,
            thermal: false,
            kill_device: None,
        }
    }

    /// Congested local network: lost and degraded transfers, healthy
    /// devices.
    pub fn lossy_network(seed: u64) -> FaultProfile {
        FaultProfile {
            link_loss: 0.02,
            link_degraded: 0.05,
            ..FaultProfile::none(seed)
        }
    }

    /// A flaky fleet in the field: occasional permanent dropout plus
    /// stragglers and transient compute faults.
    #[cfg(test)]
    fn flaky_fleet(seed: u64) -> FaultProfile {
        FaultProfile {
            device_dropout: 0.001,
            link_loss: 0.01,
            straggler: 0.02,
            transient_compute: 0.005,
            ..FaultProfile::none(seed)
        }
    }

    /// Returns the profile with the given per-frame device-dropout rate.
    pub fn with_device_dropout(mut self, p: f64) -> FaultProfile {
        self.device_dropout = p;
        self
    }

    /// Returns the profile with the given per-transfer link-loss rate.
    pub fn with_link_loss(mut self, p: f64) -> FaultProfile {
        self.link_loss = p;
        self
    }

    /// Returns the profile with thermal coupling switched on or off.
    pub fn with_thermal(mut self, on: bool) -> FaultProfile {
        self.thermal = on;
        self
    }

    /// Returns the profile with a scripted `(frame, device)` kill.
    pub fn with_kill_device(mut self, frame: usize, device: usize) -> FaultProfile {
        self.kill_device = Some((frame, device));
        self
    }
}

/// Detection and recovery knobs of the resilient executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per operation before the frame is dropped (and, for device
    /// loss, the device declared dead).
    pub max_retries: u32,
    /// Time to notice a lost transfer or silent device, seconds.
    pub detect_timeout_s: f64,
    /// First backoff interval, seconds.
    pub backoff_base_s: f64,
    /// Multiplier between successive backoffs.
    pub backoff_factor: f64,
    /// Seeded uniform jitter applied to each backoff, ±fraction.
    pub jitter_frac: f64,
    /// Repartition onto survivors after a permanent device loss (Musical
    /// Chairs); when `false` the pipeline runs fail-stop and frames that
    /// need the dead stage are dropped.
    pub repartition: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            detect_timeout_s: 0.05,
            backoff_base_s: 0.02,
            backoff_factor: 2.0,
            jitter_frac: 0.2,
            repartition: true,
        }
    }
}

impl RetryPolicy {
    /// Nominal (un-jittered) backoff before retry `attempt` (1-based).
    pub(crate) fn backoff_s(&self, attempt: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }

    /// Returns the policy with repartitioning disabled (fail-stop arm).
    pub fn without_repartition(mut self) -> RetryPolicy {
        self.repartition = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy::default();
        assert!((p.backoff_s(1) - 0.02).abs() < 1e-12);
        assert!((p.backoff_s(2) - 0.04).abs() < 1e-12);
        assert!((p.backoff_s(3) - 0.08).abs() < 1e-12);
    }
}
