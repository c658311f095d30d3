//! The structured, replayable fault event log.
//!
//! Every lifecycle step of a fault — injected → detected → retried →
//! repartitioned → recovered — is recorded as a [`FaultEvent`] with the
//! simulated wall time and the frame being processed. The harness turns
//! these into `edgebench_measure::trace::EventLog` rows for replay and CSV
//! export; the [`EventKind`] `Display` label is the CSV's event column,
//! stable (fixed-precision floats, fixed field order), so two runs with the
//! same seed serialize to byte-identical logs.

use std::fmt;

/// What went wrong: the injected fault itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A device failed permanently (crash, power loss).
    DeviceDropout {
        /// Index of the failed device in the original fleet.
        device: usize,
    },
    /// A boundary-activation transfer was lost in flight (retryable).
    LinkLoss {
        /// Index of the link (stage `link` → `link + 1`).
        link: usize,
    },
    /// A transfer crossed a transiently degraded link (slow, not lost).
    LinkDegraded {
        /// Index of the link.
        link: usize,
    },
    /// A stage ran abnormally slowly this frame (CPU contention, GC, …).
    Straggler {
        /// Index of the straggling stage.
        stage: usize,
    },
    /// A stage produced a corrupt result this attempt (retryable).
    TransientCompute {
        /// Index of the faulting stage.
        stage: usize,
    },
    /// A device crossed its throttling temperature (clocks derated).
    ThermalThrottle {
        /// Index of the throttling device.
        device: usize,
    },
    /// A device crossed `shutdown_c` and powered off (permanent).
    ThermalShutdown {
        /// Index of the lost device.
        device: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DeviceDropout { device } => write!(f, "device-dropout dev={device}"),
            FaultKind::LinkLoss { link } => write!(f, "link-loss link={link}"),
            FaultKind::LinkDegraded { link } => write!(f, "link-degraded link={link}"),
            FaultKind::Straggler { stage } => write!(f, "straggler stage={stage}"),
            FaultKind::TransientCompute { stage } => write!(f, "transient-compute stage={stage}"),
            FaultKind::ThermalThrottle { device } => write!(f, "thermal-throttle dev={device}"),
            FaultKind::ThermalShutdown { device } => write!(f, "thermal-shutdown dev={device}"),
        }
    }
}

/// One step of a fault's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The fault occurred (the simulation decided it fires here).
    Injected(FaultKind),
    /// The executor noticed it (checksum mismatch, timeout expiry).
    Detected(FaultKind),
    /// A bounded retry was scheduled after exponential backoff + jitter.
    RetryScheduled {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff applied before the retry, seconds.
        backoff_s: f64,
    },
    /// The operation eventually succeeded, `after_s` after the first fault.
    Recovered {
        /// Fault-to-success latency, seconds.
        after_s: f64,
    },
    /// Surviving devices took over the lost device's layers (Musical
    /// Chairs): the pipeline was re-balanced from `from_stages` to
    /// `to_stages` stages.
    Repartitioned {
        /// Stage count before the loss.
        from_stages: usize,
        /// Stage count after re-balancing onto survivors.
        to_stages: usize,
    },
    /// A device was declared permanently lost.
    DeviceLost {
        /// Index of the lost device in the original fleet.
        device: usize,
    },
    /// The in-flight frame could not be completed and was abandoned.
    FrameDropped,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Injected(k) => write!(f, "injected {k}"),
            EventKind::Detected(k) => write!(f, "detected {k}"),
            EventKind::RetryScheduled { attempt, backoff_s } => {
                write!(f, "retry attempt={attempt} backoff_s={backoff_s:.6}")
            }
            EventKind::Recovered { after_s } => write!(f, "recovered after_s={after_s:.6}"),
            EventKind::Repartitioned {
                from_stages,
                to_stages,
            } => write!(f, "repartitioned stages={from_stages}->{to_stages}"),
            EventKind::DeviceLost { device } => write!(f, "device-lost dev={device}"),
            EventKind::FrameDropped => write!(f, "frame-dropped"),
        }
    }
}

/// One timestamped entry of the fault event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated wall time, seconds.
    pub time_s: f64,
    /// Frame being processed when the event fired.
    pub frame: usize,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_fixed_precision() {
        let e = EventKind::RetryScheduled {
            attempt: 2,
            backoff_s: 0.04,
        };
        assert_eq!(e.to_string(), "retry attempt=2 backoff_s=0.040000");
        let k = EventKind::Injected(FaultKind::DeviceDropout { device: 1 });
        assert_eq!(k.to_string(), "injected device-dropout dev=1");
        let r = EventKind::Repartitioned {
            from_stages: 4,
            to_stages: 3,
        };
        assert_eq!(r.to_string(), "repartitioned stages=4->3");
    }
}
