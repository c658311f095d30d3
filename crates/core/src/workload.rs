//! Workload generation and queueing analysis on top of the deployment
//! model.
//!
//! The paper measures isolated single-batch latency; a deployed edge system
//! faces *arrivals* — frames from a camera, requests from sensors. This
//! module generates arrival processes (periodic and Poisson), runs them
//! through a single-server FIFO queue whose service time is the deployed
//! model's latency, and reports the latency distribution an end user
//! actually experiences. The fleet-scale serving simulator
//! ([`crate::serve`]) builds on the same [`Arrivals`] processes.

use edgebench_measure::Samples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Error produced by workload generation and queue simulation: invalid
/// configurations are typed results, never panics (same convention as
/// `distributed::PlanError` / `offload`'s `NoInput`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The arrival rate must be strictly positive.
    NonPositiveRate {
        /// The offending rate, requests per second.
        rate_hz: f64,
    },
    /// The service time must be strictly positive.
    NonPositiveService {
        /// The offending service time, seconds.
        service_s: f64,
    },
    /// The run must contain at least one request.
    NoRequests,
    /// The arrival times of this many requests do not fit in memory.
    TooManyRequests {
        /// The requested count.
        count: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadError::NonPositiveRate { rate_hz } => {
                write!(f, "arrival rate must be positive, got {rate_hz}")
            }
            WorkloadError::NonPositiveService { service_s } => {
                write!(f, "service time must be positive, got {service_s}")
            }
            WorkloadError::NoRequests => write!(f, "need at least one request"),
            WorkloadError::TooManyRequests { count } => {
                write!(f, "cannot allocate arrival times for {count} requests")
            }
        }
    }
}

impl Error for WorkloadError {}

/// An inference-request arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Fixed-rate arrivals (a camera at N fps).
    Periodic {
        /// Requests per second.
        rate_hz: f64,
    },
    /// Poisson arrivals (independent sensor events) with a seed.
    Poisson {
        /// Mean requests per second.
        rate_hz: f64,
        /// RNG seed (runs are reproducible).
        seed: u64,
    },
}

impl Arrivals {
    /// The configured mean arrival rate, requests per second.
    pub(crate) fn rate_hz(&self) -> f64 {
        match *self {
            Arrivals::Periodic { rate_hz } | Arrivals::Poisson { rate_hz, .. } => rate_hz,
        }
    }

    /// Generates the first `n` arrival timestamps, seconds.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::NonPositiveRate`] when the configured rate is not
    /// strictly positive and finite (NaN and infinity included).
    pub(crate) fn timestamps(&self, n: usize) -> Result<Vec<f64>, WorkloadError> {
        let rate_hz = self.rate_hz();
        if !(rate_hz > 0.0 && rate_hz.is_finite()) {
            return Err(WorkloadError::NonPositiveRate { rate_hz });
        }
        let mut out = arrival_buffer(n)?;
        match *self {
            Arrivals::Periodic { rate_hz } => out.extend((0..n).map(|i| i as f64 / rate_hz)),
            Arrivals::Poisson { rate_hz, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0;
                out.extend((0..n).map(|_| {
                    // Exponential inter-arrival via inverse transform.
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    t += -u.ln() / rate_hz;
                    t
                }));
            }
        }
        Ok(out)
    }
}

/// An empty buffer with room for `n` arrival times, or
/// [`WorkloadError::TooManyRequests`] when the allocator cannot provide it
/// (a request count from the command line can ask for terabytes).
pub(crate) fn arrival_buffer(n: usize) -> Result<Vec<f64>, WorkloadError> {
    let mut out = Vec::new();
    out.try_reserve_exact(n)
        .map_err(|_| WorkloadError::TooManyRequests { count: n })?;
    Ok(out)
}

/// Latency statistics of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStats {
    /// Per-request latencies (queueing + service), seconds, sorted.
    latencies: Samples,
    /// Offered load ρ = arrival rate × service time.
    pub utilization: f64,
    /// Requests that finished after their successor arrived (backlog grew).
    pub backlogged: usize,
}

impl QueueStats {
    /// The `p`-th percentile latency (`p` in 0..=100).
    ///
    /// # Panics
    ///
    /// Panics if the run produced no samples or `p` is out of range.
    pub(crate) fn percentile_s(&self, p: f64) -> f64 {
        self.latencies.percentile(p)
    }

    /// Median latency.
    pub fn p50_s(&self) -> f64 {
        self.percentile_s(50.0)
    }

    /// Tail latency.
    pub fn p99_s(&self) -> f64 {
        self.percentile_s(99.0)
    }

    /// Whether the queue is unstable (offered load ≥ 1).
    pub fn saturated(&self) -> bool {
        self.utilization >= 1.0
    }
}

/// Simulates `n` requests from `arrivals` through a FIFO single-server
/// queue with deterministic service time `service_s` (the deployed model's
/// per-inference latency).
///
/// # Errors
///
/// [`WorkloadError::NonPositiveService`] if `service_s` is not positive,
/// [`WorkloadError::NoRequests`] if `n` is zero, and any error of
/// `Arrivals::timestamps`.
pub fn simulate_queue(
    arrivals: Arrivals,
    service_s: f64,
    n: usize,
) -> Result<QueueStats, WorkloadError> {
    if service_s <= 0.0 {
        return Err(WorkloadError::NonPositiveService { service_s });
    }
    if n == 0 {
        return Err(WorkloadError::NoRequests);
    }
    let ts = arrivals.timestamps(n)?;
    let rate = n as f64 / ts.last().unwrap().max(f64::MIN_POSITIVE);
    let mut free_at = 0.0f64;
    let mut latencies: Vec<f64> = Vec::with_capacity(n);
    let mut backlogged = 0usize;
    for (i, &arr) in ts.iter().enumerate() {
        let start = free_at.max(arr);
        let done = start + service_s;
        latencies.push(done - arr);
        if let Some(&next) = ts.get(i + 1) {
            if done > next {
                backlogged += 1;
            }
        }
        free_at = done;
    }
    Ok(QueueStats {
        latencies: Samples::from_unsorted(latencies),
        utilization: rate * service_s,
        backlogged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_underload_has_zero_queueing() {
        // 10 fps camera, 20 ms inference: every frame is served immediately.
        let s = simulate_queue(Arrivals::Periodic { rate_hz: 10.0 }, 0.020, 1000).unwrap();
        assert!((s.p50_s() - 0.020).abs() < 1e-9);
        assert!((s.p99_s() - 0.020).abs() < 1e-9);
        assert_eq!(s.backlogged, 0);
        assert!(!s.saturated());
    }

    #[test]
    fn overload_grows_without_bound() {
        // 10 fps arrivals into a 150 ms server: each frame waits longer.
        let s = simulate_queue(Arrivals::Periodic { rate_hz: 10.0 }, 0.150, 500).unwrap();
        assert!(s.saturated());
        assert!(
            s.p99_s() > 10.0 * s.p50_s() || s.p99_s() > 1.0,
            "p99 {}",
            s.p99_s()
        );
        assert!(s.backlogged > 400);
    }

    #[test]
    fn poisson_tail_exceeds_median_below_saturation() {
        // ρ = 0.6: the classic M/D/1 regime — bursty arrivals queue.
        let s = simulate_queue(
            Arrivals::Poisson {
                rate_hz: 30.0,
                seed: 7,
            },
            0.020,
            20_000,
        )
        .unwrap();
        assert!(!s.saturated(), "utilization {}", s.utilization);
        assert!(
            s.p99_s() > 1.5 * s.p50_s(),
            "p99 {} p50 {}",
            s.p99_s(),
            s.p50_s()
        );
    }

    #[test]
    fn poisson_is_reproducible_per_seed() {
        let a = simulate_queue(
            Arrivals::Poisson {
                rate_hz: 10.0,
                seed: 1,
            },
            0.05,
            100,
        )
        .unwrap();
        let b = simulate_queue(
            Arrivals::Poisson {
                rate_hz: 10.0,
                seed: 1,
            },
            0.05,
            100,
        )
        .unwrap();
        let c = simulate_queue(
            Arrivals::Poisson {
                rate_hz: 10.0,
                seed: 2,
            },
            0.05,
            100,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn percentiles_are_monotone() {
        let s = simulate_queue(
            Arrivals::Poisson {
                rate_hz: 40.0,
                seed: 3,
            },
            0.02,
            5000,
        )
        .unwrap();
        let mut prev = 0.0;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile_s(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn queue_composes_with_the_deployment_model() {
        // End-to-end: an EdgeTPU smart camera at 60 fps has headroom; the
        // Movidius stick at 60 fps saturates (paper Fig 2 latencies).
        use edgebench_devices::Device;
        use edgebench_frameworks::deploy::compile;
        use edgebench_frameworks::Framework;
        use edgebench_models::Model;
        let tpu_ms = compile(Framework::TfLite, Model::MobileNetV2, Device::EdgeTpu)
            .unwrap()
            .latency_ms()
            .unwrap();
        let ncs_ms = compile(Framework::Ncsdk, Model::MobileNetV2, Device::MovidiusNcs)
            .unwrap()
            .latency_ms()
            .unwrap();
        let tpu = simulate_queue(Arrivals::Periodic { rate_hz: 60.0 }, tpu_ms / 1e3, 600).unwrap();
        let ncs = simulate_queue(Arrivals::Periodic { rate_hz: 60.0 }, ncs_ms / 1e3, 600).unwrap();
        assert!(!tpu.saturated());
        assert!(ncs.saturated());
    }

    #[test]
    fn invalid_configurations_are_typed_errors_not_panics() {
        assert_eq!(
            simulate_queue(Arrivals::Periodic { rate_hz: 1.0 }, 0.0, 10),
            Err(WorkloadError::NonPositiveService { service_s: 0.0 })
        );
        assert_eq!(
            simulate_queue(Arrivals::Periodic { rate_hz: 1.0 }, 0.1, 0),
            Err(WorkloadError::NoRequests)
        );
        assert_eq!(
            Arrivals::Periodic { rate_hz: 0.0 }.timestamps(5),
            Err(WorkloadError::NonPositiveRate { rate_hz: 0.0 })
        );
        assert_eq!(
            Arrivals::Poisson {
                rate_hz: -2.0,
                seed: 1
            }
            .timestamps(5),
            Err(WorkloadError::NonPositiveRate { rate_hz: -2.0 })
        );
        // NaN and infinite rates would collapse every arrival onto t = 0.
        for rate_hz in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for arrivals in [
                Arrivals::Periodic { rate_hz },
                Arrivals::Poisson { rate_hz, seed: 1 },
            ] {
                assert!(
                    matches!(
                        arrivals.timestamps(5),
                        Err(WorkloadError::NonPositiveRate { .. })
                    ),
                    "{arrivals:?}"
                );
            }
        }
        // Errors render a human-readable message.
        let msg = Arrivals::Periodic { rate_hz: 0.0 }
            .timestamps(5)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("rate must be positive"), "{msg}");
    }
}
