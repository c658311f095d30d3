//! Resilient pipeline executor: sustained multi-frame inference over a
//! [`PipelinePlan`] under injected faults, with detection, bounded
//! exponential backoff, and Musical-Chair-style repartitioning onto the
//! surviving devices when a stage is lost for good.
//!
//! The simulation is frame-sequential and entirely deterministic: every
//! random decision draws from a stream keyed by `(seed, tag, frame, unit,
//! attempt)` (see [`super::rng`]), so the emitted event log replays
//! byte-identically across runs and across `--jobs` settings.
//!
//! Timing model: the source admits frames at the pipeline's nominal
//! bottleneck period; each stage and each link is a serially-reusable
//! resource with a free-at clock. Fault stalls (detect timeouts, backoff,
//! recomputation, weight reloads) propagate through those clocks, so
//! resilience costs show up in both latency and effective throughput.

use crate::distributed::{partition, PipelinePlan};
use crate::offload::Link;
use crate::perf::PerfError;
use crate::spec::Device;
use crate::thermal::{ThermalEvent, ThermalSim};

use super::events::{EventKind, FaultEvent, FaultKind};
use super::rng::FaultRng;
use super::{FaultProfile, RetryPolicy};

/// Stream tag: per-frame-per-device permanent dropout draw.
const TAG_DROPOUT: u64 = 1;
/// Stream tag: per-frame-per-stage straggler draw.
const TAG_STRAGGLER: u64 = 2;
/// Stream tag: per-attempt transient compute-fault draw.
const TAG_TRANSIENT: u64 = 3;
/// Stream tag: per-attempt link-loss draw.
const TAG_LINK_LOSS: u64 = 4;
/// Stream tag: per-frame-per-link degradation draw.
const TAG_LINK_DEGRADED: u64 = 5;
/// Stream tag: backoff jitter draw.
const TAG_JITTER: u64 = 6;

/// Catch-up step for lazily-advanced thermal simulations, seconds. Far
/// below every device's thermal time constant (R·C ≳ 30 s).
const THERMAL_DT_S: f64 = 0.5;

/// Summary of a resilient pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Frames the source admitted (requested workload).
    pub frames_attempted: usize,
    /// Frames that produced a result.
    pub frames_completed: usize,
    /// Frames abandoned (retry exhaustion or in-flight during a loss).
    pub frames_dropped: usize,
    /// Mission wall-clock: when the workload window closed, seconds.
    pub horizon_s: f64,
    /// Mean completed-frame latency (admission to result), seconds.
    pub mean_latency_s: f64,
    /// Devices lost permanently during the run.
    pub devices_lost: usize,
    /// Musical-Chair repartitions performed.
    pub repartitions: usize,
    /// Retries scheduled (links + compute).
    pub retries: usize,
    /// Fault-to-recovery latencies, seconds (one per recovery).
    pub recoveries: Vec<f64>,
    /// The replayable, deterministic event log.
    pub events: Vec<FaultEvent>,
    /// Pipeline depth at the end of the run.
    pub final_stages: usize,
}

impl ResilienceReport {
    /// Effective throughput over the mission window, frames/s.
    pub fn throughput_fps(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.frames_completed as f64 / self.horizon_s
        } else {
            0.0
        }
    }

    /// Fraction of attempted frames that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.frames_attempted > 0 {
            self.frames_completed as f64 / self.frames_attempted as f64
        } else {
            1.0
        }
    }

    /// Mean fault-to-recovery latency, seconds (0 if nothing recovered).
    pub fn mean_recovery_s(&self) -> f64 {
        if self.recoveries.is_empty() {
            0.0
        } else {
            self.recoveries.iter().sum::<f64>() / self.recoveries.len() as f64
        }
    }
}

/// A pipelined deployment of one graph over `n` homogeneous devices that
/// keeps serving frames while faults from a [`FaultProfile`] land on it.
#[derive(Debug, Clone)]
pub struct ResilientPipeline<'a> {
    graph: &'a edgebench_graph::Graph,
    device: Device,
    link: Link,
    n: usize,
    profile: FaultProfile,
    policy: RetryPolicy,
}

impl<'a> ResilientPipeline<'a> {
    /// A resilient pipeline of `n` `device`s joined by `link`, under
    /// `profile`, with the default [`RetryPolicy`].
    pub fn new(
        graph: &'a edgebench_graph::Graph,
        device: Device,
        link: Link,
        n: usize,
        profile: FaultProfile,
    ) -> Self {
        ResilientPipeline {
            graph,
            device,
            link,
            n,
            profile,
            policy: RetryPolicy::default(),
        }
    }

    /// Replaces the retry/recovery policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Simulates `frames` frames of sustained inference.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfError`] from planning (empty pipeline, unsupported
    /// precision). Faults during the run never error — they degrade the
    /// report and are recorded in its event log.
    pub fn run(&self, frames: usize) -> Result<ResilienceReport, PerfError> {
        let mut plan = partition(self.graph, self.device, self.n, self.link)?;
        let weight_bytes = self.graph.stats().params * self.graph.dtype().size_bytes() as u64;
        let p = &self.profile;
        let policy = &self.policy;

        // stage_device[s] = original fleet index serving stage s.
        let mut stage_device: Vec<usize> = (0..self.n).collect();
        let mut dead = vec![false; self.n];
        let mut sims: Vec<Option<ThermalSim>> = (0..self.n)
            .map(|_| {
                if p.thermal {
                    ThermalSim::try_new(self.device)
                } else {
                    None
                }
            })
            .collect();

        let mut free_stage = vec![0.0f64; plan.stages.len()];
        let mut free_link = vec![0.0f64; plan.link_times_s.len()];
        let mut period = 1.0 / plan.throughput_fps();
        let mut next_admit = 0.0f64;

        let mut events: Vec<FaultEvent> = Vec::new();
        let mut completed = 0usize;
        let mut dropped = 0usize;
        let mut latency_sum = 0.0f64;
        let mut devices_lost = 0usize;
        let mut repartitions = 0usize;
        let mut retries = 0usize;
        let mut recoveries: Vec<f64> = Vec::new();
        let mut horizon = 0.0f64;
        let mut broken = false; // fail-stop mode: a stage died, no repartition

        'frames: for f in 0..frames {
            if broken {
                // The mission window keeps running; frames keep arriving at
                // the nominal period and die at the source.
                next_admit += period;
                horizon = horizon.max(next_admit);
                dropped += 1;
                continue;
            }
            let admit = next_admit.max(free_stage[0]);
            next_admit = admit + period;
            let mut t = admit;

            let mut s = 0usize;
            while s < plan.stages.len() {
                let dev = stage_device[s];
                t = t.max(free_stage[s]);

                // --- Permanent device loss: scripted, drawn, or thermal. ---
                let scripted =
                    matches!(p.kill_device, Some((kf, kd)) if f >= kf && kd == dev && !dead[dev]);
                let drawn = !dead[dev]
                    && FaultRng::for_stream(p.seed, &[TAG_DROPOUT, f as u64, dev as u64])
                        .chance(p.device_dropout);
                if scripted || drawn {
                    dead[dev] = true;
                    devices_lost += 1;
                    let kind = FaultKind::DeviceDropout { device: dev };
                    events.push(FaultEvent {
                        time_s: t,
                        frame: f,
                        kind: EventKind::Injected(kind),
                    });
                    let t_detect = t + policy.detect_timeout_s;
                    events.push(FaultEvent {
                        time_s: t_detect,
                        frame: f,
                        kind: EventKind::Detected(kind),
                    });
                    match self.handle_loss(
                        dev,
                        t,
                        t_detect,
                        f,
                        &dead,
                        &mut plan,
                        &mut stage_device,
                        &mut free_stage,
                        &mut free_link,
                        &mut period,
                        &mut next_admit,
                        &mut events,
                        &mut recoveries,
                        &mut repartitions,
                        &mut broken,
                        weight_bytes,
                    )? {
                        LossResolution::Continue => {
                            dropped += 1;
                            horizon = horizon.max(events.last().map_or(t_detect, |e| e.time_s));
                            continue 'frames;
                        }
                        LossResolution::Abort => {
                            dropped += 1;
                            horizon = horizon.max(t_detect);
                            continue 'frames;
                        }
                    }
                }

                // --- Stage compute, with throttling / straggler / faults. ---
                let mut svc = plan.stage_times_s[s];
                if let Some(sim) = sims[dev].as_mut() {
                    // Catch the device's thermal state up to `t`; while
                    // pipelined it dissipates in proportion to its duty.
                    let duty = (plan.stage_times_s[s] / period).min(1.0);
                    let spec = self.device.spec();
                    let power = spec.idle_power_w + (spec.avg_power_w - spec.idle_power_w) * duty;
                    let mut died_at = None;
                    while sim.time_s() < t && died_at.is_none() {
                        let dt = (t - sim.time_s()).min(THERMAL_DT_S);
                        for ev in sim.step(power * sim.throttle_factor(), dt) {
                            match ev {
                                ThermalEvent::ThrottleOn(at, _) => {
                                    let kind = FaultKind::ThermalThrottle { device: dev };
                                    events.push(FaultEvent {
                                        time_s: at,
                                        frame: f,
                                        kind: EventKind::Injected(kind),
                                    });
                                    events.push(FaultEvent {
                                        time_s: at,
                                        frame: f,
                                        kind: EventKind::Detected(kind),
                                    });
                                }
                                ThermalEvent::Shutdown(at, _) => died_at = Some(at),
                                _ => {}
                            }
                        }
                    }
                    if let Some(at) = died_at {
                        dead[dev] = true;
                        devices_lost += 1;
                        let kind = FaultKind::ThermalShutdown { device: dev };
                        events.push(FaultEvent {
                            time_s: at,
                            frame: f,
                            kind: EventKind::Injected(kind),
                        });
                        let t_detect = at.max(t) + policy.detect_timeout_s;
                        events.push(FaultEvent {
                            time_s: t_detect,
                            frame: f,
                            kind: EventKind::Detected(kind),
                        });
                        match self.handle_loss(
                            dev,
                            t,
                            t_detect,
                            f,
                            &dead,
                            &mut plan,
                            &mut stage_device,
                            &mut free_stage,
                            &mut free_link,
                            &mut period,
                            &mut next_admit,
                            &mut events,
                            &mut recoveries,
                            &mut repartitions,
                            &mut broken,
                            weight_bytes,
                        )? {
                            LossResolution::Continue | LossResolution::Abort => {
                                dropped += 1;
                                horizon = horizon.max(events.last().map_or(t_detect, |e| e.time_s));
                                continue 'frames;
                            }
                        }
                    }
                    svc /= sim.throttle_factor();
                }

                if FaultRng::for_stream(p.seed, &[TAG_STRAGGLER, f as u64, s as u64])
                    .chance(p.straggler)
                {
                    events.push(FaultEvent {
                        time_s: t,
                        frame: f,
                        kind: EventKind::Injected(FaultKind::Straggler { stage: s }),
                    });
                    svc *= p.straggler_factor;
                }

                // Transient compute faults: recompute with backoff.
                let fault_t = t;
                let mut attempt = 0u32;
                loop {
                    let faulty = FaultRng::for_stream(
                        p.seed,
                        &[TAG_TRANSIENT, f as u64, s as u64, attempt as u64],
                    )
                    .chance(p.transient_compute);
                    t += svc;
                    if !faulty {
                        if attempt > 0 {
                            events.push(FaultEvent {
                                time_s: t,
                                frame: f,
                                kind: EventKind::Recovered {
                                    after_s: t - fault_t,
                                },
                            });
                            recoveries.push(t - fault_t);
                        }
                        break;
                    }
                    let kind = FaultKind::TransientCompute { stage: s };
                    events.push(FaultEvent {
                        time_s: t,
                        frame: f,
                        kind: EventKind::Injected(kind),
                    });
                    events.push(FaultEvent {
                        time_s: t,
                        frame: f,
                        kind: EventKind::Detected(kind),
                    });
                    attempt += 1;
                    if attempt > policy.max_retries {
                        events.push(FaultEvent {
                            time_s: t,
                            frame: f,
                            kind: EventKind::FrameDropped,
                        });
                        free_stage[s] = t;
                        dropped += 1;
                        horizon = horizon.max(t);
                        continue 'frames;
                    }
                    retries += 1;
                    let backoff = policy.backoff_s(attempt)
                        * FaultRng::for_stream(
                            p.seed,
                            &[TAG_JITTER, f as u64, s as u64, attempt as u64],
                        )
                        .jitter(policy.jitter_frac);
                    events.push(FaultEvent {
                        time_s: t,
                        frame: f,
                        kind: EventKind::RetryScheduled {
                            attempt,
                            backoff_s: backoff,
                        },
                    });
                    t += backoff;
                }
                free_stage[s] = t;

                // --- Link transfer to the next stage. ---
                if s + 1 < plan.stages.len() {
                    t = t.max(free_link[s]);
                    let mut xfer = plan.link_times_s[s];
                    if FaultRng::for_stream(p.seed, &[TAG_LINK_DEGRADED, f as u64, s as u64])
                        .chance(p.link_degraded)
                    {
                        events.push(FaultEvent {
                            time_s: t,
                            frame: f,
                            kind: EventKind::Injected(FaultKind::LinkDegraded { link: s }),
                        });
                        xfer *= p.link_degradation_factor;
                    }
                    let fault_t = t;
                    let mut attempt = 0u32;
                    loop {
                        let lost = FaultRng::for_stream(
                            p.seed,
                            &[TAG_LINK_LOSS, f as u64, s as u64, attempt as u64],
                        )
                        .chance(p.link_loss);
                        if !lost {
                            t += xfer;
                            if attempt > 0 {
                                events.push(FaultEvent {
                                    time_s: t,
                                    frame: f,
                                    kind: EventKind::Recovered {
                                        after_s: t - fault_t,
                                    },
                                });
                                recoveries.push(t - fault_t);
                            }
                            break;
                        }
                        let kind = FaultKind::LinkLoss { link: s };
                        events.push(FaultEvent {
                            time_s: t,
                            frame: f,
                            kind: EventKind::Injected(kind),
                        });
                        t += policy.detect_timeout_s;
                        events.push(FaultEvent {
                            time_s: t,
                            frame: f,
                            kind: EventKind::Detected(kind),
                        });
                        attempt += 1;
                        if attempt > policy.max_retries {
                            events.push(FaultEvent {
                                time_s: t,
                                frame: f,
                                kind: EventKind::FrameDropped,
                            });
                            free_link[s] = t;
                            dropped += 1;
                            horizon = horizon.max(t);
                            continue 'frames;
                        }
                        retries += 1;
                        let backoff = policy.backoff_s(attempt)
                            * FaultRng::for_stream(
                                p.seed,
                                &[
                                    TAG_JITTER,
                                    f as u64,
                                    (plan.stages.len() + s) as u64,
                                    attempt as u64,
                                ],
                            )
                            .jitter(policy.jitter_frac);
                        events.push(FaultEvent {
                            time_s: t,
                            frame: f,
                            kind: EventKind::RetryScheduled {
                                attempt,
                                backoff_s: backoff,
                            },
                        });
                        t += backoff;
                    }
                    free_link[s] = t;
                }
                s += 1;
            }

            completed += 1;
            latency_sum += t - admit;
            horizon = horizon.max(t);
        }

        Ok(ResilienceReport {
            frames_attempted: frames,
            frames_completed: completed,
            frames_dropped: dropped,
            horizon_s: horizon,
            mean_latency_s: if completed > 0 {
                latency_sum / completed as f64
            } else {
                0.0
            },
            devices_lost,
            repartitions,
            retries,
            recoveries,
            events,
            final_stages: plan.stages.len(),
        })
    }

    /// Resolves a permanent device loss: Musical-Chair repartition onto the
    /// survivors (reload stall = shipping the weights once over the link),
    /// or fail-stop when repartitioning is disabled or nobody survives.
    #[allow(clippy::too_many_arguments)]
    fn handle_loss(
        &self,
        dev: usize,
        t_fault: f64,
        t_detect: f64,
        frame: usize,
        dead: &[bool],
        plan: &mut PipelinePlan,
        stage_device: &mut Vec<usize>,
        free_stage: &mut Vec<f64>,
        free_link: &mut Vec<f64>,
        period: &mut f64,
        next_admit: &mut f64,
        events: &mut Vec<FaultEvent>,
        recoveries: &mut Vec<f64>,
        repartitions: &mut usize,
        broken: &mut bool,
        weight_bytes: u64,
    ) -> Result<LossResolution, PerfError> {
        events.push(FaultEvent {
            time_s: t_detect,
            frame,
            kind: EventKind::DeviceLost { device: dev },
        });
        events.push(FaultEvent {
            time_s: t_detect,
            frame,
            kind: EventKind::FrameDropped,
        });
        let survivors: Vec<usize> = (0..dead.len()).filter(|&d| !dead[d]).collect();
        if self.policy.repartition && !survivors.is_empty() {
            let from = plan.stages.len();
            *plan = partition(self.graph, self.device, survivors.len(), self.link)?;
            // Survivors reload their (new) layer weights over the link once.
            let t_rec = t_detect + self.link.upload_s(weight_bytes);
            events.push(FaultEvent {
                time_s: t_rec,
                frame,
                kind: EventKind::Repartitioned {
                    from_stages: from,
                    to_stages: plan.stages.len(),
                },
            });
            events.push(FaultEvent {
                time_s: t_rec,
                frame,
                kind: EventKind::Recovered {
                    after_s: t_rec - t_fault,
                },
            });
            recoveries.push(t_rec - t_fault);
            *repartitions += 1;
            *stage_device = survivors;
            *free_stage = vec![t_rec; plan.stages.len()];
            *free_link = vec![t_rec; plan.link_times_s.len()];
            *period = 1.0 / plan.throughput_fps();
            *next_admit = (*next_admit).max(t_rec);
            Ok(LossResolution::Continue)
        } else {
            *broken = true;
            Ok(LossResolution::Abort)
        }
    }
}

/// How a permanent device loss was resolved.
enum LossResolution {
    /// The pipeline repartitioned and keeps serving frames.
    Continue,
    /// Fail-stop: the pipeline is broken for the rest of the mission.
    Abort,
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_models::Model;

    fn lan() -> Link {
        Link {
            uplink_mbps: 90.0,
            downlink_mbps: 90.0,
            rtt_s: 0.002,
        }
    }

    #[test]
    fn fault_free_run_matches_the_plan() {
        let g = Model::ResNet18.build();
        let plan = partition(&g, Device::RaspberryPi3, 4, lan()).unwrap();
        let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, FaultProfile::none(1))
            .run(100)
            .unwrap();
        assert_eq!(rep.frames_completed, 100);
        assert_eq!(rep.frames_dropped, 0);
        assert!(rep.events.is_empty());
        // Steady-state throughput approaches the plan's bottleneck rate.
        let ratio = rep.throughput_fps() / plan.throughput_fps();
        assert!(ratio > 0.8 && ratio <= 1.01, "ratio {ratio}");
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let g = Model::MobileNetV2.build();
        let p = FaultProfile::flaky_fleet(42);
        let a = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .run(150)
            .unwrap();
        let b = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .run(150)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty(), "flaky fleet should inject something");
    }

    #[test]
    fn different_seeds_diverge() {
        let g = Model::MobileNetV2.build();
        let a = ResilientPipeline::new(
            &g,
            Device::RaspberryPi3,
            lan(),
            4,
            FaultProfile::lossy_network(1),
        )
        .run(200)
        .unwrap();
        let b = ResilientPipeline::new(
            &g,
            Device::RaspberryPi3,
            lan(),
            4,
            FaultProfile::lossy_network(2),
        )
        .run(200)
        .unwrap();
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn scripted_kill_repartitions_and_completes_degraded() {
        let g = Model::ResNet18.build();
        let p = FaultProfile::none(7).with_kill_device(40, 1);
        let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .run(120)
            .unwrap();
        assert_eq!(rep.devices_lost, 1);
        assert_eq!(rep.repartitions, 1);
        assert_eq!(rep.final_stages, 3);
        assert_eq!(
            rep.frames_completed, 119,
            "only the in-flight frame is lost"
        );
        assert_eq!(rep.recoveries.len(), 1);
        assert!(rep.mean_recovery_s() > 0.0);
        // The lifecycle appears in order in the log.
        let first = |kind: EventKind| rep.events.iter().position(|e| e.kind == kind).unwrap();
        let dropout = FaultKind::DeviceDropout { device: 1 };
        let inj = first(EventKind::Injected(dropout));
        let det = first(EventKind::Detected(dropout));
        let repart = first(EventKind::Repartitioned {
            from_stages: 4,
            to_stages: 3,
        });
        let rec = rep
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Recovered { .. }))
            .unwrap();
        assert!(
            inj < det && det < repart && repart < rec,
            "events: {:?}",
            rep.events
        );
    }

    #[test]
    fn fail_stop_drops_the_rest_of_the_mission() {
        let g = Model::ResNet18.build();
        let p = FaultProfile::none(7).with_kill_device(40, 1);
        let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .with_policy(RetryPolicy::default().without_repartition())
            .run(120)
            .unwrap();
        assert_eq!(rep.repartitions, 0);
        assert!(rep.frames_completed <= 40);
        assert_eq!(rep.frames_completed + rep.frames_dropped, 120);
        assert!(
            rep.throughput_fps() < 0.5 * (1.0 / 0.1),
            "broken pipeline keeps paying mission time"
        );
    }

    #[test]
    fn repartition_beats_fail_stop_on_completed_frames() {
        let g = Model::ResNet18.build();
        let p = FaultProfile::none(3).with_kill_device(30, 2);
        let with = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .run(200)
            .unwrap();
        let without = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, p)
            .with_policy(RetryPolicy::default().without_repartition())
            .run(200)
            .unwrap();
        assert!(with.frames_completed > without.frames_completed);
        assert!(with.throughput_fps() > without.throughput_fps());
    }

    #[test]
    fn lossy_links_retry_and_recover() {
        let g = Model::MobileNetV2.build();
        let rep = ResilientPipeline::new(
            &g,
            Device::RaspberryPi3,
            lan(),
            4,
            FaultProfile::lossy_network(11),
        )
        .run(300)
        .unwrap();
        assert!(
            rep.retries > 0,
            "2% loss over 300 frames x 3 links must retry"
        );
        assert!(!rep.recoveries.is_empty());
        assert_eq!(rep.devices_lost, 0);
        // Bounded retries keep nearly all frames alive.
        assert!(
            rep.completion_rate() > 0.98,
            "rate {}",
            rep.completion_rate()
        );
    }
}
