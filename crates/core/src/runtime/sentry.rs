//! Sentry-mode controller for the inference stage.
//!
//! Modeled on the detr-mmap deployment pattern the paper's successor work
//! uses in the field: when nothing has been detected for a while, run only a
//! cheap standby model (the bottom rung of the precision ladder — int8 /
//! lowest fidelity) and escalate to the full model the moment the standby
//! net sees something. After `cooldown` consecutive quiet frames the
//! controller stands back down.
//!
//! ```text
//!            hit detected by standby rung
//!   Standby ────────────────────────────────▶ Alarmed
//!      ▲                                        │
//!      └────────────────────────────────────────┘
//!            cooldown consecutive no-hit frames
//! ```
//!
//! Detection is abstracted by the trace's ground-truth hit bit filtered
//! through `standby_recall`: the standby rung notices a true hit with
//! probability `recall` (drawn per-frame from a seeded stream, so replay is
//! deterministic). At the default `recall = 1.0` no escalation is ever
//! missed; lower recall quantifies the accuracy/energy trade-off of leaning
//! on the cheap rung.

use edgebench_devices::faults::rng::FaultRng;

/// Stream tag for standby-recall draws.
const TAG_SENTRY: u64 = 0x7374_6279; // "stby"

/// Sentry-mode tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentryConfig {
    /// Consecutive quiet (no-hit) frames in Alarmed before standing down.
    pub cooldown: u32,
    /// Probability the standby rung notices a true hit (1.0 = perfect).
    pub standby_recall: f64,
}

impl Default for SentryConfig {
    fn default() -> SentryConfig {
        SentryConfig {
            cooldown: 8,
            standby_recall: 1.0,
        }
    }
}

/// Controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SentryMode {
    /// Running the standby rung only.
    Standby,
    /// Running the full model; counts quiet frames toward stand-down.
    Alarmed,
}

/// What the inference stage should do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FramePlan {
    /// Run the standby (bottom) rung on this frame.
    pub run_standby: bool,
    /// Run the full (top) rung on this frame.
    pub run_full: bool,
    /// This frame triggered a Standby → Alarmed escalation.
    pub escalated: bool,
    /// This frame completed an Alarmed → Standby stand-down.
    pub stood_down: bool,
    /// Ground-truth hit served by the standby rung only (recall miss).
    pub missed: bool,
}

/// The sentry state machine. Deterministic: every decision is a pure
/// function of `(seed, frame seq, ground-truth hit, prior state)`.
#[derive(Debug, Clone)]
pub(crate) struct Sentry {
    cfg: SentryConfig,
    seed: u64,
    mode: SentryMode,
    quiet: u32,
}

impl Sentry {
    /// A controller starting in Standby.
    #[cfg(test)]
    fn new(cfg: SentryConfig, seed: u64) -> Sentry {
        Sentry {
            cfg,
            seed,
            mode: SentryMode::Standby,
            quiet: 0,
        }
    }

    /// Rebuild a controller from persisted `(mode, quiet)` state — used by
    /// a restarted inference stage to resume the state machine exactly
    /// where the crashed instance left it. `(0, 0)` (a fresh control
    /// block) starts in Standby.
    pub(crate) fn resume(cfg: SentryConfig, seed: u64, state: (u32, u32)) -> Sentry {
        Sentry {
            cfg,
            seed,
            mode: if state.0 == 0 {
                SentryMode::Standby
            } else {
                SentryMode::Alarmed
            },
            quiet: state.1,
        }
    }

    /// Current mode.
    #[cfg(test)]
    fn mode(&self) -> SentryMode {
        self.mode
    }

    /// Persistable `(mode, quiet)` state; inverse of [`Sentry::resume`].
    pub(crate) fn state(&self) -> (u32, u32) {
        (u32::from(self.mode == SentryMode::Alarmed), self.quiet)
    }

    /// Decide how to serve frame `seq` given its ground-truth hit bit, and
    /// advance the state machine.
    pub(crate) fn plan(&mut self, seq: u64, hit: bool) -> FramePlan {
        match self.mode {
            SentryMode::Standby => {
                let detected = hit
                    && FaultRng::for_stream(self.seed, &[TAG_SENTRY, seq])
                        .chance(self.cfg.standby_recall);
                if detected {
                    self.mode = SentryMode::Alarmed;
                    self.quiet = 0;
                    FramePlan {
                        run_standby: true,
                        run_full: true,
                        escalated: true,
                        stood_down: false,
                        missed: false,
                    }
                } else {
                    FramePlan {
                        run_standby: true,
                        run_full: false,
                        escalated: false,
                        stood_down: false,
                        missed: hit,
                    }
                }
            }
            SentryMode::Alarmed => {
                if hit {
                    self.quiet = 0;
                } else {
                    self.quiet += 1;
                }
                let stood_down = self.quiet >= self.cfg.cooldown;
                if stood_down {
                    self.mode = SentryMode::Standby;
                    self.quiet = 0;
                }
                FramePlan {
                    run_standby: false,
                    run_full: true,
                    escalated: false,
                    stood_down,
                    missed: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(hits: &[bool], cfg: SentryConfig) -> (Vec<FramePlan>, Sentry) {
        let mut sentry = Sentry::new(cfg, 42);
        let plans = hits
            .iter()
            .enumerate()
            .map(|(i, &h)| sentry.plan(i as u64, h))
            .collect();
        (plans, sentry)
    }

    #[test]
    fn perfect_recall_never_misses_an_escalation() {
        let hits = [false, false, true, true, false, false, false, true];
        let cfg = SentryConfig {
            cooldown: 2,
            standby_recall: 1.0,
        };
        let (plans, _) = run(&hits, cfg);
        // Frame 2: first hit escalates (standby + full both run).
        assert!(plans[2].escalated && plans[2].run_full && plans[2].run_standby);
        // Frame 3: already alarmed, full only.
        assert!(plans[3].run_full && !plans[3].run_standby);
        // Frames 4-5 quiet: stand-down completes on frame 5.
        assert!(plans[5].stood_down);
        // Frame 6: back in standby, cheap rung only.
        assert!(plans[6].run_standby && !plans[6].run_full);
        // Frame 7: hit from standby escalates again; nothing was missed.
        assert!(plans[7].escalated);
        assert!(plans.iter().all(|p| !p.missed));
    }

    #[test]
    fn zero_recall_misses_every_hit_and_stays_standby() {
        let hits = [true, true, true];
        let cfg = SentryConfig {
            cooldown: 4,
            standby_recall: 0.0,
        };
        let (plans, sentry) = run(&hits, cfg);
        assert!(plans.iter().all(|p| p.missed && !p.run_full));
        assert_eq!(sentry.mode(), SentryMode::Standby);
    }

    #[test]
    fn hit_during_alarm_resets_the_cooldown() {
        let hits = [true, false, false, true, false, false, false];
        let cfg = SentryConfig {
            cooldown: 3,
            standby_recall: 1.0,
        };
        let (plans, _) = run(&hits, cfg);
        // Quiet counter resets at frame 3; stand-down lands on frame 6.
        assert!(!plans[4].stood_down && !plans[5].stood_down);
        assert!(plans[6].stood_down);
    }

    #[test]
    fn resume_round_trips_state_mid_run() {
        let hits: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let cfg = SentryConfig {
            cooldown: 3,
            standby_recall: 0.7,
        };
        let mut whole = Sentry::new(cfg, 7);
        let mut first = Sentry::new(cfg, 7);
        let full: Vec<FramePlan> = hits
            .iter()
            .enumerate()
            .map(|(i, &h)| whole.plan(i as u64, h))
            .collect();
        for (i, &h) in hits[..20].iter().enumerate() {
            first.plan(i as u64, h);
        }
        // Simulate a crash/restart at frame 20: persist and resume.
        let mut resumed = Sentry::resume(cfg, 7, first.state());
        let tail: Vec<FramePlan> = hits[20..]
            .iter()
            .enumerate()
            .map(|(i, &h)| resumed.plan((20 + i) as u64, h))
            .collect();
        assert_eq!(tail, full[20..]);
        assert_eq!(
            Sentry::resume(cfg, 7, (0, 0)).state(),
            Sentry::new(cfg, 7).state()
        );
    }

    #[test]
    fn decisions_replay_identically() {
        let hits: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let cfg = SentryConfig {
            cooldown: 3,
            standby_recall: 0.6,
        };
        let (a, _) = run(&hits, cfg);
        let (b, _) = run(&hits, cfg);
        assert_eq!(a, b);
    }
}
