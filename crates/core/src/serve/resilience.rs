//! Request-level resilience policies for the serving fleet: hedged
//! requests, token-bucket retry budgets, per-replica circuit breakers and
//! the graceful-degradation ladder.
//!
//! This module holds the *policy state machines*; the discrete-event
//! scheduler in [`super::sim`] drives them. Everything here is plain
//! deterministic state — the only randomness (retry backoff jitter,
//! straggler/loss draws) comes from the stream-keyed
//! [`edgebench_devices::faults::FaultRng`], so a run is a pure function
//! of its seed.
//!
//! The shapes follow production serving stacks: hedging after a delay
//! with first-completion-wins (Dean & Barroso's tail-at-scale hedged
//! requests), Finagle-style retry *budgets* (a token bucket earned by
//! successes, so a loss storm cannot amplify into a retry storm), and the
//! classic Closed → Open → HalfOpen breaker with a rolling error window.

use edgebench_devices::faults::ServiceFaults;

/// Resilience policy knobs carried on
/// [`ServeConfig`](super::ServeConfig). The default is everything off —
/// the simulator then behaves exactly like the pre-resilience fleet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Hedge slack in milliseconds: a duplicate dispatch fires when a
    /// request has waited its replica's predicted sojourn plus this slack
    /// without completing. `None` disables hedging.
    pub hedge_ms: Option<f64>,
    /// Retry budget for lost requests. `None` means lost requests fail.
    pub retry: Option<RetryBudgetConfig>,
    /// Per-replica circuit breakers. `None` disables them.
    pub breaker: Option<BreakerConfig>,
    /// Serve from the precision degradation ladder under SLO pressure.
    pub ladder: bool,
    /// Seeded straggler / request-loss fault model.
    pub faults: ServiceFaults,
    /// Silent-data-corruption model: per-batch corruption probability and
    /// whether the replica-side integrity guards are armed.
    pub sdc: SdcConfig,
}

impl ResilienceConfig {
    /// Whether any resilience mechanism or fault source is switched on.
    pub fn is_active(&self) -> bool {
        self.hedge_ms.is_some()
            || self.retry.is_some()
            || self.breaker.is_some()
            || self.ladder
            || self.faults.is_active()
            || self.sdc.is_active()
    }
}

/// Silent-data-corruption knobs for the serving simulation: each fired
/// batch draws a seeded per-`(replica, batch index)` Bernoulli; a hit
/// corrupts every result in the batch. With `guards` on (the default,
/// mirroring the executor's checksum + activation guards) the corruption
/// is *detected*: the batch counts as a breaker error and each affected
/// request gets one free re-dispatch — a second corrupted attempt fails
/// it. With `guards` off the corrupted results are served silently and
/// only counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcConfig {
    /// Per-batch probability that the batch's results are corrupted.
    pub corruption: f64,
    /// Whether the integrity guards detect (and retry) corrupted batches.
    pub guards: bool,
}

impl Default for SdcConfig {
    fn default() -> Self {
        SdcConfig {
            corruption: 0.0,
            guards: true,
        }
    }
}

impl SdcConfig {
    /// Whether corruption can occur at all.
    pub(crate) fn is_active(&self) -> bool {
        self.corruption > 0.0
    }
}

/// Token-bucket retry budget (Finagle-style): the bucket starts with
/// `initial_tokens`, every *success* deposits `per_success`, and every
/// retry withdraws one token. Long-run retries are thus bounded by
/// `initial + per_success × successes` — a loss storm drains the bucket
/// and degrades to shed instead of amplifying load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Maximum dispatch attempts per request (first try included).
    pub max_attempts: u32,
    /// Tokens in the bucket at time zero.
    pub initial_tokens: f64,
    /// Tokens deposited per successful completion.
    pub per_success: f64,
    /// Bucket capacity.
    pub cap: f64,
    /// First backoff interval, milliseconds.
    pub backoff_base_ms: f64,
    /// Multiplier between successive backoffs of the same request.
    pub backoff_factor: f64,
    /// Seeded uniform jitter applied to each backoff, ±fraction.
    pub jitter_frac: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            max_attempts: 3,
            initial_tokens: 10.0,
            per_success: 0.1,
            cap: 100.0,
            backoff_base_ms: 2.0,
            backoff_factor: 2.0,
            jitter_frac: 0.2,
        }
    }
}

/// Live state of the retry token bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
}

impl RetryBudget {
    /// A fresh bucket holding `initial_tokens`.
    pub(crate) fn new(cfg: RetryBudgetConfig) -> RetryBudget {
        RetryBudget {
            cfg,
            tokens: cfg.initial_tokens,
        }
    }

    /// Tokens currently available.
    #[cfg(test)]
    fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Deposits the per-success earn (capped).
    pub(crate) fn on_success(&mut self) {
        self.tokens = (self.tokens + self.cfg.per_success).min(self.cfg.cap);
    }

    /// Withdraws one token if available; `false` means the budget is
    /// exhausted and the caller must shed instead of retrying.
    pub(crate) fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Nominal (un-jittered) backoff before retry `attempt` (1-based),
    /// nanoseconds.
    pub(crate) fn backoff_ns(&self, attempt: u32) -> u64 {
        let ms = self.cfg.backoff_base_ms
            * self
                .cfg
                .backoff_factor
                .powi(attempt.saturating_sub(1) as i32);
        super::ms_to_ns(ms)
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling outcome window length (batches).
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Error-rate threshold in the window at which Closed trips to Open.
    pub trip_error_rate: f64,
    /// A batch whose straggler inflation reaches this factor counts as a
    /// timeout error even if its results survive.
    pub timeout_factor: f64,
    /// Open → HalfOpen cool-down, milliseconds.
    pub cooldown_ms: f64,
    /// Consecutive successful probes needed to close from HalfOpen.
    pub halfopen_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_samples: 4,
            trip_error_rate: 0.5,
            timeout_factor: 2.0,
            cooldown_ms: 250.0,
            halfopen_probes: 3,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// Replica drained; no traffic until the cool-down elapses.
    Open,
    /// A bounded number of probe requests test the replica.
    HalfOpen,
}

/// A state transition the breaker just made, for event logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed (or HalfOpen, on a failed probe) → Open.
    Opened,
    /// Open → HalfOpen after the cool-down.
    Probing,
    /// HalfOpen → Closed after enough successful probes.
    Closed,
}

/// Per-replica Closed → Open → HalfOpen circuit breaker over a rolling
/// error window. Fully deterministic: transitions depend only on the
/// outcome sequence and the clock values passed in.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Rolling window of outcomes, `true` = error.
    window: Vec<bool>,
    /// Clock value at which the breaker last opened, ns.
    opened_at_ns: u64,
    /// Successful probes so far in HalfOpen.
    probes_ok: usize,
    /// Probes dispatched but not yet resolved in HalfOpen.
    probes_in_flight: usize,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            window: Vec::new(),
            opened_at_ns: 0,
            probes_ok: 0,
            probes_in_flight: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped open.
    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }

    /// Times the breaker recovered to Closed.
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    fn cooldown_ns(&self) -> u64 {
        super::ms_to_ns(self.cfg.cooldown_ms)
    }

    /// Advances time: an Open breaker whose cool-down has elapsed moves
    /// to HalfOpen. Never transitions out of Open *before* the cool-down.
    pub fn poll(&mut self, now_ns: u64) -> Option<BreakerTransition> {
        if self.state == BreakerState::Open
            && now_ns >= self.opened_at_ns.saturating_add(self.cooldown_ns())
        {
            self.state = BreakerState::HalfOpen;
            self.probes_ok = 0;
            self.probes_in_flight = 0;
            return Some(BreakerTransition::Probing);
        }
        None
    }

    /// Whether the dispatcher may send work here right now. HalfOpen
    /// admits only while probe slots remain.
    pub fn admits(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                self.probes_ok + self.probes_in_flight < self.cfg.halfopen_probes
            }
        }
    }

    /// Notes that a batch was dispatched (claims a probe slot while
    /// HalfOpen).
    pub fn on_fire(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_in_flight += 1;
        }
    }

    /// Records a batch outcome at `now_ns`; returns the transition it
    /// caused, if any.
    pub fn record(&mut self, error: bool, now_ns: u64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed => {
                self.window.push(error);
                if self.window.len() > self.cfg.window {
                    self.window.remove(0);
                }
                let errors = self.window.iter().filter(|&&e| e).count();
                if self.window.len() >= self.cfg.min_samples
                    && errors as f64 / self.window.len() as f64 >= self.cfg.trip_error_rate
                {
                    self.state = BreakerState::Open;
                    self.opened_at_ns = now_ns;
                    self.window.clear();
                    self.trips += 1;
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                if error {
                    self.state = BreakerState::Open;
                    self.opened_at_ns = now_ns;
                    self.trips += 1;
                    Some(BreakerTransition::Opened)
                } else {
                    self.probes_ok += 1;
                    if self.probes_ok >= self.cfg.halfopen_probes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                        self.recoveries += 1;
                        Some(BreakerTransition::Closed)
                    } else {
                        None
                    }
                }
            }
            // Late completions from batches fired before the trip.
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_is_bounded_by_initial_plus_earnings() {
        let cfg = RetryBudgetConfig {
            initial_tokens: 5.0,
            per_success: 0.5,
            ..RetryBudgetConfig::default()
        };
        let mut b = RetryBudget::new(cfg);
        let mut granted = 0;
        for _ in 0..100 {
            if b.try_take() {
                granted += 1;
            }
        }
        assert_eq!(granted, 5, "no successes → only the initial tokens");
        for _ in 0..4 {
            b.on_success();
        }
        assert!(b.try_take(), "4 successes × 0.5 earn two more tokens");
        assert!(b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn retry_budget_respects_the_cap() {
        let cfg = RetryBudgetConfig {
            initial_tokens: 1.0,
            per_success: 10.0,
            cap: 3.0,
            ..RetryBudgetConfig::default()
        };
        let mut b = RetryBudget::new(cfg);
        for _ in 0..50 {
            b.on_success();
        }
        assert_eq!(b.tokens(), 3.0);
    }

    #[test]
    fn backoff_grows_geometrically() {
        let b = RetryBudget::new(RetryBudgetConfig::default());
        assert_eq!(b.backoff_ns(1), 2_000_000);
        assert_eq!(b.backoff_ns(2), 4_000_000);
        assert_eq!(b.backoff_ns(3), 8_000_000);
    }

    fn trip(b: &mut CircuitBreaker, now: u64) {
        for _ in 0..8 {
            b.record(true, now);
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_trips_on_error_rate_and_respects_cooldown() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(cfg);
        assert!(b.admits());
        trip(&mut b, 1_000);
        assert!(!b.admits());
        assert_eq!(b.trips(), 1);
        // Before the cool-down nothing moves.
        let before = 1_000 + crate::serve::ms_to_ns(cfg.cooldown_ms) - 1;
        assert_eq!(b.poll(before), None);
        assert_eq!(b.state(), BreakerState::Open);
        // At the cool-down it starts probing.
        assert_eq!(b.poll(before + 1), Some(BreakerTransition::Probing));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn halfopen_closes_after_enough_good_probes() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(cfg);
        trip(&mut b, 0);
        b.poll(u64::MAX);
        for i in 0..cfg.halfopen_probes {
            assert!(b.admits(), "probe {i} admitted");
            b.on_fire();
            let t = b.record(false, 1);
            if i + 1 == cfg.halfopen_probes {
                assert_eq!(t, Some(BreakerTransition::Closed));
            } else {
                assert_eq!(t, None);
            }
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
    }

    #[test]
    fn halfopen_reopens_on_a_failed_probe() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        trip(&mut b, 0);
        b.poll(u64::MAX);
        b.on_fire();
        assert_eq!(b.record(true, 2), Some(BreakerTransition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn halfopen_limits_in_flight_probes() {
        let cfg = BreakerConfig {
            halfopen_probes: 2,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        trip(&mut b, 0);
        b.poll(u64::MAX);
        b.on_fire();
        b.on_fire();
        assert!(!b.admits(), "both probe slots in flight");
        assert_eq!(b.record(false, 1), None);
        assert!(
            !b.admits(),
            "one ok + one in flight exhausts the trial budget"
        );
        assert_eq!(b.record(false, 2), Some(BreakerTransition::Closed));
        assert!(b.admits(), "closed again after enough successful probes");
    }

    #[test]
    fn breaker_needs_min_samples_before_tripping() {
        let cfg = BreakerConfig {
            min_samples: 4,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..3 {
            assert_eq!(b.record(true, 0), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.record(true, 0), Some(BreakerTransition::Opened));
    }

    #[test]
    fn default_resilience_is_inert() {
        assert!(!ResilienceConfig::default().is_active());
    }
}
