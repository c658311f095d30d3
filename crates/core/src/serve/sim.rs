//! The discrete-event serving loop: router, per-replica dynamic batching,
//! admission control, thermal coupling, replica-death faults and the
//! request-level resilience layer (hedging, retry budgets, circuit
//! breakers, degradation ladder).
//!
//! The simulator runs on an integer nanosecond clock. Events are ordered
//! by `(time, insertion sequence)`, every random decision is a pure
//! function of `(seed, stream ids)` ([`FaultRng`]), and each simulation
//! is fully serial — so a run is a deterministic function of its inputs
//! and replays byte-identically regardless of worker counts or host.
//!
//! The event queue itself is pluggable ([`EngineKind`]): the default
//! calendar queue streams the sorted arrival trace lazily and keeps
//! dynamic events in a bucketed time wheel, while the `BinaryHeap`
//! engine pushes the whole trace upfront — the from-scratch oracle the
//! calendar engine is proven byte-identical against. The hot path holds
//! no per-event allocations: routing candidate scans, hedge site lists
//! and batch assembly all run over reusable scratch buffers.
//!
//! Scheduling rules:
//!
//! * **Dynamic batching** — an idle replica fires a batch when its queue
//!   reaches `batch_max`, or when the oldest queued request has waited
//!   `batch_delay_ms` (a `Flush` timer; stale flushes are no-ops).
//! * **Routing** — round-robin, join-shortest-queue, or
//!   least-expected-latency using each replica's own batch service table
//!   (the heterogeneity-aware policy). Replicas whose breaker is Open
//!   are avoided while any admitting replica remains.
//! * **Admission control** — a request is shed at arrival when the
//!   predicted sojourn on the routed replica already exceeds the SLO.
//! * **Autoscaling** — with an [`AutoscaleConfig`](super::AutoscaleConfig),
//!   a periodic `Scale`
//!   tick compares the best routable replica's predicted sojourn against
//!   SLO fractions: sustained pressure activates the next standby
//!   replica after a warm-up delay, sustained slack deactivates the
//!   highest-indexed idle replica (never below the configured floor).
//! * **Thermal coupling** — each replica steps its device's
//!   [`ThermalSim`] while idle and while serving; throttling stretches
//!   service times, crossing the shutdown limit kills the replica.
//! * **Replica death** — scripted (`kill_replica`) or seeded
//!   (`replica_dropout`, one draw per `(replica, batch index)`); the
//!   router drains the dead replica's queue and re-routes every orphan.
//! * **Hedging** — once a request has waited its replica's predicted
//!   sojourn plus the hedge slack, one duplicate is dispatched to the
//!   least-loaded other replica; the first completion wins and queued
//!   loser copies are cancelled, freeing their slots.
//! * **Retries** — a request whose every copy was lost re-dispatches
//!   after seeded bounded backoff, while the global token-bucket budget
//!   lasts; exhaustion degrades to a separately-counted shed.
//! * **Silent data corruption** — one seeded draw per `(replica, batch
//!   index)` corrupts a whole batch's results. With guards armed the
//!   corruption is detected at completion: it feeds the replica's
//!   breaker as an error and each affected request gets one free
//!   re-dispatch (corrupted again → a typed `corrupted_failed` outcome).
//!   Unguarded, the wrong answers are served silently and only counted.
//! * **Circuit breakers** — per-replica Closed → Open → HalfOpen on the
//!   rolling batch error rate; an Open replica is drained (orphans
//!   re-routed) and later probed with a bounded number of trials.
//! * **Degradation ladder** — when the batch about to fire would bust
//!   the oldest request's SLO at the current precision, the replica
//!   steps down its ladder (fp32 → fp16 → int8); it steps back up one
//!   rung only when its queue drains, never mid-burst.
//! * **Carbon accounting** — replicas with a grid-intensity profile
//!   attached ([`super::CarbonProfile`]) accrue grams-CO₂ per batch from
//!   the batch energy and the grid intensity at the batch's start time.

use std::collections::VecDeque;

use edgebench_devices::faults::rng::FaultRng;
use edgebench_devices::thermal::ThermalSim;
use edgebench_measure::{Samples, ServeEvent, ServeEventKind};

use super::engine::{EngineKind, Event, EventKind, EventQueue};
use super::report::{ReplicaReport, ServeReport};
use super::resilience::{BreakerState, BreakerTransition, CircuitBreaker, RetryBudget};
use super::{ms_to_ns, s_to_ns, Fleet, ResilienceConfig, RoutePolicy, ServeConfig};
use crate::report::Report;

/// Stream tag for replica-death draws (disjoint from the executor's fault
/// tags and the traffic tag).
const TAG_REPLICA_DEATH: u64 = 0x6465_6174; // "deat"

/// Stream tag for retry-backoff jitter draws.
const TAG_RETRY: u64 = 0x7265_7472; // "retr"

/// Stream tag for silent-data-corruption draws.
const TAG_SDC: u64 = 0x7364_6366; // "sdcf"

/// Largest single Euler step fed to the thermal model, seconds.
const MAX_THERMAL_STEP_S: f64 = 2.0;

/// Largest number of live copies one request can hold (primary plus one
/// hedge; re-dispatch paths only run once every copy is gone).
const MAX_SITES: usize = 4;

/// One queued copy of a request.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    req: usize,
    /// When this copy entered the queue (drives the flush timer).
    enq_ns: u64,
    /// Whether this copy is a hedge duplicate.
    hedge: bool,
}

/// The replicas currently holding a copy of a request: an inline
/// fixed-capacity list (insertion-ordered, the primary copy first), so
/// per-request bookkeeping never heap-allocates.
#[derive(Debug, Clone, Copy, Default)]
struct SiteList {
    sites: [u32; MAX_SITES],
    len: u8,
}

impl SiteList {
    fn len(&self) -> usize {
        self.len as usize
    }

    fn as_slice(&self) -> &[u32] {
        &self.sites[..self.len as usize]
    }

    fn push(&mut self, r: usize) {
        assert!(
            (self.len as usize) < MAX_SITES,
            "more than {MAX_SITES} live copies of one request"
        );
        self.sites[self.len as usize] = r as u32;
        self.len += 1;
    }

    fn contains(&self, r: usize) -> bool {
        self.as_slice().contains(&(r as u32))
    }

    fn first(&self) -> Option<usize> {
        (self.len > 0).then(|| self.sites[0] as usize)
    }

    fn get(&self, k: usize) -> usize {
        self.sites[k] as usize
    }

    /// Removes the first occurrence of `r`, preserving insertion order.
    fn remove_value(&mut self, r: usize) {
        if let Some(pos) = self.as_slice().iter().position(|&s| s == r as u32) {
            for k in pos..self.len as usize - 1 {
                self.sites[k] = self.sites[k + 1];
            }
            self.len -= 1;
        }
    }
}

/// Mutable per-request state (hedging / retry bookkeeping).
#[derive(Debug, Clone, Copy, Default)]
struct ReqState {
    /// Counted in `n_in_system` right now.
    in_system: bool,
    /// Terminal: completed, shed, or failed — nothing more may happen.
    done: bool,
    /// Dispatch attempts so far (1 after the first dispatch).
    attempts: u32,
    /// Whether a hedge duplicate was ever issued.
    hedged: bool,
    /// Live copies (queued or in flight).
    copies: usize,
    /// Replicas currently holding a copy.
    sites: SiteList,
    /// Free re-dispatches already spent after a detected corruption.
    sdc_attempts: u32,
}

/// Mutable per-replica simulation state.
#[derive(Debug)]
struct ReplState {
    alive: bool,
    died: bool,
    /// Whether the replica is accepting traffic (autoscaling can park
    /// replicas as warm standbys; always `true` without autoscaling).
    active: bool,
    /// A scale-up was issued and the warm-up `Activate` event is pending.
    activating: bool,
    queue: VecDeque<QEntry>,
    in_flight: Vec<QEntry>,
    /// Ladder rung of the in-flight batch.
    flight_rung: usize,
    /// The in-flight batch's results are lost (seeded loss draw).
    flight_lost: bool,
    /// The in-flight batch counts as a breaker error (lost, timeout, or a
    /// guard-detected corruption).
    flight_error: bool,
    /// The in-flight batch's results are silently corrupted (seeded SDC
    /// draw).
    flight_corrupt: bool,
    busy: bool,
    busy_until_ns: u64,
    batches_started: u64,
    batches_served: u64,
    completed: usize,
    energy_mj: f64,
    busy_ns: u64,
    /// Current degradation-ladder rung (0 = native precision).
    rung: usize,
    thermal: Option<ThermalSim>,
    therm_pos_ns: u64,
    throttled: bool,
    idle_power_w: f64,
}

struct Sim<'a> {
    fleet: &'a Fleet,
    cfg: &'a ServeConfig,
    res: ResilienceConfig,
    arrive_ns: Vec<u64>,
    slo_ns: u64,
    delay_ns: u64,
    hedge_slack_ns: Option<u64>,
    events: EventQueue,
    seq: u64,
    /// Next un-consumed index of the lazily-streamed arrival trace
    /// (calendar engine; the heap oracle pushes arrivals upfront and
    /// leaves this at `arrive_ns.len()`).
    next_arrival: usize,
    /// Arrival events processed so far (identical in both engines).
    arrivals_seen: usize,
    reps: Vec<ReplState>,
    req: Vec<ReqState>,
    budget: Option<RetryBudget>,
    breakers: Vec<CircuitBreaker>,
    rr_cursor: usize,
    /// Reusable buffer for routing candidate scans (no per-event alloc).
    scratch_candidates: Vec<usize>,
    /// Pool of recycled `QEntry` buffers for batch assembly and queue
    /// drains (no per-batch alloc in steady state).
    qbuf_pool: Vec<Vec<QEntry>>,
    latencies_ms: Vec<f64>,
    within_slo: usize,
    shed: usize,
    failed: usize,
    hedges: usize,
    hedge_wins: usize,
    retries: usize,
    retry_shed: usize,
    sdc_detected: usize,
    sdc_retries: usize,
    corrupted_served: usize,
    corrupted_failed: usize,
    ladder_down: u64,
    ladder_up: u64,
    scale_ups: u64,
    scale_downs: u64,
    carbon_mg: f64,
    served_per_rung: Vec<usize>,
    fidelity_sum: f64,
    event_log: Vec<ServeEvent>,
    n_in_system: usize,
    area_req_s: f64,
    last_ns: u64,
    clock_ns: u64,
    max_queue_len: usize,
}

/// Runs the serving simulation: `arrive_s` are the request arrival
/// timestamps in seconds (non-decreasing). Pure function of its inputs.
pub(crate) fn run(fleet: &Fleet, arrive_s: &[f64], cfg: &ServeConfig) -> ServeReport {
    run_ns(fleet, arrive_s.iter().map(|&t| s_to_ns(t)).collect(), cfg)
}

/// Like [`run`], but takes ownership of the arrival trace so the
/// seconds buffer is converted in place (`f64` and `u64` share size and
/// alignment) instead of holding both copies alive — the streaming
/// entry point `qps_scan` probes use.
pub(crate) fn run_owned(fleet: &Fleet, arrive_s: Vec<f64>, cfg: &ServeConfig) -> ServeReport {
    run_ns(fleet, arrive_s.into_iter().map(s_to_ns).collect(), cfg)
}

fn run_ns(fleet: &Fleet, arrive_ns: Vec<u64>, cfg: &ServeConfig) -> ServeReport {
    let res = cfg.resilience;
    let n = arrive_ns.len();
    let min_active = cfg.autoscale.map(|a| a.min_replicas.max(1));
    let reps: Vec<ReplState> = fleet
        .replicas
        .iter()
        .enumerate()
        .map(|(i, r)| ReplState {
            alive: true,
            died: false,
            active: min_active.is_none_or(|m| i < m),
            activating: false,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            flight_rung: 0,
            flight_lost: false,
            flight_error: false,
            flight_corrupt: false,
            busy: false,
            busy_until_ns: 0,
            batches_started: 0,
            batches_served: 0,
            completed: 0,
            energy_mj: 0.0,
            busy_ns: 0,
            rung: 0,
            thermal: if cfg.thermal {
                ThermalSim::try_new(r.spec.device)
            } else {
                None
            },
            therm_pos_ns: 0,
            throttled: false,
            idle_power_w: r.spec.device.spec().idle_power_w,
        })
        .collect();
    let max_rungs = fleet
        .replicas
        .iter()
        .map(|r| r.rungs.len())
        .max()
        .unwrap_or(1);
    let span_ns = arrive_ns.last().copied().unwrap_or(0);
    let mut sim = Sim {
        fleet,
        cfg,
        res,
        slo_ns: ms_to_ns(cfg.slo_ms),
        delay_ns: ms_to_ns(cfg.batch_delay_ms),
        hedge_slack_ns: res.hedge_ms.map(ms_to_ns),
        // Sized for the dynamic event population: flushes, completions
        // and resilience timers track the arrival rate closely.
        events: EventQueue::new(cfg.engine, span_ns, n.saturating_mul(2).max(1)),
        seq: 0,
        next_arrival: 0,
        arrivals_seen: 0,
        reps,
        req: vec![ReqState::default(); n],
        budget: res.retry.map(RetryBudget::new),
        breakers: res
            .breaker
            .map(|bc| vec![CircuitBreaker::new(bc); fleet.replicas.len()])
            .unwrap_or_default(),
        rr_cursor: 0,
        scratch_candidates: Vec::with_capacity(fleet.replicas.len()),
        qbuf_pool: Vec::new(),
        latencies_ms: Vec::with_capacity(n),
        within_slo: 0,
        shed: 0,
        failed: 0,
        hedges: 0,
        hedge_wins: 0,
        retries: 0,
        retry_shed: 0,
        sdc_detected: 0,
        sdc_retries: 0,
        corrupted_served: 0,
        corrupted_failed: 0,
        ladder_down: 0,
        ladder_up: 0,
        scale_ups: 0,
        scale_downs: 0,
        carbon_mg: 0.0,
        served_per_rung: vec![0; max_rungs],
        fidelity_sum: 0.0,
        event_log: Vec::new(),
        n_in_system: 0,
        area_req_s: 0.0,
        last_ns: 0,
        clock_ns: 0,
        max_queue_len: 0,
        arrive_ns,
    };
    match cfg.engine {
        EngineKind::BinaryHeap => {
            // The oracle pushes the whole trace upfront: arrivals take
            // sequence numbers 1..=n in trace order. The lazy-arrival
            // cursor is parked past the end so `next_event` never
            // synthesizes a duplicate.
            for i in 0..n {
                sim.push_event(sim.arrive_ns[i], EventKind::Arrival(i));
            }
            sim.next_arrival = n;
        }
        EngineKind::Calendar => {
            // Arrivals are streamed lazily from the (sorted) trace
            // instead of queued. They would have occupied sequence
            // numbers 1..=n, so starting the dynamic counter at `n` and
            // synthesizing arrival events with their implicit sequence
            // reproduces the heap engine's total order exactly: arrival
            // i ties with arrival j by trace order, and an arrival ties
            // with a dynamic event at the same instant by winning
            // (its sequence is <= n, every dynamic one is > n).
            sim.seq = n as u64;
        }
    }
    if let Some(auto) = cfg.autoscale {
        sim.push_event(ms_to_ns(auto.eval_ms), EventKind::Scale);
    }
    while let Some(ev) = sim.next_event() {
        sim.advance_area(ev.time_ns);
        sim.clock_ns = sim.clock_ns.max(ev.time_ns);
        match ev.kind {
            EventKind::Arrival(i) => {
                sim.arrivals_seen += 1;
                sim.dispatch(i, ev.time_ns);
            }
            EventKind::Flush(r) => sim.maybe_fire(r, ev.time_ns),
            EventKind::Complete(r) => sim.complete(r, ev.time_ns),
            EventKind::Hedge(i) => sim.hedge(i, ev.time_ns),
            EventKind::Redispatch(i) => sim.redispatch(i, ev.time_ns),
            EventKind::Scale => sim.scale(ev.time_ns),
            EventKind::Activate(r) => sim.activate(r, ev.time_ns),
        }
    }
    sim.into_report()
}

impl Sim<'_> {
    fn push_event(&mut self, time_ns: u64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            time_ns,
            seq: self.seq,
            kind,
        });
    }

    /// The next event in `(time, seq)` order, merging the lazily
    /// streamed arrival trace (when one remains) with the dynamic queue.
    /// An arrival wins a same-instant tie because its implicit sequence
    /// number precedes every dynamic event's.
    fn next_event(&mut self) -> Option<Event> {
        if self.next_arrival < self.arrive_ns.len() {
            let at = self.arrive_ns[self.next_arrival];
            if let Some(ev) = self.events.pop_if_before(at) {
                return Some(ev);
            }
            let i = self.next_arrival;
            self.next_arrival += 1;
            return Some(Event {
                time_ns: at,
                seq: i as u64 + 1,
                kind: EventKind::Arrival(i),
            });
        }
        self.events.pop()
    }

    /// Little's-law area accounting: integrate requests-in-system over
    /// time at every state-changing event.
    fn advance_area(&mut self, now_ns: u64) {
        if now_ns > self.last_ns {
            self.area_req_s += self.n_in_system as f64 * (now_ns - self.last_ns) as f64 / 1e9;
            self.last_ns = now_ns;
        }
    }

    fn enter_system(&mut self, i: usize) {
        if !self.req[i].in_system {
            self.req[i].in_system = true;
            self.n_in_system += 1;
        }
    }

    fn leave_system(&mut self, i: usize) {
        if self.req[i].in_system {
            self.req[i].in_system = false;
            self.n_in_system -= 1;
        }
    }

    fn log_replica_event(&mut self, now: u64, r: usize, kind: ServeEventKind) {
        self.event_log.push(ServeEvent {
            time_ns: now,
            request: self.reps[r].batches_started as usize,
            kind,
        });
    }

    /// The largest batch this replica may fire under the config.
    fn effective_bmax(&self, r: usize) -> usize {
        self.cfg
            .batch_max
            .max(1)
            .min(self.fleet.replicas[r].max_batch())
    }

    /// Predicted sojourn of one more request routed to `r` at `now`:
    /// remaining in-flight work, plus the backlog served in greedy
    /// batches from `r`'s current-rung service table, plus the flush
    /// delay when the request would land in a partial batch.
    fn predicted_sojourn_ns(&self, r: usize, now: u64) -> u64 {
        let rep = &self.reps[r];
        let svc = &self.fleet.replicas[r].rungs[rep.rung].svc_ns;
        let bmax = self.effective_bmax(r);
        let busy_rem = if rep.busy {
            rep.busy_until_ns.saturating_sub(now)
        } else {
            0
        };
        let backlog = rep.queue.len() + 1;
        let full = (backlog / bmax) as u64;
        let rem = backlog % bmax;
        let mut total = busy_rem + full * svc[bmax - 1];
        if rem > 0 {
            if backlog < bmax {
                // Light load: the tail batch fires at its current size
                // once the flush delay expires.
                total += svc[rem - 1] + self.delay_ns;
            } else {
                // Under pressure the tail batch fills before it fires;
                // charging the partial-batch cost would systematically
                // underestimate the sojourn and admit requests destined
                // to miss the SLO.
                total += svc[bmax - 1];
            }
        }
        total
    }

    /// Moves any Open breaker whose cool-down has elapsed to HalfOpen.
    fn poll_breaker(&mut self, r: usize, now: u64) {
        if self.breakers.is_empty() {
            return;
        }
        if let Some(BreakerTransition::Probing) = self.breakers[r].poll(now) {
            self.log_replica_event(now, r, ServeEventKind::BreakerHalfOpen { replica: r });
        }
    }

    /// Whether replica `i` may receive new work. `respect_breakers`
    /// additionally requires its breaker to admit traffic.
    fn routable(&self, i: usize, respect_breakers: bool) -> bool {
        self.reps[i].alive
            && self.reps[i].active
            && (!respect_breakers || self.breakers.is_empty() || self.breakers[i].admits())
    }

    /// Picks an alive replica for an arriving request, or `None` when the
    /// whole fleet is dead. Replicas whose breaker rejects traffic are
    /// avoided unless *no* replica admits (a lone sick replica still
    /// queues work rather than failing it).
    fn route(&mut self, now: u64) -> Option<usize> {
        for r in 0..self.reps.len() {
            self.poll_breaker(r, now);
        }
        let respect = (0..self.reps.len()).any(|i| self.routable(i, true));
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend((0..self.reps.len()).filter(|&i| self.routable(i, respect)));
        let pick = if candidates.is_empty() {
            None
        } else {
            Some(match self.cfg.policy {
                RoutePolicy::RoundRobin => {
                    let n = self.reps.len();
                    let mut pick = candidates[0];
                    for off in 0..n {
                        let i = (self.rr_cursor + off) % n;
                        if candidates.contains(&i) {
                            pick = i;
                            break;
                        }
                    }
                    self.rr_cursor = (pick + 1) % n;
                    pick
                }
                RoutePolicy::JoinShortestQueue => *candidates
                    .iter()
                    .min_by_key(|&&i| (self.reps[i].queue.len() + self.reps[i].in_flight.len(), i))
                    .expect("non-empty"),
                RoutePolicy::LeastExpectedLatency => *candidates
                    .iter()
                    .min_by_key(|&&i| (self.predicted_sojourn_ns(i, now), i))
                    .expect("non-empty"),
            })
        };
        self.scratch_candidates = candidates;
        pick
    }

    /// Picks the least-expected-latency replica for a hedge copy of
    /// `req`, excluding replicas that already hold a copy.
    fn route_hedge(&mut self, req: usize, now: u64) -> Option<usize> {
        for r in 0..self.reps.len() {
            self.poll_breaker(r, now);
        }
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(
            (0..self.reps.len())
                .filter(|&i| self.routable(i, true) && !self.req[req].sites.contains(i)),
        );
        let pick = candidates
            .iter()
            .copied()
            .min_by_key(|&i| (self.predicted_sojourn_ns(i, now), i));
        self.scratch_candidates = candidates;
        pick
    }

    /// Routes request `i` (a fresh arrival or a re-routed orphan):
    /// admission-checks, enqueues, and arms the flush timer.
    fn dispatch(&mut self, i: usize, now: u64) {
        if self.req[i].done {
            return;
        }
        let Some(r) = self.route(now) else {
            self.req[i].done = true;
            self.leave_system(i);
            self.failed += 1;
            return;
        };
        if self.cfg.admission && self.predicted_sojourn_ns(r, now) > self.slo_ns {
            self.req[i].done = true;
            self.leave_system(i);
            self.shed += 1;
            return;
        }
        if self.req[i].attempts == 0 {
            self.req[i].attempts = 1;
        }
        self.enqueue(i, r, now, false);
    }

    /// Enqueues one copy of `i` on `r`, arms the flush timer, and (for a
    /// primary copy with hedging on) the hedge timer.
    fn enqueue(&mut self, i: usize, r: usize, now: u64, hedge: bool) {
        let pred = self.predicted_sojourn_ns(r, now);
        self.enter_system(i);
        self.req[i].copies += 1;
        self.req[i].sites.push(r);
        self.reps[r].queue.push_back(QEntry {
            req: i,
            enq_ns: now,
            hedge,
        });
        self.max_queue_len = self.max_queue_len.max(self.reps[r].queue.len());
        self.push_event(now + self.delay_ns, EventKind::Flush(r));
        if !hedge && !self.req[i].hedged {
            if let Some(slack) = self.hedge_slack_ns {
                self.push_event(now + pred + slack, EventKind::Hedge(i));
            }
        }
        self.maybe_fire(r, now);
    }

    /// Hedge timer fired: if `i` is still unserved and unhedged, dispatch
    /// a duplicate to the next-best replica. First completion wins.
    fn hedge(&mut self, i: usize, now: u64) {
        let st = &self.req[i];
        if st.done || st.hedged || st.copies == 0 {
            return; // served, already hedged, or between loss and retry
        }
        let Some(r) = self.route_hedge(i, now) else {
            return; // nowhere to hedge to
        };
        if self.cfg.admission && self.predicted_sojourn_ns(r, now) > self.slo_ns {
            return; // the duplicate would bust the SLO anyway
        }
        let from = self.req[i].sites.first().unwrap_or(r);
        self.req[i].hedged = true;
        self.hedges += 1;
        self.event_log.push(ServeEvent {
            time_ns: now,
            request: i,
            kind: ServeEventKind::Hedge { from, to: r },
        });
        self.enqueue(i, r, now, true);
    }

    /// Backoff expired: re-dispatch lost request `i` (bypasses admission
    /// — the retry token was already spent).
    fn redispatch(&mut self, i: usize, now: u64) {
        if self.req[i].done {
            return;
        }
        self.req[i].attempts += 1;
        let Some(r) = self.route(now) else {
            self.req[i].done = true;
            self.leave_system(i);
            self.failed += 1;
            return;
        };
        self.event_log.push(ServeEvent {
            time_ns: now,
            request: i,
            kind: ServeEventKind::Retry {
                attempt: self.req[i].attempts - 1,
                replica: r,
            },
        });
        self.enqueue(i, r, now, false);
    }

    /// Periodic autoscaler tick: compare the predicted-sojourn pressure
    /// signal against SLO fractions and activate or park replicas.
    /// Scale *up* when even the best routable replica would bust
    /// `up_frac` of the SLO (the router has nowhere cheap left); scale
    /// *down* only when even the worst-loaded replica sits below
    /// `down_frac` (using the min would instantly re-park a
    /// just-activated idle standby while its siblings still drown).
    /// The tick chain stops once the trace is exhausted and the system
    /// is empty, so the simulation still terminates.
    fn scale(&mut self, now: u64) {
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        let mut best = u64::MAX;
        let mut worst = u64::MAX;
        for i in 0..self.reps.len() {
            if self.routable(i, true) {
                let p = self.predicted_sojourn_ns(i, now);
                best = best.min(p);
                worst = if worst == u64::MAX { p } else { worst.max(p) };
            }
        }
        let up_ns = (self.slo_ns as f64 * auto.up_frac) as u64;
        let down_ns = (self.slo_ns as f64 * auto.down_frac) as u64;
        if best > up_ns {
            // Pressure: warm up the lowest-indexed standby replica.
            if let Some(r) = (0..self.reps.len())
                .find(|&i| self.reps[i].alive && !self.reps[i].active && !self.reps[i].activating)
            {
                self.reps[r].activating = true;
                self.scale_ups += 1;
                self.event_log.push(ServeEvent {
                    time_ns: now,
                    request: r,
                    kind: ServeEventKind::ScaleUp { replica: r },
                });
                self.push_event(now + ms_to_ns(auto.warmup_ms), EventKind::Activate(r));
            }
        } else if worst < down_ns {
            // Slack: park the highest-indexed idle active replica, never
            // dropping below the floor.
            let active_n = (0..self.reps.len())
                .filter(|&i| self.reps[i].alive && self.reps[i].active)
                .count();
            if active_n > auto.min_replicas.max(1) {
                if let Some(r) = (0..self.reps.len()).rev().find(|&i| {
                    let rep = &self.reps[i];
                    rep.alive && rep.active && !rep.busy && rep.queue.is_empty()
                }) {
                    self.reps[r].active = false;
                    self.scale_downs += 1;
                    self.event_log.push(ServeEvent {
                        time_ns: now,
                        request: r,
                        kind: ServeEventKind::ScaleDown { replica: r },
                    });
                }
            }
        }
        if self.arrivals_seen < self.arrive_ns.len() || self.n_in_system > 0 {
            self.push_event(now + ms_to_ns(auto.eval_ms), EventKind::Scale);
        }
    }

    /// Warm-up finished: the replica joins the routable set.
    fn activate(&mut self, r: usize, now: u64) {
        self.reps[r].activating = false;
        if self.reps[r].alive && !self.reps[r].active {
            self.reps[r].active = true;
            self.maybe_fire(r, now);
        }
    }

    /// Fires a batch on `r` if it is idle, its breaker admits, and either
    /// the queue fills a full batch or the oldest copy has exhausted the
    /// flush delay. Stale flush timers land here and fall through as
    /// no-ops.
    fn maybe_fire(&mut self, r: usize, now: u64) {
        self.poll_breaker(r, now);
        let bmax = self.effective_bmax(r);
        let rep = &self.reps[r];
        if !rep.alive || rep.busy || rep.queue.is_empty() {
            return;
        }
        if !self.breakers.is_empty() && !self.breakers[r].admits() {
            return;
        }
        let oldest_due = rep.queue[0].enq_ns.saturating_add(self.delay_ns);
        if rep.queue.len() >= bmax || now >= oldest_due {
            self.fire_batch(r, now);
        }
    }

    fn fire_batch(&mut self, r: usize, now: u64) {
        let batch_idx = self.reps[r].batches_started;
        self.reps[r].batches_started += 1;
        // Death draws happen at batch start: scripted kills first, then
        // the seeded per-(replica, batch) Bernoulli draw — both
        // independent of event interleaving.
        if self.cfg.kill_replica == Some((batch_idx, r)) {
            self.kill(r, now);
            return;
        }
        if self.cfg.replica_dropout > 0.0 {
            let mut rng =
                FaultRng::for_stream(self.cfg.seed, &[TAG_REPLICA_DEATH, r as u64, batch_idx]);
            if rng.chance(self.cfg.replica_dropout) {
                self.kill(r, now);
                return;
            }
        }
        let bmax = self.effective_bmax(r);
        let b = self.reps[r].queue.len().min(bmax);
        // Degradation ladder: while the predicted sojourn at the current
        // rung would bust the SLO and a cheaper rung exists, step down.
        // Recovery happens only when the queue drains.
        if self.res.ladder {
            loop {
                let rung = self.reps[r].rung;
                if rung + 1 >= self.fleet.replicas[r].rungs.len()
                    || self.predicted_sojourn_ns(r, now) <= self.slo_ns
                {
                    break;
                }
                self.reps[r].rung = rung + 1;
                self.ladder_down += 1;
                self.log_replica_event(
                    now,
                    r,
                    ServeEventKind::LadderDown {
                        replica: r,
                        rung: rung + 1,
                    },
                );
            }
        }
        // Assemble the batch into a recycled buffer (no per-batch alloc
        // in steady state; `complete` returns the buffer to the pool).
        let mut batch = self.qbuf_pool.pop().unwrap_or_default();
        {
            let rep = &mut self.reps[r];
            for _ in 0..b {
                let Some(e) = rep.queue.pop_front() else {
                    break;
                };
                batch.push(e);
            }
        }
        // Catch the thermal state up through the idle gap, then read the
        // throttle factor the batch will run at.
        self.advance_thermal_idle(r, now);
        let factor = self.reps[r]
            .thermal
            .as_ref()
            .map_or(1.0, ThermalSim::throttle_factor);
        // Seeded service faults: straggler inflation stretches the batch,
        // a loss draw voids its results after the time is spent.
        let inflation = self.res.faults.inflation(self.cfg.seed, r, batch_idx);
        let lost = self.res.faults.lost(self.cfg.seed, r, batch_idx);
        // Silent-data-corruption draw: one seeded Bernoulli per
        // (replica, batch) — the whole batch's results are corrupted.
        // With guards armed the corruption is *detected* at completion
        // and counts as a breaker error; unguarded it is invisible.
        let corrupt = self.res.sdc.is_active() && {
            let mut rng = FaultRng::for_stream(self.cfg.seed, &[TAG_SDC, r as u64, batch_idx]);
            rng.chance(self.res.sdc.corruption)
        };
        let timeout = self
            .res
            .breaker
            .is_some_and(|bc| inflation >= bc.timeout_factor);
        let rung = self.reps[r].rung;
        let table = &self.fleet.replicas[r].rungs[rung];
        let svc_ns = ((table.svc_ns[b - 1] as f64) * inflation / factor).round() as u64;
        let active_w = table.active_power_w[b - 1] * self.cfg.power_scale * factor;
        let energy_mj = table.energy_mj[b - 1] * inflation;
        if let Some(sim) = self.reps[r].thermal.as_mut() {
            // Heat the die through the batch (throttled clocks dissipate
            // proportionally less). Shutdown is acted on at completion.
            let mut dt_s = svc_ns as f64 / 1e9;
            while dt_s > 0.0 && !sim.is_shutdown() {
                let step = dt_s.min(MAX_THERMAL_STEP_S);
                sim.step(active_w, step);
                dt_s -= step;
            }
            self.reps[r].throttled |= sim.is_throttled();
            self.reps[r].therm_pos_ns = now + svc_ns;
        }
        if !self.breakers.is_empty() {
            self.breakers[r].on_fire();
        }
        // Carbon: the batch's energy at the replica's grid intensity at
        // fire time (mJ → kWh is /3.6e9; ×1000 for milligrams).
        if let Some(p) = self.fleet.carbon[r] {
            self.carbon_mg += energy_mj * p.intensity_at(now as f64 / 1e9) / 3.6e6;
        }
        let rep = &mut self.reps[r];
        rep.in_flight = batch;
        rep.flight_rung = rung;
        rep.flight_lost = lost;
        rep.flight_corrupt = corrupt;
        rep.flight_error = lost || timeout || (corrupt && self.res.sdc.guards);
        rep.busy = true;
        rep.busy_until_ns = now + svc_ns;
        rep.busy_ns += svc_ns;
        rep.batches_served += 1;
        rep.energy_mj += energy_mj;
        self.push_event(now + svc_ns, EventKind::Complete(r));
    }

    /// Removes one copy of `req` hosted on `r` from the bookkeeping.
    fn drop_copy(&mut self, req: usize, r: usize) {
        let st = &mut self.req[req];
        st.copies -= 1;
        st.sites.remove_value(r);
    }

    /// Cancels every still-queued copy of `req` (the request was just
    /// served elsewhere), freeing the loser's queue slots. In-flight
    /// copies cannot be un-fired; they resolve as no-ops on completion.
    /// Walks the inline site list by index — `drop_copy` shifts the list
    /// left when a queued copy is removed, so the index only advances
    /// past sites whose copy is in flight.
    fn cancel_copies(&mut self, req: usize) {
        let mut k = 0;
        while k < self.req[req].sites.len() {
            let s = self.req[req].sites.get(k);
            let before = self.reps[s].queue.len();
            self.reps[s].queue.retain(|e| e.req != req);
            let removed = before - self.reps[s].queue.len();
            for _ in 0..removed {
                self.drop_copy(req, s);
            }
            if removed == 0 {
                k += 1;
            }
        }
    }

    /// Every copy of `req` was lost: retry under the token budget, or
    /// degrade to a separately-counted shed (a hard fail when no retry
    /// policy is configured).
    fn handle_loss(&mut self, req: usize, now: u64) {
        let attempts = self.req[req].attempts;
        let mut retrying = false;
        if let (Some(rb), Some(budget)) = (self.res.retry, self.budget.as_mut()) {
            if attempts < rb.max_attempts && budget.try_take() {
                retrying = true;
            }
        }
        if retrying {
            self.retries += 1;
            let nominal = self
                .budget
                .as_ref()
                .expect("budget present when retrying")
                .backoff_ns(attempts);
            let frac = self.res.retry.expect("retry present").jitter_frac;
            let mut rng =
                FaultRng::for_stream(self.cfg.seed, &[TAG_RETRY, req as u64, attempts as u64]);
            let backoff = (nominal as f64 * rng.jitter(frac)).round().max(0.0) as u64;
            self.push_event(now + backoff, EventKind::Redispatch(req));
        } else {
            self.req[req].done = true;
            self.leave_system(req);
            if self.res.retry.is_some() {
                self.retry_shed += 1;
                self.event_log.push(ServeEvent {
                    time_ns: now,
                    request: req,
                    kind: ServeEventKind::RetryShed,
                });
            } else {
                self.failed += 1;
            }
        }
    }

    fn complete(&mut self, r: usize, now: u64) {
        let mut batch = std::mem::take(&mut self.reps[r].in_flight);
        let lost = self.reps[r].flight_lost;
        let error = self.reps[r].flight_error;
        let corrupt = self.reps[r].flight_corrupt;
        let rung = self.reps[r].flight_rung;
        let fidelity = self.fleet.replicas[r].rungs[rung].fidelity;
        self.reps[r].busy = false;
        for entry in batch.drain(..) {
            self.drop_copy(entry.req, r);
            if self.req[entry.req].done {
                continue; // hedge loser — the request was already served
            }
            if lost {
                if self.req[entry.req].copies == 0 {
                    self.handle_loss(entry.req, now);
                }
                continue;
            }
            if corrupt && self.res.sdc.guards {
                // The replica's integrity guards caught the corruption:
                // the result is discarded instead of served.
                self.sdc_detected += 1;
                if self.req[entry.req].copies > 0 {
                    continue; // another live copy may still serve it cleanly
                }
                if self.req[entry.req].sdc_attempts == 0 {
                    // One free re-dispatch (no retry-budget token spent —
                    // detection already cost the request a service time).
                    self.req[entry.req].sdc_attempts = 1;
                    self.sdc_retries += 1;
                    if let Some(nr) = self.route(now) {
                        self.enqueue(entry.req, nr, now, false);
                    } else {
                        self.req[entry.req].done = true;
                        self.leave_system(entry.req);
                        self.failed += 1;
                    }
                } else {
                    // Corrupted again on the retry: a typed terminal
                    // outcome, counted separately from `failed`.
                    self.req[entry.req].done = true;
                    self.leave_system(entry.req);
                    self.corrupted_failed += 1;
                }
                continue;
            }
            // First completion wins.
            self.req[entry.req].done = true;
            let lat_ns = now.saturating_sub(self.arrive_ns[entry.req]);
            self.latencies_ms.push(lat_ns as f64 / 1e6);
            if lat_ns <= self.slo_ns {
                self.within_slo += 1;
            }
            self.reps[r].completed += 1;
            self.served_per_rung[rung] += 1;
            self.fidelity_sum += fidelity;
            if corrupt {
                // Guards are off: the wrong answer ships and nothing
                // upstream can tell — the silent-data-corruption cost.
                self.corrupted_served += 1;
            }
            self.leave_system(entry.req);
            if entry.hedge {
                self.hedge_wins += 1;
                self.event_log.push(ServeEvent {
                    time_ns: now,
                    request: entry.req,
                    kind: ServeEventKind::HedgeWin { replica: r },
                });
            }
            if self.req[entry.req].copies > 0 {
                self.cancel_copies(entry.req);
            }
            if let Some(b) = self.budget.as_mut() {
                b.on_success();
            }
        }
        self.qbuf_pool.push(batch);
        if !self.breakers.is_empty() {
            match self.breakers[r].record(error, now) {
                Some(BreakerTransition::Opened) => {
                    self.log_replica_event(now, r, ServeEventKind::BreakerOpen { replica: r });
                    self.drain_queue(r, now);
                    // Wake the replica up right after the cool-down so
                    // half-open probing can start.
                    let cooldown_ns = ms_to_ns(
                        self.res
                            .breaker
                            .expect("breakers built from config")
                            .cooldown_ms,
                    );
                    self.push_event(now + cooldown_ns + 1, EventKind::Flush(r));
                }
                Some(BreakerTransition::Closed) => {
                    self.log_replica_event(now, r, ServeEventKind::BreakerClose { replica: r });
                }
                Some(BreakerTransition::Probing) | None => {}
            }
        }
        // Ladder recovery: one rung back up, and only once the queue has
        // fully drained — never mid-burst.
        if self.res.ladder && self.reps[r].rung > 0 && self.reps[r].queue.is_empty() {
            self.reps[r].rung -= 1;
            self.ladder_up += 1;
            self.log_replica_event(
                now,
                r,
                ServeEventKind::LadderUp {
                    replica: r,
                    rung: self.reps[r].rung,
                },
            );
        }
        if self.reps[r]
            .thermal
            .as_ref()
            .is_some_and(ThermalSim::is_shutdown)
        {
            self.kill(r, now);
        } else {
            self.maybe_fire(r, now);
        }
    }

    /// Steps the thermal model through an idle gap at the device's idle
    /// power (in chunks, so long gaps stay numerically stable).
    fn advance_thermal_idle(&mut self, r: usize, now: u64) {
        let rep = &mut self.reps[r];
        let Some(sim) = rep.thermal.as_mut() else {
            rep.therm_pos_ns = now;
            return;
        };
        let mut dt_s = now.saturating_sub(rep.therm_pos_ns) as f64 / 1e9;
        while dt_s > 0.0 && !sim.is_shutdown() {
            let step = dt_s.min(MAX_THERMAL_STEP_S);
            sim.step(rep.idle_power_w, step);
            dt_s -= step;
        }
        rep.therm_pos_ns = now;
    }

    /// Drains `r`'s queue, re-routing every copy that was a request's
    /// last through the normal routing (and admission) path at `now`.
    /// Redundant hedge copies are simply discarded. The orphan list uses
    /// a recycled buffer (drains can nest through a mid-drain kill; the
    /// pool hands each level its own buffer).
    fn drain_queue(&mut self, r: usize, now: u64) {
        let mut orphans = self.qbuf_pool.pop().unwrap_or_default();
        orphans.extend(self.reps[r].queue.drain(..));
        for e in orphans.drain(..) {
            self.drop_copy(e.req, r);
            if self.req[e.req].done || self.req[e.req].copies > 0 {
                continue;
            }
            self.dispatch(e.req, now);
        }
        self.qbuf_pool.push(orphans);
    }

    /// Kills replica `r`: marks it dead and re-routes its queue.
    fn kill(&mut self, r: usize, now: u64) {
        if !self.reps[r].alive {
            return;
        }
        self.reps[r].alive = false;
        self.reps[r].died = true;
        self.reps[r].busy = false;
        self.drain_queue(r, now);
    }

    fn into_report(self) -> ServeReport {
        let span_s = self.clock_ns as f64 / 1e9;
        let completed = self.latencies_ms.len();
        let replicas = self
            .reps
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let model = &self.fleet.replicas[i];
                ReplicaReport {
                    label: model.spec.label(),
                    alive: state.alive,
                    died: state.died,
                    throttled: state.throttled,
                    completed: state.completed,
                    batches: state.batches_served,
                    energy_mj: state.energy_mj,
                    busy_s: state.busy_ns as f64 / 1e9,
                    rung: state.rung,
                    breaker: if self.breakers.is_empty() {
                        "-"
                    } else {
                        match self.breakers[i].state() {
                            BreakerState::Closed => "closed",
                            BreakerState::Open => "open",
                            BreakerState::HalfOpen => "half-open",
                        }
                    },
                }
            })
            .collect();
        ServeReport {
            policy: self.cfg.policy,
            slo_ms: self.cfg.slo_ms,
            offered: self.arrive_ns.len(),
            completed,
            shed: self.shed,
            failed: self.failed,
            within_slo: self.within_slo,
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            retries: self.retries,
            retry_shed: self.retry_shed,
            sdc_detected: self.sdc_detected,
            sdc_retries: self.sdc_retries,
            corrupted_served: self.corrupted_served,
            corrupted_failed: self.corrupted_failed,
            breaker_trips: self.breakers.iter().map(CircuitBreaker::trips).sum(),
            breaker_recoveries: self.breakers.iter().map(CircuitBreaker::recoveries).sum(),
            ladder_down: self.ladder_down,
            ladder_up: self.ladder_up,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            carbon_mg: self.carbon_mg,
            served_per_rung: self.served_per_rung,
            mean_fidelity: if completed > 0 {
                self.fidelity_sum / completed as f64
            } else {
                0.0
            },
            span_s,
            energy_mj: self.reps.iter().map(|s| s.energy_mj).sum(),
            mean_in_system: if span_s > 0.0 {
                self.area_req_s / span_s
            } else {
                0.0
            },
            max_queue_len: self.max_queue_len,
            latencies_ms: Samples::from_unsorted(self.latencies_ms),
            replicas,
            events: self.event_log,
        }
    }
}

/// One rate point of a [`QpsScan`].
#[derive(Debug, Clone, PartialEq)]
pub struct QpsProbe {
    /// Offered Poisson rate, requests per second.
    pub rate_hz: f64,
    /// Tail latency at this rate, milliseconds.
    pub p99_ms: f64,
    /// Within-SLO completions per second.
    pub goodput_qps: f64,
    /// Fraction of offered requests shed by admission control.
    pub shed_rate: f64,
    /// Requests completed.
    pub completed: usize,
    /// Requests lost to dead replicas.
    pub failed: usize,
    /// Whether the fleet sustains this rate under the SLO.
    pub sustainable: bool,
}

impl QpsProbe {
    /// Summarizes one serve run at `rate_hz`. "Sustainable" means: some
    /// requests completed, p99 within the SLO, at most 1 % shed, and
    /// nothing lost.
    pub(crate) fn from_report(rate_hz: f64, report: &ServeReport) -> QpsProbe {
        let p99_ms = report.p99_ms();
        QpsProbe {
            rate_hz,
            p99_ms,
            goodput_qps: report.goodput_qps(),
            shed_rate: report.shed_rate(),
            completed: report.completed,
            failed: report.failed,
            sustainable: report.completed > 0
                && p99_ms <= report.slo_ms
                && report.shed_rate() <= 0.01
                && report.failed == 0,
        }
    }
}

/// Result of probing a fleet across offered rates
/// ([`Fleet::qps_scan`](super::Fleet::qps_scan)).
#[derive(Debug, Clone, PartialEq)]
pub struct QpsScan {
    /// One probe per requested rate, in input order.
    pub probes: Vec<QpsProbe>,
}

impl QpsScan {
    /// The largest probed rate the fleet sustains under the SLO.
    pub fn max_sustainable_qps(&self) -> Option<f64> {
        self.probes
            .iter()
            .filter(|p| p.sustainable)
            .map(|p| p.rate_hz)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Renders the scan as a [`Report`] table.
    pub fn to_report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(
            title,
            [
                "rate_hz",
                "p99_ms",
                "goodput_qps",
                "shed_rate",
                "failed",
                "sustainable",
            ],
        );
        for p in &self.probes {
            r.push_row([
                format!("{:.2}", p.rate_hz),
                format!("{:.3}", p.p99_ms),
                format!("{:.3}", p.goodput_qps),
                format!("{:.4}", p.shed_rate),
                p.failed.to_string(),
                if p.sustainable { "yes" } else { "NO" }.to_string(),
            ]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        AutoscaleConfig, CarbonProfile, EngineKind, Fleet, ReplicaSpec, ServeConfig, Traffic,
    };
    use edgebench_devices::Device;
    use edgebench_frameworks::Framework;
    use edgebench_models::Model;

    fn nano_fleet(count: usize) -> Fleet {
        Fleet::homogeneous(
            ReplicaSpec {
                model: Model::MobileNetV2,
                framework: Framework::TensorRt,
                device: Device::JetsonNano,
            },
            count,
        )
        .unwrap()
    }

    #[test]
    fn underload_completes_everything_within_slo() {
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(100.0);
        let rep = fleet.serve(&Traffic::poisson(20.0, 1), 2000, &cfg).unwrap();
        assert_eq!(rep.offered, 2000);
        assert_eq!(rep.completed, 2000);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.failed, 0);
        assert!(rep.p99_ms() <= cfg.slo_ms, "p99 {}", rep.p99_ms());
        assert!(rep.goodput_qps() > 15.0, "goodput {}", rep.goodput_qps());
    }

    #[test]
    fn request_conservation_holds() {
        let fleet = nano_fleet(2);
        // Stress it: overload plus random deaths, admission on.
        let cfg = ServeConfig::new(50.0).with_replica_dropout(0.01);
        let rep = fleet
            .serve(&Traffic::poisson(400.0, 3), 4000, &cfg)
            .unwrap();
        assert_eq!(rep.offered, rep.completed + rep.shed + rep.failed);
    }

    #[test]
    fn batches_actually_form_under_load() {
        let fleet = nano_fleet(1);
        let cfg = ServeConfig::new(200.0)
            .with_batch_max(8)
            .with_admission(false);
        let rep = fleet
            .serve(&Traffic::poisson(150.0, 5), 3000, &cfg)
            .unwrap();
        let r = &rep.replicas[0];
        assert!(r.batches > 0);
        let mean_batch = r.completed as f64 / r.batches as f64;
        assert!(mean_batch > 1.5, "mean batch {mean_batch}");
    }

    #[test]
    fn batch_one_never_batches() {
        let fleet = nano_fleet(1);
        let cfg = ServeConfig::new(200.0)
            .with_batch_max(1)
            .with_admission(false);
        let rep = fleet.serve(&Traffic::poisson(50.0, 5), 1000, &cfg).unwrap();
        let r = &rep.replicas[0];
        assert_eq!(r.completed as u64, r.batches);
    }

    #[test]
    fn scripted_kill_reroutes_to_survivors() {
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(400.0)
            .with_admission(false)
            .with_kill_replica(3, 0);
        let rep = fleet.serve(&Traffic::poisson(60.0, 2), 2000, &cfg).unwrap();
        assert_eq!(rep.failed, 0, "survivor must absorb the orphans");
        assert_eq!(rep.completed, 2000);
        assert!(rep.replicas[0].died);
        assert!(!rep.replicas[0].alive);
        assert!(rep.replicas[1].alive);
        assert!(rep.replicas[1].completed > rep.replicas[0].completed);
    }

    #[test]
    fn whole_fleet_dead_fails_requests() {
        let fleet = nano_fleet(1);
        let cfg = ServeConfig::new(400.0)
            .with_admission(false)
            .with_kill_replica(0, 0);
        let rep = fleet.serve(&Traffic::poisson(60.0, 2), 100, &cfg).unwrap();
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.failed, 100);
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let fleet = Fleet::new([
            ReplicaSpec::best_for(Model::MobileNetV2, Device::RaspberryPi3).unwrap(),
            ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano).unwrap(),
        ])
        .unwrap();
        let cfg = ServeConfig::new(100.0).with_replica_dropout(0.002);
        let t = Traffic::from_flag("diurnal", 40.0, 9).unwrap();
        let a = fleet.serve(&t, 3000, &cfg).unwrap();
        let b = fleet.serve(&t, 3000, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn calendar_and_heap_engines_are_byte_identical() {
        let fleet = Fleet::new([
            ReplicaSpec::best_for(Model::MobileNetV2, Device::RaspberryPi3).unwrap(),
            ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano).unwrap(),
            ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonTx2).unwrap(),
        ])
        .unwrap();
        // Exercise hedging, retries, SDC, dropout and the ladder at once
        // so the event mix covers every dynamic event kind.
        let cfg = ServeConfig::new(80.0)
            .with_replica_dropout(0.003)
            .with_straggler(0.1, 4.0)
            .with_hedge_ms(2.0)
            .with_sdc(0.02)
            .with_ladder(true);
        let t = Traffic::from_flag("diurnal", 120.0, 17).unwrap();
        let cal = fleet
            .serve(&t, 5000, &cfg.with_engine(EngineKind::Calendar))
            .unwrap();
        let heap = fleet
            .serve(&t, 5000, &cfg.with_engine(EngineKind::BinaryHeap))
            .unwrap();
        assert_eq!(cal, heap);
        assert_eq!(cal.to_csv(), heap.to_csv());
        assert_eq!(cal.events_csv(), heap.events_csv());
    }

    #[test]
    fn autoscaler_activates_standbys_under_pressure_and_parks_them_after() {
        let fleet = nano_fleet(4);
        let auto = AutoscaleConfig::default();
        let cfg = ServeConfig::new(100.0)
            .with_admission(false)
            .with_autoscale(auto);
        // Diurnal swing: the trough fits one replica, the peak needs more.
        let t = Traffic::Diurnal {
            base_hz: 20.0,
            peak_hz: 400.0,
            period_s: 30.0,
            phase_s: 0.0,
            seed: 5,
        };
        let rep = fleet.serve(&t, 6000, &cfg).unwrap();
        assert!(rep.scale_ups > 0, "peak must trigger scale-ups: {rep:?}");
        assert!(rep.scale_downs > 0, "trough must park replicas");
        assert!(
            rep.replicas[1].completed > 0,
            "activated standby must serve"
        );
        assert_eq!(rep.offered, rep.completed + rep.shed + rep.failed);
        // The event log records the transitions.
        let csv = rep.events_csv();
        assert!(csv.contains("scale-up"), "{csv}");
        assert!(csv.contains("scale-down"), "{csv}");
    }

    #[test]
    fn autoscale_runs_replay_byte_identically_on_both_engines() {
        let fleet = nano_fleet(3);
        let cfg = ServeConfig::new(100.0).with_autoscale(AutoscaleConfig::default());
        let t = Traffic::Diurnal {
            base_hz: 20.0,
            peak_hz: 300.0,
            period_s: 20.0,
            phase_s: 0.0,
            seed: 7,
        };
        let cal = fleet
            .serve(&t, 3000, &cfg.with_engine(EngineKind::Calendar))
            .unwrap();
        let heap = fleet
            .serve(&t, 3000, &cfg.with_engine(EngineKind::BinaryHeap))
            .unwrap();
        assert_eq!(cal, heap);
        assert_eq!(cal.events_csv(), heap.events_csv());
    }

    #[test]
    fn carbon_accrues_only_with_a_profile_attached() {
        let plain = nano_fleet(2);
        let cfg = ServeConfig::new(100.0);
        let t = Traffic::poisson(40.0, 3);
        let rep = plain.serve(&t, 1000, &cfg).unwrap();
        assert_eq!(rep.carbon_mg, 0.0);
        let green = plain.clone().with_carbon_profile(CarbonProfile::flat(50.0));
        let dirty = plain
            .clone()
            .with_carbon_profile(CarbonProfile::flat(500.0));
        let g = green.serve(&t, 1000, &cfg).unwrap();
        let d = dirty.serve(&t, 1000, &cfg).unwrap();
        assert!(g.carbon_mg > 0.0);
        // Same energy, 10x the intensity -> 10x the carbon.
        assert!((d.carbon_mg / g.carbon_mg - 10.0).abs() < 1e-9);
        assert_eq!(g.energy_mj, d.energy_mj);
        assert!(d.carbon_per_request_mg() > 0.0);
    }

    #[test]
    fn qps_scan_is_identical_across_worker_counts() {
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(100.0);
        let rates: Vec<f64> = (1..=6).map(|i| 40.0 * i as f64).collect();
        let serial = fleet.qps_scan(&rates, 800, &cfg, 1).unwrap();
        for jobs in [2, 4] {
            let par = fleet.qps_scan(&rates, 800, &cfg, jobs).unwrap();
            assert_eq!(serial, par, "jobs={jobs}");
            assert_eq!(
                serial.to_report("scan").to_csv(),
                par.to_report("scan").to_csv(),
                "jobs={jobs}"
            );
        }
        assert!(serial.max_sustainable_qps().is_some());
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            assert!(
                fleet.qps_scan(&[40.0, bad], 800, &cfg, 1).is_err(),
                "rate {bad}"
            );
        }
    }

    #[test]
    fn resilience_off_runs_have_no_events_or_resilience_counts() {
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(100.0);
        let rep = fleet.serve(&Traffic::poisson(50.0, 4), 1000, &cfg).unwrap();
        assert!(rep.events.is_empty());
        assert_eq!(
            rep.hedges + rep.hedge_wins + rep.retries + rep.retry_shed,
            0
        );
        assert_eq!(rep.breaker_trips + rep.breaker_recoveries, 0);
        assert_eq!(rep.ladder_down + rep.ladder_up, 0);
        assert_eq!(rep.scale_ups + rep.scale_downs, 0);
        assert_eq!(rep.served_per_rung[0], rep.completed);
        assert!(rep.served_per_rung[1..].iter().all(|&n| n == 0));
        assert!(rep.replicas.iter().all(|r| r.rung == 0 && r.breaker == "-"));
    }

    #[test]
    fn hedged_requests_conserve_and_record_wins() {
        let fleet = nano_fleet(3);
        let cfg = ServeConfig::new(100.0)
            .with_straggler(0.2, 6.0)
            .with_hedge_ms(1.0);
        let rep = fleet.serve(&Traffic::poisson(60.0, 8), 3000, &cfg).unwrap();
        assert_eq!(rep.offered, rep.completed + rep.shed + rep.failed);
        assert!(rep.hedges > 0, "stragglers must trigger hedges");
        assert!(rep.hedge_wins > 0, "some hedges must win");
        assert!(rep.hedge_wins <= rep.hedges);
        assert!(!rep.events.is_empty());
    }

    #[test]
    fn guarded_sdc_retries_once_then_fails_typed() {
        let fleet = nano_fleet(1);
        // Every batch corrupted: the first attempt is detected and
        // re-dispatched free, the retry is corrupted again → typed fail.
        let cfg = ServeConfig::new(200.0).with_admission(false).with_sdc(1.0);
        let rep = fleet.serve(&Traffic::poisson(20.0, 2), 100, &cfg).unwrap();
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.corrupted_failed, 100);
        assert_eq!(rep.corrupted_served, 0);
        assert_eq!(rep.sdc_retries, 100);
        assert!(rep.sdc_detected >= 200, "both attempts detected");
        assert_eq!(
            rep.offered,
            rep.completed + rep.shed + rep.failed + rep.retry_shed + rep.corrupted_failed
        );
    }

    #[test]
    fn unguarded_sdc_serves_wrong_answers_silently() {
        let fleet = nano_fleet(1);
        let cfg = ServeConfig::new(200.0)
            .with_admission(false)
            .with_sdc(1.0)
            .with_sdc_guards(false);
        let rep = fleet.serve(&Traffic::poisson(20.0, 2), 100, &cfg).unwrap();
        // Everything completes — the corruption is invisible to the
        // serving plane and only the count betrays it.
        assert_eq!(rep.completed, 100);
        assert_eq!(rep.corrupted_served, 100);
        assert_eq!(rep.sdc_detected, 0);
        assert_eq!(rep.corrupted_failed, 0);
    }

    #[test]
    fn guarded_sdc_feeds_the_breaker() {
        use super::super::resilience::BreakerConfig;
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(200.0)
            .with_admission(false)
            .with_sdc(0.9)
            .with_breaker(BreakerConfig::default());
        let rep = fleet.serve(&Traffic::poisson(40.0, 2), 500, &cfg).unwrap();
        assert!(
            rep.breaker_trips > 0,
            "detected corruption must trip breakers: {rep:?}"
        );
        assert!(rep.sdc_detected > 0);
    }

    #[test]
    fn sdc_runs_replay_byte_identically() {
        let fleet = nano_fleet(2);
        let cfg = ServeConfig::new(100.0).with_sdc(0.05);
        let t = Traffic::poisson(40.0, 11);
        let a = fleet.serve(&t, 2000, &cfg).unwrap();
        let b = fleet.serve(&t, 2000, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_csv().contains("sdc_detected,"));
    }

    #[test]
    fn lost_batches_without_retry_count_as_failed() {
        let fleet = nano_fleet(1);
        let cfg = ServeConfig::new(200.0).with_admission(false).with_loss(1.0);
        let rep = fleet.serve(&Traffic::poisson(20.0, 2), 200, &cfg).unwrap();
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.failed, 200);
        assert_eq!(rep.retries, 0);
    }
}
