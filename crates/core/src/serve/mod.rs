//! `edgebench-serve`: a deterministic discrete-event simulator of a
//! heterogeneous edge fleet serving open-loop inference traffic.
//!
//! The paper (and [`crate::workload`]) characterizes one device against one
//! arrival process; a deployed system is a *fleet* — replicas of
//! model × framework × device deployments behind a router, with queues,
//! dynamic batching, SLOs and load shedding. This module turns the
//! calibrated deployment/thermal/fault models into throughput–latency–
//! energy curves under sustained load:
//!
//! * [`traffic`] — open-loop traffic: steady [`crate::workload::Arrivals`]
//!   plus diurnal (phase-shiftable) and bursty non-homogeneous Poisson
//!   traces.
//! * [`engine`] — the event queue: the calendar queue every run uses
//!   (bucketed time wheel + overflow heap, zero-allocation steady state)
//!   and the `BinaryHeap` reference it is proven byte-identical against.
//! * [`sim`] — the event loop: per-replica dynamic batching (max batch
//!   size + max queue delay), SLO-aware routing (round-robin,
//!   join-shortest-queue, least-expected-latency), admission control,
//!   autoscaling, carbon accounting, thermal coupling and seeded
//!   replica-death faults.
//! * [`geo`] — the planet-scale tier: multiple edge regions with
//!   phase-shifted diurnal traffic, WAN spillover replicas, a cloud
//!   offload tier (via `offload::best_split`) and per-region grid
//!   carbon intensity, simulated in parallel with per-region derived
//!   seeds (byte-identical at any worker count).
//! * [`report`] — [`ServeReport`]: p50/p95/p99 latency, goodput, shed
//!   rate and energy per request, with byte-stable CSV rendering.
//! * [`resilience`] — request-level resilience: hedged requests, retry
//!   budgets, per-replica circuit breakers and the graceful-degradation
//!   precision ladder (fp32 → fp16 → int8), driven by the seeded
//!   straggler/loss model in `devices::faults::service`.
//!
//! Everything is a pure function of the configuration (including the
//! seed), so identical inputs replay byte-identical reports at any
//! `--jobs` worker count — the same discipline as `devices::faults`.

pub mod engine;
pub mod geo;
pub mod report;
pub mod resilience;
pub mod sim;
pub mod traffic;

pub use geo::GeoConfig;
pub use report::ServeReport;
pub(crate) use resilience::ResilienceConfig;
pub use resilience::{
    BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, RetryBudgetConfig, SdcConfig,
};
pub use sim::QpsProbe;
pub(crate) use sim::QpsScan;
pub use traffic::{TraceFile, TracePoint, Traffic};

use crate::parallel;
use crate::workload::WorkloadError;
use edgebench_devices::faults::{stream_seed, ServiceFaults};
use edgebench_devices::Device;
use edgebench_frameworks::deploy::{compile, CompiledModel, DeployError};
use edgebench_frameworks::ladder::{cheaper_dtypes, fidelity_proxy};
use edgebench_frameworks::Framework;
use edgebench_models::Model;
use engine::{CalendarQueue, EventQueue};
use std::error::Error;
use std::fmt;

/// Largest batch size the per-replica service tables cover; configs may
/// ask for any [`ServeConfig::batch_max`] up to this cap.
pub(crate) const MAX_BATCH: usize = 32;

/// The one milliseconds→nanoseconds conversion for the whole serve stack.
///
/// Every config knob is in fractional milliseconds while the event loop
/// runs on an integer nanosecond clock; ad-hoc `(ms * 1e6) as u64` casts
/// truncate (249.999999… ms becomes 249_999_999 ns) and turn NaN or
/// negative inputs into an unspecified value. This helper rounds to the
/// nearest nanosecond, maps NaN and negative durations to zero, and
/// saturates at `u64::MAX` — so every call site agrees on the same clock
/// arithmetic.
pub(crate) fn ms_to_ns(ms: f64) -> u64 {
    to_ns(ms, 1e6)
}

/// Seconds→nanoseconds companion of [`ms_to_ns`], with the same rounding
/// and saturation contract. Arrival traces are generated in fractional
/// seconds; converting them with a bare `(t * 1e9) as u64` cast inherits
/// every edge case `ms_to_ns` exists to fix.
pub(crate) fn s_to_ns(s: f64) -> u64 {
    to_ns(s, 1e9)
}

/// Shared conversion core: scales, rounds to the nearest nanosecond, maps
/// NaN and non-positive durations to zero, and saturates at `u64::MAX`.
fn to_ns(value: f64, scale: f64) -> u64 {
    let ns = value * scale;
    if ns.is_nan() || ns <= 0.0 {
        return 0;
    }
    if ns >= u64::MAX as f64 {
        return u64::MAX;
    }
    ns.round() as u64
}

/// One serving replica: a model deployed through a framework onto a
/// device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSpec {
    /// Model served.
    pub model: Model,
    /// Framework used.
    pub framework: Framework,
    /// Device hosting the replica.
    pub device: Device,
}

impl ReplicaSpec {
    /// Stable report label, e.g. `jetson-nano/tensorrt`.
    pub(crate) fn label(&self) -> String {
        format!("{}/{}", self.device.name(), self.framework.name())
    }

    /// The replica running `model` on `device` through its
    /// lowest-latency feasible framework, or `None` when nothing deploys.
    pub fn best_for(model: Model, device: Device) -> Option<ReplicaSpec> {
        let (framework, _) = edgebench_frameworks::deploy::best_framework(model, device)?;
        Some(ReplicaSpec {
            model,
            framework,
            device,
        })
    }
}

/// How the router picks a replica for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through alive replicas regardless of their state.
    RoundRobin,
    /// Fewest requests queued or in flight (ties break to the lowest
    /// replica index).
    JoinShortestQueue,
    /// Smallest *predicted* completion latency, using each replica's own
    /// batch service table — the heterogeneity-aware policy.
    LeastExpectedLatency,
}

impl RoutePolicy {
    /// Stable report/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::JoinShortestQueue => "join-shortest-queue",
            RoutePolicy::LeastExpectedLatency => "least-expected-latency",
        }
    }

    /// Parses a policy from its [`RoutePolicy::name`] (or the short
    /// aliases `rr`, `jsq`, `lel`).
    pub fn from_name(name: &str) -> Option<RoutePolicy> {
        match name {
            "round-robin" | "rr" => Some(RoutePolicy::RoundRobin),
            "join-shortest-queue" | "jsq" => Some(RoutePolicy::JoinShortestQueue),
            "least-expected-latency" | "lel" => Some(RoutePolicy::LeastExpectedLatency),
            _ => None,
        }
    }
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Autoscaling policy: a periodic evaluation tick compares the best
/// routable replica's *predicted sojourn* (the same signal admission
/// control and least-expected-latency routing use) against fractions of
/// the SLO. Sustained pressure activates the next standby replica after
/// a warm-up delay; sustained slack parks the highest-indexed idle
/// replica, never dropping below `min_replicas`. Parked replicas keep
/// their precomputed tables (warm standbys) but receive no traffic and
/// draw no energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Replicas that always stay active (the scale-down floor; clamped
    /// to at least 1).
    pub min_replicas: usize,
    /// Evaluation period, milliseconds.
    pub eval_ms: f64,
    /// Activation delay for a scaled-up replica (model load + first
    /// inference warm-up), milliseconds.
    pub warmup_ms: f64,
    /// Scale up when the predicted sojourn exceeds this fraction of the
    /// SLO.
    pub up_frac: f64,
    /// Scale down when the predicted sojourn is below this fraction of
    /// the SLO.
    pub down_frac: f64,
}

impl Default for AutoscaleConfig {
    /// One always-on replica, 250 ms evaluation, 500 ms warm-up, scale
    /// up above 80 % of the SLO, down below 20 %.
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            min_replicas: 1,
            eval_ms: 250.0,
            warmup_ms: 500.0,
            up_frac: 0.8,
            down_frac: 0.2,
        }
    }
}

/// Grid carbon intensity at a replica's location: an hourly
/// grams-CO₂-per-kWh table over a (simulated) day, so carbon per request
/// varies with *when* the energy was drawn, not just how much. The
/// simulated day defaults to 86 400 s but can be compressed so short
/// runs still sweep the full diurnal intensity swing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonProfile {
    /// Grid intensity by local hour of day, gCO₂/kWh.
    pub hourly_g_per_kwh: [f64; 24],
    /// Length of the simulated day, seconds (86 400 for wall-clock days;
    /// compress it to sweep the table faster in short runs).
    pub day_s: f64,
    /// Local-time offset of the region, hours (shifts which table entry
    /// simulation time 0 lands on).
    pub phase_h: f64,
}

impl CarbonProfile {
    /// A flat profile: the same intensity all day.
    pub(crate) fn flat(g_per_kwh: f64) -> CarbonProfile {
        CarbonProfile {
            hourly_g_per_kwh: [g_per_kwh; 24],
            day_s: 86_400.0,
            phase_h: 0.0,
        }
    }

    /// Returns the profile with the given local-time phase, hours.
    pub(crate) fn with_phase_h(mut self, phase_h: f64) -> CarbonProfile {
        self.phase_h = phase_h;
        self
    }

    /// Grid intensity at simulation time `t_s` seconds, gCO₂/kWh.
    pub(crate) fn intensity_at(&self, t_s: f64) -> f64 {
        let day = if self.day_s > 0.0 {
            self.day_s
        } else {
            86_400.0
        };
        let frac = (t_s / day + self.phase_h / 24.0).rem_euclid(1.0);
        self.hourly_g_per_kwh[((frac * 24.0) as usize).min(23)]
    }

    /// Mean intensity over the day, gCO₂/kWh.
    pub(crate) fn mean_g_per_kwh(&self) -> f64 {
        self.hourly_g_per_kwh.iter().sum::<f64>() / 24.0
    }
}

/// Serving-run configuration: SLO, batching policy, routing, admission
/// control, thermal/fault coupling and the seed every random decision
/// derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Per-request latency objective, milliseconds (p99 target).
    pub slo_ms: f64,
    /// Dynamic batching: largest batch a replica fires (1 = batching
    /// off). Capped at `MAX_BATCH` and at each replica's largest
    /// feasible batch.
    pub batch_max: usize,
    /// Dynamic batching: longest a queued request may wait for its batch
    /// to fill before a partial batch fires, milliseconds.
    pub batch_delay_ms: f64,
    /// Routing policy across replicas.
    pub policy: RoutePolicy,
    /// Admission control: shed a request at arrival when its predicted
    /// sojourn on the chosen replica already exceeds the SLO.
    pub admission: bool,
    /// Couple each replica to its device's `ThermalSim`: sustained load
    /// throttles clocks mid-run; crossing the shutdown limit kills the
    /// replica (HPC devices have no thermal model and never throttle).
    pub thermal: bool,
    /// Dissipation multiplier for the thermal coupling (models a hot
    /// enclosure or high ambient; 1.0 = the calibrated sustained power).
    pub power_scale: f64,
    /// Per-batch probability that the firing replica dies permanently
    /// (seeded, order-independent draw per `(replica, batch index)`).
    pub replica_dropout: f64,
    /// Scripted deterministic kill: `(batch index, replica)` — the
    /// replica dies when it starts its Nth batch. For tests.
    pub kill_replica: Option<(u64, usize)>,
    /// Request-level resilience policies (hedging, retry budget, circuit
    /// breakers, degradation ladder) and the straggler/loss fault model.
    /// Default: everything off.
    pub resilience: ResilienceConfig,
    /// Predicted-sojourn autoscaling across the fleet's replicas.
    /// Default: off (every replica always active).
    pub autoscale: Option<AutoscaleConfig>,
    /// Base seed for traffic and fault streams.
    pub seed: u64,
}

impl ServeConfig {
    /// A sensible default configuration under the given SLO: batching on
    /// (max 8, 2 ms flush), least-expected-latency routing, admission
    /// control on, no thermal or fault coupling, seed 42.
    pub fn new(slo_ms: f64) -> ServeConfig {
        ServeConfig {
            slo_ms,
            batch_max: 8,
            batch_delay_ms: 2.0,
            policy: RoutePolicy::LeastExpectedLatency,
            admission: true,
            thermal: false,
            power_scale: 1.0,
            replica_dropout: 0.0,
            kill_replica: None,
            resilience: ResilienceConfig::default(),
            autoscale: None,
            seed: 42,
        }
    }

    /// Returns the config with predicted-sojourn autoscaling enabled.
    pub fn with_autoscale(mut self, auto: AutoscaleConfig) -> ServeConfig {
        self.autoscale = Some(auto);
        self
    }

    /// Returns the config with the given maximum batch size.
    pub fn with_batch_max(mut self, batch_max: usize) -> ServeConfig {
        self.batch_max = batch_max;
        self
    }

    /// Returns the config with the given routing policy.
    pub fn with_policy(mut self, policy: RoutePolicy) -> ServeConfig {
        self.policy = policy;
        self
    }

    /// Returns the config with admission control switched on or off.
    pub fn with_admission(mut self, on: bool) -> ServeConfig {
        self.admission = on;
        self
    }

    /// Returns the config with thermal coupling switched on or off.
    pub fn with_thermal(mut self, on: bool) -> ServeConfig {
        self.thermal = on;
        self
    }

    /// Returns the config with the given thermal power multiplier.
    pub fn with_power_scale(mut self, scale: f64) -> ServeConfig {
        self.power_scale = scale;
        self
    }

    /// Returns the config with the given per-batch replica-death rate.
    pub fn with_replica_dropout(mut self, p: f64) -> ServeConfig {
        self.replica_dropout = p;
        self
    }

    /// Returns the config with a scripted `(batch index, replica)` kill.
    pub fn with_kill_replica(mut self, batch: u64, replica: usize) -> ServeConfig {
        self.kill_replica = Some((batch, replica));
        self
    }

    /// Returns the config with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> ServeConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with hedged requests enabled: a duplicate
    /// dispatch fires once a request has waited its replica's predicted
    /// sojourn plus `slack_ms` without completing.
    pub fn with_hedge_ms(mut self, slack_ms: f64) -> ServeConfig {
        self.resilience.hedge_ms = Some(slack_ms);
        self
    }

    /// Returns the config with a token-bucket retry budget for lost
    /// requests.
    pub fn with_retry_budget(mut self, budget: RetryBudgetConfig) -> ServeConfig {
        self.resilience.retry = Some(budget);
        self
    }

    /// Returns the config with per-replica circuit breakers.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> ServeConfig {
        self.resilience.breaker = Some(breaker);
        self
    }

    /// Returns the config with the graceful-degradation precision ladder
    /// switched on or off.
    pub fn with_ladder(mut self, on: bool) -> ServeConfig {
        self.resilience.ladder = on;
        self
    }

    /// Returns the config with the given straggler/loss fault model.
    pub fn with_service_faults(mut self, faults: ServiceFaults) -> ServeConfig {
        self.resilience.faults = faults;
        self
    }

    /// Returns the config with the given per-batch straggler probability
    /// and inflation factor.
    pub fn with_straggler(mut self, p: f64, factor: f64) -> ServeConfig {
        self.resilience.faults = self.resilience.faults.with_straggler(p, factor);
        self
    }

    /// Returns the config with the given per-batch request-loss
    /// probability.
    pub fn with_loss(mut self, p: f64) -> ServeConfig {
        self.resilience.faults = self.resilience.faults.with_loss(p);
        self
    }

    /// Returns the config with the given per-batch silent-data-corruption
    /// probability (seeded, order-independent draw per
    /// `(replica, batch index)`).
    pub fn with_sdc(mut self, p: f64) -> ServeConfig {
        self.resilience.sdc.corruption = p;
        self
    }

    /// Returns the config with the replica-side integrity guards switched
    /// on or off. Guards on (the default): a corrupted batch is detected,
    /// counts as a breaker error, and each affected request gets one free
    /// re-dispatch. Guards off: corrupted results are served silently.
    pub fn with_sdc_guards(mut self, on: bool) -> ServeConfig {
        self.resilience.sdc.guards = on;
        self
    }
}

/// Error produced when building a [`Fleet`] or running a serve
/// simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The fleet has no replicas.
    EmptyFleet,
    /// A replica list this long does not fit in memory.
    TooManyReplicas {
        /// The replica count asked for (at least this many).
        count: usize,
    },
    /// A replica's batch-1 deployment is infeasible.
    Deploy {
        /// Index of the failing replica.
        replica: usize,
        /// Its label (`device/framework`).
        label: String,
        /// The underlying deployment error.
        source: DeployError,
    },
    /// The traffic configuration is invalid.
    Workload(WorkloadError),
    /// No framework can deploy the model on the device (geo tier
    /// region or cloud placement).
    NoDeployment {
        /// The model that cannot be placed.
        model: Model,
        /// The device nothing deploys onto.
        device: Device,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyFleet => write!(f, "fleet has no replicas"),
            ServeError::TooManyReplicas { count } => {
                write!(f, "cannot allocate a list of {count} replicas")
            }
            ServeError::Deploy {
                replica,
                label,
                source,
            } => {
                write!(f, "replica {replica} ({label}) cannot deploy: {source}")
            }
            ServeError::Workload(e) => write!(f, "traffic: {e}"),
            ServeError::NoDeployment { model, device } => {
                write!(
                    f,
                    "no framework deploys {} on {}",
                    model.name(),
                    device.name()
                )
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Deploy { source, .. } => Some(source),
            ServeError::Workload(e) => Some(e),
            ServeError::EmptyFleet
            | ServeError::TooManyReplicas { .. }
            | ServeError::NoDeployment { .. } => None,
        }
    }
}

impl From<WorkloadError> for ServeError {
    fn from(e: WorkloadError) -> Self {
        ServeError::Workload(e)
    }
}

/// One rung of a replica's degradation ladder: the batch service table
/// the replica uses while serving at this precision.
#[derive(Debug, Clone)]
pub(crate) struct RungModel {
    /// Stable precision name (`fp32` / `fp16` / `int8`-style, from
    /// `DType::name`).
    pub dtype: &'static str,
    /// Accuracy proxy served at this rung, in `[0, 1]`.
    pub fidelity: f64,
    /// `svc_ns[b-1]` = batch-total service time at batch size `b`, ns.
    pub svc_ns: Vec<u64>,
    /// `energy_mj[b-1]` = batch-total active energy at batch size `b`.
    pub energy_mj: Vec<f64>,
    /// Sustained dissipation while serving a batch, watts (RPi-calibrated
    /// like the sweep's fault loop).
    pub active_power_w: Vec<f64>,
}

impl RungModel {
    /// Builds the batch table for one deployment variant, capping at the
    /// first infeasible batch size. `None` when even batch 1 fails.
    fn build(compiled: &CompiledModel, device: Device) -> Option<RungModel> {
        let mut svc_ns = Vec::new();
        let mut energy_mj = Vec::new();
        let mut active_power_w = Vec::new();
        for b in 1..=MAX_BATCH {
            let c = compiled.clone().with_batch(b);
            let (Ok(lat_ms), Ok(e_mj)) = (c.latency_ms(), c.energy_mj()) else {
                break; // larger batches are infeasible (OOM); cap here
            };
            svc_ns.push(ms_to_ns(lat_ms).max(1));
            // mJ / ms = W, then the sustained-loop calibration (RPi draws
            // beyond its single-inference average under back-to-back load).
            active_power_w.push(crate::sweep::sustained_power_w(device, e_mj / lat_ms));
            energy_mj.push(e_mj);
        }
        if svc_ns.is_empty() {
            return None;
        }
        let dtype = compiled.graph().dtype();
        Some(RungModel {
            dtype: dtype.name(),
            fidelity: fidelity_proxy(dtype),
            svc_ns,
            energy_mj,
            active_power_w,
        })
    }

    fn truncate(&mut self, len: usize) {
        self.svc_ns.truncate(len);
        self.energy_mj.truncate(len);
        self.active_power_w.truncate(len);
    }
}

/// Per-replica deployment economics, precomputed once per fleet: the
/// batch-total service time and energy at every batch size the
/// deployment supports (from the same batch model as [`crate::sweep`]),
/// at every precision rung of the degradation ladder. Rung 0 is the
/// framework's native precision; deeper rungs are strictly cheaper
/// re-lowerings (kept only when elementwise faster, and truncated so all
/// rungs cover the same batch range).
#[derive(Debug, Clone)]
pub(crate) struct ReplicaModel {
    /// The replica's static description.
    pub spec: ReplicaSpec,
    /// The degradation ladder; `rungs[0]` always exists.
    pub rungs: Vec<RungModel>,
}

impl ReplicaModel {
    fn build(index: usize, spec: ReplicaSpec) -> Result<ReplicaModel, ServeError> {
        let deploy_err = |source| ServeError::Deploy {
            replica: index,
            label: spec.label(),
            source,
        };
        let compiled = compile(spec.framework, spec.model, spec.device).map_err(deploy_err)?;
        let Some(native) = RungModel::build(&compiled, spec.device) else {
            // Even batch 1 is infeasible: surface the deployment error.
            let c1 = compiled.with_batch(1);
            let source = c1
                .latency_ms()
                .and_then(|_| c1.energy_mj())
                .expect_err("batch-1 deployment failed above");
            return Err(deploy_err(source));
        };
        let len = native.svc_ns.len();
        let mut rungs = vec![native];
        for &dtype in cheaper_dtypes(compiled.graph().dtype()) {
            let variant = compiled.clone().with_precision(dtype);
            let Some(mut rung) = RungModel::build(&variant, spec.device) else {
                continue; // no execution path at this precision
            };
            rung.truncate(len);
            let prev = rungs.last().expect("rung 0 present");
            let strictly_cheaper = rung.svc_ns.len() == len
                && rung
                    .svc_ns
                    .iter()
                    .zip(&prev.svc_ns)
                    .all(|(new, old)| new < old);
            if strictly_cheaper {
                rungs.push(rung);
            }
        }
        Ok(ReplicaModel { spec, rungs })
    }

    /// The native-precision batch service table.
    pub(crate) fn native(&self) -> &RungModel {
        &self.rungs[0]
    }

    /// Largest feasible batch size for this replica (identical at every
    /// rung by construction).
    pub(crate) fn max_batch(&self) -> usize {
        self.native().svc_ns.len()
    }
}

/// A built fleet: replica specs plus their precomputed batch service
/// tables. Build once, then run any number of [`Fleet::serve`] /
/// [`Fleet::qps_scan`] simulations against it.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub(crate) replicas: Vec<ReplicaModel>,
    /// Per-replica grid carbon intensity (`None` = no carbon
    /// accounting for that replica), parallel to `replicas`.
    pub(crate) carbon: Vec<Option<CarbonProfile>>,
}

impl Fleet {
    /// Builds a fleet from replica specs, precomputing each replica's
    /// batch latency/energy table (batch sizes 1..=`MAX_BATCH`, capped
    /// at the largest feasible batch).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyFleet`] for an empty spec list;
    /// [`ServeError::TooManyReplicas`] when the list does not fit in memory;
    /// [`ServeError::Deploy`] when a replica cannot deploy at batch 1.
    pub fn new(specs: impl IntoIterator<Item = ReplicaSpec>) -> Result<Fleet, ServeError> {
        let mut rest = specs.into_iter();
        let mut specs: Vec<ReplicaSpec> = Vec::new();
        while let Some(spec) = rest.next() {
            // Reserve what the iterator says is left, fallibly: a replica
            // count from the command line can ask for terabytes.
            if specs.len() == specs.capacity() {
                let count = (specs.len() + 1).saturating_add(rest.size_hint().0);
                specs
                    .try_reserve(count - specs.len())
                    .map_err(|_| ServeError::TooManyReplicas { count })?;
            }
            specs.push(spec);
        }
        if specs.is_empty() {
            return Err(ServeError::EmptyFleet);
        }
        let replicas = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| ReplicaModel::build(i, s))
            .collect::<Result<Vec<_>, _>>()?;
        let carbon = vec![None; replicas.len()];
        Ok(Fleet { replicas, carbon })
    }

    /// Returns the fleet with every replica on the given grid carbon
    /// profile (a single-region fleet).
    #[cfg(test)]
    pub(crate) fn with_carbon_profile(mut self, profile: CarbonProfile) -> Fleet {
        self.carbon = vec![Some(profile); self.replicas.len()];
        self
    }

    /// Attaches a grid carbon profile to one replica (heterogeneous
    /// placements — e.g. WAN-imported replicas on a *different* grid).
    ///
    /// # Panics
    ///
    /// Panics when `replica` is out of range.
    pub(crate) fn set_carbon_profile(&mut self, replica: usize, profile: CarbonProfile) {
        self.carbon[replica] = Some(profile);
    }

    /// A homogeneous fleet: `count` identical replicas.
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::new`] (`count == 0` is [`ServeError::EmptyFleet`]).
    pub fn homogeneous(spec: ReplicaSpec, count: usize) -> Result<Fleet, ServeError> {
        Fleet::new(std::iter::repeat_n(spec, count))
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet is empty (never true for a built fleet).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replica `replica`'s degradation ladder: one
    /// `(precision, fidelity, batch service table in ns)` triple per
    /// rung, native precision first. Rungs are strictly cheaper than
    /// their predecessor at every batch size by construction.
    ///
    /// # Panics
    ///
    /// Panics when `replica` is out of range.
    pub fn ladder_of(&self, replica: usize) -> Vec<(&'static str, f64, Vec<u64>)> {
        self.replicas[replica]
            .rungs
            .iter()
            .map(|r| (r.dtype, r.fidelity, r.svc_ns.clone()))
            .collect()
    }

    /// Serves `n` requests of `traffic` through the fleet under `cfg`,
    /// returning the full report. Deterministic: a pure function of
    /// `(fleet, traffic, n, cfg)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Workload`] when the traffic configuration is
    /// invalid (non-positive rate, zero requests).
    pub fn serve(
        &self,
        traffic: &Traffic,
        n: usize,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        if n == 0 {
            return Err(ServeError::Workload(WorkloadError::NoRequests));
        }
        let arrivals = traffic.timestamps(n)?;
        Ok(sim::run_owned(self, arrivals, cfg))
    }

    /// Serves a pre-materialized arrival trace (seconds, non-decreasing)
    /// through the fleet — the entry point the runtime's sim-vs-real
    /// validation uses so both sides consume byte-identical
    /// [`TraceFile`] arrivals.
    ///
    /// # Errors
    ///
    /// [`ServeError::Workload`] when the trace is empty.
    pub fn serve_arrivals(
        &self,
        arrive_s: &[f64],
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        self.serve_arrivals_on::<CalendarQueue>(arrive_s, cfg)
    }

    /// [`Fleet::serve_arrivals`] on the event queue `Q`. Every other
    /// entry point runs the [`CalendarQueue`]; the engine tests and
    /// benches pass [`engine::HeapQueue`], the reference it must match
    /// byte for byte.
    ///
    /// # Errors
    ///
    /// [`ServeError::Workload`] when the trace is empty.
    pub fn serve_arrivals_on<Q: EventQueue>(
        &self,
        arrive_s: &[f64],
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        if arrive_s.is_empty() {
            return Err(ServeError::Workload(WorkloadError::NoRequests));
        }
        Ok(sim::run::<Q>(self, arrive_s, cfg))
    }

    /// Probes each rate in `rates` with a Poisson trace of `n` requests
    /// and reports which are sustainable under the SLO (p99 within
    /// `cfg.slo_ms`, ≤ 1 % shed, no lost requests), fanning probes over
    /// `jobs` worker threads. Each probe derives its own seed from the
    /// rate, so results are byte-identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Workload`] when any rate is not strictly positive
    /// and finite, or `n` is zero.
    pub fn qps_scan(
        &self,
        rates: &[f64],
        n: usize,
        cfg: &ServeConfig,
        jobs: usize,
    ) -> Result<QpsScan, ServeError> {
        if n == 0 {
            return Err(ServeError::Workload(WorkloadError::NoRequests));
        }
        if let Some(&bad) = rates.iter().find(|r| !(**r > 0.0 && r.is_finite())) {
            return Err(ServeError::Workload(WorkloadError::NonPositiveRate {
                rate_hz: bad,
            }));
        }
        let probes = parallel::run_indexed(rates, jobs, |_, &rate_hz| {
            let traffic = Traffic::poisson(
                rate_hz,
                stream_seed(cfg.seed, &["qps-probe", &format!("{rate_hz:.6}")]),
            );
            let report = self
                .serve(&traffic, n, cfg)
                .expect("rates and n validated above");
            QpsProbe::from_report(rate_hz, &report)
        });
        Ok(QpsScan { probes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_request_and_replica_counts_are_typed_errors() {
        // No host holds usize::MAX / 8 arrival times or replica specs: each
        // count must come back as a typed error naming it, never abort.
        let huge = usize::MAX / 8;
        let spec = ReplicaSpec {
            model: Model::MobileNetV2,
            framework: Framework::TensorRt,
            device: Device::JetsonNano,
        };
        let fleet = Fleet::homogeneous(spec, 1).unwrap();
        let cfg = ServeConfig::new(100.0);
        for kind in ["poisson", "steady", "diurnal", "burst"] {
            let traffic = Traffic::from_flag(kind, 30.0, 1).unwrap();
            let err = fleet.serve(&traffic, huge, &cfg).unwrap_err();
            assert_eq!(
                err,
                ServeError::Workload(WorkloadError::TooManyRequests { count: huge }),
                "{kind}"
            );
        }
        let geo = geo::run_geo(&GeoConfig::new(100.0), &geo::default_regions(60.0), huge, 1);
        assert_eq!(
            geo.unwrap_err(),
            ServeError::Workload(WorkloadError::TooManyRequests { count: huge })
        );
        let err = Fleet::new(std::iter::repeat_n(spec, huge)).unwrap_err();
        assert_eq!(err, ServeError::TooManyReplicas { count: huge });
        // Several devices, as the CLI chains them: the first device's
        // replicas alone overflow.
        let chained = [spec, spec]
            .into_iter()
            .flat_map(|s| std::iter::repeat_n(s, huge));
        let err = Fleet::new(chained).unwrap_err();
        assert_eq!(err, ServeError::TooManyReplicas { count: huge });
    }

    #[test]
    fn ms_to_ns_rounds_to_nearest() {
        assert_eq!(ms_to_ns(1.0), 1_000_000);
        assert_eq!(ms_to_ns(0.5), 500_000);
        // The truncation bug this replaces: 249.9999999 ms is 249_999_999.9 ns
        // and must round *up* to 250 ms, not chop to 249_999_999.
        assert_eq!(ms_to_ns(249.999_999_9), 250_000_000);
        assert_eq!(ms_to_ns(0.000_000_4), 0);
        assert_eq!(ms_to_ns(0.000_000_6), 1);
    }

    #[test]
    fn ms_to_ns_rejects_nan_and_negatives() {
        assert_eq!(ms_to_ns(f64::NAN), 0);
        assert_eq!(ms_to_ns(-1.0), 0);
        assert_eq!(ms_to_ns(-0.0), 0);
        assert_eq!(ms_to_ns(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn ms_to_ns_saturates_at_the_clock_ceiling() {
        assert_eq!(ms_to_ns(f64::INFINITY), u64::MAX);
        assert_eq!(ms_to_ns(1e300), u64::MAX);
        // Just under the ceiling still converts normally.
        assert!(ms_to_ns(1e12) < u64::MAX);
    }

    #[test]
    fn s_to_ns_rounds_to_nearest() {
        assert_eq!(s_to_ns(1.0), 1_000_000_000);
        assert_eq!(s_to_ns(0.5), 500_000_000);
        // The truncation bug this replaces: the cast form chops
        // 0.2499999999 s to 249_999_999 ns instead of rounding up.
        assert_eq!(s_to_ns(0.249_999_999_9), 250_000_000);
        assert_eq!(s_to_ns(0.000_000_000_4), 0);
        assert_eq!(s_to_ns(0.000_000_000_6), 1);
    }

    #[test]
    fn s_to_ns_rejects_nan_and_negatives() {
        assert_eq!(s_to_ns(f64::NAN), 0);
        assert_eq!(s_to_ns(-1.0), 0);
        assert_eq!(s_to_ns(-0.0), 0);
        assert_eq!(s_to_ns(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn s_to_ns_saturates_at_the_clock_ceiling() {
        assert_eq!(s_to_ns(f64::INFINITY), u64::MAX);
        assert_eq!(s_to_ns(1e300), u64::MAX);
        // Just under the ceiling still converts normally.
        assert!(s_to_ns(1e9) < u64::MAX);
    }

    #[test]
    fn route_policy_names_round_trip() {
        for p in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::LeastExpectedLatency,
        ] {
            assert_eq!(RoutePolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(
            RoutePolicy::from_name("lel"),
            Some(RoutePolicy::LeastExpectedLatency)
        );
        assert_eq!(RoutePolicy::from_name("rr"), Some(RoutePolicy::RoundRobin));
        assert_eq!(
            RoutePolicy::from_name("jsq"),
            Some(RoutePolicy::JoinShortestQueue)
        );
        assert_eq!(RoutePolicy::from_name("random"), None);
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        assert_eq!(Fleet::new([]).unwrap_err(), ServeError::EmptyFleet);
    }

    #[test]
    fn infeasible_replica_is_a_typed_error() {
        // VGG16 through static-graph TensorFlow does not fit RPi RAM.
        let err = Fleet::new([ReplicaSpec {
            model: Model::Vgg16,
            framework: Framework::TensorFlow,
            device: Device::RaspberryPi3,
        }])
        .unwrap_err();
        assert!(
            matches!(err, ServeError::Deploy { replica: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("rpi3"), "{err}");
    }

    #[test]
    fn service_tables_amortize_or_cap() {
        let fleet = Fleet::new([ReplicaSpec {
            model: Model::MobileNetV2,
            framework: Framework::TensorRt,
            device: Device::JetsonNano,
        }])
        .unwrap();
        let r = &fleet.replicas[0];
        assert!(r.max_batch() >= 8);
        // Batch-total time grows with batch size, but per-inference time
        // shrinks (the sweep's amortization, viewed from the scheduler).
        let svc = &r.native().svc_ns;
        let per1 = svc[0];
        let per8 = svc[7] / 8;
        assert!(svc[7] > per1);
        assert!(per8 < per1, "batch 8: {per8} vs batch-1 {per1}");
        // The RPi3 runs out of memory beyond batch 4: the table caps there
        // instead of erroring.
        let rpi = Fleet::new([ReplicaSpec {
            model: Model::MobileNetV2,
            framework: Framework::TfLite,
            device: Device::RaspberryPi3,
        }])
        .unwrap();
        let cap = rpi.replicas[0].max_batch();
        assert!((4..8).contains(&cap), "rpi3 cap {cap}");
    }

    #[test]
    fn best_for_picks_a_feasible_framework() {
        let spec = ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano).unwrap();
        assert_eq!(spec.framework, Framework::TensorRt);
        assert!(ReplicaSpec::best_for(Model::C3d, Device::MovidiusNcs).is_none());
    }
}
