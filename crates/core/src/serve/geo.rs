//! The planet-scale tier: multiple edge regions, each a [`Fleet`] of
//! local replicas plus WAN-imported spillover replicas from its
//! neighbor, with phase-shifted diurnal traffic, a cloud offload tier
//! and per-region grid carbon intensity.
//!
//! Each region runs an independent serving simulation seeded from
//! `stream_seed(seed, ["geo", region.name])`, so regions fan out over
//! the worker pool ([`crate::parallel`]) and the combined
//! [`GeoReport`] is byte-identical at any `--jobs` count.
//!
//! Modeling choices, all deliberately static so regions stay
//! embarrassingly parallel:
//!
//! * **WAN spillover** — each region imports `import_replicas` replicas
//!   of its neighbor region's device, with every batch service time
//!   inflated by the WAN round trip. The router's
//!   least-expected-latency policy then only reaches across the WAN
//!   when the local queue is deep enough to amortize the RTT. Imported
//!   replicas accrue carbon on the *neighbor's* grid.
//! * **Cloud tier** — requests the region sheds (admission control)
//!   fall through to a cloud endpoint whose latency comes from the
//!   Neurosurgeon-style [`best_split`] partition between the region's
//!   device and the cloud server over the configured link, and whose
//!   energy/carbon come from the cloud device's batch-1 table at the
//!   cloud grid's mean intensity.
//! * **Diurnal phase** — region `i` serves the shared diurnal curve
//!   shifted by its `phase_s`, so peaks roll around the planet instead
//!   of landing at once; the carbon day is phase-shifted the same way.

use super::{
    s_to_ns, AutoscaleConfig, CarbonProfile, EngineKind, Fleet, ReplicaSpec, ServeConfig,
    ServeError, ServeReport, Traffic,
};
use crate::parallel;
use crate::report::Report;
use edgebench_devices::faults::stream_seed;
use edgebench_devices::offload::{best_split, Link};
use edgebench_devices::Device;
use edgebench_measure::Samples;
use edgebench_models::Model;

/// One edge region of a geo deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Stable region name (seeds and report rows key off it).
    pub name: String,
    /// The device its local replicas run on.
    pub device: Device,
    /// Local replica count.
    pub replicas: usize,
    /// Diurnal phase of this region's traffic (and carbon day), seconds.
    pub phase_s: f64,
    /// The region's grid carbon intensity.
    pub grid: CarbonProfile,
}

/// Geo-deployment configuration shared by every region.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoConfig {
    /// Model served everywhere.
    pub model: Model,
    /// Per-request latency objective, milliseconds.
    pub slo_ms: f64,
    /// Trough arrival rate per region, requests per second.
    pub base_hz: f64,
    /// Peak arrival rate per region, requests per second.
    pub peak_hz: f64,
    /// Diurnal period (the compressed "day"), seconds.
    pub period_s: f64,
    /// Inter-region WAN round trip, milliseconds.
    pub wan_rtt_ms: f64,
    /// Spillover replicas each region imports from its neighbor.
    pub import_replicas: usize,
    /// Cloud server device for the offload tier.
    pub cloud: Device,
    /// Edge→cloud link for the offload-latency model.
    pub cloud_link: Link,
    /// Grid carbon intensity at the cloud site.
    pub cloud_grid: CarbonProfile,
    /// Autoscaling policy per region (None = all replicas always on).
    pub autoscale: Option<AutoscaleConfig>,
    /// Event-queue engine for every region's simulation.
    pub engine: EngineKind,
    /// Largest batch a replica fires.
    pub batch_max: usize,
    /// Base seed; each region derives its own streams from it.
    pub seed: u64,
}

impl GeoConfig {
    /// A sensible default geo config under the given SLO: MobileNetV2,
    /// a 20→240 Hz diurnal swing over a 60 s compressed day, 80 ms WAN
    /// RTT, one spillover replica per region, a GTX Titan X cloud over
    /// LTE on a mid-carbon grid, autoscaling on, calendar engine.
    pub fn new(slo_ms: f64) -> GeoConfig {
        GeoConfig {
            model: Model::MobileNetV2,
            slo_ms,
            base_hz: 20.0,
            peak_hz: 240.0,
            period_s: 60.0,
            wan_rtt_ms: 80.0,
            import_replicas: 1,
            cloud: Device::GtxTitanX,
            cloud_link: Link::lte(),
            cloud_grid: CarbonProfile::flat(300.0),
            autoscale: Some(AutoscaleConfig::default()),
            engine: EngineKind::Calendar,
            batch_max: 8,
            seed: 42,
        }
    }

    /// Returns the config with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> GeoConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with the given event-queue engine.
    pub fn with_engine(mut self, engine: EngineKind) -> GeoConfig {
        self.engine = engine;
        self
    }
}

/// A sinusoidal grid-intensity day between `min` and `max` gCO₂/kWh:
/// cleanest at hour 0, dirtiest at hour 12, compressed to `day_s`.
fn diurnal_grid(min_g: f64, max_g: f64, day_s: f64) -> CarbonProfile {
    let mut hourly = [0.0; 24];
    for (h, g) in hourly.iter_mut().enumerate() {
        let swing = 0.5 * (1.0 - (std::f64::consts::TAU * h as f64 / 24.0).cos());
        *g = min_g + (max_g - min_g) * swing;
    }
    CarbonProfile {
        hourly_g_per_kwh: hourly,
        day_s,
        phase_h: 0.0,
    }
}

/// Three canonical regions spanning the planet: device heterogeneity
/// (Jetson Nano / Jetson TX2 / Raspberry Pi 4), traffic phases a third
/// of a day apart, and grids from coal-heavy to hydro-clean. `day_s`
/// compresses both the traffic day and the carbon day so short runs
/// still sweep the full swing.
pub fn default_regions(day_s: f64) -> Vec<RegionSpec> {
    vec![
        RegionSpec {
            name: "us-east".to_string(),
            device: Device::JetsonNano,
            replicas: 3,
            phase_s: 0.0,
            grid: diurnal_grid(350.0, 550.0, day_s),
        },
        RegionSpec {
            name: "eu-west".to_string(),
            device: Device::JetsonTx2,
            replicas: 3,
            phase_s: day_s / 3.0,
            grid: diurnal_grid(150.0, 320.0, day_s).with_phase_h(8.0),
        },
        RegionSpec {
            name: "ap-south".to_string(),
            device: Device::RaspberryPi4,
            replicas: 4,
            phase_s: 2.0 * day_s / 3.0,
            grid: diurnal_grid(45.0, 120.0, day_s).with_phase_h(16.0),
        },
    ]
}

/// One region's outcome: the full local [`ServeReport`] plus the cloud
/// tier and the combined (local + cloud) latency metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// The local fleet's serving report (shed = sent to cloud).
    pub report: ServeReport,
    /// Requests the region offloaded to the cloud tier.
    pub cloud_requests: usize,
    /// Cloud round-trip latency for this region, milliseconds.
    pub cloud_ms: f64,
    /// Energy the cloud tier spent on this region's offloads, mJ.
    pub cloud_energy_mj: f64,
    /// Carbon the cloud tier emitted for this region, milligrams CO₂.
    pub cloud_carbon_mg: f64,
    /// Combined p99 over local completions and cloud offloads, ms.
    pub p99_ms: f64,
    /// Combined SLO attainment over local completions and cloud
    /// offloads.
    pub slo_attainment: f64,
}

impl RegionReport {
    /// Requests served somewhere (locally or in the cloud).
    pub(crate) fn served(&self) -> usize {
        self.report.completed + self.cloud_requests
    }

    /// Total energy attributable to the region, millijoules.
    pub(crate) fn total_energy_mj(&self) -> f64 {
        self.report.energy_mj + self.cloud_energy_mj
    }

    /// Total operational carbon attributable to the region, mg CO₂.
    pub(crate) fn total_carbon_mg(&self) -> f64 {
        self.report.carbon_mg + self.cloud_carbon_mg
    }

    /// Mean energy per served request, millijoules.
    pub(crate) fn energy_per_request_mj(&self) -> f64 {
        if self.served() > 0 {
            self.total_energy_mj() / self.served() as f64
        } else {
            0.0
        }
    }

    /// Mean carbon per served request, milligrams CO₂.
    pub(crate) fn carbon_per_request_mg(&self) -> f64 {
        if self.served() > 0 {
            self.total_carbon_mg() / self.served() as f64
        } else {
            0.0
        }
    }
}

/// The combined multi-region outcome ([`run_geo`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReport {
    /// Per-region outcomes, in region order.
    pub regions: Vec<RegionReport>,
}

impl GeoReport {
    /// Requests offered across all regions.
    pub(crate) fn offered(&self) -> usize {
        self.regions.iter().map(|r| r.report.offered).sum()
    }

    /// Requests served across all regions (local + cloud).
    pub(crate) fn served(&self) -> usize {
        self.regions.iter().map(RegionReport::served).sum()
    }

    /// Fleet-wide mean carbon per served request, mg CO₂.
    pub fn carbon_per_request_mg(&self) -> f64 {
        let served = self.served();
        if served > 0 {
            self.regions
                .iter()
                .map(RegionReport::total_carbon_mg)
                .sum::<f64>()
                / served as f64
        } else {
            0.0
        }
    }

    /// Fleet-wide mean energy per served request, millijoules.
    pub fn energy_per_request_mj(&self) -> f64 {
        let served = self.served();
        if served > 0 {
            self.regions
                .iter()
                .map(RegionReport::total_energy_mj)
                .sum::<f64>()
                / served as f64
        } else {
            0.0
        }
    }

    /// Renders one row per region plus a `total` row, byte-stable.
    pub fn to_report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(
            title,
            [
                "region",
                "offered",
                "local",
                "cloud",
                "failed",
                "p99_ms",
                "slo_att",
                "energy_req_mj",
                "carbon_req_mg",
                "scale_ups",
                "scale_downs",
            ],
        );
        for reg in &self.regions {
            r.push_row([
                reg.name.clone(),
                reg.report.offered.to_string(),
                reg.report.completed.to_string(),
                reg.cloud_requests.to_string(),
                reg.report.failed.to_string(),
                format!("{:.3}", reg.p99_ms),
                format!("{:.4}", reg.slo_attainment),
                format!("{:.3}", reg.energy_per_request_mj()),
                format!("{:.4}", reg.carbon_per_request_mg()),
                reg.report.scale_ups.to_string(),
                reg.report.scale_downs.to_string(),
            ]);
        }
        let worst_p99 = self.regions.iter().map(|x| x.p99_ms).fold(0.0f64, f64::max);
        let served: usize = self.served();
        let within: f64 = self
            .regions
            .iter()
            .map(|x| x.slo_attainment * x.served() as f64)
            .sum();
        r.push_row([
            "total".to_string(),
            self.offered().to_string(),
            self.regions
                .iter()
                .map(|x| x.report.completed)
                .sum::<usize>()
                .to_string(),
            self.regions
                .iter()
                .map(|x| x.cloud_requests)
                .sum::<usize>()
                .to_string(),
            self.regions
                .iter()
                .map(|x| x.report.failed)
                .sum::<usize>()
                .to_string(),
            format!("{worst_p99:.3}"),
            format!(
                "{:.4}",
                if served > 0 {
                    within / served as f64
                } else {
                    0.0
                }
            ),
            format!("{:.3}", self.energy_per_request_mj()),
            format!("{:.4}", self.carbon_per_request_mg()),
            self.regions
                .iter()
                .map(|x| x.report.scale_ups)
                .sum::<u64>()
                .to_string(),
            self.regions
                .iter()
                .map(|x| x.report.scale_downs)
                .sum::<u64>()
                .to_string(),
        ]);
        r
    }
}

/// Builds one region's fleet: `replicas` local replicas on the region's
/// device and grid, plus `import_replicas` WAN spillover replicas of the
/// neighbor's device with every batch service time inflated by the WAN
/// round trip, accruing carbon on the neighbor's grid. Local replicas
/// come first so autoscaling activates local capacity before reaching
/// across the WAN.
fn region_fleet(
    cfg: &GeoConfig,
    region: &RegionSpec,
    neighbor: &RegionSpec,
) -> Result<Fleet, ServeError> {
    let local =
        ReplicaSpec::best_for(cfg.model, region.device).ok_or(ServeError::NoDeployment {
            model: cfg.model,
            device: region.device,
        })?;
    let imported =
        ReplicaSpec::best_for(cfg.model, neighbor.device).ok_or(ServeError::NoDeployment {
            model: cfg.model,
            device: neighbor.device,
        })?;
    let specs = std::iter::repeat_n(local, region.replicas)
        .chain(std::iter::repeat_n(imported, cfg.import_replicas));
    let mut fleet = Fleet::new(specs)?;
    let wan_ns = s_to_ns(cfg.wan_rtt_ms / 1e3);
    for i in 0..region.replicas + cfg.import_replicas {
        if i < region.replicas {
            fleet.set_carbon_profile(i, region.grid);
        } else {
            fleet.set_carbon_profile(i, neighbor.grid);
            for rung in &mut fleet.replicas[i].rungs {
                for svc in &mut rung.svc_ns {
                    *svc = svc.saturating_add(wan_ns);
                }
            }
        }
    }
    Ok(fleet)
}

/// Runs the multi-region simulation: each region serves `n_per_region`
/// requests of its phase-shifted diurnal trace, fanned over `jobs`
/// workers. Every region derives its streams from
/// `stream_seed(cfg.seed, ["geo", name])`, so the result is
/// byte-identical at any worker count.
///
/// # Errors
///
/// [`ServeError::NoDeployment`] when the model cannot be placed on a
/// region or cloud device; otherwise whatever [`Fleet::serve`] surfaces.
pub fn run_geo(
    cfg: &GeoConfig,
    regions: &[RegionSpec],
    n_per_region: usize,
    jobs: usize,
) -> Result<GeoReport, ServeError> {
    if regions.is_empty() {
        return Err(ServeError::EmptyFleet);
    }
    // Cloud-side economics are region-independent: batch-1 energy on the
    // cloud device, carbon at the cloud grid's mean intensity.
    let cloud_spec =
        ReplicaSpec::best_for(cfg.model, cfg.cloud).ok_or(ServeError::NoDeployment {
            model: cfg.model,
            device: cfg.cloud,
        })?;
    let cloud_fleet = Fleet::new([cloud_spec])?;
    let cloud_energy_mj = cloud_fleet.replicas[0].native().energy_mj[0];
    let cloud_carbon_mg = cloud_energy_mj * cfg.cloud_grid.mean_g_per_kwh() / 3.6e6;
    let graph = cfg.model.build();
    let results = parallel::run_indexed(regions, jobs, |i, region| {
        let neighbor = &regions[(i + 1) % regions.len()];
        let fleet = region_fleet(cfg, region, neighbor)?;
        let seed = stream_seed(cfg.seed, &["geo", &region.name]);
        let serve_cfg = {
            let mut c = ServeConfig::new(cfg.slo_ms)
                .with_batch_max(cfg.batch_max)
                .with_engine(cfg.engine)
                .with_seed(seed);
            c.autoscale = cfg.autoscale;
            c
        };
        let traffic = Traffic::Diurnal {
            base_hz: cfg.base_hz,
            peak_hz: cfg.peak_hz,
            period_s: cfg.period_s,
            phase_s: region.phase_s,
            seed,
        };
        let report = fleet.serve(&traffic, n_per_region, &serve_cfg)?;
        // Shed requests fall through to the cloud tier at the
        // Neurosurgeon split latency for this region's device.
        let (_, split_s) = best_split(&graph, region.device, cfg.cloud_link, cfg.cloud)
            .expect("model graphs have inputs and run at native precision");
        let cloud_ms = 1e3 * split_s;
        let cloud_requests = report.shed;
        // Combined latency distribution: local completions plus one
        // `cloud_ms` sample per offloaded request.
        let mut merged = report.latencies_ms.sorted().to_vec();
        merged.extend(std::iter::repeat_n(cloud_ms, cloud_requests));
        let samples = Samples::from_unsorted(merged);
        let (p99_ms, within) = if samples.is_empty() {
            (0.0, 0)
        } else {
            let cloud_within = if cloud_ms <= cfg.slo_ms {
                cloud_requests
            } else {
                0
            };
            (samples.percentile(99.0), report.within_slo + cloud_within)
        };
        let served = report.completed + cloud_requests;
        Ok(RegionReport {
            name: region.name.clone(),
            cloud_requests,
            cloud_ms,
            cloud_energy_mj: cloud_energy_mj * cloud_requests as f64,
            cloud_carbon_mg: cloud_carbon_mg * cloud_requests as f64,
            p99_ms,
            slo_attainment: if served > 0 {
                within as f64 / served as f64
            } else {
                0.0
            },
            report,
        })
    });
    let regions = results
        .into_iter()
        .collect::<Result<Vec<RegionReport>, ServeError>>()?;
    Ok(GeoReport { regions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GeoConfig {
        GeoConfig {
            peak_hz: 160.0,
            ..GeoConfig::new(100.0)
        }
    }

    #[test]
    fn default_regions_deploy_and_serve() {
        let cfg = small_cfg();
        let regions = default_regions(cfg.period_s);
        let geo = run_geo(&cfg, &regions, 1500, 2).unwrap();
        assert_eq!(geo.regions.len(), 3);
        for r in &geo.regions {
            assert_eq!(r.report.offered, 1500);
            assert!(r.report.completed > 0, "{}: {:?}", r.name, r.report);
            assert!(r.total_energy_mj() > 0.0);
            assert!(r.total_carbon_mg() > 0.0, "{} carbon", r.name);
            assert_eq!(
                r.report.offered,
                r.report.completed + r.report.shed + r.report.failed
            );
        }
        // Heterogeneous grids: carbon per request differs across regions.
        let c0 = geo.regions[0].carbon_per_request_mg();
        let c2 = geo.regions[2].carbon_per_request_mg();
        assert!(
            (c0 - c2).abs() / c0.max(c2) > 0.2,
            "coal {c0} vs hydro {c2}"
        );
        let csv = geo.to_report("geo").to_csv();
        assert!(csv.contains("us-east"), "{csv}");
        assert!(csv.contains("total"), "{csv}");
    }

    #[test]
    fn geo_runs_are_byte_identical_across_jobs() {
        let cfg = small_cfg();
        let regions = default_regions(cfg.period_s);
        let serial = run_geo(&cfg, &regions, 1200, 1).unwrap();
        for jobs in [2, 8] {
            let par = run_geo(&cfg, &regions, 1200, jobs).unwrap();
            assert_eq!(serial, par, "jobs={jobs}");
            assert_eq!(
                serial.to_report("geo").to_csv(),
                par.to_report("geo").to_csv(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn engines_agree_on_the_geo_tier() {
        let cfg = small_cfg();
        let regions = default_regions(cfg.period_s);
        let cal = run_geo(
            &cfg.clone().with_engine(EngineKind::Calendar),
            &regions,
            1200,
            4,
        )
        .unwrap();
        let heap = run_geo(
            &cfg.clone().with_engine(EngineKind::BinaryHeap),
            &regions,
            1200,
            4,
        )
        .unwrap();
        assert_eq!(cal, heap);
    }

    #[test]
    fn time_of_day_moves_carbon_per_request() {
        // Same region, same traffic, two phase offsets of the carbon
        // day half a cycle apart: the energy is identical but the grid
        // intensity at serving time differs.
        let cfg = small_cfg();
        let mk = |phase_h: f64| {
            vec![RegionSpec {
                name: "solo".to_string(),
                device: Device::JetsonNano,
                replicas: 3,
                phase_s: 0.0,
                grid: diurnal_grid(50.0, 500.0, cfg.period_s).with_phase_h(phase_h),
            }]
        };
        let clean = run_geo(&cfg, &mk(0.0), 1500, 1).unwrap();
        let dirty = run_geo(&cfg, &mk(12.0), 1500, 1).unwrap();
        assert_eq!(
            clean.regions[0].report.energy_mj,
            dirty.regions[0].report.energy_mj
        );
        let a = clean.regions[0].report.carbon_mg;
        let b = dirty.regions[0].report.carbon_mg;
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() / a.max(b) > 0.1, "phase0 {a} vs phase12 {b}");
    }

    #[test]
    fn autoscaling_holds_slo_through_the_peak() {
        let cfg = small_cfg();
        let regions = default_regions(cfg.period_s);
        let geo = run_geo(&cfg, &regions, 2000, 2).unwrap();
        let mut saw_scaling = false;
        for r in &geo.regions {
            saw_scaling |= r.report.scale_ups > 0;
            assert!(
                r.slo_attainment > 0.9,
                "{}: slo attainment {} through the diurnal peak",
                r.name,
                r.slo_attainment
            );
        }
        assert!(saw_scaling, "the diurnal peak must trigger scale-ups");
    }

    #[test]
    fn empty_region_list_is_a_typed_error() {
        let cfg = small_cfg();
        assert_eq!(
            run_geo(&cfg, &[], 100, 1).unwrap_err(),
            ServeError::EmptyFleet
        );
    }
}
