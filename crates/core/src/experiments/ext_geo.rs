//! Extension experiment: planet-scale serving — energy and carbon per
//! request across geo-distributed edge regions.
//!
//! Three regions (Jetson Nano / Jetson TX2 / Raspberry Pi 4) serve the
//! same model under diurnal traffic whose peaks are a third of a day
//! apart, each on its own grid-intensity day (coal-heavy us-east,
//! mid-carbon eu-west, hydro-clean ap-south). Every region runs the
//! full serving simulation — autoscaling on predicted sojourn, WAN
//! spillover to its neighbor, and an offload cloud tier sized by
//! [`crate::offload::best_split`] — and the report breaks out SLO
//! attainment, energy per request, and carbon per request by region.
//!
//! Two contrasts frame the table: an always-on arm (autoscaling
//! disabled) shows what the diurnal trough costs in energy when
//! replicas never park, and a half-day carbon phase shift shows how
//! much of the carbon bill is *when* the work runs rather than *where*.

use super::Experiment;
use crate::report::Report;
use crate::serve::geo::{default_regions, run_geo, GeoConfig, GeoReport, RegionSpec};

/// `ext-geo` — multi-region serving with energy and carbon accounting.
pub(crate) struct ExtGeo;

/// Requests per region: covers one full compressed day at the default
/// 20→240 Hz swing (mean ≈ 130 Hz over a 60 s day).
const N_PER_REGION: usize = 8000;

/// Worker fan-out; the result is byte-identical at any value.
const JOBS: usize = 4;

fn config() -> GeoConfig {
    GeoConfig::new(100.0)
}

fn regions(cfg: &GeoConfig) -> Vec<RegionSpec> {
    default_regions(cfg.period_s)
}

fn run(cfg: &GeoConfig) -> GeoReport {
    let regs = regions(cfg);
    run_geo(cfg, &regs, N_PER_REGION, JOBS).expect("default regions deploy")
}

/// Served-weighted mean SLO attainment across regions.
fn fleet_slo(geo: &GeoReport) -> f64 {
    let served: usize = geo.served();
    if served == 0 {
        return 0.0;
    }
    geo.regions
        .iter()
        .map(|r| r.slo_attainment * r.served() as f64)
        .sum::<f64>()
        / served as f64
}

impl Experiment for ExtGeo {
    fn id(&self) -> &'static str {
        "ext-geo"
    }

    fn title(&self) -> &'static str {
        "Extension: geo-distributed serving — SLO, energy, and carbon per request by region"
    }

    fn run(&self) -> Report {
        let cfg = config();
        let geo = run(&cfg);
        let mut r = geo.to_report(self.title());

        // Contrast 1: the same day with autoscaling disabled — every
        // replica burns idle power through the trough.
        let fixed = run(&GeoConfig {
            autoscale: None,
            ..cfg.clone()
        });
        r.push_note(format!(
            "autoscaling: slo {:.4} at {:.3} mJ/req vs always-on slo {:.4} at {:.3} mJ/req \
             ({} scale-ups, {} scale-downs across regions)",
            fleet_slo(&geo),
            geo.energy_per_request_mj(),
            fleet_slo(&fixed),
            fixed.energy_per_request_mj(),
            geo.regions.iter().map(|x| x.report.scale_ups).sum::<u64>(),
            geo.regions
                .iter()
                .map(|x| x.report.scale_downs)
                .sum::<u64>(),
        ));

        // Contrast 2: shift every grid's day by 12 hours while keeping
        // traffic and placement fixed — the energy bill is identical,
        // only the carbon bill moves with the time of day.
        let mut shifted_cfg = cfg.clone();
        shifted_cfg.cloud_grid = shifted_cfg
            .cloud_grid
            .with_phase_h(shifted_cfg.cloud_grid.phase_h + 12.0);
        let mut shifted_regions = regions(&cfg);
        for reg in &mut shifted_regions {
            reg.grid = reg.grid.with_phase_h(reg.grid.phase_h + 12.0);
        }
        let shifted = run_geo(&shifted_cfg, &shifted_regions, N_PER_REGION, JOBS)
            .expect("default regions deploy");
        r.push_note(format!(
            "time-of-day: {:.4} mg CO2/req on the real grid day vs {:.4} mg CO2/req with \
             grids shifted 12 h (energy unchanged at {:.3} mJ/req)",
            geo.carbon_per_request_mg(),
            shifted.carbon_per_request_mg(),
            geo.energy_per_request_mj(),
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_geo_reports_one_row_per_region_plus_total() {
        let report = ExtGeo.run();
        assert_eq!(report.rows().len(), regions(&config()).len() + 1);
        assert_eq!(report.notes().len(), 2);
        let total_served: f64 =
            report.cell_f64("total", "local").unwrap() + report.cell_f64("total", "cloud").unwrap();
        assert!(total_served > 0.0, "the fleet must serve traffic");
        // Regions sit on different grids, so carbon per request must
        // differ even where energy per request is close.
        let carbons: Vec<f64> = ["us-east", "eu-west", "ap-south"]
            .iter()
            .map(|reg| report.cell_f64(reg, "carbon_req_mg").unwrap())
            .collect();
        assert!(
            carbons.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6),
            "carbon per request must vary by region: {carbons:?}"
        );
    }
}
