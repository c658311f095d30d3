//! Table III (power rows): measured idle and DNN-executing average power,
//! recorded through the simulated instruments of `edgebench-measure`.

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_devices::power::PowerModel;
use edgebench_devices::Device;
use edgebench_measure::instruments::{meter_for, PowerMeter};

/// Table III experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table3;

impl Experiment for Table3 {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Table III: measured idle and average power (W)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            ["device", "idle_w", "avg_w", "paper_idle_w", "paper_avg_w"],
        );
        for &d in Device::all() {
            let model = PowerModel::for_device(d);
            let mut meter = meter_for(d, 33);
            // Average 30 one-second samples at each operating point, as the
            // paper's meters log.
            let avg_of = |meter: &mut Box<dyn PowerMeter>, p: f64| -> f64 {
                (0..30).map(|_| meter.read_w(p)).sum::<f64>() / 30.0
            };
            let idle = avg_of(&mut meter, model.idle_w());
            let active = avg_of(&mut meter, model.active_w());
            r.push_row([
                d.name().to_string(),
                format!("{idle:.2}"),
                format!("{active:.2}"),
                format!("{:.2}", d.spec().idle_power_w),
                format!("{:.2}", d.spec().avg_power_w),
            ]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_power_matches_table_iii_within_instrument_error() {
        let r = Table3.run();
        for row in r.rows() {
            let idle: f64 = row[1].parse().unwrap();
            let p_idle: f64 = row[3].parse().unwrap();
            let avg: f64 = row[2].parse().unwrap();
            let p_avg: f64 = row[4].parse().unwrap();
            assert!(
                (idle - p_idle).abs() < 0.05 + 0.01 * p_idle,
                "{}: idle",
                row[0]
            );
            assert!((avg - p_avg).abs() < 0.05 + 0.01 * p_avg, "{}: avg", row[0]);
        }
    }

    #[test]
    fn all_ten_platforms_are_reported() {
        assert_eq!(Table3.run().rows().len(), 10);
    }
}
