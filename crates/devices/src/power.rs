//! Power and energy models.
//!
//! Each platform's idle and DNN-executing ("active") power come from the
//! paper's own measurements (Table III). Energy per inference is the active
//! power integrated over the inference latency — the quantity the paper's
//! Fig 11 reports, as confirmed by cross-checking its data points (e.g.
//! EdgeTPU MobileNet-v2: 4.14 W × 2.9 ms ≈ 11 mJ, the paper's lowest value).

use crate::spec::Device;

/// Power model of one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    idle_w: f64,
    active_w: f64,
}

impl PowerModel {
    /// The model for a device, parameterized by Table III's measurements.
    pub fn for_device(device: Device) -> Self {
        let s = device.spec();
        PowerModel {
            idle_w: s.idle_power_w,
            active_w: s.avg_power_w,
        }
    }

    /// Idle draw in watts.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// Average draw while executing DNNs, watts.
    pub fn active_w(&self) -> f64 {
        self.active_w
    }

    /// Draw at a utilization in `[0, 1]` (linear interpolation — the usual
    /// first-order approximation for CMOS dynamic power).
    pub fn power_at_utilization(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_w + (self.active_w - self.idle_w) * u
    }

    /// Energy for one inference of the given latency, joules.
    pub(crate) fn energy_per_inference_j(&self, inference_s: f64) -> f64 {
        self.active_w * inference_s
    }

    /// Energy in millijoules (the unit of the paper's Fig 11).
    pub fn energy_per_inference_mj(&self, inference_s: f64) -> f64 {
        self.energy_per_inference_j(inference_s) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_interpolates_between_idle_and_active() {
        let p = PowerModel::for_device(Device::JetsonTx2);
        assert_eq!(p.power_at_utilization(0.0), p.idle_w());
        assert_eq!(p.power_at_utilization(1.0), p.active_w());
        let half = p.power_at_utilization(0.5);
        assert!(half > p.idle_w() && half < p.active_w());
    }

    #[test]
    fn utilization_is_clamped() {
        let p = PowerModel::for_device(Device::RaspberryPi3);
        assert_eq!(p.power_at_utilization(-3.0), p.idle_w());
        assert_eq!(p.power_at_utilization(42.0), p.active_w());
    }

    #[test]
    fn edgetpu_mobilenet_energy_matches_paper_fig11() {
        // Paper: ~11 mJ for MobileNet-v2 on EdgeTPU at ~2.9 ms latency.
        let p = PowerModel::for_device(Device::EdgeTpu);
        let mj = p.energy_per_inference_mj(2.9e-3);
        assert!((mj - 11.0).abs() < 3.0, "{mj} mJ");
    }

    #[test]
    fn movidius_has_lowest_active_power_of_all() {
        let m = PowerModel::for_device(Device::MovidiusNcs).active_w();
        for &d in Device::all() {
            if d != Device::MovidiusNcs {
                assert!(PowerModel::for_device(d).active_w() > m, "{d}");
            }
        }
    }

    #[test]
    fn power_curve_is_monotone_for_every_platform() {
        for &d in Device::extended() {
            let p = PowerModel::for_device(d);
            let mut prev = 0.0;
            for i in 0..=10 {
                let u = i as f64 / 10.0;
                let w = p.power_at_utilization(u);
                assert!(w >= prev, "{d} at u={u}");
                prev = w;
            }
        }
    }

    #[test]
    fn energy_scales_linearly_with_latency() {
        let p = PowerModel::for_device(Device::JetsonNano);
        assert!(
            (p.energy_per_inference_j(0.2) - 2.0 * p.energy_per_inference_j(0.1)).abs() < 1e-12
        );
    }
}
