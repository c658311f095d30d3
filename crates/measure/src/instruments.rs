//! Simulated power-measurement instruments with the paper's stated
//! sampling rates and accuracy bounds (§V, "Power Measurements").

use crate::trace::PowerTrace;
use edgebench_devices::power::PowerModel;
use edgebench_devices::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common interface of the two power meters.
pub trait PowerMeter {
    /// One noisy reading of a true power value, watts.
    fn read_w(&mut self, true_power_w: f64) -> f64;

    /// Sampling period in seconds.
    fn sample_period_s(&self) -> f64;
}

/// The UM25C USB multimeter: 1 Hz sampling; voltage accuracy
/// ±(0.05 % + 2 digits), current accuracy ±(0.1 % + 4 digits).
///
/// Power readings combine both error terms on a nominal 5.1 V USB rail
/// (digit resolution: 1 mV / 0.1 mA).
#[derive(Debug)]
pub(crate) struct UsbMultimeter {
    rng: StdRng,
}

impl UsbMultimeter {
    /// Creates a meter with a deterministic noise seed.
    pub(crate) fn new(seed: u64) -> Self {
        UsbMultimeter {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl PowerMeter for UsbMultimeter {
    fn read_w(&mut self, true_power_w: f64) -> f64 {
        const RAIL_V: f64 = 5.1;
        let true_i = true_power_w / RAIL_V;
        // voltage: ±(0.05% + 2 digits of 1 mV)
        let v_err = RAIL_V * 0.0005 + 2.0 * 0.001;
        // current: ±(0.1% + 4 digits of 0.1 mA)
        let i_err = true_i * 0.001 + 4.0 * 0.0001;
        let v = RAIL_V + self.rng.gen_range(-v_err..=v_err);
        let i = (true_i + self.rng.gen_range(-i_err..=i_err)).max(0.0);
        v * i
    }

    fn sample_period_s(&self) -> f64 {
        1.0
    }
}

/// The outlet power analyzer: ±0.005 W accuracy, 1 Hz.
#[derive(Debug)]
pub(crate) struct PowerAnalyzer {
    rng: StdRng,
}

impl PowerAnalyzer {
    /// Creates an analyzer with a deterministic noise seed.
    pub(crate) fn new(seed: u64) -> Self {
        PowerAnalyzer {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl PowerMeter for PowerAnalyzer {
    fn read_w(&mut self, true_power_w: f64) -> f64 {
        (true_power_w + self.rng.gen_range(-0.005..=0.005)).max(0.0)
    }

    fn sample_period_s(&self) -> f64 {
        1.0
    }
}

/// The meter the paper would use for a device: USB multimeter for
/// USB-powered devices, outlet analyzer for the rest.
pub fn meter_for(device: Device, seed: u64) -> Box<dyn PowerMeter> {
    match device {
        Device::RaspberryPi3
        | Device::RaspberryPi4
        | Device::EdgeTpu
        | Device::MovidiusNcs
        | Device::Ncs2 => Box::new(UsbMultimeter::new(seed)),
        _ => Box::new(PowerAnalyzer::new(seed)),
    }
}

/// Records a power trace of a device running inference back-to-back for
/// `duration_s`, through the appropriate meter.
///
/// `inference_s` sets the duty cycle granularity; for inference shorter
/// than the 1 Hz sampling period the meter simply sees the active level,
/// matching how the paper measures "average power while executing DNNs".
pub(crate) fn record_inference_trace(
    device: Device,
    inference_s: f64,
    duration_s: f64,
    seed: u64,
) -> PowerTrace {
    let mut meter = meter_for(device, seed);
    let power = PowerModel::for_device(device);
    let mut trace = PowerTrace::new();
    let dt = meter.sample_period_s();
    let mut t = 0.0;
    while t <= duration_s {
        // Back-to-back inference keeps utilization at 1; the first sample
        // catches the tail of idle (setup).
        let u = if t < inference_s.min(1.0) { 0.5 } else { 1.0 };
        let true_p = power.power_at_utilization(u);
        trace.push(t, meter.read_w(true_p));
        t += dt;
    }
    trace
}

/// Measured energy per inference: mean active power × latency, the paper's
/// Fig 11 quantity, derived from a recorded trace.
pub fn energy_per_inference_mj(device: Device, inference_s: f64, seed: u64) -> f64 {
    let trace = record_inference_trace(device, inference_s, 60.0, seed);
    trace.mean_power_w() * inference_s * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usb_meter_error_is_within_spec() {
        let mut m = UsbMultimeter::new(1);
        for _ in 0..1000 {
            let r = m.read_w(2.73);
            // Combined worst-case error at ~2.7 W on 5.1 V is well under 2 %.
            assert!((r - 2.73).abs() < 0.06, "{r}");
        }
    }

    #[test]
    fn analyzer_error_is_within_5mw() {
        let mut m = PowerAnalyzer::new(2);
        for _ in 0..1000 {
            let r = m.read_w(9.65);
            assert!((r - 9.65).abs() <= 0.005 + 1e-12, "{r}");
        }
    }

    #[test]
    fn readings_are_deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut m = UsbMultimeter::new(7);
            (0..5).map(|_| m.read_w(1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut m = UsbMultimeter::new(7);
            (0..5).map(|_| m.read_w(1.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn trace_mean_approaches_active_power() {
        let t = record_inference_trace(Device::JetsonTx2, 0.05, 120.0, 3);
        let avg = Device::JetsonTx2.spec().avg_power_w;
        assert!(
            (t.mean_power_w() - avg).abs() < 0.2 * avg,
            "{}",
            t.mean_power_w()
        );
    }

    #[test]
    fn usb_powered_devices_get_the_multimeter() {
        // Sanity: dispatch compiles and returns the right period.
        for d in [Device::RaspberryPi3, Device::XeonCpu] {
            let m = meter_for(d, 0);
            assert_eq!(m.sample_period_s(), 1.0);
        }
    }

    #[test]
    fn measured_energy_tracks_model_energy() {
        let model = PowerModel::for_device(Device::JetsonNano);
        let measured = energy_per_inference_mj(Device::JetsonNano, 0.023, 5);
        let ideal = model.energy_per_inference_mj(0.023);
        assert!(
            (measured - ideal).abs() / ideal < 0.1,
            "{measured} vs {ideal}"
        );
    }
}
