//! Fig 14 and Table VI: temperature behaviour under sustained Inception-v4
//! inference, and the cooling-equipment inventory.

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_devices::thermal::{ThermalEvent, ThermalSim, ThermalSpec};
use edgebench_devices::Device;
use edgebench_measure::thermal_camera::ThermalCamera;

const DEVICES: [Device; 5] = [
    Device::RaspberryPi3,
    Device::JetsonNano,
    Device::JetsonTx2,
    Device::EdgeTpu,
    Device::MovidiusNcs,
];

/// Sustained dissipation while looping Inception-v4 (the paper's heaviest
/// model): the Table III average power, except the RPi where the sustained
/// all-core NEON load draws beyond its lighter-model average.
fn sustained_power_w(d: Device) -> f64 {
    match d {
        Device::RaspberryPi3 => 3.5,
        _ => d.spec().avg_power_w,
    }
}

/// Fig 14 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig14;

impl Experiment for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }

    fn title(&self) -> &'static str {
        "Fig 14: temperature while executing DNNs (camera °C)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "device",
                "idle_c",
                "peak_c",
                "steady_c",
                "fan",
                "throttled",
                "shutdown",
            ],
        );
        let mut cam = ThermalCamera::new(14);
        for d in DEVICES {
            let sim = ThermalSim::new(d);
            // Average several camera frames: single readings carry ±0.5 °C
            // sensor noise, which is wider than the smallest cross-device
            // rise gap this figure is meant to show (Movidius vs Edge TPU).
            let frames = 8;
            let idle = (0..frames).map(|_| cam.read_c(&sim)).sum::<f64>() / frames as f64;
            let spec = *sim.spec();
            let trace = sim.run_sustained(sustained_power_w(d), 2400.0, 1.0);
            let fan = trace
                .events
                .iter()
                .any(|e| matches!(e, ThermalEvent::FanOn(_, _)));
            let throttled = trace
                .events
                .iter()
                .any(|e| matches!(e, ThermalEvent::ThrottleOn(_, _)));
            let peak = trace
                .samples
                .iter()
                .map(|&(_, t)| t)
                .fold(f64::NEG_INFINITY, f64::max)
                - spec.camera_offset_c;
            r.push_row([
                d.name().to_string(),
                format!("{idle:.1}"),
                format!("{peak:.1}"),
                format!("{:.1}", trace.final_camera_temp_c(&spec)),
                if fan { "on" } else { "off" }.to_string(),
                if throttled { "yes" } else { "no" }.to_string(),
                if trace.shutdown { "yes" } else { "no" }.to_string(),
            ]);
        }
        r.push_note("paper: RPi annotates 'device shutdown'; TX2's fan keeps it below the fanless Nano; Movidius varies least");
        r
    }
}

/// Table VI experiment: cooling equipment and idle temperatures.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table6;

impl Experiment for Table6 {
    fn id(&self) -> &'static str {
        "table6"
    }

    fn title(&self) -> &'static str {
        "Table VI: cooling equipment and idle temperature"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            ["device", "heatsink", "fan", "idle_c", "paper_idle_c"],
        );
        for d in DEVICES {
            let spec = ThermalSpec::for_device(d);
            let sim = ThermalSim::new(d);
            r.push_row([
                d.name().to_string(),
                if spec.has_heatsink { "yes" } else { "no" }.to_string(),
                if spec.has_fan { "yes" } else { "no" }.to_string(),
                format!("{:.1}", sim.temp_c()),
                format!("{:.1}", spec.paper_idle_c),
            ]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi_shuts_down_and_only_rpi() {
        let r = Fig14.run();
        assert_eq!(r.cell("rpi3", "shutdown"), Some("yes"));
        for d in ["jetson-nano", "jetson-tx2", "edgetpu", "movidius-ncs"] {
            assert_eq!(r.cell(d, "shutdown"), Some("no"), "{d}");
        }
    }

    #[test]
    fn tx2_fan_activates_and_keeps_it_below_nano() {
        let r = Fig14.run();
        assert_eq!(r.cell("jetson-tx2", "fan"), Some("on"));
        let tx2: f64 = r.cell_f64("jetson-tx2", "steady_c").unwrap();
        let nano: f64 = r.cell_f64("jetson-nano", "steady_c").unwrap();
        assert!(tx2 < nano, "tx2 {tx2} vs nano {nano}");
    }

    #[test]
    fn movidius_has_smallest_rise() {
        let r = Fig14.run();
        // Peak rise, because the RPi's shutdown lets it cool back down.
        let rise = |d: &str| -> f64 {
            r.cell_f64(d, "peak_c").unwrap() - r.cell_f64(d, "idle_c").unwrap()
        };
        let mov = rise("movidius-ncs");
        for d in ["rpi3", "jetson-nano", "edgetpu"] {
            assert!(mov < rise(d), "{d}: movidius {mov} vs {}", rise(d));
        }
    }

    #[test]
    fn table6_idle_temps_match_paper() {
        let r = Table6.run();
        for row in r.rows() {
            let ours: f64 = row[3].parse().unwrap();
            let paper: f64 = row[4].parse().unwrap();
            assert!((ours - paper).abs() < 1.0, "{}: {ours} vs {paper}", row[0]);
        }
    }

    #[test]
    fn table6_equipment_matches_paper() {
        let r = Table6.run();
        assert_eq!(r.cell("rpi3", "heatsink"), Some("no"));
        assert_eq!(r.cell("jetson-tx2", "fan"), Some("yes"));
        assert_eq!(r.cell("jetson-nano", "fan"), Some("no"));
        assert_eq!(r.cell("movidius-ncs", "heatsink"), Some("yes"));
    }
}
