//! Figs 11 & 12: energy per inference across platforms, and the
//! latency-vs-active-power scatter.

use crate::experiments::Experiment;
use crate::report::{fmt_ms, Report};
use edgebench_devices::power::PowerModel;
use edgebench_devices::Device;
use edgebench_frameworks::compat::native_framework;
use edgebench_frameworks::deploy::compile;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

const MODELS: [Model; 4] = [
    Model::ResNet18,
    Model::ResNet50,
    Model::MobileNetV2,
    Model::InceptionV4,
];

const DEVICES: [Device; 6] = [
    Device::RaspberryPi3,
    Device::JetsonNano,
    Device::JetsonTx2,
    Device::EdgeTpu,
    Device::MovidiusNcs,
    Device::GtxTitanX,
];

fn fw_for(device: Device) -> Framework {
    match device {
        Device::GtxTitanX => Framework::PyTorch,
        Device::RaspberryPi3 => Framework::TensorFlow,
        d => native_framework(d),
    }
}

fn energy_mj(device: Device, model: Model) -> Option<f64> {
    compile(fw_for(device), model, device)
        .ok()?
        .energy_mj()
        .ok()
}

/// Fig 11: energy per inference (mJ, log scale in the paper).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Fig 11: energy per inference (mJ)"
    }

    fn run(&self) -> Report {
        let mut cols = vec!["model".to_string()];
        cols.extend(DEVICES.iter().map(|d| format!("{}_mj", d.name())));
        let mut r = Report::new(self.title(), cols);
        for m in MODELS {
            let mut row = vec![m.name().to_string()];
            for d in DEVICES {
                row.push(
                    energy_mj(d, m)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "x".to_string()),
                );
            }
            r.push_row(row);
        }
        r.push_note("paper anchors: edgetpu/mobilenet-v2 ≈ 11 mJ; tx2 0.3–1 J; nano 84 mJ–0.5 J; gtx 1–5 J; rpi highest");
        r
    }
}

/// Fig 12: inference time vs active power (both log in the paper).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig12;

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "Fig 12: inference time (ms) vs active power (W)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(self.title(), ["device", "model", "power_w", "latency_ms"]);
        for d in DEVICES {
            let p = PowerModel::for_device(d).active_w();
            for m in MODELS {
                let Some(ms) = compile(fw_for(d), m, d)
                    .ok()
                    .and_then(|c| c.latency_ms().ok())
                else {
                    continue;
                };
                r.push_row([
                    d.name().to_string(),
                    m.name().to_string(),
                    format!("{p:.2}"),
                    fmt_ms(ms),
                ]);
            }
        }
        r.push_note("paper: movidius = lowest power, edgetpu = lowest latency, nano balances both");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi_has_the_highest_energy_per_inference() {
        let r = Fig11.run();
        for m in MODELS {
            let rpi: f64 = r.cell_f64(m.name(), "rpi3_mj").unwrap();
            for d in DEVICES.iter().skip(1) {
                if let Some(v) = r.cell_f64(m.name(), &format!("{}_mj", d.name())) {
                    assert!(rpi > v, "{m}: rpi {rpi} vs {d} {v}");
                }
            }
        }
    }

    #[test]
    fn edgetpu_mobilenet_is_the_overall_minimum() {
        // Paper: "as low as 11 mJ per inference (MobileNet-v2 on EdgeTPU)".
        let r = Fig11.run();
        let v: f64 = r.cell_f64("mobilenet-v2", "edgetpu_mj").unwrap();
        assert!((3.0..40.0).contains(&v), "{v} mJ (paper 11)");
        for row in r.rows() {
            for cell in &row[1..] {
                if let Ok(x) = cell.parse::<f64>() {
                    assert!(x >= v, "{cell} beats edgetpu/mobilenet {v}");
                }
            }
        }
    }

    #[test]
    fn tx2_saves_about_5x_energy_vs_gtx() {
        // Paper: "an average of a 5x energy savings with respect to GTX
        // Titan X" for TX2.
        let r = Fig11.run();
        let mut ratios = Vec::new();
        for m in MODELS {
            let tx2: f64 = r.cell_f64(m.name(), "jetson-tx2_mj").unwrap();
            let gtx: f64 = r.cell_f64(m.name(), "gtx-titan-x_mj").unwrap();
            ratios.push(gtx / tx2);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((2.0..15.0).contains(&mean), "mean ratio {mean} (paper ~5)");
    }

    #[test]
    fn fig12_movidius_lowest_power_edgetpu_lowest_latency() {
        let r = Fig12.run();
        let mov_p: f64 = r
            .rows()
            .iter()
            .find(|row| row[0] == "movidius-ncs")
            .unwrap()[2]
            .parse()
            .unwrap();
        for row in r.rows() {
            if row[0] != "movidius-ncs" {
                let p: f64 = row[2].parse().unwrap();
                assert!(p > mov_p, "{}: {p} W vs movidius {mov_p} W", row[0]);
            }
        }
        let min_latency_row = r
            .rows()
            .iter()
            .min_by(|a, b| {
                a[3].parse::<f64>()
                    .unwrap()
                    .total_cmp(&b[3].parse::<f64>().unwrap())
            })
            .unwrap();
        assert_eq!(min_latency_row[0], "edgetpu");
    }
}
