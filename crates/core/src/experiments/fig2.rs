//! Fig 2: time per inference on every edge device with its best-performing
//! framework.

use crate::experiments::Experiment;
use crate::report::{fmt_ms, Report};
use edgebench_devices::Device;
use edgebench_frameworks::deploy::compile;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

/// The frameworks the paper deployed on each platform (Table IV): the "best
/// performing framework" of Fig 2 is chosen among these. Notably TensorRT
/// was evaluated on the Nano only — TX2 results "are with PyTorch with no
/// optimization".
fn candidates(device: Device) -> &'static [Framework] {
    use Framework::*;
    match device {
        Device::RaspberryPi3 => &[TfLite, TensorFlow, Caffe, PyTorch, DarkNet],
        Device::JetsonTx2 => &[PyTorch, TensorFlow, Caffe, DarkNet],
        Device::JetsonNano => &[TensorRt, PyTorch],
        Device::EdgeTpu => &[TfLite],
        Device::MovidiusNcs => &[Ncsdk],
        _ => &[TvmVta],
    }
}

/// Best latency among the paper's candidate frameworks for a device.
fn best_ms(model: Model, device: Device) -> Option<f64> {
    candidates(device)
        .iter()
        .filter_map(|&fw| compile(fw, model, device).ok()?.latency_ms().ok())
        .min_by(f64::total_cmp)
}

/// Paper values (ms) where the figure's data labels are legible; `None`
/// where the model/platform pair is incompatible or the label ambiguous.
fn paper_ms(device: Device, model: Model) -> Option<f64> {
    use Device::*;
    use Model::*;
    let v = match (device, model) {
        (RaspberryPi3, ResNet18) => 870.0,
        (RaspberryPi3, ResNet50) => 2460.0,
        (RaspberryPi3, MobileNetV2) => 480.0,
        (RaspberryPi3, InceptionV4) => 5510.0,
        (RaspberryPi3, AlexNet) => 2801.7,
        (RaspberryPi3, Vgg16) => 16485.0,
        (RaspberryPi3, TinyYolo) => 3246.0,
        (JetsonTx2, ResNet18) => 26.5,
        (JetsonTx2, ResNet50) => 54.3,
        (JetsonTx2, MobileNetV2) => 40.1,
        (JetsonTx2, InceptionV4) => 106.2,
        (JetsonTx2, AlexNet) => 15.6,
        (JetsonTx2, Vgg16) => 87.7,
        (JetsonTx2, SsdMobileNetV1) => 41.6,
        (JetsonTx2, TinyYolo) => 107.9,
        (JetsonTx2, C3d) => 196.8,
        (JetsonNano, ResNet18) => 23.0,
        (JetsonNano, ResNet50) => 32.0,
        (JetsonNano, MobileNetV2) => 18.0,
        (JetsonNano, InceptionV4) => 95.0,
        (JetsonNano, AlexNet) => 46.0,
        (JetsonNano, Vgg16) => 92.0,
        (JetsonNano, SsdMobileNetV1) => 32.0,
        (JetsonNano, TinyYolo) => 42.0,
        (JetsonNano, C3d) => 229.0,
        (EdgeTpu, MobileNetV2) => 2.9,
        _ => return None,
    };
    Some(v)
}

/// Fig 2 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig2;

impl Experiment for Fig2 {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn title(&self) -> &'static str {
        "Fig 2: time per inference (ms), best framework per edge device"
    }

    fn run(&self) -> Report {
        let mut cols: Vec<String> = vec!["model".to_string()];
        for &d in Device::edge_set() {
            cols.push(d.name().to_string());
            cols.push(format!("{}(paper)", d.name()));
        }
        let mut r = Report::new(self.title(), cols);
        for &m in Model::fig2_set() {
            let mut row = vec![m.name().to_string()];
            for &d in Device::edge_set() {
                let ours = best_ms(m, d).map(fmt_ms).unwrap_or_else(|| "x".to_string());
                row.push(ours);
                row.push(
                    paper_ms(d, m)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            r.push_row(row);
        }
        r.push_note(
            "x = incompatible (Table V); paper cells '-' where the figure's label is not legible",
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_gpu_and_asic_devices_win() {
        // Paper: "In most cases, either GPU-based devices or EdgeTPU
        // provides the best performance."
        let r = Fig2.run();
        for m in ["resnet-50", "mobilenet-v2", "inception-v4"] {
            let rpi: f64 = r.cell_f64(m, "rpi3").unwrap();
            let nano: f64 = r.cell_f64(m, "jetson-nano").unwrap();
            assert!(nano < rpi / 5.0, "{m}: nano {nano} rpi {rpi}");
        }
    }

    #[test]
    fn fig2_shape_matches_paper_within_3x() {
        // Shape fidelity: every legible paper cell is matched within ~3x.
        let r = Fig2.run();
        for &d in Device::edge_set() {
            for &m in Model::fig2_set() {
                let (Some(ours), Some(paper)) = (r.cell_f64(m.name(), d.name()), paper_ms(d, m))
                else {
                    continue;
                };
                let ratio = ours / paper;
                assert!(
                    (1.0 / 3.5..=3.5).contains(&ratio),
                    "{m} on {d}: ours {ours} vs paper {paper} (ratio {ratio:.2})"
                );
            }
        }
    }

    #[test]
    fn fig2_incompatible_cells_are_marked() {
        let r = Fig2.run();
        // SSD on RPi is code-incompatible; C3D blocked on EdgeTPU.
        assert_eq!(r.cell("ssd-mobilenet-v1", "rpi3"), Some("x"));
        assert_eq!(r.cell("c3d", "edgetpu"), Some("x"));
    }
}
