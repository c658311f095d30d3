//! Figs 3 & 4: cross-framework time per inference on the Raspberry Pi and
//! the Jetson TX2 (DarkNet, Caffe, TensorFlow, PyTorch).

use crate::experiments::{latency_ms, Experiment};
use crate::report::{fmt_ms, Report};
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

const MODELS: [Model; 7] = [
    Model::ResNet50,
    Model::ResNet101,
    Model::Xception,
    Model::MobileNetV2,
    Model::InceptionV4,
    Model::AlexNet,
    Model::Vgg16,
];

const FRAMEWORKS: [Framework; 4] = [
    Framework::DarkNet,
    Framework::Caffe,
    Framework::TensorFlow,
    Framework::PyTorch,
];

fn run_device(device: Device, title: &'static str, unit_scale: f64, unit: &str) -> Report {
    let mut r = Report::new(
        title,
        ["model", "darknet", "caffe", "tensorflow", "pytorch"].map(|c| {
            format!(
                "{c}{}",
                if c == "model" {
                    String::new()
                } else {
                    format!("_{unit}")
                }
            )
        }),
    );
    for m in MODELS {
        let mut row = vec![m.name().to_string()];
        for fw in FRAMEWORKS {
            use edgebench_frameworks::compat::{check, Barrier, Compat};
            let cell = match check(fw, m, device) {
                Compat::Unsupported(Barrier::MemoryError) => "mem-err".to_string(),
                Compat::Unsupported(_) => "n/a".to_string(),
                _ => match latency_ms(fw, m, device) {
                    Some(ms) => fmt_ms(ms * unit_scale),
                    None => "mem-err".to_string(),
                },
            };
            row.push(cell);
        }
        r.push_row(row);
    }
    r
}

/// Fig 3: the Raspberry Pi (seconds per inference).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig3;

impl Experiment for Fig3 {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "Fig 3: time per inference on RPi across frameworks (s)"
    }

    fn run(&self) -> Report {
        let mut r = run_device(Device::RaspberryPi3, self.title(), 1e-3, "s");
        r.push_note(
            "paper reference: mobilenet-v2 = 1.40 s (TF), 2.27 s (Caffe), 8.25 s (PyTorch)",
        );
        r.push_note(
            "paper: TF hits memory errors on AlexNet/VGG16; PyTorch survives via dynamic graph",
        );
        r
    }
}

/// Fig 4: the Jetson TX2 (milliseconds per inference).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig4;

impl Experiment for Fig4 {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "Fig 4: time per inference on Jetson TX2 across frameworks (ms)"
    }

    fn run(&self) -> Report {
        let mut r = run_device(Device::JetsonTx2, self.title(), 1.0, "ms");
        r.push_note("paper: PyTorch fastest on TX2; Caffe beats TF except MobileNet-v2");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_tensorflow_wins_on_rpi_where_it_runs() {
        let r = Fig3.run();
        for m in ["resnet-50", "mobilenet-v2", "inception-v4"] {
            let tf: f64 = r.cell_f64(m, "tensorflow_s").unwrap();
            let pt: f64 = r.cell_f64(m, "pytorch_s").unwrap();
            assert!(tf < pt, "{m}: tf {tf} pt {pt}");
        }
    }

    #[test]
    fn fig3_memory_errors_match_paper() {
        let r = Fig3.run();
        assert_eq!(r.cell("alexnet", "tensorflow_s"), Some("mem-err"));
        assert_eq!(r.cell("vgg16", "tensorflow_s"), Some("mem-err"));
        // PyTorch runs them (slowly).
        assert!(r.cell_f64("vgg16", "pytorch_s").is_some());
    }

    #[test]
    fn fig3_mobilenet_magnitudes_match_paper() {
        // Paper: 1.40 / 2.27 / 8.25 seconds.
        let r = Fig3.run();
        let tf = r.cell_f64("mobilenet-v2", "tensorflow_s").unwrap();
        let cf = r.cell_f64("mobilenet-v2", "caffe_s").unwrap();
        let pt = r.cell_f64("mobilenet-v2", "pytorch_s").unwrap();
        assert!((0.45..4.5).contains(&tf), "tf {tf}");
        assert!(cf > tf, "caffe {cf} slower than tf {tf}");
        assert!(pt > cf, "pytorch {pt} slower than caffe {cf}");
        assert!((2.5..25.0).contains(&pt), "pt {pt}");
    }

    #[test]
    fn fig4_pytorch_wins_on_tx2() {
        let r = Fig4.run();
        for m in ["resnet-50", "inception-v4", "vgg16"] {
            let pt: f64 = r.cell_f64(m, "pytorch_ms").unwrap();
            let tf: f64 = r.cell_f64(m, "tensorflow_ms").unwrap();
            let cf: f64 = r.cell_f64(m, "caffe_ms").unwrap();
            assert!(pt < tf && pt < cf, "{m}: pt {pt} tf {tf} caffe {cf}");
        }
    }

    #[test]
    fn fig4_caffe_vs_tf_crossover_at_mobilenet() {
        let r = Fig4.run();
        let cf: f64 = r.cell_f64("mobilenet-v2", "caffe_ms").unwrap();
        let tf: f64 = r.cell_f64("mobilenet-v2", "tensorflow_ms").unwrap();
        assert!(cf > tf, "caffe {cf} must lose to tf {tf} on mobilenet-v2");
        let cf50: f64 = r.cell_f64("resnet-50", "caffe_ms").unwrap();
        let tf50: f64 = r.cell_f64("resnet-50", "tensorflow_ms").unwrap();
        assert!(cf50 < tf50);
    }

    #[test]
    fn darknet_gaps_are_marked() {
        let r = Fig3.run();
        assert_eq!(r.cell("xception", "darknet_s"), Some("n/a"));
        assert!(r.cell_f64("resnet-50", "darknet_s").is_some());
    }
}
