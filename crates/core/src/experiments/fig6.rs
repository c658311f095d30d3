//! Fig 6: TensorFlow vs PyTorch single-batch latency on the GTX Titan X.

use crate::experiments::{latency_ms, Experiment};
use crate::report::{fmt_ms, Report};
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

const MODELS: [Model; 4] = [
    Model::ResNet50,
    Model::MobileNetV2,
    Model::Vgg16,
    Model::Vgg19,
];

/// Fig 6 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "Fig 6: GTX Titan X, TensorFlow vs PyTorch (ms)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            ["model", "pytorch_ms", "tensorflow_ms", "speedup"],
        );
        for m in MODELS {
            let pt = latency_ms(Framework::PyTorch, m, Device::GtxTitanX).expect("runs");
            let tf = latency_ms(Framework::TensorFlow, m, Device::GtxTitanX).expect("runs");
            r.push_row([
                m.name().to_string(),
                fmt_ms(pt),
                fmt_ms(tf),
                format!("{:.2}", tf / pt),
            ]);
        }
        r.push_note("paper: TF behaves the same on the HPC GPU as on TX2 — slower than PyTorch");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pytorch_wins_on_the_hpc_gpu_too() {
        let r = Fig6.run();
        for m in MODELS {
            let s: f64 = r.cell_f64(m.name(), "speedup").unwrap();
            assert!(s > 1.0, "{m}: tf/pt speedup {s}");
            assert!(s < 30.0, "{m}: gap implausibly large ({s})");
        }
    }

    #[test]
    fn latencies_are_hpc_scale() {
        // Paper Fig 6 y-axis: tens of ms.
        let r = Fig6.run();
        let pt: f64 = r.cell_f64("resnet-50", "pytorch_ms").unwrap();
        assert!((2.0..60.0).contains(&pt), "{pt}");
    }
}
