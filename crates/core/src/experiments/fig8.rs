//! Fig 8: PyTorch vs TensorFlow vs TFLite on the Raspberry Pi.

use crate::experiments::{latency_ms, Experiment};
use crate::report::Report;
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

const MODELS: [Model; 5] = [
    Model::ResNet18,
    Model::ResNet50,
    Model::ResNet101,
    Model::MobileNetV2,
    Model::InceptionV4,
];

/// Paper values in seconds: (pytorch, tensorflow, tflite).
fn paper_values(m: Model) -> (f64, f64, f64) {
    use Model::*;
    match m {
        ResNet18 => (6.57, 0.99, 0.87),
        ResNet50 => (8.3, 3.06, 2.46),
        ResNet101 => (15.32, 13.32, 8.86),
        MobileNetV2 => (8.28, 1.4, 0.48),
        InceptionV4 => (13.84, 8.87, 5.51),
        _ => unreachable!("fig8 uses the five classification models"),
    }
}

/// Fig 8 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig8;

impl Experiment for Fig8 {
    fn id(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "Fig 8: RPi, PyTorch vs TensorFlow vs TFLite (s)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model",
                "pytorch_s",
                "tensorflow_s",
                "tflite_s",
                "speedup_vs_pt",
                "speedup_vs_tf",
                "paper_pt_s",
                "paper_tf_s",
                "paper_tflite_s",
            ],
        );
        let (mut spt, mut stf) = (Vec::new(), Vec::new());
        for m in MODELS {
            let pt = latency_ms(Framework::PyTorch, m, Device::RaspberryPi3).expect("runs") / 1e3;
            let tf =
                latency_ms(Framework::TensorFlow, m, Device::RaspberryPi3).expect("runs") / 1e3;
            let tfl = latency_ms(Framework::TfLite, m, Device::RaspberryPi3).expect("runs") / 1e3;
            spt.push(pt / tfl);
            stf.push(tf / tfl);
            let (ppt, ptf, ptfl) = paper_values(m);
            r.push_row([
                m.name().to_string(),
                format!("{pt:.2}"),
                format!("{tf:.2}"),
                format!("{tfl:.2}"),
                format!("{:.2}", pt / tfl),
                format!("{:.2}", tf / tfl),
                format!("{ppt:.2}"),
                format!("{ptf:.2}"),
                format!("{ptfl:.2}"),
            ]);
        }
        let mpt = spt.iter().sum::<f64>() / spt.len() as f64;
        let mtf = stf.iter().sum::<f64>() / stf.len() as f64;
        r.push_note(format!(
            "mean tflite speedup: {mpt:.2} over pytorch (paper 4.53), {mtf:.2} over tensorflow (paper 1.58)"
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tflite_is_fastest_on_every_model() {
        let r = Fig8.run();
        for m in MODELS {
            let tfl: f64 = r.cell_f64(m.name(), "tflite_s").unwrap();
            let tf: f64 = r.cell_f64(m.name(), "tensorflow_s").unwrap();
            let pt: f64 = r.cell_f64(m.name(), "pytorch_s").unwrap();
            assert!(tfl < tf && tfl < pt, "{m}: tflite {tfl} tf {tf} pt {pt}");
        }
    }

    #[test]
    fn mean_speedups_in_paper_bands() {
        let r = Fig8.run();
        let mut spt = Vec::new();
        let mut stf = Vec::new();
        for m in MODELS {
            spt.push(r.cell_f64(m.name(), "speedup_vs_pt").unwrap());
            stf.push(r.cell_f64(m.name(), "speedup_vs_tf").unwrap());
        }
        let mpt = spt.iter().sum::<f64>() / spt.len() as f64;
        let mtf = stf.iter().sum::<f64>() / stf.len() as f64;
        assert!((2.0..9.0).contains(&mpt), "vs pytorch {mpt} (paper 4.53)");
        assert!(
            (1.1..3.0).contains(&mtf),
            "vs tensorflow {mtf} (paper 1.58)"
        );
    }

    #[test]
    fn tflite_gains_most_on_mobilenet() {
        // Paper: MobileNet-v2's many fusable BN/activation nodes give
        // TFLite its largest TF-relative win (1.4 / 0.48 ≈ 2.9x).
        let r = Fig8.run();
        let mn: f64 = r.cell_f64("mobilenet-v2", "speedup_vs_tf").unwrap();
        let rn: f64 = r.cell_f64("resnet-18", "speedup_vs_tf").unwrap();
        assert!(mn > rn, "mobilenet {mn} vs resnet {rn}");
    }

    #[test]
    fn absolute_seconds_within_3x_of_paper() {
        let r = Fig8.run();
        for m in MODELS {
            let (ppt, ptf, ptfl) = paper_values(m);
            for (col, paper) in [
                ("pytorch_s", ppt),
                ("tensorflow_s", ptf),
                ("tflite_s", ptfl),
            ] {
                let ours: f64 = r.cell_f64(m.name(), col).unwrap();
                let ratio = ours / paper;
                assert!(
                    (0.25..=4.0).contains(&ratio),
                    "{m} {col}: {ours} vs {paper}"
                );
            }
        }
    }
}
