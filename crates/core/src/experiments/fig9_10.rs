//! Figs 9 & 10: single-batch inference on HPC platforms vs the Jetson TX2,
//! all through PyTorch (the paper's common framework for this study).

use crate::experiments::{latency_ms, Experiment};
use crate::report::{fmt_ms, Report};
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

const MODELS: [Model; 13] = [
    Model::ResNet18,
    Model::ResNet50,
    Model::ResNet101,
    Model::MobileNetV2,
    Model::InceptionV4,
    Model::AlexNet,
    Model::Vgg16,
    Model::Vgg19,
    Model::VggS224,
    Model::VggS32,
    Model::YoloV3,
    Model::TinyYolo,
    Model::C3d,
];

const DEVICES: [Device; 5] = [
    Device::JetsonTx2,
    Device::XeonCpu,
    Device::GtxTitanX,
    Device::TitanXp,
    Device::Rtx2080,
];

/// Fig 9: absolute latency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig9;

impl Experiment for Fig9 {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "Fig 9: edge vs HPC, PyTorch time per inference (ms)"
    }

    fn run(&self) -> Report {
        let mut cols = vec!["model".to_string()];
        cols.extend(DEVICES.iter().map(|d| format!("{}_ms", d.name())));
        let mut r = Report::new(self.title(), cols);
        for m in MODELS {
            let mut row = vec![m.name().to_string()];
            for d in DEVICES {
                let ms = latency_ms(Framework::PyTorch, m, d).expect("hpc+tx2 run everything");
                row.push(fmt_ms(ms));
            }
            r.push_row(row);
        }
        r
    }
}

/// Fig 10: speedup of each platform over the Jetson TX2, with geomean.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "Fig 10: speedup over Jetson TX2 (PyTorch, single batch)"
    }

    fn run(&self) -> Report {
        let mut cols = vec!["model".to_string()];
        cols.extend(DEVICES.iter().skip(1).map(|d| format!("{}_x", d.name())));
        let mut r = Report::new(self.title(), cols);
        let mut logs: Vec<f64> = Vec::new();
        for m in MODELS {
            let tx2 = latency_ms(Framework::PyTorch, m, Device::JetsonTx2).expect("runs");
            let mut row = vec![m.name().to_string()];
            for d in DEVICES.iter().skip(1) {
                let ms = latency_ms(Framework::PyTorch, m, *d).expect("runs");
                let s = tx2 / ms;
                if d.spec().category == edgebench_devices::DeviceCategory::HpcGpu {
                    logs.push(s.ln());
                }
                row.push(format!("{s:.2}"));
            }
            r.push_row(row);
        }
        let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        r.push_note(format!(
            "geomean HPC-GPU speedup over TX2: {geomean:.2} (paper: ~3x average, geomean 2.99)"
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpc_gpus_beat_tx2_but_only_by_single_digits() {
        // The paper's headline: single-batch speedup over TX2 is "only 3x".
        let r = Fig10.run();
        let mut logs = Vec::new();
        for row in r.rows() {
            for col in ["gtx-titan-x_x", "titan-xp_x", "rtx-2080_x"] {
                let s: f64 = r.cell_f64(&row[0], col).unwrap();
                logs.push(s.ln());
            }
        }
        let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        assert!(
            (1.5..6.0).contains(&geomean),
            "geomean {geomean} (paper 2.99)"
        );
    }

    #[test]
    fn xeon_is_not_a_good_single_batch_machine() {
        // Paper: "on several benchmarks, the Xeon CPU performance is lower
        // than that of all platforms" — compute-bound models suffer.
        let r = Fig10.run();
        for m in ["resnet-50", "inception-v4", "c3d"] {
            let s: f64 = r.cell_f64(m, "xeon_x").unwrap();
            let g: f64 = r.cell_f64(m, "gtx-titan-x_x").unwrap();
            assert!(s < g, "{m}: xeon {s} should trail gtx {g}");
        }
    }

    #[test]
    fn memory_bound_models_gain_most_on_hpc_gpus() {
        // Paper: "benchmarks with large memory footprint such as VGG models
        // and C3D generally achieve higher speedups" (bigger caches/BW).
        let r = Fig10.run();
        let vgg: f64 = r.cell_f64("vgg16", "rtx-2080_x").unwrap();
        let res: f64 = r.cell_f64("resnet-50", "rtx-2080_x").unwrap();
        assert!(vgg > res, "vgg16 {vgg} vs resnet-50 {res}");
    }

    #[test]
    fn fig9_tx2_is_tens_of_ms() {
        let r = Fig9.run();
        let v: f64 = r.cell_f64("resnet-50", "jetson-tx2_ms").unwrap();
        assert!((15.0..160.0).contains(&v), "{v} (paper 54.3)");
    }
}
