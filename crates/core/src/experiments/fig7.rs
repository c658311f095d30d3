//! Fig 7: PyTorch vs TensorRT on the Jetson Nano.

use crate::experiments::{latency_ms, Experiment};
use crate::report::{fmt_ms, Report};
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;

/// Paper values in ms: (pytorch, tensorrt) per Fig 2/7 model.
pub(crate) fn paper_values(m: Model) -> Option<(f64, f64)> {
    use Model::*;
    Some(match m {
        ResNet18 => (141.3, 23.0),
        ResNet50 => (215.0, 32.0),
        MobileNetV2 => (118.4, 18.0),
        InceptionV4 => (292.5, 95.0),
        AlexNet => (132.1, 46.0),
        Vgg16 => (290.7, 92.0),
        SsdMobileNetV1 => (191.7, 32.0),
        TinyYolo => (123.8, 42.0),
        C3d => (555.4, 229.0),
        _ => return None,
    })
}

/// Fig 7 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig7;

impl Experiment for Fig7 {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "Fig 7: Jetson Nano, PyTorch vs TensorRT (ms)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model",
                "pytorch_ms",
                "tensorrt_ms",
                "speedup",
                "paper_pt_ms",
                "paper_trt_ms",
                "paper_speedup",
            ],
        );
        let mut speedups = Vec::new();
        for &m in Model::fig2_set() {
            let pt = latency_ms(Framework::PyTorch, m, Device::JetsonNano).expect("runs");
            let rt = latency_ms(Framework::TensorRt, m, Device::JetsonNano).expect("runs");
            let s = pt / rt;
            speedups.push(s);
            let (ppt, prt) = paper_values(m).expect("all fig2 models have paper values");
            r.push_row([
                m.name().to_string(),
                fmt_ms(pt),
                fmt_ms(rt),
                format!("{s:.2}"),
                fmt_ms(ppt),
                fmt_ms(prt),
                format!("{:.2}", ppt / prt),
            ]);
        }
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        r.push_note(format!("mean speedup {mean:.2} (paper: 4.10)"));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorrt_always_wins() {
        let r = Fig7.run();
        for row in r.rows() {
            let s: f64 = row[3].parse().unwrap();
            assert!(s > 1.0, "{}: {s}", row[0]);
        }
    }

    #[test]
    fn mean_speedup_in_paper_band() {
        let r = Fig7.run();
        let speedups: Vec<f64> = r.rows().iter().map(|row| row[3].parse().unwrap()).collect();
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!((2.0..8.0).contains(&mean), "mean {mean} vs paper 4.10");
    }

    #[test]
    fn big_memory_models_gain_less() {
        // Paper: "models with large memory footprints (AlexNet and VGG16)
        // ... achieve smaller speedups compared to other models."
        let r = Fig7.run();
        let s = |m: &str| -> f64 { r.cell_f64(m, "speedup").unwrap() };
        let small_models = (s("resnet-18") + s("resnet-50") + s("mobilenet-v2")) / 3.0;
        let big_models = (s("alexnet") + s("vgg16")) / 2.0;
        assert!(
            big_models < small_models,
            "big {big_models} small {small_models}"
        );
    }

    #[test]
    fn latencies_within_3x_of_paper() {
        let r = Fig7.run();
        for row in r.rows() {
            let (ours, paper): (f64, f64) = (row[2].parse().unwrap(), row[5].parse().unwrap());
            let ratio = ours / paper;
            assert!(
                (0.33..=3.0).contains(&ratio),
                "{}: trt {ours} vs paper {paper}",
                row[0]
            );
        }
    }
}
