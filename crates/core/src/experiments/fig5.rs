//! Fig 5: software-stack profiles of PyTorch and TensorFlow on the
//! Raspberry Pi (30 inferences) and the Jetson TX2 (1000 inferences).

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_devices::Device;
use edgebench_frameworks::deploy::compile;
use edgebench_frameworks::{stack, Framework};
use edgebench_models::Model;

/// Fig 5 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig5;

/// The paper profiles 30 inferences on the RPi and 1000 on the TX2 (§VI-B3).
fn inferences_for(device: Device) -> usize {
    if device == Device::RaspberryPi3 {
        30
    } else {
        1000
    }
}

impl Experiment for Fig5 {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Fig 5: software-stack profile shares (%)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(self.title(), ["stack", "category", "share_%"]);
        for (fw, device, label) in [
            (Framework::PyTorch, Device::RaspberryPi3, "(a) pytorch/rpi"),
            (
                Framework::TensorFlow,
                Device::RaspberryPi3,
                "(b) tensorflow/rpi",
            ),
            (Framework::PyTorch, Device::JetsonTx2, "(c) pytorch/tx2"),
            (
                Framework::TensorFlow,
                Device::JetsonTx2,
                "(d) tensorflow/tx2",
            ),
        ] {
            let compiled =
                compile(fw, Model::ResNet18, device).expect("resnet-18 deploys everywhere");
            let prof = stack::profile_run(&compiled, inferences_for(device)).expect("profiles");
            for s in &prof.slices {
                r.push_row([
                    label.to_string(),
                    s.category.clone(),
                    format!("{:.1}", prof.percent(&s.category)),
                ]);
            }
        }
        r.push_note("paper: (a) conv2d 81% | (b) base_layer 38%, session_run 34% | (c) data transfer 39% | (d) base_layer 51%, session_run 13%");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(r: &Report, stack: &str, category: &str) -> f64 {
        r.rows()
            .iter()
            .find(|row| row[0] == stack && row[1] == category)
            .map(|row| row[2].parse().unwrap())
            .unwrap_or(0.0)
    }

    #[test]
    fn pytorch_rpi_is_conv_dominated() {
        let r = Fig5.run();
        assert!(share(&r, "(a) pytorch/rpi", "conv2d") > 50.0);
    }

    #[test]
    fn tensorflow_pays_graph_setup_on_both_hosts() {
        let r = Fig5.run();
        // RPi: 30-inference run can't amortize graph construction.
        assert!(share(&r, "(b) tensorflow/rpi", "graph_setup") > 10.0);
        // TX2: compute shrinks so setup still shows even over 1000 runs.
        assert!(share(&r, "(d) tensorflow/tx2", "graph_setup") > 5.0);
    }

    #[test]
    fn gpu_compute_share_is_smaller_than_cpu() {
        let r = Fig5.run();
        let cpu = share(&r, "(a) pytorch/rpi", "conv2d");
        let gpu = share(&r, "(c) pytorch/tx2", "conv2d");
        assert!(gpu < cpu, "gpu {gpu}% vs cpu {cpu}%");
    }

    #[test]
    fn tx2_pytorch_shows_data_transfer() {
        let r = Fig5.run();
        assert!(share(&r, "(c) pytorch/tx2", "data_transfer") > 5.0);
    }
}
