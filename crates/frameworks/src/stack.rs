//! Software-stack profiling model (the paper's Fig 5).
//!
//! The paper runs cProfile under PyTorch and TensorFlow on the RPi and the
//! Jetson TX2 and groups low-level functions into categories. This module
//! produces the same breakdown from the deployment model: one-time costs
//! (library loading, graph construction) are amortized over the profiled
//! run length (30 inferences on the RPi, 1000 on TX2 — §VI-B3), and
//! per-inference time is split into the categories the paper names.

use crate::deploy::{CompiledModel, DeployError};
use crate::info::Framework;

/// One profile category with its share of total profiled time.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSlice {
    /// Category label, matching the paper's Fig 5 grouping.
    pub category: String,
    /// Seconds attributed over the whole profiled run.
    pub seconds: f64,
}

/// A full software-stack profile of a run of `n` inferences.
#[derive(Debug, Clone, PartialEq)]
pub struct StackProfile {
    /// Framework profiled.
    pub framework: Framework,
    /// Number of inferences in the run.
    pub inferences: usize,
    /// Slices, largest first.
    pub slices: Vec<StackSlice>,
}

impl StackProfile {
    /// Total profiled seconds.
    pub(crate) fn total_s(&self) -> f64 {
        self.slices.iter().map(|s| s.seconds).sum()
    }

    /// Percentage share of a category (0 if absent).
    pub fn percent(&self, category: &str) -> f64 {
        let total = self.total_s();
        if total == 0.0 {
            return 0.0;
        }
        100.0
            * self
                .slices
                .iter()
                .filter(|s| s.category == category)
                .map(|s| s.seconds)
                .sum::<f64>()
            / total
    }
}

/// Profiles `n` inferences of a compiled model, reproducing Fig 5's
/// category breakdown.
///
/// # Errors
///
/// Propagates timing-model errors for infeasible deployments.
pub fn profile_run(compiled: &CompiledModel, n: usize) -> Result<StackProfile, DeployError> {
    let timing = compiled.timing()?;
    let p = compiled.profile();
    let fw = compiled.framework();
    let nf = n as f64;

    let mut slices = Vec::new();
    // One-time costs.
    slices.push(StackSlice {
        category: "library_loading".to_string(),
        seconds: p.library_load_s,
    });
    if p.graph_setup_s > 0.0 {
        // TensorFlow's `base_layer` graph construction (Fig 5b/d); PyTorch's
        // `model.__init__` is tiny by comparison.
        slices.push(StackSlice {
            category: "graph_setup".to_string(),
            seconds: p.graph_setup_s,
        });
    }
    if p.graph_setup_per_inference_s > 0.0 {
        slices.push(StackSlice {
            category: "graph_setup".to_string(),
            seconds: p.graph_setup_per_inference_s * nf,
        });
    }
    // Per-inference data movement (the `_C._TensorBase.to()` slice that
    // dominates PyTorch's TX2 profile once compute shrinks — Fig 5c).
    if p.transfer_s > 0.0 || compiled.device().spec().io_overhead_s > 0.0 {
        slices.push(StackSlice {
            category: "data_transfer".to_string(),
            seconds: timing.io_s * nf,
        });
    }
    // Interpreter / session dispatch.
    slices.push(StackSlice {
        category: "dispatch".to_string(),
        seconds: (timing.dispatch_s + p.fixed_s) * nf,
    });
    // Compute, grouped per operator the way each framework's profile shows
    // it: TensorFlow hides kernels inside `TF_SessionRunCallable`; PyTorch
    // and the rest expose per-op primitives.
    let pressure = timing.pressure_factor;
    if matches!(fw, Framework::TensorFlow | Framework::Keras) {
        let compute: f64 = timing.by_op_s.values().sum();
        slices.push(StackSlice {
            category: "session_run".to_string(),
            seconds: compute * pressure * nf,
        });
    } else {
        for (op, s) in &timing.by_op_s {
            let category = match *op {
                "conv2d" | "conv3d" | "depthwise_conv2d" | "fused_conv_bn_act" => "conv2d",
                "dense" => "linear",
                "batch_norm" => "batch_norm",
                "activation" => "activation",
                _ => "other_ops",
            };
            slices.push(StackSlice {
                category: category.to_string(),
                seconds: s * pressure * nf,
            });
        }
    }
    // Merge duplicate categories and sort by weight.
    let mut merged: Vec<StackSlice> = Vec::new();
    for s in slices {
        if let Some(m) = merged.iter_mut().find(|m| m.category == s.category) {
            m.seconds += s.seconds;
        } else {
            merged.push(s);
        }
    }
    merged.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    Ok(StackProfile {
        framework: fw,
        inferences: n,
        slices: merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::compile;
    use edgebench_devices::Device;
    use edgebench_models::Model;

    #[test]
    fn pytorch_on_rpi_is_compute_dominated() {
        // Paper Fig 5a: PyTorch spends 96 % on compute, conv2d alone 81 %.
        let c = compile(Framework::PyTorch, Model::ResNet18, Device::RaspberryPi3).unwrap();
        let prof = profile_run(&c, 30).unwrap();
        let conv = prof.percent("conv2d");
        assert!(conv > 55.0, "conv2d share {conv}%");
        let setup = prof.percent("graph_setup");
        assert!(setup < 10.0, "dynamic graph setup is negligible: {setup}%");
    }

    #[test]
    fn tensorflow_on_rpi_pays_graph_construction() {
        // Paper Fig 5b: base_layer (graph construction) ~38-50 % over a
        // 30-inference profile, because it is a one-time cost that the
        // short run cannot amortize.
        let c = compile(Framework::TensorFlow, Model::ResNet18, Device::RaspberryPi3).unwrap();
        let prof = profile_run(&c, 30).unwrap();
        let setup = prof.percent("graph_setup") + prof.percent("library_loading");
        assert!((20.0..80.0).contains(&setup), "one-time share {setup}%");
        assert!(prof.percent("session_run") > 10.0);
    }

    #[test]
    fn gpu_shifts_pytorch_profile_from_compute_to_overheads() {
        // Paper Fig 5c vs 5a: on TX2 the GPU shrinks compute so data
        // transfer and setup dominate.
        let rpi = profile_run(
            &compile(Framework::PyTorch, Model::ResNet18, Device::RaspberryPi3).unwrap(),
            30,
        )
        .unwrap();
        let tx2 = profile_run(
            &compile(Framework::PyTorch, Model::ResNet18, Device::JetsonTx2).unwrap(),
            1000,
        )
        .unwrap();
        assert!(tx2.percent("conv2d") < rpi.percent("conv2d"));
        assert!(tx2.percent("data_transfer") > rpi.percent("data_transfer"));
    }

    #[test]
    fn longer_runs_amortize_one_time_costs() {
        let c = compile(Framework::TensorFlow, Model::ResNet18, Device::JetsonTx2).unwrap();
        let short = profile_run(&c, 10).unwrap();
        let long = profile_run(&c, 10_000).unwrap();
        assert!(long.percent("graph_setup") < short.percent("graph_setup"));
    }

    #[test]
    fn percentages_sum_to_100() {
        let c = compile(Framework::PyTorch, Model::MobileNetV2, Device::JetsonTx2).unwrap();
        let prof = profile_run(&c, 100).unwrap();
        let sum: f64 = prof.slices.iter().map(|s| prof.percent(&s.category)).sum();
        assert!((sum - 100.0).abs() < 1e-6, "{sum}");
    }
}
