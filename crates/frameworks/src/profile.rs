//! Calibrated execution profiles for (framework, device) pairs.
//!
//! A profile describes how a framework's software stack modulates the raw
//! roofline of a device: kernel quality (`compute_scale`), interpreter /
//! session dispatch cost (`dispatch_scale`), fixed per-inference overheads,
//! one-time costs (library loading, graph construction) and the precision
//! and passes the framework deploys with.
//!
//! ## Calibration
//!
//! The scale factors are calibrated so that the *shape* of the paper's
//! figures reproduces: which framework wins on which device, by roughly
//! what factor, and where crossovers fall. The provenance of each number is
//! commented inline; EXPERIMENTS.md tabulates paper-vs-model values for
//! every figure.

use crate::info::Framework;
use edgebench_devices::{Device, DeviceCategory};
use edgebench_graph::{DType, MemoryPolicy};

/// How a framework executes on a particular device.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExecProfile {
    /// Multiplier on attainable compute (kernel quality; 1 = device-tuned).
    pub compute_scale: f64,
    /// Multiplier on attainable bandwidth.
    pub memory_scale: f64,
    /// Multiplier on the device's per-op dispatch overhead.
    pub dispatch_scale: f64,
    /// Fixed per-inference overhead, seconds (session entry, Python glue).
    pub fixed_s: f64,
    /// Per-inference host↔device data movement (the GPU `.to()` transfer).
    pub transfer_s: f64,
    /// Extra slowdown on depthwise convolutions (frameworks without a
    /// dedicated depthwise kernel pay im2col per channel).
    pub depthwise_penalty: f64,
    /// Element type the framework deploys at on this device.
    pub precision: DType,
    /// Whether the deployment pipeline applies conv-bn-act fusion.
    pub fusion: bool,
    /// Whether the deployment pipeline freezes the graph (drops no-ops).
    pub freeze: bool,
    /// Activation allocation policy.
    pub policy: MemoryPolicy,
    /// One-time library/loading cost, seconds (Fig 5 "library loading").
    pub library_load_s: f64,
    /// One-time graph construction cost, seconds (Fig 5 "base_layer" /
    /// `model.__init__`); dynamic-graph frameworks instead pay
    /// [`ExecProfile::graph_setup_per_inference_s`].
    pub graph_setup_s: f64,
    /// Per-inference graph (re)construction for dynamic-graph frameworks.
    pub graph_setup_per_inference_s: f64,
}

impl ExecProfile {
    fn base(policy: MemoryPolicy) -> ExecProfile {
        ExecProfile {
            compute_scale: 1.0,
            memory_scale: 1.0,
            dispatch_scale: 1.0,
            fixed_s: 0.0,
            transfer_s: 0.0,
            depthwise_penalty: 1.0,
            precision: DType::F32,
            fusion: false,
            freeze: false,
            policy,
            library_load_s: 1.0,
            graph_setup_s: 0.0,
            graph_setup_per_inference_s: 0.0,
        }
    }

    /// The calibrated profile for `fw` running on `device`, or `None` if the
    /// framework does not target the device.
    pub(crate) fn for_pair(fw: Framework, device: Device) -> Option<ExecProfile> {
        if !crate::compat::framework_targets_device(fw, device) {
            return None;
        }
        let cat = device.spec().category;
        let on_gpu = device.spec().has_gpu;
        let policy = fw.info().memory_policy;
        let mut p = ExecProfile::base(policy);
        // CPUs are slower at everything one-time (library loads measured in
        // seconds on the RPi — paper Fig 5a/b).
        let slow_host = matches!(cat, DeviceCategory::IotEdge | DeviceCategory::Fpga);

        match fw {
            // TensorFlow 1.x: well-vectorized Eigen CPU kernels, but a
            // heavyweight session. On GPUs, static-graph feeding overheads
            // make it the *slowest* of the majors (paper §VI-B1: "the
            // overhead of using a static computation graph on GPU exceeds
            // its performance gains").
            Framework::TensorFlow | Framework::Keras => {
                if on_gpu {
                    p.compute_scale = 0.85;
                    p.dispatch_scale = 4.0;
                    p.fixed_s = 0.055;
                    p.transfer_s = 0.004;
                    p.graph_setup_s = 8.0;
                    p.library_load_s = 3.0;
                } else {
                    p.compute_scale = 0.9;
                    p.dispatch_scale = if slow_host { 80.0 } else { 8.0 };
                    p.fixed_s = if slow_host { 0.03 } else { 0.004 };
                    p.graph_setup_s = if slow_host { 20.0 } else { 2.0 };
                    p.library_load_s = if slow_host { 9.0 } else { 2.0 };
                }
            }
            // TFLite: frozen, fused flatbuffer graphs with a lean C++
            // interpreter. INT8 deployment — which only pays off on devices
            // with an INT8 path (EdgeTPU), reproducing §VI-B2 on the RPi.
            Framework::TfLite => {
                p.fusion = true;
                p.freeze = true;
                p.precision = DType::I8;
                p.compute_scale = 1.0;
                p.dispatch_scale = if slow_host { 25.0 } else { 2.0 };
                p.fixed_s = if slow_host { 0.008 } else { 0.002 };
                p.graph_setup_s = 0.4;
                p.library_load_s = if slow_host { 2.0 } else { 0.5 };
                if device == Device::EdgeTpu {
                    // The whole graph compiles into one on-chip program.
                    p.dispatch_scale = 1.0;
                    p.fixed_s = 0.001;
                }
            }
            // Caffe: solid C++ kernels, no fusion, and grouped convolution
            // implemented as a loop over groups — a depthwise layer with C
            // channels issues C tiny GEMMs. On a GPU that is C kernel
            // launches per layer, which is catastrophic (reproduces "Caffe
            // beats TF on TX2 except MobileNet-v2"); on a CPU it is merely
            // cache-unfriendly.
            Framework::Caffe => {
                p.depthwise_penalty = if on_gpu { 700.0 } else { 4.0 };
                if on_gpu {
                    p.compute_scale = 0.95;
                    p.dispatch_scale = 1.6;
                    p.fixed_s = 0.012;
                    p.transfer_s = 0.002;
                    p.graph_setup_s = 2.0;
                } else {
                    p.compute_scale = 0.35; // OpenBLAS poorly tuned on ARM
                    p.dispatch_scale = if slow_host { 60.0 } else { 4.0 };
                    p.fixed_s = if slow_host { 0.02 } else { 0.003 };
                    p.graph_setup_s = if slow_host { 6.0 } else { 1.0 };
                    p.library_load_s = if slow_host { 4.0 } else { 1.0 };
                }
            }
            // PyTorch: cuDNN-direct on GPUs (fastest there, §VI-B1), but
            // pre-NNPACK THNN kernels on ARM CPUs (slowest on the RPi,
            // Fig 3/8) and per-inference dynamic graph bookkeeping.
            Framework::PyTorch => {
                p.graph_setup_per_inference_s = if slow_host { 0.02 } else { 0.001 };
                if on_gpu {
                    p.compute_scale = if device == Device::JetsonNano {
                        0.55
                    } else {
                        1.0
                    };
                    p.dispatch_scale = 1.0;
                    p.fixed_s = 0.004;
                    p.transfer_s = 0.003;
                    p.library_load_s = 2.0;
                } else {
                    p.compute_scale = if slow_host { 0.28 } else { 0.7 };
                    p.depthwise_penalty = 6.0;
                    p.dispatch_scale = if slow_host { 420.0 } else { 10.0 };
                    p.fixed_s = if slow_host { 0.05 } else { 0.005 };
                    p.library_load_s = if slow_host { 6.0 } else { 1.5 };
                }
            }
            // TensorRT: fused, auto-tuned FP16 engines (INT8 where the GPU
            // has a fast path). The 4.1× mean speedup over PyTorch on the
            // Nano (Fig 7) comes from fusion + half precision + tuning.
            Framework::TensorRt => {
                p.fusion = true;
                p.freeze = true;
                p.precision = DType::F16;
                p.compute_scale = 1.15; // auto-tuned kernels beat stock cuDNN
                p.dispatch_scale = 0.5;
                p.fixed_s = 0.002;
                p.transfer_s = 0.001;
                p.graph_setup_s = 30.0; // engine build is expensive, one-time
                p.library_load_s = 1.5;
            }
            // DarkNet: plain C; no BLAS tuning on ARM, decent CUDA path.
            Framework::DarkNet => {
                if on_gpu {
                    p.compute_scale = 0.75;
                    p.dispatch_scale = 1.2;
                    p.fixed_s = 0.003;
                    p.transfer_s = 0.002;
                } else {
                    p.compute_scale = 0.4;
                    p.dispatch_scale = if slow_host { 30.0 } else { 3.0 };
                    p.fixed_s = if slow_host { 0.01 } else { 0.002 };
                }
                p.library_load_s = 0.2;
            }
            // NCSDK: hand-tuned FP16 graphs on the Myriad 2; models outside
            // the tuned set run at a fraction of the VPU's ability
            // (paper §VI-A: "Movidius models require careful fine-tuning by
            // experts, which in the case of new models has not been done").
            Framework::Ncsdk => {
                p.fusion = true;
                p.freeze = true;
                p.precision = DType::F16;
                p.compute_scale = 0.8;
                p.dispatch_scale = 1.0;
                p.graph_setup_s = 5.0;
                p.library_load_s = 1.0;
            }
            // TVM-VTA: INT8 FPGA overlay; non-optimized hardware mapping
            // (paper footnote 5: "a non-optimized hardware implementation
            // could be slower than its CPU-based implementations").
            Framework::TvmVta => {
                p.fusion = true;
                p.freeze = true;
                p.precision = DType::I8;
                p.compute_scale = 0.45;
                p.dispatch_scale = 4.0;
                p.graph_setup_s = 45.0; // JIT compile + overlay programming
                p.library_load_s = 5.0;
            }
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_exist_exactly_where_targeting_allows() {
        for &f in Framework::all() {
            for &d in Device::all() {
                let has = ExecProfile::for_pair(f, d).is_some();
                assert_eq!(
                    has,
                    crate::compat::framework_targets_device(f, d),
                    "{f} on {d}"
                );
            }
        }
    }

    #[test]
    fn pytorch_is_kernel_poor_on_rpi_but_tuned_on_tx2() {
        let rpi = ExecProfile::for_pair(Framework::PyTorch, Device::RaspberryPi3).unwrap();
        let tx2 = ExecProfile::for_pair(Framework::PyTorch, Device::JetsonTx2).unwrap();
        assert!(rpi.compute_scale < 0.5);
        assert!(tx2.compute_scale >= 1.0);
    }

    #[test]
    fn edge_specific_frameworks_fuse_and_freeze() {
        for f in [Framework::TfLite, Framework::TensorRt, Framework::Ncsdk] {
            let d = match f {
                Framework::Ncsdk => Device::MovidiusNcs,
                Framework::TensorRt => Device::JetsonNano,
                _ => Device::RaspberryPi3,
            };
            let p = ExecProfile::for_pair(f, d).unwrap();
            assert!(p.fusion && p.freeze, "{f}");
            assert_ne!(p.precision, DType::F32, "{f} deploys at low precision");
        }
    }

    #[test]
    fn tensorflow_pays_session_overhead_on_gpu() {
        let tf = ExecProfile::for_pair(Framework::TensorFlow, Device::JetsonTx2).unwrap();
        let pt = ExecProfile::for_pair(Framework::PyTorch, Device::JetsonTx2).unwrap();
        assert!(tf.fixed_s > 5.0 * pt.fixed_s);
        assert!(tf.dispatch_scale > pt.dispatch_scale);
    }

    #[test]
    fn caffe_lacks_a_depthwise_kernel() {
        let p = ExecProfile::for_pair(Framework::Caffe, Device::JetsonTx2).unwrap();
        assert!(p.depthwise_penalty > 5.0);
    }
}
