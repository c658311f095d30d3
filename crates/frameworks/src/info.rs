//! The framework roster and their Table II feature matrix.

use edgebench_graph::MemoryPolicy;
use std::fmt;

/// The DNN frameworks characterized by the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Framework {
    /// TensorFlow 1.x: static computational graph, Python front end.
    TensorFlow,
    /// TensorFlow-Lite: frozen flatbuffer graphs for mobile/IoT.
    TfLite,
    /// Keras: high-level API over the TensorFlow engine.
    Keras,
    /// Caffe / Caffe2 (merged into PyTorch in 2018).
    Caffe,
    /// PyTorch: dynamic computation graphs.
    PyTorch,
    /// Nvidia TensorRT: inference-only, auto-tuned, mixed precision.
    TensorRt,
    /// DarkNet: standalone C framework (YOLO's home).
    DarkNet,
    /// Intel Movidius NCSDK for the Neural Compute Stick.
    Ncsdk,
    /// TVM-VTA / FINN FPGA stacks for the PYNQ board.
    TvmVta,
}

/// Which optimizations a framework officially implements (Table II, bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizationSupport {
    /// Weight quantization to common integer types.
    pub quantization: bool,
    /// Mixed-precision inferencing.
    pub mixed_precision: bool,
    /// Dynamic construction/deconstruction of the computation graph.
    pub dynamic_graph: bool,
    /// Ability to exploit pruned (sparse) weights for faster compute.
    pub pruning_exploitation: bool,
    /// Kernel fusion.
    pub fusion: bool,
    /// Auto-tuning to the hardware platform.
    pub auto_tuning: bool,
    /// Half-precision (FP16) inferencing.
    pub half_precision: bool,
}

/// Descriptive facts about a framework (Table II, top).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkInfo {
    /// Report name, e.g. `"tensorrt"`.
    pub name: &'static str,
    /// Main interfacing language.
    pub language: &'static str,
    /// Whether a company maintains it.
    pub industry_backed: bool,
    /// Whether it can train models (vs. inference-only).
    pub training: bool,
    /// Whether extra deployment steps (conversion/recompilation) are needed.
    pub extra_steps: bool,
    /// Whether it deploys to mobile devices.
    pub mobile_deployment: bool,
    /// Officially implemented optimizations.
    pub optimizations: OptimizationSupport,
    /// How the runtime allocates activation memory.
    pub memory_policy: MemoryPolicy,
}

impl Framework {
    /// All frameworks in Table II order.
    pub fn all() -> &'static [Framework] {
        use Framework::*;
        &[
            TensorFlow, TfLite, Keras, Caffe, PyTorch, TensorRt, DarkNet, Ncsdk, TvmVta,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// The Table II row for this framework.
    pub fn info(self) -> &'static FrameworkInfo {
        match self {
            Framework::TensorFlow => &TENSORFLOW,
            Framework::TfLite => &TFLITE,
            Framework::Keras => &KERAS,
            Framework::Caffe => &CAFFE,
            Framework::PyTorch => &PYTORCH,
            Framework::TensorRt => &TENSORRT,
            Framework::DarkNet => &DARKNET,
            Framework::Ncsdk => &NCSDK,
            Framework::TvmVta => &TVMVTA,
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

static TENSORFLOW: FrameworkInfo = FrameworkInfo {
    name: "tensorflow",
    language: "python",
    industry_backed: true,
    training: true,
    extra_steps: false,
    mobile_deployment: false,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: true,
        fusion: true, // experimental
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

static TFLITE: FrameworkInfo = FrameworkInfo {
    name: "tflite",
    language: "python",
    industry_backed: true,
    training: false,
    extra_steps: true, // conversion + optional quantization-aware training
    mobile_deployment: true,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: true,
        fusion: true,
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

static KERAS: FrameworkInfo = FrameworkInfo {
    name: "keras",
    language: "python",
    industry_backed: true,
    training: true,
    extra_steps: false,
    mobile_deployment: false,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: true,
        fusion: true,
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

static CAFFE: FrameworkInfo = FrameworkInfo {
    name: "caffe",
    language: "python",
    industry_backed: true,
    training: true,
    extra_steps: false,
    mobile_deployment: false, // partial (Caffe2)
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: false,
        fusion: false,
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

static PYTORCH: FrameworkInfo = FrameworkInfo {
    name: "pytorch",
    language: "python",
    industry_backed: true,
    training: true,
    extra_steps: false,
    mobile_deployment: false,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: true,
        pruning_exploitation: false,
        fusion: false,
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::DynamicGraph,
};

static TENSORRT: FrameworkInfo = FrameworkInfo {
    name: "tensorrt",
    language: "python",
    industry_backed: true,
    training: false,
    extra_steps: false,
    mobile_deployment: false,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: true,
        dynamic_graph: true,
        pruning_exploitation: true,
        fusion: true,
        auto_tuning: true,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::DynamicGraph,
};

static DARKNET: FrameworkInfo = FrameworkInfo {
    name: "darknet",
    language: "c",
    industry_backed: false,
    training: true,
    extra_steps: false,
    mobile_deployment: false,
    optimizations: OptimizationSupport::default_const(),
    memory_policy: MemoryPolicy::StaticGraph,
};

static NCSDK: FrameworkInfo = FrameworkInfo {
    name: "ncsdk",
    language: "python",
    industry_backed: true,
    training: false,
    extra_steps: true, // model recompilation for the VPU
    mobile_deployment: true,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: false,
        fusion: true,
        auto_tuning: false,
        half_precision: true,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

static TVMVTA: FrameworkInfo = FrameworkInfo {
    name: "tvm-vta",
    language: "python",
    industry_backed: false,
    training: false,
    extra_steps: true, // hardware-matched recompilation (and retraining for FINN)
    mobile_deployment: false,
    optimizations: OptimizationSupport {
        quantization: true,
        mixed_precision: false,
        dynamic_graph: false,
        pruning_exploitation: false,
        fusion: true,
        auto_tuning: true,
        half_precision: false,
    },
    memory_policy: MemoryPolicy::StaticGraph,
};

impl OptimizationSupport {
    /// `const`-context equivalent of `Default::default()`.
    const fn default_const() -> Self {
        OptimizationSupport {
            quantization: false,
            mixed_precision: false,
            dynamic_graph: false,
            pruning_exploitation: false,
            fusion: false,
            auto_tuning: false,
            half_precision: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_key_facts_hold() {
        // DarkNet is the only C, non-industry framework with no optimizations.
        let d = Framework::DarkNet.info();
        assert_eq!(d.language, "c");
        assert!(!d.industry_backed);
        assert_eq!(d.optimizations, OptimizationSupport::default());

        // Only TensorRT supports mixed precision and auto-tuning.
        for &f in Framework::all() {
            let o = f.info().optimizations;
            assert_eq!(o.mixed_precision, f == Framework::TensorRt, "{f}");
            assert_eq!(
                o.auto_tuning,
                f == Framework::TensorRt || f == Framework::TvmVta,
                "{f}"
            );
        }

        // PyTorch and TensorRT have dynamic graphs.
        assert!(Framework::PyTorch.info().optimizations.dynamic_graph);
        assert!(Framework::TensorRt.info().optimizations.dynamic_graph);
        assert!(!Framework::TensorFlow.info().optimizations.dynamic_graph);

        // TFLite and NCSDK require extra deployment steps.
        assert!(Framework::TfLite.info().extra_steps);
        assert!(Framework::Ncsdk.info().extra_steps);
        assert!(!Framework::PyTorch.info().extra_steps);
    }

    #[test]
    fn memory_policies_match_graph_semantics() {
        assert_eq!(
            Framework::PyTorch.info().memory_policy,
            MemoryPolicy::DynamicGraph
        );
        assert_eq!(
            Framework::TensorFlow.info().memory_policy,
            MemoryPolicy::StaticGraph
        );
    }

    #[test]
    fn quantization_is_industry_wide() {
        // Paper: "Quantization ... is implemented for all frameworks that
        // are supported by the industry."
        for &f in Framework::all() {
            if f.info().industry_backed {
                assert!(f.info().optimizations.quantization, "{f}");
            }
        }
    }
}
