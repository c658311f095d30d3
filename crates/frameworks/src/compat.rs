//! Deployability rules reproducing the paper's Table V (model × platform
//! compatibility matrix).
//!
//! Wherever possible the rules are *mechanical* rather than transcribed:
//!
//! * Memory errors and dynamic-graph fallbacks (`^` in the paper) follow
//!   from the runtime-footprint model versus device RAM, combined with the
//!   framework's allocation policy.
//! * EdgeTPU conversion barriers (`4`) mostly follow from the operator set:
//!   the EdgeTPU compiler cannot lower 3-D convolutions (C3D), LRN
//!   (AlexNet) or leaky activations (the YOLO family). ResNet-18's barrier
//!   is non-mechanical (no quantization-aware checkpoint was obtainable —
//!   paper §VI-A) and is encoded as such.
//! * The PYNQ stacks (TVM-VTA / FINN) implement a small-model whitelist
//!   (paper: "FINN and TVM have implemented small models — CifarNet and
//!   ResNet-18"); everything else spills BRAM (`^^`).
//! * SSD on the Raspberry Pi fails on a code incompatibility in its extra
//!   image-processing dependency (`O`), and C3D does the same on Movidius.

use crate::info::Framework;
use edgebench_devices::perf::RooflineModel;
use edgebench_devices::Device;
use edgebench_graph::{ActivationKind, MemoryPolicy, Op};
use edgebench_models::Model;
use std::fmt;

/// Why a deployment is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Barrier {
    /// Base-code incompatibility (paper's `O`).
    CodeIncompatibility(&'static str),
    /// The accelerator compiler cannot convert the model (paper's `4`).
    ConversionBarrier(String),
    /// FPGA resources cannot hold the model / unsupported ops (paper's `^^`).
    FpgaResourceLimit,
    /// Static-graph allocation exceeds device memory (paper's memory error).
    MemoryError,
    /// The framework does not target this device at all.
    WrongDevice,
}

impl fmt::Display for Barrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Barrier::CodeIncompatibility(what) => write!(f, "code incompatibility: {what}"),
            Barrier::ConversionBarrier(what) => write!(f, "conversion barrier: {what}"),
            Barrier::FpgaResourceLimit => write!(f, "fpga resource limit (bram spill)"),
            Barrier::MemoryError => write!(f, "memory error (static graph exceeds ram)"),
            Barrier::WrongDevice => write!(f, "framework does not target this device"),
        }
    }
}

/// Deployability verdict for (framework, model, device).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compat {
    /// Deploys and runs normally (paper's `✓`).
    Supported,
    /// Runs only through a dynamic computation graph with heavy memory
    /// pressure — order-of-magnitude slower (paper's `^`).
    DynamicGraphFallback,
    /// Cannot run.
    Unsupported(Barrier),
}

impl Compat {
    /// Whether the deployment can execute at all.
    pub fn is_runnable(&self) -> bool {
        !matches!(self, Compat::Unsupported(_))
    }

    /// The paper's Table V cell symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            Compat::Supported => "ok",
            Compat::DynamicGraphFallback => "dyn",
            Compat::Unsupported(Barrier::CodeIncompatibility(_)) => "code",
            Compat::Unsupported(Barrier::ConversionBarrier(_)) => "conv",
            Compat::Unsupported(Barrier::FpgaResourceLimit) => "bram",
            Compat::Unsupported(Barrier::MemoryError) => "oom",
            Compat::Unsupported(Barrier::WrongDevice) => "-",
        }
    }
}

/// Whether a framework can target a device at all.
///
/// Accelerators require their dedicated toolkits; the dedicated toolkits
/// target nothing else; general frameworks run on CPU/GPU platforms.
pub(crate) fn framework_targets_device(fw: Framework, device: Device) -> bool {
    use Device::*;
    match fw {
        Framework::Ncsdk => matches!(device, MovidiusNcs | Ncs2),
        Framework::TvmVta => device == PynqZ1,
        Framework::TensorRt => matches!(
            device,
            JetsonTx2 | JetsonNano | GtxTitanX | TitanXp | Rtx2080
        ),
        Framework::TfLite => !matches!(device, MovidiusNcs | Ncs2 | PynqZ1),
        _ => !matches!(device, EdgeTpu | MovidiusNcs | Ncs2 | PynqZ1),
    }
}

/// Ops the EdgeTPU compiler can lower (quantized TFLite operator subset).
pub(crate) fn edgetpu_op_check(op: &Op) -> Result<(), String> {
    match op {
        Op::Conv3d { .. } | Op::Pool3d { .. } => Err(format!("{op} has no EdgeTPU lowering")),
        Op::Lrn { .. } => Err("lrn is not supported by the edgetpu compiler".to_string()),
        Op::Activation { kind } if matches!(kind, ActivationKind::Leaky | ActivationKind::Tanh) => {
            Err(format!("activation {kind} cannot be quantized for edgetpu"))
        }
        Op::FusedConvBnAct { act, .. } if *act == ActivationKind::Leaky => {
            Err("leaky activation cannot be quantized for edgetpu".to_string())
        }
        Op::FusedDenseAct { act, .. }
            if matches!(act, ActivationKind::Leaky | ActivationKind::Tanh) =>
        {
            Err(format!("activation {act} cannot be quantized for edgetpu"))
        }
        _ => Ok(()),
    }
}

/// Models for which no quantization-aware training checkpoint could be
/// produced (paper §VI-A, barrier (ii)/(iv)).
fn edgetpu_missing_qat_checkpoint(model: Model) -> bool {
    matches!(model, Model::ResNet18)
}

/// Models the paper demonstrably converted to TFLite: the Fig 8 five plus
/// the EdgeTPU-deployed VGG16 and SSD (Table V). Converting further models
/// requires post-training quantization fine-tuning the paper "was unable to
/// find such parameters" for (§VI-A).
fn tflite_conversion_available(model: Model) -> bool {
    matches!(
        model,
        Model::ResNet18
            | Model::ResNet50
            | Model::ResNet101
            | Model::MobileNetV2
            | Model::InceptionV4
            | Model::Vgg16
            | Model::SsdMobileNetV1
            | Model::CifarNet
    )
}

/// Checks deployability of `model` through `fw` on `device`.
pub fn check(fw: Framework, model: Model, device: Device) -> Compat {
    if !framework_targets_device(fw, device) {
        return Compat::Unsupported(Barrier::WrongDevice);
    }

    // Hand-verified code incompatibilities from the paper.
    if device == Device::RaspberryPi3 && model == Model::SsdMobileNetV1 {
        return Compat::Unsupported(Barrier::CodeIncompatibility(
            "ssd's extra image-processing library fails on rpi",
        ));
    }
    if device == Device::MovidiusNcs && model == Model::C3d {
        return Compat::Unsupported(Barrier::CodeIncompatibility(
            "c3d base code does not compile with ncsdk",
        ));
    }

    // DarkNet is not industry-backed; the paper "were not able to
    // find/implement some complex models" for it (§VI-B1).
    if fw == Framework::DarkNet
        && matches!(
            model,
            Model::Xception
                | Model::MobileNetV2
                | Model::InceptionV4
                | Model::SsdMobileNetV1
                | Model::C3d
                | Model::VggS32
                | Model::VggS224
        )
    {
        return Compat::Unsupported(Barrier::ConversionBarrier(
            "no darknet implementation of this model".to_string(),
        ));
    }

    // TFLite needs a convertible, quantizable checkpoint anywhere it runs.
    if fw == Framework::TfLite && !tflite_conversion_available(model) {
        return Compat::Unsupported(Barrier::ConversionBarrier(
            "no quantized tflite conversion of this model obtainable".to_string(),
        ));
    }

    // EdgeTPU conversion barriers: operator set + quantization checkpoints.
    if device == Device::EdgeTpu {
        let graph = model.build();
        for node in graph.nodes() {
            if let Err(reason) = edgetpu_op_check(node.op()) {
                return Compat::Unsupported(Barrier::ConversionBarrier(reason));
            }
        }
        if edgetpu_missing_qat_checkpoint(model) {
            return Compat::Unsupported(Barrier::ConversionBarrier(
                "no quantization-aware training checkpoint obtainable".to_string(),
            ));
        }
    }

    // PYNQ: the FPGA stacks implement only small whitelisted models.
    if device == Device::PynqZ1 && !matches!(model, Model::ResNet18 | Model::CifarNet) {
        return Compat::Unsupported(Barrier::FpgaResourceLimit);
    }

    // Memory feasibility, mechanical: static-graph frameworks OOM when the
    // runtime footprint exceeds RAM; dynamic-graph frameworks fall back.
    // The footprint is evaluated at the precision the framework deploys at
    // (a quantized EdgeTPU model is a quarter the size of its F32 source).
    // Accelerator toolchains (EdgeTPU, NCSDK, the FPGA stacks) stream
    // weights from host memory, so the device-RAM feasibility rule does not
    // apply; their deployability is governed by the rules above.
    if matches!(
        device.spec().category,
        edgebench_devices::DeviceCategory::AsicAccelerator
            | edgebench_devices::DeviceCategory::Fpga
    ) {
        return Compat::Supported;
    }
    let precision = crate::profile::ExecProfile::for_pair(fw, device)
        .map(|p| p.precision)
        .unwrap_or(edgebench_graph::DType::F32);
    let graph = model.build().with_dtype(precision);
    let stats = graph.stats();
    let capacity = device.spec().mem_capacity_bytes;
    let static_fp = RooflineModel::runtime_footprint(&stats, MemoryPolicy::StaticGraph);
    let dynamic_fp = RooflineModel::runtime_footprint(&stats, MemoryPolicy::DynamicGraph);
    let policy = fw.info().memory_policy;
    match policy {
        MemoryPolicy::StaticGraph if static_fp > capacity => {
            Compat::Unsupported(Barrier::MemoryError)
        }
        MemoryPolicy::DynamicGraph if static_fp > capacity => {
            if dynamic_fp as f64 > capacity as f64 * 1.6 {
                Compat::Unsupported(Barrier::MemoryError)
            } else {
                Compat::DynamicGraphFallback
            }
        }
        _ => Compat::Supported,
    }
}

/// The framework each platform uses in the paper's Table V / Fig 2.
pub fn native_framework(device: Device) -> Framework {
    match device {
        Device::EdgeTpu => Framework::TfLite,
        Device::MovidiusNcs => Framework::Ncsdk,
        Device::PynqZ1 => Framework::TvmVta,
        Device::JetsonNano => Framework::TensorRt,
        _ => Framework::PyTorch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_rpi_column() {
        // AlexNet / VGG16 / C3D need the dynamic-graph fallback on the 1 GB
        // RPi; SSD hits a code incompatibility; the rest are supported.
        use Model::*;
        let d = Device::RaspberryPi3;
        for (m, want_dyn) in [
            (ResNet18, false),
            (ResNet50, false),
            (MobileNetV2, false),
            (InceptionV4, false),
            (AlexNet, true),
            (Vgg16, true),
            (TinyYolo, false),
            (C3d, true),
        ] {
            let c = check(Framework::PyTorch, m, d);
            if want_dyn {
                assert_eq!(c, Compat::DynamicGraphFallback, "{m}");
            } else {
                assert_eq!(c, Compat::Supported, "{m}");
            }
        }
        assert!(matches!(
            check(Framework::PyTorch, SsdMobileNetV1, d),
            Compat::Unsupported(Barrier::CodeIncompatibility(_))
        ));
    }

    #[test]
    fn tensorflow_memory_errors_where_pytorch_falls_back() {
        // Paper §VI-A: "PyTorch uses its dynamic graph to manage limited
        // memory availability, whereas TensorFlow fails to run such models."
        for m in [Model::AlexNet, Model::Vgg16, Model::C3d] {
            assert_eq!(
                check(Framework::TensorFlow, m, Device::RaspberryPi3),
                Compat::Unsupported(Barrier::MemoryError),
                "{m}"
            );
            assert_eq!(
                check(Framework::PyTorch, m, Device::RaspberryPi3),
                Compat::DynamicGraphFallback,
                "{m}"
            );
        }
    }

    #[test]
    fn table_v_jetsons_run_everything() {
        for &d in &[Device::JetsonTx2, Device::JetsonNano] {
            for &m in Model::fig2_set() {
                let fw = native_framework(d);
                assert_eq!(check(fw, m, d), Compat::Supported, "{m} on {d}");
            }
        }
    }

    #[test]
    fn table_v_edgetpu_column() {
        use Model::*;
        let d = Device::EdgeTpu;
        // Barriers: ResNet-18, AlexNet, TinyYolo, C3D.
        for m in [ResNet18, AlexNet, TinyYolo, C3d] {
            assert!(
                matches!(
                    check(Framework::TfLite, m, d),
                    Compat::Unsupported(Barrier::ConversionBarrier(_))
                ),
                "{m} should hit a conversion barrier"
            );
        }
        for m in [ResNet50, MobileNetV2, InceptionV4, Vgg16, SsdMobileNetV1] {
            assert_eq!(check(Framework::TfLite, m, d), Compat::Supported, "{m}");
        }
    }

    #[test]
    fn table_v_pynq_column() {
        assert_eq!(
            check(Framework::TvmVta, Model::ResNet18, Device::PynqZ1),
            Compat::Supported
        );
        assert_eq!(
            check(Framework::TvmVta, Model::CifarNet, Device::PynqZ1),
            Compat::Supported
        );
        for m in [
            Model::ResNet50,
            Model::MobileNetV2,
            Model::Vgg16,
            Model::C3d,
        ] {
            assert_eq!(
                check(Framework::TvmVta, m, Device::PynqZ1),
                Compat::Unsupported(Barrier::FpgaResourceLimit),
                "{m}"
            );
        }
    }

    #[test]
    fn movidius_runs_most_but_not_c3d() {
        assert_eq!(
            check(Framework::Ncsdk, Model::MobileNetV2, Device::MovidiusNcs),
            Compat::Supported
        );
        assert!(matches!(
            check(Framework::Ncsdk, Model::C3d, Device::MovidiusNcs),
            Compat::Unsupported(Barrier::CodeIncompatibility(_))
        ));
    }

    #[test]
    fn dedicated_toolkits_target_only_their_device() {
        assert!(framework_targets_device(
            Framework::Ncsdk,
            Device::MovidiusNcs
        ));
        assert!(!framework_targets_device(
            Framework::Ncsdk,
            Device::RaspberryPi3
        ));
        assert!(!framework_targets_device(
            Framework::PyTorch,
            Device::EdgeTpu
        ));
        assert!(framework_targets_device(Framework::TfLite, Device::EdgeTpu));
        assert!(!framework_targets_device(
            Framework::TensorRt,
            Device::RaspberryPi3
        ));
    }

    #[test]
    fn symbols_cover_all_verdicts() {
        assert_eq!(Compat::Supported.symbol(), "ok");
        assert_eq!(Compat::DynamicGraphFallback.symbol(), "dyn");
        assert_eq!(Compat::Unsupported(Barrier::MemoryError).symbol(), "oom");
        assert!(Compat::Supported.is_runnable());
        assert!(Compat::DynamicGraphFallback.is_runnable());
        assert!(!Compat::Unsupported(Barrier::WrongDevice).is_runnable());
    }
}
