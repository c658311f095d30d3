//! The deployment pipeline: model + framework + device → compiled model
//! with latency, energy and memory predictions.

use crate::compat::{self, Compat};
use crate::info::Framework;
use crate::passes;
use crate::profile::ExecProfile;
use edgebench_devices::perf::{PerfError, RooflineModel, Timing};
use edgebench_devices::power::PowerModel;
use edgebench_devices::Device;
use edgebench_graph::{DType, Graph, GraphError, MemoryPolicy, Op};
use edgebench_models::Model;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced by [`compile`] or [`CompiledModel::timing`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeployError {
    /// The (framework, model, device) combination cannot deploy (Table V).
    Incompatible(compat::Barrier),
    /// The timing model rejected the configuration.
    Perf(PerfError),
    /// The optimization pipeline failed to transform the graph.
    Pass(GraphError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Incompatible(b) => write!(f, "incompatible: {b}"),
            DeployError::Perf(e) => write!(f, "performance model: {e}"),
            DeployError::Pass(e) => write!(f, "optimization pass: {e}"),
        }
    }
}

impl Error for DeployError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeployError::Perf(e) => Some(e),
            DeployError::Pass(e) => Some(e),
            DeployError::Incompatible(_) => None,
        }
    }
}

impl From<PerfError> for DeployError {
    fn from(e: PerfError) -> Self {
        DeployError::Perf(e)
    }
}

impl From<GraphError> for DeployError {
    fn from(e: GraphError) -> Self {
        DeployError::Pass(e)
    }
}

/// A model deployed through a framework onto a device.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    framework: Framework,
    device: Device,
    graph: Graph,
    profile: ExecProfile,
    policy: MemoryPolicy,
    compat: Compat,
    batch: usize,
}

/// Compiles a zoo model through `fw` for `device`.
///
/// Applies the framework's deployment passes (freeze, fusion, precision
/// lowering) and checks Table V deployability.
///
/// # Errors
///
/// [`DeployError::Incompatible`] when the combination cannot run at all.
pub fn compile(fw: Framework, model: Model, device: Device) -> Result<CompiledModel, DeployError> {
    let verdict = compat::check(fw, model, device);
    if let Compat::Unsupported(b) = verdict {
        return Err(DeployError::Incompatible(b));
    }
    let graph = model.build();
    compile_graph_with_compat(fw, graph, device, verdict)
}

/// Compiles an arbitrary graph (no Table V model-specific rules applied).
///
/// # Errors
///
/// [`DeployError::Incompatible`] if the framework does not target the
/// device; [`DeployError::Pass`] if an optimization pass fails.
pub fn compile_graph(
    fw: Framework,
    graph: Graph,
    device: Device,
) -> Result<CompiledModel, DeployError> {
    if !compat::framework_targets_device(fw, device) {
        return Err(DeployError::Incompatible(compat::Barrier::WrongDevice));
    }
    compile_graph_with_compat(fw, graph, device, Compat::Supported)
}

fn compile_graph_with_compat(
    fw: Framework,
    graph: Graph,
    device: Device,
    verdict: Compat,
) -> Result<CompiledModel, DeployError> {
    let profile = ExecProfile::for_pair(fw, device)
        .ok_or(DeployError::Incompatible(compat::Barrier::WrongDevice))?;
    let mut g = graph;
    if profile.freeze {
        g = passes::freeze(&g)?;
    }
    if profile.fusion {
        g = passes::fuse_conv_bn_act(&g)?;
    }
    if profile.precision != DType::F32 {
        g = g.with_dtype(profile.precision);
    }
    let policy = match verdict {
        Compat::DynamicGraphFallback => MemoryPolicy::DynamicGraph,
        _ => profile.policy,
    };
    Ok(CompiledModel {
        framework: fw,
        device,
        graph: g,
        profile,
        policy,
        compat: verdict,
        batch: 1,
    })
}

impl CompiledModel {
    /// The framework this model was compiled with.
    pub(crate) fn framework(&self) -> Framework {
        self.framework
    }

    /// The target device.
    pub(crate) fn device(&self) -> Device {
        self.device
    }

    /// The transformed (deployed) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The execution profile in use.
    pub(crate) fn profile(&self) -> &ExecProfile {
        &self.profile
    }

    /// The Table V verdict this deployment was compiled under.
    pub fn compat(&self) -> &Compat {
        &self.compat
    }

    /// Re-lowers the deployed graph to `dtype` — the quantization step a
    /// degradation ladder takes (fp32 → fp16 → int8). Whether the device
    /// actually runs faster at the narrower precision is decided by the
    /// roofline model when timing is queried.
    pub fn with_precision(mut self, dtype: DType) -> Self {
        self.graph = self.graph.with_dtype(dtype);
        self
    }

    /// Sets the batch size (default 1 — the paper's edge regime).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        self.batch = batch;
        self
    }

    fn roofline(&self) -> RooflineModel {
        RooflineModel::for_device(self.device)
            .with_compute_scale(self.profile.compute_scale)
            .with_memory_scale(self.profile.memory_scale)
            .with_memory_policy(self.policy)
            .with_batch(self.batch)
    }

    /// Predicts one inference, with the full breakdown.
    ///
    /// # Errors
    ///
    /// [`DeployError::Perf`] when the configuration is infeasible (OOM /
    /// unsupported precision).
    pub fn timing(&self) -> Result<Timing, DeployError> {
        let rl = self.roofline();
        let dtype = self.graph.dtype();
        let stats = self.graph.stats();

        let footprint = RooflineModel::runtime_footprint(&stats, self.policy) * self.batch as u64;
        let capacity = self.device.spec().mem_capacity_bytes;
        // Accelerators stream weights from host memory; their device RAM
        // never holds the full runtime footprint.
        let host_managed = matches!(
            self.device.spec().category,
            edgebench_devices::DeviceCategory::AsicAccelerator
                | edgebench_devices::DeviceCategory::Fpga
        );
        let ratio = if host_managed {
            0.0
        } else {
            footprint as f64 / capacity as f64
        };
        let oom = !host_managed
            && match self.policy {
                MemoryPolicy::StaticGraph => footprint > capacity,
                MemoryPolicy::DynamicGraph => ratio > 1.6,
            };
        if oom {
            return Err(DeployError::Perf(PerfError::OutOfMemory {
                device: self.device.spec().name,
                required: footprint,
                available: capacity,
            }));
        }

        let mut compute_s = 0.0;
        let mut memory_s = 0.0;
        let mut by_op_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut n_dispatched = 0usize;
        for node in self.graph.nodes() {
            if matches!(node.op(), Op::Input { .. }) {
                continue;
            }
            let cost = edgebench_graph::stats::node_cost(&self.graph, node.id());
            let (mut c, m) = rl.node_time_s(&cost, dtype)?;
            c *= self.op_penalty(node.op());
            let t = c.max(m);
            compute_s += c;
            memory_s += t - c;
            *by_op_s.entry(node.op().name()).or_insert(0.0) += t;
            n_dispatched += 1;
        }
        // Static arenas either fit or fail; only dynamic allocation pages.
        let pressure = match self.policy {
            MemoryPolicy::StaticGraph => 1.0,
            MemoryPolicy::DynamicGraph => RooflineModel::pressure_factor(ratio),
        };
        let dispatch_s = n_dispatched as f64
            * self.device.spec().dispatch_overhead_s
            * self.profile.dispatch_scale;
        let io_s = self.device.spec().io_overhead_s + self.profile.transfer_s;
        let fixed = self.profile.fixed_s + self.profile.graph_setup_per_inference_s;
        let total_s = (compute_s + memory_s) * pressure + dispatch_s + io_s + fixed;
        Ok(Timing {
            compute_s,
            memory_s,
            dispatch_s,
            io_s,
            pressure_factor: pressure,
            total_s,
            by_op_s,
        })
    }

    /// Extra slowdown for operators the framework lacks tuned kernels for.
    fn op_penalty(&self, op: &Op) -> f64 {
        let depthwise = match op {
            Op::DepthwiseConv2d { .. } => true,
            Op::FusedConvBnAct { conv, .. } => matches!(**conv, Op::DepthwiseConv2d { .. }),
            _ => false,
        };
        if depthwise {
            self.profile.depthwise_penalty
        } else {
            1.0
        }
    }

    /// Predicted latency in milliseconds.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::timing`].
    pub fn latency_ms(&self) -> Result<f64, DeployError> {
        Ok(self.timing()?.total_ms())
    }

    /// Predicted energy per inference in millijoules (Fig 11's metric).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::timing`].
    pub fn energy_mj(&self) -> Result<f64, DeployError> {
        let t = self.timing()?;
        Ok(PowerModel::for_device(self.device).energy_per_inference_mj(t.total_s))
    }
}

/// Convenience: the best (lowest-latency) runnable framework for a model on
/// a device, among frameworks that target it.
pub fn best_framework(model: Model, device: Device) -> Option<(Framework, f64)> {
    Framework::all()
        .iter()
        .filter_map(|&fw| {
            let c = compile(fw, model, device).ok()?;
            let ms = c.latency_ms().ok()?;
            Some((fw, ms))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorrt_beats_pytorch_on_nano() {
        // Paper Fig 7: mean 4.1x speedup.
        let mut speedups = Vec::new();
        for &m in Model::fig2_set() {
            let pt = compile(Framework::PyTorch, m, Device::JetsonNano).unwrap();
            let rt = compile(Framework::TensorRt, m, Device::JetsonNano).unwrap();
            let s = pt.latency_ms().unwrap() / rt.latency_ms().unwrap();
            assert!(s > 1.3, "{m}: speedup {s}");
            speedups.push(s);
        }
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (2.0..8.0).contains(&mean),
            "mean speedup {mean} vs paper 4.1"
        );
    }

    #[test]
    fn tflite_beats_tensorflow_beats_pytorch_on_rpi() {
        // Paper Fig 8: TFLite 1.58x over TF, 4.53x over PyTorch (means).
        for m in [
            Model::ResNet18,
            Model::ResNet50,
            Model::MobileNetV2,
            Model::InceptionV4,
        ] {
            let tfl = compile(Framework::TfLite, m, Device::RaspberryPi3)
                .unwrap()
                .latency_ms()
                .unwrap();
            let tf = compile(Framework::TensorFlow, m, Device::RaspberryPi3)
                .unwrap()
                .latency_ms()
                .unwrap();
            let pt = compile(Framework::PyTorch, m, Device::RaspberryPi3)
                .unwrap()
                .latency_ms()
                .unwrap();
            assert!(tfl < tf, "{m}: tflite {tfl} vs tf {tf}");
            assert!(tf < pt, "{m}: tf {tf} vs pytorch {pt}");
        }
    }

    #[test]
    fn pytorch_beats_tensorflow_on_tx2_but_not_on_rpi() {
        // Paper §VI-B1's headline inversion.
        let m = Model::ResNet50;
        let pt_tx2 = compile(Framework::PyTorch, m, Device::JetsonTx2)
            .unwrap()
            .latency_ms()
            .unwrap();
        let tf_tx2 = compile(Framework::TensorFlow, m, Device::JetsonTx2)
            .unwrap()
            .latency_ms()
            .unwrap();
        assert!(pt_tx2 < tf_tx2);
        let pt_rpi = compile(Framework::PyTorch, m, Device::RaspberryPi3)
            .unwrap()
            .latency_ms()
            .unwrap();
        let tf_rpi = compile(Framework::TensorFlow, m, Device::RaspberryPi3)
            .unwrap()
            .latency_ms()
            .unwrap();
        assert!(tf_rpi < pt_rpi);
    }

    #[test]
    fn caffe_beats_tf_on_tx2_except_mobilenet() {
        // Paper §VI-B1: "the performance of Caffe is always better than
        // TensorFlow, except for MobileNet-v2."
        for m in [Model::ResNet50, Model::InceptionV4, Model::Vgg16] {
            let cf = compile(Framework::Caffe, m, Device::JetsonTx2)
                .unwrap()
                .latency_ms()
                .unwrap();
            let tf = compile(Framework::TensorFlow, m, Device::JetsonTx2)
                .unwrap()
                .latency_ms()
                .unwrap();
            assert!(cf < tf, "{m}: caffe {cf} vs tf {tf}");
        }
        let cf = compile(Framework::Caffe, Model::MobileNetV2, Device::JetsonTx2)
            .unwrap()
            .latency_ms()
            .unwrap();
        let tf = compile(Framework::TensorFlow, Model::MobileNetV2, Device::JetsonTx2)
            .unwrap()
            .latency_ms()
            .unwrap();
        assert!(cf > tf, "mobilenet-v2: caffe {cf} should lose to tf {tf}");
    }

    #[test]
    fn incompatible_deployments_fail_to_compile() {
        assert!(matches!(
            compile(Framework::TfLite, Model::C3d, Device::EdgeTpu),
            Err(DeployError::Incompatible(_))
        ));
        assert!(matches!(
            compile(Framework::TensorFlow, Model::Vgg16, Device::RaspberryPi3),
            Err(DeployError::Incompatible(compat::Barrier::MemoryError))
        ));
    }

    #[test]
    fn dynamic_fallback_is_an_order_of_magnitude_slower() {
        // Paper Table V footnote: `^` models "experience an order of
        // magnitude higher inference time".
        let vgg = compile(Framework::PyTorch, Model::Vgg16, Device::RaspberryPi3).unwrap();
        assert_eq!(*vgg.compat(), Compat::DynamicGraphFallback);
        let t = vgg.timing().unwrap();
        assert!(t.pressure_factor > 2.0, "pressure {}", t.pressure_factor);
    }

    #[test]
    fn best_framework_on_nano_is_tensorrt() {
        let (fw, _) = best_framework(Model::ResNet18, Device::JetsonNano).unwrap();
        assert_eq!(fw, Framework::TensorRt);
    }

    #[test]
    fn energy_tracks_latency_times_power() {
        let c = compile(Framework::PyTorch, Model::ResNet18, Device::JetsonTx2).unwrap();
        let t = c.timing().unwrap().total_s;
        let e = c.energy_mj().unwrap();
        let expected = Device::JetsonTx2.spec().avg_power_w * t * 1e3;
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn edgetpu_runs_mobilenet_in_single_digit_ms() {
        let c = compile(Framework::TfLite, Model::MobileNetV2, Device::EdgeTpu).unwrap();
        let ms = c.latency_ms().unwrap();
        assert!(ms < 10.0, "edgetpu mobilenet-v2 {ms} ms (paper: 2.9)");
    }
}
