//! The roofline timing model.
//!
//! Each operator of a graph takes
//! `max(flops / attained_compute, bytes / attained_bandwidth)` plus a
//! per-operator dispatch overhead; a fixed per-inference I/O cost (USB/PCIe/
//! DMA staging) and a memory-pressure penalty complete the model. Framework
//! effects (kernel quality, interpreter overhead, graph-setup amortization)
//! are layered on top by `edgebench-frameworks` through the three `scale_*`
//! knobs.

use crate::spec::{Device, DeviceSpec};
use edgebench_graph::{DType, Graph, MemoryPolicy, NodeCost};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced by the timing model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PerfError {
    /// The model's footprint exceeds device memory under the given policy.
    OutOfMemory {
        /// Device name.
        device: &'static str,
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
    /// The device has no execution path for the requested precision.
    UnsupportedPrecision {
        /// Device name.
        device: &'static str,
        /// The requested element type.
        dtype: DType,
    },
    /// A pipeline partition was requested over zero stages/devices.
    EmptyPipeline,
    /// The graph has no input node, so boundary transfer sizes are
    /// undefined.
    NoInput,
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::OutOfMemory {
                device,
                required,
                available,
            } => write!(
                f,
                "{device}: model needs {required} bytes but only {available} available"
            ),
            PerfError::UnsupportedPrecision { device, dtype } => {
                write!(f, "{device}: no execution path for {dtype}")
            }
            PerfError::EmptyPipeline => {
                write!(f, "cannot partition a pipeline over zero stages")
            }
            PerfError::NoInput => write!(f, "graph has no input node"),
        }
    }
}

impl Error for PerfError {}

/// Per-inference timing breakdown produced by [`RooflineModel::time_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Time attributable to arithmetic (compute-bound portion), seconds.
    pub compute_s: f64,
    /// Time attributable to memory traffic (memory-bound portion), seconds.
    pub memory_s: f64,
    /// Total per-operator dispatch overhead, seconds.
    pub dispatch_s: f64,
    /// Fixed per-inference I/O staging, seconds.
    pub io_s: f64,
    /// Memory-pressure slowdown multiplier applied (≥ 1).
    pub pressure_factor: f64,
    /// Total time per inference, seconds.
    pub total_s: f64,
    /// Roofline time (before overheads) grouped by operator mnemonic.
    pub by_op_s: BTreeMap<&'static str, f64>,
}

impl Timing {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }
}

/// Analytical roofline timing for one device.
///
/// Construct with [`RooflineModel::for_device`], then optionally scale with
/// the framework knobs. All scales default to 1.
#[derive(Debug, Clone)]
pub struct RooflineModel {
    spec: &'static DeviceSpec,
    /// Multiplier on attainable compute (framework kernel quality).
    scale_compute: f64,
    /// Multiplier on attainable bandwidth.
    scale_memory: f64,
    /// Memory allocation policy used for pressure/OOM decisions.
    policy: MemoryPolicy,
    /// Batch size (1 = the paper's single-batch regime).
    batch: usize,
}

impl RooflineModel {
    /// Creates the baseline model for a device.
    pub fn for_device(device: Device) -> Self {
        RooflineModel {
            spec: device.spec(),
            scale_compute: 1.0,
            scale_memory: 1.0,
            policy: MemoryPolicy::DynamicGraph,
            batch: 1,
        }
    }

    /// The device spec this model wraps.
    pub(crate) fn spec(&self) -> &'static DeviceSpec {
        self.spec
    }

    /// Scales attainable compute (values < 1 model poor kernels).
    pub fn with_compute_scale(mut self, s: f64) -> Self {
        self.scale_compute = s;
        self
    }

    /// Scales attainable memory bandwidth.
    pub fn with_memory_scale(mut self, s: f64) -> Self {
        self.scale_memory = s;
        self
    }

    /// Sets the memory allocation policy (static graphs OOM earlier).
    pub fn with_memory_policy(mut self, policy: MemoryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the batch size. Batching amortizes dispatch and raises
    /// utilization on wide devices (the HPC-GPU regime of Figs 9–10).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        self.batch = batch;
        self
    }

    /// Attained GMAC/s for the graph's element type.
    ///
    /// Devices without a native path for a narrower type fall back to their
    /// F32 rate — e.g. the Raspberry Pi runs TFLite INT8 models at FP32
    /// speed, reproducing the paper's §VI-B2 observation.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::UnsupportedPrecision`] if the device cannot
    /// execute the type at all (e.g. F32 on the EdgeTPU).
    pub fn attained_gmacs(&self, dtype: DType) -> Result<f64, PerfError> {
        let s = self.spec;
        let peak = match dtype {
            DType::F32 => {
                if s.peak_gmacs_f32 > 0.0 {
                    s.peak_gmacs_f32
                } else {
                    return Err(PerfError::UnsupportedPrecision {
                        device: s.name,
                        dtype,
                    });
                }
            }
            DType::F16 => s.peak_gmacs_f16.unwrap_or(s.peak_gmacs_f32),
            DType::I8 => s
                .peak_gmacs_i8
                .or(s.peak_gmacs_f16)
                .unwrap_or(s.peak_gmacs_f32),
        };
        if peak <= 0.0 {
            return Err(PerfError::UnsupportedPrecision {
                device: s.name,
                dtype,
            });
        }
        // Batching raises utilization on wide machines: single-batch leaves
        // most lanes idle, which spec.compute_eff encodes; additional batch
        // items recover throughput with diminishing returns.
        let batch_util = (self.batch as f64)
            .powf(0.6)
            .min(1.0 / s.compute_eff.max(1e-9));
        Ok(peak * s.compute_eff * self.scale_compute * batch_util)
    }

    /// Attained bandwidth in GB/s.
    pub(crate) fn attained_gbs(&self) -> f64 {
        self.spec.mem_bandwidth_gbs * self.spec.mem_eff * self.scale_memory
    }

    /// Roofline time for one operator (before overheads), seconds.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfError::UnsupportedPrecision`].
    pub fn node_time_s(&self, cost: &NodeCost, dtype: DType) -> Result<(f64, f64), PerfError> {
        let gmacs = self.attained_gmacs(dtype)?;
        let b = self.batch as f64;
        let compute = cost.flops as f64 * b / (gmacs * 1e9);
        // Weights are streamed once per batch; activations scale with batch.
        let act_bytes = (cost.input_bytes + cost.output_bytes) as f64 * b;
        let memory = (act_bytes + cost.weight_bytes as f64) / (self.attained_gbs() * 1e9);
        Ok((compute, memory))
    }

    /// Memory-pressure slowdown for a given footprint ratio.
    ///
    /// Below 60 % of RAM there is no penalty; between 60 % and 100 % the
    /// OS pages and the allocator thrashes, growing linearly to 9×; past
    /// 100 % a dynamic-graph runtime survives on swap at a further cost
    /// (static graphs will already have failed OOM).
    pub fn pressure_factor(ratio: f64) -> f64 {
        if ratio <= 0.6 {
            1.0
        } else if ratio <= 1.0 {
            1.0 + 8.0 * (ratio - 0.6) / 0.4
        } else {
            9.0 + 12.0 * (ratio - 1.0)
        }
    }

    /// Runtime memory footprint of a model under an allocation policy.
    ///
    /// Beyond the raw buffers, a deployed framework keeps a serialized copy
    /// of the graph alongside the deserialized weights (static graphs) and
    /// carries a ~100 MB interpreter/runtime baseline; these constants are
    /// what make TensorFlow's static graph exceed the Raspberry Pi's 1 GB
    /// for AlexNet/VGG16/C3D (paper Table V) while PyTorch's dynamic
    /// allocation survives with paging pressure.
    pub fn runtime_footprint(stats: &edgebench_graph::GraphStats, policy: MemoryPolicy) -> u64 {
        const RUNTIME_BASELINE: u64 = 100 << 20;
        match policy {
            MemoryPolicy::StaticGraph => {
                // Serialized graph + parsed GraphDef + session arena: ~2.5x
                // the raw weights, plus pre-allocated activation buffers.
                5 * stats.weight_bytes / 2 + 3 * stats.activation_bytes_total / 2 + RUNTIME_BASELINE
            }
            MemoryPolicy::DynamicGraph => {
                stats.weight_bytes + stats.peak_activation_bytes + RUNTIME_BASELINE
            }
        }
    }

    /// Times one inference of `graph` on this device.
    ///
    /// # Errors
    ///
    /// * [`PerfError::OutOfMemory`] — static-graph footprint exceeds RAM, or
    ///   even the dynamic working set exceeds 1.6× RAM (beyond swap).
    /// * [`PerfError::UnsupportedPrecision`] — see [`RooflineModel::attained_gmacs`].
    pub fn time_graph(&self, graph: &Graph) -> Result<Timing, PerfError> {
        let dtype = graph.dtype();
        let stats = graph.stats();
        let footprint = Self::runtime_footprint(&stats, self.policy) * self.batch as u64;
        let capacity = self.spec.mem_capacity_bytes;
        let ratio = footprint as f64 / capacity as f64;
        let oom = match self.policy {
            MemoryPolicy::StaticGraph => footprint > capacity,
            MemoryPolicy::DynamicGraph => ratio > 1.6,
        };
        if oom {
            return Err(PerfError::OutOfMemory {
                device: self.spec.name,
                required: footprint,
                available: capacity,
            });
        }

        let mut compute_s = 0.0;
        let mut memory_s = 0.0;
        let mut dispatch_s = 0.0;
        let mut by_op_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        for node in graph.nodes() {
            let cost = edgebench_graph::stats::node_cost(graph, node.id());
            let (c, m) = self.node_time_s(&cost, dtype)?;
            // The op takes max(c, m); attribute c to compute and whatever
            // the memory system fails to hide to memory.
            let t = c.max(m);
            compute_s += c;
            memory_s += t - c;
            *by_op_s.entry(node.op().name()).or_insert(0.0) += t;
            dispatch_s += self.spec.dispatch_overhead_s;
        }
        // Static arenas either fit or fail; only dynamic allocation pages.
        let pressure = match self.policy {
            MemoryPolicy::StaticGraph => 1.0,
            MemoryPolicy::DynamicGraph => Self::pressure_factor(ratio),
        };
        let roofline = compute_s + memory_s;
        let total_s = roofline * pressure + dispatch_s + self.spec.io_overhead_s;
        Ok(Timing {
            compute_s,
            memory_s,
            dispatch_s,
            io_s: self.spec.io_overhead_s,
            pressure_factor: pressure,
            total_s,
            by_op_s,
        })
    }

    /// Convenience: total seconds per inference.
    ///
    /// # Panics
    ///
    /// Panics on [`PerfError`]; use [`RooflineModel::time_graph`] to handle
    /// infeasible configurations.
    pub fn graph_time_s(&self, graph: &Graph) -> f64 {
        self.time_graph(graph)
            .unwrap_or_else(|e| panic!("timing failed: {e}"))
            .total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_models::Model;

    #[test]
    fn tx2_is_much_faster_than_rpi() {
        let g = Model::ResNet18.build();
        let rpi = RooflineModel::for_device(Device::RaspberryPi3).graph_time_s(&g);
        let tx2 = RooflineModel::for_device(Device::JetsonTx2).graph_time_s(&g);
        assert!(rpi > 10.0 * tx2, "rpi {rpi} tx2 {tx2}");
    }

    #[test]
    fn compute_intense_model_is_compute_bound_on_rpi() {
        let g = Model::ResNet50.build();
        let t = RooflineModel::for_device(Device::RaspberryPi3)
            .time_graph(&g)
            .unwrap();
        assert!(t.compute_s > t.memory_s);
    }

    #[test]
    fn fc_heavy_model_has_large_memory_share() {
        let g = Model::Vgg16.build();
        let t = RooflineModel::for_device(Device::GtxTitanX)
            .time_graph(&g)
            .unwrap();
        // VGG16's 138M weights stream through memory: memory share must be
        // a visible fraction on a bandwidth-limited single-batch run.
        assert!(t.memory_s > 0.05 * t.compute_s, "{t:?}");
    }

    #[test]
    fn vgg16_static_graph_ooms_on_rpi() {
        let g = Model::Vgg16.build();
        let err = RooflineModel::for_device(Device::RaspberryPi3)
            .with_memory_policy(MemoryPolicy::StaticGraph)
            .time_graph(&g)
            .unwrap_err();
        assert!(matches!(err, PerfError::OutOfMemory { .. }));
    }

    #[test]
    fn vgg16_dynamic_graph_survives_on_rpi_with_pressure() {
        let g = Model::Vgg16.build();
        let t = RooflineModel::for_device(Device::RaspberryPi3)
            .with_memory_policy(MemoryPolicy::DynamicGraph)
            .time_graph(&g)
            .unwrap();
        assert!(t.pressure_factor > 1.0, "pressure {}", t.pressure_factor);
    }

    #[test]
    fn f32_is_unsupported_on_edgetpu() {
        let g = Model::MobileNetV2.build();
        let err = RooflineModel::for_device(Device::EdgeTpu)
            .time_graph(&g)
            .unwrap_err();
        assert!(matches!(err, PerfError::UnsupportedPrecision { .. }));
    }

    #[test]
    fn int8_runs_fast_on_edgetpu() {
        let g = Model::MobileNetV2.build().with_dtype(DType::I8);
        let t = RooflineModel::for_device(Device::EdgeTpu)
            .time_graph(&g)
            .unwrap();
        assert!(t.total_ms() < 10.0, "edgetpu mobilenet {} ms", t.total_ms());
    }

    #[test]
    fn int8_does_not_speed_up_rpi() {
        // The RPi has no low-precision execution path: INT8 runs at F32
        // MAC rate, only the *bytes* shrink (paper §VI-B2).
        let g32 = Model::ResNet18.build();
        let g8 = g32.with_dtype(DType::I8);
        let m = RooflineModel::for_device(Device::RaspberryPi3);
        let a = m.attained_gmacs(DType::F32).unwrap();
        let b = m.attained_gmacs(DType::I8).unwrap();
        assert_eq!(a, b);
        let t32 = m.graph_time_s(&g32);
        let t8 = m.graph_time_s(&g8);
        assert!(t8 <= t32);
        assert!(t8 > 0.7 * t32, "only byte traffic shrinks: {t8} vs {t32}");
    }

    #[test]
    fn f16_doubles_attained_compute_on_nano() {
        let m = RooflineModel::for_device(Device::JetsonNano);
        let f32r = m.attained_gmacs(DType::F32).unwrap();
        let f16r = m.attained_gmacs(DType::F16).unwrap();
        assert!((f16r / f32r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn batching_raises_throughput_on_hpc_gpu() {
        let g = Model::ResNet50.build();
        let single = RooflineModel::for_device(Device::GtxTitanX).graph_time_s(&g);
        let batched = RooflineModel::for_device(Device::GtxTitanX)
            .with_batch(16)
            .graph_time_s(&g);
        let throughput_gain = 16.0 * single / batched;
        assert!(throughput_gain > 3.0, "gain {throughput_gain}");
    }

    #[test]
    fn pressure_factor_is_monotonic() {
        let mut prev = 0.0;
        for i in 0..40 {
            let r = i as f64 * 0.05;
            let p = RooflineModel::pressure_factor(r);
            assert!(p >= prev);
            prev = p;
        }
        assert_eq!(RooflineModel::pressure_factor(0.3), 1.0);
    }

    #[test]
    fn framework_scales_compose() {
        let g = Model::ResNet18.build();
        let base = RooflineModel::for_device(Device::JetsonTx2).graph_time_s(&g);
        let slowed = RooflineModel::for_device(Device::JetsonTx2)
            .with_compute_scale(0.5)
            .with_memory_scale(0.5)
            .graph_time_s(&g);
        assert!(slowed > base);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let _ = RooflineModel::for_device(Device::XeonCpu).with_batch(0);
    }
}
