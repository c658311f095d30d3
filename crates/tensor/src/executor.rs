//! The graph interpreter: runs an [`edgebench_graph::Graph`] numerically
//! with deterministic synthetic weights.

use crate::gemm::{self, ConvAlgo, Epilogue, GemmScratch, PackedPanels};
use crate::kernels;
use crate::quant::fake_quantize_slice;
use crate::simd::{KernelKind, MR, NR};
use crate::{ExecError, Tensor};
use edgebench_graph::{ActivationKind, Graph, Node, Op, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::TryReserveError;
use std::sync::Mutex;

/// Numeric precision the executor simulates.
///
/// * `F32` — plain single precision.
/// * `F16` — every weight and every operator output is rounded through
///   binary16 (round-to-nearest-even), emulating half-precision pipelines.
/// * `Int8` — every weight and every operator output is rounded through an
///   8-bit affine grid ("fake quantization", the numerics TFLite's
///   post-training quantization produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE-754 single precision.
    #[default]
    F32,
    /// Emulated IEEE-754 half precision.
    F16,
    /// Simulated affine INT8.
    Int8,
}

/// Deterministic synthetic-weight generator.
///
/// Weights are keyed by *node name* (not id), so structural graph
/// transformations that preserve names — e.g. the fusion pass in
/// `edgebench-frameworks` — see identical weights before and after, making
/// numerical-equivalence testing possible. Batch-norm parameters are keyed
/// by the *producing* node's name for the same reason.
#[derive(Debug, Clone)]
pub struct WeightStore {
    seed: u64,
    sparsity: f32,
}

impl WeightStore {
    /// Creates a store with the given master seed.
    pub(crate) fn new(seed: u64) -> Self {
        WeightStore {
            seed,
            sparsity: 0.0,
        }
    }

    /// Returns a store that magnitude-prunes every generated weight tensor
    /// to the given sparsity (fraction of weights zeroed, smallest first) —
    /// the synthetic stand-in for a pruned checkpoint (paper §III-B /
    /// Table II pruning rows).
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is not in `[0, 1)`.
    pub(crate) fn with_sparsity(mut self, sparsity: f32) -> Self {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
        self.sparsity = sparsity;
        self
    }

    /// Zeroes exactly the `⌊len · sparsity⌋` smallest-magnitude elements of
    /// `t` in place. Magnitude ties are broken by element index, so the
    /// zeroed set is deterministic and the achieved sparsity never
    /// overshoots the request (a threshold sweep would zero *every* element
    /// tying the cut-off value).
    fn prune(&self, t: &mut Tensor) -> Result<(), TryReserveError> {
        if self.sparsity <= 0.0 || t.is_empty() {
            return Ok(());
        }
        let data = t.data_mut();
        let k = ((data.len() as f32) * self.sparsity) as usize;
        if k == 0 {
            return Ok(());
        }
        let mut order = Vec::new();
        order.try_reserve_exact(data.len())?;
        order.extend(0..data.len());
        order.select_nth_unstable_by(k - 1, |&a, &b| {
            data[a].abs().total_cmp(&data[b].abs()).then(a.cmp(&b))
        });
        for &i in &order[..k] {
            data[i] = 0.0;
        }
        Ok(())
    }

    fn key_seed(&self, key: &str) -> u64 {
        // FNV-1a over the key, mixed with the master seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The weights for `key` in natural row-major order, He-scaled: value
    /// `i` is `(u_i − 0.5) · scale` with `u_i` the key's `i`-th uniform
    /// draw — [`Tensor::random`]'s values, scaled in the same expression
    /// so no second pass touches them.
    fn weight_values(&self, key: &str, fan_in: usize) -> impl Iterator<Item = f32> {
        let mut rng = StdRng::seed_from_u64(self.key_seed(key));
        let scale = (24.0 / fan_in.max(1) as f32).sqrt();
        std::iter::repeat_with(move || (rng.gen::<f32>() - 0.5) * scale)
    }

    /// A weight tensor for `key`, scaled to variance `2 / fan_in`
    /// (He initialization) so deep nets keep stable activation magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor cannot be allocated.
    pub fn weight(&self, key: &str, shape: Vec<usize>, fan_in: usize) -> Tensor {
        self.try_weight(key, shape, fan_in)
            .unwrap_or_else(|e| panic!("weight {key}: {e}"))
    }

    /// [`WeightStore::weight`], returning the allocator's error instead of
    /// aborting.
    fn try_weight(
        &self,
        key: &str,
        shape: Vec<usize>,
        fan_in: usize,
    ) -> Result<Tensor, TryReserveError> {
        let shape = TensorShape::from(shape);
        let mut data = Vec::new();
        data.try_reserve_exact(shape.num_elements())?;
        data.extend(self.weight_values(key, fan_in).take(shape.num_elements()));
        let mut t = Tensor::from_vec(shape, data);
        self.prune(&mut t)?;
        Ok(t)
    }

    /// The `[rows×k]` weight matrix for `key` (the natural layout of
    /// [`WeightStore::weight`] flattened to two dimensions), generated
    /// straight into `width`-row GEMM panels. Pruning ranks the whole
    /// matrix, so a pruned store generates and prunes it in natural order
    /// first and interleaves the result; the natural copy is dropped.
    fn packed_weight(
        &self,
        key: &str,
        (rows, k): (usize, usize),
        fan_in: usize,
        width: usize,
    ) -> Result<PackedPanels, TryReserveError> {
        if self.sparsity > 0.0 {
            let t = self.try_weight(key, vec![rows, k], fan_in)?;
            let mut panels = t.data().chunks(width * k);
            return PackedPanels::try_generate(rows, k, width, |panel_rows| {
                panel_rows.copy_from_slice(panels.next().expect("one chunk per panel"));
            });
        }
        let mut values = self.weight_values(key, fan_in);
        PackedPanels::try_generate(rows, k, width, |panel_rows| {
            for (slot, v) in panel_rows.iter_mut().zip(&mut values) {
                *slot = v;
            }
        })
    }

    /// A bias vector for `key` with small values.
    pub fn bias(&self, key: &str, len: usize) -> Vec<f32> {
        let t = Tensor::random([len], self.key_seed(key).wrapping_add(1));
        t.data().iter().map(|v| v * 0.02).collect()
    }

    /// Batch-norm scale (`gamma ≈ 1`) and shift (`beta ≈ 0`) for `key`.
    pub(crate) fn bn_params(&self, key: &str, channels: usize) -> (Vec<f32>, Vec<f32>) {
        let g = Tensor::random([channels], self.key_seed(key).wrapping_add(2));
        let b = Tensor::random([channels], self.key_seed(key).wrapping_add(3));
        (
            g.data().iter().map(|v| 1.0 + 0.2 * v).collect(),
            b.data().iter().map(|v| 0.1 * v).collect(),
        )
    }
}

/// Execution statistics collected by [`Executor::run_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Peak bytes of simultaneously live activation tensors.
    pub peak_live_bytes: usize,
    /// Number of operator invocations executed.
    pub ops_executed: usize,
}

/// Per-node activation hook: invoked with `(node_index, output)` after
/// each node's output is lowered to the run precision and before any
/// downstream consumer reads it. The SDC defense layer
/// ([`crate::integrity`]) builds its activation guards and injection
/// campaigns on this; an observer error aborts the run.
type NodeObserver<'a> = dyn FnMut(usize, &mut Tensor) -> Result<(), ExecError> + 'a;

/// Per-run scratch memory: retired activation buffers, GEMM packing
/// buffers, and the interpreter's bookkeeping vectors, all reused across
/// inferences so steady-state execution does no heap allocation.
///
/// Every kernel that writes into an arena tensor overwrites *all* of its
/// elements, so recycled buffers never need zeroing.
#[derive(Debug, Default)]
struct Arena {
    /// Retired activation buffers, available for reuse (best fit wins).
    free: Vec<Vec<f32>>,
    /// GEMM packing + im2col scratch.
    gemm: GemmScratch,
    /// Per-node activation slots, recycled between runs.
    slots: Vec<Option<Tensor>>,
    /// Per-node last-consumer indices, recycled between runs.
    last_use: Vec<usize>,
    /// Per-node live byte counts for peak accounting, recycled between runs.
    lives: Vec<usize>,
}

impl Arena {
    /// Hands out a tensor of `shape`, reusing the smallest retired buffer
    /// whose capacity suffices. Contents are unspecified — the caller must
    /// overwrite every element.
    fn take(&mut self, shape: &TensorShape) -> Tensor {
        let n = shape.num_elements();
        let mut best: Option<(usize, usize)> = None; // (capacity, index)
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= n && best.is_none_or(|(bc, _)| cap < bc) {
                best = Some((cap, i));
            }
        }
        match best {
            Some((_, i)) => {
                let mut v = self.free.swap_remove(i);
                v.resize(n, 0.0);
                Tensor::from_vec(shape.clone(), v)
            }
            None => Tensor::from_vec(shape.clone(), vec![0.0; n]),
        }
    }

    /// Returns a dead tensor's buffer to the free list.
    fn recycle(&mut self, t: Tensor) {
        self.free.push(t.into_vec());
    }
}

/// A node's first input as the interpreter hands it to the dispatcher:
/// either owned (the producing slot was stolen because this node is its
/// last consumer, enabling in-place execution) or borrowed.
enum First<'a> {
    Owned(Tensor),
    Borrowed(&'a Tensor),
}

impl First<'_> {
    fn tensor(&self) -> &Tensor {
        match self {
            First::Owned(t) => t,
            First::Borrowed(t) => t,
        }
    }

    /// Converts into an owned tensor an in-place kernel may mutate; the
    /// borrowed case copies into an arena buffer (the producer has other
    /// consumers left).
    fn into_tensor(self, arena: &mut Arena) -> Tensor {
        match self {
            First::Owned(t) => t,
            First::Borrowed(t) => {
                let mut fresh = arena.take(t.shape());
                fresh.data_mut().copy_from_slice(t.data());
                fresh
            }
        }
    }
}

/// A node's cached weights, in the layout its kernel reads.
#[derive(Debug, Clone)]
enum Weights {
    /// Natural layout: direct, depthwise and 3-D convolutions, dense
    /// layers on the direct loop, and the im2col convolutions of a pruned
    /// store (the zero-skipping GEMM reads natural rows).
    Natural(Tensor),
    /// Packed once into the GEMM's full-depth panels: `MR`-row A panels
    /// for im2col convolutions, `NR`-row B panels for dense layers.
    Packed(PackedPanels),
}

impl Weights {
    /// The stored buffer (panel padding included) — what checksums cover.
    fn data(&self) -> &[f32] {
        match self {
            Weights::Natural(t) => t.data(),
            Weights::Packed(p) => p.data(),
        }
    }

    fn data_mut(&mut self) -> &mut [f32] {
        match self {
            Weights::Natural(t) => t.data_mut(),
            Weights::Packed(p) => p.data_mut(),
        }
    }

    /// Logical weight count: the natural tensor's, padding excluded.
    fn logical_len(&self) -> usize {
        match self {
            Weights::Natural(t) => t.len(),
            Weights::Packed(p) => p.logical_len(),
        }
    }

    /// Buffer slot of logical (natural row-major) element `e`.
    fn physical(&self, e: usize) -> usize {
        match self {
            Weights::Natural(_) => e,
            Weights::Packed(p) => p.physical(e),
        }
    }

    /// The natural tensor, for the kernels that read no panels.
    fn natural(&self, node: &Node) -> Result<&Tensor, ExecError> {
        match self {
            Weights::Natural(t) => Ok(t),
            Weights::Packed(_) => Err(ExecError::InternalPlanMismatch {
                node: node.name().to_string(),
                detail: "packed weights on a kernel that reads natural ones".into(),
            }),
        }
    }
}

/// Materialized learned parameters for one node: what [`WeightStore`]
/// derives from the node name, generated once and reusable across
/// inferences. Weights are stored already lowered to the executor's
/// [`Precision`] (biases stay `f32`, exactly as the on-the-fly path
/// applies them).
#[derive(Debug, Clone)]
enum NodeParams {
    /// The node has no learned parameters (pooling, activation, …).
    None,
    /// Conv2d / DepthwiseConv2d / Conv3d / Dense weights and bias.
    Linear { w: Weights, b: Option<Vec<f32>> },
    /// Standalone batch-norm scale and shift.
    Bn { gamma: Vec<f32>, beta: Vec<f32> },
    /// Fused conv + optional folded batch-norm.
    Fused {
        w: Weights,
        b: Option<Vec<f32>>,
        bn: Option<(Vec<f32>, Vec<f32>)>,
    },
}

impl NodeParams {
    fn weights(&self) -> Option<&Weights> {
        match self {
            NodeParams::Linear { w, .. } | NodeParams::Fused { w, .. } => Some(w),
            NodeParams::None | NodeParams::Bn { .. } => None,
        }
    }

    fn weights_mut(&mut self) -> Option<&mut Weights> {
        match self {
            NodeParams::Linear { w, .. } | NodeParams::Fused { w, .. } => Some(w),
            NodeParams::None | NodeParams::Bn { .. } => None,
        }
    }

    /// The parts after the weights, in canonical order: bias, then
    /// batch-norm gamma and beta.
    fn vectors(&self) -> Vec<&[f32]> {
        match self {
            NodeParams::None => Vec::new(),
            NodeParams::Linear { b, .. } => b.iter().map(Vec::as_slice).collect(),
            NodeParams::Bn { gamma, beta } => vec![gamma, beta],
            NodeParams::Fused { b, bn, .. } => {
                let mut v: Vec<&[f32]> = b.iter().map(Vec::as_slice).collect();
                if let Some((g, s)) = bn {
                    v.push(g);
                    v.push(s);
                }
                v
            }
        }
    }

    fn vectors_mut(&mut self) -> Vec<&mut [f32]> {
        match self {
            NodeParams::None => Vec::new(),
            NodeParams::Linear { b, .. } => b.iter_mut().map(Vec::as_mut_slice).collect(),
            NodeParams::Bn { gamma, beta } => vec![gamma, beta],
            NodeParams::Fused { b, bn, .. } => {
                let mut v: Vec<&mut [f32]> = b.iter_mut().map(Vec::as_mut_slice).collect();
                if let Some((g, s)) = bn {
                    v.push(g);
                    v.push(s);
                }
                v
            }
        }
    }

    /// Logical parameter words: weights (padding excluded), bias, gamma,
    /// beta.
    fn logical_len(&self) -> usize {
        self.weights().map_or(0, Weights::logical_len)
            + self.vectors().iter().map(|v| v.len()).sum::<usize>()
    }

    /// FNV-1a checksum over every stored parameter word, weights first
    /// (padding included, so any flip in the buffer shows).
    fn checksum(&self) -> u64 {
        let mut parts: Vec<&[f32]> = self.weights().map(Weights::data).into_iter().collect();
        parts.extend(self.vectors());
        crate::integrity::checksum_parts(&parts)
    }
}

/// Executes a graph with synthetic weights at a chosen [`Precision`].
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    weights: WeightStore,
    precision: Precision,
    threads: usize,
    kernel: KernelKind,
}

impl<'g> Executor<'g> {
    /// Creates an executor over `graph` with seed 0, F32 precision, one
    /// intra-op thread and auto-dispatched GEMM kernels.
    pub fn new(graph: &'g Graph) -> Self {
        Executor {
            graph,
            weights: WeightStore::new(0),
            precision: Precision::F32,
            threads: 1,
            kernel: KernelKind::Auto,
        }
    }

    /// Sets the weight seed (keeps the configured sparsity).
    pub fn with_seed(mut self, seed: u64) -> Self {
        let sparsity = self.weights.sparsity;
        self.weights = WeightStore::new(seed).with_sparsity(sparsity);
        self
    }

    /// Magnitude-prunes all synthetic weights to the given sparsity.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is not in `[0, 1)`.
    pub fn with_weight_sparsity(mut self, sparsity: f32) -> Self {
        self.weights = self.weights.clone().with_sparsity(sparsity);
        self
    }

    /// Sets the simulated precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the intra-op thread count used by parallel kernels (GEMM
    /// row-panels, dense batch rows). `0` means "use every hardware
    /// thread". Outputs are byte-identical at any setting: each output
    /// element's reduction order is fixed regardless of how panels are
    /// distributed over workers.
    pub fn with_intra_op_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the GEMM micro-kernel (the CLI's `--kernel` A/B switch).
    /// The request is resolved against the host once, when an arena is
    /// created — and, like threads and blocking, it is a pure performance
    /// knob: every kernel produces byte-identical output.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// A fresh scratch arena with this executor's kernel choice resolved.
    fn new_arena(&self) -> Arena {
        let mut arena = Arena::default();
        arena.gemm.set_kernel(self.kernel);
        arena
    }

    /// The weight store in use (exposed for cross-checking transformations).
    pub fn weights(&self) -> &WeightStore {
        &self.weights
    }

    fn lower(&self, mut t: Tensor) -> Tensor {
        self.lower_slice(t.data_mut());
        t
    }

    /// Rounds values through the run precision in place. Zero maps to
    /// zero at every precision and the int8 grid always spans zero, so
    /// lowering a packed panel buffer, padding and all, gives exactly the
    /// panels of the lowered natural tensor.
    fn lower_slice(&self, xs: &mut [f32]) {
        match self.precision {
            Precision::F32 => {}
            Precision::F16 => crate::f16::round_slice_f16(xs),
            Precision::Int8 => {
                fake_quantize_slice(xs);
            }
        }
    }

    /// The weights of `node`, natural-shaped `shape`, in the layout its
    /// kernel reads, lowered to the run precision. `panels` names the GEMM
    /// operand width (`MR` for an im2col conv, `NR` for a dense layer) when
    /// the kernel reads prepacked panels.
    fn weights_for(
        &self,
        node: &Node,
        shape: Vec<usize>,
        fan_in: usize,
        panels: Option<usize>,
    ) -> Result<Weights, ExecError> {
        let elems: usize = shape.iter().product();
        let oom = |bytes: usize| ExecError::OutOfMemory {
            node: node.name().to_string(),
            bytes,
        };
        let elem = std::mem::size_of::<f32>();
        match panels {
            Some(width) => {
                let rows = shape[0];
                let k = elems / rows.max(1);
                let mut p = self
                    .weights
                    .packed_weight(node.name(), (rows, k), fan_in, width)
                    .map_err(|_| oom(rows.div_ceil(width).saturating_mul(width * k * elem)))?;
                self.lower_slice(p.data_mut());
                Ok(Weights::Packed(p))
            }
            None => {
                let t = self
                    .weights
                    .try_weight(node.name(), shape, fan_in)
                    .map_err(|_| oom(elems.saturating_mul(elem)))?;
                Ok(Weights::Natural(self.lower(t)))
            }
        }
    }

    /// The key under which batch-norm parameters for `node` are stored: the
    /// producing node's name (see [`WeightStore`] docs).
    fn bn_key(&self, node: &Node) -> String {
        let producer = node
            .inputs()
            .first()
            .map(|&i| self.graph.node(i).name().to_string())
            .unwrap_or_else(|| node.name().to_string());
        format!("bn:{producer}")
    }

    /// The input-channel count a node's first input carries, read from the
    /// graph's static shapes so parameters can be materialized without a
    /// runtime tensor. Identical to `inputs[0].shape().channels()` during
    /// execution — the kernel outputs match the inferred shapes.
    fn static_in_channels(&self, node: &Node) -> usize {
        let &producer = node
            .inputs()
            .first()
            .expect("parameterized op has an input");
        self.graph.node(producer).output_shape().channels()
    }

    /// Materializes the weight/bias pair for a conv-family op (`Conv2d`,
    /// `DepthwiseConv2d`) under `name` — the single source of the weight
    /// key-and-shape convention, shared by the plain and fused paths.
    fn conv_params(
        &self,
        node: &Node,
        conv: &Op,
        in_c: usize,
    ) -> Result<(Weights, Option<Vec<f32>>), ExecError> {
        let name = node.name();
        match conv {
            Op::Conv2d {
                out_channels,
                kernel,
                groups,
                bias,
                ..
            } => {
                let fan_in = (in_c / groups) * kernel.0 * kernel.1;
                let out_elems = node.output_shape().num_elements();
                // A pruned store runs im2col convs on the zero-skipping
                // GEMM, which reads the natural weight rows.
                let packed = self.weights.sparsity <= 0.0
                    && gemm::select_conv_algo(out_elems, fan_in, *groups) == ConvAlgo::Im2colGemm;
                let w = self.weights_for(
                    node,
                    vec![*out_channels, in_c / groups, kernel.0, kernel.1],
                    fan_in,
                    packed.then_some(MR),
                )?;
                Ok((w, bias.then(|| self.weights.bias(name, *out_channels))))
            }
            Op::DepthwiseConv2d {
                multiplier,
                kernel,
                bias,
                ..
            } => {
                let out_c = in_c * multiplier;
                let fan_in = kernel.0 * kernel.1;
                let w = self.weights_for(node, vec![out_c, 1, kernel.0, kernel.1], fan_in, None)?;
                Ok((w, bias.then(|| self.weights.bias(name, out_c))))
            }
            other => Err(ExecError::InternalPlanMismatch {
                node: name.to_string(),
                detail: format!("FusedConvBnAct around non-conv op {other:?}"),
            }),
        }
    }

    /// Generates every learned parameter `node` needs, keyed by node name
    /// exactly as the per-inference path does — so materialized-once and
    /// generated-every-run execution are bit-identical.
    fn materialize(&self, node: &Node) -> Result<NodeParams, ExecError> {
        Ok(match node.op() {
            op @ (Op::Conv2d { .. } | Op::DepthwiseConv2d { .. }) => {
                let (w, b) = self.conv_params(node, op, self.static_in_channels(node))?;
                NodeParams::Linear { w, b }
            }
            Op::Conv3d {
                out_channels,
                kernel,
                bias,
                ..
            } => {
                let in_c = self.static_in_channels(node);
                let fan_in = in_c * kernel.0 * kernel.1 * kernel.2;
                let w = self.weights_for(
                    node,
                    vec![*out_channels, in_c, kernel.0, kernel.1, kernel.2],
                    fan_in,
                    None,
                )?;
                let b = bias.then(|| self.weights.bias(node.name(), *out_channels));
                NodeParams::Linear { w, b }
            }
            Op::Dense { units, bias } | Op::FusedDenseAct { units, bias, .. } => {
                let &producer = node.inputs().first().expect("dense has an input");
                let in_shape = self.graph.node(producer).output_shape();
                let (n, f) = (in_shape.dim(0), in_shape.dim(1));
                let gemm = gemm::dense_uses_gemm(n, f, *units);
                let w = self.weights_for(node, vec![*units, f], f, gemm.then_some(NR))?;
                let b = bias.then(|| self.weights.bias(node.name(), *units));
                NodeParams::Linear { w, b }
            }
            Op::BatchNorm => {
                let c = self.static_in_channels(node);
                let (gamma, beta) = self.weights.bn_params(&self.bn_key(node), c);
                NodeParams::Bn { gamma, beta }
            }
            Op::FusedConvBnAct { conv, bn, .. } => {
                let (w, b) = self.conv_params(node, conv, self.static_in_channels(node))?;
                let bn = bn.then(|| {
                    let c = node.output_shape().channels();
                    self.weights.bn_params(&format!("bn:{}", node.name()), c)
                });
                NodeParams::Fused { w, b, bn }
            }
            _ => NodeParams::None,
        })
    }

    /// Runs a conv-family op with already-materialized weights into an
    /// arena buffer, with the bias/BN/activation epilogue fused in. Large
    /// dense convolutions take the im2col+GEMM path (what real frameworks
    /// do); small or grouped ones stay direct. Pruned weight stores select
    /// the zero-skipping sparse GEMM (byte-identical results).
    #[allow(clippy::too_many_arguments)]
    fn conv_into(
        &self,
        node: &Node,
        conv: &Op,
        x: &Tensor,
        w: &Weights,
        b: Option<&[f32]>,
        bn: Option<(&[f32], &[f32])>,
        act: ActivationKind,
        arena: &mut Arena,
    ) -> Result<Tensor, ExecError> {
        let epilogue = Epilogue { bias: b, bn, act };
        let w = match (conv, w) {
            (
                Op::Conv2d {
                    kernel,
                    stride,
                    padding,
                    ..
                },
                Weights::Packed(p),
            ) => {
                let mut out = arena.take(node.output_shape());
                gemm::conv2d_packed_into(
                    x,
                    p,
                    *kernel,
                    *stride,
                    *padding,
                    &epilogue,
                    self.threads,
                    &mut out,
                    &mut arena.gemm,
                );
                return Ok(out);
            }
            (_, w) => w.natural(node)?,
        };
        let mut out = arena.take(node.output_shape());
        match conv {
            Op::Conv2d {
                kernel,
                stride,
                padding,
                groups,
                ..
            } => {
                let fan_in = (x.shape().channels() / groups) * kernel.0 * kernel.1;
                if gemm::select_conv_algo(out.len(), fan_in, *groups) == ConvAlgo::Im2colGemm {
                    gemm::conv2d_gemm_into(
                        x,
                        w,
                        *stride,
                        *padding,
                        &epilogue,
                        self.weights.sparsity > 0.0,
                        self.threads,
                        &mut out,
                        &mut arena.gemm,
                    );
                } else {
                    kernels::conv2d_into(x, w, b, *stride, *padding, *groups, &mut out);
                    kernels::bn_act_inplace(&mut out, bn, act);
                }
            }
            Op::DepthwiseConv2d {
                multiplier,
                stride,
                padding,
                ..
            } => {
                kernels::depthwise_conv2d_into(x, w, b, *stride, *padding, *multiplier, &mut out);
                kernels::bn_act_inplace(&mut out, bn, act);
            }
            other => {
                arena.recycle(out);
                return Err(ExecError::InternalPlanMismatch {
                    node: node.name().to_string(),
                    detail: format!("FusedConvBnAct around non-conv op {other:?}"),
                });
            }
        }
        Ok(out)
    }

    /// Whether `op` may consume its first input's buffer in place when
    /// this node is that buffer's last consumer.
    fn consumes_first(op: &Op) -> bool {
        matches!(
            op,
            Op::Activation { .. }
                | Op::BatchNorm
                | Op::Softmax
                | Op::Dropout
                | Op::Flatten
                | Op::Add
                | Op::Mul
        )
    }

    /// Applies `node` using `params`, lowering the result to the executor's
    /// precision. Shared by the per-run generation path ([`Executor`]) and
    /// the cached path ([`PreparedExecutor`]). `first` is the first input
    /// (owned when in-place execution is possible), `rest` the remaining
    /// inputs. Output buffers come from the arena.
    fn apply_node(
        &self,
        node: &Node,
        first: First<'_>,
        rest: &[&Tensor],
        params: &NodeParams,
        arena: &mut Arena,
    ) -> Result<Tensor, ExecError> {
        let out = match (node.op(), params) {
            (Op::Input { .. }, _) => unreachable!("inputs are seeded externally"),
            (
                op @ (Op::Conv2d { .. } | Op::DepthwiseConv2d { .. }),
                NodeParams::Linear { w, b },
            ) => self.conv_into(
                node,
                op,
                first.tensor(),
                w,
                b.as_deref(),
                None,
                ActivationKind::Linear,
                arena,
            )?,
            (Op::FusedConvBnAct { conv, act, .. }, NodeParams::Fused { w, b, bn }) => self
                .conv_into(
                    node,
                    conv,
                    first.tensor(),
                    w,
                    b.as_deref(),
                    bn.as_ref().map(|(g, s)| (g.as_slice(), s.as_slice())),
                    *act,
                    arena,
                )?,
            (
                Op::Conv3d {
                    stride, padding, ..
                },
                NodeParams::Linear { w, b },
            ) => kernels::conv3d(
                first.tensor(),
                w.natural(node)?,
                b.as_deref(),
                *stride,
                *padding,
            ),
            (op @ (Op::Dense { .. } | Op::FusedDenseAct { .. }), NodeParams::Linear { w, b }) => {
                let act = match op {
                    Op::FusedDenseAct { act, .. } => *act,
                    _ => ActivationKind::Linear,
                };
                let (x, bias, threads) = (first.tensor(), b.as_deref(), self.threads);
                let mut out = arena.take(node.output_shape());
                match w {
                    Weights::Packed(p) => {
                        gemm::dense_packed_into(x, p, bias, act, threads, &mut out, &mut arena.gemm)
                    }
                    Weights::Natural(t) => gemm::dense_direct_into(x, t, bias, act, &mut out),
                }
                out
            }
            (
                Op::Pool {
                    kind,
                    kernel,
                    stride,
                    padding,
                },
                _,
            ) => {
                let mut out = arena.take(node.output_shape());
                kernels::pool2d_into(first.tensor(), *kind, *kernel, *stride, *padding, &mut out);
                out
            }
            (
                Op::Pool3d {
                    kind,
                    kernel,
                    stride,
                },
                _,
            ) => kernels::pool3d(first.tensor(), *kind, *kernel, *stride),
            (Op::BatchNorm, NodeParams::Bn { gamma, beta }) => {
                let mut t = first.into_tensor(arena);
                kernels::batch_norm_inplace(&mut t, gamma, beta);
                t
            }
            (Op::Lrn { size }, _) => {
                let mut out = arena.take(node.output_shape());
                kernels::lrn_into(first.tensor(), *size, &mut out);
                out
            }
            (Op::Activation { kind }, _) => {
                let mut t = first.into_tensor(arena);
                kernels::activation_inplace(&mut t, *kind);
                t
            }
            (Op::Add, _) => {
                let mut t = first.into_tensor(arena);
                kernels::add_assign(&mut t, rest[0]);
                t
            }
            (Op::Mul, _) => {
                let mut t = first.into_tensor(arena);
                kernels::mul_assign(&mut t, rest[0]);
                t
            }
            (Op::Slice { start, len }, _) => kernels::slice2(first.tensor(), *start, *len),
            (Op::Concat, _) => {
                let refs: Vec<&Tensor> = std::iter::once(first.tensor())
                    .chain(rest.iter().copied())
                    .collect();
                let mut out = arena.take(node.output_shape());
                kernels::concat_into(&refs, &mut out);
                out
            }
            (Op::Upsample { factor }, _) => kernels::upsample(first.tensor(), *factor),
            (Op::Flatten, _) => {
                let mut t = first.into_tensor(arena);
                let n = t.shape().batch();
                let f = t.len() / n;
                t.reshape([n, f]);
                t
            }
            (Op::Softmax, _) => {
                let mut t = first.into_tensor(arena);
                kernels::softmax_inplace(&mut t);
                t
            }
            (Op::Dropout, _) => first.into_tensor(arena),
            (op, params) => {
                return Err(ExecError::InternalPlanMismatch {
                    node: node.name().to_string(),
                    detail: format!("node {op:?} paired with mismatched params {params:?}"),
                })
            }
        };
        Ok(self.lower(out))
    }

    /// Runs one inference, returning the graph output.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InputShapeMismatch`] if `input` does not match
    /// the graph's input shape, or [`ExecError::NoInput`] for a graph with
    /// no input node.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ExecError> {
        self.run_with_stats(input).map(|(t, _)| t)
    }

    /// Runs one inference, also measuring real memory behaviour: the peak
    /// bytes of simultaneously live activations under free-after-last-use.
    ///
    /// This is the functional cross-check of the IR's analytical
    /// `peak_activation_bytes` (see the workspace integration tests).
    ///
    /// # Errors
    ///
    /// Same as [`Executor::run`].
    pub fn run_with_stats(&self, input: &Tensor) -> Result<(Tensor, RunStats), ExecError> {
        let mut arena = self.new_arena();
        self.run_loop(
            input,
            &mut arena,
            |node| self.materialize(node).map(Cow::Owned),
            None,
        )
    }

    /// The interpreter loop shared by [`Executor`] (weights regenerated per
    /// node visit) and [`PreparedExecutor`] (weights served from the cache):
    /// topological execution with free-after-last-use buffer recycling.
    ///
    /// Peak-live accounting tracks *logical* liveness — a tensor's bytes
    /// count from the node that produces it until its last consumer runs,
    /// even when an in-place op physically reuses the buffer — so the
    /// measured peak exactly matches the IR's analytical
    /// `peak_activation_bytes` regardless of how aggressively buffers are
    /// recycled.
    /// `observer` (when present) is invoked once per executed node, after
    /// the node's output has been lowered to the run precision and before
    /// downstream consumers see it — the hook integrity guards use to
    /// inspect activations and fault campaigns use to corrupt them. An
    /// observer error aborts the run.
    fn run_loop<'p>(
        &self,
        input: &Tensor,
        arena: &mut Arena,
        params_of: impl Fn(&Node) -> Result<Cow<'p, NodeParams>, ExecError>,
        mut observer: Option<&mut NodeObserver<'_>>,
    ) -> Result<(Tensor, RunStats), ExecError> {
        let input_ids = self.graph.input_ids();
        let &input_id = input_ids.first().ok_or(ExecError::NoInput)?;
        let expected = self.graph.node(input_id).output_shape();
        if expected != input.shape() {
            return Err(ExecError::InputShapeMismatch {
                expected: expected.to_string(),
                actual: input.shape().to_string(),
            });
        }

        // last_use for free-after-last-consumer memory behaviour. The
        // bookkeeping vectors live in the arena between runs.
        let n = self.graph.len();
        let out_idx = self.graph.output().index();
        let mut last_use = std::mem::take(&mut arena.last_use);
        last_use.clear();
        last_use.extend(0..n);
        for node in self.graph.nodes() {
            for &inp in node.inputs() {
                last_use[inp.index()] = last_use[inp.index()].max(node.id().index());
            }
        }
        last_use[out_idx] = n - 1;

        let mut slots = std::mem::take(&mut arena.slots);
        slots.clear();
        slots.resize_with(n, || None);
        let mut lives = std::mem::take(&mut arena.lives);
        lives.clear();
        lives.resize(n, 0);

        let elem = std::mem::size_of::<f32>();
        let in_idx = input_id.index();
        let mut seeded = arena.take(input.shape());
        seeded.data_mut().copy_from_slice(input.data());
        let seeded = self.lower(seeded);
        lives[in_idx] = seeded.len() * elem;
        let mut live_total = lives[in_idx];
        let mut stats = RunStats {
            peak_live_bytes: live_total,
            ops_executed: 0,
        };
        slots[in_idx] = Some(seeded);

        for node in self.graph.nodes() {
            let idx = node.id().index();
            if matches!(node.op(), Op::Input { .. }) {
                continue;
            }
            let ins = node.inputs();
            let i0 = ins[0].index();
            // The first input may be consumed in place when this node is
            // its sole remaining consumer.
            let movable = Self::consumes_first(node.op())
                && last_use[i0] == idx
                && ins[1..].iter().all(|j| j.index() != i0);
            let params = params_of(node)?;
            let mut out = if movable {
                let t = slots[i0].take().expect("topological order");
                let rest: Vec<&Tensor> = ins[1..]
                    .iter()
                    .map(|j| slots[j.index()].as_ref().expect("topological order"))
                    .collect();
                self.apply_node(node, First::Owned(t), &rest, &params, arena)?
            } else {
                let rest: Vec<&Tensor> = ins[1..]
                    .iter()
                    .map(|j| slots[j.index()].as_ref().expect("topological order"))
                    .collect();
                let first = First::Borrowed(slots[i0].as_ref().expect("topological order"));
                self.apply_node(node, first, &rest, &params, arena)?
            };
            if let Some(obs) = observer.as_deref_mut() {
                obs(idx, &mut out)?;
            }
            let out = out;
            stats.ops_executed += 1;
            lives[idx] = out.len() * elem;
            live_total += lives[idx];
            stats.peak_live_bytes = stats.peak_live_bytes.max(live_total);
            slots[idx] = Some(out);
            // Free dead buffers (including a possibly never-consumed own
            // output) back into the arena.
            for k in std::iter::once(idx).chain(ins.iter().map(|i| i.index())) {
                if last_use[k] <= idx && k != out_idx {
                    live_total -= lives[k];
                    lives[k] = 0;
                    if let Some(t) = slots[k].take() {
                        arena.recycle(t);
                    }
                }
            }
        }
        let out = slots[out_idx].take().expect("output computed");
        // Return surviving buffers and bookkeeping to the arena for reuse.
        for slot in slots.iter_mut() {
            if let Some(t) = slot.take() {
                arena.recycle(t);
            }
        }
        arena.slots = slots;
        arena.last_use = last_use;
        arena.lives = lives;
        Ok((out, stats))
    }

    /// Materializes every weight, bias and batch-norm tensor for the graph
    /// once, returning an executor that reuses them across inferences.
    ///
    /// Parameters are keyed by node name exactly as the on-the-fly path
    /// keys them, so outputs are bit-for-bit identical to [`Executor::run`]
    /// at every precision and sparsity — only the per-inference PRNG and
    /// pruning work disappears. GEMM weights (im2col convolutions, dense
    /// layers off the direct loop) are generated straight into the panel
    /// layout the micro-kernel reads ([`gemm::PackedPanels`]), so no run
    /// repacks them and no natural-layout copy is kept.
    ///
    /// Alongside the parameters, `prepare` records a baseline FNV-style
    /// checksum of every node's cached `f32` bit patterns — the reference
    /// the SDC defense layer ([`crate::integrity`]) verifies against.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InternalPlanMismatch`] if the graph contains a
    /// malformed fused node (e.g. `FusedConvBnAct` wrapping a non-conv op),
    /// and [`ExecError::OutOfMemory`] naming the node when its weights,
    /// its arena buffer or its GEMM scratch cannot be allocated (a graph
    /// rebatched beyond memory, say).
    pub fn prepare(self) -> Result<PreparedExecutor<'g>, ExecError> {
        let params: Vec<NodeParams> = self
            .graph
            .nodes()
            .iter()
            .map(|n| self.materialize(n))
            .collect::<Result<_, _>>()?;
        let checksums = params.iter().map(NodeParams::checksum).collect();
        // Pre-size the arena from the graph's static shapes: one buffer per
        // node output (an upper bound on the live set) plus GEMM packing and
        // im2col scratch for the largest convolution, so steady-state
        // inference allocates nothing. Detecting the cache hierarchy here
        // (it is cached process-wide) keeps the first run's latency clean
        // and fixes the blocking every later reserve/call sees.
        crate::blocking::cache_info();
        let mut arena = self.new_arena();
        let elem = std::mem::size_of::<f32>();
        for node in self.graph.nodes() {
            let oom = |elems: usize| ExecError::OutOfMemory {
                node: node.name().to_string(),
                bytes: elems.saturating_mul(elem),
            };
            let out_shape = node.output_shape();
            // Capacity only: `Arena::take` sizes the buffer on first use,
            // so untouched pages are never committed here.
            let mut buf = Vec::new();
            buf.try_reserve_exact(out_shape.num_elements())
                .map_err(|_| oom(out_shape.num_elements()))?;
            arena.free.push(buf);
            let conv = match node.op() {
                c @ Op::Conv2d { .. } => Some(c),
                Op::FusedConvBnAct { conv, .. } => Some(conv.as_ref()),
                _ => None,
            };
            if let Some(Op::Conv2d { kernel, groups, .. }) = conv {
                let fan_in = (self.static_in_channels(node) / groups) * kernel.0 * kernel.1;
                if gemm::select_conv_algo(out_shape.num_elements(), fan_in, *groups)
                    == ConvAlgo::Im2colGemm
                {
                    let m = out_shape.channels();
                    let cols = out_shape.height() * out_shape.width();
                    arena
                        .gemm
                        .reserve((m, fan_in, cols), fan_in * cols)
                        .map_err(oom)?;
                }
            }
        }
        Ok(PreparedExecutor {
            exec: self,
            params,
            checksums,
            arena: Mutex::new(arena),
        })
    }
}

/// An [`Executor`] with all synthetic parameters materialized up front.
///
/// The plain executor re-derives every weight tensor from the PRNG on every
/// single inference — faithful to nothing real, and the dominant cost for
/// small inputs. `PreparedExecutor` is the "loaded checkpoint" equivalent:
/// build it once with [`Executor::prepare`], then call [`PreparedExecutor::run`]
/// per inference.
///
/// # Examples
///
/// ```
/// use edgebench_models::Model;
/// use edgebench_tensor::{Executor, Tensor};
///
/// let g = Model::CifarNet.build();
/// let x = Tensor::random([1, 3, 32, 32], 7);
/// let once = Executor::new(&g).with_seed(1).run(&x).unwrap();
/// let prepared = Executor::new(&g).with_seed(1).prepare().unwrap();
/// assert_eq!(prepared.run(&x).unwrap(), once);
/// ```
#[derive(Debug)]
pub struct PreparedExecutor<'g> {
    exec: Executor<'g>,
    /// Materialized parameters, indexed by node id.
    params: Vec<NodeParams>,
    /// Prepare-time FNV-1a checksum of each node's parameters — the
    /// pristine reference integrity scrubs verify against.
    checksums: Vec<u64>,
    /// Reusable scratch memory. Guarded so `&self` runs stay possible from
    /// multiple threads: concurrent callers that miss the lock fall back to
    /// a run-local arena (correct, just not zero-alloc).
    arena: Mutex<Arena>,
}

impl PreparedExecutor<'_> {
    /// Runs one inference against the cached parameters.
    ///
    /// # Errors
    ///
    /// Same as [`Executor::run`].
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ExecError> {
        self.run_with_stats(input).map(|(t, _)| t)
    }

    /// Runs one inference, also measuring peak live activation bytes.
    ///
    /// # Errors
    ///
    /// Same as [`Executor::run`].
    pub fn run_with_stats(&self, input: &Tensor) -> Result<(Tensor, RunStats), ExecError> {
        let mut local = self.exec.new_arena();
        let mut guard = self.arena.try_lock();
        let arena = match guard {
            Ok(ref mut a) => &mut **a,
            Err(_) => &mut local,
        };
        self.exec.run_loop(
            input,
            arena,
            |node| Ok(Cow::Borrowed(&self.params[node.id().index()])),
            None,
        )
    }

    /// Runs one inference with a per-node observer: after each node's
    /// output is lowered to the run precision, `observer(node_index, out)`
    /// may inspect or mutate it before downstream consumers see it. This
    /// is the hook the SDC defense layer ([`crate::integrity`]) builds its
    /// activation guards and injection campaigns on.
    ///
    /// # Errors
    ///
    /// Same as [`Executor::run`], plus whatever the observer returns.
    pub fn run_observed(
        &self,
        input: &Tensor,
        observer: &mut NodeObserver<'_>,
    ) -> Result<(Tensor, RunStats), ExecError> {
        let mut local = self.exec.new_arena();
        let mut guard = self.arena.try_lock();
        let arena = match guard {
            Ok(ref mut a) => &mut **a,
            Err(_) => &mut local,
        };
        self.exec.run_loop(
            input,
            arena,
            |node| Ok(Cow::Borrowed(&self.params[node.id().index()])),
            Some(observer),
        )
    }

    /// Number of nodes in the underlying graph (the index space of
    /// [`PreparedExecutor::param_elems`] and friends).
    pub fn node_count(&self) -> usize {
        self.params.len()
    }

    /// Name of node `idx` in the underlying graph.
    pub(crate) fn node_name(&self, idx: usize) -> &str {
        self.exec.graph.nodes()[idx].name()
    }

    /// Number of logical `f32` parameter words node `idx` holds, in the
    /// canonical order weights → bias → bn-gamma → bn-beta. Weights count
    /// as their natural tensor does: the padding of packed GEMM panels is
    /// excluded, so the count (and every element index below it) does not
    /// depend on the layout. Zero for parameterless nodes.
    pub fn param_elems(&self, idx: usize) -> usize {
        self.params.get(idx).map_or(0, NodeParams::logical_len)
    }

    /// Recomputes every node's parameter checksum and returns the indices
    /// whose cached bits no longer match the prepare-time baseline —
    /// i.e. the nodes silent corruption has touched since `prepare`.
    pub fn verify_params(&self) -> Vec<usize> {
        self.params
            .iter()
            .zip(&self.checksums)
            .enumerate()
            .filter(|(_, (p, &h))| p.checksum() != h)
            .map(|(i, _)| i)
            .collect()
    }

    /// Re-materializes node `idx`'s parameters from the pristine weight
    /// store (weights are a pure function of seed and node name, so this
    /// restores the exact prepare-time bits, including pruning, precision
    /// lowering and panel layout). Returns the number of logical parameter
    /// bytes rewritten (`4 · param_elems(idx)`, panel padding excluded).
    ///
    /// # Errors
    ///
    /// Same as [`Executor::prepare`] (cannot occur for a plan that
    /// prepared successfully, short of memory exhaustion).
    pub fn repair_node(&mut self, idx: usize) -> Result<usize, ExecError> {
        let node = &self.exec.graph.nodes()[idx];
        let fresh = self.exec.materialize(node)?;
        debug_assert_eq!(fresh.checksum(), self.checksums[idx]);
        let bytes = fresh.logical_len() * std::mem::size_of::<f32>();
        self.params[idx] = fresh;
        Ok(bytes)
    }

    /// Flips bit `bit` of the `element`-th cached `f32` parameter word of
    /// node `idx` (canonical order weights → bias → bn-gamma → bn-beta) —
    /// the deterministic injection primitive SDC campaigns use. Returns
    /// `false` when the coordinates are out of range (nothing flipped).
    pub fn corrupt_param_bit(&mut self, idx: usize, element: usize, bit: u8) -> bool {
        let Some(p) = self.params.get_mut(idx) else {
            return false;
        };
        if bit >= 32 {
            return false;
        }
        let flip = |v: &mut f32| *v = f32::from_bits(v.to_bits() ^ (1u32 << bit));
        let mut remaining = element;
        if let Some(w) = p.weights_mut() {
            if remaining < w.logical_len() {
                let slot = w.physical(remaining);
                flip(&mut w.data_mut()[slot]);
                return true;
            }
            remaining -= w.logical_len();
        }
        for part in p.vectors_mut() {
            if remaining < part.len() {
                flip(&mut part[remaining]);
                return true;
            }
            remaining -= part.len();
        }
        false
    }

    /// Total bytes held by the materialized weight cache, panel padding
    /// included.
    #[cfg(test)]
    fn cached_param_bytes(&self) -> usize {
        self.params
            .iter()
            .map(|p| {
                let w = p.weights().map_or(0, |w| w.data().len());
                let v: usize = p.vectors().iter().map(|v| v.len()).sum();
                (w + v) * std::mem::size_of::<f32>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_graph::GraphBuilder;

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let bn = b.batch_norm(c).unwrap();
        let r = b.activation(bn, ActivationKind::Relu).unwrap();
        let p = b
            .pool(r, edgebench_graph::PoolKind::Max, (2, 2), (2, 2))
            .unwrap();
        let f = b.flatten(p).unwrap();
        let d = b.dense(f, 10).unwrap();
        let s = b.softmax(d).unwrap();
        b.build(s).unwrap()
    }

    #[test]
    fn run_produces_output_shape() {
        let g = tiny_graph();
        let exec = Executor::new(&g).with_seed(1);
        let out = exec.run(&Tensor::random([1, 3, 8, 8], 2)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 10]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax sums to one");
    }

    #[test]
    fn execution_is_deterministic() {
        let g = tiny_graph();
        let exec = Executor::new(&g).with_seed(7);
        let x = Tensor::random([1, 3, 8, 8], 3);
        assert_eq!(exec.run(&x).unwrap(), exec.run(&x).unwrap());
    }

    #[test]
    fn different_seeds_give_different_outputs() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let a = Executor::new(&g).with_seed(1).run(&x).unwrap();
        let b = Executor::new(&g).with_seed(2).run(&x).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let g = tiny_graph();
        let err = Executor::new(&g)
            .run(&Tensor::zeros([1, 3, 9, 9]))
            .unwrap_err();
        assert!(matches!(err, ExecError::InputShapeMismatch { .. }));
    }

    #[test]
    fn f16_output_is_close_to_f32() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let full = Executor::new(&g).with_seed(5).run(&x).unwrap();
        let half = Executor::new(&g)
            .with_seed(5)
            .with_precision(Precision::F16)
            .run(&x)
            .unwrap();
        let diff = full.mean_abs_diff(&half);
        assert!(diff > 0.0, "f16 must differ slightly");
        assert!(diff < 0.01, "f16 diff {diff} too large");
    }

    #[test]
    fn int8_output_is_degraded_more_than_f16() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let full = Executor::new(&g).with_seed(5).run(&x).unwrap();
        let half = Executor::new(&g)
            .with_seed(5)
            .with_precision(Precision::F16)
            .run(&x)
            .unwrap();
        let int8 = Executor::new(&g)
            .with_seed(5)
            .with_precision(Precision::Int8)
            .run(&x)
            .unwrap();
        assert!(full.mean_abs_diff(&int8) >= full.mean_abs_diff(&half));
    }

    #[test]
    fn sparsity_zeroes_the_requested_fraction() {
        let ws = WeightStore::new(1).with_sparsity(0.8);
        let w = ws.weight("k", vec![64, 64], 64);
        let zeros = w.data().iter().filter(|v| **v == 0.0).count();
        // Exactly ⌊len · sparsity⌋ elements, never more: magnitude ties must
        // not drag extra elements to zero.
        assert_eq!(zeros, (w.len() as f32 * 0.8) as usize);
    }

    #[test]
    fn pruning_ties_do_not_overshoot_requested_sparsity() {
        // A tensor full of identical magnitudes: every element ties the
        // threshold, so a `<= threshold` sweep would zero all of them.
        let mut t = Tensor::from_vec([8], vec![0.5, -0.5, 0.5, -0.5, 0.5, 0.5, -0.5, 0.5]);
        let ws = WeightStore::new(0).with_sparsity(0.5);
        ws.prune(&mut t).unwrap();
        let zeros = t.data().iter().filter(|v| **v == 0.0).count();
        assert_eq!(zeros, 4, "exactly half, not all: {:?}", t.data());
        // Ties break by index, lowest first.
        assert!(t.data()[..4].iter().all(|&v| v == 0.0), "{:?}", t.data());
    }

    #[test]
    fn mild_pruning_perturbs_output_mildly() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let dense_out = Executor::new(&g).with_seed(5).run(&x).unwrap();
        let light = Executor::new(&g)
            .with_seed(5)
            .with_weight_sparsity(0.3)
            .run(&x)
            .unwrap();
        let heavy = Executor::new(&g)
            .with_seed(5)
            .with_weight_sparsity(0.9)
            .run(&x)
            .unwrap();
        let d_light = dense_out.mean_abs_diff(&light);
        let d_heavy = dense_out.mean_abs_diff(&heavy);
        assert!(d_light > 0.0);
        assert!(d_heavy > d_light, "heavy {d_heavy} vs light {d_light}");
    }

    #[test]
    #[should_panic(expected = "sparsity must be in [0, 1)")]
    fn full_sparsity_is_rejected() {
        let _ = WeightStore::new(0).with_sparsity(1.0);
    }

    #[test]
    fn residual_graph_executes() {
        let mut b = GraphBuilder::new("res");
        let x = b.input([1, 4, 6, 6]);
        let c1 = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let s = b.add(c1, x).unwrap();
        let g = b.build(s).unwrap();
        let out = Executor::new(&g)
            .run(&Tensor::random([1, 4, 6, 6], 1))
            .unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 6, 6]);
    }

    #[test]
    fn batched_execution_equals_stacked_single_runs() {
        // Inference is independent per batch element; with deterministic
        // weights, a batch-2 run must equal two batch-1 runs stacked.
        let mut b = GraphBuilder::new("t");
        let x = b.input([2, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let p = b
            .pool(r, edgebench_graph::PoolKind::Avg, (2, 2), (2, 2))
            .unwrap();
        let g2 = b.build(p).unwrap();

        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let p = b
            .pool(r, edgebench_graph::PoolKind::Avg, (2, 2), (2, 2))
            .unwrap();
        let g1 = b.build(p).unwrap();

        let a = Tensor::random([1, 3, 8, 8], 100);
        let bb = Tensor::random([1, 3, 8, 8], 101);
        let mut stacked = a.data().to_vec();
        stacked.extend_from_slice(bb.data());
        let batch_in = Tensor::from_vec([2, 3, 8, 8], stacked);

        let out2 = Executor::new(&g2).with_seed(4).run(&batch_in).unwrap();
        let out_a = Executor::new(&g1).with_seed(4).run(&a).unwrap();
        let out_b = Executor::new(&g1).with_seed(4).run(&bb).unwrap();
        let half = out2.len() / 2;
        let diff_a: f32 = out2.data()[..half]
            .iter()
            .zip(out_a.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        let diff_b: f32 = out2.data()[half..]
            .iter()
            .zip(out_b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff_a < 1e-5 && diff_b < 1e-5, "a {diff_a} b {diff_b}");
    }

    #[test]
    fn prepared_executor_is_bit_identical_across_precisions_and_sparsity() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            for sparsity in [0.0, 0.3, 0.9] {
                let fresh = Executor::new(&g)
                    .with_seed(5)
                    .with_precision(p)
                    .with_weight_sparsity(sparsity)
                    .run(&x)
                    .unwrap();
                let cached = Executor::new(&g)
                    .with_seed(5)
                    .with_precision(p)
                    .with_weight_sparsity(sparsity)
                    .prepare()
                    .unwrap();
                // Repeated runs reuse the cache; each must equal the
                // regenerate-every-time path bit for bit.
                for _ in 0..2 {
                    assert_eq!(
                        cached.run(&x).unwrap(),
                        fresh,
                        "precision {p:?} sparsity {sparsity}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_dense_weights_are_packed_without_a_natural_copy() {
        // A GEMM-sized dense layer of a pruned store: its cache holds the
        // padded panels (1000 units → 63 NR panels) and the bias, nothing
        // else, and it runs exactly as the pruned natural weights do.
        let mut b = GraphBuilder::new("pruned");
        let x = b.input([1, 8, 12, 12]);
        let f = b.flatten(x).unwrap();
        let d = b.dense(f, 1000).unwrap();
        let g = b.build(d).unwrap();
        let exec = Executor::new(&g).with_seed(4).with_weight_sparsity(0.5);
        let name = g.node(d).name();
        let w = exec.weights().weight(name, vec![1000, 1152], 1152);
        let bias = exec.weights().bias(name, 1000);
        let input = Tensor::random([1, 8, 12, 12], 6);
        let mut flat = input.clone();
        flat.reshape([1, 1152]);
        let want = kernels::dense(&flat, &w, Some(&bias));
        let prepared = exec.prepare().unwrap();
        assert_eq!(
            prepared.cached_param_bytes(),
            (1000usize.next_multiple_of(NR) * 1152 + 1000) * 4
        );
        assert_eq!(prepared.run(&input).unwrap(), want);
    }

    #[test]
    fn prepared_executor_matches_on_fused_graphs() {
        // Exercises the FusedConvBnAct cache path (conv + folded BN + act).
        let mut b = GraphBuilder::new("fused");
        let x = b.input([1, 3, 8, 8]);
        let fused = b
            .push(
                "conv0",
                Op::FusedConvBnAct {
                    conv: Box::new(Op::Conv2d {
                        out_channels: 4,
                        kernel: (3, 3),
                        stride: (1, 1),
                        padding: (1, 1),
                        groups: 1,
                        bias: false,
                    }),
                    bn: true,
                    act: ActivationKind::Relu,
                },
                vec![x],
            )
            .unwrap();
        let g = b.build(fused).unwrap();
        let x = Tensor::random([1, 3, 8, 8], 11);
        let fresh = Executor::new(&g).with_seed(2).run(&x).unwrap();
        let cached = Executor::new(&g)
            .with_seed(2)
            .prepare()
            .unwrap()
            .run(&x)
            .unwrap();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn fused_dense_act_is_bit_identical_to_dense_then_activation() {
        // Both graphs name their dense layers alike, so they draw the same
        // synthetic weights; the fused kernel applies the activation at
        // store time and must not change a bit.
        let build = |fused: bool| {
            let mut b = GraphBuilder::new("head");
            let x = b.input([2, 24]);
            let act = ActivationKind::Sigmoid;
            let h = if fused {
                let op = Op::FusedDenseAct {
                    units: 12,
                    bias: true,
                    act,
                };
                b.push("fc1", op, vec![x]).unwrap()
            } else {
                let op = Op::Dense {
                    units: 12,
                    bias: true,
                };
                let d = b.push("fc1", op, vec![x]).unwrap();
                b.activation(d, act).unwrap()
            };
            let op = Op::Dense {
                units: 5,
                bias: true,
            };
            let out = b.push("fc2", op, vec![h]).unwrap();
            b.build(out).unwrap()
        };
        let x = Tensor::random([2, 24], 9);
        let unfused = Executor::new(&build(false)).with_seed(7).run(&x).unwrap();
        let fused = Executor::new(&build(true)).with_seed(7).run(&x).unwrap();
        assert_eq!(unfused, fused, "fused dense kernel must be bit-identical");
    }

    #[test]
    fn prepared_executor_reports_matching_stats_and_cache_size() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let (out_a, stats_a) = Executor::new(&g).with_seed(1).run_with_stats(&x).unwrap();
        let prepared = Executor::new(&g).with_seed(1).prepare().unwrap();
        let (out_b, stats_b) = prepared.run_with_stats(&x).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        assert!(prepared.cached_param_bytes() > 0);
    }

    #[test]
    fn prepare_reports_an_unallocatable_batch_as_a_typed_error() {
        let g = edgebench_models::Model::CifarNet
            .build()
            .with_batch(100_000_000_000)
            .unwrap();
        let err = Executor::new(&g).prepare().unwrap_err();
        let input = g.node(g.input_ids()[0]).name().to_string();
        assert_eq!(
            err,
            ExecError::OutOfMemory {
                node: input,
                bytes: 100_000_000_000 * 3 * 32 * 32 * 4,
            }
        );
    }

    #[test]
    fn prepared_executor_rejects_wrong_input_shape() {
        let g = tiny_graph();
        let err = Executor::new(&g)
            .prepare()
            .unwrap()
            .run(&Tensor::zeros([1, 3, 9, 9]))
            .unwrap_err();
        assert!(matches!(err, ExecError::InputShapeMismatch { .. }));
    }

    #[test]
    fn cifarnet_end_to_end() {
        let g = edgebench_models::Model::CifarNet.build();
        let exec = Executor::new(&g).with_seed(9);
        let out = exec.run(&Tensor::random([1, 3, 32, 32], 4)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 10]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
