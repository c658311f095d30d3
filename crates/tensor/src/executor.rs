//! The graph interpreter: compiles an [`edgebench_graph::Graph`] once into
//! a plan of typed steps, with deterministic synthetic weights, and runs
//! the plan.

use crate::gemm::{self, ConvAlgo, Epilogue, GemmScratch, PackedPanels};
use crate::kernels;
use crate::simd::{self, KernelKind, Microkernel, MR, NR};
use crate::{ExecError, Tensor};
use edgebench_graph::{ActivationKind, Graph, Node, Op, PoolKind, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Execution statistics reported by [`PreparedExecutor::run_into`] and
/// [`PreparedExecutor::run_observed`]. The static shapes fix every one of
/// them at prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Peak bytes of simultaneously live activation tensors under
    /// free-after-last-use: the functional cross-check of the IR's
    /// analytical `peak_activation_bytes`.
    pub peak_live_bytes: usize,
    /// Number of operator invocations executed.
    pub ops_executed: usize,
    /// Bytes of the activation buffers the plan holds them in.
    pub buffer_bytes: usize,
}

/// Per-node activation hook: invoked with `(node_index, output)` after
/// each node's output is lowered to the run precision and before any
/// downstream consumer reads it. The SDC defense layer
/// ([`crate::integrity`]) builds its activation guards and injection
/// campaigns on this; an observer error aborts the run.
type NodeObserver<'a> = dyn FnMut(usize, &mut Tensor) -> Result<(), ExecError> + 'a;

/// A run's memory, reused run after run: the plan's activation buffers,
/// the GEMM packing buffers and the depthwise mask table.
///
/// Every kernel that writes into a buffer overwrites *all* of its
/// elements, so buffers never need zeroing between steps or runs.
#[derive(Debug, Default)]
struct Arena {
    /// The activation buffers, by the number the plan gives each; the
    /// input's is the first.
    bufs: Vec<Tensor>,
    /// GEMM packing scratch: per-worker B panels for convolutions.
    gemm: GemmScratch,
    /// The depthwise kernel's column-mask table, rebuilt per call.
    taps: Vec<simd::TapMask>,
}

/// Buffer `at` of `bufs`, writable, beside a reader of every other buffer
/// by its number. A step never reads the buffer it writes.
fn split<'a>(
    bufs: &'a mut [Tensor],
    at: usize,
) -> (&'a mut Tensor, impl Fn(usize) -> &'a Tensor + Copy) {
    let (below, rest) = bufs.split_at_mut(at);
    let (out, above) = rest.split_first_mut().expect("the plan's buffer");
    let (below, above) = (&*below, &*above);
    (out, move |b| {
        if b < at {
            &below[b]
        } else {
            &above[b - at - 1]
        }
    })
}

/// The buffer a fresh output of `elems` values takes in the plan's walk:
/// the free buffer that fits best; if none fits, the largest free buffer,
/// grown; if none is free, a new one. `sizes` holds each buffer's values.
fn pick(free: &mut Vec<usize>, sizes: &mut Vec<usize>, elems: usize) -> usize {
    // Buffers that fit first, the tightest first; then the rest, the
    // largest first.
    let key = |b: usize| (sizes[b] < elems, sizes[b].abs_diff(elems));
    let Some(i) = (0..free.len()).min_by_key(|&i| key(free[i])) else {
        sizes.push(elems);
        return sizes.len() - 1;
    };
    let b = free.swap_remove(i);
    sizes[b] = sizes[b].max(elems);
    b
}

/// A parameter buffer as the SDC layer addresses it: by logical (natural
/// row-major) element, each mapped to its slot in the stored buffer. Only
/// packed panels differ from their natural layout.
trait Stored {
    /// The stored buffer, panel padding included — what checksums cover.
    fn buf(&self) -> &[f32];
    fn buf_mut(&mut self) -> &mut [f32];
    /// Logical weight count: the natural tensor's, padding excluded.
    fn logical_len(&self) -> usize {
        self.buf().len()
    }
    /// Buffer slot of logical element `e`.
    fn slot(&self, e: usize) -> usize {
        e
    }
}

impl Stored for Tensor {
    fn buf(&self) -> &[f32] {
        self.data()
    }
    fn buf_mut(&mut self) -> &mut [f32] {
        self.data_mut()
    }
}

impl Stored for Vec<f32> {
    fn buf(&self) -> &[f32] {
        self
    }
    fn buf_mut(&mut self) -> &mut [f32] {
        self
    }
}

impl Stored for PackedPanels {
    fn buf(&self) -> &[f32] {
        self.data()
    }
    fn buf_mut(&mut self) -> &mut [f32] {
        self.data_mut()
    }
    fn logical_len(&self) -> usize {
        PackedPanels::logical_len(self)
    }
    fn slot(&self, e: usize) -> usize {
        self.physical(e)
    }
}

/// What a layer applies to its output in the same pass: bias, folded batch
/// norm and activation (a dense layer folds no batch norm, and a 3-D
/// convolution only its bias). Biases and batch-norm parameters stay `f32`
/// at every precision.
#[derive(Debug)]
struct Tail {
    b: Option<Vec<f32>>,
    bn: Option<(Vec<f32>, Vec<f32>)>,
    act: ActivationKind,
}

impl Tail {
    fn epilogue(&self) -> Epilogue<'_> {
        Epilogue {
            bias: self.b.as_deref(),
            bn: self.bn.as_ref().map(|(g, s)| (g.as_slice(), s.as_slice())),
            act: self.act,
        }
    }

    /// The weights `w`, then bias, gamma and beta: a layer's parameters in
    /// the SDC layer's canonical order, those it lacks `None`.
    fn params<'a>(&'a self, w: &'a dyn Stored) -> [Option<&'a dyn Stored>; 4] {
        let (g, s) = self.bn.as_ref().map(|(g, s)| (g as _, s as _)).unzip();
        [Some(w), self.b.as_ref().map(|b| b as _), g, s]
    }

    fn params_mut<'a>(&'a mut self, w: &'a mut dyn Stored) -> [Option<&'a mut dyn Stored>; 4] {
        let (g, s) = self.bn.as_mut().map(|(g, s)| (g as _, s as _)).unzip();
        [Some(w), self.b.as_mut().map(|b| b as _), g, s]
    }
}

/// A step's kernel, holding exactly the operands it reads. Weights are
/// generated at prepare, lowered to the run precision, in the layout the
/// kernel reads.
#[derive(Debug)]
enum Kernel {
    /// GEMM convolution over weights packed into `MR`-row panels, its B
    /// panels packed from the input image.
    ConvPacked {
        w: PackedPanels,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        tail: Tail,
    },
    /// Direct convolution on the arena's kernel tier, for small, grouped,
    /// depthwise and 3-D layers: windows are `[depth, height, width]`, a
    /// 2-D layer's depth stride 1 and depth padding 0.
    ConvDirect {
        w: Tensor,
        stride: [usize; 3],
        padding: [usize; 3],
        groups: usize,
        tail: Tail,
    },
    /// Dense layer over weights packed into `NR`-row GEMM panels.
    DensePacked {
        w: PackedPanels,
        tail: Tail,
    },
    /// Dense layer too small to pack: one dot product per output.
    DenseDirect {
        w: Tensor,
        tail: Tail,
    },
    /// 2-D or 3-D pooling, windows as in `ConvDirect`.
    Pool {
        kind: PoolKind,
        kernel: [usize; 3],
        stride: [usize; 3],
        padding: [usize; 3],
    },
    BatchNorm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
    },
    Lrn {
        size: usize,
    },
    Activation(ActivationKind),
    Add,
    Mul,
    Concat,
    Slice {
        start: usize,
        len: usize,
    },
    Upsample(usize),
    Flatten,
    Softmax,
    Dropout,
}

impl Kernel {
    /// Whether the kernel rewrites its first input's buffer into its
    /// output instead of writing a fresh one.
    fn rewrites_input(&self) -> bool {
        matches!(
            self,
            Kernel::BatchNorm { .. }
                | Kernel::Activation(_)
                | Kernel::Add
                | Kernel::Mul
                | Kernel::Flatten
                | Kernel::Softmax
                | Kernel::Dropout
        )
    }

    /// The learned parameters in the SDC layer's canonical order: the
    /// weights, then bias, batch-norm gamma and beta. Listing them
    /// allocates nothing, so a scrub doesn't either.
    fn params(&self) -> impl Iterator<Item = &dyn Stored> {
        let parts = match self {
            Kernel::ConvPacked { w, tail, .. } | Kernel::DensePacked { w, tail } => tail.params(w),
            Kernel::ConvDirect { w, tail, .. } | Kernel::DenseDirect { w, tail } => tail.params(w),
            Kernel::BatchNorm { gamma, beta } => [Some(gamma as _), Some(beta as _), None, None],
            _ => [None; 4],
        };
        parts.into_iter().flatten()
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut dyn Stored> {
        let parts = match self {
            Kernel::ConvPacked { w, tail, .. } | Kernel::DensePacked { w, tail } => {
                tail.params_mut(w)
            }
            Kernel::ConvDirect { w, tail, .. } | Kernel::DenseDirect { w, tail } => {
                tail.params_mut(w)
            }
            Kernel::BatchNorm { gamma, beta } => [Some(gamma as _), Some(beta as _), None, None],
            _ => Default::default(),
        };
        parts.into_iter().flatten()
    }

    /// Logical parameter words, panel padding excluded.
    fn param_elems(&self) -> usize {
        self.params().map(|p| p.logical_len()).sum()
    }

    /// FNV-1a checksum over every stored parameter word, weights first
    /// (padding included, so any flip in the buffer shows).
    fn checksum(&self) -> u64 {
        crate::integrity::checksum_parts(self.params().map(|p| p.buf()))
    }
}

/// One node of the compiled plan: its kernel, and the buffers it reads
/// and writes, fixed at prepare.
#[derive(Debug)]
struct Step<'g> {
    /// The graph node. Its index is what observers and the SDC layer
    /// address.
    node: &'g Node,
    kernel: Kernel,
    /// The buffer the step writes: its first input's, when the kernel
    /// rewrites that input in place as its last reader.
    buf: usize,
    /// Whether the kernel rewrites a copy of its first input instead: the
    /// input is read after this step, or by this step through another
    /// input too.
    copy: bool,
    /// The buffers holding its inputs, in input order.
    ins: Vec<usize>,
    /// Prepare-time checksum of the kernel's parameters — the pristine
    /// reference integrity scrubs verify against.
    checksum: u64,
}

impl Step<'_> {
    /// Runs the kernel into `out`, its output buffer, already of the
    /// output's shape (an in-place kernel keeps its input's element count),
    /// reading its inputs through `read`.
    fn apply<'a>(
        &self,
        read: impl Fn(usize) -> &'a Tensor + Copy,
        out: &mut Tensor,
        scratch: &mut GemmScratch,
        taps: &mut Vec<simd::TapMask>,
        threads: usize,
    ) {
        let x = |k: usize| read(self.ins[k]);
        match &self.kernel {
            Kernel::ConvPacked {
                w,
                kernel,
                stride,
                padding,
                tail,
            } => gemm::conv2d_packed_into(
                x(0),
                w,
                *kernel,
                *stride,
                *padding,
                &tail.epilogue(),
                threads,
                out,
                scratch,
            ),
            Kernel::ConvDirect {
                w,
                stride,
                padding,
                groups,
                tail,
            } => {
                let (tier, e) = (scratch.kernel(), tail.epilogue());
                let (s, p, g) = (*stride, *padding, *groups);
                simd::conv(tier, x(0), w, e.bias, s, p, g, out, taps);
                kernels::bn_act_inplace(out, e.bn, e.act);
            }
            Kernel::DensePacked { w, tail } => {
                let (b, act) = (tail.b.as_deref(), tail.act);
                gemm::dense_packed_into(x(0), w, b, act, threads, out, scratch)
            }
            Kernel::DenseDirect { w, tail } => {
                gemm::dense_direct_into(x(0), w, tail.b.as_deref(), tail.act, out)
            }
            Kernel::Pool {
                kind,
                kernel,
                stride,
                padding,
            } => kernels::pool_into(x(0), *kind, *kernel, *stride, *padding, out),
            Kernel::BatchNorm { gamma, beta } => kernels::batch_norm_inplace(out, gamma, beta),
            Kernel::Lrn { size } => kernels::lrn_into(x(0), *size, out),
            Kernel::Activation(kind) => kernels::activation_inplace(out, *kind),
            Kernel::Add => kernels::add_assign(out, x(1)),
            Kernel::Mul => kernels::mul_assign(out, x(1)),
            Kernel::Concat => kernels::concat_into((0..self.node.inputs().len()).map(x), out),
            Kernel::Slice { start, len } => kernels::slice2_into(x(0), *start, *len, out),
            Kernel::Upsample(factor) => kernels::upsample_into(x(0), *factor, out),
            Kernel::Softmax => kernels::softmax_inplace(out),
            Kernel::Flatten | Kernel::Dropout => {}
        }
    }
}

/// Executes a graph with synthetic weights at a chosen [`Precision`].
#[derive(Debug, Clone)]
pub struct Executor<'g> {
    graph: &'g Graph,
    weights: WeightStore,
    precision: Precision,
    threads: usize,
    /// The kernel tier, resolved against the host once per executor.
    tier: Microkernel,
}

/// [`ExecError::OutOfMemory`] for a buffer of `bytes` that `node` needs.
fn oom(node: &Node, bytes: usize) -> ExecError {
    ExecError::OutOfMemory {
        node: node.name().to_string(),
        bytes,
    }
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
            tier: simd::resolve(KernelKind::Auto),
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

    /// Selects the kernel tier of the GEMM micro-kernel, of depthwise
    /// convolution and of the lowering to the run precision (the CLI's
    /// `--kernel` A/B switch). The request is resolved against the host
    /// here, once: prepare, every run and every repair use that tier. Like
    /// threads and blocking, it is a pure performance knob: every tier
    /// produces byte-identical output.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.tier = simd::resolve(kernel);
        self
    }

    /// The weight store in use (exposed for cross-checking transformations).
    pub fn weights(&self) -> &WeightStore {
        &self.weights
    }

    /// Rounds values through the run precision in place, on the kernel
    /// tier (every tier gives the same bits). Zero maps to zero at every
    /// precision and the int8 grid always spans zero, so lowering a packed
    /// panel buffer, padding and all, gives exactly the panels of the
    /// lowered natural tensor.
    fn lower_slice(&self, xs: &mut [f32]) {
        match self.precision {
            Precision::F32 => {}
            Precision::F16 => simd::round_f16(self.tier, xs),
            Precision::Int8 => {
                simd::fake_quantize(self.tier, xs);
            }
        }
    }

    /// The weights of `node` in their natural `shape`, lowered to the run
    /// precision.
    fn natural(&self, node: &Node, shape: Vec<usize>, fan_in: usize) -> Result<Tensor, ExecError> {
        let bytes = shape.iter().product::<usize>().saturating_mul(4);
        let mut t = self
            .weights
            .try_weight(node.name(), shape, fan_in)
            .map_err(|_| oom(node, bytes))?;
        self.lower_slice(t.data_mut());
        Ok(t)
    }

    /// The `[rows×k]` weight matrix of `node`, generated straight into the
    /// `width`-row GEMM panels its kernel reads (`MR` for a GEMM
    /// convolution, `NR` for a dense layer) and lowered to the run
    /// precision. A pruned store's weights take the same panels.
    fn packed(
        &self,
        node: &Node,
        (rows, k): (usize, usize),
        fan_in: usize,
        width: usize,
    ) -> Result<PackedPanels, ExecError> {
        let mut p = self
            .weights
            .packed_weight(node.name(), (rows, k), fan_in, width)
            .map_err(|_| oom(node, rows.div_ceil(width).saturating_mul(width * k * 4)))?;
        self.lower_slice(p.data_mut());
        Ok(p)
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
    /// graph's static shapes (the kernel outputs match the inferred shapes).
    fn static_in_channels(&self, node: &Node) -> usize {
        let &producer = node
            .inputs()
            .first()
            .expect("parameterized op has an input");
        self.graph.node(producer).output_shape().channels()
    }

    /// Compiles `node` into the kernel its op and static shapes select,
    /// with every learned parameter it reads generated and lowered.
    /// Parameters are keyed by node name, so compiling a node again gives
    /// the same bits.
    ///
    /// # Errors
    ///
    /// [`ExecError::UnsupportedGraph`] for a second input node or a fused
    /// node around a non-convolution, and [`ExecError::OutOfMemory`] when
    /// the weights cannot be allocated.
    fn compile(&self, node: &Node) -> Result<Kernel, ExecError> {
        let name = node.name();
        Ok(match *node.op() {
            Op::Input { .. } => {
                return Err(ExecError::UnsupportedGraph {
                    node: name.to_string(),
                    detail: "a second input, but a run feeds one tensor".into(),
                })
            }
            ref conv @ (Op::Conv2d { .. } | Op::DepthwiseConv2d { .. }) => {
                self.conv(node, conv, None, ActivationKind::Linear)?
            }
            Op::FusedConvBnAct { ref conv, bn, act } => {
                let c = node.output_shape().channels();
                let bn = bn.then(|| self.weights.bn_params(&format!("bn:{name}"), c));
                self.conv(node, conv, bn, act)?
            }
            Op::Conv3d {
                out_channels,
                kernel: (kd, kh, kw),
                stride,
                padding,
                bias,
            } => {
                let in_c = self.static_in_channels(node);
                let fan_in = in_c * kd * kh * kw;
                let w = self.natural(node, vec![out_channels, in_c, kd, kh, kw], fan_in)?;
                let b = bias.then(|| self.weights.bias(name, out_channels));
                let tail = Tail {
                    b,
                    bn: None,
                    act: ActivationKind::Linear,
                };
                Kernel::ConvDirect {
                    w,
                    stride: stride.into(),
                    padding: padding.into(),
                    groups: 1,
                    tail,
                }
            }
            Op::Dense { units, bias } => self.dense(node, units, bias, ActivationKind::Linear)?,
            Op::FusedDenseAct { units, bias, act } => self.dense(node, units, bias, act)?,
            Op::Pool {
                kind,
                kernel,
                stride,
                padding,
            } => Kernel::Pool {
                kind,
                kernel: [1, kernel.0, kernel.1],
                stride: [1, stride.0, stride.1],
                padding: [0, padding.0, padding.1],
            },
            Op::Pool3d {
                kind,
                kernel,
                stride,
            } => Kernel::Pool {
                kind,
                kernel: kernel.into(),
                stride: stride.into(),
                padding: [0; 3],
            },
            Op::BatchNorm => {
                let c = self.static_in_channels(node);
                let (gamma, beta) = self.weights.bn_params(&self.bn_key(node), c);
                Kernel::BatchNorm { gamma, beta }
            }
            Op::Lrn { size } => Kernel::Lrn { size },
            Op::Activation { kind } => Kernel::Activation(kind),
            Op::Add => Kernel::Add,
            Op::Mul => Kernel::Mul,
            Op::Concat => Kernel::Concat,
            Op::Slice { start, len } => Kernel::Slice { start, len },
            Op::Upsample { factor } => Kernel::Upsample(factor),
            Op::Flatten => Kernel::Flatten,
            Op::Softmax => Kernel::Softmax,
            Op::Dropout => Kernel::Dropout,
        })
    }

    /// Compiles a conv-family op (`Conv2d` or `DepthwiseConv2d`, alone or
    /// inside `FusedConvBnAct`) with its fused batch norm and activation:
    /// the single source of the conv weight key-and-shape convention and
    /// of the choice between its kernels.
    fn conv(
        &self,
        node: &Node,
        conv: &Op,
        bn: Option<(Vec<f32>, Vec<f32>)>,
        act: ActivationKind,
    ) -> Result<Kernel, ExecError> {
        let (name, in_c) = (node.name(), self.static_in_channels(node));
        match *conv {
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                bias,
            } => {
                let b = bias.then(|| self.weights.bias(name, out_channels));
                let tail = Tail { b, bn, act };
                let fan_in = (in_c / groups) * kernel.0 * kernel.1;
                let shape = vec![out_channels, in_c / groups, kernel.0, kernel.1];
                let out_elems = node.output_shape().num_elements();
                Ok(match gemm::select_conv_algo(out_elems, fan_in, groups) {
                    ConvAlgo::Direct => Kernel::ConvDirect {
                        w: self.natural(node, shape, fan_in)?,
                        stride: [1, stride.0, stride.1],
                        padding: [0, padding.0, padding.1],
                        groups,
                        tail,
                    },
                    ConvAlgo::Gemm => Kernel::ConvPacked {
                        w: self.packed(node, (out_channels, fan_in), fan_in, MR)?,
                        kernel,
                        stride,
                        padding,
                        tail,
                    },
                })
            }
            Op::DepthwiseConv2d {
                multiplier,
                kernel,
                stride,
                padding,
                bias,
            } => {
                let out_c = in_c * multiplier;
                let b = bias.then(|| self.weights.bias(name, out_c));
                let fan_in = kernel.0 * kernel.1;
                Ok(Kernel::ConvDirect {
                    w: self.natural(node, vec![out_c, 1, kernel.0, kernel.1], fan_in)?,
                    stride: [1, stride.0, stride.1],
                    padding: [0, padding.0, padding.1],
                    groups: in_c,
                    tail: Tail { b, bn, act },
                })
            }
            ref other => Err(ExecError::UnsupportedGraph {
                node: name.to_string(),
                detail: format!("FusedConvBnAct around non-conv op {other:?}"),
            }),
        }
    }

    /// Compiles a dense layer: packed panels when its shape runs on the
    /// GEMM, natural rows for the direct loop.
    fn dense(
        &self,
        node: &Node,
        units: usize,
        bias: bool,
        act: ActivationKind,
    ) -> Result<Kernel, ExecError> {
        let &producer = node.inputs().first().expect("dense has an input");
        let in_shape = self.graph.node(producer).output_shape();
        let (n, f) = (in_shape.dim(0), in_shape.dim(1));
        let b = bias.then(|| self.weights.bias(node.name(), units));
        let tail = Tail { b, bn: None, act };
        Ok(if gemm::dense_uses_gemm(n, f, units) {
            let w = self.packed(node, (units, f), f, NR)?;
            Kernel::DensePacked { w, tail }
        } else {
            let w = self.natural(node, vec![units, f], f)?;
            Kernel::DenseDirect { w, tail }
        })
    }

    /// Runs one inference, returning the graph output: [`Executor::prepare`]
    /// then [`PreparedExecutor::run`].
    ///
    /// # Errors
    ///
    /// Those of [`Executor::prepare`], then [`ExecError::InputShapeMismatch`]
    /// if `input` does not match the graph's input shape.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ExecError> {
        self.clone().prepare()?.run(input)
    }

    /// Compiles the graph into its execution plan: one typed step per node
    /// after the input, in graph order. Each step holds its kernel with
    /// every operand that kernel reads, generated once — weights lowered
    /// to the run precision, GEMM weights (convolutions off the direct
    /// loop, pruned or not, and dense layers off the direct loop)
    /// generated straight into the panel layout the micro-kernel reads
    /// ([`gemm::PackedPanels`]), with no natural-layout copy kept.
    ///
    /// Each step also gets the activation buffer it writes, numbered once
    /// for every run: a step that rewrites its first input in place keeps
    /// that input's buffer, and any other takes a buffer no live tensor
    /// holds (the best fit, else the largest one, grown, else a new one).
    /// The run arena reserves those buffers, capacity only, and each GEMM
    /// convolution's per-worker B-panel buffers, so a run allocates no
    /// activation or packing buffer.
    ///
    /// Alongside the parameters, `prepare` records a baseline FNV-style
    /// checksum of every step's `f32` parameter bits — the reference the
    /// SDC defense layer ([`crate::integrity`]) verifies against.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NoInput`] for a graph without an input node,
    /// [`ExecError::UnsupportedGraph`] naming a node the executor cannot
    /// run (a second input node, or a `FusedConvBnAct` wrapping a non-conv
    /// op), and [`ExecError::OutOfMemory`] naming the node when its
    /// weights, its activation buffer or its GEMM scratch cannot be
    /// allocated (a graph rebatched beyond memory, say).
    pub fn prepare(self) -> Result<PreparedExecutor<'g>, ExecError> {
        let graph = self.graph;
        let &input = graph.input_ids().first().ok_or(ExecError::NoInput)?;
        let input = graph.node(input);
        // Each slot's last reader. The graph output has none: it is never
        // freed or rewritten in place.
        let mut last_use: Vec<usize> = (0..graph.len()).collect();
        for node in graph.nodes() {
            for &k in node.inputs() {
                last_use[k.index()] = node.id().index();
            }
        }
        last_use[graph.output().index()] = usize::MAX;
        // Detecting the cache hierarchy here (it is cached process-wide)
        // keeps the first run's latency clean and fixes the blocking every
        // later reserve and call sees.
        crate::blocking::cache_info();
        // The walk: each slot's buffer, each buffer's size in values, the
        // buffers no live slot holds, and the live values (saturating: an
        // output too large to address fails its buffer reservation below).
        let elems = |k: usize| graph.nodes()[k].output_shape().num_elements();
        let mut buf_of = vec![0; graph.len()];
        let mut sizes = vec![elems(input.id().index())];
        let mut free = Vec::new();
        let (mut live, mut peak) = (sizes[0], sizes[0]);
        let mut steps = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            if node.id() == input.id() {
                continue;
            }
            let kernel = self.compile(node)?;
            let (idx, ins) = (node.id().index(), node.inputs());
            let first = ins[0].index();
            // In place when this step is the input's last reader and reads
            // it through no other input.
            let rewrites = kernel.rewrites_input();
            let sole = last_use[first] == idx && ins[1..].iter().all(|k| k.index() != first);
            let buf = if rewrites && sole {
                buf_of[first]
            } else {
                pick(&mut free, &mut sizes, elems(idx))
            };
            buf_of[idx] = buf;
            live = live.saturating_add(elems(idx));
            peak = peak.max(live);
            // The slots this step last reads die (its own, when nothing
            // reads it), and with them their buffers — but the input an
            // in-place step rewrote lives on as its output.
            let mut dead = Vec::new();
            for k in std::iter::once(idx).chain(ins.iter().map(|k| k.index())) {
                if last_use[k] == idx && !dead.contains(&k) {
                    dead.push(k);
                    live = live.saturating_sub(elems(k));
                    if k == idx || buf_of[k] != buf {
                        free.push(buf_of[k]);
                    }
                }
            }
            steps.push(Step {
                node,
                checksum: kernel.checksum(),
                kernel,
                buf,
                copy: rewrites && !sole,
                ins: ins.iter().map(|k| buf_of[k.index()]).collect(),
            });
        }
        let buffered = sizes.iter().copied().fold(0, usize::saturating_add);
        let stats = RunStats {
            peak_live_bytes: peak.saturating_mul(4),
            ops_executed: steps.len(),
            buffer_bytes: buffered.saturating_mul(4),
        };
        let mut prepared = PreparedExecutor {
            output_buf: buf_of[graph.output().index()],
            exec: self,
            input,
            steps,
            stats,
            arena: Mutex::default(),
        };
        prepared.arena = Mutex::new(prepared.new_arena()?);
        Ok(prepared)
    }
}

/// An [`Executor`]'s graph compiled into its execution plan, with every
/// synthetic parameter materialized: the "loaded checkpoint".
///
/// Build it once with [`Executor::prepare`], then call
/// [`PreparedExecutor::run_into`] (or [`PreparedExecutor::run`], which
/// returns a new tensor) per inference. The plan is immutable, and fixes
/// the buffer every activation is written to; a run's memory is an arena
/// of those buffers that the runs reuse.
///
/// # Examples
///
/// ```
/// use edgebench_models::Model;
/// use edgebench_tensor::{Executor, Tensor};
///
/// let g = Model::CifarNet.build();
/// let x = Tensor::random([1, 3, 32, 32], 7);
/// let prepared = Executor::new(&g).with_seed(1).prepare().unwrap();
/// let (first, stats) = prepared.run_observed(&x, &mut |_, _| Ok(())).unwrap();
/// assert_eq!(first.shape().dims(), &[1, 10]);
/// assert_eq!(stats.ops_executed, g.len() - 1);
/// // A second run reuses the first one's arena and repeats its bytes, here
/// // into a tensor the caller keeps.
/// let mut out = Tensor::zeros([0]);
/// prepared.run_into(&[1, 3, 32, 32], x.data(), &mut out, &mut |_, _| Ok(())).unwrap();
/// assert_eq!(out, first);
/// ```
#[derive(Debug)]
pub struct PreparedExecutor<'g> {
    exec: Executor<'g>,
    /// The graph's input node; its buffer is the first.
    input: &'g Node,
    /// The plan: one step per node after the input, in graph order.
    steps: Vec<Step<'g>>,
    /// The buffer holding the graph output once the steps have run.
    output_buf: usize,
    /// What every run reports.
    stats: RunStats,
    /// The run memory. Guarded so `&self` runs stay possible from multiple
    /// threads: a caller that misses the lock runs on an arena of its own
    /// (correct, just not allocation-free).
    arena: Mutex<Arena>,
}

impl PreparedExecutor<'_> {
    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InputShapeMismatch`] if `input` does not match
    /// the graph's input shape.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ExecError> {
        self.run_observed(input, &mut |_, _| Ok(())).map(|(t, _)| t)
    }

    /// Runs one inference with a per-node observer, as
    /// [`PreparedExecutor::run_into`] does, into a new tensor.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::run_into`].
    pub fn run_observed(
        &self,
        input: &Tensor,
        observer: &mut NodeObserver<'_>,
    ) -> Result<(Tensor, RunStats), ExecError> {
        let output = self.exec.graph.node(self.exec.graph.output());
        let mut out = Tensor::zeros(output.output_shape().clone());
        let stats = self.run_into(input.shape().dims(), input.data(), &mut out, observer)?;
        Ok((out, stats))
    }

    /// The interpreter: runs one inference on `input`, of shape `dims`,
    /// each step into the buffer the plan gave it, and copies the graph
    /// output into `out`, reusing its buffer. After each step's output is
    /// lowered to the run precision, `observer(node_index, output)` may
    /// inspect or mutate it before any reader sees it: the hook the SDC
    /// defense layer ([`crate::integrity`]) builds its activation guards
    /// and injection campaigns on.
    ///
    /// # Errors
    ///
    /// [`ExecError::InputShapeMismatch`] if `dims` is not the graph's input
    /// shape or `input` does not hold its values, an observer error (which
    /// aborts the run), and [`ExecError::OutOfMemory`] when a run that finds
    /// the shared arena in use cannot reserve its own.
    pub fn run_into(
        &self,
        dims: &[usize],
        input: &[f32],
        out: &mut Tensor,
        observer: &mut NodeObserver<'_>,
    ) -> Result<RunStats, ExecError> {
        let expected = self.input.output_shape();
        if expected.dims() != dims || expected.num_elements() != input.len() {
            let actual = if expected.dims() == dims {
                format!("{} values", input.len())
            } else {
                TensorShape::new(dims).to_string()
            };
            let expected = expected.to_string();
            return Err(ExecError::InputShapeMismatch { expected, actual });
        }
        let mut guard = self.arena.try_lock();
        let mut local = None;
        let Arena { bufs, gemm, taps } = match guard {
            Ok(ref mut a) => &mut **a,
            Err(_) => local.insert(self.new_arena()?),
        };
        let x = &mut bufs[0];
        x.set_shape(expected);
        x.data_mut().copy_from_slice(input);
        self.exec.lower_slice(x.data_mut());
        for step in &self.steps {
            let (y, read) = split(bufs, step.buf);
            y.set_shape(step.node.output_shape());
            if step.copy {
                y.data_mut().copy_from_slice(read(step.ins[0]).data());
            }
            step.apply(read, y, gemm, taps, self.exec.threads);
            self.exec.lower_slice(y.data_mut());
            observer(step.node.id().index(), y)?;
        }
        let y = &bufs[self.output_buf];
        out.set_shape(y.shape());
        out.data_mut().copy_from_slice(y.data());
        Ok(self.stats)
    }

    /// A run arena: the plan's activation buffers, each reserved (capacity
    /// only) where the plan's walk first needs its size, and each GEMM
    /// convolution's per-worker B-panel buffers. `prepare` builds the
    /// arena runs share, and a run that finds it in use builds its own.
    fn new_arena(&self) -> Result<Arena, ExecError> {
        let mut arena = Arena::default();
        arena.gemm.set_kernel(self.exec.tier);
        let steps = self.steps.iter().map(|s| (s.node, s.buf, Some(&s.kernel)));
        for (node, b, kernel) in std::iter::once((self.input, 0, None)).chain(steps) {
            if b == arena.bufs.len() {
                arena.bufs.push(Tensor::zeros([0]));
            }
            let elems = node.output_shape().num_elements();
            (arena.bufs[b].try_reserve(elems)).map_err(|_| oom(node, elems.saturating_mul(4)))?;
            if let Some(Kernel::ConvPacked { w, .. }) = kernel {
                let threads = self.exec.threads;
                (arena.gemm.reserve(w, node.output_shape(), threads))
                    .map_err(|elems| oom(node, elems.saturating_mul(4)))?;
            }
        }
        Ok(arena)
    }

    /// Number of nodes in the underlying graph (the index space of
    /// [`PreparedExecutor::param_elems`] and friends).
    pub fn node_count(&self) -> usize {
        self.exec.graph.len()
    }

    /// Name of node `idx` in the underlying graph.
    pub(crate) fn node_name(&self, idx: usize) -> &str {
        self.exec.graph.nodes()[idx].name()
    }

    /// The position in the plan of node `idx`'s step (the input node has
    /// none).
    fn position(&self, idx: usize) -> Option<usize> {
        self.steps
            .binary_search_by_key(&idx, |s| s.node.id().index())
            .ok()
    }

    /// Number of logical `f32` parameter words node `idx` holds, in the
    /// canonical order weights → bias → bn-gamma → bn-beta. Weights count
    /// as their natural tensor does: the padding of packed GEMM panels is
    /// excluded, so the count (and every element index below it) does not
    /// depend on the layout. Zero for parameterless nodes.
    pub fn param_elems(&self, idx: usize) -> usize {
        self.position(idx)
            .map_or(0, |i| self.steps[i].kernel.param_elems())
    }

    /// Recomputes every step's parameter checksum and returns the node
    /// indices whose parameter bits no longer match the prepare-time
    /// baseline — i.e. the nodes silent corruption has touched since
    /// `prepare`.
    pub fn verify_params(&self) -> Vec<usize> {
        self.steps
            .iter()
            .filter(|s| s.kernel.checksum() != s.checksum)
            .map(|s| s.node.id().index())
            .collect()
    }

    /// Recompiles node `idx`'s step kernel from the pristine weight store
    /// (weights are a pure function of seed and node name, so this
    /// restores the exact prepare-time bits, including pruning, precision
    /// lowering and panel layout). Returns the number of logical parameter
    /// bytes rewritten (`4 · param_elems(idx)`, panel padding excluded).
    ///
    /// # Errors
    ///
    /// Same as [`Executor::prepare`] (cannot occur for a plan that
    /// prepared successfully, short of memory exhaustion).
    pub fn repair_node(&mut self, idx: usize) -> Result<usize, ExecError> {
        let Some(i) = self.position(idx) else {
            return Ok(0);
        };
        let fresh = self.exec.compile(self.steps[i].node)?;
        debug_assert_eq!(fresh.checksum(), self.steps[i].checksum);
        let bytes = fresh.param_elems() * std::mem::size_of::<f32>();
        self.steps[i].kernel = fresh;
        Ok(bytes)
    }

    /// Flips bit `bit` of the `element`-th `f32` parameter word of node
    /// `idx` (canonical order weights → bias → bn-gamma → bn-beta) — the
    /// deterministic injection primitive SDC campaigns use. Returns
    /// `false` when the coordinates are out of range (nothing flipped).
    pub fn corrupt_param_bit(&mut self, idx: usize, element: usize, bit: u8) -> bool {
        let Some(i) = self.position(idx) else {
            return false;
        };
        if bit >= 32 {
            return false;
        }
        let mut remaining = element;
        for part in self.steps[i].kernel.params_mut() {
            if remaining < part.logical_len() {
                let slot = part.slot(remaining);
                let v = &mut part.buf_mut()[slot];
                *v = f32::from_bits(v.to_bits() ^ (1u32 << bit));
                return true;
            }
            remaining -= part.logical_len();
        }
        false
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
        let p = b.pool(r, PoolKind::Max, (2, 2), (2, 2)).unwrap();
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
        let p = b.pool(r, PoolKind::Avg, (2, 2), (2, 2)).unwrap();
        let g2 = b.build(p).unwrap();

        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let p = b.pool(r, PoolKind::Avg, (2, 2), (2, 2)).unwrap();
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
    fn repeated_runs_on_one_arena_repeat_the_first_run() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            for sparsity in [0.0, 0.3, 0.9] {
                let prepared = Executor::new(&g)
                    .with_seed(5)
                    .with_precision(p)
                    .with_weight_sparsity(sparsity)
                    .prepare()
                    .unwrap();
                let first = prepared.run(&x).unwrap();
                for _ in 0..2 {
                    assert_eq!(
                        prepared.run(&x).unwrap(),
                        first,
                        "precision {p:?} sparsity {sparsity}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_into_writes_the_callers_tensor_in_place() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let want = prepared.run(&x).unwrap();
        let mut out = Tensor::zeros([0]);
        let no_observer = &mut |_: usize, _: &mut Tensor| Ok(());
        prepared
            .run_into(&[1, 3, 8, 8], x.data(), &mut out, no_observer)
            .unwrap();
        assert_eq!(out, want);
        let buf = out.data().as_ptr();
        prepared
            .run_into(&[1, 3, 8, 8], x.data(), &mut out, no_observer)
            .unwrap();
        assert_eq!((out.data().as_ptr(), &out), (buf, &want));
        // Dims that are not the input's, or values that do not fill them.
        let mut err = |dims: &[usize], len| {
            let mut out = Tensor::zeros([0]);
            let res = prepared.run_into(dims, &x.data()[..len], &mut out, no_observer);
            res.unwrap_err().to_string()
        };
        assert_eq!(
            err(&[1, 3, 4, 16], 192),
            "input shape mismatch: expected 1x3x8x8, got 1x3x4x16"
        );
        assert_eq!(
            err(&[1, 3, 8, 8], 100),
            "input shape mismatch: expected 1x3x8x8, got 100 values"
        );
    }

    /// A run that finds the arena in use, whether issued from inside an
    /// observer or from a second thread, runs on an arena of its own and
    /// gives a serial run's bytes.
    #[test]
    fn runs_that_miss_the_shared_arena_repeat_a_serial_run() {
        let g = edgebench_models::Model::CifarNet.build();
        let x = Tensor::random([1, 3, 32, 32], 4);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in [Precision::F32, Precision::Int8] {
            let prepared = Executor::new(&g)
                .with_seed(9)
                .with_precision(p)
                .prepare()
                .unwrap();
            let want = bits(&prepared.run(&x).unwrap());
            // Every observer call runs the executor again, while the outer
            // run holds the arena.
            let mut nested = Vec::new();
            let (outer, _) = prepared
                .run_observed(&x, &mut |_, _| {
                    nested.push(bits(&prepared.run(&x)?));
                    Ok(())
                })
                .unwrap();
            assert_eq!(bits(&outer), want, "{p:?}");
            assert_eq!(nested.len(), g.len() - 1);
            assert!(nested.iter().all(|y| *y == want), "{p:?}");
            // Two threads share the executor, 20 runs each.
            std::thread::scope(|s| {
                let run20 = || (0..20).map(|_| bits(&prepared.run(&x).unwrap())).collect();
                let workers = [s.spawn(run20), s.spawn(run20)];
                for w in workers {
                    let ys: Vec<Vec<u32>> = w.join().unwrap();
                    assert!(ys.iter().all(|y| *y == want), "{p:?}");
                }
            });
        }
    }

    /// Total bytes held by the plan's parameters, panel padding included.
    fn cached_param_bytes(p: &PreparedExecutor<'_>) -> usize {
        let params = p.steps.iter().flat_map(|s| s.kernel.params());
        params.map(|w| w.buf().len()).sum::<usize>() * std::mem::size_of::<f32>()
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
        let mut want = Tensor::zeros([1, 1000]);
        gemm::dense_direct_into(&flat, &w, Some(&bias), ActivationKind::Linear, &mut want);
        let prepared = exec.prepare().unwrap();
        assert_eq!(
            cached_param_bytes(&prepared),
            (1000usize.next_multiple_of(NR) * 1152 + 1000) * 4
        );
        assert_eq!(prepared.run(&input).unwrap(), want);
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
    fn prepared_executor_reports_stats_and_cache_size() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(1).prepare().unwrap();
        let (out_a, stats_a) = prepared.run_observed(&x, &mut |_, _| Ok(())).unwrap();
        let (out_b, stats_b) = prepared.run_observed(&x, &mut |_, _| Ok(())).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        assert_eq!(
            stats_a.peak_live_bytes,
            g.stats().peak_activation_bytes as usize
        );
        assert_eq!(stats_a.ops_executed, g.len() - 1);
        assert!(cached_param_bytes(&prepared) > 0);
    }

    #[test]
    fn graphs_the_executor_cannot_run_are_rejected_at_prepare() {
        // A second input node: a run feeds one tensor, so the plan would
        // read a slot nothing fills.
        let mut b = GraphBuilder::new("two-inputs");
        let x = b.input([1, 4]);
        let y = b.input([1, 4]);
        let s = b.add(x, y).unwrap();
        let g = b.build(s).unwrap();
        let second = g.node(y).name();
        let err = Executor::new(&g).prepare().unwrap_err();
        assert!(
            matches!(&err, ExecError::UnsupportedGraph { node, .. } if node == second),
            "{err}"
        );
        assert_eq!(Executor::new(&g).run(&Tensor::zeros([1, 4])), Err(err));
        // A fused node around an op that is no convolution.
        let mut b = GraphBuilder::new("fused-pool");
        let x = b.input([1, 2, 4, 4]);
        let pool = Op::Pool {
            kind: PoolKind::Max,
            kernel: (2, 2),
            stride: (2, 2),
            padding: (0, 0),
        };
        let op = Op::FusedConvBnAct {
            conv: Box::new(pool),
            bn: true,
            act: ActivationKind::Relu,
        };
        let f = b.push("fused", op, vec![x]).unwrap();
        let err = Executor::new(&b.build(f).unwrap()).prepare().unwrap_err();
        assert!(
            matches!(&err, ExecError::UnsupportedGraph { node, .. } if node == "fused"),
            "{err}"
        );
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
