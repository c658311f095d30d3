//! # edgebench-tensor
//!
//! A self-contained numeric tensor substrate: dense `f32` tensors, the CNN
//! kernel set needed by the paper's sixteen models (2-D/3-D convolution,
//! depthwise convolution, dense, pooling, batch-norm, LRN, activations,
//! softmax), half-precision emulation, affine INT8 quantization, and a
//! [`Executor`] that runs any [`edgebench_graph::Graph`] end to end with
//! synthetic weights.
//!
//! This crate provides the *functional* half of the reproduction: framework
//! passes in `edgebench-frameworks` are validated by executing graphs before
//! and after a transformation and comparing outputs, and quantization error
//! studies run real INT8 arithmetic rather than assuming its effect.
//!
//! ## Example
//!
//! ```
//! use edgebench_graph::{GraphBuilder, ActivationKind};
//! use edgebench_tensor::{Executor, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input([1, 3, 8, 8]);
//! let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1))?;
//! let r = b.activation(c, ActivationKind::Relu)?;
//! let g = b.build(r)?;
//!
//! let exec = Executor::new(&g).with_seed(42);
//! let input = Tensor::random([1, 3, 8, 8], 7);
//! let out = exec.run(&input)?;
//! assert_eq!(out.shape().dims(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blocking;
mod error;
mod executor;
pub mod f16;
pub mod gemm;
pub mod int8;
pub mod integrity;
pub mod kernels;
pub mod pool;
pub mod quant;
pub mod simd;
mod tensor;

pub use error::ExecError;
pub use executor::{Executor, Precision, PreparedExecutor, RunStats, WeightStore};
pub use integrity::{GuardConfig, GuardStats, GuardedExecutor};
pub use quant::QuantParams;
pub use simd::{KernelKind, Microkernel};
pub use tensor::Tensor;
