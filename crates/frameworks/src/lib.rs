//! # edgebench-frameworks
//!
//! Models of the nine DNN frameworks the paper studies (Table II):
//! TensorFlow, TensorFlow-Lite, Keras, Caffe, PyTorch, TensorRT, DarkNet,
//! the Movidius NCSDK and the FPGA stacks (TVM-VTA / FINN).
//!
//! A "framework" here is a *deployment pipeline*: it takes a model graph,
//! applies the optimization passes that the real framework applies
//! (operator fusion, graph freezing, precision lowering — all implemented
//! as genuine IR transformations in [`passes`]), checks deployability
//! against a device (reproducing the paper's Table V compatibility matrix
//! in [`compat`]), and produces a [`deploy::CompiledModel`] whose latency,
//! energy and software-stack breakdown come from the calibrated execution
//! profiles in `profile`.
//!
//! ## Example
//!
//! ```
//! use edgebench_frameworks::{deploy, Framework};
//! use edgebench_devices::Device;
//! use edgebench_models::Model;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = deploy::compile(Framework::TensorRt, Model::ResNet18, Device::JetsonNano)?;
//! let t = compiled.timing()?;
//! assert!(t.total_ms() < 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compat;
pub mod deploy;
mod info;
pub mod ladder;
pub mod passes;
mod profile;
pub mod stack;

pub use info::{Framework, FrameworkInfo, OptimizationSupport};
