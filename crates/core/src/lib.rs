//! # edgebench
//!
//! The experiment harness of the reproduction: one [`experiments::Experiment`] per table
//! and figure of the paper's evaluation, each regenerating the same
//! rows/series the paper reports (paper reference values are carried
//! alongside model outputs wherever the paper prints them).
//!
//! ## Example
//!
//! ```
//! use edgebench::experiments;
//!
//! let report = experiments::by_id("fig7").expect("registered").run();
//! let text = report.to_table_string();
//! assert!(text.contains("tensorrt"));
//! ```
//!
//! Run every experiment:
//!
//! ```no_run
//! for exp in edgebench::experiments::all() {
//!     println!("{}", exp.run().to_table_string());
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod parallel;
pub mod report;
pub mod runtime;
pub mod sdc;
pub mod serve;
pub mod sweep;
pub mod workload;

pub use report::Report;
