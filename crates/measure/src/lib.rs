//! # edgebench-measure
//!
//! Simulated measurement instruments, replacing the physical equipment of
//! the paper's §V (Experimental Setups):
//!
//! * `instruments::UsbMultimeter` — the UM25C USB power meter used for
//!   USB-powered devices: 1 Hz sampling, ±(0.05 % + 2 digits) voltage and
//!   ±(0.1 % + 4 digits) current accuracy.
//! * `instruments::PowerAnalyzer` — the outlet power analyzer: ±0.005 W.
//! * [`thermal_camera::ThermalCamera`] — the Flir One: reads the heatsink
//!   *surface*, 5–10 °C below the junction.
//! * [`docker::Virtualization`] — the Docker wrapper of §VI-D: overhead
//!   applies to the syscall/dispatch share of a run, not to kernel compute,
//!   which is why the paper observes ≤ 5 % slowdown (Fig 13).
//!
//! Instruments add calibrated, deterministic noise (seeded) so repeated
//! experiments are reproducible while still exercising error-propagation
//! paths. [`trace::EventLog`] carries the structured, replayable event
//! stream of fault-injection runs alongside the power traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod docker;
pub mod instruments;
pub mod stats;
pub mod thermal_camera;
pub mod trace;

pub use stats::Samples;
pub use trace::{EventLog, PowerTrace, ServeEvent, ServeEventKind};
