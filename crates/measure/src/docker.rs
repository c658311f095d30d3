//! Virtualization (Docker) overhead model — the paper's §VI-D / Fig 13.
//!
//! Container overhead comes from syscall indirection, cgroup accounting and
//! storage/network namespace translation. DNN kernel time is pure user-space
//! compute and is untouched; only the dispatch, I/O and fixed glue portions
//! of a run pay the tax. Because those portions are a small share of an
//! inference, the end-to-end slowdown stays within a few percent —
//! "contrary to popular belief about virtualization overhead" (paper).

use edgebench_devices::perf::Timing;
use edgebench_frameworks::deploy::{CompiledModel, DeployError};

/// Execution environment of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Virtualization {
    /// Directly on the host OS.
    #[default]
    BareMetal,
    /// Inside a Docker container.
    Docker,
}

/// Multiplier on true syscall-bound I/O (storage/network namespaces).
const DOCKER_IO_TAX: f64 = 1.6;
/// Multiplier on dispatch glue (occasional futex/scheduler syscalls; the
/// Python interpreter itself is user-space and unaffected).
const DOCKER_DISPATCH_TAX: f64 = 1.05;
/// Multiplier on kernel compute/memory time (page-table, cgroup accounting
/// and cache effects only).
const DOCKER_KERNEL_TAX: f64 = 1.015;

impl Virtualization {
    /// Adjusts a bare-metal timing for this environment.
    pub(crate) fn apply(self, t: &Timing) -> Timing {
        match self {
            Virtualization::BareMetal => t.clone(),
            Virtualization::Docker => {
                let compute_s = t.compute_s * DOCKER_KERNEL_TAX;
                let memory_s = t.memory_s * DOCKER_KERNEL_TAX;
                let dispatch_s = t.dispatch_s * DOCKER_DISPATCH_TAX;
                let io_s = t.io_s * DOCKER_IO_TAX;
                let glue = t.total_s
                    - (t.compute_s + t.memory_s) * t.pressure_factor
                    - t.dispatch_s
                    - t.io_s;
                let total_s = (compute_s + memory_s) * t.pressure_factor
                    + dispatch_s
                    + io_s
                    + glue * DOCKER_DISPATCH_TAX;
                Timing {
                    compute_s,
                    memory_s,
                    dispatch_s,
                    io_s,
                    pressure_factor: t.pressure_factor,
                    total_s,
                    by_op_s: t.by_op_s.clone(),
                }
            }
        }
    }

    /// Latency of a compiled model in this environment, seconds.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn latency_s(self, compiled: &CompiledModel) -> Result<f64, DeployError> {
        Ok(self.apply(&compiled.timing()?).total_s)
    }
}

/// Fractional slowdown of Docker over bare metal for a compiled model.
///
/// # Errors
///
/// Propagates timing-model errors.
#[cfg(test)]
fn docker_slowdown(compiled: &CompiledModel) -> Result<f64, DeployError> {
    let bare = Virtualization::BareMetal.latency_s(compiled)?;
    let dock = Virtualization::Docker.latency_s(compiled)?;
    Ok(dock / bare - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_devices::Device;
    use edgebench_frameworks::deploy::compile;
    use edgebench_frameworks::Framework;
    use edgebench_models::Model;

    #[test]
    fn docker_overhead_is_within_5_percent_on_rpi() {
        // Paper Fig 13: "the overhead is almost negligible, within 5%".
        for m in [
            Model::ResNet18,
            Model::ResNet50,
            Model::MobileNetV2,
            Model::InceptionV4,
            Model::TinyYolo,
        ] {
            let c = compile(Framework::TensorFlow, m, Device::RaspberryPi3).unwrap();
            let s = docker_slowdown(&c).unwrap();
            assert!((0.0..=0.05).contains(&s), "{m}: slowdown {s}");
        }
    }

    #[test]
    fn docker_never_speeds_things_up() {
        let c = compile(Framework::PyTorch, Model::ResNet50, Device::JetsonTx2).unwrap();
        let t = c.timing().unwrap();
        let d = Virtualization::Docker.apply(&t);
        assert!(d.total_s >= t.total_s);
    }

    #[test]
    fn bare_metal_is_identity() {
        let c = compile(Framework::PyTorch, Model::ResNet18, Device::JetsonTx2).unwrap();
        let t = c.timing().unwrap();
        assert_eq!(Virtualization::BareMetal.apply(&t), t);
    }

    #[test]
    fn overhead_concentrates_in_glue_not_kernels() {
        let c = compile(Framework::TensorFlow, Model::ResNet18, Device::RaspberryPi3).unwrap();
        let t = c.timing().unwrap();
        let d = Virtualization::Docker.apply(&t);
        let kernel_growth = d.compute_s / t.compute_s;
        let glue_growth = d.dispatch_s / t.dispatch_s;
        assert!(kernel_growth < 1.02);
        assert!(glue_growth > kernel_growth);
    }
}
