//! Generic parameter sweeps over the deployment space — the "workload
//! generator + parameter sweep" half of a benchmark harness. Experiments
//! cover the paper's exact figures; sweeps let a user explore every other
//! (model × framework × device × batch) combination with one call.

use crate::parallel;
use edgebench_devices::Device;
use edgebench_frameworks::deploy::{compile, DeployError};
use edgebench_frameworks::Framework;
use edgebench_models::Model;

/// One result row of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Model deployed.
    pub model: Model,
    /// Framework used.
    pub framework: Framework,
    /// Target device.
    pub device: Device,
    /// Batch size.
    pub batch: usize,
    /// Latency per inference in ms, when the deployment runs.
    pub latency_ms: Option<f64>,
    /// Energy per inference in mJ, when the deployment runs.
    pub energy_mj: Option<f64>,
    /// Failure description for infeasible combinations.
    pub error: Option<String>,
}

/// A cartesian sweep over models, frameworks, devices and batch sizes.
///
/// # Examples
///
/// ```
/// use edgebench::sweep::Sweep;
/// use edgebench_devices::Device;
/// use edgebench_frameworks::Framework;
/// use edgebench_models::Model;
///
/// let rows = Sweep::new()
///     .models([Model::ResNet18, Model::MobileNetV2])
///     .frameworks([Framework::PyTorch])
///     .devices([Device::JetsonTx2])
///     .run();
/// assert_eq!(rows.len(), 2);
/// assert!(rows.iter().all(|r| r.latency_ms.is_some()));
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    models: Vec<Model>,
    frameworks: Vec<Framework>,
    devices: Vec<Device>,
    batches: Vec<usize>,
    jobs: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// An empty sweep (defaults: batch 1; everything else must be set).
    pub fn new() -> Self {
        Sweep {
            models: Vec::new(),
            frameworks: Vec::new(),
            devices: Vec::new(),
            batches: vec![1],
            jobs: 1,
        }
    }

    /// Sets the models to sweep.
    pub fn models(mut self, models: impl IntoIterator<Item = Model>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Sets the frameworks to sweep.
    pub fn frameworks(mut self, fws: impl IntoIterator<Item = Framework>) -> Self {
        self.frameworks = fws.into_iter().collect();
        self
    }

    /// Sets the devices to sweep.
    pub fn devices(mut self, devices: impl IntoIterator<Item = Device>) -> Self {
        self.devices = devices.into_iter().collect();
        self
    }

    /// Sets the batch sizes to sweep (default `[1]`).
    pub fn batches(mut self, batches: impl IntoIterator<Item = usize>) -> Self {
        self.batches = batches.into_iter().collect();
        self
    }

    /// Sets how many worker threads [`Sweep::run`] may use (default 1 —
    /// fully serial; `0` asks the OS for the available parallelism).
    ///
    /// Every grid cell is an independent pure function of its coordinates,
    /// and results are ordered by cell index, so the produced rows are
    /// identical — values *and* order — for every worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The cartesian product of coordinates, in sweep order.
    fn cells(&self) -> Vec<(Model, Framework, Device, usize)> {
        let mut cells = Vec::with_capacity(
            self.models.len() * self.frameworks.len() * self.devices.len() * self.batches.len(),
        );
        for &model in &self.models {
            for &fw in &self.frameworks {
                for &device in &self.devices {
                    for &batch in &self.batches {
                        cells.push((model, fw, device, batch));
                    }
                }
            }
        }
        cells
    }

    /// Deploys and measures one grid cell.
    fn run_cell(
        &self,
        &(model, fw, device, batch): &(Model, Framework, Device, usize),
    ) -> SweepRow {
        // Latency and energy are both amortized over the batch: the roofline
        // reports batch-total time, and energy = power × time inherits the
        // same batch-total scale.
        let outcome: Result<(f64, f64), DeployError> = compile(fw, model, device)
            .map(|c| c.with_batch(batch))
            .and_then(|c| {
                Ok((
                    c.latency_ms()? / batch as f64,
                    c.energy_mj()? / batch as f64,
                ))
            });
        let (latency_ms, energy_mj, error) = match outcome {
            Ok((l, e)) => (Some(l), Some(e), None),
            Err(err) => (None, None, Some(err.to_string())),
        };
        SweepRow {
            model,
            framework: fw,
            device,
            batch,
            latency_ms,
            energy_mj,
            error,
        }
    }

    /// Runs the full cartesian product, fanning cells over
    /// [`Sweep::jobs`] workers. Row order never depends on the worker
    /// count.
    pub fn run(&self) -> Vec<SweepRow> {
        parallel::run_indexed(&self.cells(), self.jobs, |_, cell| self.run_cell(cell))
    }
}

/// Sustained back-to-back looping drives the RPi's bare SoC beyond its
/// Table III single-inference draw (the same calibration as fig14's
/// sustained Inception-v4 load: 3.5 W against the 2.73 W average);
/// every other platform dissipates its inference power. Shared with the
/// fleet serving simulator ([`crate::serve`]) so both sustained paths use
/// one thermal-power model.
pub(crate) fn sustained_power_w(device: Device, inference_power_w: f64) -> f64 {
    match device {
        Device::RaspberryPi3 => inference_power_w * 3.5 / device.spec().avg_power_w,
        _ => inference_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_product_size() {
        let rows = Sweep::new()
            .models([Model::ResNet18, Model::MobileNetV2])
            .frameworks([Framework::PyTorch, Framework::TensorFlow])
            .devices([Device::JetsonTx2, Device::XeonCpu])
            .batches([1, 8])
            .run();
        assert_eq!(rows.len(), 2 * 2 * 2 * 2);
    }

    #[test]
    fn infeasible_combinations_carry_errors_not_panics() {
        let rows = Sweep::new()
            .models([Model::Vgg16])
            .frameworks([Framework::TensorFlow])
            .devices([Device::RaspberryPi3])
            .run();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].latency_ms.is_none());
        assert!(rows[0].error.as_deref().unwrap_or("").contains("memory"));
    }

    #[test]
    fn batch_sweep_amortizes_per_inference_latency_on_gpus() {
        let rows = Sweep::new()
            .models([Model::ResNet50])
            .frameworks([Framework::PyTorch])
            .devices([Device::GtxTitanX])
            .batches([1, 16])
            .run();
        let l1 = rows[0].latency_ms.unwrap();
        let l16 = rows[1].latency_ms.unwrap();
        assert!(l16 < l1, "batch-16 per-inference {l16} vs batch-1 {l1}");
    }

    #[test]
    fn batch_sweep_amortizes_per_inference_energy_on_gpus() {
        // Mirrors the latency test above: energy = power × batch-total time,
        // so the per-inference column must divide by batch exactly as the
        // latency column does.
        let rows = Sweep::new()
            .models([Model::ResNet50])
            .frameworks([Framework::PyTorch])
            .devices([Device::GtxTitanX])
            .batches([1, 16])
            .run();
        let e1 = rows[0].energy_mj.unwrap();
        let e16 = rows[1].energy_mj.unwrap();
        assert!(e16 < e1, "batch-16 per-inference {e16} vs batch-1 {e1}");
    }

    #[test]
    fn parallel_sweep_rows_are_identical_to_serial() {
        let sweep = Sweep::new()
            .models([Model::ResNet18, Model::MobileNetV2, Model::Vgg16])
            .frameworks([Framework::PyTorch, Framework::TensorFlow, Framework::TfLite])
            .devices([Device::JetsonTx2, Device::RaspberryPi3, Device::XeonCpu])
            .batches([1, 4]);
        let serial = sweep.clone().jobs(1).run();
        for jobs in [0, 2, 5] {
            let parallel = sweep.clone().jobs(jobs).run();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }
}
