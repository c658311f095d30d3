//! Extension experiment: sim-vs-real serving validation.
//!
//! The serving simulator (`serve::sim`) predicts latency and goodput from
//! calibrated per-rung service tables; the zero-copy runtime
//! (`runtime::run_replay`) pushes the *same seeded trace* through the real
//! pipeline mechanics — mmap rings, futex wakeups, checksums, backpressure
//! — with virtual-time accounting built on the same tables. If the two
//! agree, the simulator's capacity predictions can be trusted for
//! deployments that use the runtime; where they diverge, the delta
//! quantifies what pure queueing models miss (pipeline hand-off ordering,
//! ring-capacity backpressure).
//!
//! Arms: a moderate-load and a near-saturation Poisson trace (runtime
//! configured to match the simulator's assumptions: zero capture and
//! preprocess cost, ample ring capacity), a 4-slot ring showing blocking
//! backpressure, and a sentry arm on a sparse-hit trace showing the
//! standby-rung energy saving the simulator's always-full-model fleet
//! cannot predict.

use super::Experiment;
use crate::report::Report;
use crate::runtime::{self, RuntimeConfig, RuntimeReport, SentryConfig};
use crate::serve::{Fleet, ReplicaSpec, ServeConfig, ServeReport, TraceFile, Traffic};
use edgebench_devices::Device;
use edgebench_models::Model;

/// `ext-runtime-vs-sim` — simulator predictions vs runtime measurements.
pub(crate) struct ExtRuntime;

/// Trace seed shared by every arm: sim and runtime replay identical
/// arrivals and identical ground-truth hit bits.
const SEED: u64 = 61;

/// Frames per arm.
const FRAMES: usize = 300;

/// The validation model/device pair for the load arms.
const MODEL: Model = Model::MobileNetV2;
/// VGG-S-32 on the Nano has a two-rung ladder (f16 full, i8 standby) whose
/// standby rung draws ~76% of the full-rung energy — the sentry arm's pair.
const SENTRY_MODEL: Model = Model::VggS32;
const DEVICE: Device = Device::JetsonNano;

fn simulate(model: Model, trace: &TraceFile) -> ServeReport {
    let spec = ReplicaSpec::best_for(model, DEVICE).expect("deployable ladder");
    let fleet = Fleet::new([spec]).expect("single-replica fleet");
    let mut cfg = ServeConfig::new(60_000.0).with_batch_max(1).with_seed(SEED);
    cfg.admission = false;
    fleet
        .serve_arrivals(&trace.arrivals_s(), &cfg)
        .expect("non-empty trace")
}

fn measure(trace: &TraceFile, cfg: &RuntimeConfig) -> RuntimeReport {
    runtime::run_replay(cfg, trace).expect("runtime replay")
}

fn delta_pct(sim: f64, real: f64) -> String {
    if sim == 0.0 {
        "-".to_string()
    } else {
        format!("{:+.1}", (real - sim) / sim * 100.0)
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.2}")
}

impl Experiment for ExtRuntime {
    fn id(&self) -> &'static str {
        "ext-runtime-vs-sim"
    }

    fn title(&self) -> &'static str {
        "Extension: runtime vs sim — one seeded trace through the serving simulator and the zero-copy pipeline"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "arm",
                "p50_sim_ms",
                "p50_rt_ms",
                "p50_delta_pct",
                "p95_sim_ms",
                "p95_rt_ms",
                "p95_delta_pct",
                "goodput_sim_qps",
                "goodput_rt_qps",
                "energy_rt_mj_per_frame",
            ],
        );
        // MobileNetV2-f16 on the Nano serves one frame in ~7.3 ms: ~136
        // fps capacity. 95 and 129 fps put the queue at ~70% and ~95%
        // utilization.
        let comparable = RuntimeConfig::new(MODEL, DEVICE)
            .with_seed(SEED)
            .with_stage_costs(0, 0)
            .with_ring_capacity(64);
        for (arm, rate_hz) in [("poisson-70pct-util", 95.0), ("poisson-95pct-util", 129.0)] {
            let trace = TraceFile::generate(&Traffic::poisson(rate_hz, SEED), FRAMES, 0.0, SEED)
                .expect("trace");
            let sim = simulate(MODEL, &trace);
            let rt = measure(&trace, &comparable);
            r.push_row([
                arm.to_string(),
                fmt(sim.p50_ms()),
                fmt(rt.latencies_ms.percentile(50.0)),
                delta_pct(sim.p50_ms(), rt.latencies_ms.percentile(50.0)),
                fmt(sim.p95_ms()),
                fmt(rt.latencies_ms.percentile(95.0)),
                delta_pct(sim.p95_ms(), rt.latencies_ms.percentile(95.0)),
                fmt(sim.goodput_qps()),
                fmt(rt.goodput_qps()),
                fmt(rt.energy_per_frame_mj()),
            ]);
        }

        // A 4-slot ring at near-saturation load: blocking backpressure
        // stalls producers, which the unbounded-queue simulator never sees.
        let tight = comparable.clone().with_ring_capacity(4);
        let trace =
            TraceFile::generate(&Traffic::poisson(129.0, SEED), FRAMES, 0.0, SEED).expect("trace");
        let sim = simulate(MODEL, &trace);
        let rt = measure(&trace, &tight);
        r.push_row([
            "ring-capacity-4".to_string(),
            fmt(sim.p50_ms()),
            fmt(rt.latencies_ms.percentile(50.0)),
            delta_pct(sim.p50_ms(), rt.latencies_ms.percentile(50.0)),
            fmt(sim.p95_ms()),
            fmt(rt.latencies_ms.percentile(95.0)),
            delta_pct(sim.p95_ms(), rt.latencies_ms.percentile(95.0)),
            fmt(sim.goodput_qps()),
            fmt(rt.goodput_qps()),
            fmt(rt.energy_per_frame_mj()),
        ]);

        // Sparse-hit trace with the sentry state machine on the VGG-S-32
        // ladder: most frames run only the cheap i8 standby rung. The sim
        // row predicts the always-full-model fleet; the runtime row
        // measures the saving.
        let trace =
            TraceFile::generate(&Traffic::poisson(60.0, SEED), FRAMES, 0.05, SEED).expect("trace");
        let sentry_base = RuntimeConfig::new(SENTRY_MODEL, DEVICE)
            .with_seed(SEED)
            .with_stage_costs(0, 0)
            .with_ring_capacity(64);
        let sim = simulate(SENTRY_MODEL, &trace);
        let plain = measure(&trace, &sentry_base);
        let sentry = measure(&trace, &sentry_base.with_sentry(SentryConfig::default()));
        r.push_row([
            "sentry-sparse-hits".to_string(),
            fmt(sim.p50_ms()),
            fmt(sentry.latencies_ms.percentile(50.0)),
            delta_pct(sim.p50_ms(), sentry.latencies_ms.percentile(50.0)),
            fmt(sim.p95_ms()),
            fmt(sentry.latencies_ms.percentile(95.0)),
            delta_pct(sim.p95_ms(), sentry.latencies_ms.percentile(95.0)),
            fmt(sim.goodput_qps()),
            fmt(sentry.goodput_qps()),
            fmt(sentry.energy_per_frame_mj()),
        ]);
        r.push_note(format!(
            "sentry energy: {:.2} mJ/frame vs {:.2} always-full ({:.0}% saved); \
             {} escalations, {} stand-downs, {} missed",
            sentry.energy_per_frame_mj(),
            plain.energy_per_frame_mj(),
            (1.0 - sentry.energy_per_frame_mj() / plain.energy_per_frame_mj()) * 100.0,
            sentry.escalations,
            sentry.standdowns,
            sentry.missed_escalations,
        ));
        r.push_note(
            "sim and runtime consume the identical seeded TraceFile; runtime arms use zero \
             capture/preprocess cost so deltas isolate the pipeline mechanics"
                .to_string(),
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_tracks_sim_at_moderate_load() {
        let report = ExtRuntime.run();
        let sim = report.cell_f64("poisson-70pct-util", "p50_sim_ms").unwrap();
        let rt = report.cell_f64("poisson-70pct-util", "p50_rt_ms").unwrap();
        assert!(sim > 0.0 && rt > 0.0);
        let ratio = rt / sim;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "runtime p50 {rt} should track sim p50 {sim}"
        );
        // The sentry arm runs cheaper than the always-full prediction.
        let note = &report.notes()[0];
        assert!(note.contains("saved"), "{note}");
        assert!(note.contains("0 missed"), "{note}");
    }
}
