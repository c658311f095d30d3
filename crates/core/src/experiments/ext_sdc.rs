//! Extension experiment: silent-data-corruption defense.
//!
//! The paper characterizes healthy devices; long-deployed edge hardware
//! also suffers memory bit flips (DRAM disturbance, radiation, marginal
//! cells) that silently corrupt resident weights and in-flight
//! activations. This experiment runs a deterministic bit-flip campaign
//! against CifarNet — the seeded [`MemoryFaultModel`] flips weight bits
//! cumulatively and activation bits transiently — and sweeps
//! flip rate × scrub cadence × precision with the
//! `GuardedExecutor` defense armed versus a defenseless baseline, all
//! through the one campaign runner, [`sdc::run_campaign`].
//!
//! Outputs are classified against a pristine same-seed reference run at
//! two severities: `mismatched` counts any bitwise deviation (a one-ulp
//! wobble from a low mantissa bit counts), `corrupted_served` counts
//! *decision-level* corruption — the served top-1 class changed or the
//! output went non-finite. Detection coverage and the guards-on vs
//! guards-off comparison use the decision-level count: that is the
//! corruption a deployment actually pays for, and the only kind any
//! integrity guard can hope to catch (no envelope distinguishes a
//! clean output from one perturbed by 1e-7).
//!
//! The defended arms report the deterministic recovery cost (nodes
//! repaired, bytes rewritten); the undefended arms show how one
//! persistent weight flip poisons every inference after it.

use super::Experiment;
use crate::report::Report;
use crate::sdc::{self, CampaignStats};
use edgebench_devices::faults::MemoryFaultModel;
use edgebench_graph::Graph;
use edgebench_models::Model;
use edgebench_tensor::{Executor, GuardConfig, Precision, Tensor};

/// `ext-sdc` — bit-flip injection vs the integrity-guard defense.
pub(crate) struct ExtSdc;

/// Weight seed shared by the pristine reference and the victim runs.
const SEED: u64 = 7;

/// Base seed of the fault campaign's flip draws.
const FAULT_SEED: u64 = 0x5dc0;

/// Inferences per arm.
const INFERENCES: usize = 12;

/// Clean inputs used to calibrate the activation envelopes.
const CALIBRATION: usize = 3;

/// The flip rates swept, flips per byte per inference. `1e-7` is the
/// acceptance-criterion rate; `5e-6` is a heavy-corruption regime where
/// the defenseless baseline degrades wholesale.
const RATES: [f64; 2] = [1e-7, 5e-6];

/// One sweep arm: a guard configuration at one flip rate and precision.
struct Arm {
    rate: f64,
    /// Scrub cadence in inferences (ignored when `guards` is off).
    cadence: u64,
    guards: bool,
}

fn arms() -> Vec<Arm> {
    let mut v = Vec::new();
    for &rate in &RATES {
        for &cadence in &[1u64, 8] {
            v.push(Arm {
                rate,
                cadence,
                guards: true,
            });
        }
        // One defenseless baseline per rate.
        v.push(Arm {
            rate,
            cadence: 0,
            guards: false,
        });
    }
    v
}

/// Outcome counters for one arm, all deterministic counts.
#[derive(Default)]
struct ArmResult {
    campaign: CampaignStats,
    served: u64,
    /// Served outputs differing bitwise from the reference at all.
    mismatched: u64,
    /// Served outputs with decision-level corruption (top-1 changed or
    /// non-finite).
    corrupted_served: u64,
    /// Inferences refused with a typed `ExecError::Corrupted`.
    refused: u64,
}

impl ArmResult {
    /// Corruption signals caught: checksum mismatches + guard trips.
    fn detected(&self) -> u64 {
        self.campaign.guard.checksum_mismatches + self.campaign.guard.guard_trips
    }

    /// Fraction of corruption signals caught before (or instead of)
    /// serving a decision-corrupted answer: caught / (caught + escaped).
    /// 1.0 when the campaign produced nothing to catch.
    fn coverage(&self) -> f64 {
        let caught = self.detected() as f64;
        let escaped = self.corrupted_served as f64;
        if caught + escaped == 0.0 {
            1.0
        } else {
            caught / (caught + escaped)
        }
    }
}

fn argmax(data: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}

/// Runs one arm's campaign: weight flips persist until repaired,
/// activation flips are transient; the guarded arms scrub on the arm's
/// cadence, and the defenseless baseline lets corruption accumulate for
/// the whole campaign.
fn run_arm(
    graph: &Graph,
    precision: Precision,
    inputs: &[Tensor],
    refs: &[Tensor],
    cal: &[Tensor],
    arm: &Arm,
) -> ArmResult {
    let exec = Executor::new(graph)
        .with_seed(SEED)
        .with_precision(precision)
        .prepare()
        .expect("cifarnet plan is well-formed");
    let wf = MemoryFaultModel::new(FAULT_SEED, arm.rate);
    let af = MemoryFaultModel::new(FAULT_SEED ^ 0xa5a5, arm.rate);
    let guards = arm
        .guards
        .then(|| (GuardConfig::default().with_cadence(arm.cadence), cal));
    let mut res = ArmResult::default();
    let campaign = sdc::run_campaign(
        &wf,
        &af,
        exec,
        guards,
        inputs.len(),
        |i| &inputs[i],
        |i, out| match out {
            Ok(out) => {
                let reference = refs[i].data();
                res.served += 1;
                if out.data() != reference {
                    res.mismatched += 1;
                }
                if out.data().iter().any(|v| !v.is_finite())
                    || argmax(out.data()) != argmax(reference)
                {
                    res.corrupted_served += 1;
                }
            }
            Err(_) => res.refused += 1,
        },
    );
    res.campaign = campaign.expect("only the guards refuse a run");
    res
}

impl Experiment for ExtSdc {
    fn id(&self) -> &'static str {
        "ext-sdc"
    }

    fn title(&self) -> &'static str {
        "Extension: SDC — deterministic bit-flip injection vs checksum scrubbing and activation guards"
    }

    fn run(&self) -> Report {
        let graph = Model::CifarNet.build();
        let inputs: Vec<Tensor> = (0..INFERENCES)
            .map(|i| Tensor::random([1, 3, 32, 32], 100 + i as u64))
            .collect();
        let cal: Vec<Tensor> = (0..CALIBRATION)
            .map(|i| Tensor::random([1, 3, 32, 32], 900 + i as u64))
            .collect();
        let mut r = Report::new(
            self.title(),
            [
                "precision",
                "flip_rate",
                "cadence",
                "guards",
                "weight_flips",
                "act_flips",
                "served",
                "mismatched",
                "corrupted_served",
                "refused",
                "detected",
                "repairs",
                "repaired_bytes",
                "coverage",
            ],
        );
        for &precision in &[Precision::F32, Precision::Int8] {
            // Pristine references: expected output per input, shared by
            // every arm at this precision.
            let clean = Executor::new(&graph)
                .with_seed(SEED)
                .with_precision(precision)
                .prepare()
                .expect("cifarnet plan is well-formed");
            let refs: Vec<Tensor> = inputs
                .iter()
                .map(|x| clean.run(x).expect("clean run"))
                .collect();
            for arm in arms() {
                let res = run_arm(&graph, precision, &inputs, &refs, &cal, &arm);
                r.push_row([
                    match precision {
                        Precision::F32 => "f32".to_string(),
                        Precision::F16 => "f16".to_string(),
                        Precision::Int8 => "int8".to_string(),
                    },
                    format!("{:.0e}", arm.rate),
                    if arm.guards {
                        arm.cadence.to_string()
                    } else {
                        "-".to_string()
                    },
                    if arm.guards { "on" } else { "off" }.to_string(),
                    res.campaign.weight_flips.to_string(),
                    res.campaign.act_flips.to_string(),
                    res.served.to_string(),
                    res.mismatched.to_string(),
                    res.corrupted_served.to_string(),
                    res.refused.to_string(),
                    res.detected().to_string(),
                    res.campaign.guard.repairs.to_string(),
                    res.campaign.guard.repaired_bytes.to_string(),
                    format!("{:.4}", res.coverage()),
                ]);
            }
        }
        r.push_note(
            "campaign: cifarnet, 12 inferences/arm, seeded flips per (region, exposure); weight flips persist until repaired, activation flips are transient",
        );
        r.push_note(
            "mismatched = any bitwise deviation from the pristine same-seed reference; corrupted_served = top-1 class changed or non-finite; coverage = detected / (detected + corrupted_served)",
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The campaign is deterministic but not cheap in debug builds —
    /// compute it once and let every assertion share the report.
    fn report() -> &'static Report {
        static REPORT: OnceLock<Report> = OnceLock::new();
        REPORT.get_or_init(|| ExtSdc.run())
    }

    fn col(r: &Report, name: &str) -> usize {
        r.columns().iter().position(|c| c == name).expect("column")
    }

    #[test]
    fn covers_the_full_sweep() {
        let r = report();
        // 2 precisions x 2 rates x (2 guarded cadences + 1 baseline).
        assert_eq!(r.rows().len(), 12);
        let off = r
            .rows()
            .iter()
            .filter(|row| row[col(r, "guards")] == "off")
            .count();
        assert_eq!(off, 4);
    }

    #[test]
    fn guards_cut_corrupted_outputs_by_an_order_of_magnitude() {
        let r = report();
        let (guards, rate, cadence, corrupted, refused) = (
            col(r, "guards"),
            col(r, "flip_rate"),
            col(r, "cadence"),
            col(r, "corrupted_served"),
            col(r, "refused"),
        );
        // At the heavy rate the defenseless baseline serves wrong answers
        // wholesale; the cadence-1 defended arm serves at least 10x fewer
        // (refusing with a typed error is not serving a wrong answer).
        for precision in ["f32", "int8"] {
            let pick = |g: &str, c: &str, column: usize| -> u64 {
                r.rows()
                    .iter()
                    .find(|row| {
                        row[0] == precision
                            && row[rate] == "5e-6"
                            && row[guards] == g
                            && row[cadence] == c
                    })
                    .expect("arm present")[column]
                    .parse()
                    .unwrap()
            };
            let undefended = pick("off", "-", corrupted);
            let defended = pick("on", "1", corrupted);
            assert!(
                undefended >= 5,
                "{precision}: baseline must corrupt plenty, got {undefended}"
            );
            assert!(
                defended * 10 <= undefended,
                "{precision}: defended {defended} vs undefended {undefended}"
            );
            // Whatever the guards refused is accounted, not vanished.
            let served: u64 = pick("on", "1", col(r, "served"));
            assert_eq!(served + pick("on", "1", refused), INFERENCES as u64);
        }
    }

    #[test]
    fn cadence_one_coverage_meets_the_bar() {
        let r = report();
        let (guards, cadence, coverage) = (col(r, "guards"), col(r, "cadence"), col(r, "coverage"));
        for row in r.rows() {
            if row[guards] == "on" && row[cadence] == "1" {
                let cov: f64 = row[coverage].parse().unwrap();
                assert!(cov >= 0.99, "{}: coverage {cov}", row[0]);
            }
        }
    }

    #[test]
    fn defended_arms_actually_repair() {
        let r = report();
        let (guards, rate, repairs, bytes) = (
            col(r, "guards"),
            col(r, "flip_rate"),
            col(r, "repairs"),
            col(r, "repaired_bytes"),
        );
        for row in r.rows() {
            if row[guards] == "on" && row[rate] == "5e-6" {
                let n: u64 = row[repairs].parse().unwrap();
                let b: u64 = row[bytes].parse().unwrap();
                assert!(n > 0, "heavy-rate defended arm must repair something");
                assert!(b > 0, "repairs must rewrite bytes");
            }
        }
    }
}
