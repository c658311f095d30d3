//! The seeded bit-flip campaign: DRAM faults drawn by two
//! [`MemoryFaultModel`]s, applied to a prepared executor that runs bare or
//! behind the [`GuardedExecutor`] defense. `infer --flip-rate`, the
//! `ext-sdc` experiment and the SDC integration tests all run this one
//! campaign; each picks its own seeds, inputs, calibration, cadence and
//! reporting.

use edgebench_devices::faults::MemoryFaultModel;
use edgebench_tensor::integrity::IntegrityEvent;
use edgebench_tensor::{
    ExecError, GuardConfig, GuardStats, GuardedExecutor, PreparedExecutor, Tensor,
};

/// Offset of the activation regions' ids. Weight regions are the bare
/// node index, so the two never share a draw.
const ACT_REGION: u64 = 1 << 32;

/// What a campaign injected and, behind guards, what the defense did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Weight bits flipped; each persists until a scrub repairs it.
    pub weight_flips: u64,
    /// Activation bits flipped; each lives for one attempt.
    pub act_flips: u64,
    /// The defense's counters, all zero on a bare run.
    pub guard: GuardStats,
    /// The defense's event log in firing order, empty on a bare run.
    pub events: Vec<IntegrityEvent>,
}

/// The executor a campaign corrupts: bare, or behind the defense.
enum Target<'g> {
    Bare(PreparedExecutor<'g>),
    Guarded(GuardedExecutor<'g>),
}

/// Runs `inferences` inferences of `exec` under seeded bit flips.
///
/// Before inference `i`, every node's parameters take the flips `weights`
/// draws for region `node` at exposure `i`, and keep them until a scrub
/// repairs them. During it, every node output takes the flips
/// `activations` draws for region `(1 << 32) + node` at exposure
/// `2·i + attempt`: `attempt` is 0, or 1 on a guarded retry, so a retry
/// sees a fresh transient draw. With `guards`, `exec` runs behind a
/// [`GuardedExecutor`] with that config, calibrated on those clean inputs;
/// without, nothing checks its outputs.
///
/// `input(i)` is asked for at the start of inference `i`, before its
/// weight flips. `outcome(i, result)` gets the output served, or the
/// [`ExecError::Corrupted`] refusal of a guarded run.
///
/// # Errors
///
/// Any other [`ExecError`] of the calibration or of a run, which ends the
/// campaign.
pub fn run_campaign<'x>(
    weights: &MemoryFaultModel,
    activations: &MemoryFaultModel,
    exec: PreparedExecutor<'_>,
    guards: Option<(GuardConfig, &[Tensor])>,
    inferences: usize,
    mut input: impl FnMut(usize) -> &'x Tensor,
    mut outcome: impl FnMut(usize, Result<&Tensor, ExecError>),
) -> Result<CampaignStats, ExecError> {
    let mut target = match guards {
        Some((cfg, calibration)) => {
            let mut guarded = GuardedExecutor::new(exec, cfg);
            guarded.calibrate(calibration)?;
            Target::Guarded(guarded)
        }
        None => Target::Bare(exec),
    };
    let (mut weight_flips, mut act_flips) = (0, 0);
    let mut out = Tensor::zeros([0]);
    for i in 0..inferences {
        let x = input(i);
        let exec = match &mut target {
            Target::Bare(exec) => exec,
            Target::Guarded(guarded) => guarded.inner_mut(),
        };
        for node in 0..exec.node_count() {
            for flip in weights.flips(node as u64, i as u64, exec.param_elems(node)) {
                weight_flips += u64::from(exec.corrupt_param_bit(node, flip.element, flip.bit));
            }
        }
        let mut inject = |attempt: u32, node: usize, t: &mut Tensor| {
            let exposure = 2 * i as u64 + u64::from(attempt);
            for flip in activations.flips(ACT_REGION + node as u64, exposure, t.len()) {
                let v = &mut t.data_mut()[flip.element];
                *v = f32::from_bits(v.to_bits() ^ (1u32 << flip.bit));
                act_flips += 1;
            }
        };
        let res = match &mut target {
            Target::Bare(exec) => {
                let dims = x.shape().dims();
                let res = exec.run_into(dims, x.data(), &mut out, &mut |node, t| {
                    inject(0, node, t);
                    Ok(())
                });
                res.map(|_| ())
            }
            Target::Guarded(guarded) => guarded.run(x, &mut out, &mut inject),
        };
        match res {
            Ok(()) => outcome(i, Ok(&out)),
            Err(refused @ ExecError::Corrupted { .. }) => outcome(i, Err(refused)),
            Err(e) => return Err(e),
        }
    }
    let (guard, events) = match target {
        Target::Bare(_) => Default::default(),
        Target::Guarded(guarded) => (guarded.stats(), guarded.events().to_vec()),
    };
    Ok(CampaignStats {
        weight_flips,
        act_flips,
        guard,
        events,
    })
}
