//! SDC-defense integration tests: the prepare-time checksum must catch
//! *every* single-bit weight flip, and guard verdicts must be
//! byte-identical across thread counts, kernel tiers, and repeated
//! seeded runs — the determinism the serve layer and the `ext-sdc`
//! experiment build their accounting on.

use edgebench::sdc::run_campaign;
use edgebench_devices::faults::MemoryFaultModel;
use edgebench_models::Model;
use edgebench_tensor::{
    integrity, ExecError, Executor, GuardConfig, GuardStats, GuardedExecutor, KernelKind, Tensor,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The checksum step is injective per word (xor then multiply by an
    /// odd constant), so a single flipped bit in any node's parameters —
    /// any tensor, any element, any bit position — must change the
    /// digest and be attributed to exactly that node. Repair must then
    /// restore the pristine bits.
    #[test]
    fn any_single_weight_bit_flip_is_caught(
        flip in (0usize..1 << 30, 0usize..1 << 30, 0usize..32)
    ) {
        let (node_sel, elem_sel, bit) = flip;
        let bit = bit as u8;
        let g = Model::CifarNet.build();
        let mut exec = Executor::new(&g).with_seed(7).prepare().unwrap();
        prop_assert!(exec.verify_params().is_empty());
        let nodes: Vec<usize> = (0..exec.node_count())
            .filter(|&i| exec.param_elems(i) > 0)
            .collect();
        let node = nodes[node_sel % nodes.len()];
        let elem = elem_sel % exec.param_elems(node);
        prop_assert!(exec.corrupt_param_bit(node, elem, bit));
        prop_assert_eq!(exec.verify_params(), vec![node]);
        let bytes = exec.repair_node(node).unwrap();
        prop_assert!(bytes > 0);
        prop_assert!(exec.verify_params().is_empty());
    }
}

/// Everything observable about one guarded fault campaign: per-inference
/// outcome (output digest or typed refusal), final counters, and the
/// rendered event log.
#[derive(Debug, PartialEq)]
struct CampaignTrace {
    outcomes: Vec<Result<u64, String>>,
    stats: GuardStats,
    events: Vec<String>,
}

/// Runs the same seeded bit-flip campaign against CifarNet: weight flips
/// persist until the scrub repairs them, activation flips are transient
/// and keyed on (inference, attempt, node). Everything about the
/// campaign is a pure function of the seeds, so the trace must not
/// depend on `threads` or `kernel`.
fn campaign(threads: usize, kernel: KernelKind) -> CampaignTrace {
    let g = Model::CifarNet.build();
    let exec = Executor::new(&g)
        .with_seed(7)
        .with_intra_op_threads(threads)
        .with_kernel(kernel)
        .prepare()
        .unwrap();
    let cal: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random([1, 3, 32, 32], 900 + i as u64))
        .collect();
    let inputs: Vec<Tensor> = (0..6u64)
        .map(|i| Tensor::random([1, 3, 32, 32], 100 + i))
        .collect();

    let wf = MemoryFaultModel::new(0x5dc1, 2e-6);
    let af = MemoryFaultModel::new(0x5dc2, 2e-6);
    let guards = Some((GuardConfig::default().with_cadence(1), &cal[..]));
    let mut outcomes = Vec::new();
    let campaign = run_campaign(
        &wf,
        &af,
        exec,
        guards,
        inputs.len(),
        |i| &inputs[i],
        |_, out| {
            outcomes.push(match out {
                Ok(t) => Ok(integrity::checksum_f32(t.data())),
                Err(e) => Err(e.to_string()),
            })
        },
    )
    .unwrap();
    CampaignTrace {
        outcomes,
        stats: campaign.guard,
        events: campaign.events.iter().map(|e| e.to_string()).collect(),
    }
}

#[test]
fn guard_verdicts_are_identical_across_threads_and_kernels() {
    let baseline = campaign(1, KernelKind::Scalar);
    // The campaign must have exercised the defense, or the comparison
    // proves nothing.
    assert!(
        baseline.stats.checksum_mismatches > 0,
        "campaign too quiet: {:?}",
        baseline.stats
    );
    for threads in [2usize, 8] {
        for kernel in [KernelKind::Scalar, KernelKind::Auto] {
            let trace = campaign(threads, kernel);
            assert_eq!(
                trace, baseline,
                "verdicts drifted at threads={threads} kernel={kernel:?}"
            );
        }
    }
}

#[test]
fn guarded_campaign_replays_byte_identically() {
    let first = campaign(2, KernelKind::Auto);
    let second = campaign(2, KernelKind::Auto);
    assert_eq!(first, second);
}

#[test]
fn refusals_are_typed_not_panics() {
    // A persistent non-finite fault must surface as the typed
    // `Corrupted` outcome with the node named, never a panic or a
    // silently served output.
    let g = Model::CifarNet.build();
    let exec = Executor::new(&g).with_seed(7).prepare().unwrap();
    let mut guard = GuardedExecutor::new(exec, GuardConfig::default());
    let x = Tensor::random([1, 3, 32, 32], 5);
    guard.calibrate([&x]).unwrap();
    let err = guard
        .run(&x, &mut Tensor::zeros([0]), &mut |_, node, t| {
            if node == 2 {
                t.data_mut()[0] = f32::NAN;
            }
        })
        .unwrap_err();
    match err {
        ExecError::Corrupted {
            ref node,
            ref reason,
        } => {
            assert!(!node.is_empty());
            assert_eq!(reason, "non-finite");
        }
        other => panic!("expected Corrupted, got {other}"),
    }
}

/// The SDC layer addresses weights logically — the natural row-major
/// index, panel padding excluded — although GEMM weights are stored in
/// packed panels. A packed GEMM conv and a ragged dense layer (1000
/// units, like AlexNet's fc8, so its last `NR` panel is half padding):
/// flipping logical element `e` through `corrupt_param_bit` must give
/// exactly the output of natural-layout weights with element `e`
/// flipped, the checksum must name the node, and repair must restore the
/// clean output and report logical bytes.
#[test]
fn packed_weight_flips_address_logical_elements() {
    use edgebench_graph::{ActivationKind, GraphBuilder};
    use edgebench_tensor::gemm::{self, Epilogue, GemmScratch, PackedPanels};
    use edgebench_tensor::simd::{MR, NR};

    let mut b = GraphBuilder::new("ragged");
    let x = b.input([1, 8, 12, 12]);
    let c = b.conv2d(x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
    let f = b.flatten(c).unwrap();
    let d = b.dense(f, 1000).unwrap();
    let g = b.build(d).unwrap();
    let input = Tensor::random([1, 8, 12, 12], 3);

    // Natural-layout parameters, straight from the weight store.
    let store = Executor::new(&g).with_seed(9);
    let ws = store.weights();
    let (conv, dense) = (g.node(c).name(), g.node(d).name());
    let natural = [
        [
            ws.weight(conv, vec![16, 8, 3, 3], 72).data().to_vec(),
            ws.bias(conv, 16),
        ]
        .concat(),
        [
            ws.weight(dense, vec![1000, 2304], 2304).data().to_vec(),
            ws.bias(dense, 1000),
        ]
        .concat(),
    ];
    // The same weights generated into panels, as `prepare` generates them.
    let panels = |natural: &[f32], rows: usize, k: usize, width: usize| {
        let mut rest = natural;
        PackedPanels::try_generate(rows, k, width, |panel_rows| {
            let (head, tail) = rest.split_at(panel_rows.len());
            panel_rows.copy_from_slice(head);
            rest = tail;
        })
        .unwrap()
    };
    let reference = |params: &[Vec<f32>; 2]| {
        let (cw, cb) = params[0].split_at(16 * 72);
        let (dw, db) = params[1].split_at(1000 * 2304);
        let mut h = Tensor::zeros([1, 16, 12, 12]);
        let epi = Epilogue {
            bias: Some(cb),
            ..Epilogue::default()
        };
        let cw = panels(cw, 16, 72, MR);
        let mut scratch = GemmScratch::default();
        let (k, s, p) = ((3, 3), (1, 1), (1, 1));
        gemm::conv2d_packed_into(&input, &cw, k, s, p, &epi, 1, &mut h, &mut scratch);
        h.reshape([1, 16 * 144]);
        let dw = panels(dw, 1000, 2304, NR);
        let mut y = Tensor::zeros([1, 1000]);
        let act = ActivationKind::Linear;
        gemm::dense_packed_into(&h, &dw, Some(db), act, 1, &mut y, &mut scratch);
        y
    };

    let mut exec = store.prepare().unwrap();
    let clean = exec.run(&input).unwrap();
    assert_eq!(
        reference(&natural),
        clean,
        "natural layout reproduces the packed run"
    );
    // Per layer: the first weight, one in a later panel (for the dense
    // layer, row 995 of the ragged last panel, rows 992..1000), the last
    // weight, and a bias element.
    let probes = [
        (0usize, c.index(), [0, 9 * 72 + 5, 16 * 72 - 1, 16 * 72 + 7]),
        (
            1,
            d.index(),
            [0, 995 * 2304 + 17, 1000 * 2304 - 1, 1000 * 2304 + 999],
        ),
    ];
    for (layer, node, elements) in probes {
        assert_eq!(exec.param_elems(node), natural[layer].len());
        for e in elements {
            for bit in [3u8, 22] {
                assert!(exec.corrupt_param_bit(node, e, bit));
                let mut flipped = natural.clone();
                let v = &mut flipped[layer][e];
                *v = f32::from_bits(v.to_bits() ^ (1 << bit));
                assert_eq!(
                    exec.run(&input).unwrap(),
                    reference(&flipped),
                    "layer {layer} element {e} bit {bit}"
                );
                assert_eq!(exec.verify_params(), vec![node]);
                let bytes = exec.repair_node(node).unwrap();
                assert_eq!(bytes, 4 * natural[layer].len(), "logical bytes");
                assert!(exec.verify_params().is_empty());
                assert_eq!(exec.run(&input).unwrap(), clean);
            }
        }
    }
}
