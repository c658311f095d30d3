//! A model-exchange format — the ONNX-shaped substrate for the paper's
//! §III-B interoperability discussion ("we find limited compatibility among
//! frameworks... Recent endeavors such as the ONNX ecosystem try to address
//! this issue").
//!
//! The format is a line-oriented text serialization of the IR: one node per
//! line, fully round-trippable. On top of it, `op_supported` encodes each
//! framework's *operator coverage*, so importing a model into a framework
//! either succeeds or fails with the first unsupported operator — the
//! mechanism behind the paper's Table II "compatibility with others" row.

use crate::info::Framework;
use edgebench_graph::{
    ActivationKind, DType, Graph, GraphError, NodeId, Op, PoolKind, TensorShape,
};
use std::error::Error;
use std::fmt;

/// Error produced while parsing or importing an exchanged model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExchangeError {
    /// The text is not well-formed at the given line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// The parsed node list does not form a valid graph.
    Graph(GraphError),
    /// The target framework lacks an operator used by the model.
    UnsupportedOp {
        /// Importing framework.
        framework: &'static str,
        /// Operator mnemonic it cannot represent.
        op: &'static str,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            ExchangeError::Graph(e) => write!(f, "invalid graph: {e}"),
            ExchangeError::UnsupportedOp { framework, op } => {
                write!(f, "{framework} has no {op} operator")
            }
        }
    }
}

impl Error for ExchangeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExchangeError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ExchangeError {
    fn from(e: GraphError) -> Self {
        ExchangeError::Graph(e)
    }
}

fn fmt_pair(p: (usize, usize)) -> String {
    format!("{}x{}", p.0, p.1)
}

fn fmt_triple(p: (usize, usize, usize)) -> String {
    format!("{}x{}x{}", p.0, p.1, p.2)
}

fn fmt_op(op: &Op) -> String {
    match op {
        Op::Input { shape } => format!("input shape={shape}"),
        Op::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            bias,
        } => format!(
            "conv2d out={out_channels} k={} s={} p={} g={groups} bias={bias}",
            fmt_pair(*kernel),
            fmt_pair(*stride),
            fmt_pair(*padding)
        ),
        Op::DepthwiseConv2d {
            multiplier,
            kernel,
            stride,
            padding,
            bias,
        } => format!(
            "depthwise mult={multiplier} k={} s={} p={} bias={bias}",
            fmt_pair(*kernel),
            fmt_pair(*stride),
            fmt_pair(*padding)
        ),
        Op::Conv3d {
            out_channels,
            kernel,
            stride,
            padding,
            bias,
        } => format!(
            "conv3d out={out_channels} k={} s={} p={} bias={bias}",
            fmt_triple(*kernel),
            fmt_triple(*stride),
            fmt_triple(*padding)
        ),
        Op::Dense { units, bias } => format!("dense units={units} bias={bias}"),
        Op::Pool {
            kind,
            kernel,
            stride,
            padding,
        } => format!(
            "pool kind={kind} k={} s={} p={}",
            fmt_pair(*kernel),
            fmt_pair(*stride),
            fmt_pair(*padding)
        ),
        Op::Pool3d {
            kind,
            kernel,
            stride,
        } => format!(
            "pool3d kind={kind} k={} s={}",
            fmt_triple(*kernel),
            fmt_triple(*stride)
        ),
        Op::BatchNorm => "batch_norm".to_string(),
        Op::Lrn { size } => format!("lrn size={size}"),
        Op::Activation { kind } => format!("activation kind={kind}"),
        Op::Add => "add".to_string(),
        Op::Mul => "mul".to_string(),
        Op::Concat => "concat".to_string(),
        Op::Upsample { factor } => format!("upsample factor={factor}"),
        Op::Slice { start, len } => format!("slice start={start} len={len}"),
        Op::Flatten => "flatten".to_string(),
        Op::Softmax => "softmax".to_string(),
        Op::Dropout => "dropout".to_string(),
        Op::FusedConvBnAct { conv, bn, act } => {
            format!("fused bn={bn} act={act} [{}]", fmt_op(conv))
        }
        Op::FusedDenseAct { units, bias, act } => {
            format!("fused_dense units={units} bias={bias} act={act}")
        }
    }
}

/// Serializes a graph to the exchange text format.
pub fn export_graph(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("model \"{}\" dtype={}\n", g.name(), g.dtype()));
    for node in g.nodes() {
        let inputs: Vec<String> = node
            .inputs()
            .iter()
            .map(|i| format!("n{}", i.index()))
            .collect();
        out.push_str(&format!(
            "n{} \"{}\" <- [{}] : {}\n",
            node.id().index(),
            node.name(),
            inputs.join(","),
            fmt_op(node.op())
        ));
    }
    out.push_str(&format!("output n{}\n", g.output().index()));
    out
}

struct FieldMap<'a> {
    fields: Vec<(&'a str, &'a str)>,
    line: usize,
}

impl<'a> FieldMap<'a> {
    fn get(&self, key: &str) -> Result<&'a str, ExchangeError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ExchangeError::Parse {
                line: self.line,
                detail: format!("missing field {key}"),
            })
    }

    fn usize(&self, key: &str) -> Result<usize, ExchangeError> {
        self.get(key)?.parse().map_err(|_| ExchangeError::Parse {
            line: self.line,
            detail: format!("field {key} is not an integer"),
        })
    }

    fn bool(&self, key: &str) -> Result<bool, ExchangeError> {
        self.get(key)?.parse().map_err(|_| ExchangeError::Parse {
            line: self.line,
            detail: format!("field {key} is not a bool"),
        })
    }

    fn pair(&self, key: &str) -> Result<(usize, usize), ExchangeError> {
        let v = self.get(key)?;
        let mut it = v.split('x').map(str::parse::<usize>);
        match (it.next(), it.next(), it.next()) {
            (Some(Ok(a)), Some(Ok(b)), None) => Ok((a, b)),
            _ => Err(ExchangeError::Parse {
                line: self.line,
                detail: format!("field {key}={v} is not AxB"),
            }),
        }
    }

    fn triple(&self, key: &str) -> Result<(usize, usize, usize), ExchangeError> {
        let v = self.get(key)?;
        let mut it = v.split('x').map(str::parse::<usize>);
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(Ok(a)), Some(Ok(b)), Some(Ok(c)), None) => Ok((a, b, c)),
            _ => Err(ExchangeError::Parse {
                line: self.line,
                detail: format!("field {key}={v} is not AxBxC"),
            }),
        }
    }
}

fn parse_activation(s: &str, line: usize) -> Result<ActivationKind, ExchangeError> {
    Ok(match s {
        "relu" => ActivationKind::Relu,
        "relu6" => ActivationKind::Relu6,
        "leaky" => ActivationKind::Leaky,
        "sigmoid" => ActivationKind::Sigmoid,
        "tanh" => ActivationKind::Tanh,
        "linear" => ActivationKind::Linear,
        other => {
            return Err(ExchangeError::Parse {
                line,
                detail: format!("unknown activation {other}"),
            })
        }
    })
}

fn parse_pool_kind(s: &str, line: usize) -> Result<PoolKind, ExchangeError> {
    Ok(match s {
        "max" => PoolKind::Max,
        "avg" => PoolKind::Avg,
        "global_avg" => PoolKind::GlobalAvg,
        other => {
            return Err(ExchangeError::Parse {
                line,
                detail: format!("unknown pool kind {other}"),
            })
        }
    })
}

fn parse_op(spec: &str, line: usize) -> Result<Op, ExchangeError> {
    // Fused ops nest the conv spec in brackets.
    if let Some(rest) = spec.strip_prefix("fused ") {
        let open = rest.find('[').ok_or_else(|| ExchangeError::Parse {
            line,
            detail: "fused op missing [conv]".into(),
        })?;
        let close = rest.rfind(']').ok_or_else(|| ExchangeError::Parse {
            line,
            detail: "fused op missing ]".into(),
        })?;
        let head = &rest[..open];
        let inner = parse_op(rest[open + 1..close].trim(), line)?;
        let f = fields(head, line);
        return Ok(Op::FusedConvBnAct {
            conv: Box::new(inner),
            bn: f.bool("bn")?,
            act: parse_activation(f.get("act")?, line)?,
        });
    }
    let (head, rest) = spec.split_once(' ').unwrap_or((spec, ""));
    let f = fields(rest, line);
    Ok(match head {
        "input" => {
            let dims: Result<Vec<usize>, _> = f.get("shape")?.split('x').map(str::parse).collect();
            Op::Input {
                shape: TensorShape::new(dims.map_err(|_| ExchangeError::Parse {
                    line,
                    detail: "bad input shape".into(),
                })?),
            }
        }
        "conv2d" => Op::Conv2d {
            out_channels: f.usize("out")?,
            kernel: f.pair("k")?,
            stride: f.pair("s")?,
            padding: f.pair("p")?,
            groups: f.usize("g")?,
            bias: f.bool("bias")?,
        },
        "depthwise" => Op::DepthwiseConv2d {
            multiplier: f.usize("mult")?,
            kernel: f.pair("k")?,
            stride: f.pair("s")?,
            padding: f.pair("p")?,
            bias: f.bool("bias")?,
        },
        "conv3d" => Op::Conv3d {
            out_channels: f.usize("out")?,
            kernel: f.triple("k")?,
            stride: f.triple("s")?,
            padding: f.triple("p")?,
            bias: f.bool("bias")?,
        },
        "dense" => Op::Dense {
            units: f.usize("units")?,
            bias: f.bool("bias")?,
        },
        "fused_dense" => Op::FusedDenseAct {
            units: f.usize("units")?,
            bias: f.bool("bias")?,
            act: parse_activation(f.get("act")?, line)?,
        },
        "pool" => Op::Pool {
            kind: parse_pool_kind(f.get("kind")?, line)?,
            kernel: f.pair("k")?,
            stride: f.pair("s")?,
            padding: f.pair("p")?,
        },
        "pool3d" => Op::Pool3d {
            kind: parse_pool_kind(f.get("kind")?, line)?,
            kernel: f.triple("k")?,
            stride: f.triple("s")?,
        },
        "batch_norm" => Op::BatchNorm,
        "lrn" => Op::Lrn {
            size: f.usize("size")?,
        },
        "activation" => Op::Activation {
            kind: parse_activation(f.get("kind")?, line)?,
        },
        "add" => Op::Add,
        "mul" => Op::Mul,
        "concat" => Op::Concat,
        "upsample" => Op::Upsample {
            factor: f.usize("factor")?,
        },
        "slice" => Op::Slice {
            start: f.usize("start")?,
            len: f.usize("len")?,
        },
        "flatten" => Op::Flatten,
        "softmax" => Op::Softmax,
        "dropout" => Op::Dropout,
        other => {
            return Err(ExchangeError::Parse {
                line,
                detail: format!("unknown op {other}"),
            })
        }
    })
}

fn fields<'a>(s: &'a str, line: usize) -> FieldMap<'a> {
    FieldMap {
        fields: s
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .collect(),
        line,
    }
}

/// Parses the exchange text format back into a graph.
///
/// # Errors
///
/// [`ExchangeError::Parse`] on malformed text; [`ExchangeError::Graph`] if
/// the nodes do not form a valid graph.
pub fn import_graph(text: &str) -> Result<Graph, ExchangeError> {
    let mut name = String::from("imported");
    let mut dtype = DType::F32;
    let mut specs: Vec<(String, Op, Vec<NodeId>)> = Vec::new();
    let mut output: Option<NodeId> = None;

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("model ") {
            if let Some(q) = rest.strip_prefix('"') {
                if let Some(end) = q.find('"') {
                    name = q[..end].to_string();
                    let f = fields(&q[end + 1..], line_no);
                    if let Ok(d) = f.get("dtype") {
                        dtype = match d {
                            "f32" => DType::F32,
                            "f16" => DType::F16,
                            "i8" => DType::I8,
                            other => {
                                return Err(ExchangeError::Parse {
                                    line: line_no,
                                    detail: format!("unknown dtype {other}"),
                                })
                            }
                        };
                    }
                    continue;
                }
            }
            return Err(ExchangeError::Parse {
                line: line_no,
                detail: "malformed model header".into(),
            });
        }
        if let Some(rest) = line.strip_prefix("output ") {
            let idx: usize = rest
                .trim()
                .strip_prefix('n')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ExchangeError::Parse {
                    line: line_no,
                    detail: "malformed output line".into(),
                })?;
            output = Some(NodeId::from_index(idx));
            continue;
        }
        // Node line: n<i> "<name>" <- [a,b] : <op spec>
        let (head, op_spec) = line.split_once(" : ").ok_or_else(|| ExchangeError::Parse {
            line: line_no,
            detail: "node line missing ' : '".into(),
        })?;
        let (id_name, inputs_part) =
            head.split_once(" <- ")
                .ok_or_else(|| ExchangeError::Parse {
                    line: line_no,
                    detail: "node line missing ' <- '".into(),
                })?;
        let node_name = id_name
            .split('"')
            .nth(1)
            .ok_or_else(|| ExchangeError::Parse {
                line: line_no,
                detail: "node line missing quoted name".into(),
            })?
            .to_string();
        let inputs_str = inputs_part
            .trim()
            .trim_start_matches('[')
            .trim_end_matches(']');
        let mut inputs = Vec::new();
        for tok in inputs_str.split(',').filter(|t| !t.trim().is_empty()) {
            let idx: usize = tok
                .trim()
                .strip_prefix('n')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ExchangeError::Parse {
                    line: line_no,
                    detail: format!("bad input ref {tok}"),
                })?;
            inputs.push(NodeId::from_index(idx));
        }
        let op = parse_op(op_spec.trim(), line_no)?;
        specs.push((node_name, op, inputs));
    }
    let output = output.ok_or(ExchangeError::Parse {
        line: 0,
        detail: "missing output line".into(),
    })?;
    Ok(Graph::from_transformed(name, specs, output, dtype)?)
}

/// Whether `fw` can represent `op` — the operator-coverage half of the
/// paper's framework-compatibility observations.
pub(crate) fn op_supported(fw: Framework, op: &Op) -> bool {
    match op {
        // 3-D convolution: absent from DarkNet, NCSDK (the paper's C3D
        // failure) and the FPGA stacks.
        Op::Conv3d { .. } | Op::Pool3d { .. } => !matches!(
            fw,
            Framework::DarkNet | Framework::Ncsdk | Framework::TvmVta | Framework::TfLite
        ),
        // LRN is legacy: the lean mobile stacks dropped it.
        Op::Lrn { .. } => !matches!(fw, Framework::TfLite | Framework::Ncsdk | Framework::TvmVta),
        // The FPGA overlay has no depthwise kernel (MobileNets are `^^` on
        // PYNQ in Table V).
        Op::DepthwiseConv2d { .. } => fw != Framework::TvmVta,
        Op::FusedConvBnAct { conv, .. } => op_supported(fw, conv),
        _ => true,
    }
}

/// Imports an exchanged model into a framework, failing on the first
/// operator the framework cannot represent.
///
/// # Errors
///
/// [`ExchangeError::UnsupportedOp`] plus any parse/graph error.
pub fn import_into(fw: Framework, text: &str) -> Result<Graph, ExchangeError> {
    let g = import_graph(text)?;
    for node in g.nodes() {
        if !op_supported(fw, node.op()) {
            return Err(ExchangeError::UnsupportedOp {
                framework: fw.name(),
                op: node.op().name(),
            });
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_models::Model;

    #[test]
    fn roundtrip_preserves_every_zoo_model() {
        for &m in Model::all() {
            let g = m.build();
            let text = export_graph(&g);
            let back = import_graph(&text).unwrap_or_else(|e| panic!("{m}: {e}"));
            assert_eq!(back.name(), g.name(), "{m}");
            assert_eq!(back.len(), g.len(), "{m}");
            assert_eq!(back.output_shape(), g.output_shape(), "{m}");
            assert_eq!(back.stats().flops, g.stats().flops, "{m}");
            assert_eq!(back.stats().params, g.stats().params, "{m}");
        }
    }

    #[test]
    fn roundtrip_preserves_dtype_and_fused_ops() {
        let g = crate::passes::fuse_conv_bn_act(&Model::MobileNetV2.build())
            .unwrap()
            .with_dtype(DType::I8);
        let back = import_graph(&export_graph(&g)).unwrap();
        assert_eq!(back.dtype(), DType::I8);
        assert_eq!(back.len(), g.len());
        assert_eq!(back.stats().flops, g.stats().flops);
    }

    #[test]
    fn roundtrip_preserves_rnn_models() {
        let g = edgebench_models::rnn::char_lstm(4, 16, 32, 1).unwrap();
        let back = import_graph(&export_graph(&g)).unwrap();
        assert_eq!(back.stats().params, g.stats().params);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = import_graph("model \"x\" dtype=f32\ngarbage line\noutput n0").unwrap_err();
        assert!(matches!(err, ExchangeError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn missing_output_is_an_error() {
        let err = import_graph("model \"x\" dtype=f32\n").unwrap_err();
        assert!(matches!(err, ExchangeError::Parse { .. }));
    }

    #[test]
    fn ncsdk_rejects_c3d_via_op_coverage() {
        // The mechanical root of Table V's C3D-on-Movidius failure.
        let text = export_graph(&Model::C3d.build());
        let err = import_into(Framework::Ncsdk, &text).unwrap_err();
        assert!(
            matches!(err, ExchangeError::UnsupportedOp { op: "conv3d", .. }),
            "{err}"
        );
        assert!(import_into(Framework::PyTorch, &text).is_ok());
    }

    #[test]
    fn tvm_vta_rejects_depthwise_models() {
        let text = export_graph(&Model::MobileNetV2.build());
        let err = import_into(Framework::TvmVta, &text).unwrap_err();
        assert!(matches!(err, ExchangeError::UnsupportedOp { .. }));
        assert!(import_into(Framework::TvmVta, &export_graph(&Model::ResNet18.build())).is_ok());
    }

    #[test]
    fn tensorrt_imports_everything_2d() {
        // Paper: "TensorRT provides better compatibility in importing
        // models from other frameworks (including ONNX format)".
        for &m in Model::all() {
            let text = export_graph(&m.build());
            assert!(import_into(Framework::TensorRt, &text).is_ok(), "{m}");
        }
    }
}
