//! The graph container and its builder.

use crate::op::Op;
use crate::shape::TensorShape;
use crate::{ActivationKind, DType, GraphError, PoolKind};
use std::fmt;

/// Opaque identifier of a node within one [`Graph`].
///
/// Node ids are dense indices assigned in insertion order, which is also a
/// valid topological order (a node's inputs always have smaller ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates an id from a dense index.
    ///
    /// Used by graph-transformation passes that rebuild node lists; ids are
    /// validated against the node count when the transformed graph is
    /// reconstructed via [`Graph::from_transformed`].
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator instance inside a [`Graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    name: String,
    op: Op,
    inputs: Vec<NodeId>,
    output_shape: TensorShape,
}

impl Node {
    /// Identifier of this node.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable layer name, e.g. `"conv2_3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator executed by this node.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Ids of the nodes producing this node's inputs.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The inferred output shape.
    pub fn output_shape(&self) -> &TensorShape {
        &self.output_shape
    }
}

/// An immutable, validated DNN computation graph.
///
/// Constructed through [`GraphBuilder`]; nodes are stored in topological
/// order. A graph has exactly one designated output node and one or more
/// `Input` nodes.
///
/// # Examples
///
/// ```
/// use edgebench_graph::{GraphBuilder, ActivationKind};
/// # fn main() -> Result<(), edgebench_graph::GraphError> {
/// let mut b = GraphBuilder::new("mlp");
/// let x = b.input([1, 784]);
/// let h = b.dense(x, 128)?;
/// let h = b.activation(h, ActivationKind::Relu)?;
/// let y = b.dense(h, 10)?;
/// let g = b.build(y)?;
/// assert_eq!(g.name(), "mlp");
/// assert_eq!(g.output_shape().dims(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    output: NodeId,
    dtype: DType,
}

impl Graph {
    /// The model name, e.g. `"resnet-50"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Id of the designated output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Shape of the designated output.
    pub fn output_shape(&self) -> &TensorShape {
        self.nodes[self.output.0].output_shape()
    }

    /// The element type the graph currently computes in.
    ///
    /// Freshly built graphs are [`DType::F32`]; framework passes may lower
    /// to F16 or I8 via [`Graph::with_dtype`].
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Returns a copy of the graph lowered to a different element type.
    ///
    /// This only retags the graph; numeric re-quantization is performed by
    /// the executor in `edgebench-tensor`.
    pub fn with_dtype(&self, dtype: DType) -> Graph {
        let mut g = self.clone();
        g.dtype = dtype;
        g
    }

    /// Rebuilds the graph with every `Input` node's batch dimension set to
    /// `batch`, re-inferring all downstream shapes. Model builders emit
    /// batch-1 graphs; this is how batched execution (and batch benchmarks)
    /// get their graphs.
    ///
    /// # Errors
    ///
    /// Returns an error if some operator cannot accept the new batch size
    /// (none can object in the current op set — batch is a free dimension).
    pub fn with_batch(&self, batch: usize) -> Result<Graph, GraphError> {
        let specs = self
            .nodes
            .iter()
            .map(|n| {
                let op = match n.op() {
                    Op::Input { shape } => {
                        let mut dims = shape.dims().to_vec();
                        if !dims.is_empty() {
                            dims[0] = batch;
                        }
                        Op::Input {
                            shape: TensorShape::new(dims),
                        }
                    }
                    other => other.clone(),
                };
                (n.name().to_string(), op, n.inputs().to_vec())
            })
            .collect();
        Graph::from_transformed(self.name.clone(), specs, self.output, self.dtype)
    }

    /// Ids of all `Input` nodes.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op(), Op::Input { .. }))
            .map(|n| n.id())
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Consumers of each node: `consumers[i]` lists nodes reading node `i`.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &inp in n.inputs() {
                out[inp.0].push(n.id());
            }
        }
        out
    }

    /// Rebuilds a graph from transformed nodes (used by framework passes).
    ///
    /// The nodes must already be in topological order with dense ids; shapes
    /// are re-inferred and validated.
    ///
    /// # Errors
    ///
    /// Returns an error if the transformed node list is not a valid graph.
    pub fn from_transformed(
        name: impl Into<String>,
        specs: Vec<(String, Op, Vec<NodeId>)>,
        output: NodeId,
        dtype: DType,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(name);
        for (name, op, inputs) in specs {
            b.push(name, op, inputs)?;
        }
        let mut g = b.build(output)?;
        g.dtype = dtype;
        Ok(g)
    }
}

/// Incremental builder for [`Graph`].
///
/// Provides one convenience method per common layer; all methods return the
/// [`NodeId`] of the new node so layers can be chained. The generic
/// [`GraphBuilder::push`] accepts any [`Op`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    next_auto_name: usize,
}

impl GraphBuilder {
    /// Creates an empty builder for a model called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            next_auto_name: 0,
        }
    }

    fn auto_name(&mut self, op: &Op) -> String {
        let n = self.next_auto_name;
        self.next_auto_name += 1;
        format!("{}_{n}", op.name())
    }

    /// Adds a node executing `op` reading from `inputs`.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is unknown, the arity is wrong, or
    /// shape inference fails.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, GraphError> {
        for &i in &inputs {
            if i.0 >= self.nodes.len() {
                return Err(GraphError::UnknownNode { id: i.0 });
            }
        }
        if let Some(expected) = op.arity() {
            if inputs.len() != expected {
                return Err(GraphError::WrongArity {
                    op: op.name(),
                    expected,
                    actual: inputs.len(),
                });
            }
        }
        let input_shapes: Vec<TensorShape> = inputs
            .iter()
            .map(|&i| self.nodes[i.0].output_shape.clone())
            .collect();
        let output_shape = op.infer_shape(&input_shapes)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs,
            output_shape,
        });
        Ok(id)
    }

    /// Adds a node with an auto-generated name.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::push`].
    pub fn push_auto(&mut self, op: Op, inputs: Vec<NodeId>) -> Result<NodeId, GraphError> {
        let name = self.auto_name(&op);
        self.push(name, op, inputs)
    }

    /// Adds an input placeholder with the given shape.
    pub fn input(&mut self, shape: impl Into<TensorShape>) -> NodeId {
        let op = Op::Input {
            shape: shape.into(),
        };
        self.push_auto(op, vec![]).expect("input nodes cannot fail")
    }

    /// Adds a biased 2-D convolution.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the input.
    pub fn conv2d(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups: 1,
                bias: true,
            },
            vec![x],
        )
    }

    /// Adds an unbiased 2-D convolution (typical before batch-norm).
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the input.
    pub fn conv2d_nobias(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups: 1,
                bias: false,
            },
            vec![x],
        )
    }

    /// Adds a grouped 2-D convolution.
    ///
    /// # Errors
    ///
    /// Returns an error if `groups` does not divide the channel counts or the
    /// kernel does not fit.
    #[cfg(test)]
    pub(crate) fn conv2d_grouped(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        groups: usize,
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                bias: true,
            },
            vec![x],
        )
    }

    /// Adds a depthwise 2-D convolution with multiplier 1 and no bias.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the input.
    pub fn depthwise(
        &mut self,
        x: NodeId,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::DepthwiseConv2d {
                multiplier: 1,
                kernel,
                stride,
                padding,
                bias: false,
            },
            vec![x],
        )
    }

    /// Adds a biased 3-D convolution.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the input.
    pub fn conv3d(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        padding: (usize, usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Conv3d {
                out_channels,
                kernel,
                stride,
                padding,
                bias: true,
            },
            vec![x],
        )
    }

    /// Adds a biased dense (fully-connected) layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank 2.
    pub fn dense(&mut self, x: NodeId, units: usize) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Dense { units, bias: true }, vec![x])
    }

    /// Adds a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the window does not fit the input.
    pub fn pool(
        &mut self,
        x: NodeId,
        kind: PoolKind,
        kernel: (usize, usize),
        stride: (usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Pool {
                kind,
                kernel,
                stride,
                padding: (0, 0),
            },
            vec![x],
        )
    }

    /// Adds a padded pooling layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the window does not fit the padded input.
    pub fn pool_padded(
        &mut self,
        x: NodeId,
        kind: PoolKind,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Pool {
                kind,
                kernel,
                stride,
                padding,
            },
            vec![x],
        )
    }

    /// Adds a global average pooling layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank 4.
    pub fn global_avg_pool(&mut self, x: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(
            Op::Pool {
                kind: PoolKind::GlobalAvg,
                kernel: (0, 0),
                stride: (1, 1),
                padding: (0, 0),
            },
            vec![x],
        )
    }

    /// Adds a batch normalization layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input id is unknown.
    pub fn batch_norm(&mut self, x: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(Op::BatchNorm, vec![x])
    }

    /// Adds an element-wise activation.
    ///
    /// # Errors
    ///
    /// Returns an error if the input id is unknown.
    pub fn activation(&mut self, x: NodeId, kind: ActivationKind) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Activation { kind }, vec![x])
    }

    /// Adds a residual addition of `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if the operand shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Add, vec![a, b])
    }

    /// Adds an element-wise (Hadamard) product of `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if the operand shapes differ.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Mul, vec![a, b])
    }

    /// Adds a channel-axis concatenation.
    ///
    /// # Errors
    ///
    /// Returns an error if the inputs' batch or spatial dims differ.
    pub fn concat(&mut self, xs: Vec<NodeId>) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Concat, xs)
    }

    /// Adds a feature-axis slice of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds or the input is not
    /// rank 2.
    pub fn slice(&mut self, x: NodeId, start: usize, len: usize) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Slice { start, len }, vec![x])
    }

    /// Adds a flatten layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input id is unknown.
    pub fn flatten(&mut self, x: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Flatten, vec![x])
    }

    /// Adds a softmax layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input id is unknown.
    pub fn softmax(&mut self, x: NodeId) -> Result<NodeId, GraphError> {
        self.push_auto(Op::Softmax, vec![x])
    }

    /// Finalizes the graph with `output` as the designated output node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if no nodes were added, or
    /// [`GraphError::UnknownNode`] if `output` does not exist.
    pub fn build(self, output: NodeId) -> Result<Graph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        if output.0 >= self.nodes.len() {
            return Err(GraphError::UnknownNode { id: output.0 });
        }
        Ok(Graph {
            name: self.name,
            nodes: self.nodes,
            output,
            dtype: DType::F32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_layers() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let g = b.build(r).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.output_shape().dims(), &[1, 4, 8, 8]);
        assert_eq!(g.input_ids(), vec![x]);
        assert_eq!(g.dtype(), DType::F32);
    }

    #[test]
    fn with_batch_rescales_every_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let f = b.flatten(c).unwrap();
        let d = b.dense(f, 10).unwrap();
        let g = b.build(d).unwrap();
        let g8 = g.with_batch(8).unwrap();
        assert_eq!(g8.len(), g.len());
        assert_eq!(g8.output_shape().dims(), &[8, 10]);
        assert_eq!(g8.node(g8.input_ids()[0]).output_shape().dims()[0], 8);
        // Names and ops survive, so synthetic weights are unchanged.
        for (a, bnode) in g.nodes().iter().zip(g8.nodes()) {
            assert_eq!(a.name(), bnode.name());
        }
        // Round-tripping back to batch 1 restores the original graph.
        assert_eq!(g8.with_batch(1).unwrap(), g);
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut b = GraphBuilder::new("t");
        let err = b.push("bad", Op::Flatten, vec![NodeId(7)]).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode { id: 7 });
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 4, 4, 4]);
        let err = b.push("bad", Op::Add, vec![x]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::WrongArity {
                op: "add",
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn empty_build_is_rejected() {
        let b = GraphBuilder::new("t");
        assert_eq!(b.build(NodeId(0)).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn consumers_are_tracked() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 4, 8, 8]);
        let a = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let s = b.add(a, x).unwrap();
        let g = b.build(s).unwrap();
        let cons = g.consumers();
        assert_eq!(cons[x.index()], vec![a, s]);
        assert_eq!(cons[a.index()], vec![s]);
        assert!(cons[s.index()].is_empty());
    }

    #[test]
    fn with_dtype_retags() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 8]);
        let g = b.build(x).unwrap();
        assert_eq!(g.with_dtype(DType::I8).dtype(), DType::I8);
    }

    #[test]
    fn from_transformed_roundtrip() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(c).unwrap();
        let specs: Vec<_> = g
            .nodes()
            .iter()
            .map(|n| (n.name().to_string(), n.op().clone(), n.inputs().to_vec()))
            .collect();
        let g2 = Graph::from_transformed("t", specs, g.output(), g.dtype()).unwrap();
        assert_eq!(g2.output_shape(), g.output_shape());
    }
}
