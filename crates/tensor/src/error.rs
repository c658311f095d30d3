//! Error type for graph execution.

use std::error::Error;
use std::fmt;

/// Error produced while executing a graph numerically.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// The provided input tensor does not match the graph's input shape.
    InputShapeMismatch {
        /// Shape the graph expects.
        expected: String,
        /// Shape that was provided.
        actual: String,
    },
    /// The graph has no input node to feed.
    NoInput,
    /// The graph holds a node the executor cannot run: a second input
    /// node, or a fused node around an op it cannot fuse. Found when the
    /// plan is compiled, before anything runs.
    UnsupportedGraph {
        /// Name of the offending node.
        node: String,
        /// What the executor cannot run.
        detail: String,
    },
    /// A buffer the executor needs (packed weights, the activation arena,
    /// an input tensor) could not be allocated. Returned instead of
    /// aborting, so an oversized batch is a typed error.
    OutOfMemory {
        /// Name of the node (or input) the buffer was for.
        node: String,
        /// Bytes requested.
        bytes: usize,
    },
    /// An integrity guard flagged this inference as corrupted (activation
    /// outside its calibrated envelope, or a non-finite value) and recovery
    /// did not produce a clean result.
    Corrupted {
        /// Name of the node whose output tripped the guard.
        node: String,
        /// Which guard tripped.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputShapeMismatch { expected, actual } => {
                write!(f, "input shape mismatch: expected {expected}, got {actual}")
            }
            ExecError::NoInput => write!(f, "graph has no input node"),
            ExecError::UnsupportedGraph { node, detail } => {
                write!(f, "unsupported graph at node {node}: {detail}")
            }
            ExecError::OutOfMemory { node, bytes } => {
                write!(f, "cannot allocate {bytes} bytes for node {node}")
            }
            ExecError::Corrupted { node, reason } => {
                write!(f, "corrupted inference at node {node}: {reason}")
            }
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ExecError>();
    }

    #[test]
    fn display_is_stable() {
        let e = ExecError::UnsupportedGraph {
            node: "conv0".into(),
            detail: "fused around non-conv op".into(),
        };
        assert_eq!(
            e.to_string(),
            "unsupported graph at node conv0: fused around non-conv op"
        );
        let c = ExecError::Corrupted {
            node: "dense1".into(),
            reason: "non-finite".into(),
        };
        assert_eq!(
            c.to_string(),
            "corrupted inference at node dense1: non-finite"
        );
        let o = ExecError::OutOfMemory {
            node: "input".into(),
            bytes: 1 << 40,
        };
        assert_eq!(
            o.to_string(),
            "cannot allocate 1099511627776 bytes for node input"
        );
    }
}
