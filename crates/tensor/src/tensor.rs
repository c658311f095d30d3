//! Dense row-major `f32` tensors.

use edgebench_graph::TensorShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::TryReserveError;
use std::fmt;

/// A dense, row-major, `f32` tensor.
///
/// Layout follows the owning [`TensorShape`]: `NCHW` for feature maps,
/// `NCDHW` for video, `[N, features]` for flattened activations.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: TensorShape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<TensorShape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<TensorShape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            data.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a deterministic pseudo-random tensor in `[-0.5, 0.5)`.
    ///
    /// Used for synthetic weights and inputs; the same `seed` always yields
    /// the same tensor, making executions reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the buffer cannot be allocated (see
    /// [`Tensor::try_random`]).
    pub fn random(shape: impl Into<TensorShape>, seed: u64) -> Self {
        Tensor::try_random(shape, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tensor::random`] that returns the allocator's error instead of
    /// aborting when the buffer cannot be allocated (an input at an
    /// oversized batch, say).
    ///
    /// # Errors
    ///
    /// The [`TryReserveError`] of the failed reservation.
    pub fn try_random(shape: impl Into<TensorShape>, seed: u64) -> Result<Self, TryReserveError> {
        let shape = shape.into();
        let n = shape.num_elements();
        let mut data = Vec::new();
        data.try_reserve_exact(n)?;
        let mut rng = StdRng::seed_from_u64(seed);
        data.extend((0..n).map(|_| rng.gen::<f32>() - 0.5));
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &TensorShape {
        &self.shape
    }

    /// Immutable view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Makes the buffer hold at least `elems` values before it reallocates:
    /// room for a later [`Tensor::set_shape`]. A buffer too small is
    /// replaced, its values dropped, and the new one is capacity only, so
    /// none of its pages is touched.
    ///
    /// # Errors
    ///
    /// The [`TryReserveError`] of the failed reservation.
    pub(crate) fn try_reserve(&mut self, elems: usize) -> Result<(), TryReserveError> {
        if self.data.capacity() < elems {
            self.data = Vec::new();
            self.data.try_reserve_exact(elems)?;
        }
        Ok(())
    }

    /// Gives the tensor `shape` in place, reusing its buffer and its
    /// shape's storage: the buffer is cut or zero-extended to the new
    /// element count, so values it keeps are unchanged.
    pub(crate) fn set_shape(&mut self, shape: &TensorShape) {
        self.data.resize(shape.num_elements(), 0.0);
        self.shape.clone_from(shape);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reshapes in place without moving data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&mut self, shape: impl Into<TensorShape>) {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            self.data.len(),
            "cannot reshape {} elements to {shape}",
            self.data.len()
        );
        self.shape = shape;
    }

    /// Mean absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mean_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in mean_abs_diff");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        sum / self.data.len() as f32
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}; {} elems", self.shape, self.data.len())?;
        if !self.data.is_empty() {
            write!(f, "; first={:.4}", self.data[0])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros([2, 3, 4, 4]);
        assert_eq!(t.len(), 96);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random([1, 8], 3);
        let b = Tensor::random([1, 8], 3);
        let c = Tensor::random([1, 8], 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn try_random_matches_random_and_types_allocation_failure() {
        assert_eq!(
            Tensor::try_random([2, 3, 5], 9).unwrap(),
            Tensor::random([2, 3, 5], 9)
        );
        assert!(Tensor::try_random([100_000_000_000usize, 3, 32, 32], 1).is_err());
    }

    #[test]
    fn mean_abs_diff_of_identical_is_zero() {
        let t = Tensor::random([4, 4], 1);
        assert_eq!(t.mean_abs_diff(&t), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        t.reshape([1, 6]);
        assert_eq!(t.shape().dims(), &[1, 6]);
        assert_eq!(t.data()[4], 5.0);
    }
}
