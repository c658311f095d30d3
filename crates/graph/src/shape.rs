//! Tensor shapes and shape arithmetic.

use std::fmt;

/// The shape of a tensor flowing along a graph edge.
///
/// Shapes are stored as an ordered list of dimension extents. Convolutional
/// feature maps use `[N, C, H, W]` layout (`NCHW`); 3-D convolutions use
/// `[N, C, D, H, W]`; flattened activations use `[N, features]`.
///
/// # Examples
///
/// ```
/// use edgebench_graph::TensorShape;
/// let s = TensorShape::new([1, 3, 224, 224]);
/// assert_eq!(s.num_elements(), 3 * 224 * 224);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct TensorShape {
    dims: Vec<usize>,
}

impl Clone for TensorShape {
    fn clone(&self) -> Self {
        TensorShape {
            dims: self.dims.clone(),
        }
    }

    /// Copies `source`'s dimensions into this shape's own storage, which
    /// allocates only when `source` has more dimensions than it can hold
    /// (a derived `clone_from` would allocate every time).
    fn clone_from(&mut self, source: &Self) {
        self.dims.clone_from(&source.dims);
    }
}

impl TensorShape {
    /// Creates a shape from a list of dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        TensorShape { dims: dims.into() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// All dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of all extents).
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Batch dimension (`N`), i.e. dimension 0.
    ///
    /// # Panics
    ///
    /// Panics if the shape has rank 0.
    pub fn batch(&self) -> usize {
        self.dims[0]
    }

    /// Channel dimension for `NCHW`/`NCDHW` layouts, i.e. dimension 1.
    ///
    /// # Panics
    ///
    /// Panics if the shape has rank < 2.
    pub fn channels(&self) -> usize {
        self.dims[1]
    }

    /// Spatial height for `NCHW` (dim 2) or `NCDHW` (dim 3) layouts.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 4 or 5.
    pub fn height(&self) -> usize {
        match self.rank() {
            4 => self.dims[2],
            5 => self.dims[3],
            r => panic!("height() requires rank 4 or 5 shape, got rank {r}"),
        }
    }

    /// Spatial width for `NCHW` (dim 3) or `NCDHW` (dim 4) layouts.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 4 or 5.
    pub fn width(&self) -> usize {
        match self.rank() {
            4 => self.dims[3],
            5 => self.dims[4],
            r => panic!("width() requires rank 4 or 5 shape, got rank {r}"),
        }
    }

    /// Temporal depth for `NCDHW` layout (dim 2).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 5.
    pub fn depth(&self) -> usize {
        assert_eq!(self.rank(), 5, "depth() requires a rank-5 shape");
        self.dims[2]
    }

    /// Output spatial extent of a strided, padded sliding window:
    /// `floor((input + 2*pad - kernel) / stride) + 1`.
    ///
    /// Returns `None` when the window does not fit (e.g. kernel larger than
    /// the padded input).
    pub fn conv_out_extent(
        input: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Option<usize> {
        let padded = input + 2 * pad;
        if padded < kernel || stride == 0 {
            return None;
        }
        Some((padded - kernel) / stride + 1)
    }
}

impl<const N: usize> From<[usize; N]> for TensorShape {
    fn from(dims: [usize; N]) -> Self {
        TensorShape::new(dims.to_vec())
    }
}

impl From<Vec<usize>> for TensorShape {
    fn from(dims: Vec<usize>) -> Self {
        TensorShape::new(dims)
    }
}

impl fmt::Display for TensorShape {
    /// Renders `[1, 3, 224, 224]` as `1x3x224x224`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in &self.dims {
            if !first {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = TensorShape::new([2, 3, 8, 9]);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.channels(), 3);
        assert_eq!(s.height(), 8);
        assert_eq!(s.width(), 9);
        assert_eq!(s.num_elements(), 2 * 3 * 8 * 9);
    }

    #[test]
    fn rank5_accessors() {
        let s = TensorShape::new([1, 3, 12, 112, 110]);
        assert_eq!(s.depth(), 12);
        assert_eq!(s.height(), 112);
        assert_eq!(s.width(), 110);
    }

    #[test]
    fn conv_out_extent_matches_hand_computation() {
        // 224 input, 7x7 kernel, stride 2, pad 3 -> 112 (ResNet stem).
        assert_eq!(TensorShape::conv_out_extent(224, 7, 2, 3), Some(112));
        // 32 input, 3x3 kernel, stride 1, pad 1 -> 32 (same padding).
        assert_eq!(TensorShape::conv_out_extent(32, 3, 1, 1), Some(32));
        // Kernel too large.
        assert_eq!(TensorShape::conv_out_extent(2, 5, 1, 0), None);
        // Zero stride is invalid.
        assert_eq!(TensorShape::conv_out_extent(8, 3, 0, 0), None);
    }

    #[test]
    fn clone_from_reuses_the_dimension_storage() {
        let mut s = TensorShape::new([4, 64, 56, 56]);
        let before = s.dims.as_ptr();
        s.clone_from(&TensorShape::new([4, 1000]));
        assert_eq!(s, TensorShape::new([4, 1000]));
        s.clone_from(&TensorShape::new([1, 3, 224, 224]));
        assert_eq!(s, TensorShape::new([1, 3, 224, 224]));
        assert_eq!(s.dims.as_ptr(), before);
    }

    #[test]
    fn display_is_x_separated() {
        assert_eq!(
            TensorShape::new([1, 3, 224, 224]).to_string(),
            "1x3x224x224"
        );
        assert_eq!(TensorShape::new([10]).to_string(), "10");
    }
}
