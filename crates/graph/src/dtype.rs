//! Numeric element types carried by tensors in the IR.

use std::fmt;

/// The element type of a tensor in the graph.
///
/// Frameworks lower graphs to different precisions: `F32` is the default
/// training/inference precision, `F16` is half precision supported by most
/// GPU-backed frameworks, and `I8` is the affine-quantized integer type used
/// by TFLite, TensorRT (INT8 mode) and the EdgeTPU compiler.
///
/// # Examples
///
/// ```
/// use edgebench_graph::DType;
/// assert_eq!(DType::F32.size_bytes(), 4);
/// assert_eq!(DType::I8.size_bytes(), 1);
/// assert!(DType::F16 < DType::F32); // ordered by width
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 8-bit affine-quantized integer.
    I8,
    /// IEEE-754 half precision (binary16).
    F16,
    /// IEEE-754 single precision (binary32).
    #[default]
    F32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::I8 => 1,
            DType::F16 => 2,
            DType::F32 => 4,
        }
    }

    /// Short lowercase name, e.g. `"f32"`.
    pub fn name(self) -> &'static str {
        match self {
            DType::I8 => "i8",
            DType::F16 => "f16",
            DType::F32 => "f32",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_monotonic_in_ordering() {
        let mut all = [DType::F32, DType::I8, DType::F16];
        all.sort();
        assert_eq!(all, [DType::I8, DType::F16, DType::F32]);
        assert!(all
            .windows(2)
            .all(|w| w[0].size_bytes() <= w[1].size_bytes()));
    }

    #[test]
    fn display_matches_name() {
        for d in [DType::I8, DType::F16, DType::F32] {
            assert_eq!(d.to_string(), d.name());
        }
    }

    #[test]
    fn default_is_f32() {
        assert_eq!(DType::default(), DType::F32);
    }
}
