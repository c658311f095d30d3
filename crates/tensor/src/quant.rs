//! Post-training affine INT8 quantization.
//!
//! Implements the standard asymmetric affine scheme used by TFLite and
//! TensorRT's INT8 calibration: `real = scale * (q - zero_point)` with
//! `q ∈ [-128, 127]`. The executor uses it to run graphs in simulated INT8
//! ("fake quantization", the same numerics quantization-aware tooling
//! emulates), and the quantization-error experiments measure the resulting
//! output degradation.

use crate::Tensor;

/// Affine quantization parameters for one tensor.
///
/// # Examples
///
/// ```
/// use edgebench_tensor::QuantParams;
/// let q = QuantParams::from_range(-1.0, 3.0);
/// let (val, deq) = (1.7_f32, q.dequantize(q.quantize(1.7)));
/// assert!((val - deq).abs() < q.scale());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Derives parameters covering `[min, max]` with 8-bit resolution.
    ///
    /// The range is widened to always contain zero (required so that zero
    /// padding is exactly representable, as TFLite does).
    pub fn from_range(min: f32, max: f32) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-8);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Derives parameters from the observed range of a tensor.
    pub fn observe(t: &Tensor) -> Self {
        QuantParams::observe_slice(t.data())
    }

    /// Derives parameters from the observed range of a slice.
    pub(crate) fn observe_slice(xs: &[f32]) -> Self {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in xs {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            return QuantParams::from_range(0.0, 1.0);
        }
        QuantParams::from_range(min, max)
    }

    /// The step between adjacent representable values.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a real value to `i8` (saturating).
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(-128, 127) as i8
    }

    /// Dequantizes an `i8` back to a real value.
    pub fn dequantize(&self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }

    /// Rounds a value through the quantized grid (fake quantization).
    pub(crate) fn fake_quant(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// Rounds every element of a tensor through its own 8-bit grid in place and
/// returns the parameters used.
pub fn fake_quantize_tensor(t: &mut Tensor) -> QuantParams {
    fake_quantize_slice(t.data_mut())
}

/// [`fake_quantize_tensor`] over a raw slice. The grid always contains
/// zero ([`QuantParams::from_range`]) and `0.0` maps to itself, so zero
/// padding around the values — a packed weight panel's — changes neither
/// the parameters nor the padding.
pub(crate) fn fake_quantize_slice(xs: &mut [f32]) -> QuantParams {
    let p = QuantParams::observe_slice(xs);
    for v in xs {
        *v = p.fake_quant(*v);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_exactly_representable() {
        for (lo, hi) in [(-1.0, 1.0), (0.1, 7.0), (-5.0, -0.2), (-0.3, 0.9)] {
            let p = QuantParams::from_range(lo, hi);
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range ({lo},{hi})");
        }
    }

    #[test]
    fn roundtrip_error_is_below_one_step() {
        let p = QuantParams::from_range(-2.0, 2.0);
        for i in -200..=200 {
            let v = i as f32 / 100.0;
            let e = (v - p.fake_quant(v)).abs();
            assert!(e <= p.scale() * 0.5 + 1e-6, "v={v} e={e}");
        }
    }

    #[test]
    fn out_of_range_saturates() {
        let p = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(p.quantize(50.0), 127);
        assert_eq!(p.quantize(-50.0), -128);
    }

    #[test]
    fn observe_covers_tensor_range() {
        let t = Tensor::from_vec([4], vec![-3.0, 0.0, 1.0, 2.5]);
        let p = QuantParams::observe(&t);
        for &v in t.data() {
            assert!((v - p.fake_quant(v)).abs() <= p.scale());
        }
    }

    #[test]
    fn degenerate_range_does_not_divide_by_zero() {
        let p = QuantParams::from_range(0.0, 0.0);
        assert!(p.scale() > 0.0);
        assert_eq!(p.fake_quant(0.0), 0.0);
    }
}
