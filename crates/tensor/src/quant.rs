//! Post-training affine INT8 quantization.
//!
//! Implements the standard asymmetric affine scheme used by TFLite and
//! TensorRT's INT8 calibration: `real = scale * (q - zero_point)` with
//! `q ∈ [-128, 127]`. The executor uses it to run graphs in simulated INT8
//! ("fake quantization", the same numerics quantization-aware tooling
//! emulates), and the quantization-error experiments measure the resulting
//! output degradation.
//!
//! The loops here are the reference. The executor lowers on its kernel
//! tier ([`crate::simd::fake_quantize`]): the AVX-512F and AVX2 tiers find
//! the range and round through the grid with vector instructions and give
//! the reference's bits on every input.

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

    /// Derives parameters from the observed range of a slice.
    pub(crate) fn observe_slice(xs: &[f32]) -> Self {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in xs {
            min = min.min(v);
            max = max.max(v);
        }
        QuantParams::from_observed(min, max)
    }

    /// The parameters of an observed range: the smallest and largest
    /// non-NaN value of a tensor, `(+Inf, -Inf)` when it has none. A range
    /// that is not finite (an infinity, or no value at all) falls back to
    /// `[0, 1]`.
    pub(crate) fn from_observed(min: f32, max: f32) -> Self {
        if !min.is_finite() || !max.is_finite() {
            return QuantParams::from_range(0.0, 1.0);
        }
        QuantParams::from_range(min, max)
    }

    /// The step between adjacent representable values.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The integer that represents `0.0`.
    pub(crate) fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes a real value to `i8` (saturating). NaN maps to the zero
    /// point.
    pub fn quantize(&self, x: f32) -> i8 {
        // The cast saturates ±Inf and huge values to `i32::MIN`/`MAX`; the
        // add saturates too, so they clamp to the end of their sign.
        let q = ((x / self.scale).round() as i32).saturating_add(self.zero_point);
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

/// Rounds every element of a slice through its own 8-bit grid in place
/// and returns the parameters used. The grid always contains zero
/// ([`QuantParams::from_range`]) and `0.0` maps to itself, so zero padding
/// around the values — a packed weight panel's — changes neither the
/// parameters nor the padding.
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
    fn observe_covers_slice_range() {
        let xs = [-3.0, 0.0, 1.0, 2.5];
        let p = QuantParams::observe_slice(&xs);
        for v in xs {
            assert!((v - p.fake_quant(v)).abs() <= p.scale());
        }
    }

    #[test]
    fn infinities_saturate_on_the_fallback_grid() {
        // A tensor holding ±Inf falls back to the [0, 1] grid, whose zero
        // point is -128. `-Inf` and values below about -8.4e6 cast to
        // `i32::MIN`, where an unsaturated add of the zero point overflows:
        // a panic in debug builds, a wrap to +127 (the range's top, 1.0)
        // in release.
        let mut xs = [f32::NEG_INFINITY, f32::INFINITY, f32::NAN, -1.0e7, 0.5];
        let p = fake_quantize_slice(&mut xs);
        assert_eq!(p, QuantParams::from_range(0.0, 1.0));
        assert_eq!(p.zero_point(), -128);
        let bits = xs.map(f32::to_bits);
        let want = [0.0f32, 1.0, 0.0, 0.0, p.fake_quant(0.5)].map(f32::to_bits);
        assert_eq!(bits, want, "{xs:?}");
        assert_eq!(p.quantize(f32::NEG_INFINITY), -128);
        assert_eq!(p.quantize(f32::INFINITY), 127);
    }

    #[test]
    fn degenerate_range_does_not_divide_by_zero() {
        let p = QuantParams::from_range(0.0, 0.0);
        assert!(p.scale() > 0.0);
        assert_eq!(p.fake_quant(0.0), 0.0);
    }
}
