//! Minimal IEEE-754 binary16 (half precision) emulation.
//!
//! Frameworks in the paper (Table II) almost universally support FP16
//! inference; devices differ in whether their hardware executes it natively.
//! This module provides bit-exact `f32 → f16 → f32` round-tripping so the
//! executor can *emulate* half-precision numerics (round-to-nearest-even),
//! which is how FP16 inference error is studied without FP16 hardware.
//!
//! These software conversions are the reference. The executor rounds on
//! its kernel tier ([`crate::simd::round_f16`]): the AVX-512F tier and the
//! AVX2 tier on an F16C host convert with the hardware instructions and
//! canonicalise NaNs as `f32_to_f16` does, so every tier gives the same
//! bits on all 2³² `f32` patterns.

/// Converts an `f32` to its nearest binary16 bit pattern
/// (round-to-nearest-even), then back to `f32`.
///
/// # Examples
///
/// ```
/// use edgebench_tensor::f16::round_f16;
/// assert_eq!(round_f16(1.0), 1.0);
/// // 1e-8 underflows half precision to zero.
/// assert_eq!(round_f16(1.0e-8), 0.0);
/// // Values above f16::MAX saturate to infinity.
/// assert!(round_f16(1.0e6).is_infinite());
/// ```
pub fn round_f16(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

/// Converts an `f32` to binary16 bits (round-to-nearest-even).
pub(crate) fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        let payload = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | payload;
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if e >= -14 {
        // Normal half.
        let half_exp = ((e + 15) as u16) << 10;
        // Keep 10 mantissa bits; round to nearest even on the 13 dropped.
        let mant10 = mant >> 13;
        let rest = mant & 0x1fff;
        let mut h = sign | half_exp | mant10 as u16;
        if rest > 0x1000 || (rest == 0x1000 && (mant10 & 1) == 1) {
            h = h.wrapping_add(1); // may carry into exponent, which is correct
        }
        return h;
    }
    if e >= -25 {
        // Subnormal half.
        let shift = (-14 - e) as u32; // 1..=11
        let full = mant | 0x80_0000; // implicit leading one
        let total_shift = 13 + shift;
        let mant10 = full >> total_shift;
        let rest = full & ((1 << total_shift) - 1);
        let halfway = 1u32 << (total_shift - 1);
        let mut h = sign | mant10 as u16;
        if rest > halfway || (rest == halfway && (mant10 & 1) == 1) {
            h = h.wrapping_add(1);
        }
        return h;
    }
    sign // underflow -> signed zero
}

/// Converts binary16 bits to an `f32`.
pub(crate) fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = (m / 1024) * 2^-14; normalize by shifting
            // the leading one into the implicit-bit position.
            let mut e = -14i32;
            let mut m = m;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13),
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Rounds every element of a slice through binary16 in place.
pub(crate) fn round_slice_f16(xs: &mut [f32]) {
    for x in xs {
        *x = round_f16(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_roundtrip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            assert_eq!(round_f16(v), v, "{v}");
        }
    }

    #[test]
    fn relative_error_is_half_precision() {
        for i in 1..1000 {
            let v = i as f32 * 0.137;
            let r = round_f16(v);
            let rel = ((r - v) / v).abs();
            assert!(rel < 1.0 / 1024.0, "v={v} r={r} rel={rel}");
        }
    }

    #[test]
    fn overflow_saturates_to_inf() {
        assert!(round_f16(70000.0).is_infinite());
        assert!(round_f16(-70000.0).is_infinite());
        assert!(round_f16(-70000.0) < 0.0);
    }

    #[test]
    fn subnormals_are_representable() {
        let smallest_normal = 6.103_515_6e-5_f32; // 2^-14
        let sub = smallest_normal / 4.0;
        let r = round_f16(sub);
        assert!(r > 0.0 && (r - sub).abs() / sub < 0.01);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(round_f16(1e-10), 0.0);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(round_f16(f32::NAN).is_nan());
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10;
        // nearest-even picks 1.0.
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(round_f16(halfway), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + (2.0f32).powi(-11) * 1.01;
        assert_eq!(round_f16(above), 1.0 + (2.0f32).powi(-10));
    }
}
