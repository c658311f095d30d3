//! Graceful-degradation ladders: the cheaper precisions a deployment can
//! step down to, and what each step costs in accuracy.
//!
//! A serving fleet under SLO pressure can *degrade* instead of shedding:
//! re-lower the same deployed graph to a narrower precision (fp32 → fp16
//! → int8, the framework quantization passes) and serve the burst at a
//! lower accuracy proxy. The serving fleet builds its ladder from these
//! rungs, keeping a rung only when it is strictly cheaper than the one
//! above it. Devices without a fast low-precision path (the RPi's NEON
//! f32-only stacks) naturally produce short or empty ladders — exactly
//! the paper's per-device unevenness.

use edgebench_graph::DType;

/// Accuracy proxy per precision: fp16 is near-lossless, int8
/// post-training quantization costs on the order of a point of top-1
/// (cf. the quantization characterization literature).
pub fn fidelity_proxy(dtype: DType) -> f64 {
    match dtype {
        DType::F32 => 1.0,
        DType::F16 => 0.999,
        DType::I8 => 0.98,
    }
}

/// The precisions strictly narrower than `dtype`, in ladder order.
pub fn cheaper_dtypes(dtype: DType) -> &'static [DType] {
    match dtype {
        DType::F32 => &[DType::F16, DType::I8],
        DType::F16 => &[DType::I8],
        DType::I8 => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_proxy_is_monotone_in_width() {
        assert!(fidelity_proxy(DType::F32) > fidelity_proxy(DType::F16));
        assert!(fidelity_proxy(DType::F16) > fidelity_proxy(DType::I8));
    }
}
