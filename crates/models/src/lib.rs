//! # edgebench-models
//!
//! Faithful, layer-by-layer builders for the sixteen CNN models of the
//! paper's Table I, constructed over the [`edgebench_graph`] IR. FLOP and
//! parameter counts are *derived* from the architectures (via
//! `Graph::stats()`), not transcribed from the paper — reproducing Table I
//! is one of the repository's experiments.
//!
//! ## Example
//!
//! ```
//! use edgebench_models::Model;
//!
//! let g = Model::ResNet18.build();
//! let s = g.stats();
//! // Paper Table I: 11.69 M parameters, 1.83 GFLOP (MAC convention).
//! assert!((s.params as f64 / 1e6 - 11.69).abs() < 0.1);
//! assert!((s.flops as f64 / 1e9 - 1.83).abs() < 0.1);
//! ```
//!
//! ## Conventions and deviations from the paper
//!
//! * FLOP = multiply-accumulates (the paper's convention for most rows).
//!   The YOLOv3 / TinyYolo / C3D rows of the paper count 1 MAC = 2 FLOP
//!   (they come from DarkNet, which reports `BFLOPS = 2·MACs`);
//!   [`Model::paper_ref`] records each row's convention.
//! * Inception-v4 is built at its native 299×299 input (the paper's Table I
//!   lists 224×224 but its 12.27 GFLOP figure matches 299×299).
//! * TinyYolo is the Tiny-YOLOv2 architecture (15.87 M parameters matches
//!   that network, not Tiny-YOLOv3).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alexnet;
mod c3d;
mod common;
mod inception;
mod mobilenet;
mod resnet;
pub mod rnn;
mod ssd;
mod vgg;
mod xception;
mod yolo;

use edgebench_graph::{Graph, TensorShape};
use std::fmt;

/// A reference row of the paper's Table I, used to check reproduction
/// fidelity in tests and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// GFLOP per inference as printed in the paper.
    pub flops_g: f64,
    /// Parameters in millions as printed in the paper.
    pub params_m: f64,
    /// `true` when the paper row counts 1 MAC as 2 FLOP (DarkNet convention).
    pub double_counted: bool,
}

/// The sixteen DNN models characterized by the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Model {
    /// ResNet-18 (He et al. 2016), 224×224.
    ResNet18,
    /// ResNet-50, 224×224.
    ResNet50,
    /// ResNet-101, 224×224.
    ResNet101,
    /// Xception (Chollet 2017), 224×224.
    Xception,
    /// MobileNet-v2 (Sandler et al. 2018), 224×224.
    MobileNetV2,
    /// Inception-v4 (Szegedy et al. 2017), 299×299.
    InceptionV4,
    /// AlexNet ("one weird trick" single-tower variant), 224×224.
    AlexNet,
    /// VGG16 (Simonyan & Zisserman 2015), 224×224.
    Vgg16,
    /// VGG19, 224×224.
    Vgg19,
    /// VGG-S (Chatfield et al. 2014) at 32×32 input.
    VggS32,
    /// VGG-S at 224×224 input.
    VggS224,
    /// CifarNet (TF-slim), 32×32.
    CifarNet,
    /// SSD object detector with MobileNet-v1 feature extractor, 300×300.
    SsdMobileNetV1,
    /// YOLOv3 (Redmon & Farhadi 2018), 224×224.
    YoloV3,
    /// Tiny-YOLOv2, 416×416.
    TinyYolo,
    /// C3D video network (Tran et al. 2015), 12×112×112 clips.
    C3d,
}

impl Model {
    /// All models in the paper's Table I order.
    pub fn all() -> &'static [Model] {
        use Model::*;
        &[
            ResNet18,
            ResNet50,
            ResNet101,
            Xception,
            MobileNetV2,
            InceptionV4,
            AlexNet,
            Vgg16,
            Vgg19,
            VggS32,
            VggS224,
            CifarNet,
            SsdMobileNetV1,
            YoloV3,
            TinyYolo,
            C3d,
        ]
    }

    /// The nine models used in the paper's Figure 2 device comparison.
    pub fn fig2_set() -> &'static [Model] {
        use Model::*;
        &[
            ResNet18,
            ResNet50,
            MobileNetV2,
            InceptionV4,
            AlexNet,
            Vgg16,
            SsdMobileNetV1,
            TinyYolo,
            C3d,
        ]
    }

    /// Kebab-case model name as used in reports, e.g. `"resnet-50"`.
    pub fn name(self) -> &'static str {
        match self {
            Model::ResNet18 => "resnet-18",
            Model::ResNet50 => "resnet-50",
            Model::ResNet101 => "resnet-101",
            Model::Xception => "xception",
            Model::MobileNetV2 => "mobilenet-v2",
            Model::InceptionV4 => "inception-v4",
            Model::AlexNet => "alexnet",
            Model::Vgg16 => "vgg16",
            Model::Vgg19 => "vgg19",
            Model::VggS32 => "vgg-s-32",
            Model::VggS224 => "vgg-s-224",
            Model::CifarNet => "cifarnet",
            Model::SsdMobileNetV1 => "ssd-mobilenet-v1",
            Model::YoloV3 => "yolov3",
            Model::TinyYolo => "tinyyolo",
            Model::C3d => "c3d",
        }
    }

    /// Parses a model from its [`Model::name`] string.
    pub fn from_name(name: &str) -> Option<Model> {
        Model::all().iter().copied().find(|m| m.name() == name)
    }

    /// The single-batch input shape the model is built with.
    pub fn input_shape(self) -> TensorShape {
        match self {
            Model::VggS32 | Model::CifarNet => TensorShape::new([1, 3, 32, 32]),
            Model::InceptionV4 => TensorShape::new([1, 3, 299, 299]),
            Model::SsdMobileNetV1 => TensorShape::new([1, 3, 300, 300]),
            Model::YoloV3 => TensorShape::new([1, 3, 320, 320]),
            Model::TinyYolo => TensorShape::new([1, 3, 416, 416]),
            Model::C3d => TensorShape::new([1, 3, 12, 112, 112]),
            _ => TensorShape::new([1, 3, 224, 224]),
        }
    }

    /// Builds the model as a fresh F32 graph.
    ///
    /// # Panics
    ///
    /// Builders are exhaustively unit-tested; construction cannot fail for
    /// the shipped architectures.
    pub fn build(self) -> Graph {
        self.try_build()
            .expect("model builders are statically valid")
    }

    /// Builds the model, surfacing construction errors.
    ///
    /// # Errors
    ///
    /// Returns a [`edgebench_graph::GraphError`] if an internal builder is
    /// inconsistent (should not happen for shipped models).
    pub(crate) fn try_build(self) -> Result<Graph, edgebench_graph::GraphError> {
        match self {
            Model::ResNet18 => resnet::resnet(18),
            Model::ResNet50 => resnet::resnet(50),
            Model::ResNet101 => resnet::resnet(101),
            Model::Xception => xception::xception(),
            Model::MobileNetV2 => mobilenet::mobilenet_v2(),
            Model::InceptionV4 => inception::inception_v4(),
            Model::AlexNet => alexnet::alexnet(),
            Model::Vgg16 => vgg::vgg(16),
            Model::Vgg19 => vgg::vgg(19),
            Model::VggS32 => vgg::vgg_s(32),
            Model::VggS224 => vgg::vgg_s(224),
            Model::CifarNet => alexnet::cifarnet(),
            Model::SsdMobileNetV1 => ssd::ssd_mobilenet_v1(),
            Model::YoloV3 => yolo::yolov3(),
            Model::TinyYolo => yolo::tiny_yolo(),
            Model::C3d => c3d::c3d(),
        }
    }

    /// The paper's Table I row for this model.
    pub fn paper_ref(self) -> PaperRef {
        let (flops_g, params_m, double_counted) = match self {
            Model::ResNet18 => (1.83, 11.69, false),
            Model::ResNet50 => (4.14, 25.56, false),
            Model::ResNet101 => (7.87, 44.55, false),
            Model::Xception => (4.65, 22.91, false),
            Model::MobileNetV2 => (0.32, 3.53, false),
            Model::InceptionV4 => (12.27, 42.71, false),
            Model::AlexNet => (0.72, 102.14, false),
            Model::Vgg16 => (15.47, 138.36, false),
            Model::Vgg19 => (19.63, 143.66, false),
            Model::VggS32 => (0.11, 32.11, false),
            Model::VggS224 => (3.27, 102.91, false),
            Model::CifarNet => (0.01, 0.79, false),
            Model::SsdMobileNetV1 => (0.98, 4.23, false),
            Model::YoloV3 => (38.97, 62.00, true),
            Model::TinyYolo => (5.56, 15.87, true),
            Model::C3d => (57.99, 89.00, true),
        };
        PaperRef {
            flops_g,
            params_m,
            double_counted,
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build() {
        for &m in Model::all() {
            let g = m.try_build().unwrap_or_else(|e| panic!("{m} failed: {e}"));
            assert!(!g.is_empty(), "{m} empty");
            assert_eq!(
                g.node(g.input_ids()[0]).output_shape(),
                &m.input_shape(),
                "{m}"
            );
        }
    }

    #[test]
    fn names_roundtrip() {
        for &m in Model::all() {
            assert_eq!(Model::from_name(m.name()), Some(m));
        }
        assert_eq!(Model::from_name("nope"), None);
    }

    #[test]
    fn fig2_set_is_subset_of_all() {
        for m in Model::fig2_set() {
            assert!(Model::all().contains(m));
        }
        assert_eq!(Model::fig2_set().len(), 9);
    }

    #[test]
    fn classification_models_end_in_1000_classes() {
        for m in [
            Model::ResNet18,
            Model::ResNet50,
            Model::ResNet101,
            Model::Xception,
            Model::MobileNetV2,
            Model::InceptionV4,
            Model::AlexNet,
            Model::Vgg16,
            Model::Vgg19,
        ] {
            let g = m.build();
            assert_eq!(g.output_shape().dims(), &[1, 1000], "{m}");
        }
    }
}
