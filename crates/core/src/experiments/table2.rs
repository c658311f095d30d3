//! Table II: the framework specification/feature matrix, regenerated from
//! `edgebench-frameworks`' encoded `FrameworkInfo`.

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_frameworks::Framework;

fn yn(v: bool) -> &'static str {
    if v {
        "yes"
    } else {
        "no"
    }
}

/// Table II experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table II: framework specifications and optimizations"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "framework",
                "language",
                "industry",
                "training",
                "extra_steps",
                "mobile",
                "quant",
                "mixed_prec",
                "dyn_graph",
                "pruning",
                "fusion",
                "auto_tune",
                "fp16",
            ],
        );
        for &fw in Framework::all() {
            let i = fw.info();
            let o = i.optimizations;
            r.push_row([
                i.name,
                i.language,
                yn(i.industry_backed),
                yn(i.training),
                yn(i.extra_steps),
                yn(i.mobile_deployment),
                yn(o.quantization),
                yn(o.mixed_precision),
                yn(o.dynamic_graph),
                yn(o.pruning_exploitation),
                yn(o.fusion),
                yn(o.auto_tuning),
                yn(o.half_precision),
            ]);
        }
        r.push_note("regenerated from FrameworkInfo; see paper Table II for the star ratings we do not model");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_papers_check_marks() {
        let r = Table2.run();
        // Spot-check the distinguishing cells of the paper's matrix.
        assert_eq!(r.cell("tensorrt", "mixed_prec"), Some("yes"));
        assert_eq!(r.cell("tensorrt", "auto_tune"), Some("yes"));
        assert_eq!(r.cell("tensorflow", "mixed_prec"), Some("no"));
        assert_eq!(r.cell("pytorch", "dyn_graph"), Some("yes"));
        assert_eq!(r.cell("tensorflow", "dyn_graph"), Some("no"));
        assert_eq!(r.cell("darknet", "quant"), Some("no"));
        assert_eq!(r.cell("darknet", "language"), Some("c"));
        assert_eq!(r.cell("tflite", "mobile"), Some("yes"));
        assert_eq!(r.cell("tflite", "extra_steps"), Some("yes"));
        assert_eq!(r.cell("caffe", "fusion"), Some("no"));
        assert_eq!(r.cell("ncsdk", "fusion"), Some("yes"));
    }

    #[test]
    fn all_nine_frameworks_are_listed() {
        assert_eq!(Table2.run().rows().len(), 9);
    }

    #[test]
    fn fp16_is_near_universal_quant_is_industry_wide() {
        // Paper: "inferencing using half-precision ... is supported by
        // almost all frameworks, similar to quantization."
        let r = Table2.run();
        let fp16_yes = r.rows().iter().filter(|row| row[12] == "yes").count();
        assert!(fp16_yes >= 7, "{fp16_yes}");
    }
}
