//! Table I (model inventory) and Fig 1 (models sorted by FLOP/param).

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_models::Model;

/// Table I: input size, GFLOP, parameters, FLOP/param — derived from the
/// graph builders, next to the paper's printed values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table I: DNN model inventory (derived vs paper)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model",
                "input",
                "gflop",
                "params_m",
                "flop_per_param",
                "paper_gflop",
                "paper_params_m",
            ],
        );
        for &m in Model::all() {
            let s = m.build().stats();
            let p = m.paper_ref();
            // The paper counts the YOLO/C3D rows at 2 FLOP per MAC.
            let flops_g = s.flops as f64 / 1e9 * if p.double_counted { 2.0 } else { 1.0 };
            r.push_row([
                m.name().to_string(),
                s.input_shape.to_string(),
                format!("{flops_g:.2}"),
                format!("{:.2}", s.params as f64 / 1e6),
                format!(
                    "{:.1}",
                    s.flop_per_param() * if p.double_counted { 2.0 } else { 1.0 }
                ),
                format!("{:.2}", p.flops_g),
                format!("{:.2}", p.params_m),
            ]);
        }
        r.push_note("yolov3/tinyyolo/c3d rows use the paper's 2-FLOP-per-MAC (DarkNet) convention");
        r
    }
}

/// Fig 1: models sorted by FLOP/param (compute intensity).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig1;

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Fig 1: models sorted by FLOP/param"
    }

    fn run(&self) -> Report {
        let mut rows: Vec<(Model, f64)> = Model::all()
            .iter()
            .map(|&m| {
                let s = m.build().stats();
                let mult = if m.paper_ref().double_counted {
                    2.0
                } else {
                    1.0
                };
                (m, s.flop_per_param() * mult)
            })
            .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut r = Report::new(self.title(), ["model", "flop_per_param"]);
        for (m, v) in rows {
            r.push_row([m.name().to_string(), format!("{v:.1}")]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_within_tolerance_for_clean_models() {
        let r = Table1.run();
        // Models whose architectures are unambiguous must land within 6 %
        // of the paper's printed values.
        for m in [
            "resnet-18",
            "resnet-50",
            "resnet-101",
            "xception",
            "mobilenet-v2",
            "inception-v4",
            "vgg16",
            "vgg19",
        ] {
            let got = r.cell_f64(m, "gflop").unwrap();
            let want = r.cell_f64(m, "paper_gflop").unwrap();
            assert!((got - want).abs() / want < 0.06, "{m}: {got} vs {want}");
            let gp = r.cell_f64(m, "params_m").unwrap();
            let wp = r.cell_f64(m, "paper_params_m").unwrap();
            assert!((gp - wp).abs() / wp < 0.06, "{m} params: {gp} vs {wp}");
        }
    }

    #[test]
    fn fig1_order_matches_paper_extremes() {
        let r = Fig1.run();
        // Paper Fig 1: VGG-S 32x32 is the least compute-intense, C3D the most.
        assert_eq!(r.rows().first().unwrap()[0], "vgg-s-32");
        assert_eq!(r.rows().last().unwrap()[0], "c3d");
    }

    #[test]
    fn fig1_is_sorted() {
        let r = Fig1.run();
        let vals: Vec<f64> = r.rows().iter().map(|row| row[1].parse().unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }
}
