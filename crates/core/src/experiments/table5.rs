//! Table V: the model × platform compatibility matrix, regenerated from
//! the mechanical rules in `edgebench-frameworks::compat`.

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_devices::Device;
use edgebench_frameworks::compat::{check, native_framework};
use edgebench_models::Model;

/// Table V experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table5;

impl Experiment for Table5 {
    fn id(&self) -> &'static str {
        "table5"
    }

    fn title(&self) -> &'static str {
        "Table V: model x platform compatibility (ok / dyn / code / conv / bram / oom)"
    }

    fn run(&self) -> Report {
        let mut cols = vec!["model".to_string()];
        cols.extend(Device::edge_set().iter().map(|d| d.name().to_string()));
        let mut r = Report::new(self.title(), cols);
        for &m in Model::fig2_set() {
            let mut row = vec![m.name().to_string()];
            for &d in Device::edge_set() {
                // The RPi uses the framework that *can* run the model where
                // one exists (the paper deploys all frameworks there).
                let verdict = if d == Device::RaspberryPi3 {
                    check(edgebench_frameworks::Framework::PyTorch, m, d)
                } else {
                    check(native_framework(d), m, d)
                };
                row.push(verdict.symbol().to_string());
            }
            r.push_row(row);
        }
        r.push_note("symbols: ok=runs, dyn=dynamic-graph fallback (^), code=code incompatibility (O), conv=edgetpu conversion barrier (4), bram=fpga resource limit (^^), oom=memory error");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table V, transcribed for the Fig 2 model set.
    fn paper_cell(m: Model, d: Device) -> &'static str {
        use Device::*;
        use Model::*;
        match (m, d) {
            (AlexNet | Vgg16 | C3d, RaspberryPi3) => "dyn",
            (SsdMobileNetV1, RaspberryPi3) => "code",
            (ResNet18 | AlexNet | TinyYolo | C3d, EdgeTpu) => "conv",
            (C3d, MovidiusNcs) => "code",
            (ResNet18, PynqZ1) => "ok",
            (_, PynqZ1) => "bram",
            _ => "ok",
        }
    }

    #[test]
    fn matrix_matches_the_paper_cell_for_cell() {
        let r = Table5.run();
        for &m in Model::fig2_set() {
            for &d in Device::edge_set() {
                let got = r.cell(m.name(), d.name()).unwrap();
                let want = paper_cell(m, d);
                assert_eq!(got, want, "{m} on {d}");
            }
        }
    }
}
