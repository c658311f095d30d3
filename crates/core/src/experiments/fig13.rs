//! Fig 13: bare-metal vs Docker inference time on the Raspberry Pi.

use crate::experiments::Experiment;
use crate::report::Report;
use edgebench_devices::Device;
use edgebench_frameworks::deploy::compile;
use edgebench_frameworks::Framework;
use edgebench_measure::docker::Virtualization;
use edgebench_models::Model;

const MODELS: [Model; 5] = [
    Model::ResNet18,
    Model::ResNet50,
    Model::MobileNetV2,
    Model::InceptionV4,
    Model::TinyYolo,
];

/// Paper values in seconds: (bare metal, docker).
fn paper_values(m: Model) -> (f64, f64) {
    use Model::*;
    match m {
        ResNet18 => (1.01, 1.06),
        ResNet50 => (3.15, 3.18),
        MobileNetV2 => (1.07, 1.10),
        InceptionV4 => (9.31, 9.54),
        TinyYolo => (0.96, 0.96),
        _ => unreachable!("fig13 uses five models"),
    }
}

/// Fig 13 experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig13;

impl Experiment for Fig13 {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn title(&self) -> &'static str {
        "Fig 13: RPi bare metal vs Docker (s)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model",
                "bare_s",
                "docker_s",
                "slowdown_%",
                "paper_bare_s",
                "paper_docker_s",
                "paper_slowdown_%",
            ],
        );
        for m in MODELS {
            let c = compile(Framework::TensorFlow, m, Device::RaspberryPi3).expect("deploys");
            let bare = Virtualization::BareMetal.latency_s(&c).expect("runs");
            let dock = Virtualization::Docker.latency_s(&c).expect("runs");
            let (pb, pd) = paper_values(m);
            r.push_row([
                m.name().to_string(),
                format!("{bare:.2}"),
                format!("{dock:.2}"),
                format!("{:.1}", 100.0 * (dock / bare - 1.0)),
                format!("{pb:.2}"),
                format!("{pd:.2}"),
                format!("{:.1}", 100.0 * (pd / pb - 1.0)),
            ]);
        }
        r.push_note("paper: 'the overhead is almost negligible, within 5%, in all cases'");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_within_5_percent_everywhere() {
        let r = Fig13.run();
        for row in r.rows() {
            let s: f64 = row[3].parse().unwrap();
            assert!((0.0..=5.0).contains(&s), "{}: {s}%", row[0]);
        }
    }

    #[test]
    fn docker_is_never_faster() {
        let r = Fig13.run();
        for row in r.rows() {
            let bare: f64 = row[1].parse().unwrap();
            let dock: f64 = row[2].parse().unwrap();
            assert!(dock >= bare);
        }
    }

    #[test]
    fn bare_metal_seconds_match_paper_scale() {
        let r = Fig13.run();
        for m in MODELS {
            let (pb, _) = paper_values(m);
            let ours: f64 = r.cell_f64(m.name(), "bare_s").unwrap();
            let ratio = ours / pb;
            assert!((0.2..=5.0).contains(&ratio), "{m}: {ours} vs paper {pb}");
        }
    }
}
