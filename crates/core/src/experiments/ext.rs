//! Extension experiments beyond the paper's evaluation:
//!
//! * `ext-nextgen` — the two devices the paper's footnotes anticipate
//!   (Raspberry Pi 4B; Intel NCS2 with its claimed 8× speedup).
//! * `ext-offload` — the cloud-offloading alternative the paper's
//!   introduction argues against, quantified per link quality.
//! * `ext-rnn` — the paper's stated future work: RNN/LSTM models run
//!   through the same characterization pipeline.

use crate::experiments::Experiment;
use crate::report::{fmt_ms, Report};
use edgebench_devices::offload::{best_split, edge_vs_cloud, Link};
use edgebench_devices::Device;
use edgebench_frameworks::deploy::{compile, compile_graph};
use edgebench_frameworks::Framework;
use edgebench_models::{rnn, Model};

/// Next-generation devices (paper footnotes ? and ◇ of Table III).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtNextGen;

impl Experiment for ExtNextGen {
    fn id(&self) -> &'static str {
        "ext-nextgen"
    }

    fn title(&self) -> &'static str {
        "Extension: next-gen devices (RPi 4B, NCS2) vs the paper's units"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model", "rpi3_ms", "rpi4_ms", "rpi_gain", "ncs_ms", "ncs2_ms", "ncs_gain",
            ],
        );
        for m in [
            Model::ResNet18,
            Model::ResNet50,
            Model::MobileNetV2,
            Model::InceptionV4,
        ] {
            let rpi3 = compile(Framework::TfLite, m, Device::RaspberryPi3)
                .and_then(|c| c.latency_ms())
                .ok();
            let rpi4 = compile(Framework::TfLite, m, Device::RaspberryPi4)
                .and_then(|c| c.latency_ms())
                .ok();
            let ncs = compile(Framework::Ncsdk, m, Device::MovidiusNcs)
                .and_then(|c| c.latency_ms())
                .ok();
            let ncs2 = compile(Framework::Ncsdk, m, Device::Ncs2)
                .and_then(|c| c.latency_ms())
                .ok();
            let gain = |a: Option<f64>, b: Option<f64>| match (a, b) {
                (Some(a), Some(b)) => format!("{:.2}", a / b),
                _ => "-".to_string(),
            };
            let cell = |v: Option<f64>| v.map(fmt_ms).unwrap_or_else(|| "x".to_string());
            r.push_row([
                m.name().to_string(),
                cell(rpi3),
                cell(rpi4),
                gain(rpi3, rpi4),
                cell(ncs),
                cell(ncs2),
                gain(ncs, ncs2),
            ]);
        }
        r.push_note(
            "paper footnotes: RPi 4B 'is expected to perform better'; NCS2 'claims an 8x speedup'",
        );
        r
    }
}

/// Edge vs cloud offloading across link qualities.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtOffload;

impl Experiment for ExtOffload {
    fn id(&self) -> &'static str {
        "ext-offload"
    }

    fn title(&self) -> &'static str {
        "Extension: edge vs cloud offload (ms, GTX server)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "model",
                "edge",
                "local_ms",
                "wifi_ms",
                "lte_ms",
                "weak_ms",
                "winner_on_weak",
                "best_split_k",
            ],
        );
        for (m, d) in [
            (Model::MobileNetV2, Device::RaspberryPi3),
            (Model::ResNet50, Device::RaspberryPi3),
            (Model::InceptionV4, Device::RaspberryPi3),
            (Model::ResNet50, Device::JetsonTx2),
        ] {
            let g = m.build();
            let server = Device::GtxTitanX;
            // All four combos use devices/precisions the roofline supports.
            let (local, wifi) = edge_vs_cloud(&g, d, Link::wifi(), server).expect("combo runs");
            let (_, lte) = edge_vs_cloud(&g, d, Link::lte(), server).expect("combo runs");
            let (_, weak) = edge_vs_cloud(&g, d, Link::weak(), server).expect("combo runs");
            let (k, _) = best_split(&g, d, Link::lte(), server).expect("combo runs");
            r.push_row([
                m.name().to_string(),
                d.name().to_string(),
                fmt_ms(local * 1e3),
                fmt_ms(wifi * 1e3),
                fmt_ms(lte * 1e3),
                fmt_ms(weak * 1e3),
                if local < weak { "edge" } else { "cloud" }.to_string(),
                format!("{k}/{}", g.len()),
            ]);
        }
        r.push_note("paper §I: offloading fails under limited connectivity / tight timing — the weak-link column");
        r
    }
}

/// RNN/LSTM characterization (the paper's future work).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtRnn;

impl Experiment for ExtRnn {
    fn id(&self) -> &'static str {
        "ext-rnn"
    }

    fn title(&self) -> &'static str {
        "Extension: LSTM/GRU inference across edge devices (ms)"
    }

    fn run(&self) -> Report {
        let nets = [
            (
                "char-lstm-2x128-t32",
                rnn::char_lstm(32, 64, 128, 2).expect("builds"),
            ),
            (
                "char-lstm-2x512-t32",
                rnn::char_lstm(32, 64, 512, 2).expect("builds"),
            ),
            (
                "gru-256-t64",
                rnn::gru_classifier(64, 40, 256, 10).expect("builds"),
            ),
        ];
        let mut r = Report::new(
            self.title(),
            [
                "network",
                "gflop",
                "params_m",
                "flop_per_param",
                "rpi3_ms",
                "jetson-tx2_ms",
                "xeon_ms",
            ],
        );
        for (name, g) in &nets {
            let s = g.stats();
            let mut row = vec![
                name.to_string(),
                format!("{:.3}", s.flops as f64 / 1e9),
                format!("{:.2}", s.params as f64 / 1e6),
                format!("{:.1}", s.flop_per_param()),
            ];
            for d in [Device::RaspberryPi3, Device::JetsonTx2, Device::XeonCpu] {
                let ms = compile_graph(Framework::PyTorch, g.clone(), d)
                    .and_then(|c| c.latency_ms())
                    .map(fmt_ms)
                    .unwrap_or_else(|_| "x".to_string());
                row.push(ms);
            }
            r.push_row(row);
        }
        r.push_note("RNN steps re-stream the recurrent weight matrices: low flop/param, latency set by memory bandwidth and per-step dispatch");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi4_beats_rpi3_everywhere() {
        let r = ExtNextGen.run();
        for row in r.rows() {
            let (Ok(a), Ok(b)) = (row[1].parse::<f64>(), row[2].parse::<f64>()) else {
                continue;
            };
            assert!(b < a, "{}: rpi4 {b} !< rpi3 {a}", row[0]);
        }
    }

    #[test]
    fn ncs2_gain_is_in_the_claimed_band() {
        // Intel claimed "8x"; compute-bound models should approach it.
        let r = ExtNextGen.run();
        let g: f64 = r.cell_f64("inception-v4", "ncs_gain").unwrap();
        assert!((3.0..10.0).contains(&g), "gain {g}");
    }

    #[test]
    fn weak_links_keep_work_at_the_edge() {
        let r = ExtOffload.run();
        for row in r.rows() {
            if row[1] == "jetson-tx2" {
                assert_eq!(row[6], "edge");
            }
        }
        // At least the capable-edge rows keep work local on weak links.
        assert!(r.rows().iter().any(|row| row[6] == "edge"));
    }

    #[test]
    fn rnns_are_memory_intensive() {
        let r = ExtRnn.run();
        for row in r.rows() {
            let fpp: f64 = row[3].parse().unwrap();
            assert!(fpp < 150.0, "{}: flop/param {fpp}", row[0]);
        }
    }

    #[test]
    fn bigger_lstm_is_slower() {
        let r = ExtRnn.run();
        let small: f64 = r.cell_f64("char-lstm-2x128-t32", "jetson-tx2_ms").unwrap();
        let big: f64 = r.cell_f64("char-lstm-2x512-t32", "jetson-tx2_ms").unwrap();
        assert!(big > small);
    }
}
