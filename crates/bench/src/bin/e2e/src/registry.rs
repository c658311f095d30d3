//! Every workload and metric name the binary prints, with its unit and
//! direction. `BENCHMARK.json` must agree with this list (see the test).

use crate::fleet::RATES_HZ;
use crate::infer::{CLASSES, MODELS};

/// Workloads, in the order a set runs them.
pub const WORKLOADS: [&str; 5] = [
    "infer-b1",
    "infer-b4-int8",
    "fleet-sim",
    "pipeline-real",
    "pipeline-model",
];

/// Seconds one run measures when `--seconds` is not given; the same value
/// is `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 15.0;

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The gated metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("latency_ms", "ms", LOWER),
        def("items_per_s", "1/s", HIGHER),
        def("setup_s", "s", LOWER),
    ]
}

/// The per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for class in CLASSES {
        v.push(def(format!("tensor.{class}.ms"), "ms", LOWER));
        v.push(def(format!("tensor.{class}.gflops"), "GFLOP/s", HIGHER));
        v.push(def(format!("tensor.{class}.gbps"), "GB/s", HIGHER));
    }
    for m in MODELS {
        let m = m.name();
        v.push(def(format!("tensor.run_ms.{m}"), "ms", LOWER));
        v.push(def(format!("tensor.prepare_ms.{m}"), "ms", LOWER));
        v.push(def(format!("tensor.first_call_ms.{m}"), "ms", LOWER));
        v.push(def(format!("tensor.peak_live_mib.{m}"), "MiB", LOWER));
        v.push(def(format!("pool.speedup_2t.{m}"), "x", HIGHER));
        v.push(def(format!("quant.int8_over_f32.{m}"), "x", LOWER));
    }
    v.push(def("fleet.build_ms", "ms", LOWER));
    v.push(def("traffic.ns_per_req", "ns", LOWER));
    for r in RATES_HZ {
        v.push(def(format!("sim.ns_per_req.r{r}"), "ns", LOWER));
    }
    v.push(def("geo.ns_per_req", "ns", LOWER));
    v.push(def("report.ms", "ms", LOWER));
    for r in RATES_HZ {
        v.push(def(format!("sim.completed.r{r}"), "count", HIGHER));
        v.push(def(format!("sim.shed.r{r}"), "count", LOWER));
        v.push(def(format!("sim.hedges.r{r}"), "count", LOWER));
        v.push(def(format!("sim.retries.r{r}"), "count", LOWER));
        v.push(def(format!("sim.events.r{r}"), "count", LOWER));
        v.push(def(format!("sim.hedge_win_ratio.r{r}"), "fraction", HIGHER));
    }
    v.push(def("runtime.fixed_ms", "ms", LOWER));
    v.push(def("runtime.us_per_frame", "us", LOWER));
    v.push(def("runtime.exec_us_per_frame", "us", LOWER));
    v.push(def("runtime.overhead_us_per_frame", "us", LOWER));
    v.push(def("ring.roundtrip_us", "us", LOWER));
    v.push(def("runtime.completed", "count", HIGHER));
    for c in [
        "dropped",
        "lost",
        "duplicates",
        "order_violations",
        "restarts",
    ] {
        v.push(def(format!("runtime.{c}"), "count", LOWER));
    }
    v.push(def("peak_rss_mib", "MiB", LOWER));
    v.push(def("trace_overhead_pct", "%", LOWER));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_agrees_with_the_binary() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(listed(&b, "end_to_end"), ours(&end_to_end()));
        assert_eq!(listed(&b, "per_layer"), ours(&per_layer()));
        assert_eq!(
            b.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_units_and_counts_stay_within_the_format_limits() {
        let (e2e, layer) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(e2e.iter().chain(&layer).map(|d| d.name.as_str()));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in e2e.iter().chain(&layer) {
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
        }
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == LOWER));
    }
}
