//! `e2e` — the end-to-end benchmark: prepared inference, fleet simulation
//! and the runtime pipeline, each timed from outside through the library's
//! public calls, with every output checked. README.md lists the workloads,
//! the metrics and the rule for comparing two commits.
//!
//! ```text
//! e2e --workload NAME --seed N [--seconds S] [--trace 0|1]   one workload
//! e2e --seed N [--seconds S] [--trace 0|1] [--out FILE]      every workload, one child process each
//! e2e --compare A.json B.json                                 two sets against BENCHMARK.json's bounds
//! ```

mod fleet;
mod host;
mod infer;
mod json;
mod pipeline;
mod registry;
mod stats;
mod trace;

use registry::{MetricDef, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Where spans, rings and results go, relative to the working directory.
pub const OUT_DIR: &str = "target/e2e";

/// One metric of one run: the value and the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The highest percentile with ten samples beyond it, and its value
    /// (see `stats::tail`).
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// The median of the samples, with their quartiles and tail.
    pub fn of(samples: &[f64]) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            value: stats::median(samples),
            q1,
            q3,
            n: samples.len(),
            tail: stats::tail(samples),
        }
    }

    pub fn single(x: f64) -> Metric {
        Metric {
            value: x,
            q1: x,
            q3: x,
            n: 1,
            tail: None,
        }
    }

    /// Geometric mean of several metrics' medians and of their quartiles,
    /// so every part moves the whole by its relative change.
    pub fn geomean(parts: &[Metric]) -> Metric {
        let g = |f: fn(&Metric) -> f64| stats::geomean(&parts.iter().map(f).collect::<Vec<_>>());
        Metric {
            value: g(|m| m.value),
            q1: g(|m| m.q1),
            q3: g(|m| m.q3),
            n: parts.iter().map(|m| m.n).sum(),
            tail: None,
        }
    }

    /// Items per second of a round made of `calls` (times in ms), each at
    /// its kind's median; the quartiles take every call at its opposite
    /// quartile. Combining per-kind medians keeps one slow round from
    /// moving the rate.
    pub fn throughput(items: f64, calls: &[Metric], rounds: usize) -> Metric {
        let round_s = |f: fn(&Metric) -> f64| calls.iter().map(f).sum::<f64>() / 1e3;
        Metric {
            value: items / round_s(|m| m.value),
            q1: items / round_s(|m| m.q3),
            q3: items / round_s(|m| m.q1),
            n: rounds,
            tail: None,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: inference calls, simulate calls, offered frames.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// The parts an end-to-end metric combines, as `<metric>.<part>`: one
    /// per model or call kind. They go to the `detail` line, and
    /// `--compare` holds each to its metric's bound, so a regression in one
    /// part cannot hide inside the combined value.
    pub parts: BTreeMap<String, Metric>,
    /// Extra lines for the human-readable output.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, m: Metric) {
        self.metrics.insert(name.into(), m);
    }

    pub fn set_part(&mut self, metric: &str, part: &str, m: Metric) {
        self.parts.insert(format!("{metric}.{part}"), m);
    }

    /// Counts one operation, failed when `bad`.
    pub fn count(&mut self, bad: bool) {
        self.attempted += 1;
        self.failed += u64::from(bad);
    }
}

/// Writes a traced run's spans to `target/e2e/spans-<workload>.json`.
pub fn write_spans(workload: &str, tracer: &trace::Tracer) {
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{workload}.json"));
    match tracer.write_json(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer")?,
                );
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => a.out = Some(value()?),
            "--compare" => {
                let first = value()?;
                a.compare = Some((first, value()?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.compare.is_none() && a.seed.is_none() {
        return Err("--seed is required".into());
    }
    Ok(a)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        "infer-b1" => infer::run(name, infer::B1, seed, seconds, traced),
        "infer-b4-int8" => infer::run(name, infer::B4_INT8, seed, seconds, traced),
        "fleet-sim" => fleet::run(name, seed, seconds, traced),
        "pipeline-real" => pipeline::run(name, pipeline::REAL, seed, seconds, traced),
        "pipeline-model" => pipeline::run(name, pipeline::MODELED, seed, seconds, traced),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

/// `{"name": {"value": .., "unit": ..<, "q1", "q3", "n"<, "tail_pct", "tail">>}, ..}`.
fn metrics_json(rows: &[(MetricDef, Metric)], spread: bool) -> String {
    let mut s = String::from("{");
    for (k, (d, m)) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}",
            if k > 0 { ", " } else { "" },
            json::string(&d.name),
            json::number(m.value),
            json::string(d.unit)
        );
        if spread {
            let _ = write!(
                s,
                ", \"q1\": {}, \"q3\": {}, \"n\": {}",
                json::number(m.q1),
                json::number(m.q3),
                m.n
            );
            if let Some((p, x)) = m.tail {
                let _ = write!(
                    s,
                    ", \"tail_pct\": {}, \"tail\": {}",
                    json::number(p),
                    json::number(x)
                );
            }
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// One workload in this process. The last line of output is the result
/// object; the line before it, `detail {..}`, adds spreads and host load.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let phase = host::Phase::start();
    let t = Instant::now();
    println!(
        "e2e {name}  seed {seed}  seconds {seconds}  trace {}  tier {}  nproc {}",
        u8::from(traced),
        host::kernel_tier(),
        host::nproc()
    );
    let out = run_workload(name, seed, seconds, traced);
    let defs = if traced {
        registry::per_layer()
    } else {
        registry::end_to_end()
    };
    for produced in out.metrics.keys() {
        assert!(
            defs.iter().any(|d| &d.name == produced),
            "metric {produced} is not in the registry"
        );
    }
    // Every gated metric is measured; a layer the workload does not
    // exercise reads 0.
    let rows: Vec<(MetricDef, Metric)> = defs
        .into_iter()
        .map(|d| {
            let m = out.metrics.get(&d.name).copied();
            assert!(traced || m.is_some(), "{name} did not measure {}", d.name);
            (d, m.unwrap_or(Metric::single(0.0)))
        })
        .collect();
    let parts: Vec<(MetricDef, Metric)> = out
        .parts
        .iter()
        .map(|(name, m)| {
            let parent = rows
                .iter()
                .find(|(d, _)| name.starts_with(&format!("{}.", d.name)))
                .unwrap_or_else(|| panic!("part {name} belongs to no metric"));
            let d = MetricDef {
                name: name.clone(),
                ..parent.0.clone()
            };
            (d, *m)
        })
        .collect();
    for line in &out.lines {
        println!("  {line}");
    }
    for (d, m) in rows.iter().chain(&parts) {
        let tail = m
            .tail
            .map_or(String::new(), |(p, x)| format!("  p{p:.0} {x:.6}"));
        println!(
            "{:<34} {:>14.6} {:<8} q1 {:.6}  q3 {:.6}  n {}{tail}",
            d.name, m.value, d.unit, m.q1, m.q3, m.n
        );
    }
    let correct = out.failed == 0;
    println!(
        "attempted {}  failed {}  correct {correct}  wall {:.1} s",
        out.attempted,
        out.failed,
        t.elapsed().as_secs_f64()
    );
    println!(
        "detail {{\"workload\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"wall_s\": {}, {}, \"metrics\": {}}}",
        json::string(name),
        out.attempted,
        out.failed,
        json::number(t.elapsed().as_secs_f64()),
        phase.members(),
        metrics_json(&[rows.clone(), parts].concat(), true)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&rows, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in sequence, each in its own child process; writes the
/// set's results file when `out` is given.
fn set(a: &Args, seed: u64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_ok = true;
    let mut members = Vec::new();
    for w in WORKLOADS {
        let run = Command::new(&exe)
            .args(["--workload", w, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&run.stdout);
        print!("{stdout}");
        all_ok &= run.status.success();
        match stdout.lines().find_map(|l| l.strip_prefix("detail ")) {
            Some(detail) => members.push(format!("{}: {detail}", json::string(w))),
            None => {
                eprintln!("e2e: {w} printed no result ({})", run.status);
                all_ok = false;
            }
        }
    }
    if let Some(path) = &a.out {
        let doc = format!(
            "{{\"seed\": {seed}, \"seconds\": {}, \"trace\": {}, {}, \"workloads\": {{\n{}\n}}}}\n",
            json::number(a.seconds),
            a.trace,
            host::metadata_members(),
            members.join(",\n")
        );
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The metrics a results file holds for one workload, by name.
fn workload_metrics<'v>(doc: &'v json::Value, w: &str) -> &'v [(String, json::Value)] {
    match doc
        .get("workloads")
        .and_then(|ws| ws.get(w)?.get("metrics"))
    {
        Some(json::Value::Obj(members)) => members,
        _ => &[],
    }
}

/// Each workload × end-to-end metric of two sets, and each part of the
/// metric (one per model or call kind) under the metric's bound: both
/// medians and quartiles, the relative change from A to B, and whether it
/// stays within the bound in either direction. Returns the table's lines
/// and the number of pairs out of bound or missing from a set.
fn compare_sets(
    bench: &json::Value,
    a: &json::Value,
    b: &json::Value,
) -> Result<(Vec<String>, usize), String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let cell = |doc: &json::Value, w: &str, m: &str, f: &str| {
        doc.get("workloads")?
            .get(w)?
            .get("metrics")?
            .get(m)?
            .get(f)?
            .as_f64()
    };
    let mut lines = vec![format!(
        "{:<15} {:<24} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    )];
    let mut out_of_bound = 0;
    for w in WORKLOADS {
        for m in metrics {
            let metric = m.get("name").and_then(json::Value::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(json::Value::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(json::Value::as_str) == Some("lower");
            let prefix = format!("{metric}.");
            let mut names = vec![metric.to_string()];
            for (k, _) in workload_metrics(a, w).iter().chain(workload_metrics(b, w)) {
                if k.starts_with(&prefix) && !names.contains(k) {
                    names.push(k.clone());
                }
            }
            for name in &names {
                let get = |doc, f| cell(doc, w, name, f);
                let (Some(va), Some(vb)) = (get(a, "value"), get(b, "value")) else {
                    lines.push(format!("{w:<15} {name:<24} missing in a set"));
                    out_of_bound += 1;
                    continue;
                };
                let show = |doc, v: f64| {
                    format!(
                        "{v:.4} [{:.4}, {:.4}]",
                        get(doc, "q1").unwrap_or(v),
                        get(doc, "q3").unwrap_or(v)
                    )
                };
                let delta = (vb - va) / va;
                let verdict = if delta.abs() <= bound {
                    "within"
                } else {
                    out_of_bound += 1;
                    if (delta > 0.0) == lower {
                        "OUT (B worse)"
                    } else {
                        "OUT (B better)"
                    }
                };
                lines.push(format!(
                    "{w:<15} {name:<24} {:>32} {:>32} {:>+7.2}% {:>5.0}%  {verdict}",
                    show(a, va),
                    show(b, vb),
                    100.0 * delta,
                    100.0 * bound
                ));
            }
        }
    }
    Ok((lines, out_of_bound))
}

fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let bench = load("BENCHMARK.json")?;
    let (lines, out_of_bound) = compare_sets(&bench, &load(path_a)?, &load(path_b)?)?;
    for line in lines {
        println!("{line}");
    }
    println!("{out_of_bound} pair(s) out of bound");
    Ok(if out_of_bound == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!("usage: e2e --workload NAME --seed N [--seconds S] [--trace 0|1]");
            eprintln!("       e2e --seed N [--seconds S] [--trace 0|1] [--out FILE]");
            eprintln!("       e2e --compare A.json B.json");
            return ExitCode::from(2);
        }
    };
    let result = match (&a.compare, &a.workload, a.seed) {
        (Some((x, y)), _, _) => compare(x, y),
        (None, Some(w), Some(seed)) => Ok(child(w, seed, a.seconds, a.trace)),
        (None, None, Some(seed)) => set(&a, seed),
        (None, _, None) => unreachable!("parse_args requires a seed"),
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_workload_command_line() {
        let a = args("--workload fleet-sim --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet-sim"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(3), 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fleet-sim").is_err());
        assert!(args("--seed 1 --trace yes").is_err());
        assert!(args("--seed 1 --seconds -2").is_err());
        assert!(args("--compare a.json").is_err());
        assert!(args("--compare a.json b.json").is_ok());
    }

    /// A set whose every workload has `latency_ms` at `total` and, when
    /// given, the part `latency_ms.cifarnet` at `part`.
    fn set_doc(total: f64, part: Option<f64>) -> json::Value {
        let part = part.map_or(String::new(), |p| {
            format!(", \"latency_ms.cifarnet\": {{\"value\": {p}}}")
        });
        let members: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{}: {{\"metrics\": {{\"latency_ms\": {{\"value\": {total}}}{part}}}}}",
                    json::string(w)
                )
            })
            .collect();
        json::parse(&format!("{{\"workloads\": {{{}}}}}", members.join(", "))).unwrap()
    }

    #[test]
    fn compare_holds_each_part_to_its_metric_bound() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let n = WORKLOADS.len();
        let run = |a, b| compare_sets(&bench, &a, &b).unwrap().1;
        assert_eq!(run(set_doc(10.0, Some(1.0)), set_doc(10.5, Some(1.1))), 0);
        // One part doubles while the combined value stays within its bound.
        assert_eq!(run(set_doc(10.0, Some(1.0)), set_doc(11.9, Some(2.0))), n);
        assert_eq!(run(set_doc(10.0, Some(1.0)), set_doc(13.0, Some(1.0))), n);
        // A part present in one set only cannot be compared.
        assert_eq!(run(set_doc(10.0, Some(1.0)), set_doc(10.0, None)), n);
    }

    #[test]
    fn result_metrics_carry_only_value_and_unit() {
        let defs = registry::end_to_end();
        let rows: Vec<_> = defs
            .iter()
            .map(|d| (d.clone(), Metric::of(&[1.0, 2.0, 3.0])))
            .collect();
        let v = json::parse(&metrics_json(&rows, false)).unwrap();
        let json::Value::Obj(members) = &v else {
            panic!("an object")
        };
        assert_eq!(members.len(), defs.len());
        let lat = v.get("latency_ms").unwrap();
        assert_eq!(lat.get("value").and_then(json::Value::as_f64), Some(2.0));
        assert_eq!(lat.get("unit").and_then(json::Value::as_str), Some("ms"));
        assert!(lat.get("q1").is_none());
    }
}
