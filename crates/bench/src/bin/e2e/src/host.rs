//! What the host was and how busy it was while a workload ran, so a set
//! taken on a noisy or different machine is never diffed blindly.

use crate::json;
use edgebench_tensor::{blocking, simd, KernelKind};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Ticks the hypervisor stole from this machine's CPUs since boot (the
/// eighth counter of the `cpu` line in `/proc/stat`).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The GEMM kernel tier `KernelKind::Auto` resolves to on this host.
pub fn kernel_tier() -> &'static str {
    simd::resolve(KernelKind::Auto).name()
}

/// Host metadata as JSON object members (no braces).
pub fn metadata_members() -> String {
    let c = blocking::cache_info();
    format!(
        "\"commit\": {}, \"kernel_tier\": {}, \"cache_bytes\": {{\"l1d\": {}, \"l2\": {}, \"l3\": {}}}, \"nproc\": {}",
        json::string(&commit()),
        json::string(kernel_tier()),
        c.l1d,
        c.l2,
        c.l3,
        nproc()
    )
}

/// Load and steal observed across one workload's phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    load_start: f64,
    steal_start: u64,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            load_start: loadavg(),
            steal_start: steal_ticks(),
        }
    }

    /// JSON object members describing the phase up to now.
    pub fn members(&self) -> String {
        format!(
            "\"loadavg_start\": {}, \"loadavg_end\": {}, \"steal_ticks\": {}",
            json::number(self.load_start),
            json::number(loadavg()),
            steal_ticks().saturating_sub(self.steal_start)
        )
    }
}
