//! Cloud-offload model — the alternative the paper's introduction argues
//! against ("The traditional solution to this problem is to offload all the
//! computations to the cloud. Nevertheless, such offloading is not possible
//! in several situations because of privacy concerns, limited Internet
//! connectivity, or tight-timing constraints").
//!
//! This module quantifies that trade-off: end-to-end offloaded latency is
//! the network round trip plus server-side inference, versus local edge
//! inference. It also models the related-work "Neurosurgeon" idea of
//! splitting a model at a layer boundary (run a prefix locally, ship the
//! intermediate activation).

use crate::perf::{PerfError, RooflineModel};
use crate::spec::Device;
use edgebench_graph::Graph;

/// A network link between an edge device and a cloud server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Uplink throughput in megabits per second.
    pub uplink_mbps: f64,
    /// Downlink throughput in megabits per second.
    pub downlink_mbps: f64,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
}

impl Link {
    /// A good 4G/LTE connection.
    pub fn lte() -> Link {
        Link {
            uplink_mbps: 10.0,
            downlink_mbps: 40.0,
            rtt_s: 0.05,
        }
    }

    /// Campus Wi-Fi.
    pub fn wifi() -> Link {
        Link {
            uplink_mbps: 50.0,
            downlink_mbps: 100.0,
            rtt_s: 0.01,
        }
    }

    /// A weak rural / congested link — the drone-in-a-disaster-area case.
    pub fn weak() -> Link {
        Link {
            uplink_mbps: 0.5,
            downlink_mbps: 2.0,
            rtt_s: 0.3,
        }
    }

    /// Time to move `bytes` up the link, seconds.
    pub(crate) fn upload_s(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.uplink_mbps * 1e6)
    }

    /// Time to move `bytes` down the link, seconds.
    pub(crate) fn download_s(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.downlink_mbps * 1e6)
    }
}

/// Latency breakdown of a fully offloaded inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OffloadLatency {
    /// Input upload time, seconds.
    pub upload_s: f64,
    /// Server inference time, seconds.
    pub server_s: f64,
    /// Result download time, seconds.
    pub download_s: f64,
    /// Network round-trip overhead, seconds.
    pub rtt_s: f64,
}

impl OffloadLatency {
    /// End-to-end seconds.
    pub(crate) fn total_s(&self) -> f64 {
        self.upload_s + self.server_s + self.download_s + self.rtt_s
    }
}

/// Latency of offloading one inference of `graph` over `link` to `server`.
///
/// The input image and the (small) classification result cross the link;
/// the server runs the model at its own roofline.
///
/// # Errors
///
/// * [`PerfError::NoInput`] — the graph has no input node, so there is no
///   upload payload to price (previously this was silently billed as zero
///   bytes, making offload look free for malformed graphs).
/// * Any [`PerfError`] from timing the graph on the server.
pub(crate) fn offload_latency(
    graph: &Graph,
    link: Link,
    server: Device,
) -> Result<OffloadLatency, PerfError> {
    let input_bytes = graph
        .input_ids()
        .first()
        .map(|&i| graph.node(i).output_shape().num_elements() as u64 * 4)
        .ok_or(PerfError::NoInput)?;
    let output_bytes = graph.output_shape().num_elements() as u64 * 4;
    let server_s = RooflineModel::for_device(server).time_graph(graph)?.total_s;
    Ok(OffloadLatency {
        upload_s: link.upload_s(input_bytes),
        server_s,
        download_s: link.download_s(output_bytes),
        rtt_s: link.rtt_s,
    })
}

/// Whether running locally on `edge` beats offloading over `link` to
/// `server`, returning `(edge_s, offload_s)`.
///
/// # Errors
///
/// Propagates [`PerfError`] from either side of the comparison.
pub fn edge_vs_cloud(
    graph: &Graph,
    edge: Device,
    link: Link,
    server: Device,
) -> Result<(f64, f64), PerfError> {
    let local = RooflineModel::for_device(edge).time_graph(graph)?.total_s;
    let remote = offload_latency(graph, link, server)?.total_s();
    Ok((local, remote))
}

/// Best split point in Neurosurgeon style: run nodes `0..k` locally, ship
/// node `k-1`'s activation, run the rest remotely. Returns
/// `(best_k, best_total_s)`; `k = 0` means full offload, `k = graph.len()`
/// means fully local.
///
/// Only linear chains split exactly; for branching graphs the activation
/// shipped is the frontier of live values, approximated here by the last
/// node's output (an upper bound on the benefit, documented in DESIGN.md).
///
/// # Errors
///
/// * [`PerfError::NoInput`] — the graph has no input node.
/// * [`PerfError::UnsupportedPrecision`] — either side cannot execute the
///   graph's element type (previously the edge side was silently priced at
///   infinity and the server side at zero).
pub fn best_split(
    graph: &Graph,
    edge: Device,
    link: Link,
    server: Device,
) -> Result<(usize, f64), PerfError> {
    let edge_rl = RooflineModel::for_device(edge);
    let server_rl = RooflineModel::for_device(server);
    let dtype = graph.dtype();
    let costs = graph.node_costs();
    let n = graph.len();
    let input_bytes = graph
        .input_ids()
        .first()
        .map(|&i| graph.node(i).output_shape().num_elements() as u64 * 4)
        .ok_or(PerfError::NoInput)?;

    // Prefix sums of per-node times on each side.
    let mut edge_prefix = vec![0.0f64; n + 1];
    let mut server_suffix = vec![0.0f64; n + 1];
    for i in 0..n {
        let (c, m) = edge_rl.node_time_s(&costs[i], dtype)?;
        edge_prefix[i + 1] = edge_prefix[i] + c.max(m) + edge_rl.spec().dispatch_overhead_s;
    }
    for i in (0..n).rev() {
        let (c, m) = server_rl.node_time_s(&costs[i], dtype)?;
        server_suffix[i] = server_suffix[i + 1] + c.max(m) + server_rl.spec().dispatch_overhead_s;
    }

    let mut best = (n, edge_prefix[n]); // fully local
    for k in 0..n {
        // Ship the activation produced at the boundary (node k-1's output;
        // for k = 0, the raw input).
        let boundary_bytes = if k == 0 {
            input_bytes
        } else {
            graph.nodes()[k - 1].output_shape().num_elements() as u64 * 4
        };
        let total = edge_prefix[k]
            + link.upload_s(boundary_bytes)
            + link.rtt_s
            + server_suffix[k]
            + link.download_s(graph.output_shape().num_elements() as u64 * 4);
        if total < best.1 {
            best = (k, total);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_models::Model;

    #[test]
    fn weak_links_favour_the_edge() {
        // The paper's drone scenario: with a weak link, even the RPi beats
        // the cloud on a small model.
        let g = Model::MobileNetV2.build();
        let (edge, cloud) =
            edge_vs_cloud(&g, Device::RaspberryPi3, Link::weak(), Device::GtxTitanX).unwrap();
        assert!(edge < cloud, "edge {edge} vs cloud {cloud}");
    }

    #[test]
    fn fast_links_favour_the_cloud_for_heavy_models() {
        let g = Model::InceptionV4.build();
        let (edge, cloud) =
            edge_vs_cloud(&g, Device::RaspberryPi3, Link::wifi(), Device::GtxTitanX).unwrap();
        assert!(cloud < edge, "cloud {cloud} vs edge {edge}");
    }

    #[test]
    fn capable_edge_devices_keep_work_local_even_on_wifi() {
        let g = Model::ResNet50.build();
        let (edge, cloud) =
            edge_vs_cloud(&g, Device::JetsonTx2, Link::lte(), Device::GtxTitanX).unwrap();
        assert!(edge < cloud, "edge {edge} vs cloud {cloud}");
    }

    #[test]
    fn upload_time_scales_with_bytes() {
        let l = Link::lte();
        assert!((l.upload_s(10_000_000) - 8.0).abs() < 1e-9);
        assert!(l.download_s(10_000_000) < l.upload_s(10_000_000));
    }

    #[test]
    fn best_split_is_no_worse_than_either_extreme() {
        let g = Model::ResNet18.build();
        let link = Link::lte();
        let (edge, cloud) =
            edge_vs_cloud(&g, Device::RaspberryPi3, link, Device::GtxTitanX).unwrap();
        let (_k, split) = best_split(&g, Device::RaspberryPi3, link, Device::GtxTitanX).unwrap();
        assert!(split <= edge + 1e-9, "split {split} vs edge {edge}");
        // Full offload in best_split includes dispatch bookkeeping the
        // coarse edge_vs_cloud skips; allow small slack.
        assert!(split <= cloud * 1.05, "split {split} vs cloud {cloud}");
    }

    #[test]
    fn split_point_moves_toward_local_when_link_degrades() {
        let g = Model::ResNet18.build();
        let (k_good, _) =
            best_split(&g, Device::RaspberryPi3, Link::wifi(), Device::GtxTitanX).unwrap();
        let (k_bad, _) =
            best_split(&g, Device::RaspberryPi3, Link::weak(), Device::GtxTitanX).unwrap();
        assert!(k_bad >= k_good, "weak link {k_bad} vs wifi {k_good}");
    }
}
