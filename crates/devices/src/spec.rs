//! Hardware platform specifications (the paper's Table III).

use std::fmt;

/// Broad platform category, as grouped by the paper's Table III header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceCategory {
    /// General-purpose IoT/edge single-board computer (no accelerator).
    IotEdge,
    /// GPU-based edge device (Jetson family).
    GpuEdge,
    /// Custom-ASIC edge accelerator (EdgeTPU, Movidius).
    AsicAccelerator,
    /// FPGA-based platform (PYNQ).
    Fpga,
    /// High-performance-computing CPU.
    HpcCpu,
    /// High-performance-computing GPU.
    HpcGpu,
}

impl fmt::Display for DeviceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceCategory::IotEdge => "iot-edge",
            DeviceCategory::GpuEdge => "gpu-edge",
            DeviceCategory::AsicAccelerator => "asic-accelerator",
            DeviceCategory::Fpga => "fpga",
            DeviceCategory::HpcCpu => "hpc-cpu",
            DeviceCategory::HpcGpu => "hpc-gpu",
        };
        f.write_str(s)
    }
}

/// The ten hardware platforms characterized by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Device {
    /// Raspberry Pi 3B: 4× Cortex-A53 @ 1.2 GHz, 1 GB LPDDR2, no GPGPU.
    RaspberryPi3,
    /// Jetson TX2: 256-core Pascal GPU + 4× A57 / 2× Denver2, 8 GB LPDDR4.
    JetsonTx2,
    /// Jetson Nano: 128-core Maxwell GPU + 4× A57, 4 GB LPDDR4.
    JetsonNano,
    /// Google EdgeTPU dev board: INT8 systolic ASIC, 1 GB LPDDR4 host.
    EdgeTpu,
    /// Intel Movidius Neural Compute Stick: Myriad 2 VPU over USB.
    MovidiusNcs,
    /// PYNQ-Z1: Zynq XC7Z020 FPGA + 2× Cortex-A9, 512 MB DDR3.
    PynqZ1,
    /// Dual-socket 22-core Xeon E5-2696 v4.
    XeonCpu,
    /// Nvidia GTX Titan X (Maxwell, 3072 cores).
    GtxTitanX,
    /// Nvidia Titan Xp (Pascal, 3840 cores).
    TitanXp,
    /// Nvidia RTX 2080 (Turing, 2944 cores).
    Rtx2080,
    /// Raspberry Pi 4B (extension): 4× Cortex-A72 @ 1.5 GHz, 4 GB LPDDR4.
    ///
    /// Released after the paper's acceptance; its Table III footnote
    /// expects it "to perform better" thanks to out-of-order cores and
    /// faster memory. Not part of the paper's ten-platform set.
    RaspberryPi4,
    /// Intel Neural Compute Stick 2 (extension): Myriad X VPU.
    ///
    /// Announced during the paper's submission with a claimed 8× speedup
    /// over the first stick. Not part of the paper's ten-platform set.
    Ncs2,
}

/// Static specification of a platform.
///
/// Peak compute rates are **multiply-accumulates per second** (matching the
/// FLOP convention of `edgebench-graph`), derived from public spec sheets.
/// `*_eff` fields are the fraction of peak a well-tuned single-batch CNN
/// kernel attains — the device-intrinsic part of calibration (framework
/// effects layer on top in `edgebench-frameworks`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Report name, e.g. `"jetson-nano"`.
    pub name: &'static str,
    /// Platform category.
    pub category: DeviceCategory,
    /// Peak F32 compute in GMAC/s.
    pub peak_gmacs_f32: f64,
    /// Peak F16 compute in GMAC/s (`None` if no native F16).
    pub peak_gmacs_f16: Option<f64>,
    /// Peak INT8 compute in GMAC/s (`None` if no native INT8 acceleration).
    pub peak_gmacs_i8: Option<f64>,
    /// Sustainable memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Memory available for model execution, bytes.
    pub mem_capacity_bytes: u64,
    /// Fraction of peak compute attainable on convolution workloads.
    pub compute_eff: f64,
    /// Fraction of peak bandwidth attainable on streaming workloads.
    pub mem_eff: f64,
    /// Per-operator dispatch/launch overhead, seconds (GPU kernel launch,
    /// accelerator command queue, CPU loop overhead).
    pub dispatch_overhead_s: f64,
    /// Fixed per-inference I/O cost, seconds (e.g. USB transfer on the
    /// Movidius stick, host↔FPGA DMA on PYNQ).
    pub io_overhead_s: f64,
    /// Idle power draw in watts (Table III, measured).
    pub idle_power_w: f64,
    /// Average power while executing DNNs in watts (Table III, measured).
    pub avg_power_w: f64,
    /// Whether DNN execution happens on a GPU.
    pub has_gpu: bool,
}

impl Device {
    /// The paper's ten platforms *plus* the two footnote follow-on devices
    /// (Raspberry Pi 4B, NCS2) modelled as extensions.
    pub(crate) fn extended() -> &'static [Device] {
        use Device::*;
        &[
            RaspberryPi3,
            JetsonTx2,
            JetsonNano,
            EdgeTpu,
            MovidiusNcs,
            PynqZ1,
            XeonCpu,
            GtxTitanX,
            TitanXp,
            Rtx2080,
            RaspberryPi4,
            Ncs2,
        ]
    }

    /// All platforms in Table III order.
    pub fn all() -> &'static [Device] {
        use Device::*;
        &[
            RaspberryPi3,
            JetsonTx2,
            JetsonNano,
            EdgeTpu,
            MovidiusNcs,
            PynqZ1,
            XeonCpu,
            GtxTitanX,
            TitanXp,
            Rtx2080,
        ]
    }

    /// The six edge platforms (Fig 2's device set).
    pub fn edge_set() -> &'static [Device] {
        use Device::*;
        &[
            RaspberryPi3,
            JetsonTx2,
            JetsonNano,
            EdgeTpu,
            MovidiusNcs,
            PynqZ1,
        ]
    }

    /// The HPC platforms compared against Jetson TX2 in Figs 9–10.
    #[cfg(test)]
    fn hpc_set() -> &'static [Device] {
        use Device::*;
        &[XeonCpu, GtxTitanX, TitanXp, Rtx2080]
    }

    /// Report name, e.g. `"edgetpu"`.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Parses a device from its [`Device::name`] (including the extension
    /// devices).
    pub fn from_name(name: &str) -> Option<Device> {
        Device::extended()
            .iter()
            .copied()
            .find(|d| d.name() == name)
    }

    /// The platform's static specification.
    pub fn spec(self) -> &'static DeviceSpec {
        match self {
            Device::RaspberryPi3 => &RASPBERRY_PI_3,
            Device::JetsonTx2 => &JETSON_TX2,
            Device::JetsonNano => &JETSON_NANO,
            Device::EdgeTpu => &EDGE_TPU,
            Device::MovidiusNcs => &MOVIDIUS_NCS,
            Device::PynqZ1 => &PYNQ_Z1,
            Device::XeonCpu => &XEON_CPU,
            Device::GtxTitanX => &GTX_TITAN_X,
            Device::TitanXp => &TITAN_XP,
            Device::Rtx2080 => &RTX_2080,
            Device::RaspberryPi4 => &RASPBERRY_PI_4,
            Device::Ncs2 => &NCS_2,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const GIB: u64 = 1024 * 1024 * 1024;

/// Raspberry Pi 3B. NEON peak: 4 cores × 1.2 GHz × 4 f32 lanes ≈ 19 GFLOP/s
/// theoretical; sustained GEMM on the A53 reaches a fraction of that.
static RASPBERRY_PI_3: DeviceSpec = DeviceSpec {
    name: "rpi3",
    category: DeviceCategory::IotEdge,
    peak_gmacs_f32: 4.8,
    peak_gmacs_f16: None,
    peak_gmacs_i8: None, // NEON i8 dot products are not used by the stacks studied
    mem_bandwidth_gbs: 2.2,
    // 1 GB physical minus the GPU carve-out and OS baseline: what a DNN
    // runtime can actually allocate before the OOM killer fires.
    mem_capacity_bytes: 850 * 1024 * 1024,
    compute_eff: 0.55,
    mem_eff: 0.6,
    dispatch_overhead_s: 40e-6,
    io_overhead_s: 0.0,
    idle_power_w: 1.33,
    avg_power_w: 2.73,
    has_gpu: false,
};

/// Jetson TX2: 256-core Pascal @ 1.3 GHz ⇒ ~665 GFLOP/s ≈ 333 GMAC/s F32.
static JETSON_TX2: DeviceSpec = DeviceSpec {
    name: "jetson-tx2",
    category: DeviceCategory::GpuEdge,
    peak_gmacs_f32: 333.0,
    peak_gmacs_f16: Some(666.0),
    peak_gmacs_i8: None,
    mem_bandwidth_gbs: 58.0,
    mem_capacity_bytes: 8 * GIB,
    compute_eff: 0.45,
    mem_eff: 0.7,
    dispatch_overhead_s: 45e-6,
    io_overhead_s: 0.0,
    idle_power_w: 1.90,
    avg_power_w: 9.65,
    has_gpu: true,
};

/// Jetson Nano: 128-core Maxwell @ 0.92 GHz ⇒ ~236 GFLOP/s ≈ 118 GMAC/s F32.
static JETSON_NANO: DeviceSpec = DeviceSpec {
    name: "jetson-nano",
    category: DeviceCategory::GpuEdge,
    peak_gmacs_f32: 118.0,
    peak_gmacs_f16: Some(236.0),
    peak_gmacs_i8: Some(236.0), // via FP16-rate DP4A-less path; TensorRT uses FP16
    mem_bandwidth_gbs: 25.6,
    mem_capacity_bytes: 4 * GIB,
    compute_eff: 0.5,
    mem_eff: 0.7,
    dispatch_overhead_s: 40e-6,
    io_overhead_s: 0.0,
    idle_power_w: 1.25,
    avg_power_w: 4.58,
    has_gpu: true,
};

/// EdgeTPU: 4 TOPS INT8 systolic array ⇒ 2000 GMAC/s, INT8 only.
static EDGE_TPU: DeviceSpec = DeviceSpec {
    name: "edgetpu",
    category: DeviceCategory::AsicAccelerator,
    peak_gmacs_f32: 0.0,
    peak_gmacs_f16: None,
    peak_gmacs_i8: Some(2000.0),
    // The 8 MB on-chip SRAM keeps most activations off the LPDDR4 bus, so
    // the *effective* streaming bandwidth far exceeds the host DRAM's.
    mem_bandwidth_gbs: 20.0,
    mem_capacity_bytes: GIB,
    compute_eff: 0.25,
    mem_eff: 0.7,
    dispatch_overhead_s: 5e-6, // ops are compiled into one on-chip program
    io_overhead_s: 1.0e-3,     // host <-> accelerator staging per inference
    idle_power_w: 3.24,
    avg_power_w: 4.14,
    has_gpu: false,
};

/// Movidius NCS: Myriad 2 VPU, native FP16, behind a USB transfer.
static MOVIDIUS_NCS: DeviceSpec = DeviceSpec {
    name: "movidius-ncs",
    category: DeviceCategory::AsicAccelerator,
    peak_gmacs_f32: 0.0,
    peak_gmacs_f16: Some(50.0),
    peak_gmacs_i8: Some(50.0),
    mem_bandwidth_gbs: 3.0,
    mem_capacity_bytes: GIB / 2,
    compute_eff: 0.6,
    mem_eff: 0.6,
    dispatch_overhead_s: 5e-6,
    io_overhead_s: 8.0e-3, // USB 2.0 image upload + result download
    idle_power_w: 0.36,
    avg_power_w: 1.52,
    has_gpu: false,
};

/// PYNQ-Z1: Zynq-7020 fabric (220 DSP slices ~ 100 MHz overlay) running the
/// TVM-VTA / FINN stacks; large models spill from 630 KB BRAM to DDR3.
static PYNQ_Z1: DeviceSpec = DeviceSpec {
    name: "pynq-z1",
    category: DeviceCategory::Fpga,
    peak_gmacs_f32: 0.65, // A9 fallback
    peak_gmacs_f16: None,
    peak_gmacs_i8: Some(22.0), // 220 DSPs × 100 MHz
    mem_bandwidth_gbs: 1.0,    // 16-bit DDR3
    mem_capacity_bytes: GIB / 2,
    compute_eff: 0.35,
    mem_eff: 0.5,
    dispatch_overhead_s: 30e-6,
    io_overhead_s: 20.0e-3, // overlay invocation + host staging
    idle_power_w: 2.65,
    avg_power_w: 5.24,
    has_gpu: false,
};

/// Dual 22-core Xeon E5-2696 v4: AVX2 FMA ⇒ ~3.1 TFLOP/s ≈ 1550 GMAC/s, but
/// single-batch inference leaves most cores idle (low compute_eff).
static XEON_CPU: DeviceSpec = DeviceSpec {
    name: "xeon",
    category: DeviceCategory::HpcCpu,
    peak_gmacs_f32: 1550.0,
    peak_gmacs_f16: None,
    peak_gmacs_i8: None,
    mem_bandwidth_gbs: 140.0,
    mem_capacity_bytes: 264 * GIB,
    compute_eff: 0.06, // single-batch: a handful of cores saturate
    mem_eff: 0.5,
    dispatch_overhead_s: 15e-6,
    io_overhead_s: 0.0,
    idle_power_w: 70.0,
    avg_power_w: 300.0,
    has_gpu: false,
};

/// GTX Titan X (Maxwell): 6.7 TFLOP/s ≈ 3350 GMAC/s, 336 GB/s.
static GTX_TITAN_X: DeviceSpec = DeviceSpec {
    name: "gtx-titan-x",
    category: DeviceCategory::HpcGpu,
    peak_gmacs_f32: 3350.0,
    peak_gmacs_f16: None,
    peak_gmacs_i8: None,
    mem_bandwidth_gbs: 336.0,
    mem_capacity_bytes: 12 * GIB,
    compute_eff: 0.16, // single-batch underutilizes 3072 cores
    mem_eff: 0.6,
    dispatch_overhead_s: 35e-6,
    io_overhead_s: 0.3e-3, // PCIe input upload
    idle_power_w: 15.0,
    avg_power_w: 100.0,
    has_gpu: true,
};

/// Titan Xp (Pascal): 12.1 TFLOP/s ≈ 6050 GMAC/s, 547 GB/s.
static TITAN_XP: DeviceSpec = DeviceSpec {
    name: "titan-xp",
    category: DeviceCategory::HpcGpu,
    peak_gmacs_f32: 6050.0,
    peak_gmacs_f16: None,
    peak_gmacs_i8: None,
    mem_bandwidth_gbs: 547.0,
    mem_capacity_bytes: 12 * GIB,
    compute_eff: 0.13,
    mem_eff: 0.6,
    dispatch_overhead_s: 35e-6,
    io_overhead_s: 0.3e-3,
    idle_power_w: 55.0,
    avg_power_w: 120.0,
    has_gpu: true,
};

/// RTX 2080 (Turing): 10.1 TFLOP/s ≈ 5050 GMAC/s F32, double-rate FP16.
static RTX_2080: DeviceSpec = DeviceSpec {
    name: "rtx-2080",
    category: DeviceCategory::HpcGpu,
    peak_gmacs_f32: 5050.0,
    peak_gmacs_f16: Some(10100.0),
    peak_gmacs_i8: Some(20200.0),
    mem_bandwidth_gbs: 448.0,
    mem_capacity_bytes: 8 * GIB,
    compute_eff: 0.17,
    mem_eff: 0.6,
    dispatch_overhead_s: 30e-6,
    io_overhead_s: 0.3e-3,
    idle_power_w: 39.0,
    avg_power_w: 110.0,
    has_gpu: true,
};

/// Raspberry Pi 4B (extension). Out-of-order A72 cores roughly double
/// per-clock NEON throughput; LPDDR4 roughly triples bandwidth.
static RASPBERRY_PI_4: DeviceSpec = DeviceSpec {
    name: "rpi4",
    category: DeviceCategory::IotEdge,
    peak_gmacs_f32: 16.0,
    peak_gmacs_f16: None,
    peak_gmacs_i8: None,
    mem_bandwidth_gbs: 6.0,
    mem_capacity_bytes: 7 * GIB / 2, // 4 GB minus GPU/OS carve-out
    compute_eff: 0.6,
    mem_eff: 0.65,
    dispatch_overhead_s: 25e-6,
    io_overhead_s: 0.0,
    idle_power_w: 2.7,
    avg_power_w: 5.1,
    has_gpu: false,
};

/// Intel NCS2 (extension): Myriad X VPU with dedicated neural compute
/// engines, USB 3.0 host link. Intel's launch claim: ~8× the first stick.
static NCS_2: DeviceSpec = DeviceSpec {
    name: "ncs2",
    category: DeviceCategory::AsicAccelerator,
    peak_gmacs_f32: 0.0,
    peak_gmacs_f16: Some(400.0),
    peak_gmacs_i8: Some(400.0),
    mem_bandwidth_gbs: 12.0,
    mem_capacity_bytes: GIB / 2,
    compute_eff: 0.6,
    mem_eff: 0.6,
    dispatch_overhead_s: 5e-6,
    io_overhead_s: 3.0e-3, // USB 3.0 staging
    idle_power_w: 0.5,
    avg_power_w: 2.0,
    has_gpu: false,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_including_extensions() {
        for &d in Device::extended() {
            assert_eq!(Device::from_name(d.name()), Some(d));
        }
        assert_eq!(Device::from_name("abacus"), None);
    }

    #[test]
    fn spec_invariants_hold_for_every_platform() {
        for &d in Device::extended() {
            let s = d.spec();
            assert!(s.mem_bandwidth_gbs > 0.0, "{d}");
            assert!(s.mem_capacity_bytes > 0, "{d}");
            assert!((0.0..=1.0).contains(&s.compute_eff), "{d}");
            assert!((0.0..=1.0).contains(&s.mem_eff), "{d}");
            assert!(
                s.dispatch_overhead_s >= 0.0 && s.io_overhead_s >= 0.0,
                "{d}"
            );
            // Narrower types are never slower than wider ones.
            if let (Some(f16), f32_) = (s.peak_gmacs_f16, s.peak_gmacs_f32) {
                assert!(f16 >= f32_, "{d}: f16 {f16} < f32 {f32_}");
            }
            if let (Some(i8_), Some(f16)) = (s.peak_gmacs_i8, s.peak_gmacs_f16) {
                assert!(i8_ >= f16 || s.category == DeviceCategory::GpuEdge, "{d}");
            }
            // Some compute path must exist.
            assert!(
                s.peak_gmacs_f32 > 0.0 || s.peak_gmacs_f16.is_some() || s.peak_gmacs_i8.is_some(),
                "{d}"
            );
        }
    }

    #[test]
    fn ten_platforms_exist_plus_two_extensions() {
        assert_eq!(Device::all().len(), 10);
        assert_eq!(Device::edge_set().len(), 6);
        assert_eq!(Device::hpc_set().len(), 4);
        assert_eq!(Device::extended().len(), 12);
        assert!(!Device::all().contains(&Device::RaspberryPi4));
    }

    #[test]
    fn extension_devices_honour_the_paper_footnotes() {
        // RPi 4B "is expected to perform better" than the 3B.
        let rpi3 = Device::RaspberryPi3.spec();
        let rpi4 = Device::RaspberryPi4.spec();
        assert!(
            rpi4.peak_gmacs_f32 * rpi4.compute_eff > 2.0 * rpi3.peak_gmacs_f32 * rpi3.compute_eff
        );
        assert!(rpi4.mem_bandwidth_gbs > 2.0 * rpi3.mem_bandwidth_gbs);
        // NCS2 "claims an 8x speedup" over the first stick.
        let ncs1 = Device::MovidiusNcs.spec();
        let ncs2 = Device::Ncs2.spec();
        let ratio = (ncs2.peak_gmacs_f16.unwrap() * ncs2.compute_eff)
            / (ncs1.peak_gmacs_f16.unwrap() * ncs1.compute_eff);
        assert!((6.0..10.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn edge_devices_draw_less_idle_power_than_hpc() {
        for &e in Device::edge_set() {
            for &h in Device::hpc_set() {
                assert!(e.spec().idle_power_w < h.spec().idle_power_w, "{e} vs {h}");
            }
        }
    }

    #[test]
    fn avg_power_exceeds_idle_power() {
        for &d in Device::all() {
            assert!(d.spec().avg_power_w > d.spec().idle_power_w, "{d}");
        }
    }

    #[test]
    fn edgetpu_is_int8_only() {
        let s = Device::EdgeTpu.spec();
        assert_eq!(s.peak_gmacs_f32, 0.0);
        assert!(s.peak_gmacs_i8.is_some());
    }

    #[test]
    fn effective_compute_ordering_is_sane() {
        // Effective attainable F32 compute: RPi < Nano < TX2 < HPC GPUs.
        let eff = |d: Device| d.spec().peak_gmacs_f32 * d.spec().compute_eff;
        assert!(eff(Device::RaspberryPi3) < eff(Device::JetsonNano));
        assert!(eff(Device::JetsonNano) < eff(Device::JetsonTx2));
        assert!(eff(Device::JetsonTx2) < eff(Device::GtxTitanX));
    }
}
