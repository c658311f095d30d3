//! First-order RC thermal model with heatsink, fan hysteresis, thermal
//! throttling and over-temperature shutdown (the paper's §VI-F, Fig 14 and
//! Table VI).
//!
//! Junction temperature follows
//! `C · dT/dt = P − (T − T_ambient) / R`,
//! where `R` is the junction-to-ambient thermal resistance (smaller with an
//! active fan) and `C` the package thermal capacitance. Each device's `R` is
//! calibrated so that the *idle* steady state matches the paper's measured
//! idle temperature (Table VI) at 25 °C ambient. The thermal camera of the
//! paper reads the heatsink surface 5–10 °C below the junction; see
//! [`ThermalSim::camera_temp_c`].

use crate::spec::Device;

/// Static thermal parameters of a platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Junction-to-ambient thermal resistance with passive cooling, °C/W.
    pub r_passive_c_per_w: f64,
    /// Resistance with the fan spinning, °C/W (`None` if no fan).
    pub r_fan_c_per_w: Option<f64>,
    /// Fan turn-on junction temperature, °C.
    pub fan_on_c: f64,
    /// Fan turn-off temperature (hysteresis), °C.
    pub fan_off_c: f64,
    /// Package thermal capacitance, J/°C.
    pub c_j_per_c: f64,
    /// Clock-throttling onset temperature, °C.
    pub throttle_c: f64,
    /// Emergency shutdown temperature, °C (`None` = never observed).
    pub shutdown_c: Option<f64>,
    /// Thermal-camera offset: junction minus heatsink surface, °C.
    pub camera_offset_c: f64,
    /// Whether a heatsink is fitted (Table VI).
    pub has_heatsink: bool,
    /// Whether a fan is fitted (Table VI).
    pub has_fan: bool,
    /// Idle temperature measured by the paper (Table VI), °C.
    pub paper_idle_c: f64,
}

/// Ambient temperature assumed by the calibration, °C.
pub(crate) const AMBIENT_C: f64 = 25.0;

impl ThermalSpec {
    /// The thermal parameters for an edge device.
    ///
    /// `R` values satisfy `idle = ambient + P_idle · R` for the paper's
    /// Table VI idle temperatures; capacitances are order-of-magnitude
    /// package+sink estimates that set the transient time constant.
    ///
    /// # Panics
    ///
    /// Panics for HPC platforms, which the paper's thermal study excludes.
    /// Use `ThermalSpec::try_for_device` to handle those gracefully.
    pub fn for_device(device: Device) -> ThermalSpec {
        Self::try_for_device(device)
            .unwrap_or_else(|| panic!("no thermal model for HPC platform {device}"))
    }

    /// The thermal parameters for a device, or `None` for HPC platforms
    /// (which the paper's thermal study excludes).
    pub(crate) fn try_for_device(device: Device) -> Option<ThermalSpec> {
        match device {
            // (43.3 - 25) / 1.33 W = 13.76 °C/W: bare SoC, no sink.
            Device::RaspberryPi3 => Some(ThermalSpec {
                r_passive_c_per_w: 13.76,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 12.0,
                // The bare Pi SoC does not soft-throttle effectively under
                // sustained NEON load; it hits its thermal limit instead
                // (the paper's Fig 14 annotates an RPi "device shutdown").
                throttle_c: 85.0,
                shutdown_c: Some(70.0),
                camera_offset_c: 5.0,
                has_heatsink: false,
                has_fan: false,
                paper_idle_c: 43.3,
            }),
            // (32.4 - 25) / 1.9 W = 3.89 °C/W passive; large sink + fan.
            Device::JetsonTx2 => Some(ThermalSpec {
                r_passive_c_per_w: 3.89,
                r_fan_c_per_w: Some(1.6),
                fan_on_c: 40.0,
                fan_off_c: 35.0,
                c_j_per_c: 60.0,
                throttle_c: 85.0,
                shutdown_c: None,
                camera_offset_c: 8.0,
                has_heatsink: true,
                has_fan: true,
                paper_idle_c: 32.4,
            }),
            // (35.2 - 25) / 1.25 W = 8.16 °C/W: sink but no fan fitted.
            Device::JetsonNano => Some(ThermalSpec {
                r_passive_c_per_w: 8.16,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 40.0,
                throttle_c: 80.0,
                shutdown_c: None,
                camera_offset_c: 8.0,
                has_heatsink: true,
                has_fan: false,
                paper_idle_c: 35.2,
            }),
            // (33.9 - 25) / 3.24 W = 2.75 °C/W: sink + small fan.
            Device::EdgeTpu => Some(ThermalSpec {
                r_passive_c_per_w: 2.75,
                r_fan_c_per_w: Some(2.0),
                fan_on_c: 45.0,
                fan_off_c: 40.0,
                c_j_per_c: 25.0,
                throttle_c: 85.0,
                shutdown_c: None,
                camera_offset_c: 6.0,
                has_heatsink: true,
                has_fan: true,
                paper_idle_c: 33.9,
            }),
            // (25.8 - 25) / 0.36 W ≈ 2 °C/W: the stick body is the sink.
            Device::MovidiusNcs => Some(ThermalSpec {
                r_passive_c_per_w: 1.8,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 15.0,
                throttle_c: 85.0,
                shutdown_c: None,
                camera_offset_c: 5.0,
                has_heatsink: true,
                has_fan: false,
                paper_idle_c: 25.8,
            }),
            // (38 - 25) / 2.65 W ≈ 4.9 °C/W for the PYNQ (not in Table VI;
            // estimated like its peers).
            Device::PynqZ1 => Some(ThermalSpec {
                r_passive_c_per_w: 4.9,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 30.0,
                throttle_c: 85.0,
                shutdown_c: None,
                camera_offset_c: 6.0,
                has_heatsink: true,
                has_fan: false,
                paper_idle_c: 38.0,
            }),
            // Extension devices: RPi 4B ships bare like the 3B but with a
            // hotter SoC; NCS2 keeps the stick-as-heatsink design.
            Device::RaspberryPi4 => Some(ThermalSpec {
                r_passive_c_per_w: 9.0,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 14.0,
                throttle_c: 80.0,
                shutdown_c: None,
                camera_offset_c: 5.0,
                has_heatsink: false,
                has_fan: false,
                paper_idle_c: 49.3, // not measured by the paper (extension)
            }),
            Device::Ncs2 => Some(ThermalSpec {
                r_passive_c_per_w: 1.8,
                r_fan_c_per_w: None,
                fan_on_c: f64::INFINITY,
                fan_off_c: f64::INFINITY,
                c_j_per_c: 18.0,
                throttle_c: 85.0,
                shutdown_c: None,
                camera_offset_c: 5.0,
                has_heatsink: true,
                has_fan: false,
                paper_idle_c: 25.9, // not measured by the paper (extension)
            }),
            _ => None,
        }
    }
}

/// Discrete event emitted by the thermal simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThermalEvent {
    /// The fan spun up at the given time (seconds) and temperature.
    FanOn(f64, f64),
    /// The fan spun down.
    FanOff(f64, f64),
    /// Clock throttling began.
    ThrottleOn(f64, f64),
    /// Clock throttling ended.
    ThrottleOff(f64, f64),
    /// The device shut down from over-temperature.
    Shutdown(f64, f64),
}

/// One `(time_s, junction_temp_c)` sample of a simulation.
pub(crate) type ThermalSample = (f64, f64);

/// Result of a sustained-load thermal simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTrace {
    /// Temperature samples over time.
    pub samples: Vec<ThermalSample>,
    /// Discrete events in chronological order.
    pub events: Vec<ThermalEvent>,
    /// Final junction temperature, °C.
    pub final_temp_c: f64,
    /// Whether the device shut down before the end of the run.
    pub shutdown: bool,
}

impl ThermalTrace {
    /// Steady-state (final) temperature as the paper's thermal camera would
    /// read it (heatsink surface).
    pub fn final_camera_temp_c(&self, spec: &ThermalSpec) -> f64 {
        self.final_temp_c - spec.camera_offset_c
    }
}

/// Mutable thermal state stepped by the caller.
#[derive(Debug, Clone)]
pub struct ThermalSim {
    spec: ThermalSpec,
    temp_c: f64,
    fan_on: bool,
    throttled: bool,
    shutdown: bool,
    time_s: f64,
}

impl ThermalSim {
    /// Starts a simulation at the device's idle steady state.
    ///
    /// # Panics
    ///
    /// Panics for HPC platforms; use [`ThermalSim::try_new`] to gate on
    /// thermal-model availability instead.
    pub fn new(device: Device) -> Self {
        Self::try_new(device)
            .unwrap_or_else(|| panic!("no thermal model for HPC platform {device}"))
    }

    /// Starts a simulation at the device's idle steady state, or `None`
    /// for platforms without a thermal model (HPC).
    pub fn try_new(device: Device) -> Option<Self> {
        let spec = ThermalSpec::try_for_device(device)?;
        let idle = AMBIENT_C + device.spec().idle_power_w * spec.r_passive_c_per_w;
        Some(ThermalSim {
            spec,
            temp_c: idle,
            fan_on: false,
            throttled: false,
            shutdown: false,
            time_s: 0.0,
        })
    }

    /// The underlying thermal parameters.
    pub fn spec(&self) -> &ThermalSpec {
        &self.spec
    }

    /// Simulated time elapsed since construction, seconds.
    pub(crate) fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Current junction temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Temperature as read by a surface thermal camera, °C.
    pub fn camera_temp_c(&self) -> f64 {
        self.temp_c - self.spec.camera_offset_c
    }

    /// Whether the clocks are currently throttled.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Whether the device has shut down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Performance derate while throttled (clocks drop ~30 %).
    pub fn throttle_factor(&self) -> f64 {
        if self.throttled {
            0.7
        } else {
            1.0
        }
    }

    /// Advances the simulation by `dt_s` seconds at `power_w` dissipation,
    /// returning any events that fired.
    pub fn step(&mut self, power_w: f64, dt_s: f64) -> Vec<ThermalEvent> {
        let mut events = Vec::new();
        if self.shutdown {
            // Device is off: cool passively towards ambient.
            let r = self.spec.r_passive_c_per_w;
            let tau = r * self.spec.c_j_per_c;
            self.temp_c += (AMBIENT_C - self.temp_c) * (dt_s / tau).min(1.0);
            self.time_s += dt_s;
            return events;
        }
        // Fan hysteresis.
        if let Some(_r_fan) = self.spec.r_fan_c_per_w {
            if !self.fan_on && self.temp_c >= self.spec.fan_on_c {
                self.fan_on = true;
                events.push(ThermalEvent::FanOn(self.time_s, self.temp_c));
            } else if self.fan_on && self.temp_c <= self.spec.fan_off_c {
                self.fan_on = false;
                events.push(ThermalEvent::FanOff(self.time_s, self.temp_c));
            }
        }
        let r = if self.fan_on {
            self.spec
                .r_fan_c_per_w
                .unwrap_or(self.spec.r_passive_c_per_w)
        } else {
            self.spec.r_passive_c_per_w
        };
        // Euler step of C dT/dt = P - (T - T_amb)/R.
        let d_t = (power_w - (self.temp_c - AMBIENT_C) / r) / self.spec.c_j_per_c * dt_s;
        self.temp_c += d_t;
        self.time_s += dt_s;

        // Throttle hysteresis (2 °C).
        if !self.throttled && self.temp_c >= self.spec.throttle_c {
            self.throttled = true;
            events.push(ThermalEvent::ThrottleOn(self.time_s, self.temp_c));
        } else if self.throttled && self.temp_c < self.spec.throttle_c - 2.0 {
            self.throttled = false;
            events.push(ThermalEvent::ThrottleOff(self.time_s, self.temp_c));
        }
        if let Some(limit) = self.spec.shutdown_c {
            if self.temp_c >= limit {
                self.shutdown = true;
                events.push(ThermalEvent::Shutdown(self.time_s, self.temp_c));
            }
        }
        events
    }

    /// Runs a sustained load until steady state (or `max_s`), sampling every
    /// `dt_s`. Throttling reduces dissipated power by the throttle factor.
    pub fn run_sustained(mut self, power_w: f64, max_s: f64, dt_s: f64) -> ThermalTrace {
        let mut samples = vec![(0.0, self.temp_c)];
        let mut events = Vec::new();
        let mut t = 0.0;
        while t < max_s {
            let p = if self.shutdown {
                0.0
            } else {
                power_w * self.throttle_factor()
            };
            events.extend(self.step(p, dt_s));
            t += dt_s;
            samples.push((t, self.temp_c));
        }
        ThermalTrace {
            final_temp_c: self.temp_c,
            shutdown: self.shutdown,
            samples,
            events,
        }
    }
}

/// One sample of a sustained inference loop: `(time_s, latency_s)`.
pub(crate) type LatencySample = (f64, f64);

/// Result of running back-to-back inference under the thermal model:
/// latency over time as throttling kicks in.
#[derive(Debug, Clone, PartialEq)]
pub struct SustainedRun {
    /// `(wall_time_s, per_inference_latency_s)` samples.
    pub samples: Vec<LatencySample>,
    /// Whether throttling ever engaged.
    pub throttled: bool,
    /// Whether the device shut down before the end.
    pub shutdown: bool,
}

impl SustainedRun {
    /// Latency of the first inference (cold device).
    pub(crate) fn cold_latency_s(&self) -> f64 {
        self.samples.first().map(|&(_, l)| l).unwrap_or(0.0)
    }

    /// Worst per-inference latency observed (throttle oscillation peaks).
    pub(crate) fn hot_latency_s(&self) -> f64 {
        self.samples.iter().map(|&(_, l)| l).fold(0.0, f64::max)
    }

    /// Worst-case hot/cold slowdown ratio (1.0 = no thermal degradation).
    pub fn degradation(&self) -> f64 {
        if self.cold_latency_s() > 0.0 {
            self.hot_latency_s() / self.cold_latency_s()
        } else {
            1.0
        }
    }
}

/// Runs `duration_s` of back-to-back inference on `device`, coupling the
/// thermal model to performance: while throttled, clocks (and therefore
/// latency) degrade by the throttle factor and dissipation drops with them.
///
/// `base_latency_s` is the full-clock per-inference latency (from the
/// deployment model); `active_power_w` the full-clock dissipation.
pub fn sustained_inference(
    device: Device,
    base_latency_s: f64,
    active_power_w: f64,
    duration_s: f64,
) -> SustainedRun {
    let mut sim = ThermalSim::new(device);
    let mut samples = Vec::new();
    let mut throttled = false;
    let mut t = 0.0;
    let dt = (duration_s / 600.0).max(base_latency_s);
    while t < duration_s && !sim.is_shutdown() {
        let factor = sim.throttle_factor();
        throttled |= sim.is_throttled();
        let latency = base_latency_s / factor;
        samples.push((t, latency));
        sim.step(active_power_w * factor, dt);
        t += dt;
    }
    SustainedRun {
        samples,
        throttled,
        shutdown: sim.is_shutdown(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_steady_state_matches_table_vi() {
        for d in [
            Device::RaspberryPi3,
            Device::JetsonTx2,
            Device::JetsonNano,
            Device::EdgeTpu,
            Device::MovidiusNcs,
        ] {
            let sim = ThermalSim::new(d);
            let idle = sim.temp_c();
            let paper = sim.spec().paper_idle_c;
            assert!((idle - paper).abs() < 0.5, "{d}: {idle} vs paper {paper}");
        }
    }

    #[test]
    fn rpi_shuts_down_under_sustained_heavy_load() {
        // Inception-v4 pushes the RPi above its average power envelope.
        let trace = ThermalSim::new(Device::RaspberryPi3).run_sustained(3.5, 1200.0, 1.0);
        assert!(trace.shutdown, "final {}", trace.final_temp_c);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, ThermalEvent::Shutdown(_, _))));
    }

    #[test]
    fn tx2_fan_keeps_it_cooler_than_nano_despite_higher_power() {
        // Paper Fig 14: TX2 draws more power than Nano, yet runs cooler
        // because its fan activates.
        let tx2 = ThermalSim::new(Device::JetsonTx2).run_sustained(9.65, 2400.0, 1.0);
        let nano = ThermalSim::new(Device::JetsonNano).run_sustained(4.58, 2400.0, 1.0);
        assert!(
            tx2.final_temp_c < nano.final_temp_c,
            "tx2 {} nano {}",
            tx2.final_temp_c,
            nano.final_temp_c
        );
        assert!(tx2
            .events
            .iter()
            .any(|e| matches!(e, ThermalEvent::FanOn(_, _))));
    }

    #[test]
    fn movidius_has_lowest_temperature_rise() {
        let rises: Vec<(Device, f64)> = [
            Device::RaspberryPi3,
            Device::JetsonNano,
            Device::EdgeTpu,
            Device::MovidiusNcs,
        ]
        .iter()
        .map(|&d| {
            let sim = ThermalSim::new(d);
            let idle = sim.temp_c();
            let t = sim.run_sustained(d.spec().avg_power_w, 2400.0, 1.0);
            (d, t.final_temp_c - idle)
        })
        .collect();
        let mov = rises
            .iter()
            .find(|(d, _)| *d == Device::MovidiusNcs)
            .unwrap()
            .1;
        for (d, rise) in &rises {
            if *d != Device::MovidiusNcs {
                assert!(mov < *rise, "{d}: movidius {mov} vs {rise}");
            }
        }
    }

    #[test]
    fn cooling_after_shutdown_returns_to_ambient() {
        let mut sim = ThermalSim::new(Device::RaspberryPi3);
        // Force a shutdown.
        while !sim.is_shutdown() {
            sim.step(4.0, 1.0);
        }
        for _ in 0..100_000 {
            sim.step(0.0, 1.0);
        }
        assert!((sim.temp_c() - AMBIENT_C).abs() < 1.0);
    }

    #[test]
    fn camera_reads_below_junction() {
        let sim = ThermalSim::new(Device::JetsonTx2);
        assert!(sim.camera_temp_c() < sim.temp_c());
        let off = sim.temp_c() - sim.camera_temp_c();
        assert!(
            (5.0..=10.0).contains(&off),
            "offset {off} within paper's 5-10C"
        );
    }

    #[test]
    fn nano_degrades_under_sustained_load_while_tx2_does_not() {
        // The fanless Nano eventually throttles on a hot workload; the
        // TX2's fan holds full clocks.
        let nano = sustained_inference(Device::JetsonNano, 0.1, 7.0, 3600.0);
        assert!(nano.throttled, "nano should throttle");
        assert!(
            nano.degradation() > 1.2,
            "degradation {}",
            nano.degradation()
        );
        let tx2 = sustained_inference(Device::JetsonTx2, 0.05, 9.65, 3600.0);
        assert!(!tx2.throttled, "tx2 fan should prevent throttling");
        assert!((tx2.degradation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rpi_run_ends_in_shutdown_on_heavy_load() {
        let run = sustained_inference(Device::RaspberryPi3, 5.0, 3.5, 3600.0);
        assert!(run.shutdown);
        assert!(run.samples.last().unwrap().0 < 3600.0, "run cut short");
    }

    #[test]
    fn cool_workloads_never_degrade() {
        let run = sustained_inference(Device::MovidiusNcs, 0.03, 1.52, 1800.0);
        assert!(!run.throttled && !run.shutdown);
        assert!((run.degradation() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no thermal model")]
    fn hpc_platforms_have_no_thermal_model() {
        let _ = ThermalSpec::for_device(Device::XeonCpu);
    }
}
