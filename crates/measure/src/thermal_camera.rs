//! The simulated Flir One thermal camera (paper §V, "Thermal
//! Measurements").
//!
//! The camera images the *surface* of the package or heatsink; since the
//! sink's thermal resistance exceeds the die's, the surface reads 5–10 °C
//! below the junction. The [`edgebench_devices::thermal::ThermalSpec`]
//! carries each device's offset; the camera adds ±0.5 °C sensor noise.

use edgebench_devices::thermal::ThermalSim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A thermal camera with deterministic sensor noise.
#[derive(Debug)]
pub struct ThermalCamera {
    rng: StdRng,
}

impl ThermalCamera {
    /// Creates a camera with a noise seed.
    pub fn new(seed: u64) -> Self {
        ThermalCamera {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Reads the surface temperature of a live simulation, °C.
    pub fn read_c(&mut self, sim: &ThermalSim) -> f64 {
        sim.camera_temp_c() + self.rng.gen_range(-0.5..=0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_devices::Device;

    #[test]
    fn camera_reads_below_junction_within_noise() {
        let sim = ThermalSim::new(Device::JetsonNano);
        let mut cam = ThermalCamera::new(1);
        for _ in 0..100 {
            let r = cam.read_c(&sim);
            let delta = sim.temp_c() - r;
            assert!((4.0..=11.0).contains(&delta), "delta {delta}");
        }
    }
}
