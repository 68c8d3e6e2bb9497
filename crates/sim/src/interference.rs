//! Narrowband interferer models.
//!
//! The paper's §1 calls out "narrowband interferers" as a defining UWB
//! challenge and §3 describes a spectral-monitoring block that estimates the
//! interferer frequency for a front-end notch filter. These generators
//! produce the interference those blocks are tested against: a continuous-
//! wave tone (the worst case for a 1-bit ADC), a modulated carrier
//! (802.11a-like), and a swept tone.

use crate::rng::Rand;
use uwb_dsp::{Complex, Nco};

/// A narrowband interferer description.
#[derive(Debug, Clone, PartialEq)]
pub struct Interferer {
    /// Offset of the interferer from the receiver's center frequency, in Hz
    /// (baseband-equivalent frequency).
    pub offset_hz: f64,
    /// Average interferer power (linear, same units as signal power).
    pub power: f64,
    /// Interferer fine structure.
    pub kind: InterfererKind,
}

/// The fine structure of a narrowband interferer.
#[derive(Debug, Clone, PartialEq)]
pub enum InterfererKind {
    /// Pure continuous-wave tone with a random starting phase.
    ContinuousWave,
    /// Tone with random BPSK modulation at `symbol_rate_hz` — approximates
    /// an OFDM subcarrier or generic digital narrowband service.
    Modulated {
        /// Symbol rate of the random BPSK modulation, in hertz.
        symbol_rate_hz: f64,
    },
    /// Tone sweeping linearly by `sweep_hz_per_s`.
    Swept {
        /// Sweep rate in hertz per second.
        sweep_hz_per_s: f64,
    },
}

impl Interferer {
    /// Convenience constructor for a CW interferer.
    pub fn cw(offset_hz: f64, power: f64) -> Self {
        Interferer {
            offset_hz,
            power,
            kind: InterfererKind::ContinuousWave,
        }
    }

    /// Generates `n` complex baseband samples of the interferer at `fs_hz`.
    pub fn generate(&self, n: usize, fs_hz: f64, rng: &mut Rand) -> Vec<Complex> {
        let amp = self.power.sqrt();
        let phase0 = rng.uniform_in(0.0, std::f64::consts::TAU);
        match &self.kind {
            InterfererKind::ContinuousWave => {
                let mut nco = Nco::with_phase(self.offset_hz, fs_hz, phase0);
                (0..n).map(|_| nco.next_complex() * amp).collect()
            }
            InterfererKind::Modulated { symbol_rate_hz } => {
                let mut nco = Nco::with_phase(self.offset_hz, fs_hz, phase0);
                let sps = (fs_hz / symbol_rate_hz).max(1.0) as usize;
                let mut out = Vec::with_capacity(n);
                let mut symbol = 1.0;
                for i in 0..n {
                    if i % sps == 0 {
                        symbol = if rng.bit() { 1.0 } else { -1.0 };
                    }
                    out.push(nco.next_complex() * (amp * symbol));
                }
                out
            }
            InterfererKind::Swept { sweep_hz_per_s } => {
                let mut out = Vec::with_capacity(n);
                let dt = 1.0 / fs_hz;
                let mut phase = phase0;
                for i in 0..n {
                    let f = self.offset_hz + sweep_hz_per_s * (i as f64 * dt);
                    phase += std::f64::consts::TAU * f * dt;
                    out.push(Complex::from_polar(amp, phase));
                }
                out
            }
        }
    }

    /// Adds the interferer to an existing signal in place of allocation
    /// (returns a new vector of the same length).
    pub fn add_to(&self, signal: &[Complex], fs_hz: f64, rng: &mut Rand) -> Vec<Complex> {
        let tone = self.generate(signal.len(), fs_hz, rng);
        signal.iter().zip(&tone).map(|(&s, &t)| s + t).collect()
    }

    /// [`Interferer::add_to`] mutating the signal in place (allocation-free).
    ///
    /// The RNG draw order (starting phase first, then any per-sample symbol
    /// draws) matches [`Interferer::generate`] exactly, so results and
    /// downstream RNG state are bit-identical to the allocating form.
    pub fn add_to_in_place(&self, signal: &mut [Complex], fs_hz: f64, rng: &mut Rand) {
        let amp = self.power.sqrt();
        let phase0 = rng.uniform_in(0.0, std::f64::consts::TAU);
        match &self.kind {
            InterfererKind::ContinuousWave => {
                let mut nco = Nco::with_phase(self.offset_hz, fs_hz, phase0);
                for z in signal.iter_mut() {
                    *z += nco.next_complex() * amp;
                }
            }
            InterfererKind::Modulated { symbol_rate_hz } => {
                let mut nco = Nco::with_phase(self.offset_hz, fs_hz, phase0);
                let sps = (fs_hz / symbol_rate_hz).max(1.0) as usize;
                let mut symbol = 1.0;
                for (i, z) in signal.iter_mut().enumerate() {
                    if i % sps == 0 {
                        symbol = if rng.bit() { 1.0 } else { -1.0 };
                    }
                    *z += nco.next_complex() * (amp * symbol);
                }
            }
            InterfererKind::Swept { sweep_hz_per_s } => {
                let dt = 1.0 / fs_hz;
                let mut phase = phase0;
                for (i, z) in signal.iter_mut().enumerate() {
                    let f = self.offset_hz + sweep_hz_per_s * (i as f64 * dt);
                    phase += std::f64::consts::TAU * f * dt;
                    *z += Complex::from_polar(amp, phase);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::complex::mean_power;
    use uwb_dsp::psd::welch;
    use uwb_dsp::Window;

    #[test]
    fn cw_power_calibrated() {
        let mut rng = Rand::new(1);
        let intf = Interferer::cw(50e6, 4.0);
        let sig = intf.generate(10_000, 1e9, &mut rng);
        let p = mean_power(&sig);
        assert!((p - 4.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn cw_lands_at_offset() {
        let mut rng = Rand::new(2);
        let fs = 1e9;
        let f0 = 125e6;
        let intf = Interferer::cw(f0, 1.0);
        let sig = intf.generate(8192, fs, &mut rng);
        let psd = welch(&sig, fs, 2048, Window::Hann);
        assert!((psd.peak_frequency() - f0).abs() < fs / 2048.0);
    }

    #[test]
    fn modulated_power_and_bandwidth() {
        let mut rng = Rand::new(3);
        let fs = 1e9;
        let intf = Interferer {
            offset_hz: -100e6,
            power: 2.0,
            kind: InterfererKind::Modulated {
                symbol_rate_hz: 20e6,
            },
        };
        let sig = intf.generate(65_536, fs, &mut rng);
        assert!((mean_power(&sig) - 2.0).abs() < 1e-9);
        let psd = welch(&sig, fs, 4096, Window::Hann);
        assert!((psd.peak_frequency() + 100e6).abs() < 5e6);
        // Modulated: wider than a CW tone but still narrowband vs 500 MHz.
        let obw = psd.occupied_bandwidth(0.9);
        assert!(obw > 5e6 && obw < 150e6, "obw {obw}");
    }

    #[test]
    fn swept_tone_moves() {
        let mut rng = Rand::new(4);
        let fs = 1e9;
        let intf = Interferer {
            offset_hz: 10e6,
            power: 1.0,
            kind: InterfererKind::Swept {
                sweep_hz_per_s: 1e15, // 1 MHz per µs
            },
        };
        let sig = intf.generate(32_768, fs, &mut rng);
        let early = welch(&sig[..8192], fs, 4096, Window::Hann).peak_frequency();
        let late =
            welch(&sig[24_576..], fs, 4096, Window::Hann).peak_frequency();
        assert!(late > early + 5e6, "sweep did not move: {early} -> {late}");
    }

    #[test]
    fn add_to_superimposes() {
        let mut rng = Rand::new(5);
        let base = vec![Complex::ONE; 1000];
        let intf = Interferer::cw(0.0, 1.0); // DC interferer adds a phasor
        let out = intf.add_to(&base, 1e9, &mut rng);
        assert_eq!(out.len(), base.len());
        // Powers add only on average for uncorrelated phases; check amplitude range.
        assert!(out.iter().all(|z| z.norm() <= 2.0 + 1e-12));
    }

    #[test]
    fn add_to_in_place_matches_allocating_bitwise() {
        let base: Vec<Complex> = (0..500).map(|i| Complex::new(0.01 * i as f64, -1.0)).collect();
        for kind in [
            InterfererKind::ContinuousWave,
            InterfererKind::Modulated { symbol_rate_hz: 20e6 },
            InterfererKind::Swept { sweep_hz_per_s: 1e14 },
        ] {
            let intf = Interferer {
                offset_hz: 55e6,
                power: 2.5,
                kind,
            };
            let want = intf.add_to(&base, 1e9, &mut Rand::new(31));
            let mut buf = base.clone();
            let mut rng = Rand::new(31);
            intf.add_to_in_place(&mut buf, 1e9, &mut rng);
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let intf = Interferer::cw(77e6, 3.0);
        let a = intf.generate(64, 1e9, &mut Rand::new(9));
        let b = intf.generate(64, 1e9, &mut Rand::new(9));
        assert_eq!(a, b);
    }
}
