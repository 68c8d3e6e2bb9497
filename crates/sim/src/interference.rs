//! Narrowband interferer models.
//!
//! The paper's §1 calls out "narrowband interferers" as a defining UWB
//! challenge and §3 describes a spectral-monitoring block that estimates the
//! interferer frequency for a front-end notch filter. These generators
//! produce the interference those blocks are tested against: a continuous-
//! wave tone (the worst case for a 1-bit ADC) and a modulated carrier
//! (802.11a-like). Both are synthesized by
//! [`StreamingInterferer`](crate::stream::StreamingInterferer); the batch
//! helpers here run it over one block.

use crate::rng::Rand;
use crate::stream::StreamingInterferer;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Complex, DspScratch};

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

    /// Generates `n` complex baseband samples of the interferer at `fs_hz`:
    /// [`Interferer::add_to`] over a zero record.
    pub fn generate(&self, n: usize, fs_hz: f64, rng: &mut Rand) -> Vec<Complex> {
        self.add_to(&vec![Complex::ZERO; n], fs_hz, rng)
    }

    /// Adds the interferer to a copy of `signal`: one block of a
    /// [`StreamingInterferer`] built from `rng` (the starting phase, and for
    /// the modulated kind a forked symbol stream), so the result is
    /// bit-identical to a link trial's streamed interferer.
    pub fn add_to(&self, signal: &[Complex], fs_hz: f64, rng: &mut Rand) -> Vec<Complex> {
        let mut out = signal.to_vec();
        StreamingInterferer::new(self, fs_hz, rng).process_block(&mut out, &mut DspScratch::new());
        out
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
    fn deterministic_given_seed() {
        let intf = Interferer::cw(77e6, 3.0);
        let a = intf.generate(64, 1e9, &mut Rand::new(9));
        let b = intf.generate(64, 1e9, &mut Rand::new(9));
        assert_eq!(a, b);
    }
}
