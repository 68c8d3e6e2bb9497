//! Numerically controlled oscillator (NCO).
//!
//! Generates phase-continuous complex phasors. Used for
//! the local oscillator models (up/downconversion) and for synthesizing test
//! tones and interferers.

use crate::complex::Complex;

/// A phase-accumulating oscillator.
///
/// # Examples
///
/// ```
/// use uwb_dsp::Nco;
///
/// // A 5 GHz tone sampled at 32 GS/s.
/// let mut nco = Nco::new(5.0e9, 32.0e9);
/// let samples = nco.generate_complex(64);
/// assert!(samples.iter().all(|z| (z.norm() - 1.0).abs() < 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    step: f64,
    fs: f64,
}

impl Nco {
    /// Creates an oscillator at `freq_hz` for sample rate `fs_hz`.
    ///
    /// Negative frequencies are allowed (useful for downconversion).
    ///
    /// # Panics
    ///
    /// Panics if `fs_hz <= 0`.
    pub fn new(freq_hz: f64, fs_hz: f64) -> Self {
        assert!(fs_hz > 0.0, "sample rate must be positive");
        Nco {
            phase: 0.0,
            step: std::f64::consts::TAU * freq_hz / fs_hz,
            fs: fs_hz,
        }
    }

    /// Creates an oscillator with an initial phase offset (radians).
    pub fn with_phase(freq_hz: f64, fs_hz: f64, phase: f64) -> Self {
        let mut nco = Nco::new(freq_hz, fs_hz);
        nco.phase = phase;
        nco
    }

    /// Current phase in radians (wrapped to `(-π, π]` lazily).
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Current frequency in hertz.
    pub fn frequency(&self) -> f64 {
        self.step * self.fs / std::f64::consts::TAU
    }

    fn wrap(&mut self) {
        if self.phase > std::f64::consts::PI || self.phase < -std::f64::consts::PI {
            self.phase = self.phase.rem_euclid(std::f64::consts::TAU);
            if self.phase > std::f64::consts::PI {
                self.phase -= std::f64::consts::TAU;
            }
        }
    }

    /// Produces the next complex phasor `e^{iφ}` and advances the phase.
    pub fn next_complex(&mut self) -> Complex {
        let z = Complex::cis(self.phase);
        self.phase += self.step;
        self.wrap();
        z
    }

    /// Generates `n` complex phasor samples.
    pub fn generate_complex(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.next_complex()).collect()
    }

    /// Mixes (multiplies) a complex signal with this oscillator, advancing the
    /// phase across the block. Used for frequency translation.
    pub fn mix(&mut self, signal: &[Complex]) -> Vec<Complex> {
        signal.iter().map(|&x| x * self.next_complex()).collect()
    }
}

/// Frequency-translates a complex baseband signal by `shift_hz` (one-shot
/// convenience over [`Nco::mix`]).
pub fn frequency_shift(signal: &[Complex], shift_hz: f64, fs_hz: f64) -> Vec<Complex> {
    Nco::new(shift_hz, fs_hz).mix(signal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{bin_frequency, fft_padded};
    use crate::math::argmax;

    #[test]
    fn tone_frequency_is_correct() {
        let fs = 1000.0;
        let f = 125.0;
        let mut nco = Nco::new(f, fs);
        let sig = nco.generate_complex(256);
        let (spec, n) = fft_padded(&sig);
        let mags: Vec<f64> = spec.iter().map(|z| z.norm()).collect();
        let k = argmax(&mags).unwrap();
        assert_eq!(bin_frequency(k, n, fs), 125.0);
    }

    #[test]
    fn unit_magnitude_phasors() {
        let mut nco = Nco::new(333.0, 10_000.0);
        for _ in 0..1000 {
            let z = nco.next_complex();
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_frequency_conjugates() {
        let fs = 1000.0;
        let mut pos = Nco::new(100.0, fs);
        let mut neg = Nco::new(-100.0, fs);
        for _ in 0..100 {
            let p = pos.next_complex();
            let n = neg.next_complex();
            assert!((p.conj() - n).norm() < 1e-9);
        }
    }

    #[test]
    fn shift_then_unshift_is_identity() {
        let fs = 1.0e9;
        let sig: Vec<Complex> = (0..512)
            .map(|i| Complex::new((i as f64 * 0.01).sin(), (i as f64 * 0.02).cos()))
            .collect();
        let up = frequency_shift(&sig, 80e6, fs);
        let back = frequency_shift(&up, -80e6, fs);
        for (a, b) in sig.iter().zip(&back) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn with_phase_offset() {
        let mut nco = Nco::with_phase(0.0, 100.0, std::f64::consts::FRAC_PI_2);
        assert!(nco.next_complex().re.abs() < 1e-12); // cos(pi/2)
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_fs_panics() {
        Nco::new(1.0, 0.0);
    }
}
