//! Local oscillator model: frequency error (CFO) and phase noise.
//!
//! The direct-conversion receiver of paper Fig. 3 derives its LO from the
//! "Frequency Synthesizer" block. Real synthesizers have a ppm-scale
//! frequency offset from the transmitter's crystal plus random phase noise;
//! both corrupt the downconverted constellation and must be absorbed by the
//! digital back end (PLL/DLL and Viterbi blocks).

use uwb_dsp::Complex;
use uwb_sim::rng::Rand;
use uwb_sim::time::Hertz;

/// A local oscillator with deterministic frequency error and Wiener-process
/// phase noise.
#[derive(Debug, Clone)]
pub struct LocalOscillator {
    nominal: Hertz,
    cfo_ppm: f64,
    /// Phase-noise linewidth (Hz): variance of the per-sample random-walk
    /// increment is `2π · linewidth / fs`.
    linewidth_hz: f64,
    phase: f64,
}

impl LocalOscillator {
    /// An ideal oscillator at `nominal`.
    pub fn ideal(nominal: Hertz) -> Self {
        LocalOscillator {
            nominal,
            cfo_ppm: 0.0,
            linewidth_hz: 0.0,
            phase: 0.0,
        }
    }

    /// An impaired oscillator with `cfo_ppm` parts-per-million frequency
    /// error and Lorentzian `linewidth_hz` phase noise.
    ///
    /// # Panics
    ///
    /// Panics if `linewidth_hz < 0`.
    pub fn with_impairments(nominal: Hertz, cfo_ppm: f64, linewidth_hz: f64) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be non-negative");
        LocalOscillator {
            nominal,
            cfo_ppm,
            linewidth_hz,
            phase: 0.0,
        }
    }

    /// Nominal frequency.
    pub fn nominal(&self) -> Hertz {
        self.nominal
    }

    /// Actual frequency including the ppm offset.
    fn actual(&self) -> Hertz {
        Hertz::new(self.nominal.as_hz() * (1.0 + self.cfo_ppm * 1e-6))
    }

    /// The absolute frequency error in hertz.
    pub fn cfo_hz(&self) -> f64 {
        self.actual().as_hz() - self.nominal.as_hz()
    }

    /// Emits the next unit-magnitude LO phasor at sample rate `fs_hz`,
    /// advancing internal phase (and accumulating phase noise) — one sample
    /// of [`LocalOscillator::generate`].
    #[inline]
    fn next_phasor(&mut self, fs_hz: f64, rng: &mut Rand) -> Complex {
        let step = std::f64::consts::TAU * self.actual().as_hz() / fs_hz;
        let out = Complex::cis(self.phase);
        self.phase += step;
        if self.linewidth_hz > 0.0 {
            let pn_sigma = (std::f64::consts::TAU * self.linewidth_hz / fs_hz).sqrt();
            self.phase += pn_sigma * rng.gaussian();
        }
        if self.phase > std::f64::consts::PI {
            self.phase = self.phase.rem_euclid(std::f64::consts::TAU);
        }
        out
    }

    /// Generates `n` unit-magnitude LO phasors at sample rate `fs_hz`,
    /// advancing internal phase (and accumulating phase noise).
    pub fn generate(&mut self, n: usize, fs_hz: f64, rng: &mut Rand) -> Vec<Complex> {
        (0..n).map(|_| self.next_phasor(fs_hz, rng)).collect()
    }

    /// The *baseband-equivalent* rotation this LO imprints after mixing
    /// against an ideal transmitter LO of the same nominal frequency: a
    /// residual CFO spin plus phase noise. This is how link simulations at
    /// complex baseband apply LO impairments without a passband pass.
    pub fn baseband_rotation(
        &mut self,
        signal: &[Complex],
        fs_hz: f64,
        rng: &mut Rand,
    ) -> Vec<Complex> {
        let step = std::f64::consts::TAU * self.cfo_hz() / fs_hz;
        let pn_sigma = if self.linewidth_hz > 0.0 {
            (std::f64::consts::TAU * self.linewidth_hz / fs_hz).sqrt()
        } else {
            0.0
        };
        let mut out = Vec::with_capacity(signal.len());
        for &z in signal {
            out.push(z * Complex::cis(self.phase));
            self.phase += step;
            if pn_sigma > 0.0 {
                self.phase += pn_sigma * rng.gaussian();
            }
            if self.phase > std::f64::consts::PI {
                self.phase = self.phase.rem_euclid(std::f64::consts::TAU);
            }
        }
        out
    }

    /// Resets the accumulated phase to zero.
    pub fn reset(&mut self) {
        self.phase = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_lo_is_pure_tone() {
        let mut lo = LocalOscillator::ideal(Hertz::from_mhz(100.0));
        let mut rng = Rand::new(1);
        let fs = 1e9;
        let sig = lo.generate(4096, fs, &mut rng);
        let psd = uwb_dsp::psd::welch(&sig, fs, 1024, uwb_dsp::Window::Hann);
        assert!((psd.peak_frequency() - 100e6).abs() < fs / 1024.0);
        assert!(sig.iter().all(|z| (z.norm() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cfo_arithmetic() {
        let lo = LocalOscillator::with_impairments(Hertz::from_ghz(3.432), 20.0, 0.0);
        // 20 ppm of 3.432 GHz = 68.64 kHz.
        assert!((lo.cfo_hz() - 68_640.0).abs() < 1.0);
        assert!(lo.actual().as_hz() > lo.nominal().as_hz());
    }

    #[test]
    fn baseband_rotation_spins_at_cfo() {
        let mut lo = LocalOscillator::with_impairments(Hertz::from_ghz(1.0), 100.0, 0.0);
        let mut rng = Rand::new(2);
        let fs = 1e9;
        let dc = vec![Complex::ONE; 1000];
        let out = lo.baseband_rotation(&dc, fs, &mut rng);
        // Phase advances 2*pi*cfo/fs per sample = 2*pi*1e5/1e9.
        let expected_step = std::f64::consts::TAU * 1e5 / 1e9;
        let measured = (out[1] * out[0].conj()).arg();
        assert!((measured - expected_step).abs() < 1e-9);
    }

    #[test]
    fn phase_noise_decorrelates() {
        let mut lo = LocalOscillator::with_impairments(Hertz::from_ghz(1.0), 0.0, 1e6);
        let mut rng = Rand::new(3);
        let fs = 1e9;
        let dc = vec![Complex::ONE; 100_000];
        let out = lo.baseband_rotation(&dc, fs, &mut rng);
        // Average phasor magnitude decays with lag (coherence loss).
        let corr_short: Complex = (0..50_000)
            .map(|i| out[i + 10] * out[i].conj())
            .sum::<Complex>()
            / 50_000.0;
        let corr_long: Complex = (0..50_000)
            .map(|i| out[i + 40_000] * out[i].conj())
            .sum::<Complex>()
            / 50_000.0;
        assert!(corr_short.norm() > corr_long.norm(), "{} vs {}", corr_short.norm(), corr_long.norm());
    }

    #[test]
    fn reset_restores_phase() {
        let mut lo = LocalOscillator::ideal(Hertz::from_mhz(10.0));
        let mut rng = Rand::new(4);
        let a = lo.generate(16, 1e9, &mut rng);
        lo.reset();
        let b = lo.generate(16, 1e9, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "linewidth")]
    fn negative_linewidth_panics() {
        LocalOscillator::with_impairments(Hertz::from_ghz(1.0), 0.0, -1.0);
    }
}
