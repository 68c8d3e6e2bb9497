//! Automatic gain control.
//!
//! The ADCs have a fixed full-scale range; the AGC scales the analog signal
//! so the converter's dynamic range is used efficiently. Mis-set gain is one
//! of the mechanisms by which a strong narrowband interferer destroys a
//! low-resolution ADC's signal (paper §1 / their ref \[1\]): the AGC backs off
//! to avoid clipping the interferer and the wanted signal drops below one
//! LSB.

use uwb_dsp::{simd, Complex};

/// Feed-forward block AGC: measures power over a block and applies one gain.
#[derive(Debug, Clone, PartialEq)]
pub struct Agc {
    target_rms: f64,
    max_gain: f64,
    min_gain: f64,
    gain: f64,
}

impl Agc {
    /// Creates an AGC targeting the given RMS level with gain limits.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_gain <= max_gain` and `target_rms > 0`.
    pub fn new(target_rms: f64, min_gain: f64, max_gain: f64) -> Self {
        assert!(target_rms > 0.0, "target RMS must be positive");
        assert!(
            min_gain > 0.0 && min_gain <= max_gain,
            "need 0 < min_gain <= max_gain"
        );
        Agc {
            target_rms,
            max_gain,
            min_gain,
            gain: 1.0,
        }
    }

    /// An AGC for an ADC with full-scale ±1: targets RMS at −9 dBFS
    /// (crest-factor headroom for pulsed signals), 60 dB gain range.
    pub fn for_unit_adc() -> Self {
        Agc::new(0.355, 1e-3, 1e3)
    }

    /// The most recent gain applied.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Measures the block and applies the computed gain. A silent block
    /// keeps the previous gain.
    ///
    /// Thin allocating wrapper over [`Agc::process_in_place`] (kept for
    /// callers that want a fresh buffer; bit-identical — see the parity
    /// test).
    pub fn process(&mut self, signal: &[Complex]) -> Vec<Complex> {
        let mut out = signal.to_vec();
        self.process_in_place(&mut out);
        out
    }

    /// [`Agc::process`] mutating the signal in place (allocation-free) —
    /// the form the streaming chain and the per-trial workers use.
    ///
    /// Runs as two flat sweeps (a lane-split `|z|²` reduction, then a
    /// branch-free scale pass) that autovectorize; the reduction's fixed
    /// lane order is deterministic on every target (see [`uwb_dsp::simd`]).
    pub fn process_in_place(&mut self, signal: &mut [Complex]) {
        let p = simd::mean_power(signal);
        if p > 0.0 {
            self.gain = (self.target_rms / p.sqrt()).clamp(self.min_gain, self.max_gain);
        }
        simd::scale_in_place(signal, self.gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::rng::Rand;

    #[test]
    fn rms_converges_to_target() {
        let mut agc = Agc::new(0.5, 1e-3, 1e3);
        let mut rng = Rand::new(1);
        let sig = uwb_sim::awgn::complex_noise(10_000, 25.0, &mut rng); // RMS 5
        let out = agc.process(&sig);
        let rms_out = uwb_dsp::complex::mean_power(&out).sqrt();
        assert!((rms_out - 0.5).abs() < 0.02, "{rms_out}");
    }

    #[test]
    fn gain_limits_respected() {
        let mut agc = Agc::new(1.0, 0.5, 2.0);
        // Tiny signal wants gain >> 2: clamped.
        let tiny = vec![Complex::new(1e-6, 0.0); 100];
        agc.process(&tiny);
        assert_eq!(agc.gain(), 2.0);
        // Huge signal wants gain << 0.5: clamped.
        let huge = vec![Complex::new(1e6, 0.0); 100];
        agc.process(&huge);
        assert_eq!(agc.gain(), 0.5);
    }

    #[test]
    fn silence_keeps_gain() {
        let mut agc = Agc::for_unit_adc();
        let sig = vec![Complex::new(0.1, 0.0); 100];
        agc.process(&sig);
        let g = agc.gain();
        agc.process(&vec![Complex::ZERO; 100]);
        assert_eq!(agc.gain(), g);
    }

    #[test]
    fn in_place_matches_allocating_bitwise() {
        let mut rng = Rand::new(7);
        let sig = uwb_sim::awgn::complex_noise(512, 3.7, &mut rng);

        let mut a = Agc::for_unit_adc();
        let mut b = a.clone();
        let want = a.process(&sig);
        let mut buf = sig.clone();
        b.process_in_place(&mut buf);
        assert_eq!(buf, want);
        assert_eq!(a.gain(), b.gain());
    }

    #[test]
    #[should_panic(expected = "min_gain")]
    fn bad_limits_panic() {
        Agc::new(1.0, 2.0, 1.0);
    }
}
