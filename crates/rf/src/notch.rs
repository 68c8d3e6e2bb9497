//! Tunable notch filter steered by the spectral-monitoring block.
//!
//! Paper §3: "The digital back end detects the presence of an interferer and
//! estimates its frequency that may be used in the front end notch filter."
//! This is that front-end notch, modeled at complex baseband.

use uwb_dsp::{Biquad, Complex};
use uwb_sim::time::{Hertz, SampleRate};

/// A retunable complex-baseband notch filter.
///
/// Baseband frequencies can be negative (below the carrier); the filter
/// realizes the notch by frequency-shifting the signal so the interferer
/// lands at a fixed positive design frequency, notching, and shifting back.
#[derive(Debug, Clone)]
pub struct TunableNotch {
    fs: SampleRate,
    q: f64,
    center: Option<Hertz>,
}

impl TunableNotch {
    /// Creates a disengaged notch for signals at `fs`.
    ///
    /// # Panics
    ///
    /// Panics if `q <= 0`.
    pub fn new(fs: SampleRate, q: f64) -> Self {
        assert!(q > 0.0, "notch Q must be positive");
        TunableNotch {
            fs,
            q,
            center: None,
        }
    }

    /// Tunes the notch to a (possibly negative) baseband frequency.
    ///
    /// # Panics
    ///
    /// Panics if `|freq|` is not below Nyquist.
    pub fn tune(&mut self, freq: Hertz) {
        assert!(
            freq.as_hz().abs() < self.fs.as_hz() / 2.0,
            "notch frequency must be below Nyquist"
        );
        self.center = Some(freq);
    }

    /// The tuned center frequency, if engaged.
    pub fn center(&self) -> Option<Hertz> {
        self.center
    }

    /// Quality factor.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The sample rate the notch was designed for.
    pub fn sample_rate(&self) -> SampleRate {
        self.fs
    }

    /// Filters a complex baseband block. When disengaged, returns the input
    /// unchanged.
    pub fn process(&self, signal: &[Complex]) -> Vec<Complex> {
        let Some(center) = self.center else {
            return signal.to_vec();
        };
        // Move the interferer to the fixed design frequency fs/8, apply a
        // real-coefficient notch there, and move back. Using a fixed design
        // frequency keeps the biquad well-conditioned for any tuning, exactly
        // like an analog notch with a varactor-tuned center.
        let f_design = self.fs.as_hz() / 8.0;
        let shift = f_design - center.as_hz();
        let shifted = uwb_dsp::nco::frequency_shift(signal, shift, self.fs.as_hz());
        let mut notch = Biquad::notch(0.125, self.q);
        let notched = notch.process_complex(&shifted);
        uwb_dsp::nco::frequency_shift(&notched, -shift, self.fs.as_hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::complex::mean_power;
    use uwb_sim::rng::Rand;
    use uwb_sim::Interferer;

    fn fs() -> SampleRate {
        SampleRate::from_gsps(1.0)
    }

    #[test]
    fn bypass_is_identity() {
        let notch = TunableNotch::new(fs(), 30.0);
        let sig: Vec<Complex> = (0..64).map(|i| Complex::new(i as f64, -1.0)).collect();
        assert_eq!(notch.process(&sig), sig);
    }

    #[test]
    fn kills_tone_at_positive_offset() {
        let mut rng = Rand::new(1);
        let intf = Interferer::cw(120e6, 1.0);
        let tone = intf.generate(16_384, fs().as_hz(), &mut rng);
        let mut notch = TunableNotch::new(fs(), 30.0);
        notch.tune(Hertz::from_mhz(120.0));
        let out = notch.process(&tone);
        let residual = mean_power(&out[8192..]);
        assert!(residual < 0.01, "tone survived: {residual}");
    }

    #[test]
    fn kills_tone_at_negative_offset() {
        let mut rng = Rand::new(2);
        let intf = Interferer::cw(-200e6, 4.0);
        let tone = intf.generate(16_384, fs().as_hz(), &mut rng);
        let mut notch = TunableNotch::new(fs(), 30.0);
        notch.tune(Hertz::from_mhz(-200.0));
        let out = notch.process(&tone);
        let residual = mean_power(&out[8192..]);
        assert!(residual < 0.04, "tone survived: {residual}");
    }

    #[test]
    fn passes_offset_frequencies() {
        let mut rng = Rand::new(3);
        // Signal at +50 MHz, notch at -150 MHz: signal untouched.
        let sig_tone = Interferer::cw(50e6, 1.0).generate(16_384, fs().as_hz(), &mut rng);
        let mut notch = TunableNotch::new(fs(), 30.0);
        notch.tune(Hertz::from_mhz(-150.0));
        let out = notch.process(&sig_tone);
        let p = mean_power(&out[8192..]);
        assert!((p - 1.0).abs() < 0.05, "signal damaged: {p}");
    }

    #[test]
    fn retuning_follows_interferer() {
        let mut rng = Rand::new(4);
        let mut notch = TunableNotch::new(fs(), 30.0);
        for f_mhz in [-180.0, -40.0, 90.0, 210.0] {
            let tone =
                Interferer::cw(f_mhz * 1e6, 1.0).generate(16_384, fs().as_hz(), &mut rng);
            notch.tune(Hertz::from_mhz(f_mhz));
            assert_eq!(notch.center(), Some(Hertz::from_mhz(f_mhz)));
            let out = notch.process(&tone);
            let residual = mean_power(&out[8192..]);
            assert!(residual < 0.05, "tone at {f_mhz} MHz survived: {residual}");
        }
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn tune_beyond_nyquist_panics() {
        TunableNotch::new(fs(), 10.0).tune(Hertz::from_mhz(600.0));
    }

    #[test]
    #[should_panic(expected = "Q must be positive")]
    fn bad_q_panics() {
        TunableNotch::new(fs(), 0.0);
    }
}
