//! Behavioral model of the planar elliptical UWB antenna (paper Fig. 2).
//!
//! The physical antenna (42 mm × 27 mm elliptical dipole, Powell &
//! Chandrakasan 2004) cannot be reproduced in software; what matters to the
//! receiver — per the paper's §1, "the impulse responses of both the antenna
//! and the RF front-end add to that of the channel" — is that the antenna is
//! a band-pass element whose ringing extends the composite impulse response.
//! We model it as a Butterworth band-pass over 3.1–10.6 GHz whose impulse
//! response is convolved into the passband signal path.

use crate::time::{Hertz, SampleRate};
use uwb_dsp::{Biquad, BiquadCascade};

/// Band-pass behavioral model of the UWB antenna.
#[derive(Debug, Clone)]
pub struct Antenna {
    low_edge: Hertz,
    high_edge: Hertz,
    order_sections: usize,
}

impl Antenna {
    /// The paper's antenna: passband 3.1–10.6 GHz, 2 high-pass + 2 low-pass
    /// biquad sections (4th-order edges).
    pub fn uwb_elliptical() -> Self {
        Antenna {
            low_edge: Hertz::from_ghz(3.1),
            high_edge: Hertz::from_ghz(10.6),
            order_sections: 2,
        }
    }

    /// Lower −3 dB edge.
    pub fn low_edge(&self) -> Hertz {
        self.low_edge
    }

    /// Upper −3 dB edge.
    pub fn high_edge(&self) -> Hertz {
        self.high_edge
    }

    /// Builds the band-pass filter for a given (real passband) sample rate.
    ///
    /// # Panics
    ///
    /// Panics if `fs` does not satisfy Nyquist for the upper band edge.
    fn build_filter(&self, fs: SampleRate) -> BiquadCascade {
        let f_hi = fs.normalize(self.high_edge);
        let f_lo = fs.normalize(self.low_edge);
        assert!(
            f_hi < 0.5,
            "sample rate {fs} too low for the antenna's {} upper edge",
            self.high_edge
        );
        let q = std::f64::consts::FRAC_1_SQRT_2;
        let mut sections = Vec::new();
        for _ in 0..self.order_sections {
            sections.push(Biquad::highpass(f_lo, q));
            sections.push(Biquad::lowpass(f_hi, q));
        }
        BiquadCascade::new(sections)
    }

    /// Applies the antenna response to a real passband signal sampled at
    /// `fs`.
    ///
    /// # Panics
    ///
    /// Panics if `fs` does not satisfy Nyquist for the upper band edge.
    pub fn apply(&self, signal: &[f64], fs: SampleRate) -> Vec<f64> {
        self.build_filter(fs).process(signal)
    }

    /// Magnitude response (dB) at frequency `f` for sample rate `fs`.
    pub fn magnitude_db(&self, f: Hertz, fs: SampleRate) -> f64 {
        self.build_filter(fs).magnitude_db(fs.normalize(f))
    }
}

impl Default for Antenna {
    fn default() -> Self {
        Antenna::uwb_elliptical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 32e9;

    fn fs() -> SampleRate {
        SampleRate::new(FS)
    }

    #[test]
    fn passband_flat_stopband_rejects() {
        let ant = Antenna::uwb_elliptical();
        // Mid-band ~ 6 GHz: low loss.
        let mid = ant.magnitude_db(Hertz::from_ghz(6.0), fs());
        assert!(mid > -3.0, "mid-band loss {mid}");
        // Deep out-of-band: strong rejection.
        let low = ant.magnitude_db(Hertz::from_ghz(0.5), fs());
        assert!(low < -25.0, "LF rejection {low}");
        let hi = ant.magnitude_db(Hertz::from_ghz(15.0), fs());
        assert!(hi < -8.0, "HF rejection {hi}");
    }

    #[test]
    fn apply_bandlimits_a_dc_step() {
        let ant = Antenna::uwb_elliptical();
        let step = vec![1.0; 2048];
        let out = ant.apply(&step, fs());
        // DC is blocked: tail of the output decays toward zero.
        let tail = &out[1536..];
        let tail_rms = uwb_dsp::math::rms(tail);
        assert!(tail_rms < 0.05, "DC leaked: {tail_rms}");
    }

    #[test]
    fn tone_in_band_passes() {
        let ant = Antenna::uwb_elliptical();
        let f0 = 5.0e9;
        let n = 8192;
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f0 * i as f64 / FS).sin())
            .collect();
        let y = ant.apply(&x, fs());
        let gain = uwb_dsp::math::rms(&y[n / 2..]) / uwb_dsp::math::rms(&x[n / 2..]);
        assert!(gain > 0.7, "in-band gain {gain}");
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn nyquist_violation_panics() {
        Antenna::uwb_elliptical().apply(&[0.0; 4], SampleRate::from_gsps(2.0));
    }
}
