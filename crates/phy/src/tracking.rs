//! Fine timing and carrier tracking.
//!
//! After coarse acquisition aligns to the sample grid, the "Fine Tracking" /
//! "PLL/DLL" blocks of Figs. 1 and 3 close two loops:
//!
//! * a delay-locked loop (early–late correlator discriminator) that tracks
//!   sub-sample timing drift between the transmit and receive clocks, and
//! * a decision-directed phase-locked loop that tracks residual carrier
//!   phase/CFO after direct conversion.

use uwb_dsp::resample::fractional_delay;
use uwb_dsp::Complex;

/// Early–late delay-locked loop.
#[derive(Debug, Clone)]
pub struct Dll {
    /// Discriminator spacing in samples (early/late offset from prompt).
    spacing: f64,
    /// First-order loop gain.
    gain: f64,
    /// Accumulated timing correction in samples.
    timing: f64,
}

impl Dll {
    /// Creates a DLL with the given early–late spacing (samples) and loop
    /// gain.
    ///
    /// # Panics
    ///
    /// Panics if `spacing <= 0` or `gain` is outside `(0, 1]`.
    pub fn new(spacing: f64, gain: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        Dll {
            spacing,
            gain,
            timing: 0.0,
        }
    }

    /// The current timing estimate in samples.
    pub fn timing(&self) -> f64 {
        self.timing
    }

    /// The early−late discriminator: correlates the template at
    /// `center ± spacing` and returns the normalized error (positive means
    /// the true peak is later than `center`).
    pub fn discriminant(&self, signal: &[Complex], template: &[Complex], center: f64) -> f64 {
        let early = correlate_at(signal, template, center - self.spacing + self.timing);
        let late = correlate_at(signal, template, center + self.spacing + self.timing);
        let (e, l) = (early.norm(), late.norm());
        if e + l > 0.0 {
            (l - e) / (e + l)
        } else {
            0.0
        }
    }

    /// Runs one loop update around `center`; returns the new timing
    /// estimate.
    pub fn update(&mut self, signal: &[Complex], template: &[Complex], center: f64) -> f64 {
        let err = self.discriminant(signal, template, center);
        self.timing += self.gain * err * self.spacing;
        self.timing
    }
}

/// Correlates `template` against `signal` starting at fractional offset
/// `start` (negative parts clipped), using sinc interpolation of the signal.
fn correlate_at(signal: &[Complex], template: &[Complex], start: f64) -> Complex {
    if signal.is_empty() || template.is_empty() {
        return Complex::ZERO;
    }
    let int_part = start.floor();
    let frac = start - int_part;
    // Shift the signal by -frac so integer indexing lands on `start`.
    let base = int_part as isize;
    if frac.abs() < 1e-12 {
        let mut acc = Complex::ZERO;
        for (j, &t) in template.iter().enumerate() {
            let idx = base + j as isize;
            if idx >= 0 && (idx as usize) < signal.len() {
                acc += signal[idx as usize] * t.conj();
            }
        }
        return acc;
    }
    // Window out the relevant region, fractionally delay, correlate.
    let lo = (base - 8).max(0) as usize;
    let hi = ((base + template.len() as isize + 8).max(0) as usize).min(signal.len());
    if lo >= hi {
        return Complex::ZERO;
    }
    let window = &signal[lo..hi];
    let shifted = fractional_delay(window, -frac, 6);
    let off = base - lo as isize;
    let mut acc = Complex::ZERO;
    for (j, &t) in template.iter().enumerate() {
        let idx = off + j as isize;
        if idx >= 0 && (idx as usize) < shifted.len() {
            acc += shifted[idx as usize] * t.conj();
        }
    }
    acc
}

/// First-order decision-directed PLL for residual carrier phase.
#[derive(Debug, Clone)]
pub struct Pll {
    gain: f64,
    phase: f64,
    freq: f64,
    freq_gain: f64,
}

impl Pll {
    /// Creates a second-order PLL (phase gain `gain`, frequency gain
    /// `gain²/4` — critically damped-ish).
    ///
    /// # Panics
    ///
    /// Panics if `gain` is outside `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        Pll {
            gain,
            phase: 0.0,
            freq: 0.0,
            freq_gain: gain * gain / 4.0,
        }
    }

    /// Current phase estimate (radians).
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Current frequency estimate (radians/update).
    pub fn frequency(&self) -> f64 {
        self.freq
    }

    /// De-rotates a symbol by the current estimate, then updates the loop
    /// from the decision error (BPSK decision-directed: error = angle from
    /// the nearer of 0/π).
    pub fn track(&mut self, symbol: Complex) -> Complex {
        let corrected = symbol * Complex::cis(-self.phase);
        // BPSK decision: fold to the right half-plane.
        let folded = if corrected.re >= 0.0 {
            corrected
        } else {
            -corrected
        };
        let err = folded.arg();
        self.freq += self.freq_gain * err;
        self.phase += self.gain * err + self.freq;
        corrected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pulse::PulseShape;
    use uwb_sim::time::SampleRate;

    fn pulse_template() -> Vec<Complex> {
        PulseShape::gen2_default().generate_complex(SampleRate::from_gsps(1.0))
    }

    fn delayed_signal(template: &[Complex], delay: f64) -> Vec<Complex> {
        let mut sig = vec![Complex::ZERO; 40];
        sig.extend_from_slice(template);
        sig.extend(vec![Complex::ZERO; 40]);
        fractional_delay(&sig, delay, 8)
    }

    #[test]
    fn correlate_at_integer_matches_direct() {
        let tpl = pulse_template();
        let sig = delayed_signal(&tpl, 0.0);
        let z = correlate_at(&sig, &tpl, 40.0);
        // Unit-energy template aligned: correlation = 1.
        assert!((z.norm() - 1.0).abs() < 0.01, "{}", z.norm());
    }

    #[test]
    fn discriminator_sign_tracks_offset() {
        let tpl = pulse_template();
        let dll = Dll::new(1.0, 0.5);
        // Signal delayed by +0.3 samples: true peak later than center 40.
        let sig = delayed_signal(&tpl, 0.3);
        let d_pos = dll.discriminant(&sig, &tpl, 40.0);
        assert!(d_pos > 0.01, "{d_pos}");
        let sig2 = delayed_signal(&tpl, -0.3);
        let d_neg = dll.discriminant(&sig2, &tpl, 40.0);
        assert!(d_neg < -0.01, "{d_neg}");
    }

    #[test]
    fn dll_converges_to_true_offset() {
        let tpl = pulse_template();
        let true_delay = 0.4;
        let sig = delayed_signal(&tpl, true_delay);
        let mut dll = Dll::new(1.0, 0.4);
        for _ in 0..30 {
            dll.update(&sig, &tpl, 40.0);
        }
        assert!(
            (dll.timing() - true_delay).abs() < 0.1,
            "converged to {} (true {true_delay})",
            dll.timing()
        );
    }

    #[test]
    fn dll_zero_error_at_alignment() {
        let tpl = pulse_template();
        let sig = delayed_signal(&tpl, 0.0);
        let dll = Dll::new(1.0, 0.5);
        let d = dll.discriminant(&sig, &tpl, 40.0);
        assert!(d.abs() < 0.02, "{d}");
    }

    #[test]
    fn pll_tracks_static_phase() {
        let mut pll = Pll::new(0.3);
        let offset = 0.6;
        let mut last = Complex::ZERO;
        for _ in 0..100 {
            last = pll.track(Complex::cis(offset));
        }
        // Corrected symbol converges to the real axis.
        assert!(last.arg().abs() < 0.05, "residual {}", last.arg());
        assert!((pll.phase() - offset).abs() < 0.05);
    }

    #[test]
    fn pll_tracks_frequency_ramp() {
        let mut pll = Pll::new(0.3);
        let dphi = 0.02; // rad per symbol
        let mut residuals = Vec::new();
        for k in 0..400 {
            let sym = Complex::cis(dphi * k as f64);
            let c = pll.track(sym);
            residuals.push(c.arg().abs());
        }
        let tail: f64 = residuals[300..].iter().sum::<f64>() / 100.0;
        assert!(tail < 0.05, "tail residual {tail}");
        assert!((pll.frequency() - dphi).abs() < 0.005);
    }

    #[test]
    fn pll_handles_bpsk_flips() {
        // Alternating ±1 symbols with a phase offset: decision-directed loop
        // must ignore the data flips.
        let mut pll = Pll::new(0.2);
        let offset = -0.4;
        let mut last = Complex::ZERO;
        for k in 0..200 {
            let data = if k % 2 == 0 { 1.0 } else { -1.0 };
            last = pll.track(Complex::cis(offset) * data);
        }
        let folded = if last.re >= 0.0 { last } else { -last };
        assert!(folded.arg().abs() < 0.05, "{}", folded.arg());
    }

    #[test]
    fn empty_inputs_give_zero() {
        assert_eq!(correlate_at(&[], &[Complex::ONE], 0.0), Complex::ZERO);
        assert_eq!(correlate_at(&[Complex::ONE], &[], 0.0), Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn bad_gain_panics() {
        Pll::new(0.0);
    }
}
