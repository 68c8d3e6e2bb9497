//! Direct-conversion up/downconversion — the architecture in the paper's
//! title.
//!
//! [`Upconverter`] translates a 500 MHz-wide complex baseband pulse stream to
//! a real passband signal on one of the 14 channels; [`DirectConversionRx`]
//! mixes a real passband signal with quadrature LOs straight to baseband
//! (zero-IF: no image filter, no IF chain), applies the anti-alias lowpass,
//! and models the classic direct-conversion impairments: I/Q gain & phase
//! imbalance and DC offset (self-mixing).

use crate::lo::LocalOscillator;
use uwb_dsp::{BiquadCascade, Complex, Nco};
use uwb_sim::rng::Rand;
use uwb_sim::time::{Hertz, SampleRate};

/// Quadrature upconverter: complex baseband → real passband.
#[derive(Debug, Clone)]
pub struct Upconverter {
    carrier: Hertz,
}

impl Upconverter {
    /// Creates an upconverter to the given carrier.
    pub fn new(carrier: Hertz) -> Self {
        Upconverter { carrier }
    }

    /// The carrier frequency.
    pub fn carrier(&self) -> Hertz {
        self.carrier
    }

    /// Produces `Re{ x(t) · e^{+i 2π f_c t} } · √2` at sample rate `fs`
    /// (the √2 keeps passband power equal to baseband power).
    ///
    /// # Panics
    ///
    /// Panics if `fs` violates Nyquist for the carrier plus baseband content.
    pub fn upconvert(&self, baseband: &[Complex], fs: SampleRate) -> Vec<f64> {
        assert!(
            self.carrier.as_hz() < fs.as_hz() / 2.0,
            "carrier must be below Nyquist"
        );
        let mut nco = Nco::new(self.carrier.as_hz(), fs.as_hz());
        baseband
            .iter()
            .map(|&z| {
                let c = nco.next_complex();
                (z * c).re * std::f64::consts::SQRT_2
            })
            .collect()
    }
}

/// Direct-conversion impairments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqImpairments {
    /// Gain imbalance between I and Q rails in dB (Q relative to I).
    pub gain_imbalance_db: f64,
    /// Quadrature phase error in degrees (deviation from 90°).
    pub phase_error_deg: f64,
    /// Static DC offset added to each rail (fraction of full scale).
    pub dc_offset_i: f64,
    /// DC offset on the Q rail.
    pub dc_offset_q: f64,
}

impl IqImpairments {
    /// No impairments.
    pub fn ideal() -> Self {
        IqImpairments {
            gain_imbalance_db: 0.0,
            phase_error_deg: 0.0,
            dc_offset_i: 0.0,
            dc_offset_q: 0.0,
        }
    }

    /// A realistic 0.18 µm-era direct-conversion front end: 0.5 dB gain
    /// imbalance, 3° phase error, 2 % DC offset.
    pub fn typical() -> Self {
        IqImpairments {
            gain_imbalance_db: 0.5,
            phase_error_deg: 3.0,
            dc_offset_i: 0.02,
            dc_offset_q: -0.015,
        }
    }

    /// Image-rejection ratio (dB) implied by the gain/phase imbalance:
    /// `IRR = −10 log10[(g² − 2g cosφ + 1) / (g² + 2g cosφ + 1)]`.
    pub fn image_rejection_db(&self) -> f64 {
        let g = uwb_dsp::math::db_to_amp(self.gain_imbalance_db);
        let phi = self.phase_error_deg.to_radians();
        let num = g * g - 2.0 * g * phi.cos() + 1.0;
        let den = g * g + 2.0 * g * phi.cos() + 1.0;
        -10.0 * (num / den).log10()
    }
}

impl Default for IqImpairments {
    fn default() -> Self {
        IqImpairments::ideal()
    }
}

/// Direct-conversion (zero-IF) receiver front end.
#[derive(Debug, Clone)]
pub struct DirectConversionRx {
    lo: LocalOscillator,
    impairments: IqImpairments,
    /// Baseband lowpass cutoff.
    lpf_cutoff: Hertz,
    lpf_sections: usize,
}

impl DirectConversionRx {
    /// A receiver for a 500 MHz channel at `carrier`: ideal LO, 250 MHz
    /// single-sided baseband lowpass, 3 biquad sections.
    pub fn new(carrier: Hertz) -> Self {
        DirectConversionRx {
            lo: LocalOscillator::ideal(carrier),
            impairments: IqImpairments::ideal(),
            lpf_cutoff: Hertz::from_mhz(280.0),
            lpf_sections: 3,
        }
    }

    /// Replaces the LO (e.g. to add CFO/phase noise).
    pub fn with_lo(mut self, lo: LocalOscillator) -> Self {
        self.lo = lo;
        self
    }

    /// Sets the I/Q impairments.
    pub fn with_impairments(mut self, imp: IqImpairments) -> Self {
        self.impairments = imp;
        self
    }

    /// The configured impairments.
    pub fn impairments(&self) -> &IqImpairments {
        &self.impairments
    }

    /// Downconverts a real passband signal at `fs` to complex baseband at
    /// the same rate (decimate separately if desired).
    ///
    /// The mixer applies `√2 · x(t) · e^{−i 2π f_lo t}` (with the impaired
    /// quadrature splitter), then the baseband lowpass removes the 2·f_c
    /// image.
    ///
    /// # Panics
    ///
    /// Panics if `fs` violates Nyquist for the LO frequency.
    pub fn downconvert(
        &mut self,
        passband: &[f64],
        fs: SampleRate,
        rng: &mut Rand,
    ) -> Vec<Complex> {
        assert!(
            self.lo.nominal().as_hz() < fs.as_hz() / 2.0,
            "LO must be below Nyquist"
        );
        let imp = self.impairments;
        let g_q = uwb_dsp::math::db_to_amp(imp.gain_imbalance_db);
        let phi = imp.phase_error_deg.to_radians();
        let lo_phasors = self.lo.generate(passband.len(), fs.as_hz(), rng);

        // Impaired quadrature mixing: I uses cos(θ), Q uses -g·sin(θ+φ).
        let mixed: Vec<Complex> = passband
            .iter()
            .zip(&lo_phasors)
            .map(|(&x, lo)| {
                let theta = lo.arg();
                let i = x * theta.cos() * std::f64::consts::SQRT_2;
                let q = -x * g_q * (theta + phi).sin() * std::f64::consts::SQRT_2;
                Complex::new(i + imp.dc_offset_i, q + imp.dc_offset_q)
            })
            .collect();

        // Baseband anti-alias / image-reject lowpass.
        let fc = fs.normalize(self.lpf_cutoff).min(0.49);
        let mut lpf = BiquadCascade::butterworth_lowpass(self.lpf_sections, fc);
        lpf.process_complex(&mixed)
    }
}

/// Removes the residual DC offset by subtracting the complex mean — the
/// standard digital fix-up for direct conversion receivers.
pub fn remove_dc(signal: &[Complex]) -> Vec<Complex> {
    if signal.is_empty() {
        return Vec::new();
    }
    let mean = signal.iter().copied().sum::<Complex>() / signal.len() as f64;
    signal.iter().map(|&z| z - mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 32e9;

    fn fs() -> SampleRate {
        SampleRate::new(FS)
    }

    fn test_pulse_baseband(n: usize) -> Vec<Complex> {
        // A smooth complex baseband burst ~ 100 MHz wide.
        (0..n)
            .map(|i| {
                let t = (i as f64 - n as f64 / 2.0) / (n as f64 / 8.0);
                Complex::new((-t * t).exp(), 0.0)
            })
            .collect()
    }

    #[test]
    fn up_down_round_trip_recovers_pulse() {
        let carrier = Hertz::from_ghz(5.0);
        let bb = test_pulse_baseband(2048);
        let up = Upconverter::new(carrier);
        let pass = up.upconvert(&bb, fs());
        let mut rx = DirectConversionRx::new(carrier);
        let mut rng = Rand::new(1);
        let down = rx.downconvert(&pass, fs(), &mut rng);
        // Correlate against the original to confirm recovery.
        let corr = uwb_dsp::correlation::cross_correlate(&down, &bb);
        let (_, peak) = uwb_dsp::correlation::peak(&corr).unwrap();
        let bb_energy: f64 = bb.iter().map(|z| z.norm_sqr()).sum();
        assert!(
            peak > 0.8 * bb_energy,
            "recovered correlation {peak} vs energy {bb_energy}"
        );
    }

    #[test]
    fn passband_power_matches_baseband_power() {
        let carrier = Hertz::from_ghz(4.0);
        let bb = vec![Complex::ONE; 8192];
        let pass = Upconverter::new(carrier).upconvert(&bb, fs());
        let p = uwb_dsp::complex::mean_power_real(&pass);
        assert!((p - 1.0).abs() < 0.01, "{p}");
    }

    #[test]
    fn passband_centered_at_carrier() {
        let carrier = Hertz::from_ghz(5.0);
        let bb = test_pulse_baseband(4096);
        let pass = Upconverter::new(carrier).upconvert(&bb, fs());
        let psd = uwb_dsp::psd::welch_real(&pass, FS, 2048, uwb_dsp::Window::Hann);
        assert!(
            (psd.peak_frequency().abs() - 5.0e9).abs() < 5e8,
            "peak at {}",
            psd.peak_frequency()
        );
    }

    #[test]
    fn dc_offset_shows_and_removes() {
        let carrier = Hertz::from_ghz(4.0);
        let bb = test_pulse_baseband(2048);
        let pass = Upconverter::new(carrier).upconvert(&bb, fs());
        let mut rx = DirectConversionRx::new(carrier).with_impairments(IqImpairments {
            dc_offset_i: 0.1,
            dc_offset_q: -0.05,
            ..IqImpairments::ideal()
        });
        let mut rng = Rand::new(2);
        let down = rx.downconvert(&pass, fs(), &mut rng);
        let mean = down.iter().copied().sum::<Complex>() / down.len() as f64;
        assert!(mean.norm() > 0.05, "DC offset missing: {mean}");
        let clean = remove_dc(&down);
        let mean2 = clean.iter().copied().sum::<Complex>() / clean.len() as f64;
        assert!(mean2.norm() < 1e-9);
    }

    #[test]
    fn image_rejection_formula() {
        let ideal = IqImpairments::ideal();
        assert!(ideal.image_rejection_db() > 100.0);
        let typ = IqImpairments::typical();
        let irr = typ.image_rejection_db();
        // 0.5 dB / 3 deg -> ~ 25-35 dB IRR.
        assert!(irr > 20.0 && irr < 40.0, "IRR {irr}");
    }

    #[test]
    fn cfo_lo_rotates_constellation() {
        let carrier = Hertz::from_ghz(4.0);
        let bb = vec![Complex::ONE; 16_384];
        let pass = Upconverter::new(carrier).upconvert(&bb, fs());
        let lo = LocalOscillator::with_impairments(carrier, 50.0, 0.0); // 50 ppm
        let mut rx = DirectConversionRx::new(carrier).with_lo(lo);
        let mut rng = Rand::new(3);
        let down = rx.downconvert(&pass, fs(), &mut rng);
        // Phase at the end differs from phase at the start.
        let early = down[2000].arg();
        let late = down[14_000].arg();
        assert!((late - early).abs() > 0.01, "no rotation: {early} {late}");
    }

    #[test]
    fn empty_remove_dc() {
        assert!(remove_dc(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn carrier_above_nyquist_panics() {
        Upconverter::new(Hertz::from_ghz(20.0)).upconvert(&[Complex::ONE], fs());
    }
}
