//! Low-noise amplifier behavioral model.
//!
//! The paper's §1 requires the RF front end to "meet the specifications on
//! noise figure and linearity over a bandwidth larger than 500 MHz". This
//! model captures exactly those two axes: a gain + third-order memoryless
//! nonlinearity (set by IIP3) and an equivalent input noise (set by NF).

use uwb_dsp::math::{db_to_amp, db_to_pow};
use uwb_sim::rng::Rand;

/// Behavioral LNA: linear gain, third-order compression, input-referred
/// noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Lna {
    /// Power gain in dB.
    pub gain_db: f64,
    /// Noise figure in dB.
    pub nf_db: f64,
    /// Input-referred third-order intercept point in dBm (50 Ω convention:
    /// 0 dBm ≙ amplitude 0.3162 V here normalized to power = amplitude²).
    pub iip3_dbm: f64,
}

impl Lna {
    /// A typical 3.1–10.6 GHz UWB LNA: 15 dB gain, 4 dB NF, −6 dBm IIP3.
    pub fn uwb_default() -> Self {
        Lna {
            gain_db: 15.0,
            nf_db: 4.0,
            iip3_dbm: -6.0,
        }
    }

    /// Amplitude gain (linear).
    fn gain_linear(&self) -> f64 {
        db_to_amp(self.gain_db)
    }

    /// The third-order coefficient `c3` such that
    /// `y = g (x − c3 x³)`; derived from `IIP3` via
    /// `c3 = 4 / (3 A_ip3²)` with `A_ip3² = 2 * P_ip3` (peak amplitude of a
    /// sinusoid carrying `P_ip3` average power, normalized units where
    /// 0 dBm ⇒ P = 1).
    fn c3(&self) -> f64 {
        let p_ip3 = db_to_pow(self.iip3_dbm); // normalized power (1.0 = 0 dBm)
        let a_ip3_sq = 2.0 * p_ip3;
        4.0 / (3.0 * a_ip3_sq)
    }

    /// Amplifies a real passband signal with gain, compression, and
    /// NF-derived noise referenced to `noise_power_in` (the thermal noise
    /// power in the signal bandwidth at the input, linear units).
    ///
    /// The AM-AM curve is the third-order polynomial `g·(x − c3·x³)` up to
    /// the polynomial's own peak, then holds that level (hard saturation) —
    /// a cubic extrapolated past its monotonic region would non-physically
    /// re-expand and invert.
    pub fn amplify_real(&self, input: &[f64], noise_power_in: f64, rng: &mut Rand) -> Vec<f64> {
        let g = self.gain_linear();
        let c3 = self.c3();
        // The cubic g(x - c3 x^3) peaks at x_sat = 1/sqrt(3 c3).
        let x_sat = 1.0 / (3.0 * c3).sqrt();
        let y_sat = g * (2.0 / 3.0) * x_sat;
        // Excess noise added by the LNA, input-referred: (F-1) * N_in.
        let excess = (db_to_pow(self.nf_db) - 1.0) * noise_power_in;
        let sigma = excess.max(0.0).sqrt();
        input
            .iter()
            .map(|&x| {
                let xn = x + sigma * rng.gaussian();
                if xn.abs() >= x_sat {
                    y_sat * xn.signum()
                } else {
                    g * (xn - c3 * xn * xn * xn)
                }
            })
            .collect()
    }
}

impl Default for Lna {
    fn default() -> Self {
        Lna::uwb_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::math::{amp_to_db, rms};

    #[test]
    fn small_signal_gain() {
        let lna = Lna {
            gain_db: 20.0,
            nf_db: 0.0,
            iip3_dbm: 100.0, // essentially linear
        };
        let mut rng = Rand::new(1);
        let x: Vec<f64> = (0..1000).map(|i| 1e-3 * (i as f64 * 0.1).sin()).collect();
        let y = lna.amplify_real(&x, 0.0, &mut rng);
        let g = amp_to_db(rms(&y) / rms(&x));
        assert!((g - 20.0).abs() < 0.01, "{g}");
    }

    #[test]
    fn compression_at_large_signal() {
        let lna = Lna {
            gain_db: 10.0,
            nf_db: 0.0,
            iip3_dbm: -10.0,
        };
        let mut rng = Rand::new(2);
        // Drive near the compression region.
        let a = 0.2; // power 0.02 = -17 dBm-ish, below IIP3 but compressing
        let x: Vec<f64> = (0..4000).map(|i| a * (i as f64 * 0.3).sin()).collect();
        let y = lna.amplify_real(&x, 0.0, &mut rng);
        let g = amp_to_db(rms(&y) / rms(&x));
        assert!(g < 10.0, "gain should compress: {g}");
        assert!(g > 5.0, "but not collapse: {g}");
    }

    #[test]
    fn third_order_products_appear() {
        // Two tones in, intermod products out.
        let lna = Lna {
            gain_db: 0.0,
            nf_db: 0.0,
            iip3_dbm: 0.0,
        };
        let mut rng = Rand::new(3);
        let n = 4096;
        let (f1, f2) = (0.11, 0.13);
        let x: Vec<f64> = (0..n)
            .map(|i| {
                0.1 * ((std::f64::consts::TAU * f1 * i as f64).cos()
                    + (std::f64::consts::TAU * f2 * i as f64).cos())
            })
            .collect();
        let y = lna.amplify_real(&x, 0.0, &mut rng);
        let psd = uwb_dsp::psd::periodogram_real(&y, 1.0, uwb_dsp::Window::Blackman);
        // IM3 at 2*f1 - f2 = 0.09.
        let im3 = psd.value_at(0.09);
        let carrier = psd.value_at(0.11);
        assert!(im3 > 0.0);
        let ratio_db = 10.0 * (carrier / im3).log10();
        // Should be well above the numeric floor but visible (20..80 dB).
        assert!(ratio_db > 15.0 && ratio_db < 90.0, "IM3 ratio {ratio_db}");
    }

    #[test]
    fn noise_added_per_nf() {
        let lna = Lna {
            gain_db: 0.0,
            nf_db: 3.0103, // F = 2 -> excess = N_in
            iip3_dbm: 100.0,
        };
        let mut rng = Rand::new(4);
        let silence = vec![0.0; 200_000];
        let y = lna.amplify_real(&silence, 0.01, &mut rng);
        let p = uwb_dsp::complex::mean_power_real(&y);
        assert!((p - 0.01).abs() / 0.01 < 0.05, "{p}");
    }
}
