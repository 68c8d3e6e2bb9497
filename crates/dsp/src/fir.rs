//! FIR filter design (windowed-sinc) and filtering for real and complex
//! signals.

use crate::complex::Complex;
use crate::math::sinc;
use crate::window::Window;

/// A finite-impulse-response filter defined by its tap weights.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{FirFilter, Window};
///
/// // 500 MHz-wide lowpass at 2 GS/s (cutoff = fs/8).
/// let fir = FirFilter::lowpass(63, 0.125, Window::Hamming);
/// let dc: Vec<f64> = vec![1.0; 256];
/// let y = fir.filter_real(&dc);
/// // DC gain is 1 after the transient.
/// assert!((y[200] - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Creates a filter from explicit taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        FirFilter { taps }
    }

    /// Windowed-sinc lowpass. `cutoff` is the −6 dB edge as a fraction of the
    /// sample rate (`0 < cutoff < 0.5`). Taps are normalized for unit DC
    /// gain.
    ///
    /// # Panics
    ///
    /// Panics if `n_taps == 0` or `cutoff` is outside `(0, 0.5)`.
    pub fn lowpass(n_taps: usize, cutoff: f64, window: Window) -> Self {
        assert!(n_taps > 0, "FIR filter needs at least one tap");
        assert!(
            cutoff > 0.0 && cutoff < 0.5,
            "cutoff must be in (0, 0.5) of the sample rate"
        );
        let m = (n_taps - 1) as f64 / 2.0;
        let mut taps: Vec<f64> = (0..n_taps)
            .map(|k| {
                let t = k as f64 - m;
                2.0 * cutoff * sinc(2.0 * cutoff * t) * window.coefficient(k, n_taps)
            })
            .collect();
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        FirFilter { taps }
    }

    /// Windowed-sinc highpass via spectral inversion of a lowpass with the
    /// same cutoff. `n_taps` must be odd so the inversion has a center tap.
    ///
    /// # Panics
    ///
    /// Panics if `n_taps` is even or zero, or `cutoff` is outside `(0, 0.5)`.
    pub fn highpass(n_taps: usize, cutoff: f64, window: Window) -> Self {
        assert!(n_taps % 2 == 1, "highpass FIR needs an odd tap count");
        let lp = FirFilter::lowpass(n_taps, cutoff, window);
        let mut taps: Vec<f64> = lp.taps.iter().map(|t| -t).collect();
        taps[n_taps / 2] += 1.0;
        FirFilter { taps }
    }

    /// The tap weights.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false`; construction requires at least one tap.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Filters a real signal; output has the same length (transient included,
    /// i.e. "same" mode aligned to the start of the input).
    pub fn filter_real(&self, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; input.len()];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &h) in self.taps.iter().enumerate() {
                if i >= j {
                    acc += h * input[i - j];
                }
            }
            *o = acc;
        }
        out
    }

    /// Filters a complex signal (same convention as [`filter_real`]).
    ///
    /// [`filter_real`]: FirFilter::filter_real
    pub fn filter_complex(&self, input: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; input.len()];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (j, &h) in self.taps.iter().enumerate() {
                if i >= j {
                    acc += input[i - j] * h;
                }
            }
            *o = acc;
        }
        out
    }

    /// Complex frequency response at normalized frequency `f` (cycles per
    /// sample, `-0.5..0.5`).
    pub fn response_at(&self, f: f64) -> Complex {
        self.taps
            .iter()
            .enumerate()
            .map(|(k, &h)| Complex::cis(-std::f64::consts::TAU * f * k as f64) * h)
            .sum()
    }

    /// Magnitude response in dB at normalized frequency `f`.
    pub fn magnitude_db(&self, f: f64) -> f64 {
        20.0 * self.response_at(f).norm().log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::to_complex;

    #[test]
    fn lowpass_passes_dc_rejects_nyquist() {
        let fir = FirFilter::lowpass(101, 0.1, Window::Hamming);
        assert!((fir.magnitude_db(0.0)).abs() < 0.01);
        assert!(fir.magnitude_db(0.45) < -40.0);
        // -6 dB point near the cutoff.
        let at_cut = fir.magnitude_db(0.1);
        assert!(at_cut > -8.0 && at_cut < -4.0, "{at_cut}");
    }

    #[test]
    fn highpass_rejects_dc_passes_nyquist() {
        let fir = FirFilter::highpass(101, 0.2, Window::Hamming);
        assert!(fir.magnitude_db(0.0) < -40.0);
        assert!(fir.magnitude_db(0.45).abs() < 0.1);
    }

    #[test]
    fn filter_real_sine_attenuation() {
        let fir = FirFilter::lowpass(63, 0.1, Window::Hamming);
        let n = 1024;
        // A 0.3-cycles/sample tone should be strongly attenuated.
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 0.3 * i as f64).sin())
            .collect();
        let y = fir.filter_real(&x);
        let in_rms = crate::math::rms(&x[100..]);
        let out_rms = crate::math::rms(&y[100..]);
        assert!(out_rms / in_rms < 0.01, "{}", out_rms / in_rms);
    }

    #[test]
    fn complex_and_real_agree() {
        let fir = FirFilter::lowpass(31, 0.2, Window::Hann);
        let x: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let yr = fir.filter_real(&x);
        let yc = fir.filter_complex(&to_complex(&x));
        for (a, b) in yr.iter().zip(&yc) {
            assert!((a - b.re).abs() < 1e-12);
            assert!(b.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn bad_cutoff_panics() {
        FirFilter::lowpass(11, 0.7, Window::Hann);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_highpass_panics() {
        FirFilter::highpass(10, 0.2, Window::Hann);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_panic() {
        FirFilter::new(Vec::new());
    }
}
