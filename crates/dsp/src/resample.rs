//! Sample-rate conversion and fractional delay.
//!
//! The retiming block of the paper's receiver (Fig. 3) must align the ADC
//! sample grid with the pulse grid; these helpers provide integer
//! up/downsampling with anti-alias filtering and sub-sample delay via
//! windowed-sinc interpolation.

use crate::complex::Complex;
use crate::fir::FirFilter;
use crate::math::sinc;
use crate::window::Window;

/// Inserts `factor - 1` zeros between samples (no filtering).
///
/// # Panics
///
/// Panics if `factor == 0`.
fn upsample_zero_stuff(signal: &[Complex], factor: usize) -> Vec<Complex> {
    assert!(factor > 0, "upsampling factor must be positive");
    let mut out = vec![Complex::ZERO; signal.len() * factor];
    for (i, &x) in signal.iter().enumerate() {
        out[i * factor] = x;
    }
    out
}

/// Upsamples by `factor` with a windowed-sinc anti-image filter.
///
/// The interpolation filter has `taps_per_phase * factor` taps and is scaled
/// by `factor` to preserve amplitude.
///
/// # Panics
///
/// Panics if `factor == 0` or `taps_per_phase == 0`.
pub fn upsample(signal: &[Complex], factor: usize, taps_per_phase: usize) -> Vec<Complex> {
    assert!(factor > 0 && taps_per_phase > 0);
    if factor == 1 {
        return signal.to_vec();
    }
    let stuffed = upsample_zero_stuff(signal, factor);
    let n_taps = taps_per_phase * factor + 1;
    let fir = FirFilter::lowpass(n_taps, 0.5 / factor as f64 * 0.9, Window::Kaiser(8.0));
    fir.filter_complex(&stuffed)
        .iter()
        .map(|&z| z * factor as f64)
        .collect()
}

/// Decimates by `factor` after a windowed-sinc anti-alias filter.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn decimate(signal: &[Complex], factor: usize) -> Vec<Complex> {
    assert!(factor > 0, "decimation factor must be positive");
    if factor == 1 {
        return signal.to_vec();
    }
    let n_taps = 8 * factor + 1;
    let fir = FirFilter::lowpass(n_taps, 0.5 / factor as f64 * 0.9, Window::Kaiser(8.0));
    let filtered = fir.filter_complex(signal);
    filtered.iter().step_by(factor).copied().collect()
}

/// Applies a fractional delay of `delay` samples (may exceed 1) using a
/// windowed-sinc interpolator with `2 * half_taps` taps.
///
/// Output has the same length as the input; samples that would reference
/// beyond either end are computed from the available neighbourhood only.
///
/// # Panics
///
/// Panics if `half_taps == 0`.
pub fn fractional_delay(signal: &[Complex], delay: f64, half_taps: usize) -> Vec<Complex> {
    assert!(half_taps > 0, "need at least one tap per side");
    let n = signal.len();
    let int_part = delay.floor() as isize;
    let frac = delay - delay.floor();
    let mut out = vec![Complex::ZERO; n];
    for (i, o) in out.iter_mut().enumerate() {
        // y[i] = x(i - delay) interpolated.
        let center = i as isize - int_part;
        let mut acc = Complex::ZERO;
        for k in -(half_taps as isize)..=(half_taps as isize) {
            let idx = center + k;
            if idx < 0 || idx >= n as isize {
                continue;
            }
            let t = k as f64 + frac;
            let w = {
                // Hann-windowed sinc.
                let x = (k as f64 + frac) / (half_taps as f64 + 1.0);
                if x.abs() >= 1.0 {
                    0.0
                } else {
                    0.5 * (1.0 + (std::f64::consts::PI * x).cos())
                }
            };
            acc += signal[idx as usize] * (sinc(t) * w);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::to_complex;

    fn tone(n: usize, f: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(std::f64::consts::TAU * f * i as f64))
            .collect()
    }

    #[test]
    fn zero_stuffing_layout() {
        let x = to_complex(&[1.0, 2.0]);
        let y = upsample_zero_stuff(&x, 3);
        assert_eq!(y.len(), 6);
        assert_eq!(y[0].re, 1.0);
        assert_eq!(y[1], Complex::ZERO);
        assert_eq!(y[3].re, 2.0);
    }

    #[test]
    fn upsample_preserves_tone_frequency_and_amplitude() {
        let f = 0.05; // cycles/sample at the low rate
        let x = tone(256, f);
        let factor = 4;
        let y = upsample(&x, factor, 8);
        assert_eq!(y.len(), 256 * factor);
        // After the filter transient the upsampled tone sits at f/4 with ~unit amplitude.
        let tail = &y[y.len() / 2..];
        let mean_amp: f64 = tail.iter().map(|z| z.norm()).sum::<f64>() / tail.len() as f64;
        assert!((mean_amp - 1.0).abs() < 0.05, "{mean_amp}");
    }

    #[test]
    fn decimate_then_content_preserved() {
        let f = 0.02;
        let x = tone(1024, f);
        let y = decimate(&x, 4);
        assert_eq!(y.len(), 256);
        let tail = &y[128..];
        let mean_amp: f64 = tail.iter().map(|z| z.norm()).sum::<f64>() / tail.len() as f64;
        assert!((mean_amp - 1.0).abs() < 0.05, "{mean_amp}");
    }

    #[test]
    fn decimate_rejects_alias() {
        // Tone above the post-decimation Nyquist must be attenuated, not aliased.
        let f = 0.2; // would alias to 0.8 cycles at factor 4
        let x = tone(2048, f);
        let y = decimate(&x, 4);
        let tail = &y[256..];
        let mean_amp: f64 = tail.iter().map(|z| z.norm()).sum::<f64>() / tail.len() as f64;
        assert!(mean_amp < 0.02, "alias leaked: {mean_amp}");
    }

    #[test]
    fn factor_one_is_identity() {
        let x = tone(16, 0.1);
        assert_eq!(upsample(&x, 1, 4), x);
        assert_eq!(decimate(&x, 1), x);
    }

    #[test]
    fn fractional_delay_integer_case() {
        let x = to_complex(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let y = fractional_delay(&x, 2.0, 4);
        // Impulse moves from index 2 to index 4.
        let mags: Vec<f64> = y.iter().map(|z| z.norm()).collect();
        assert_eq!(crate::math::argmax(&mags), Some(4));
        assert!((mags[4] - 1.0).abs() < 0.01);
    }

    #[test]
    fn fractional_delay_half_sample_on_tone() {
        let f = 0.05;
        let n = 256;
        let x = tone(n, f);
        let y = fractional_delay(&x, 0.5, 8);
        // Mid-signal phase difference should be ~2*pi*f*0.5 radians.
        let expected = -std::f64::consts::TAU * f * 0.5;
        let measured = (y[128] * x[128].conj()).arg();
        assert!(
            (measured - expected).abs() < 0.01,
            "{measured} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        decimate(&[Complex::ONE], 0);
    }
}
