//! Power spectral density estimation.
//!
//! Periodogram and Welch estimators, used for the FCC mask checker, Fig. 4
//! spectrum reproduction, and the receiver's spectral-monitoring block.

use crate::complex::Complex;
use crate::fft::{bin_frequency, Fft};
use crate::math::next_pow2;
use crate::window::Window;

/// A one-sided or two-sided PSD estimate with its frequency axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Frequency of each bin in hertz (two-sided: `(-fs/2, fs/2]` unshifted
    /// order; use [`Psd::sorted`] for a monotonic axis).
    pub freqs: Vec<f64>,
    /// Power spectral density in linear units per hertz (V²/Hz for a voltage
    /// signal across 1 Ω).
    pub values: Vec<f64>,
    /// Sample rate used for the estimate.
    pub fs: f64,
}

impl Psd {
    /// Returns `(freqs, values)` sorted by ascending frequency.
    pub fn sorted(&self) -> (Vec<f64>, Vec<f64>) {
        let mut idx: Vec<usize> = (0..self.freqs.len()).collect();
        idx.sort_by(|&a, &b| self.freqs[a].total_cmp(&self.freqs[b]));
        (
            idx.iter().map(|&i| self.freqs[i]).collect(),
            idx.iter().map(|&i| self.values[i]).collect(),
        )
    }

    /// PSD value (linear) at the bin nearest to `freq_hz`.
    pub fn value_at(&self, freq_hz: f64) -> f64 {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &f) in self.freqs.iter().enumerate() {
            let d = (f - freq_hz).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        self.values[best]
    }

    /// Total power: integral of the PSD over frequency.
    #[cfg(test)]
    fn total_power(&self) -> f64 {
        let df = self.fs / self.freqs.len() as f64;
        self.values.iter().sum::<f64>() * df
    }

    /// Frequency of the strongest bin.
    pub fn peak_frequency(&self) -> f64 {
        let k = crate::math::argmax(&self.values).unwrap_or(0);
        self.freqs[k]
    }

    /// Occupied bandwidth: width of the smallest contiguous band around the
    /// peak containing `fraction` (e.g. `0.99`) of the total power.
    /// Returns 0 for degenerate inputs.
    pub fn occupied_bandwidth(&self, fraction: f64) -> f64 {
        let (freqs, vals) = self.sorted();
        let total: f64 = vals.iter().sum();
        if total <= 0.0 || freqs.len() < 2 {
            return 0.0;
        }
        let peak = crate::math::argmax(&vals).unwrap_or(0);
        let mut lo = peak;
        let mut hi = peak;
        let mut acc = vals[peak];
        while acc < fraction * total && (lo > 0 || hi + 1 < vals.len()) {
            let left = if lo > 0 { vals[lo - 1] } else { -1.0 };
            let right = if hi + 1 < vals.len() { vals[hi + 1] } else { -1.0 };
            if left >= right {
                lo -= 1;
                acc += vals[lo];
            } else {
                hi += 1;
                acc += vals[hi];
            }
        }
        freqs[hi] - freqs[lo]
    }

    /// −`db` bandwidth around the peak: distance between the first
    /// frequencies on either side of the peak where the PSD falls `db`
    /// decibels below the peak value.
    pub fn bandwidth_below_peak(&self, db: f64) -> f64 {
        let (freqs, vals) = self.sorted();
        if vals.is_empty() {
            return 0.0;
        }
        let peak = crate::math::argmax(&vals).unwrap_or(0);
        let threshold = vals[peak] * crate::math::db_to_pow(-db);
        let mut lo = peak;
        while lo > 0 && vals[lo] > threshold {
            lo -= 1;
        }
        let mut hi = peak;
        while hi + 1 < vals.len() && vals[hi] > threshold {
            hi += 1;
        }
        freqs[hi] - freqs[lo]
    }
}

/// Single periodogram of a complex signal (zero-padded to a power of two).
///
/// # Panics
///
/// Panics if `signal` is empty or `fs <= 0`.
fn periodogram(signal: &[Complex], fs: f64, window: Window) -> Psd {
    assert!(!signal.is_empty(), "cannot estimate PSD of empty signal");
    assert!(fs > 0.0, "sample rate must be positive");
    let n = signal.len();
    let w = window.generate(n);
    let wpow: f64 = w.iter().map(|x| x * x).sum::<f64>() / n as f64;
    let mut buf: Vec<Complex> = signal
        .iter()
        .zip(&w)
        .map(|(&z, &wk)| z * wk)
        .collect();
    let nfft = next_pow2(n);
    buf.resize(nfft, Complex::ZERO);
    let spec = Fft::new(nfft).forward(&buf);
    let scale = 1.0 / (fs * n as f64 * wpow);
    let values: Vec<f64> = spec.iter().map(|z| z.norm_sqr() * scale).collect();
    let freqs: Vec<f64> = (0..nfft).map(|k| bin_frequency(k, nfft, fs)).collect();
    Psd { freqs, values, fs }
}

/// Periodogram of a real signal.
pub fn periodogram_real(signal: &[f64], fs: f64, window: Window) -> Psd {
    let c: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    periodogram(&c, fs, window)
}

/// Welch's averaged-periodogram PSD estimate with 50 % overlap.
///
/// `segment_len` is rounded up to a power of two. Falls back to a single
/// periodogram when the signal is shorter than one segment.
///
/// # Panics
///
/// Panics if `signal` is empty, `segment_len == 0`, or `fs <= 0`.
pub fn welch(signal: &[Complex], fs: f64, segment_len: usize, window: Window) -> Psd {
    assert!(!signal.is_empty(), "cannot estimate PSD of empty signal");
    assert!(segment_len > 0, "segment length must be positive");
    assert!(fs > 0.0, "sample rate must be positive");
    let seg = next_pow2(segment_len).min(next_pow2(signal.len()));
    if signal.len() < seg {
        return periodogram(signal, fs, window);
    }
    let hop = seg / 2;
    let w = window.generate(seg);
    let wpow: f64 = w.iter().map(|x| x * x).sum::<f64>() / seg as f64;
    let fft = Fft::new(seg);
    let mut acc = vec![0.0f64; seg];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + seg <= signal.len() {
        let buf: Vec<Complex> = (0..seg).map(|i| signal[start + i] * w[i]).collect();
        let spec = fft.forward(&buf);
        for (a, z) in acc.iter_mut().zip(&spec) {
            *a += z.norm_sqr();
        }
        count += 1;
        start += hop;
    }
    let scale = 1.0 / (fs * seg as f64 * wpow * count as f64);
    let values: Vec<f64> = acc.iter().map(|&p| p * scale).collect();
    let freqs: Vec<f64> = (0..seg).map(|k| bin_frequency(k, seg, fs)).collect();
    Psd { freqs, values, fs }
}

/// Welch PSD of a real signal.
pub fn welch_real(signal: &[f64], fs: f64, segment_len: usize, window: Window) -> Psd {
    let c: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    welch(&c, fs, segment_len, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    #[test]
    fn white_noiseless_tone_peak_location() {
        let fs = 1.0e9;
        let f0 = 125.0e6;
        let sig = Nco::new(f0, fs).generate_complex(4096);
        let psd = welch(&sig, fs, 1024, Window::Hann);
        assert!((psd.peak_frequency() - f0).abs() < fs / 1024.0);
    }

    #[test]
    fn parseval_total_power() {
        // Unit-amplitude complex tone: power 1.0.
        let fs = 100.0e6;
        let sig = Nco::new(12.5e6, fs).generate_complex(8192);
        let psd = welch(&sig, fs, 2048, Window::Hann);
        let p = psd.total_power();
        assert!((p - 1.0).abs() < 0.05, "total power {p}");
        let pg = periodogram(&sig[..2048], fs, Window::Rectangular);
        assert!((pg.total_power() - 1.0).abs() < 0.05);
    }

    #[test]
    fn real_tone_splits_power() {
        let fs = 1.0e6;
        let f0 = 100e3;
        let sig: Vec<f64> = (0..8192)
            .map(|i| (std::f64::consts::TAU * f0 * i as f64 / fs).cos())
            .collect();
        let psd = welch_real(&sig, fs, 1024, Window::Hann);
        // Peak at ±f0, total power 0.5.
        assert!((psd.peak_frequency().abs() - f0).abs() < fs / 1024.0);
        assert!((psd.total_power() - 0.5).abs() < 0.05);
    }

    #[test]
    fn sorted_axis_monotonic() {
        let fs = 1.0;
        let sig = vec![Complex::ONE; 64];
        let psd = periodogram(&sig, fs, Window::Rectangular);
        let (f, _) = psd.sorted();
        for w in f.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn occupied_bandwidth_of_tone_is_narrow() {
        let fs = 1.0e9;
        let sig = Nco::new(100e6, fs).generate_complex(4096);
        let psd = welch(&sig, fs, 1024, Window::Hann);
        let obw = psd.occupied_bandwidth(0.99);
        assert!(obw < 10.0 * fs / 1024.0, "obw {obw}");
    }

    #[test]
    fn bandwidth_below_peak_wideband() {
        // White-ish signal (LCG noise phasors): bandwidth ~ full span.
        let fs = 1.0e6;
        let mut state = 0x2545F4914F6CDD1Du64;
        let sig: Vec<Complex> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                Complex::cis(std::f64::consts::TAU * u)
            })
            .collect();
        let psd = welch(&sig, fs, 256, Window::Hann);
        // A noise-like phasor has a roughly flat PSD; -20 dB bandwidth should
        // cover much of the span.
        assert!(psd.bandwidth_below_peak(20.0) > fs * 0.3);
    }

    #[test]
    fn value_at_nearest_bin() {
        let fs = 8.0;
        let sig = vec![Complex::ONE; 8];
        let psd = periodogram(&sig, fs, Window::Rectangular);
        // DC tone: value at 0 Hz dominates.
        assert!(psd.value_at(0.0) > psd.value_at(3.0) * 100.0);
    }

    #[test]
    fn short_signal_falls_back() {
        let fs = 1.0;
        let sig = vec![Complex::ONE; 10];
        let psd = welch(&sig, fs, 1024, Window::Hann);
        assert_eq!(psd.freqs.len(), 16); // next_pow2(10)
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_signal_panics() {
        periodogram(&[], 1.0, Window::Hann);
    }
}
