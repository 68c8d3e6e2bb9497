//! Correlation primitives.
//!
//! Sliding cross-correlation is the work-horse of the pulsed-UWB digital back
//! end (template matching, acquisition, channel estimation), so both direct
//! and FFT-based implementations are provided, along with normalized
//! correlation for thresholding.

use crate::complex::Complex;
use crate::fft::{cached_plan, fft_convolve_real};
use crate::math::next_pow2;
use crate::scratch::DspScratch;

/// Sliding cross-correlation of `signal` against `template` (direct form).
///
/// Output element `k` is `Σ_j signal[k+j] * conj(template[j])`, for every `k`
/// where the template fits entirely ("valid" mode). Output length is
/// `signal.len() - template.len() + 1`; empty if the template is longer than
/// the signal or either is empty.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{Complex, correlation::cross_correlate};
/// let tpl = vec![Complex::ONE, -Complex::ONE];
/// let sig = vec![Complex::ZERO, Complex::ONE, -Complex::ONE, Complex::ZERO];
/// let c = cross_correlate(&sig, &tpl);
/// // Peak where the template aligns.
/// assert_eq!(c.len(), 3);
/// assert!((c[1].re - 2.0).abs() < 1e-12);
/// ```
pub fn cross_correlate(signal: &[Complex], template: &[Complex]) -> Vec<Complex> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let n_out = signal.len() - template.len() + 1;
    let mut out = Vec::with_capacity(n_out);
    for k in 0..n_out {
        let mut acc = Complex::ZERO;
        for (j, &t) in template.iter().enumerate() {
            acc += signal[k + j] * t.conj();
        }
        out.push(acc);
    }
    out
}

/// Sliding cross-correlation of real signals (direct form, "valid" mode).
pub fn cross_correlate_real(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let n_out = signal.len() - template.len() + 1;
    let mut out = Vec::with_capacity(n_out);
    for k in 0..n_out {
        let mut acc = 0.0;
        for (j, &t) in template.iter().enumerate() {
            acc += signal[k + j] * t;
        }
        out.push(acc);
    }
    out
}

/// Below this many complex multiply-accumulates (`n_out × template_len`) the
/// direct form beats the FFT setup cost, so [`cross_correlate_fft`] routes
/// small inputs straight to [`cross_correlate`]'s loop. The crossover was
/// picked from the `dspbench` kernel timings: at 4096 MACs the direct loop and
/// the three cached transforms cost about the same, and the direct path has
/// the bonus of exact (not rounded) agreement with [`cross_correlate`].
pub const FFT_CORRELATE_CROSSOVER_MACS: usize = 1 << 12;

/// FFT-based sliding cross-correlation, identical in output to
/// [`cross_correlate`] up to floating-point rounding but `O(N log N)`.
/// Preferred for long signals; inputs below
/// [`FFT_CORRELATE_CROSSOVER_MACS`] automatically use the direct form (and
/// are then *exactly* equal to [`cross_correlate`]).
pub fn cross_correlate_fft(signal: &[Complex], template: &[Complex]) -> Vec<Complex> {
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    cross_correlate_fft_into(signal, template, &mut scratch, &mut out);
    out
}

/// [`cross_correlate_fft`] computing into caller-owned storage.
///
/// `out` is cleared and filled with only the "valid" window — the full linear
/// convolution lives in a `scratch` buffer and the valid region is copied out
/// exactly once (the historical implementation materialized the full
/// convolution as a `Vec` and then copied the window a second time with
/// `.to_vec()`). After warm-up the call performs zero heap allocation.
pub fn cross_correlate_fft_into(
    signal: &[Complex],
    template: &[Complex],
    scratch: &mut DspScratch,
    out: &mut Vec<Complex>,
) {
    out.clear();
    if template.is_empty() || signal.len() < template.len() {
        return;
    }
    let m = template.len();
    let n_out = signal.len() - m + 1;
    if n_out.saturating_mul(m) < FFT_CORRELATE_CROSSOVER_MACS {
        // Direct form: cheaper below the crossover and bit-exact vs
        // `cross_correlate`.
        out.reserve(n_out);
        for k in 0..n_out {
            let mut acc = Complex::ZERO;
            for (j, &t) in template.iter().enumerate() {
                acc += signal[k + j] * t.conj();
            }
            out.push(acc);
        }
        return;
    }
    // Correlation = convolution with conjugated, time-reversed template.
    let full_len = signal.len() + m - 1;
    let n = next_pow2(full_len);
    let fft = cached_plan(n);
    let mut fa = scratch.take_complex(n);
    fa[..signal.len()].copy_from_slice(signal);
    let mut fb = scratch.take_complex(n);
    for (o, t) in fb.iter_mut().zip(template.iter().rev()) {
        *o = t.conj();
    }
    fft.forward_in_place(&mut fa);
    fft.forward_in_place(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    fft.inverse_in_place(&mut fa);
    // "valid" region starts at template.len()-1; copy it out exactly once.
    out.extend_from_slice(&fa[m - 1..m - 1 + n_out]);
    scratch.put_complex(fa);
    scratch.put_complex(fb);
}

/// Normalized cross-correlation magnitude in `[0, 1]`.
///
/// Element `k` is `|Σ signal[k+j] conj(tpl[j])| / (‖signal_k‖ ‖tpl‖)` where
/// `signal_k` is the window starting at `k`. Values near 1 mean the window is
/// a scaled copy of the template — this is the statistic thresholded by the
/// coarse-acquisition search.
pub fn normalized_correlation(signal: &[Complex], template: &[Complex]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let tpl_energy: f64 = template.iter().map(|z| z.norm_sqr()).sum();
    if tpl_energy == 0.0 {
        return vec![0.0; signal.len() - template.len() + 1];
    }
    let n_out = signal.len() - template.len() + 1;
    let m = template.len();
    // Rolling window energy.
    let mut win_energy: f64 = signal[..m].iter().map(|z| z.norm_sqr()).sum();
    let mut out = Vec::with_capacity(n_out);
    for k in 0..n_out {
        let mut acc = Complex::ZERO;
        for (j, &t) in template.iter().enumerate() {
            acc += signal[k + j] * t.conj();
        }
        let denom = (win_energy * tpl_energy).sqrt();
        out.push(if denom > 0.0 { acc.norm() / denom } else { 0.0 });
        if k + m < signal.len() {
            win_energy += signal[k + m].norm_sqr() - signal[k].norm_sqr();
            win_energy = win_energy.max(0.0);
        }
    }
    out
}

/// Circular autocorrelation of a real sequence at every lag.
///
/// `out[l] = Σ_n x[n] x[(n+l) mod N]`. For a maximal-length PN sequence in
/// ±1 form this is `N` at lag 0 and `-1` elsewhere — the property that makes
/// m-sequences good acquisition preambles.
///
/// Sequences shorter than [`CIRCULAR_AUTOCORR_DIRECT_MAX`] use the exact
/// `O(n²)` direct sum; longer ones are computed in `O(n log n)` by folding a
/// cached-plan FFT linear autocorrelation (`r_circ[l] = r_lin[l] + r_lin[l-n]`,
/// which works for any `n`, not just powers of two). The FFT fold agrees with
/// the direct sum to floating-point rounding (≤ 1e-9 relative, parity-tested).
pub fn circular_autocorrelation(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    if n < CIRCULAR_AUTOCORR_DIRECT_MAX {
        let mut out = vec![0.0; n];
        for (l, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in 0..n {
                acc += x[i] * x[(i + l) % n];
            }
            *o = acc;
        }
        return out;
    }
    // Linear autocorrelation via FFT convolution with the reversed sequence:
    // full[k] = Σ_j x[j]·x[n-1-k+j] = r_lin[n-1-k]. Fold the two linear lags
    // that alias onto each circular lag: r_circ[l] = r_lin[l] + r_lin[l-n],
    // i.e. full[n-1-l] + full[l-1] (r_lin is even). Lag 0 has no alias.
    let rev: Vec<f64> = x.iter().rev().copied().collect();
    let full = fft_convolve_real(x, &rev);
    let mut out = Vec::with_capacity(n);
    out.push(full[n - 1]);
    for l in 1..n {
        out.push(full[n - 1 - l] + full[l - 1]);
    }
    out
}

/// Sequence length below which [`circular_autocorrelation`] stays on the
/// exact direct sum (the FFT fold only wins past roughly this point, and the
/// direct path keeps short PN-sequence checks bit-exact).
pub const CIRCULAR_AUTOCORR_DIRECT_MAX: usize = 64;

/// Index and value of the peak magnitude of a complex correlation output.
/// Returns `None` on empty input.
pub fn peak(correlation: &[Complex]) -> Option<(usize, f64)> {
    correlation
        .iter()
        .enumerate()
        .map(|(i, z)| (i, z.norm()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::to_complex;

    fn chirp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(0.001 * (i * i) as f64))
            .collect()
    }

    #[test]
    fn direct_and_fft_agree() {
        let sig = chirp(300);
        let tpl = sig[40..90].to_vec();
        let a = cross_correlate(&sig, &tpl);
        let b = cross_correlate_fft(&sig, &tpl);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).norm() < 1e-6);
        }
    }

    #[test]
    fn peak_at_embedded_offset() {
        let mut sig = vec![Complex::ZERO; 200];
        let tpl = chirp(32);
        for (i, &t) in tpl.iter().enumerate() {
            sig[77 + i] = t;
        }
        let c = cross_correlate(&sig, &tpl);
        let (idx, val) = peak(&c).unwrap();
        assert_eq!(idx, 77);
        assert!((val - 32.0).abs() < 1e-9); // unit-magnitude chirp: energy = len
    }

    #[test]
    fn normalized_peak_is_one_for_exact_copy() {
        let mut sig = vec![Complex::ZERO; 100];
        let tpl = chirp(16);
        for (i, &t) in tpl.iter().enumerate() {
            sig[30 + i] = t * 3.0; // scaled copy
        }
        // Add small energy elsewhere so windows aren't all zero.
        sig[0] = Complex::new(0.1, 0.0);
        let nc = normalized_correlation(&sig, &tpl);
        let k = crate::math::argmax(&nc).unwrap();
        assert_eq!(k, 30);
        assert!((nc[30] - 1.0).abs() < 1e-9, "{}", nc[30]);
        for &v in &nc {
            assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn real_correlation_matches_complex() {
        let sig: Vec<f64> = (0..100).map(|i| ((i * 17) % 11) as f64 - 5.0).collect();
        let tpl: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let r = cross_correlate_real(&sig, &tpl);
        let c = cross_correlate(&to_complex(&sig), &to_complex(&tpl));
        for (x, y) in r.iter().zip(&c) {
            assert!((x - y.re).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_short_inputs() {
        assert!(cross_correlate(&[], &[Complex::ONE]).is_empty());
        assert!(cross_correlate(&[Complex::ONE], &[]).is_empty());
        assert!(cross_correlate(&[Complex::ONE], &[Complex::ONE; 2]).is_empty());
        assert!(normalized_correlation(&[], &[Complex::ONE]).is_empty());
        assert!(peak(&[]).is_none());
    }

    #[test]
    fn zero_template_normalized_is_zero() {
        let sig = vec![Complex::ONE; 10];
        let tpl = vec![Complex::ZERO; 3];
        let nc = normalized_correlation(&sig, &tpl);
        assert!(nc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn circular_autocorr_of_msequence_like() {
        // A 7-chip m-sequence in +-1 form.
        let seq = [1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0];
        let ac = circular_autocorrelation(&seq);
        assert!((ac[0] - 7.0).abs() < 1e-12);
        for &v in &ac[1..] {
            assert!((v + 1.0).abs() < 1e-12, "sidelobe {v}");
        }
    }

    #[test]
    fn circular_autocorr_fft_fold_matches_direct() {
        // 127 > CIRCULAR_AUTOCORR_DIRECT_MAX, and a non-power-of-two length,
        // so this exercises the linear-autocorrelation fold.
        let x: Vec<f64> = (0..127).map(|i| (0.37 * i as f64).sin() + 0.1).collect();
        let fast = circular_autocorrelation(&x);
        let n = x.len();
        let mut direct = vec![0.0; n];
        for (l, o) in direct.iter_mut().enumerate() {
            *o = (0..n).map(|i| x[i] * x[(i + l) % n]).sum();
        }
        let scale: f64 = x.iter().map(|v| v * v).sum();
        for (f, d) in fast.iter().zip(&direct) {
            assert!((f - d).abs() < 1e-9 * scale.max(1.0), "{f} vs {d}");
        }
    }

    #[test]
    fn small_inputs_take_direct_path_exactly() {
        // Below the MAC crossover the FFT entry point must agree *bitwise*
        // with the direct form.
        let sig = chirp(40);
        let tpl = sig[5..15].to_vec(); // 31 × 10 MACs < crossover
        assert_eq!(cross_correlate_fft(&sig, &tpl), cross_correlate(&sig, &tpl));
    }

    #[test]
    fn correlate_fft_into_reuses_storage() {
        let sig = chirp(500);
        let tpl = sig[100..200].to_vec(); // 401 × 100 MACs: FFT path
        let want = cross_correlate(&sig, &tpl);
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        cross_correlate_fft_into(&sig, &tpl, &mut scratch, &mut out);
        assert_eq!(out.len(), want.len());
        for (x, y) in out.iter().zip(&want) {
            assert!((*x - *y).norm() < 1e-6);
        }
        let first = out.clone();
        let cap = out.capacity();
        cross_correlate_fft_into(&sig, &tpl, &mut scratch, &mut out);
        assert_eq!(out, first, "repeat call must be deterministic");
        assert_eq!(out.capacity(), cap, "output storage must be reused");
        assert_eq!(scratch.pooled(), 2, "scratch buffers must be returned");
    }
}
