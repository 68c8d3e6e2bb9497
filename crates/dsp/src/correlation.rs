//! Correlation primitives.
//!
//! Direct-form sliding cross-correlation, normalized correlation for
//! thresholding, and circular autocorrelation for PN-code analysis. The
//! receivers' spread-code searches (gen2 acquisition, gen1 sync, TOA
//! ranging) do not run here: they correlate in the chip domain through
//! `uwb_phy::CorrelatorBank`.

use crate::complex::Complex;

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
/// m-sequences good acquisition preambles. Computed as the direct
/// `O(n²)` sum.
pub fn circular_autocorrelation(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut out = vec![0.0; n];
    for (l, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for i in 0..n {
            acc += x[i] * x[(i + l) % n];
        }
        *o = acc;
    }
    out
}

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

    fn chirp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(0.001 * (i * i) as f64))
            .collect()
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
}
