//! Channel impulse-response estimation from the preamble.
//!
//! Paper §3: "the channel impulse response is estimated with a precision of
//! up to four bits during the packet preamble. This information is used in a
//! RAKE receiver and in a Viterbi demodulator." The estimator correlates the
//! known preamble template at successive delays (exploiting the m-sequence's
//! near-ideal autocorrelation) and averages over preamble repeats; the
//! result is quantized to the configured precision before the RAKE/MLSE use
//! it — reproducing the hardware's fixed-point datapath.

use uwb_dsp::Complex;

/// An estimated channel impulse response at sample resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEstimate {
    taps: Vec<Complex>,
}

impl ChannelEstimate {
    /// Wraps raw taps as an estimate.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<Complex>) -> Self {
        assert!(!taps.is_empty(), "estimate needs at least one tap");
        ChannelEstimate { taps }
    }

    /// The tap array (delay = index, in samples).
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Number of taps (the estimation window length).
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false`: construction requires at least one tap.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total estimated energy.
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Indices of the `n` strongest taps, strongest first, written into the
    /// caller-owned `idx` buffer (allocation-free once its capacity
    /// suffices).
    ///
    /// Uses an unstable sort with an explicit `(descending energy, ascending
    /// index)` key, which reproduces exactly the order a stable sort by
    /// descending energy produces — ties on energy are common
    /// once taps are quantized to a few bits, so the tie-break matters for
    /// bit-identical finger selection.
    pub fn select_strongest_into(&self, n: usize, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(0..self.taps.len());
        idx.sort_unstable_by(|&a, &b| {
            self.taps[b]
                .norm_sqr()
                .total_cmp(&self.taps[a].norm_sqr())
                .then(a.cmp(&b))
        });
        idx.truncate(n);
    }

    /// Quantizes each tap's I and Q to `bits` (mid-rise, full scale set by
    /// the largest component) — the paper's "precision of up to four bits".
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn quantized(&self, bits: u32) -> ChannelEstimate {
        let mut q = self.clone();
        q.quantize_in_place(bits);
        q
    }

    /// [`ChannelEstimate::quantized`] mutating the estimate in place —
    /// identical values, zero allocation (the per-trial form).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn quantize_in_place(&mut self, bits: u32) {
        assert!((1..=16).contains(&bits), "bits must be 1..=16");
        let full_scale = self
            .taps
            .iter()
            .fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
        if full_scale == 0.0 {
            return;
        }
        let levels = (1u32 << bits) as f64;
        let step = 2.0 * full_scale / levels;
        let q = |x: f64| {
            let k = (x / step).floor().clamp(-levels / 2.0, levels / 2.0 - 1.0);
            (k + 0.5) * step
        };
        for z in &mut self.taps {
            *z = Complex::new(q(z.re), q(z.im));
        }
    }

    /// Normalized mean-square error versus a reference estimate.
    pub fn nmse(&self, reference: &ChannelEstimate) -> f64 {
        let n = self.taps.len().min(reference.taps.len());
        let err: f64 = (0..n)
            .map(|i| (self.taps[i] - reference.taps[i]).norm_sqr())
            .sum();
        let e = reference.energy();
        if e > 0.0 {
            err / e
        } else {
            0.0
        }
    }
}

/// Estimates the CIR by correlating the known one-period preamble
/// `template` against `signal` at delays `0..window` relative to `start`,
/// averaging over `periods` repeats spaced `period_len` samples apart.
///
/// The template must have unit energy per period for calibrated tap gains
/// (the estimator normalizes by the template energy it measures).
///
/// # Panics
///
/// Panics if `window == 0`, `periods == 0`, or the template is empty.
pub fn estimate_cir(
    signal: &[Complex],
    template: &[Complex],
    start: usize,
    window: usize,
    periods: usize,
    period_len: usize,
) -> ChannelEstimate {
    let mut est = ChannelEstimate {
        taps: vec![Complex::ZERO; window.max(1)],
    };
    estimate_cir_into(signal, template, start, window, periods, period_len, &mut est);
    est
}

/// [`estimate_cir`] writing into a caller-owned [`ChannelEstimate`]
/// (allocation-free once the tap buffer capacity suffices) — the per-trial
/// form used by the Gen2 receiver.
///
/// A real-valued template (every `im == 0`, as the pulse-shaped preamble
/// template always is) takes a two-multiply inner loop instead of the
/// four-multiply complex one; the only representational difference is the
/// sign of exact zeros, so results are numerically identical.
///
/// # Panics
///
/// Panics if `window == 0`, `periods == 0`, or the template is empty.
#[allow(clippy::too_many_arguments)]
pub fn estimate_cir_into(
    signal: &[Complex],
    template: &[Complex],
    start: usize,
    window: usize,
    periods: usize,
    period_len: usize,
    est: &mut ChannelEstimate,
) {
    assert!(window > 0, "window must be positive");
    assert!(periods > 0, "need at least one period");
    assert!(!template.is_empty(), "template must be non-empty");
    let tpl_energy: f64 = template.iter().map(|z| z.norm_sqr()).sum();
    let real_template = template.iter().all(|t| t.im == 0.0);
    let taps = &mut est.taps;
    taps.clear();
    taps.resize(window, Complex::ZERO);
    let mut used_periods = 0usize;
    for p in 0..periods {
        let base = start + p * period_len;
        if base + template.len() + window > signal.len() + 1 {
            break;
        }
        used_periods += 1;
        // The break above guarantees base + d + j <= base + (window-1) +
        // (len-1) <= signal.len() - 1 for every delay/sample pair, so each
        // delay's window is a plain in-bounds slice — no per-sample bounds
        // test in the inner loop.
        for (d, tap) in taps.iter_mut().enumerate() {
            let win = &signal[base + d..base + d + template.len()];
            let acc = if real_template {
                // s · conj(t) with t purely real: 2 real MACs per sample,
                // lane-split so the reduction autovectorizes.
                uwb_dsp::simd::dot_real_template(win, template)
            } else {
                let mut acc = Complex::ZERO;
                for (&s, &t) in win.iter().zip(template) {
                    acc += s * t.conj();
                }
                acc
            };
            *tap += acc;
        }
    }
    let scale = 1.0 / (used_periods.max(1) as f64 * tpl_energy);
    for tap in taps.iter_mut() {
        *tap = *tap * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    fn chip_template() -> Vec<Complex> {
        let chips = crate::pn::msequence_chips(7);
        // Unit energy: scale by 1/sqrt(127).
        let k = 1.0 / (127.0f64).sqrt();
        chips.iter().map(|&c| Complex::new(c * k, 0.0)).collect()
    }

    fn through_channel(template: &[Complex], h: &[Complex], periods: usize) -> Vec<Complex> {
        let mut sig = Vec::new();
        for _ in 0..periods {
            sig.extend_from_slice(template);
        }
        // Direct linear convolution, then 32 samples of trailing silence.
        let mut out = vec![Complex::ZERO; sig.len() + h.len() - 1 + 32];
        for (i, &x) in sig.iter().enumerate() {
            for (k, &hk) in h.iter().enumerate() {
                out[i + k] += x * hk;
            }
        }
        out
    }

    #[test]
    fn recovers_two_tap_channel() {
        let tpl = chip_template();
        let h = {
            let mut h = vec![Complex::ZERO; 8];
            h[0] = Complex::new(0.9, 0.0);
            h[5] = Complex::new(0.0, -0.4);
            h
        };
        let rx = through_channel(&tpl, &h, 4);
        let est = estimate_cir(&rx, &tpl, 0, 8, 4, tpl.len());
        assert!((est.taps()[0] - h[0]).norm() < 0.05, "{:?}", est.taps()[0]);
        assert!((est.taps()[5] - h[5]).norm() < 0.05, "{:?}", est.taps()[5]);
        for d in [1usize, 2, 3, 4, 6, 7] {
            assert!(est.taps()[d].norm() < 0.1, "ghost tap at {d}");
        }
    }

    #[test]
    fn averaging_suppresses_noise() {
        let tpl = chip_template();
        let mut h = vec![Complex::ZERO; 4];
        h[0] = Complex::ONE;
        let clean = through_channel(&tpl, &h, 8);
        let mut rng = Rand::new(1);
        let noisy = add_awgn_complex(&clean, 0.5, &mut rng);
        let est1 = estimate_cir(&noisy, &tpl, 0, 4, 1, tpl.len());
        let est8 = estimate_cir(&noisy, &tpl, 0, 4, 8, tpl.len());
        let ref_est = ChannelEstimate::new(h);
        assert!(
            est8.nmse(&ref_est) < est1.nmse(&ref_est),
            "8-period NMSE {} vs 1-period {}",
            est8.nmse(&ref_est),
            est1.nmse(&ref_est)
        );
    }

    #[test]
    fn strongest_selection_sorted() {
        let est = ChannelEstimate::new(vec![
            Complex::new(0.1, 0.0),
            Complex::new(0.9, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(0.05, 0.0),
        ]);
        let mut fingers = Vec::new();
        est.select_strongest_into(2, &mut fingers);
        assert_eq!(fingers, vec![1, 2]);
        // Requesting more than available returns all.
        est.select_strongest_into(99, &mut fingers);
        assert_eq!(fingers.len(), 4);
    }

    #[test]
    fn quantization_error_shrinks_with_bits() {
        let mut rng = Rand::new(2);
        let taps: Vec<Complex> = (0..32)
            .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let est = ChannelEstimate::new(taps);
        let mut prev = f64::INFINITY;
        for bits in [1u32, 2, 3, 4, 6, 8] {
            let q = est.quantized(bits);
            let nmse = q.nmse(&est);
            assert!(nmse < prev, "bits {bits}: {nmse} !< {prev}");
            prev = nmse;
        }
        // 4 bits should already be quite accurate (paper's design point).
        assert!(est.quantized(4).nmse(&est) < 0.02);
    }

    #[test]
    fn quantized_zero_estimate_unchanged() {
        let est = ChannelEstimate::new(vec![Complex::ZERO; 4]);
        assert_eq!(est.quantized(4), est);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_estimate_panics() {
        ChannelEstimate::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn bad_bits_panics() {
        ChannelEstimate::new(vec![Complex::ONE]).quantized(0);
    }
}
