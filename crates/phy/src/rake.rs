//! Programmable RAKE receiver.
//!
//! Paper §1: "The energy spread caused by the multipath can be compensated
//! using a RAKE receiver." Each finger samples the matched-filter output at
//! one estimated path delay; maximal-ratio combining weights each finger by
//! the conjugate of its estimated gain. The finger count is the
//! programmable power/performance knob of §3.

use crate::chanest::ChannelEstimate;
use uwb_dsp::Complex;

/// A RAKE receiver built from a channel estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct RakeReceiver {
    /// `(delay_samples, conj(gain))` per finger.
    fingers: Vec<(usize, Complex)>,
    /// Sum of |gain|² over fingers (MRC normalization).
    total_weight: f64,
}

impl RakeReceiver {
    /// Selects the `n_fingers` strongest paths from `estimate` (selective
    /// RAKE / S-RAKE).
    ///
    /// # Panics
    ///
    /// Panics if `n_fingers == 0`.
    pub fn from_estimate(estimate: &ChannelEstimate, n_fingers: usize) -> Self {
        let mut rake = RakeReceiver {
            fingers: Vec::new(),
            total_weight: 0.0,
        };
        let mut idx = Vec::new();
        rake.rebuild_from_estimate(estimate, n_fingers, &mut idx);
        rake
    }

    /// Rebuilds this RAKE in place from a fresh channel estimate, reusing
    /// the finger storage and a caller-owned index buffer — identical
    /// selection and weights to [`RakeReceiver::from_estimate`], but
    /// allocation-free once capacities suffice (the per-trial form).
    ///
    /// # Panics
    ///
    /// Panics if `n_fingers == 0`.
    pub fn rebuild_from_estimate(
        &mut self,
        estimate: &ChannelEstimate,
        n_fingers: usize,
        idx_scratch: &mut Vec<usize>,
    ) {
        assert!(n_fingers > 0, "need at least one finger");
        estimate.select_strongest_into(n_fingers, idx_scratch);
        let taps = estimate.taps();
        self.fingers.clear();
        self.fingers
            .extend(idx_scratch.iter().map(|&i| (i, taps[i].conj())));
        self.total_weight = self.fingers.iter().map(|(_, w)| w.norm_sqr()).sum();
    }

    /// The finger delays and combining weights.
    pub fn fingers(&self) -> &[(usize, Complex)] {
        &self.fingers
    }

    /// Fraction of the estimate's energy the fingers capture.
    pub fn energy_capture(&self, estimate: &ChannelEstimate) -> f64 {
        let e = estimate.energy();
        if e > 0.0 {
            self.total_weight / e
        } else {
            0.0
        }
    }

    /// Combines matched-filter outputs for a symbol whose prompt (first-
    /// path) sample index is `prompt`: output =
    /// `Σ_f conj(h_f) · mf[prompt + d_f] / Σ_f |h_f|²`.
    ///
    /// `mf` is the pulse-matched-filter output stream; delays address the
    /// multipath echoes of the same transmitted pulse.
    pub fn combine(&self, mf: &[Complex], prompt: usize) -> Complex {
        let mut acc = Complex::ZERO;
        for &(d, w) in &self.fingers {
            let idx = prompt + d;
            if idx < mf.len() {
                acc += mf[idx] * w;
            }
        }
        if self.total_weight > 0.0 {
            acc / self.total_weight
        } else {
            acc
        }
    }

    /// [`RakeReceiver::combine`] without a precomputed matched-filter
    /// stream: evaluates the pulse correlation directly from the sample
    /// record, only at the finger delays actually combined.
    ///
    /// `O(fingers × pulse_len)` per symbol instead of an `O(N log N)` FFT
    /// over the whole record — the dominant cost of the known-timing BER
    /// path, where only `slots × fingers` matched-filter values are ever
    /// read. Results match [`RakeReceiver::combine`] over
    /// `cross_correlate_fft` output up to floating-point rounding.
    pub fn combine_direct(
        &self,
        samples: &[Complex],
        pulse: &[Complex],
        prompt: usize,
    ) -> Complex {
        // Valid correlation lags: 0 ..= samples.len() - pulse.len(), the
        // same range `combine` accepts via `idx < mf.len()`.
        let n_valid = (samples.len() + 1).saturating_sub(pulse.len());
        // A real pulse (the UWB monocycle templates always are at baseband)
        // needs 2 real MACs per sample instead of 4; the only representational
        // difference vs the complex loop is the sign of exact zeros.
        let real_pulse = pulse.iter().all(|p| p.im == 0.0);
        let mut acc = Complex::ZERO;
        for &(d, w) in &self.fingers {
            let idx = prompt + d;
            if idx < n_valid {
                let c = if real_pulse {
                    let mut re = 0.0;
                    let mut im = 0.0;
                    for (j, &p) in pulse.iter().enumerate() {
                        let s = samples[idx + j];
                        re += s.re * p.re;
                        im += s.im * p.re;
                    }
                    Complex::new(re, im)
                } else {
                    let mut c = Complex::ZERO;
                    for (j, &p) in pulse.iter().enumerate() {
                        c += samples[idx + j] * p.conj();
                    }
                    c
                };
                acc += c * w;
            }
        }
        if self.total_weight > 0.0 {
            acc / self.total_weight
        } else {
            acc
        }
    }

    /// The *post-combining* symbol-spaced channel response: the residual
    /// inter-symbol interference the RAKE output still contains when the
    /// delay spread exceeds the symbol period. Tap `l` is
    /// `Σ_f w_f · ĥ[l·stride + d_f] / Σ_f |h_f|²`, so tap 0 is 1 by
    /// construction. This is the channel the MLSE (Viterbi demodulator)
    /// equalizes.
    pub fn symbol_spaced_response(
        &self,
        estimate: &ChannelEstimate,
        stride: usize,
        n_taps: usize,
    ) -> Vec<Complex> {
        let taps = estimate.taps();
        (0..n_taps)
            .map(|l| {
                let mut acc = Complex::ZERO;
                for &(d, w) in &self.fingers {
                    let idx = l * stride + d;
                    if idx < taps.len() {
                        acc += taps[idx] * w;
                    }
                }
                if self.total_weight > 0.0 {
                    acc / self.total_weight
                } else {
                    acc
                }
            })
            .collect()
    }

    /// Combines a whole stream of symbol positions at a fixed stride.
    pub fn combine_stream(
        &self,
        mf: &[Complex],
        first_prompt: usize,
        stride: usize,
        count: usize,
    ) -> Vec<Complex> {
        (0..count)
            .map(|k| self.combine(mf, first_prompt + k * stride))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    /// Builds a matched-filter output stream for BPSK symbols through a
    /// sample-spaced channel `h` at `stride` samples per symbol.
    fn mf_stream(symbols: &[f64], h: &[Complex], stride: usize) -> Vec<Complex> {
        let n = symbols.len() * stride + h.len() + 8;
        let mut out = vec![Complex::ZERO; n];
        for (k, &s) in symbols.iter().enumerate() {
            for (d, &g) in h.iter().enumerate() {
                out[k * stride + d] += g * s;
            }
        }
        out
    }

    fn test_channel() -> Vec<Complex> {
        vec![
            Complex::new(0.8, 0.0),
            Complex::ZERO,
            Complex::new(0.3, 0.3),
            Complex::ZERO,
            Complex::new(0.0, -0.2),
        ]
    }

    #[test]
    fn mrc_recovers_clean_symbols() {
        let h = test_channel();
        let est = ChannelEstimate::new(h.clone());
        let rake = RakeReceiver::from_estimate(&est, 3);
        let symbols = [1.0, -1.0, 1.0, 1.0, -1.0];
        let mf = mf_stream(&symbols, &h, 16);
        let out = rake.combine_stream(&mf, 0, 16, symbols.len());
        for (z, &s) in out.iter().zip(&symbols) {
            assert!((z.re - s).abs() < 0.05, "{z} vs {s}");
            assert!(z.im.abs() < 0.05);
        }
    }

    #[test]
    fn more_fingers_capture_more_energy() {
        let est = ChannelEstimate::new(test_channel());
        let mut prev = 0.0;
        for n in [1usize, 2, 3] {
            let rake = RakeReceiver::from_estimate(&est, n);
            let cap = rake.energy_capture(&est);
            assert!(cap > prev);
            prev = cap;
        }
        let all = RakeReceiver::from_estimate(&est, 10);
        assert!((all.energy_capture(&est) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rake_beats_single_finger_in_noise() {
        // Monte-Carlo SNR comparison on a dispersive channel.
        let h = test_channel();
        let est = ChannelEstimate::new(h.clone());
        let rake = RakeReceiver::from_estimate(&est, 3);
        let single = RakeReceiver::from_estimate(&est, 1); // plain matched filter
        let mut rng = Rand::new(3);
        let symbols: Vec<f64> = (0..2000)
            .map(|_| if rng.bit() { 1.0 } else { -1.0 })
            .collect();
        let mf = mf_stream(&symbols, &h, 8);
        let noisy = add_awgn_complex(&mf, 0.3, &mut rng);
        let err = |rx: &RakeReceiver| -> usize {
            rx.combine_stream(&noisy, 0, 8, symbols.len())
                .iter()
                .zip(&symbols)
                .filter(|(z, &s)| (z.re > 0.0) != (s > 0.0))
                .count()
        };
        let e_rake = err(&rake);
        let e_single = err(&single);
        assert!(
            e_rake < e_single,
            "rake {e_rake} errors vs single {e_single}"
        );
    }

    #[test]
    fn finger_selection_picks_strongest() {
        let est = ChannelEstimate::new(test_channel());
        let rake = RakeReceiver::from_estimate(&est, 2);
        let delays: Vec<usize> = rake.fingers().iter().map(|&(d, _)| d).collect();
        assert!(delays.contains(&0)); // 0.8 tap
        assert!(delays.contains(&2)); // 0.3+0.3i tap
    }

    #[test]
    fn combine_out_of_range_is_partial() {
        let est = ChannelEstimate::new(test_channel());
        let rake = RakeReceiver::from_estimate(&est, 3);
        let mf = vec![Complex::ONE; 3]; // too short for delay-4 finger
        let z = rake.combine(&mf, 0);
        assert!(z.is_finite());
    }

    #[test]
    fn weights_are_conjugate_gains() {
        let h = vec![Complex::new(0.0, 0.5)];
        let est = ChannelEstimate::new(h);
        let rake = RakeReceiver::from_estimate(&est, 1);
        assert_eq!(rake.fingers()[0].1, Complex::new(0.0, -0.5));
    }

    #[test]
    fn symbol_spaced_response_unit_main_tap() {
        // A channel spreading past one symbol: post-RAKE response has tap 0
        // equal to 1 and a real residual ISI tap.
        let mut taps = vec![Complex::ZERO; 24];
        taps[0] = Complex::new(0.9, 0.0);
        taps[3] = Complex::new(0.4, 0.1);
        taps[10] = Complex::new(0.3, -0.2); // one symbol later at stride 8... use stride 8
        let est = ChannelEstimate::new(taps);
        let rake = RakeReceiver::from_estimate(&est, 2); // picks taps 0 and 3
        let g = rake.symbol_spaced_response(&est, 8, 3);
        assert_eq!(g.len(), 3);
        assert!((g[0] - Complex::ONE).norm() < 1e-9, "{:?}", g[0]);
        // Tap 1 collects the echo at delay 8+d_f: d=0 -> taps[8]=0,
        // d=3 -> taps[11]=0; with finger delays {0,3}: l=1 uses taps[8],taps[11],
        // both zero... pick stride so the echo lands: taps[10] with d=... no
        // finger at 2. So g[1] is 0 here; instead verify vanishing ISI case.
        let flat = ChannelEstimate::new(vec![Complex::ONE]);
        let r1 = RakeReceiver::from_estimate(&flat, 1);
        let g1 = r1.symbol_spaced_response(&flat, 4, 2);
        assert!((g1[0] - Complex::ONE).norm() < 1e-12);
        assert_eq!(g1[1], Complex::ZERO);
    }

    #[test]
    fn symbol_spaced_response_sees_echo() {
        // Echo exactly one stride after a finger.
        let mut taps = vec![Complex::ZERO; 16];
        taps[2] = Complex::new(1.0, 0.0);
        taps[10] = Complex::new(0.5, 0.0); // = 2 + stride 8
        let est = ChannelEstimate::new(taps);
        let rake = RakeReceiver::from_estimate(&est, 1); // finger at 2 only
        let g = rake.symbol_spaced_response(&est, 8, 2);
        assert!((g[0] - Complex::ONE).norm() < 1e-9);
        assert!((g[1] - Complex::new(0.5, 0.0) * (1.0 / 1.0)).norm() < 1e-9, "{:?}", g[1]);
    }

    #[test]
    #[should_panic(expected = "at least one finger")]
    fn zero_fingers_panics() {
        let est = ChannelEstimate::new(vec![Complex::ONE]);
        RakeReceiver::from_estimate(&est, 0);
    }
}
