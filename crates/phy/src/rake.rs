//! Programmable RAKE receiver.
//!
//! Paper §1: "The energy spread caused by the multipath can be compensated
//! using a RAKE receiver." Each finger correlates the received record with
//! the pulse at one estimated path delay; maximal-ratio combining weights
//! each finger by the conjugate of its estimated gain. The finger count is
//! the programmable power/performance knob of §3.
//!
//! The receiver never filters a whole record: it reads the pulse
//! correlation only at the `slots × fingers` lags it combines, through one
//! kernel, [`RakeReceiver::combine_slots_into`], that every decode path
//! (known-timing payload, frame header and payload, streaming header)
//! calls with a run of equally spaced slots. Paper §1 asks the back end to
//! be parallel enough for the ADC's data rate; here that is [`TILE`] slots
//! combined side by side, with each slot's arithmetic in a fixed order so
//! the tile width never changes a bit of output.

use crate::chanest::ChannelEstimate;
use uwb_dsp::Complex;

/// Slots per pass of [`RakeReceiver::combine_slots_into`] over the fingers
/// and taps: each tile keeps this many complex correlations live. The
/// width only sets how many slots run side by side, never the order of one
/// slot's sums, so changing it cannot change a bit of output.
const TILE: usize = 8;

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

    /// RAKE statistics of `count` slots whose prompt (first-path) sample
    /// indices are `first_prompt + k·stride`, written to `out` (cleared
    /// first): slot `k` is
    /// `Σ_f conj(h_f) · Σ_j pulse[j] · samples[prompt_k + d_f + j] / Σ_f |h_f|²`.
    ///
    /// The pulse correlation is evaluated straight from the sample record
    /// and only at the finger delays combined — `slots × fingers` lags, not
    /// a matched-filter pass over the whole record. A finger whose window
    /// runs past the end of `samples` is left out of that slot's sum. With
    /// the unit pulse `[1.0]`, `samples` is read as a matched-filter
    /// stream.
    ///
    /// Slots are combined [`TILE`] at a time: one pass over the fingers and
    /// taps feeds `TILE` independent accumulators, which the CPU runs side
    /// by side. Each slot still sums its taps in ascending `j`, adds its
    /// fingers in selection order and divides once, so every statistic is
    /// bit-identical to combining the slots one at a time.
    pub fn combine_slots_into(
        &self,
        samples: &[Complex],
        pulse: &[f64],
        first_prompt: usize,
        stride: usize,
        count: usize,
        out: &mut Vec<Complex>,
    ) {
        // Valid correlation lags: 0 ..= samples.len() - pulse.len().
        let n_valid = (samples.len() + 1).saturating_sub(pulse.len());
        out.clear();
        out.resize(count, Complex::ZERO);
        let tiled = count - count % TILE;
        let mut tiles = out.chunks_exact_mut(TILE);
        for (t, o) in (&mut tiles).enumerate() {
            let p0 = first_prompt + t * TILE * stride;
            o.copy_from_slice(&self.combine_tile::<TILE>(samples, pulse, n_valid, p0, stride));
        }
        // The last `count mod TILE` slots, one at a time.
        for (k, o) in tiles.into_remainder().iter_mut().enumerate() {
            let p = first_prompt + (tiled + k) * stride;
            *o = self.combine_tile::<1>(samples, pulse, n_valid, p, stride)[0];
        }
    }

    /// `N` slots of [`RakeReceiver::combine_slots_into`] starting at prompt
    /// `p0`; lags at or past `n_valid` are skipped.
    #[inline(always)]
    fn combine_tile<const N: usize>(
        &self,
        samples: &[Complex],
        pulse: &[f64],
        n_valid: usize,
        p0: usize,
        stride: usize,
    ) -> [Complex; N] {
        let mut acc = [Complex::ZERO; N];
        for &(d, w) in &self.fingers {
            let i0 = p0 + d;
            if i0 + (N - 1) * stride < n_valid {
                // Every slot's lag is in range: all N correlations in one
                // pass over the taps.
                let win = &samples[i0..i0 + (N - 1) * stride + pulse.len()];
                let mut c = [Complex::ZERO; N];
                for (j, &pj) in pulse.iter().enumerate() {
                    for (s, cs) in c.iter_mut().enumerate() {
                        let x = win[s * stride + j];
                        cs.re += x.re * pj;
                        cs.im += x.im * pj;
                    }
                }
                for (a, cs) in acc.iter_mut().zip(c) {
                    *a += cs * w;
                }
            } else {
                // The record ends inside this tile: only the slots whose
                // lag is valid take this finger.
                for (s, a) in acc.iter_mut().enumerate() {
                    let idx = i0 + s * stride;
                    if idx < n_valid {
                        let mut cs = Complex::ZERO;
                        for (&x, &pj) in samples[idx..].iter().zip(pulse) {
                            cs.re += x.re * pj;
                            cs.im += x.im * pj;
                        }
                        *a += cs * w;
                    }
                }
            }
        }
        if self.total_weight > 0.0 {
            for a in &mut acc {
                *a = *a / self.total_weight;
            }
        }
        acc
    }

    /// One slot of [`RakeReceiver::combine_slots_into`], computed alone:
    /// the oracle the tiled kernel is held to, bit for bit.
    #[cfg(test)]
    pub(crate) fn combine_slot_oracle(
        &self,
        samples: &[Complex],
        pulse: &[f64],
        prompt: usize,
    ) -> Complex {
        let n_valid = (samples.len() + 1).saturating_sub(pulse.len());
        let mut acc = Complex::ZERO;
        for &(d, w) in &self.fingers {
            let idx = prompt + d;
            if idx < n_valid {
                let mut re = 0.0;
                let mut im = 0.0;
                for (j, &p) in pulse.iter().enumerate() {
                    let s = samples[idx + j];
                    re += s.re * p;
                    im += s.im * p;
                }
                acc += Complex::new(re, im) * w;
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
        let mut out = Vec::new();
        rake.combine_slots_into(&mf, &[1.0], 0, 16, symbols.len(), &mut out);
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
            let mut out = Vec::new();
            rx.combine_slots_into(&noisy, &[1.0], 0, 8, symbols.len(), &mut out);
            out.iter()
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
        let mut out = Vec::new();
        rake.combine_slots_into(&mf, &[1.0], 0, 1, 1, &mut out);
        assert!(out[0].is_finite());
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
        assert!(
            (g[1] - Complex::new(0.5, 0.0) * (1.0 / 1.0)).norm() < 1e-9,
            "{:?}",
            g[1]
        );
    }

    /// Exact bit patterns of a run of statistics.
    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The gen2 pulse at 1 GS/s (11 taps), a random 64-tap estimate and
    /// the 8-finger RAKE built from it.
    fn gen2_rake(seed: u64) -> (Vec<f64>, RakeReceiver) {
        let pulse = crate::pulse::PulseShape::gen2_default()
            .generate(uwb_sim::time::SampleRate::from_gsps(1.0));
        let mut rng = Rand::new(seed);
        let taps: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gaussian(), rng.gaussian()) * 0.2)
            .collect();
        (
            pulse,
            RakeReceiver::from_estimate(&ChannelEstimate::new(taps), 8),
        )
    }

    fn noise_record(len: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Rand::new(seed);
        (0..len)
            .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
            .collect()
    }

    /// `combine_slots_into` against the per-slot oracle, on `to_bits`.
    fn assert_matches_oracle(
        rake: &RakeReceiver,
        samples: &[Complex],
        pulse: &[f64],
        first: usize,
        stride: usize,
        count: usize,
    ) {
        // Stale contents must be replaced, not appended to.
        let mut got = vec![Complex::ONE; 3];
        rake.combine_slots_into(samples, pulse, first, stride, count, &mut got);
        let want: Vec<Complex> = (0..count)
            .map(|k| rake.combine_slot_oracle(samples, pulse, first + k * stride))
            .collect();
        assert_eq!(
            bits(&got),
            bits(&want),
            "first {first}, stride {stride}, count {count}, record {}",
            samples.len()
        );
    }

    #[test]
    fn slot_kernel_matches_per_slot_oracle_bitwise() {
        let (pulse, rake) = gen2_rake(19);
        let record = noise_record(2080 * 10 + 64 + pulse.len(), 20);
        for stride in [1, 10] {
            for count in [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5, 2080] {
                for first in [0, 7] {
                    assert_matches_oracle(&rake, &record, &pulse, first, stride, count);
                }
            }
        }
    }

    #[test]
    fn slot_kernel_matches_oracle_where_late_fingers_run_past_the_record() {
        // Records that end inside the last tiles: some slots keep their
        // early fingers and drop the late ones (the 24-byte AWGN frame
        // ends this way), some lose every finger.
        let (pulse, rake) = gen2_rake(21);
        let max_delay = rake.fingers().iter().map(|&(d, _)| d).max().unwrap();
        let full = noise_record(4000, 22);
        let mut partial = 0;
        for stride in [1, 10] {
            for count in [1, TILE, TILE + 1, 3 * TILE + 5] {
                let span = (count - 1) * stride + max_delay + pulse.len();
                for cut in 1..=(TILE * stride + max_delay + pulse.len()).min(span) {
                    let record = &full[..3 + span - cut];
                    assert_matches_oracle(&rake, record, &pulse, 3, stride, count);
                    partial += 1;
                }
            }
        }
        assert!(partial > 500, "only {partial} truncated records checked");
        // The last slot really lost a finger: its statistic moved.
        let mut whole = Vec::new();
        let mut cut = Vec::new();
        rake.combine_slots_into(&full, &pulse, 0, 10, TILE + 1, &mut whole);
        rake.combine_slots_into(
            &full[..TILE * 10 + max_delay],
            &pulse,
            0,
            10,
            TILE + 1,
            &mut cut,
        );
        assert_ne!(bits(&whole[TILE..]), bits(&cut[TILE..]));
        assert_eq!(bits(&whole[..1]), bits(&cut[..1]));
    }

    #[test]
    fn slot_kernel_with_zero_total_weight_matches_oracle() {
        // An all-zero estimate: fingers with zero weight and no division.
        let rake = RakeReceiver::from_estimate(&ChannelEstimate::new(vec![Complex::ZERO; 16]), 4);
        let (pulse, _) = gen2_rake(23);
        let record = noise_record(500, 24);
        for count in [1, TILE, 2 * TILE + 1] {
            assert_matches_oracle(&rake, &record, &pulse, 0, 10, count);
        }
    }

    #[test]
    #[should_panic(expected = "at least one finger")]
    fn zero_fingers_panics() {
        let est = ChannelEstimate::new(vec![Complex::ONE]);
        RakeReceiver::from_estimate(&est, 0);
    }
}
