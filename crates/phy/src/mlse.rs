//! Maximum-likelihood sequence estimation (Viterbi equalizer).
//!
//! Paper §1: "The inter-symbol interference (ISI) due to multipath can be
//! addressed with a Viterbi demodulator." When the delay spread exceeds the
//! symbol period, the RAKE output still contains symbol-rate ISI; this
//! equalizer runs the Viterbi algorithm over the symbol-spaced channel
//! derived from the 4-bit channel estimate.

use uwb_dsp::Complex;

/// A Viterbi (MLSE) equalizer for BPSK over a known symbol-spaced channel.
#[derive(Debug, Clone, PartialEq)]
pub struct MlseEqualizer {
    /// Symbol-spaced channel taps `h[0..L]` (h[0] = main tap).
    channel: Vec<Complex>,
}

impl MlseEqualizer {
    /// Creates an equalizer for the given symbol-spaced channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty, longer than 9 taps (2⁸ states), or
    /// has a zero main tap region (all taps zero).
    pub fn new(channel: Vec<Complex>) -> Self {
        assert!(
            !channel.is_empty() && channel.len() <= 9,
            "channel must have 1..=9 taps"
        );
        assert!(
            channel.iter().any(|h| h.norm_sqr() > 0.0),
            "channel must carry energy"
        );
        MlseEqualizer { channel }
    }

    /// Number of channel taps L.
    pub fn memory(&self) -> usize {
        self.channel.len()
    }

    /// Number of trellis states, `2^(L−1)`.
    pub fn states(&self) -> usize {
        1usize << (self.channel.len() - 1)
    }

    /// Equalizes a block of received symbol statistics, returning hard ±1
    /// decisions as booleans (`true` = +1).
    ///
    /// The trellis starts in the all-(−1) state with symbols *before* the
    /// block assumed to be −1 (idle); ending state is free (traceback from
    /// the best final metric).
    pub fn equalize(&self, received: &[Complex]) -> Vec<bool> {
        if received.is_empty() {
            return Vec::new();
        }
        let (decisions, mut state) = self.run_trellis(received);
        let mut out = Vec::with_capacity(received.len());
        for step in (0..received.len()).rev() {
            let d = decisions[step][state];
            out.push(d & 1 != 0);
            state = (d >> 1) as usize;
        }
        out.reverse();
        out
    }

    /// [`MlseEqualizer::equalize`] writing hard-remodulated BPSK symbols
    /// (`+1` or `−1` on the real axis) into a caller-owned buffer (cleared
    /// first) — the form the Gen2 receiver uses, with the decided-symbol
    /// buffer drawn from its `DspScratch` pool instead of a fresh `Vec<bool>`
    /// per packet.
    ///
    /// # Allocation
    ///
    /// The Viterbi trellis itself still heap-allocates. Precisely, per call
    /// with `N = received.len()` symbols and `S = 2^(L−1)` states:
    ///
    /// * `expected` — one `2·S`-entry table of noiseless branch outputs,
    /// * `metric` — one `S`-entry path-metric vector, plus one fresh
    ///   `S`-entry `next` vector **per input symbol** (the old vector is
    ///   dropped each step),
    /// * `decisions` — one `S`-entry `u16` survivor vector **per input
    ///   symbol**, all `N` retained until traceback (`N·S` u16 total — the
    ///   dominant term).
    ///
    /// This is the documented exception to the receiver's zero-allocation
    /// steady state; the nominal configuration (`mlse_taps == 0`) never
    /// enters this path.
    pub fn equalize_symbols_into(&self, received: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        if received.is_empty() {
            return;
        }
        let (decisions, mut state) = self.run_trellis(received);
        out.resize(received.len(), Complex::ZERO);
        for step in (0..received.len()).rev() {
            let d = decisions[step][state];
            out[step] = Complex::new(if d & 1 != 0 { 1.0 } else { -1.0 }, 0.0);
            state = (d >> 1) as usize;
        }
    }

    /// Runs the add-compare-select recursion, returning the survivor table
    /// (one `states()`-entry decision vector per input symbol) and the best
    /// final state to start traceback from.
    fn run_trellis(&self, received: &[Complex]) -> (Vec<Vec<u16>>, usize) {
        let l = self.channel.len();
        let n_states = self.states();
        // State encodes the previous L-1 symbols: bit j = symbol (k-1-j),
        // 1 = +1, 0 = -1.
        let sym = |bit: usize| if bit != 0 { 1.0 } else { -1.0 };

        // Precompute the noiseless output for (state, input).
        let mut expected = vec![Complex::ZERO; n_states * 2];
        for s in 0..n_states {
            for inp in 0..2usize {
                let mut acc = self.channel[0] * sym(inp);
                for j in 1..l {
                    let bit = (s >> (j - 1)) & 1;
                    acc += self.channel[j] * sym(bit);
                }
                expected[s * 2 + inp] = acc;
            }
        }

        const INF: f64 = f64::INFINITY;
        let mut metric = vec![INF; n_states];
        metric[0] = 0.0; // all -1 history
        let mut decisions: Vec<Vec<u16>> = Vec::with_capacity(received.len());

        for &z in received {
            let mut next = vec![INF; n_states];
            let mut dec = vec![0u16; n_states];
            for s in 0..n_states {
                if metric[s] == INF {
                    continue;
                }
                for inp in 0..2usize {
                    let e = expected[s * 2 + inp];
                    let d = (z - e).norm_sqr();
                    let ns = ((s << 1) | inp) & (n_states - 1);
                    let cand = metric[s] + d;
                    if cand < next[ns] {
                        next[ns] = cand;
                        dec[ns] = (s as u16) << 1 | inp as u16;
                    }
                }
            }
            metric = next;
            decisions.push(dec);
        }

        // Traceback starts from the best final state.
        let best = (0..n_states)
            .min_by(|&a, &b| metric[a].total_cmp(&metric[b]))
            .unwrap_or(0);
        (decisions, best)
    }

    /// Reference: symbol-by-symbol threshold detection against the main tap
    /// only (what the receiver does with MLSE disabled).
    #[cfg(test)]
    fn threshold_detect(&self, received: &[Complex]) -> Vec<bool> {
        let h0 = self.channel[0];
        received.iter().map(|&z| (z * h0.conj()).re > 0.0).collect()
    }
}

/// Applies a symbol-spaced channel to a ±1 symbol sequence (test/benchmark
/// helper): `y[k] = Σ_l h[l] s[k−l]` with `s = -1` before the block.
pub fn apply_symbol_channel(symbols: &[bool], channel: &[Complex]) -> Vec<Complex> {
    let l = channel.len();
    (0..symbols.len())
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &h) in channel.iter().enumerate().take(l) {
                let s = if k >= j {
                    if symbols[k - j] {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    -1.0 // idle history
                };
                acc += h * s;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    fn random_symbols(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Rand::new(seed);
        (0..n).map(|_| rng.bit()).collect()
    }

    fn isi_channel() -> Vec<Complex> {
        vec![
            Complex::new(1.0, 0.0),
            Complex::new(0.6, 0.1),
            Complex::new(-0.3, 0.2),
        ]
    }

    #[test]
    fn clean_isi_recovered_exactly() {
        let h = isi_channel();
        let eq = MlseEqualizer::new(h.clone());
        let symbols = random_symbols(300, 1);
        let rx = apply_symbol_channel(&symbols, &h);
        let decided = eq.equalize(&rx);
        assert_eq!(decided, symbols);
    }

    #[test]
    fn threshold_fails_where_mlse_succeeds() {
        // Strong ISI: threshold detection must do clearly worse.
        let h = isi_channel();
        let eq = MlseEqualizer::new(h.clone());
        let symbols = random_symbols(2000, 2);
        let rx = apply_symbol_channel(&symbols, &h);
        let mut rng = Rand::new(3);
        let noisy = add_awgn_complex(&rx, 0.4, &mut rng);
        let count_err =
            |decided: &[bool]| decided.iter().zip(&symbols).filter(|(a, b)| a != b).count();
        let e_mlse = count_err(&eq.equalize(&noisy));
        let e_thresh = count_err(&eq.threshold_detect(&noisy));
        assert!(
            e_mlse * 3 < e_thresh,
            "mlse {e_mlse} vs threshold {e_thresh}"
        );
    }

    #[test]
    fn single_tap_reduces_to_matched_filter() {
        let h = vec![Complex::new(0.0, 2.0)]; // pure rotation
        let eq = MlseEqualizer::new(h.clone());
        let symbols = random_symbols(100, 4);
        let rx = apply_symbol_channel(&symbols, &h);
        assert_eq!(eq.equalize(&rx), symbols);
        assert_eq!(eq.threshold_detect(&rx), symbols);
        assert_eq!(eq.states(), 1);
    }

    #[test]
    fn noise_performance_degrades_gracefully() {
        let h = isi_channel();
        let eq = MlseEqualizer::new(h.clone());
        let symbols = random_symbols(1000, 5);
        let rx = apply_symbol_channel(&symbols, &h);
        let mut rng = Rand::new(6);
        let low_noise = add_awgn_complex(&rx, 0.05, &mut rng);
        let high_noise = add_awgn_complex(&rx, 0.8, &mut rng);
        let err = |sig: &[Complex]| {
            eq.equalize(sig)
                .iter()
                .zip(&symbols)
                .filter(|(a, b)| a != b)
                .count()
        };
        assert!(err(&low_noise) <= err(&high_noise));
        assert_eq!(err(&rx), 0);
    }

    #[test]
    fn empty_input() {
        let eq = MlseEqualizer::new(vec![Complex::ONE]);
        assert!(eq.equalize(&[]).is_empty());
    }

    #[test]
    fn symbols_into_matches_equalize() {
        let h = isi_channel();
        let eq = MlseEqualizer::new(h.clone());
        let symbols = random_symbols(500, 9);
        let rx = apply_symbol_channel(&symbols, &h);
        let mut rng = Rand::new(10);
        let noisy = add_awgn_complex(&rx, 0.3, &mut rng);
        let bools = eq.equalize(&noisy);
        // Pre-dirtied buffer: must be cleared and rewritten.
        let mut syms = vec![Complex::new(9.0, 9.0); 3];
        eq.equalize_symbols_into(&noisy, &mut syms);
        assert_eq!(syms.len(), bools.len());
        for (z, b) in syms.iter().zip(&bools) {
            assert_eq!(z.re, if *b { 1.0 } else { -1.0 });
            assert_eq!(z.im, 0.0);
        }
        // Empty input clears the buffer.
        eq.equalize_symbols_into(&[], &mut syms);
        assert!(syms.is_empty());
    }

    #[test]
    fn five_tap_channel_works() {
        let h = vec![
            Complex::new(1.0, 0.0),
            Complex::new(0.5, 0.0),
            Complex::new(0.25, 0.1),
            Complex::new(-0.2, 0.0),
            Complex::new(0.1, -0.1),
        ];
        let eq = MlseEqualizer::new(h.clone());
        assert_eq!(eq.states(), 16);
        let symbols = random_symbols(200, 7);
        let rx = apply_symbol_channel(&symbols, &h);
        assert_eq!(eq.equalize(&rx), symbols);
    }

    #[test]
    #[should_panic(expected = "taps")]
    fn empty_channel_panics() {
        MlseEqualizer::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "energy")]
    fn zero_channel_panics() {
        MlseEqualizer::new(vec![Complex::ZERO; 3]);
    }
}
