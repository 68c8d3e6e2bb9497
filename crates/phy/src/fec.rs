//! Convolutional coding and Viterbi decoding.
//!
//! The paper's back end uses a "Viterbi demodulator" both for channel-coding
//! gain and ISI equalization. This module provides the channel-coding half:
//! a rate-1/2 convolutional encoder (any constraint length up to 9) and a
//! terminated Viterbi decoder with hard or soft decisions. The ISI equalizer
//! (MLSE) lives in [`crate::mlse`] and shares the same algorithmic core.

/// A rate-1/2 convolutional code defined by two generator polynomials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvCode {
    /// Constraint length K (memory = K − 1).
    pub constraint_length: u32,
    /// First generator polynomial (binary, LSB = current input).
    pub g0: u32,
    /// Second generator polynomial.
    pub g1: u32,
}

impl ConvCode {
    /// The industry-standard K=7 code (171, 133 octal) — strongest option.
    pub fn k7() -> Self {
        ConvCode {
            constraint_length: 7,
            g0: 0o171,
            g1: 0o133,
        }
    }

    /// The compact K=3 code (7, 5 octal) — what a 0.18 µm low-power back end
    /// would realistically afford at 100 Mbps.
    pub fn k3() -> Self {
        ConvCode {
            constraint_length: 3,
            g0: 0o7,
            g1: 0o5,
        }
    }

    /// Number of trellis states, `2^(K−1)`.
    pub fn states(&self) -> usize {
        1usize << (self.constraint_length - 1)
    }

    /// Encodes `bits`, appending `K − 1` zero tail bits to terminate the
    /// trellis. Output has `2 * (bits.len() + K − 1)` coded bits.
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let k = self.constraint_length;
        let mut state = 0u32; // shift register of the last K-1 inputs
        let mut out = Vec::with_capacity(2 * (bits.len() + k as usize - 1));
        let tail = vec![false; k as usize - 1];
        for &b in bits.iter().chain(tail.iter()) {
            let reg = ((b as u32) << (k - 1)) | state;
            out.push(parity(reg & self.g0));
            out.push(parity(reg & self.g1));
            state = reg >> 1;
        }
        out
    }

    /// Decodes hard-decision coded bits (as produced by [`encode`], including
    /// the tail). Returns the information bits.
    ///
    /// [`encode`]: ConvCode::encode
    ///
    /// # Panics
    ///
    /// Panics if the input length is odd or shorter than the tail.
    pub fn decode_hard(&self, coded: &[bool]) -> Vec<bool> {
        let llrs: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        self.decode_soft(&llrs)
    }

    /// Decodes soft inputs: one value per coded bit, positive meaning "bit
    /// is 1", magnitude meaning confidence. Returns the information bits
    /// (tail removed).
    ///
    /// # Panics
    ///
    /// Panics if the input length is odd or shorter than the tail.
    pub fn decode_soft(&self, soft: &[f64]) -> Vec<bool> {
        assert!(
            soft.len().is_multiple_of(2),
            "rate-1/2 input must have even length"
        );
        let n_steps = soft.len() / 2;
        let k = self.constraint_length as usize;
        assert!(n_steps >= k - 1, "input shorter than the code tail");
        let n_states = self.states();

        // Precompute per-(state, input) outputs.
        let mut out0 = vec![(false, false); n_states * 2];
        for s in 0..n_states {
            for inp in 0..2usize {
                let reg = ((inp as u32) << (self.constraint_length - 1)) | s as u32;
                out0[s * 2 + inp] = (parity(reg & self.g0), parity(reg & self.g1));
            }
        }

        const NEG_INF: f64 = f64::NEG_INFINITY;
        let mut metric = vec![NEG_INF; n_states];
        metric[0] = 0.0; // encoder starts in the zero state
        let mut decisions: Vec<Vec<u16>> = Vec::with_capacity(n_steps);

        for step in 0..n_steps {
            let l0 = soft[2 * step];
            let l1 = soft[2 * step + 1];
            let mut next = vec![NEG_INF; n_states];
            let mut dec = vec![0u16; n_states];
            for s in 0..n_states {
                if metric[s] == NEG_INF {
                    continue;
                }
                for inp in 0..2usize {
                    let (o0, o1) = out0[s * 2 + inp];
                    // Correlation metric: +llr if output bit is 1, -llr if 0.
                    let gain = if o0 { l0 } else { -l0 } + if o1 { l1 } else { -l1 };
                    let reg = ((inp as u32) << (self.constraint_length - 1)) | s as u32;
                    let ns = (reg >> 1) as usize;
                    let cand = metric[s] + gain;
                    if cand > next[ns] {
                        next[ns] = cand;
                        // Record the predecessor state's low bit decision:
                        // the bit shifted out of `reg` IS s's LSB; we store
                        // the input and predecessor for traceback.
                        dec[ns] = (s as u16) << 1 | inp as u16;
                    }
                }
            }
            metric = next;
            decisions.push(dec);
        }

        // Terminated trellis: traceback from state 0.
        let mut state = 0usize;
        let mut bits_rev = Vec::with_capacity(n_steps);
        for step in (0..n_steps).rev() {
            let d = decisions[step][state];
            let inp = (d & 1) != 0;
            let pred = (d >> 1) as usize;
            bits_rev.push(inp);
            state = pred;
        }
        bits_rev.reverse();
        bits_rev.truncate(n_steps - (k - 1)); // strip tail
        bits_rev
    }
}

#[inline]
fn parity(x: u32) -> bool {
    x.count_ones() % 2 == 1
}

/// Packs bits (MSB-first) into bytes, zero-padding the final byte.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::new();
    bits_to_bytes_into(bits, &mut out);
    out
}

/// [`bits_to_bytes`] into a caller-owned buffer (allocation-free once the
/// capacity suffices).
pub(crate) fn bits_to_bytes_into(bits: &[bool], out: &mut Vec<u8>) {
    out.clear();
    out.extend(bits.chunks(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << (7 - i)))
    }));
}

/// Unpacks bytes into bits, MSB-first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut out = Vec::new();
    bytes_to_bits_into(bytes, &mut out);
    out
}

/// [`bytes_to_bits`] into a caller-owned buffer (allocation-free once the
/// capacity suffices).
pub fn bytes_to_bits_into(bytes: &[u8], out: &mut Vec<bool>) {
    out.clear();
    out.extend(
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 != 0)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::Rand;

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Rand::new(seed);
        (0..n).map(|_| rng.bit()).collect()
    }

    #[test]
    fn encode_rate_and_tail() {
        let code = ConvCode::k3();
        let bits = random_bits(100, 1);
        let coded = code.encode(&bits);
        assert_eq!(coded.len(), 2 * (100 + 2));
    }

    #[test]
    fn clean_round_trip_k3_and_k7() {
        for code in [ConvCode::k3(), ConvCode::k7()] {
            let bits = random_bits(200, 2);
            let coded = code.encode(&bits);
            let decoded = code.decode_hard(&coded);
            assert_eq!(decoded, bits, "K={}", code.constraint_length);
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        let code = ConvCode::k7();
        let bits = random_bits(300, 3);
        let mut coded = code.encode(&bits);
        // Flip well-separated bits (within correction capability).
        for idx in [10, 100, 200, 350, 500] {
            coded[idx] = !coded[idx];
        }
        let decoded = code.decode_hard(&coded);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn k3_corrects_two_spread_errors() {
        let code = ConvCode::k3();
        let bits = random_bits(100, 4);
        let mut coded = code.encode(&bits);
        coded[20] = !coded[20];
        coded[120] = !coded[120];
        assert_eq!(code.decode_hard(&coded), bits);
    }

    #[test]
    fn soft_beats_hard_at_moderate_noise() {
        // Monte-Carlo: soft-decision decoding should produce fewer bit errors
        // than hard-decision at the same Eb/N0.
        let code = ConvCode::k3();
        let mut rng = Rand::new(5);
        let n_bits = 400;
        let sigma = 0.9; // heavy noise on unit-amplitude symbols
        let mut hard_errs = 0usize;
        let mut soft_errs = 0usize;
        for trial in 0..20 {
            let bits = random_bits(n_bits, 100 + trial);
            let coded = code.encode(&bits);
            let rx: Vec<f64> = coded
                .iter()
                .map(|&b| (if b { 1.0 } else { -1.0 }) + sigma * rng.gaussian())
                .collect();
            let hard: Vec<bool> = rx.iter().map(|&x| x > 0.0).collect();
            let dh = code.decode_hard(&hard);
            let ds = code.decode_soft(&rx);
            hard_errs += dh.iter().zip(&bits).filter(|(a, b)| a != b).count();
            soft_errs += ds.iter().zip(&bits).filter(|(a, b)| a != b).count();
        }
        assert!(
            soft_errs < hard_errs,
            "soft {soft_errs} should beat hard {hard_errs}"
        );
        assert!(hard_errs > 0, "test too easy to be meaningful");
    }

    #[test]
    fn known_k3_encoding() {
        // K=3 (7,5): input 1 from state 00 -> outputs (1,1).
        let code = ConvCode::k3();
        let coded = code.encode(&[true]);
        // First two coded bits for input 1, state 0: g0=111 &100 -> 1; g1=101&100 -> 1.
        assert_eq!(&coded[..2], &[true, true]);
    }

    #[test]
    fn trellis_state_counts() {
        assert_eq!(ConvCode::k3().states(), 4);
        assert_eq!(ConvCode::k7().states(), 64);
    }

    #[test]
    fn bit_byte_round_trip() {
        let bytes = vec![0xDE, 0xAD, 0xBE, 0xEF];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(bits_to_bytes(&bits), bytes);
        // MSB-first check.
        assert!(bytes_to_bits(&[0x80])[0]);
        assert!(bytes_to_bits(&[0x01])[7]);
    }

    #[test]
    fn empty_message() {
        let code = ConvCode::k3();
        let coded = code.encode(&[]);
        assert_eq!(coded.len(), 4); // tail only
        assert!(code.decode_hard(&coded).is_empty());
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_input_panics() {
        ConvCode::k3().decode_hard(&[true; 7]);
    }
}
