//! Pseudo-noise sequences: LFSR m-sequences and the Barker-13 code.
//!
//! The acquisition preamble is a PN sequence whose sharp circular
//! autocorrelation (N at lag 0, −1 elsewhere for an m-sequence) is what the
//! parallelized correlator bank searches for.

/// A Fibonacci LFSR over GF(2) defined by its tap polynomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    /// Tap mask: bit `i` set means stage `i+1` feeds the XOR (LSB-first).
    taps: u32,
    degree: u32,
    state: u32,
}

impl Lfsr {
    /// Creates an LFSR of the given degree with a primitive tap polynomial
    /// from the built-in table, seeded with the all-ones state.
    ///
    /// Supported degrees: 3–15 (sequence lengths 7–32767).
    ///
    /// # Panics
    ///
    /// Panics for unsupported degrees.
    pub fn msequence(degree: u32) -> Self {
        let taps = primitive_taps(degree);
        Lfsr {
            taps,
            degree,
            state: (1 << degree) - 1,
        }
    }

    /// Sequence period `2^degree − 1`.
    pub fn period(&self) -> usize {
        (1usize << self.degree) - 1
    }

    /// Produces the next output bit and steps the register.
    pub fn next_bit(&mut self) -> bool {
        let out = self.state & 1 != 0;
        let mut fb = 0u32;
        let mut t = self.taps;
        while t != 0 {
            let pos = t.trailing_zeros();
            fb ^= (self.state >> pos) & 1;
            t &= t - 1;
        }
        self.state = (self.state >> 1) | (fb << (self.degree - 1));
        out
    }

    /// Generates `n` bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Generates one full period as ±1 chips (`true → +1`).
    pub fn chips(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.chips_into(&mut out);
        out
    }

    /// [`Lfsr::chips`] into a caller-owned buffer (allocation-free once the
    /// capacity suffices).
    fn chips_into(&mut self, out: &mut Vec<f64>) {
        let n = self.period();
        out.clear();
        out.extend((0..n).map(|_| if self.next_bit() { 1.0 } else { -1.0 }));
    }
}

/// Primitive polynomial tap masks for degrees 3–15 (Fibonacci convention,
/// feedback from the tapped stages XORed into the top).
fn primitive_taps(degree: u32) -> u32 {
    // Tap masks for the update rule used by `next_bit` (feedback = XOR of
    // the masked state bits, shifted into the top). Mask bit i corresponds
    // to the x^i term of a primitive polynomial x^degree + … + 1; all
    // entries verified maximal-length against this exact implementation.
    match degree {
        3 => 0o3,    // x^3 + x + 1
        4 => 0o3,    // x^4 + x + 1
        5 => 0o5,    // x^5 + x^2 + 1
        6 => 0o3,    // x^6 + x + 1
        7 => 0o3,    // x^7 + x + 1
        8 => 0o35,   // x^8 + x^4 + x^3 + x^2 + 1
        9 => 0o21,   // x^9 + x^4 + 1
        10 => 0o11,  // x^10 + x^3 + 1
        11 => 0o5,   // x^11 + x^2 + 1
        12 => 0o123, // x^12 + x^6 + x^4 + x + 1
        13 => 0o33,  // x^13 + x^4 + x^3 + x + 1
        14 => 0o53,  // x^14 + x^5 + x^3 + x + 1
        15 => 0o3,   // x^15 + x + 1
        _ => panic!("unsupported m-sequence degree {degree} (3..=15)"),
    }
}

/// Generates one period of an m-sequence of the given degree as ±1 chips.
///
/// ```
/// use uwb_phy::pn::msequence_chips;
/// let seq = msequence_chips(7);
/// assert_eq!(seq.len(), 127);
/// ```
pub fn msequence_chips(degree: u32) -> Vec<f64> {
    Lfsr::msequence(degree).chips()
}

/// [`msequence_chips`] into a caller-owned buffer (allocation-free once the
/// capacity suffices).
pub fn msequence_chips_into(degree: u32, out: &mut Vec<f64>) {
    Lfsr::msequence(degree).chips_into(out);
}

/// The 13-chip Barker code — the classic start-frame-delimiter pattern with
/// ideal aperiodic autocorrelation sidelobes of |1|.
pub const BARKER13: [f64; 13] = [
    1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::correlation::circular_autocorrelation;

    #[test]
    fn msequence_periods() {
        for degree in 3..=12u32 {
            let seq = msequence_chips(degree);
            assert_eq!(seq.len(), (1usize << degree) - 1, "degree {degree}");
        }
    }

    #[test]
    fn msequence_is_full_period() {
        // The LFSR must cycle through all 2^n - 1 non-zero states: the
        // sequence must not repeat early. Check balance property:
        // (2^(n-1)) ones vs (2^(n-1) - 1) zeros.
        for degree in [3u32, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15] {
            let mut lfsr = Lfsr::msequence(degree);
            let bits = lfsr.bits((1usize << degree) - 1);
            let ones = bits.iter().filter(|&&b| b).count();
            assert_eq!(
                ones,
                1usize << (degree - 1),
                "degree {degree} is not maximal-length"
            );
        }
    }

    #[test]
    fn msequence_autocorrelation_two_valued() {
        for degree in [5u32, 7, 9] {
            let seq = msequence_chips(degree);
            let n = seq.len() as f64;
            let ac = circular_autocorrelation(&seq);
            assert!((ac[0] - n).abs() < 1e-9);
            for &v in &ac[1..] {
                assert!(
                    (v + 1.0).abs() < 1e-9,
                    "degree {degree}: off-peak {v} (expected -1)"
                );
            }
        }
    }

    #[test]
    fn lfsr_deterministic() {
        let a = Lfsr::msequence(7).bits(100);
        let b = Lfsr::msequence(7).bits(100);
        assert_eq!(a, b);
    }

    #[test]
    fn barker_autocorrelation_sidelobes() {
        let b = BARKER13;
        // Aperiodic autocorrelation sidelobes all <= 1.
        for lag in 1..13 {
            let c: f64 = (0..13 - lag).map(|i| b[i] * b[i + lag]).sum();
            assert!(c.abs() <= 1.0 + 1e-9, "lag {lag}: {c}");
        }
    }

    #[test]
    fn chips_are_pm_one() {
        let seq = msequence_chips(8);
        assert!(seq.iter().all(|&c| c == 1.0 || c == -1.0));
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn bad_degree_panics() {
        msequence_chips(20);
    }
}
