//! Data whitening (scrambling).
//!
//! Payload bits are XORed with a self-synchronizing PN stream so the radiated
//! spectrum stays noise-like regardless of payload content — important under
//! a PSD-limited regulation like the FCC UWB mask, where repetitive data
//! would concentrate power into spectral lines.

/// A multiplicative scrambler `x^15 + x^14 + 1` (the classic 802-family
/// side-stream scrambler), used here as a synchronous (additive) whitener so
/// that one bit error does not multiply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    state: u16,
    seed: u16,
}

impl Scrambler {
    /// Creates a scrambler with the given 15-bit seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero (the LFSR would lock up) or uses more than
    /// 15 bits.
    pub fn new(seed: u16) -> Self {
        assert!(seed != 0, "scrambler seed must be non-zero");
        assert!(seed < (1 << 15), "scrambler seed must fit 15 bits");
        Scrambler { state: seed, seed }
    }

    /// The default seed used by the packet format.
    fn default_seed() -> u16 {
        0x6959
    }

    fn next_bit(&mut self) -> bool {
        // x^15 + x^14 + 1: feedback = s14 ^ s13 (0-indexed).
        let fb = ((self.state >> 14) ^ (self.state >> 13)) & 1;
        self.state = ((self.state << 1) | fb) & 0x7FFF;
        fb != 0
    }

    /// Re-arms the scrambler to its seed (start of each packet).
    pub fn reset(&mut self) {
        self.state = self.seed;
    }

    /// Scrambles (or descrambles — the operation is an involution) a bit
    /// slice in place.
    pub fn apply_bits(&mut self, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            *b ^= self.next_bit();
        }
    }

    /// Scrambles bytes in place (MSB-first bit order).
    pub fn apply_bytes(&mut self, bytes: &mut [u8]) {
        for byte in bytes.iter_mut() {
            let mut mask = 0u8;
            for bit in (0..8).rev() {
                if self.next_bit() {
                    mask |= 1 << bit;
                }
            }
            *byte ^= mask;
        }
    }
}

impl Default for Scrambler {
    fn default() -> Self {
        Scrambler::new(Scrambler::default_seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution_round_trip() {
        let mut tx = Scrambler::default();
        let mut rx = Scrambler::default();
        let original: Vec<u8> = (0..=255).collect();
        let mut data = original.clone();
        tx.apply_bytes(&mut data);
        assert_ne!(data, original, "scrambler did nothing");
        rx.apply_bytes(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn bit_and_byte_paths_agree() {
        let mut a = Scrambler::new(0x1ABC);
        let mut b = Scrambler::new(0x1ABC);
        let mut bytes = [0u8; 4];
        a.apply_bytes(&mut bytes);
        let mut bits = [false; 32];
        b.apply_bits(&mut bits);
        for (i, &bit) in bits.iter().enumerate() {
            let byte_bit = bytes[i / 8] >> (7 - i % 8) & 1 != 0;
            assert_eq!(bit, byte_bit, "bit {i}");
        }
    }

    #[test]
    fn whitens_constant_data() {
        // All-zero payload becomes balanced after scrambling.
        let mut s = Scrambler::default();
        let mut data = vec![0u8; 1024];
        s.apply_bytes(&mut data);
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        let total = 1024 * 8;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "ones fraction {frac}");
    }

    #[test]
    fn reset_rearms() {
        let mut s = Scrambler::default();
        let mut d1 = vec![0xAAu8; 16];
        s.apply_bytes(&mut d1);
        s.reset();
        let mut d2 = vec![0xAAu8; 16];
        s.apply_bytes(&mut d2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Scrambler::new(1);
        let mut b = Scrambler::new(2);
        let mut da = vec![0u8; 16];
        let mut db = vec![0u8; 16];
        a.apply_bytes(&mut da);
        b.apply_bytes(&mut db);
        assert_ne!(da, db);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_panics() {
        Scrambler::new(0);
    }
}
