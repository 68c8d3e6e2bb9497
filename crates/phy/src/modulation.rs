//! Pulse modulation formats.
//!
//! The discrete prototype exists exactly to compare "different modulation
//! schemes" within a 500 MHz bandwidth (paper §3); these are the candidates:
//! antipodal BPSK, on-off keying, binary pulse-position, and 4-PAM. Each
//! symbol occupies one or more pulse *slots*; the modulator emits one
//! amplitude per slot and the demodulator decides from per-slot correlator
//! outputs.

use uwb_dsp::Complex;

/// Maximum pulse slots any supported format occupies per symbol (PPM-2).
pub const MAX_SLOTS_PER_SYMBOL: usize = 2;
/// Maximum bits any supported format carries per symbol (4-PAM).
pub const MAX_BITS_PER_SYMBOL: usize = 2;

/// A pulse modulation format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Antipodal binary phase-shift keying: ±pulse in a single slot.
    Bpsk,
    /// On-off keying: pulse or silence in a single slot.
    Ook,
    /// Binary pulse-position modulation: the pulse occupies slot 0 or 1.
    Ppm2,
    /// 4-level pulse-amplitude modulation, Gray-coded, single slot.
    Pam4,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk | Modulation::Ook | Modulation::Ppm2 => 1,
            Modulation::Pam4 => 2,
        }
    }

    /// Pulse slots occupied per symbol.
    pub fn slots_per_symbol(self) -> usize {
        match self {
            Modulation::Ppm2 => 2,
            _ => 1,
        }
    }

    /// `true` if the format can be demodulated without carrier phase
    /// (energy detection).
    pub fn supports_noncoherent(self) -> bool {
        matches!(self, Modulation::Ook | Modulation::Ppm2)
    }

    /// Average symbol energy with the amplitudes produced by [`map`], when
    /// the unit-energy pulse carries amplitude `a` (energy `a²`).
    ///
    /// [`map`]: Modulation::map
    pub fn mean_symbol_energy(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Ook => 0.5,
            Modulation::Ppm2 => 1.0,
            Modulation::Pam4 => 1.0, // levels scaled to unit mean energy
        }
    }

    /// Maps `bits_per_symbol` bits to per-slot amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.bits_per_symbol()`.
    pub fn map(self, bits: &[bool]) -> Vec<f64> {
        let mut amps = [0.0; MAX_SLOTS_PER_SYMBOL];
        let n = self.map_into(bits, &mut amps);
        amps[..n].to_vec()
    }

    /// [`Modulation::map`] into a caller-owned fixed array (allocation-free).
    /// Returns the number of slots written.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.bits_per_symbol()`.
    pub fn map_into(self, bits: &[bool], amps: &mut [f64; MAX_SLOTS_PER_SYMBOL]) -> usize {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "wrong number of bits for {self:?}"
        );
        match self {
            Modulation::Bpsk => {
                amps[0] = if bits[0] { 1.0 } else { -1.0 };
                1
            }
            Modulation::Ook => {
                amps[0] = if bits[0] { 1.0 } else { 0.0 };
                1
            }
            Modulation::Ppm2 => {
                if bits[0] {
                    amps[0] = 0.0;
                    amps[1] = 1.0;
                } else {
                    amps[0] = 1.0;
                    amps[1] = 0.0;
                }
                2
            }
            Modulation::Pam4 => {
                // Gray map: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3, scaled by
                // 1/sqrt(5) for unit mean energy.
                let level = match (bits[0], bits[1]) {
                    (false, false) => -3.0,
                    (false, true) => -1.0,
                    (true, true) => 1.0,
                    (true, false) => 3.0,
                };
                amps[0] = level / 5.0f64.sqrt();
                1
            }
        }
    }

    /// Coherent demodulation from per-slot matched-filter outputs. Returns
    /// the decided bits and a soft metric per bit (sign = decision,
    /// magnitude = confidence), suitable for the soft Viterbi decoder.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() != self.slots_per_symbol()`.
    pub fn demap(self, slots: &[Complex]) -> (Vec<bool>, Vec<f64>) {
        let mut bits = [false; MAX_BITS_PER_SYMBOL];
        let mut soft = [0.0; MAX_BITS_PER_SYMBOL];
        let n = self.demap_into(slots, &mut bits, &mut soft);
        (bits[..n].to_vec(), soft[..n].to_vec())
    }

    /// [`Modulation::demap`] into caller-owned fixed arrays
    /// (allocation-free). Returns the number of bits written.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() != self.slots_per_symbol()`.
    pub fn demap_into(
        self,
        slots: &[Complex],
        bits: &mut [bool; MAX_BITS_PER_SYMBOL],
        soft: &mut [f64; MAX_BITS_PER_SYMBOL],
    ) -> usize {
        assert_eq!(
            slots.len(),
            self.slots_per_symbol(),
            "wrong number of slots for {self:?}"
        );
        match self {
            Modulation::Bpsk => {
                let m = slots[0].re;
                bits[0] = m > 0.0;
                soft[0] = m;
                1
            }
            Modulation::Ook => {
                // Threshold halfway between 0 and the nominal amplitude 1.
                let m = slots[0].re - 0.5;
                bits[0] = m > 0.0;
                soft[0] = m;
                1
            }
            Modulation::Ppm2 => {
                let m = slots[1].re - slots[0].re;
                bits[0] = m > 0.0;
                soft[0] = m;
                1
            }
            Modulation::Pam4 => {
                let x = slots[0].re * 5.0f64.sqrt();
                // Gray demap with per-bit soft metrics.
                // bit0 (MSB): sign. bit1: |x| < 2.
                bits[0] = x > 0.0;
                bits[1] = x.abs() < 2.0;
                soft[0] = x;
                soft[1] = 2.0 - x.abs();
                2
            }
        }
    }

    /// Non-coherent (energy) demodulation for formats that support it.
    /// Returns `None` for coherent-only formats.
    pub fn demap_noncoherent(self, slots: &[Complex]) -> Option<(Vec<bool>, Vec<f64>)> {
        assert_eq!(slots.len(), self.slots_per_symbol());
        match self {
            Modulation::Ook => {
                let e = slots[0].norm_sqr() - 0.25;
                Some((vec![e > 0.0], vec![e]))
            }
            Modulation::Ppm2 => {
                let m = slots[1].norm_sqr() - slots[0].norm_sqr();
                Some((vec![m > 0.0], vec![m]))
            }
            _ => None,
        }
    }

    /// All supported formats.
    pub fn all() -> [Modulation; 4] {
        [
            Modulation::Bpsk,
            Modulation::Ook,
            Modulation::Ppm2,
            Modulation::Pam4,
        ]
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Ook => "OOK",
            Modulation::Ppm2 => "2-PPM",
            Modulation::Pam4 => "4-PAM",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex {
        Complex::new(re, 0.0)
    }

    #[test]
    fn round_trip_all_formats_all_symbols() {
        for m in Modulation::all() {
            let nbits = m.bits_per_symbol();
            for pattern in 0..(1usize << nbits) {
                let bits: Vec<bool> = (0..nbits).map(|i| (pattern >> i) & 1 != 0).collect();
                let amps = m.map(&bits);
                assert_eq!(amps.len(), m.slots_per_symbol());
                let slots: Vec<Complex> = amps.iter().map(|&a| c(a)).collect();
                let (decided, soft) = m.demap(&slots);
                assert_eq!(decided, bits, "{m} pattern {pattern}");
                assert_eq!(soft.len(), nbits);
            }
        }
    }

    #[test]
    fn noncoherent_round_trip() {
        for m in [Modulation::Ook, Modulation::Ppm2] {
            for bit in [false, true] {
                let amps = m.map(&[bit]);
                // Random carrier phase — noncoherent must still decide right.
                let slots: Vec<Complex> = amps
                    .iter()
                    .map(|&a| Complex::from_polar(a, 1.234))
                    .collect();
                let (decided, _) = m.demap_noncoherent(&slots).unwrap();
                assert_eq!(decided, vec![bit], "{m} bit {bit}");
            }
        }
        assert!(Modulation::Bpsk.demap_noncoherent(&[c(1.0)]).is_none());
    }

    #[test]
    fn mean_energies() {
        // PAM4 levels average to unit energy: (9+1+1+9)/4/5 = 1.
        let total: f64 = (0..4)
            .map(|p| {
                let bits = [p & 1 != 0, (p >> 1) & 1 != 0];
                let a = Modulation::Pam4.map(&bits)[0];
                a * a
            })
            .sum();
        assert!((total / 4.0 - 1.0).abs() < 1e-12);
        assert_eq!(Modulation::Ook.mean_symbol_energy(), 0.5);
    }

    #[test]
    fn pam4_gray_coding_adjacent_levels() {
        // Adjacent amplitude levels must differ in exactly one bit.
        let mut level_bits: Vec<(f64, Vec<bool>)> = (0..4)
            .map(|p| {
                let bits = vec![(p >> 1) & 1 != 0, p & 1 != 0];
                (Modulation::Pam4.map(&bits)[0], bits)
            })
            .collect();
        level_bits.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in level_bits.windows(2) {
            let diff = w[0].1.iter().zip(&w[1].1).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1, "not Gray: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn soft_metric_sign_matches_decision() {
        let m = Modulation::Bpsk;
        let (bits, soft) = m.demap(&[c(-0.3)]);
        assert_eq!(bits, vec![false]);
        assert!(soft[0] < 0.0);
    }

    #[test]
    fn ppm_slots() {
        assert_eq!(Modulation::Ppm2.slots_per_symbol(), 2);
        assert_eq!(Modulation::Ppm2.map(&[false]), vec![1.0, 0.0]);
        assert_eq!(Modulation::Ppm2.map(&[true]), vec![0.0, 1.0]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Bpsk.to_string(), "BPSK");
        assert_eq!(Modulation::Pam4.to_string(), "4-PAM");
    }

    #[test]
    #[should_panic(expected = "wrong number of bits")]
    fn wrong_bit_count_panics() {
        Modulation::Pam4.map(&[true]);
    }
}
