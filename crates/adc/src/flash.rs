//! Flash ADC model with comparator non-idealities.
//!
//! The gen1 chip digitizes with a "2 GSPS FLASH interleaved analog to digital
//! converter" (paper Fig. 1). A flash converter is a bank of `2^b − 1`
//! comparators whose individual offsets set the converter's INL/DNL; this
//! model draws per-comparator offsets once at construction so a given
//! converter instance has a stable transfer function.

use uwb_sim::rng::Rand;

/// A flash ADC: thermometer comparator bank with per-comparator offset.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashAdc {
    bits: u32,
    full_scale: f64,
    /// Comparator thresholds, ascending; length `2^bits − 1`.
    thresholds: Vec<f64>,
}

impl FlashAdc {
    /// An ideal flash converter (zero comparator offset).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 10 (flash converters do not
    /// scale past that), or `full_scale <= 0`.
    pub fn ideal(bits: u32, full_scale: f64) -> Self {
        FlashAdc::with_offsets(bits, full_scale, 0.0, &mut Rand::new(0))
    }

    /// A flash converter whose comparator offsets are drawn from a Gaussian
    /// with standard deviation `offset_sigma` (volts, same units as
    /// `full_scale`).
    ///
    /// # Panics
    ///
    /// Panics on invalid `bits`/`full_scale` as for [`FlashAdc::ideal`].
    pub fn with_offsets(bits: u32, full_scale: f64, offset_sigma: f64, rng: &mut Rand) -> Self {
        assert!((1..=10).contains(&bits), "flash bits must be in 1..=10");
        assert!(full_scale > 0.0, "full scale must be positive");
        let levels = 1usize << bits;
        let step = 2.0 * full_scale / levels as f64;
        let mut thresholds: Vec<f64> = (1..levels)
            .map(|k| -full_scale + k as f64 * step + offset_sigma * rng.gaussian())
            .collect();
        // Real flash converters bubble-correct; emulate by sorting.
        thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        FlashAdc {
            bits,
            full_scale,
            thresholds,
        }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale amplitude.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Converts one sample to its output code in `[0, 2^bits − 1]`
    /// (thermometer count of tripped comparators).
    pub fn convert_code(&self, x: f64) -> u32 {
        // Binary search over sorted thresholds == count below x.
        self.thresholds.partition_point(|&t| t <= x) as u32
    }

    /// Converts one sample to the reconstruction amplitude.
    pub fn convert(&self, x: f64) -> f64 {
        let code = self.convert_code(x);
        let levels = 1u32 << self.bits;
        let step = 2.0 * self.full_scale / levels as f64;
        -self.full_scale + (code as f64 + 0.5) * step
    }

    /// Converts a block of samples to reconstruction amplitudes.
    pub fn convert_block(&self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.convert(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::Quantizer;

    #[test]
    fn ideal_flash_matches_quantizer() {
        let flash = FlashAdc::ideal(4, 1.0);
        let q = Quantizer::new(4, 1.0);
        for i in -100..=100 {
            let x = i as f64 / 100.0 * 1.2; // include clipping region
            assert!(
                (flash.convert(x) - q.quantize(x)).abs() < 1e-12,
                "mismatch at {x}"
            );
        }
    }

    #[test]
    fn codes_monotonic_in_input() {
        let mut rng = Rand::new(1);
        let flash = FlashAdc::with_offsets(5, 1.0, 0.01, &mut rng);
        let mut prev = 0;
        for i in -100..=100 {
            let x = i as f64 / 100.0;
            let c = flash.convert_code(x);
            assert!(c >= prev, "non-monotonic at {x}");
            prev = c;
        }
    }

    #[test]
    fn full_code_range_exercised() {
        let flash = FlashAdc::ideal(3, 1.0);
        assert_eq!(flash.convert_code(-2.0), 0);
        assert_eq!(flash.convert_code(2.0), 7);
    }

    #[test]
    fn offsets_degrade_but_do_not_break() {
        // With moderate comparator offset the converter still roughly tracks.
        let mut rng = Rand::new(3);
        let flash = FlashAdc::with_offsets(5, 1.0, 0.01, &mut rng);
        let n = 8192;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.9 * (std::f64::consts::TAU * 0.01234 * i as f64).sin())
            .collect();
        let y = flash.convert_block(&x);
        let err: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64;
        let sig: f64 = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
        let snr = 10.0 * (sig / err).log10();
        // Ideal 5-bit: ~31.9 dB. With offsets allow down to 24 dB.
        assert!(snr > 24.0 && snr < 33.0, "snr {snr}");
    }

    #[test]
    fn deterministic_construction() {
        let a = FlashAdc::with_offsets(4, 1.0, 0.01, &mut Rand::new(7));
        let b = FlashAdc::with_offsets(4, 1.0, 0.01, &mut Rand::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "flash bits")]
    fn too_many_bits_panics() {
        FlashAdc::ideal(12, 1.0);
    }
}
