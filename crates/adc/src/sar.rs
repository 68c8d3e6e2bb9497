//! Successive-approximation-register ADC model.
//!
//! Paper Fig. 3 digitizes I and Q with "two 5-bit successive approximation
//! register ADCs". A SAR converter performs a binary search against a
//! capacitive DAC; its static accuracy is set by the matching of the binary-
//! weighted capacitors. This model implements the bit-cycling loop explicitly
//! with per-bit weight errors, plus comparator noise.

use uwb_sim::rng::Rand;

/// A SAR ADC with capacitor-mismatch weight errors and comparator noise.
#[derive(Debug, Clone, PartialEq)]
pub struct SarAdc {
    bits: u32,
    full_scale: f64,
    /// Actual DAC weight of each bit, MSB first. Ideal: `FS, FS/2, FS/4…`.
    weights: Vec<f64>,
    /// Comparator input-referred noise sigma (volts).
    comparator_noise: f64,
}

impl SarAdc {
    /// An ideal SAR converter.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16, or `full_scale <= 0`.
    pub fn ideal(bits: u32, full_scale: f64) -> Self {
        SarAdc::with_mismatch(bits, full_scale, 0.0, 0.0, &mut Rand::new(0))
    }

    /// The paper's converter: 5 bits.
    pub fn gen2_default() -> Self {
        SarAdc::ideal(5, 1.0)
    }

    /// A SAR with relative capacitor mismatch `sigma_rel` (per-bit Gaussian,
    /// relative to the bit weight) and comparator noise.
    ///
    /// # Panics
    ///
    /// Panics on invalid `bits`/`full_scale` as for [`SarAdc::ideal`].
    pub fn with_mismatch(
        bits: u32,
        full_scale: f64,
        sigma_rel: f64,
        comparator_noise: f64,
        rng: &mut Rand,
    ) -> Self {
        assert!((1..=16).contains(&bits), "SAR bits must be in 1..=16");
        assert!(full_scale > 0.0, "full scale must be positive");
        let weights = (0..bits)
            .map(|b| {
                let ideal = full_scale / (1u64 << b) as f64;
                ideal * (1.0 + sigma_rel * rng.gaussian())
            })
            .collect();
        SarAdc {
            bits,
            full_scale,
            weights,
            comparator_noise,
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

    /// Converts one sample by explicit SAR bit cycling. Returns the signed
    /// reconstruction amplitude.
    ///
    /// The comparator noise (if any) is redrawn on every bit decision, which
    /// is how real SAR metastability/noise behaves — early (MSB) errors are
    /// unrecoverable.
    pub fn convert(&self, x: f64, rng: &mut Rand) -> f64 {
        let code = self.convert_code(x, rng);
        self.reconstruct(code)
    }

    /// Converts one sample to its unsigned output code `[0, 2^bits)`.
    pub fn convert_code(&self, x: f64, rng: &mut Rand) -> u32 {
        // Binary search: start at mid-scale, add/subtract halving weights.
        let mut code = 0u32;
        let mut dac = -self.full_scale; // bottom of range
        for (b, &w) in self.weights.iter().enumerate() {
            let trial = dac + w;
            let noise = if self.comparator_noise > 0.0 {
                self.comparator_noise * rng.gaussian()
            } else {
                0.0
            };
            if x + noise >= trial {
                dac = trial;
                code |= 1 << (self.bits - 1 - b as u32);
            }
        }
        code
    }

    /// Reconstruction amplitude for an output code.
    pub fn reconstruct(&self, code: u32) -> f64 {
        let mut v = -self.full_scale;
        for b in 0..self.bits {
            if code & (1 << (self.bits - 1 - b)) != 0 {
                v += self.weights[b as usize];
            }
        }
        // Half-LSB recentering.
        v + self.full_scale / (1u64 << self.bits) as f64
    }

    /// Converts a real block.
    pub fn convert_block(&self, input: &[f64], rng: &mut Rand) -> Vec<f64> {
        input.iter().map(|&x| self.convert(x, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sar_matches_midrise_quantizer() {
        let sar = SarAdc::ideal(5, 1.0);
        let q = crate::quantizer::Quantizer::new(5, 1.0);
        let mut rng = Rand::new(1);
        for i in -100..=100 {
            let x = i as f64 / 100.0 * 0.99;
            let a = sar.convert(x, &mut rng);
            let b = q.quantize(x);
            assert!((a - b).abs() < 1e-12, "x={x}: sar {a} vs q {b}");
        }
    }

    #[test]
    fn code_range_and_monotonicity() {
        let sar = SarAdc::gen2_default();
        let mut rng = Rand::new(2);
        assert_eq!(sar.convert_code(-5.0, &mut rng), 0);
        assert_eq!(sar.convert_code(5.0, &mut rng), 31);
        let mut prev = 0;
        for i in -100..=100 {
            let c = sar.convert_code(i as f64 / 100.0, &mut rng);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn reconstruct_round_trip() {
        let sar = SarAdc::ideal(5, 1.0);
        let mut rng = Rand::new(3);
        for code in 0..32u32 {
            let v = sar.reconstruct(code);
            assert_eq!(sar.convert_code(v, &mut rng), code);
        }
    }

    #[test]
    fn mismatch_degrades_linearity() {
        let mut rng = Rand::new(4);
        let ideal = SarAdc::ideal(8, 1.0);
        // Mismatch errors are partially self-consistent (the same weights are
        // used for conversion and reconstruction), so a large sigma is needed
        // for a visible SNDR hit.
        let real = SarAdc::with_mismatch(8, 1.0, 0.10, 0.0, &mut rng);
        let n = 8192;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.95 * (std::f64::consts::TAU * 0.00987 * i as f64).sin())
            .collect();
        let snr = |adc: &SarAdc| {
            let mut r = Rand::new(5);
            let y = adc.convert_block(&x, &mut r);
            let err: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
            let sig: f64 = x.iter().map(|v| v * v).sum();
            10.0 * (sig / err).log10()
        };
        let snr_ideal = snr(&ideal);
        let snr_real = snr(&real);
        assert!(snr_ideal > 47.0, "ideal 8-bit {snr_ideal}");
        assert!(snr_real < snr_ideal - 3.0, "{snr_real} vs {snr_ideal}");
    }

    #[test]
    fn comparator_noise_flips_decisions() {
        let mut rng = Rand::new(6);
        let noisy = SarAdc::with_mismatch(5, 1.0, 0.0, 0.05, &mut rng);
        // Input exactly between two codes: noise makes results vary.
        let mut rng2 = Rand::new(7);
        let codes: Vec<u32> = (0..200)
            .map(|_| noisy.convert_code(0.0, &mut rng2))
            .collect();
        let first = codes[0];
        assert!(codes.iter().any(|&c| c != first), "noise had no effect");
    }

    #[test]
    #[should_panic(expected = "SAR bits")]
    fn bad_bits_panics() {
        SarAdc::ideal(0, 1.0);
    }
}
