//! Time-interleaved converter array.
//!
//! The gen1 chip reaches 2 GSps with a "4-way time-interleaved flash ADC
//! that performs an initial 4-way parallelization of the signal" (paper §2).
//! Interleaving introduces its own error family — per-lane offset, gain, and
//! sample-time (skew) mismatch — which appear as spurs at `fs/M` offsets.

use crate::flash::FlashAdc;
use uwb_sim::rng::Rand;

/// Per-lane mismatch parameters for a time-interleaved array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterleaveMismatch {
    /// Per-lane offset sigma (volts).
    pub offset_sigma: f64,
    /// Per-lane gain error sigma (relative).
    pub gain_sigma: f64,
    /// Per-lane sampling-time skew sigma (seconds).
    pub skew_sigma_s: f64,
}

impl InterleaveMismatch {
    /// No mismatch.
    pub fn none() -> Self {
        InterleaveMismatch {
            offset_sigma: 0.0,
            gain_sigma: 0.0,
            skew_sigma_s: 0.0,
        }
    }

    /// Representative 0.18 µm-era values: 2 mV offset, 0.5 % gain, 2 ps skew.
    pub fn typical() -> Self {
        InterleaveMismatch {
            offset_sigma: 2e-3,
            gain_sigma: 5e-3,
            skew_sigma_s: 2e-12,
        }
    }
}

impl Default for InterleaveMismatch {
    fn default() -> Self {
        InterleaveMismatch::none()
    }
}

/// An `M`-way time-interleaved array of flash converters.
#[derive(Debug, Clone)]
pub struct InterleavedAdc {
    lanes: Vec<FlashAdc>,
    offsets: Vec<f64>,
    gains: Vec<f64>,
    skews_s: Vec<f64>,
    aggregate_rate_hz: f64,
}

impl InterleavedAdc {
    /// The gen1 configuration: 4-way interleaved flash at 2 GSps aggregate,
    /// `bits` resolution.
    pub fn gen1(bits: u32, mismatch: InterleaveMismatch, rng: &mut Rand) -> Self {
        InterleavedAdc::new(4, bits, 1.0, 2.0e9, mismatch, rng)
    }

    /// Creates an `m`-way interleaved converter.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the flash parameters are invalid.
    pub fn new(
        m: usize,
        bits: u32,
        full_scale: f64,
        aggregate_rate_hz: f64,
        mismatch: InterleaveMismatch,
        rng: &mut Rand,
    ) -> Self {
        assert!(m > 0, "need at least one lane");
        assert!(aggregate_rate_hz > 0.0, "rate must be positive");
        let lanes = (0..m)
            .map(|_| FlashAdc::with_offsets(bits, full_scale, 0.0, rng))
            .collect();
        let offsets = (0..m).map(|_| mismatch.offset_sigma * rng.gaussian()).collect();
        let gains = (0..m)
            .map(|_| 1.0 + mismatch.gain_sigma * rng.gaussian())
            .collect();
        let skews_s = (0..m).map(|_| mismatch.skew_sigma_s * rng.gaussian()).collect();
        InterleavedAdc {
            lanes,
            offsets,
            gains,
            skews_s,
            aggregate_rate_hz,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Converts a block sampled at the aggregate rate. Sample `i` goes to
    /// lane `i % M` with that lane's offset, gain, and skew applied.
    ///
    /// Skew is modeled to first order: `x(t + δ) ≈ x(t) + δ·x'(t)` using the
    /// discrete derivative — accurate for the small (ps) skews of interest.
    pub fn convert_block(&self, input: &[f64]) -> Vec<f64> {
        let m = self.lanes.len();
        let dt = 1.0 / self.aggregate_rate_hz;
        let n = input.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lane = i % m;
            // First-order skew interpolation.
            let deriv = if i + 1 < n && i > 0 {
                (input[i + 1] - input[i - 1]) / (2.0 * dt)
            } else {
                0.0
            };
            let x_skewed = input[i] + self.skews_s[lane] * deriv;
            let x_lane = self.gains[lane] * x_skewed + self.offsets[lane];
            out.push(self.lanes[lane].convert(x_lane));
        }
        out
    }

    /// Splits a converted block into the `M` per-lane streams — the "initial
    /// 4-way parallelization of the signal" handed to the digital back end.
    pub fn parallelize(&self, converted: &[f64]) -> Vec<Vec<f64>> {
        let m = self.lanes.len();
        let mut streams = vec![Vec::with_capacity(converted.len() / m + 1); m];
        for (i, &x) in converted.iter().enumerate() {
            streams[i % m].push(x);
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::psd::periodogram_real;
    use uwb_dsp::Window;

    fn sine(n: usize, f_norm: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (std::f64::consts::TAU * f_norm * i as f64).sin())
            .collect()
    }

    #[test]
    fn ideal_interleave_matches_single_flash() {
        let mut rng = Rand::new(1);
        let adc = InterleavedAdc::new(4, 4, 1.0, 2e9, InterleaveMismatch::none(), &mut rng);
        let single = FlashAdc::ideal(4, 1.0);
        let x = sine(1000, 0.0173, 0.9);
        let a = adc.convert_block(&x);
        let b = single.convert_block(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn gen1_geometry() {
        let mut rng = Rand::new(2);
        let adc = InterleavedAdc::gen1(4, InterleaveMismatch::none(), &mut rng);
        assert_eq!(adc.lanes(), 4);
        assert_eq!(adc.aggregate_rate_hz, 2.0e9);
    }

    #[test]
    fn parallelize_round_robin() {
        let mut rng = Rand::new(3);
        let adc = InterleavedAdc::new(4, 4, 1.0, 2e9, InterleaveMismatch::none(), &mut rng);
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let streams = adc.parallelize(&data);
        assert_eq!(streams.len(), 4);
        assert_eq!(streams[0], vec![0.0, 4.0, 8.0]);
        assert_eq!(streams[3], vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn offset_mismatch_creates_fs_over_m_spurs() {
        let mut rng = Rand::new(4);
        let mismatch = InterleaveMismatch {
            offset_sigma: 0.02,
            gain_sigma: 0.0,
            skew_sigma_s: 0.0,
        };
        let adc = InterleavedAdc::new(4, 8, 1.0, 2e9, mismatch, &mut rng);
        let n = 8192;
        let x = sine(n, 0.0137, 0.9);
        let y = adc.convert_block(&x);
        let psd = periodogram_real(&y, 2e9, Window::Blackman);
        // Offset spurs at multiples of fs/4 = 500 MHz (and DC).
        let spur = psd.value_at(500e6);
        let floor = psd.value_at(333e6);
        assert!(
            spur > 10.0 * floor,
            "expected fs/4 offset spur: {spur} vs floor {floor}"
        );
    }

    #[test]
    fn gain_mismatch_creates_image_spurs() {
        let mut rng = Rand::new(5);
        let mismatch = InterleaveMismatch {
            offset_sigma: 0.0,
            gain_sigma: 0.05,
            skew_sigma_s: 0.0,
        };
        let adc = InterleavedAdc::new(4, 10, 1.0, 2e9, mismatch, &mut rng);
        let n = 8192;
        let f_in = 0.0137; // normalized
        let x = sine(n, f_in, 0.9);
        let y = adc.convert_block(&x);
        let psd = periodogram_real(&y, 2e9, Window::Blackman);
        // Gain-mismatch image at fs/4 - f_in.
        let f_image = 2e9 * (0.25 - f_in);
        let spur = psd.value_at(f_image);
        let floor = psd.value_at(2e9 * 0.19);
        assert!(
            spur > 10.0 * floor,
            "expected gain image spur: {spur} vs {floor}"
        );
    }

    #[test]
    fn skew_error_grows_with_frequency() {
        let mut rng = Rand::new(6);
        let mismatch = InterleaveMismatch {
            offset_sigma: 0.0,
            gain_sigma: 0.0,
            skew_sigma_s: 10e-12,
        };
        let adc = InterleavedAdc::new(4, 10, 1.0, 2e9, mismatch, &mut rng);
        let n = 8192;
        let err_at = |f_norm: f64| {
            let x = sine(n, f_norm, 0.9);
            let y = adc.convert_block(&x);
            let e: f64 = x[1..n - 1]
                .iter()
                .zip(&y[1..n - 1])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            e / (n - 2) as f64
        };
        let low = err_at(0.005);
        let high = err_at(0.2);
        assert!(high > 4.0 * low, "skew error should grow with f: {low} vs {high}");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        InterleavedAdc::new(0, 4, 1.0, 1e9, InterleaveMismatch::none(), &mut Rand::new(0));
    }
}
