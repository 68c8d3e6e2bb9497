//! Gen1 packet synchronization.
//!
//! "The timing synchronization is fully performed in the digital back end.
//! Through further parallelization, packet synchronization is obtained in
//! less than 70 µs." (paper §2). The engine searches every sample phase of
//! one preamble period with a bank of `sync_parallelism` correlators and
//! reports both the lock and the modeled hardware search time. The bank is
//! gen2's [`CorrelatorBank`] over the preamble's [`SpreadCode`] (m-sequence
//! chips × the monocycle): ±1 chip sums, then the pulse FIR.

use crate::config::Gen1Config;
use uwb_phy::{CorrelatorBank, SpreadCode};

/// A gen1 synchronization lock (the detection threshold was cleared).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Sample offset of the preamble-template alignment.
    pub offset: usize,
    /// CFAR detection statistic: correlation peak over the median absolute
    /// correlation across all searched phases. SNR-robust, unlike an
    /// energy-normalized metric, because the floor is estimated from the
    /// same correlator outputs the peak competes with.
    pub metric: f64,
    /// Modeled search time on the parallel hardware, in microseconds.
    pub search_time_us: f64,
    /// Code phases evaluated.
    pub phases_searched: usize,
}

/// CFAR detection threshold (peak over median-absolute correlation). Pure
/// noise peaks near ≈5.7× the median over an 8 k search; 7.0 keeps the
/// false-alarm rate low while detecting down to the link's operating SNR.
const THRESHOLD: f64 = 7.0;

/// The parallelized synchronization engine.
#[derive(Debug, Clone)]
pub struct Gen1Sync {
    bank: CorrelatorBank,
    config: Gen1Config,
}

impl Gen1Sync {
    /// Creates a sync engine for a preamble code (one or more periods, see
    /// [`Gen1Transmitter::preamble_code`](crate::Gen1Transmitter::preamble_code)).
    ///
    /// # Panics
    ///
    /// Panics if the code has no chips or no pulse or a chip other than ±1,
    /// or if `config.sync_parallelism == 0`.
    pub fn new(code: SpreadCode, config: Gen1Config) -> Self {
        let bank = CorrelatorBank::new(code, config.sync_parallelism);
        Gen1Sync { bank, config }
    }

    /// Searches all phases of one preamble period. Returns `None` when the
    /// peak metric stays below the threshold.
    pub fn acquire(&self, samples: &[f64]) -> Option<SyncResult> {
        let m = self.bank.template_len();
        if samples.len() < m {
            return None;
        }
        let period = self.config.preamble_period_samples();
        let n_phases = period.min(samples.len() - m + 1);

        // The bank over the search region, promoted to the complex rail;
        // the correlation of real samples with a real code is its real part.
        let region = uwb_dsp::complex::to_complex(&samples[..n_phases + m - 1]);
        let mut corr = Vec::new();
        self.bank.run_prefix_into(&region, n_phases, &mut corr);
        let mags: Vec<f64> = corr.iter().map(|z| z.re.abs()).collect();
        let best_idx = uwb_dsp::math::argmax(&mags)?;
        // CFAR floor: the median absolute correlator output across phases.
        let mut sorted = mags.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let floor = sorted[sorted.len() / 2].max(f64::MIN_POSITIVE);
        let metric = mags[best_idx] / floor;

        if metric < THRESHOLD {
            return None;
        }
        let dwell_s = period as f64 / self.config.sample_rate.as_hz();
        let dwells = n_phases.div_ceil(self.config.sync_parallelism);
        Some(SyncResult {
            offset: best_idx,
            metric,
            search_time_us: dwells as f64 * dwell_s * 1e6,
            phases_searched: n_phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Gen1Transmitter;
    use uwb_sim::awgn::add_awgn_real;
    use uwb_sim::Rand;

    fn cfg() -> Gen1Config {
        Gen1Config {
            pulses_per_bit: 8,
            ..Gen1Config::demonstrated_193kbps()
        }
    }

    #[test]
    fn locks_on_clean_burst() {
        let config = cfg();
        let tx = Gen1Transmitter::new(config.clone());
        let burst = tx.transmit(&[true, false, true]);
        let sync = Gen1Sync::new(tx.preamble_code(1), config);
        let r = sync.acquire(&burst.samples).expect("no lock");
        assert_eq!(r.offset, burst.slot0_start);
        assert!(r.metric > 7.0, "{}", r.metric);
    }

    #[test]
    fn search_time_below_70us() {
        let config = cfg();
        let tx = Gen1Transmitter::new(config.clone());
        let burst = tx.transmit(&[true]);
        let sync = Gen1Sync::new(tx.preamble_code(1), config);
        let r = sync.acquire(&burst.samples).unwrap();
        assert!(r.search_time_us < 70.0, "{} µs", r.search_time_us);
    }

    #[test]
    fn locks_in_noise() {
        let config = cfg();
        let tx = Gen1Transmitter::new(config.clone());
        let burst = tx.transmit(&[false; 4]);
        let mut rng = Rand::new(1);
        let p = uwb_dsp::complex::mean_power_real(&burst.samples);
        let noisy = add_awgn_real(&burst.samples, 2.0 * p, &mut rng);
        let sync = Gen1Sync::new(tx.preamble_code(1), config);
        let r = sync.acquire(&noisy).expect("no lock in noise");
        assert_eq!(r.offset, burst.slot0_start);
    }

    #[test]
    fn rejects_pure_noise() {
        let config = cfg();
        let tx = Gen1Transmitter::new(config.clone());
        let sync = Gen1Sync::new(tx.preamble_code(1), config);
        let mut rng = Rand::new(2);
        let noise: Vec<f64> = (0..50_000).map(|_| rng.gaussian()).collect();
        assert!(sync.acquire(&noise).is_none());
    }

    #[test]
    fn short_input_returns_none() {
        let config = cfg();
        let tx = Gen1Transmitter::new(config.clone());
        let sync = Gen1Sync::new(tx.preamble_code(1), config);
        assert!(sync.acquire(&[0.0; 10]).is_none());
    }
}
