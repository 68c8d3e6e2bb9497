//! Coarse packet acquisition.
//!
//! The receiver must find the preamble's code phase before anything else can
//! run. A serial search correlates one preamble period against the incoming
//! samples at every candidate phase; hardware parallelization (paper §1/§2)
//! divides the search time by the number of correlators. The gen1 chip
//! achieved "packet synchronization in less than 70 µs" this way; the gen2
//! system targets a ~20 µs preamble.
//!
//! [`AcquisitionResult::stats`] and [`AcquisitionResult::search_time_us`]
//! model that hardware bank. The software evaluates the same correlations
//! in the chip domain (see [`crate::correlator`]), which is what the
//! allocation-free per-trial path runs.

use crate::correlator::{CorrelatorBank, CorrelatorStats, SpreadCode};
use uwb_dsp::{Complex, DspScratch};

/// Acquisition tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionConfig {
    /// Normalized-correlation detection threshold in `(0, 1)`.
    pub threshold: f64,
    /// Number of parallel correlators in the search engine.
    pub parallelism: usize,
    /// Back-end clock frequency in hertz (one new sample per clock).
    pub clock_hz: f64,
}

impl AcquisitionConfig {
    /// A sensible default: threshold 0.28 (well above the ≈`1/√127` noise
    /// floor of a 127-chip window but low enough for 1-bit quantization and
    /// deep multipath), 32-way parallel search, clock at the given sample
    /// rate.
    pub fn with_clock(clock_hz: f64) -> Self {
        AcquisitionConfig {
            threshold: 0.28,
            parallelism: 32,
            clock_hz,
        }
    }
}

/// Outcome of a coarse acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionResult {
    /// `true` if the peak metric cleared the threshold.
    pub detected: bool,
    /// Sample offset (within the searched window) where the template aligns.
    pub offset: usize,
    /// The normalized correlation value at the peak, in `[0, 1]`.
    pub metric: f64,
    /// Hardware cost of the search.
    pub stats: CorrelatorStats,
    /// Serial-search time on the modeled hardware, in microseconds.
    pub search_time_us: f64,
}

/// Coarse acquisition engine: searches one preamble period of code phases.
#[derive(Debug, Clone)]
pub struct CoarseAcquisition {
    bank: CorrelatorBank,
    config: AcquisitionConfig,
    /// Energy of the template waveform, summed once at construction.
    template_energy: f64,
}

impl CoarseAcquisition {
    /// Creates an engine for the given preamble-period spread code.
    ///
    /// # Panics
    ///
    /// Panics if the code is empty, `parallelism == 0`, or the threshold is
    /// outside `(0, 1)`.
    pub fn new(code: SpreadCode, config: AcquisitionConfig) -> Self {
        assert!(
            config.threshold > 0.0 && config.threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        let template_energy = code.template().iter().map(|z| z.norm_sqr()).sum();
        CoarseAcquisition {
            bank: CorrelatorBank::new(code, config.parallelism),
            config,
            template_energy,
        }
    }

    /// The acquisition configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// Searches `signal` for the preamble over `search_len` candidate phases
    /// (typically one preamble period, since the preamble repeats).
    ///
    /// Uses the energy-normalized correlation metric so the threshold is
    /// SNR-invariant.
    pub fn acquire(&self, signal: &[Complex], search_len: usize) -> AcquisitionResult {
        let mut scratch = DspScratch::new();
        self.acquire_with(signal, search_len, &mut scratch)
    }

    /// [`CoarseAcquisition::acquire`] drawing all work buffers from the
    /// caller's scratch arena — identical results, zero steady-state heap
    /// allocation (the per-trial form used by the Gen2 receiver).
    pub fn acquire_with(
        &self,
        signal: &[Complex],
        search_len: usize,
        scratch: &mut DspScratch,
    ) -> AcquisitionResult {
        let m = self.bank.template_len();
        let max_phase = signal.len().saturating_sub(m);
        let n_phases = search_len.min(max_phase + 1);
        let mut outputs = scratch.take_complex(0);
        let stats = self.bank.run_prefix_into(signal, n_phases, &mut outputs);

        // Normalize each output by window and template energy, scanning
        // in squared-metric space: one divide per phase and no sqrt
        // (squaring is monotone on nonnegative reals, so the argmax is the
        // one the per-phase-sqrt form picks); take the two square roots once
        // at the winning phase.
        let mut best_idx = 0usize;
        let mut best_metric_sq = 0.0f64;
        let mut win_energy: f64 = signal
            .iter()
            .take(m.min(signal.len()))
            .map(|z| z.norm_sqr())
            .sum();
        for (p, z) in outputs.iter().enumerate() {
            let denom_sq = win_energy * self.template_energy;
            let metric_sq = if denom_sq > 0.0 {
                z.norm_sqr() / denom_sq
            } else {
                0.0
            };
            if metric_sq > best_metric_sq {
                best_metric_sq = metric_sq;
                best_idx = p;
            }
            if p + m < signal.len() {
                win_energy += signal[p + m].norm_sqr() - signal[p].norm_sqr();
                win_energy = win_energy.max(0.0);
            }
        }
        scratch.put_complex(outputs);
        let best_metric = best_metric_sq.sqrt();
        AcquisitionResult {
            detected: best_metric >= self.config.threshold,
            offset: best_idx,
            metric: best_metric,
            stats,
            search_time_us: CorrelatorBank::search_time_us(&stats, self.config.clock_hz),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::add_noise_snr;
    use uwb_sim::Rand;

    /// A chip-rate (1 sample/chip) preamble code, for simplicity.
    fn chip_rate_code() -> SpreadCode {
        SpreadCode {
            chips: crate::pn::msequence_chips(7),
            samples_per_chip: 1,
            pulse: vec![1.0],
        }
    }

    fn preamble_signal(offset: usize, periods: usize) -> (Vec<Complex>, SpreadCode) {
        let code = chip_rate_code();
        let mut sig = vec![Complex::ZERO; offset];
        for _ in 0..periods {
            sig.extend(code.template());
        }
        sig.extend(vec![Complex::ZERO; 50]);
        (sig, code)
    }

    fn engine(code: SpreadCode, parallelism: usize) -> CoarseAcquisition {
        CoarseAcquisition::new(
            code,
            AcquisitionConfig {
                threshold: 0.5,
                parallelism,
                clock_hz: 1e9,
            },
        )
    }

    #[test]
    fn clean_acquisition_finds_offset() {
        let (sig, tpl) = preamble_signal(37, 3);
        let acq = engine(tpl, 8);
        let r = acq.acquire(&sig, 127);
        assert!(r.detected);
        assert_eq!(r.offset, 37);
        assert!(r.metric > 0.99);
    }

    #[test]
    fn noisy_acquisition_still_locks() {
        let (sig, tpl) = preamble_signal(90, 4);
        let mut rng = Rand::new(1);
        let (noisy, _) = add_noise_snr(&sig, -3.0, &mut rng); // per-sample -3 dB
        let acq = engine(tpl, 8);
        let r = acq.acquire(&noisy, 127);
        // 127-chip integration gain (~21 dB) makes -3 dB/sample easy.
        assert!(r.detected, "metric {}", r.metric);
        assert_eq!(r.offset, 90);
    }

    #[test]
    fn noise_only_does_not_false_alarm() {
        let mut rng = Rand::new(2);
        let noise = uwb_sim::awgn::complex_noise(500, 1.0, &mut rng);
        let acq = engine(chip_rate_code(), 8);
        let r = acq.acquire(&noise, 127);
        assert!(!r.detected, "false alarm with metric {}", r.metric);
    }

    #[test]
    fn search_time_scales_with_parallelism() {
        let (sig, tpl) = preamble_signal(0, 3);
        let r1 = engine(tpl.clone(), 1).acquire(&sig, 127);
        let r32 = engine(tpl, 32).acquire(&sig, 127);
        assert!(r1.search_time_us > r32.search_time_us * 30.0);
        assert_eq!(r1.offset, r32.offset);
    }

    #[test]
    fn short_signal_handled() {
        let acq = engine(chip_rate_code(), 4);
        let sig = vec![Complex::ONE; 10]; // shorter than the template
        let r = acq.acquire(&sig, 127);
        assert!(!r.detected);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        CoarseAcquisition::new(
            chip_rate_code(),
            AcquisitionConfig {
                threshold: 1.5,
                parallelism: 1,
                clock_hz: 1e9,
            },
        );
    }
}
