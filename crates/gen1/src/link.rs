//! The gen1 end-to-end link: carrierless TX, interleaved-flash RX.

use crate::config::Gen1Config;
use crate::sync::{Gen1Sync, SyncResult};
use uwb_adc::{InterleaveMismatch, InterleavedAdc};
use uwb_phy::pn::msequence_chips;
use uwb_phy::pulse::PulseShape;
use uwb_phy::SpreadCode;
use uwb_sim::rng::Rand;

/// A transmitted gen1 burst (real baseband samples — no carrier).
#[derive(Debug, Clone, PartialEq)]
pub struct Gen1Burst {
    /// Real samples at the configured rate.
    pub samples: Vec<f64>,
    /// Sample index where slot 0's pulse starts.
    pub slot0_start: usize,
    /// The data bits carried (after the preamble).
    pub bits: Vec<bool>,
}

/// The gen1 transmitter: monocycle pulses, BPSK chips, heavy spreading.
#[derive(Debug, Clone)]
pub struct Gen1Transmitter {
    config: Gen1Config,
    pulse: Vec<f64>,
}

impl Gen1Transmitter {
    /// Creates a transmitter.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: Gen1Config) -> Self {
        config.validate().expect("invalid gen1 configuration");
        let pulse = PulseShape::Monocycle {
            center: config.pulse_center,
        }
        .generate(config.sample_rate);
        Gen1Transmitter { config, pulse }
    }

    /// The configuration.
    pub fn config(&self) -> &Gen1Config {
        &self.config
    }

    /// The monocycle template.
    pub fn pulse(&self) -> &[f64] {
        &self.pulse
    }

    /// Builds the chip (slot amplitude) sequence: preamble + spread bits.
    fn chip_sequence(&self, bits: &[bool]) -> Vec<f64> {
        let mut chips =
            msequence_chips(self.config.preamble_degree).repeat(self.config.preamble_repeats);
        for &b in bits {
            let a = if b { 1.0 } else { -1.0 };
            for _ in 0..self.config.pulses_per_bit {
                chips.push(a);
            }
        }
        chips
    }

    /// Synthesizes the pulse waveform for the given data bits.
    pub fn transmit(&self, bits: &[bool]) -> Gen1Burst {
        let chips = self.chip_sequence(bits);
        let sps = self.config.slot_samples;
        let guard = self.pulse.len() + sps;
        let n = chips.len() * sps + 2 * guard;
        let mut samples = vec![0.0; n];
        for (k, &c) in chips.iter().enumerate() {
            let start = guard + k * sps;
            for (j, &p) in self.pulse.iter().enumerate() {
                samples[start + j] += c * p;
            }
        }
        Gen1Burst {
            samples,
            slot0_start: guard,
            bits: bits.to_vec(),
        }
    }

    /// `periods` consecutive preamble periods as one spread code: the
    /// m-sequence repeated `periods` times, `slot_samples` apart, each chip
    /// carrying the monocycle. Longer codes buy acquisition sensitivity at
    /// low SNR (the modeled hardware accumulates the same gain across
    /// dwells).
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn preamble_code(&self, periods: usize) -> SpreadCode {
        assert!(periods > 0, "need at least one period");
        SpreadCode {
            chips: msequence_chips(self.config.preamble_degree).repeat(periods),
            samples_per_chip: self.config.slot_samples,
            pulse: self.pulse.clone(),
        }
    }
}

/// A decoded gen1 packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen1Decoded {
    /// Demodulated bits.
    pub bits: Vec<bool>,
    /// Synchronization diagnostics.
    pub sync: SyncResult,
}

/// The gen1 receiver: interleaved flash ADC + digital back end.
#[derive(Debug, Clone)]
pub struct Gen1Receiver {
    config: Gen1Config,
    adc: InterleavedAdc,
    pulse: Vec<f64>,
    sync: Gen1Sync,
}

impl Gen1Receiver {
    /// Creates a receiver; `mismatch` configures the interleaved-ADC lane
    /// errors and `seed` their realization.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: Gen1Config, mismatch: InterleaveMismatch, seed: u64) -> Self {
        config.validate().expect("invalid gen1 configuration");
        let mut rng = Rand::new(seed);
        let adc = InterleavedAdc::new(
            4,
            config.adc_bits,
            1.0,
            config.sample_rate.as_hz(),
            mismatch,
            &mut rng,
        );
        let tx = Gen1Transmitter::new(config.clone());
        let code = tx.preamble_code(config.sync_periods());
        let pulse = tx.pulse().to_vec();
        let sync = Gen1Sync::new(code, config.clone());
        Gen1Receiver {
            config,
            adc,
            pulse,
            sync,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Gen1Config {
        &self.config
    }

    /// Digitizes with AGC + the 4-way interleaved flash ADC.
    pub fn digitize(&self, samples: &[f64]) -> Vec<f64> {
        let rms = uwb_dsp::math::rms(samples);
        if rms <= 0.0 {
            return samples.to_vec();
        }
        let gain = 0.25 / rms;
        let scaled: Vec<f64> = samples.iter().map(|&x| x * gain).collect();
        self.adc.convert_block(&scaled)
    }

    /// Full receive pass: digitize, synchronize, demodulate `n_bits`.
    ///
    /// Returns `None` if synchronization fails.
    pub fn receive(&self, samples: &[f64], n_bits: usize) -> Option<Gen1Decoded> {
        let digitized = self.digitize(samples);
        let sync = self.sync.acquire(&digitized)?;
        let bits = self.demodulate(&digitized, sync.offset, n_bits);
        Some(Gen1Decoded { bits, sync })
    }

    /// Demodulates `n_bits` starting from a known preamble offset: each
    /// bit sums the pulse matched filter at its `pulses_per_bit` slots. The
    /// filter is evaluated only at those slots, each dot product summed in
    /// ascending tap order; a slot whose pulse runs past the record counts
    /// zero.
    fn demodulate(&self, digitized: &[f64], offset: usize, n_bits: usize) -> Vec<bool> {
        let sps = self.config.slot_samples;
        let l = self.pulse.len();
        let preamble_chips =
            ((1usize << self.config.preamble_degree) - 1) * self.config.preamble_repeats;
        let ppb = self.config.pulses_per_bit;
        let mut bits = Vec::with_capacity(n_bits);
        for k in 0..n_bits {
            let mut acc = 0.0;
            for r in 0..ppb {
                let slot = preamble_chips + k * ppb + r;
                let idx = offset + slot * sps;
                if idx + l <= digitized.len() {
                    let window = &digitized[idx..idx + l];
                    acc += window
                        .iter()
                        .zip(&self.pulse)
                        .fold(0.0, |m, (x, p)| m + x * p);
                }
            }
            bits.push(acc > 0.0);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::add_awgn_real;

    fn short_config() -> Gen1Config {
        // Full 162x spreading makes tests slow; use a reduced spreading
        // factor with the same architecture.
        Gen1Config {
            pulses_per_bit: 8,
            ..Gen1Config::demonstrated_193kbps()
        }
    }

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Rand::new(seed);
        (0..n).map(|_| rng.bit()).collect()
    }

    #[test]
    fn clean_link_round_trip() {
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let rx = Gen1Receiver::new(cfg, InterleaveMismatch::none(), 1);
        let bits = random_bits(16, 1);
        let burst = tx.transmit(&bits);
        let decoded = rx.receive(&burst.samples, bits.len()).expect("sync failed");
        assert_eq!(decoded.bits, bits);
    }

    #[test]
    fn noisy_link_with_adc_mismatch() {
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let rx = Gen1Receiver::new(cfg, InterleaveMismatch::typical(), 2);
        let bits = random_bits(16, 3);
        let burst = tx.transmit(&bits);
        let mut rng = Rand::new(4);
        let p = uwb_dsp::complex::mean_power_real(&burst.samples);
        let noisy = add_awgn_real(&burst.samples, p, &mut rng); // 0 dB/sample
        let decoded = rx.receive(&noisy, bits.len()).expect("sync failed");
        // 8x spreading + matched filter: should be error-free at this SNR.
        assert_eq!(decoded.bits, bits);
    }

    #[test]
    fn chip_sequence_layout() {
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let chips = tx.chip_sequence(&[true, false]);
        let preamble = 127 * cfg.preamble_repeats;
        assert_eq!(chips.len(), preamble + 2 * cfg.pulses_per_bit);
        assert!(chips[preamble..preamble + 8].iter().all(|&c| c == 1.0));
        assert!(chips[preamble + 8..].iter().all(|&c| c == -1.0));
    }

    #[test]
    fn demonstrated_config_slow_but_valid() {
        // The true 162x spreading config still synthesizes (just one bit).
        let cfg = Gen1Config::demonstrated_193kbps();
        let tx = Gen1Transmitter::new(cfg.clone());
        let burst = tx.transmit(&[true]);
        // 508 preamble chips + 162 data chips at 64 samples.
        assert!(burst.samples.len() > (508 + 162) * 64);
    }

    #[test]
    fn monocycle_occupies_baseband() {
        // Gen1 is carrierless: the radiated spectrum peaks near the
        // monocycle center with no DC content.
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let burst = tx.transmit(&random_bits(32, 9));
        let psd = uwb_dsp::psd::welch_real(
            &burst.samples,
            cfg.sample_rate.as_hz(),
            2048,
            uwb_dsp::Window::Hann,
        );
        let peak = psd.peak_frequency().abs();
        assert!(
            peak > 100e6 && peak < 900e6,
            "spectral peak at {peak} (expected near the 500 MHz monocycle center)"
        );
        // DC is suppressed (monocycle has no zero-frequency content).
        assert!(psd.value_at(0.0) < psd.value_at(peak) / 100.0);
    }

    #[test]
    fn demodulate_with_known_offset() {
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let rx = Gen1Receiver::new(cfg, InterleaveMismatch::none(), 10);
        let bits = random_bits(20, 11);
        let burst = tx.transmit(&bits);
        let digitized = rx.digitize(&burst.samples);
        let decoded = rx.demodulate(&digitized, burst.slot0_start, bits.len());
        assert_eq!(decoded, bits);
    }

    #[test]
    fn off_by_large_offset_garbles() {
        // Demodulating from a wrong offset must not accidentally look right.
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let rx = Gen1Receiver::new(cfg.clone(), InterleaveMismatch::none(), 12);
        let bits = random_bits(64, 13);
        let burst = tx.transmit(&bits);
        let digitized = rx.digitize(&burst.samples);
        let wrong = burst.slot0_start + cfg.slot_samples / 2;
        let decoded = rx.demodulate(&digitized, wrong, bits.len());
        let errs = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(errs > 8, "half-slot offset produced only {errs}/64 errors");
    }

    #[test]
    fn preamble_code_repeats_the_msequence() {
        let cfg = short_config();
        let tx = Gen1Transmitter::new(cfg.clone());
        let one = tx.preamble_code(1);
        let three = tx.preamble_code(3);
        assert_eq!(one.chips, msequence_chips(cfg.preamble_degree));
        assert_eq!(three.chips, one.chips.repeat(3));
        assert_eq!(three.samples_per_chip, cfg.slot_samples);
        assert_eq!(three.pulse, tx.pulse());
        let period = 127 * cfg.slot_samples;
        assert_eq!(three.template_len(), one.template_len() + 2 * period);
    }

    #[test]
    fn sync_fails_on_noise() {
        let cfg = short_config();
        let rx = Gen1Receiver::new(cfg, InterleaveMismatch::none(), 5);
        let mut rng = Rand::new(6);
        let noise: Vec<f64> = (0..60_000).map(|_| rng.gaussian()).collect();
        assert!(rx.receive(&noise, 4).is_none());
    }
}
