//! Configuration of the first-generation baseband transceiver (paper §2).
//!
//! The gen1 chip radiates carrierless baseband pulses, digitizes with a
//! 2 GSps 4-way time-interleaved flash ADC, performs timing synchronization
//! "fully … in the digital back end", and demonstrated a 193 kbps link with
//! packet synchronization below 70 µs.

use uwb_sim::time::{Hertz, SampleRate};

/// Gen1 link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen1Config {
    /// ADC / simulation sample rate (the chip's 2 GSps).
    pub sample_rate: SampleRate,
    /// Samples per pulse slot (chip period × sample rate).
    pub slot_samples: usize,
    /// Pulses integrated per data bit (spreading factor).
    pub pulses_per_bit: usize,
    /// Monocycle peak-response frequency.
    pub pulse_center: Hertz,
    /// m-sequence degree of the acquisition preamble.
    pub preamble_degree: u32,
    /// Preamble periods transmitted.
    pub preamble_repeats: usize,
    /// Flash ADC resolution in bits.
    pub adc_bits: u32,
    /// Number of parallel correlator phases in the sync engine. The gen1
    /// paper reaches < 70 µs "through further parallelization" on top of
    /// the ADC's 4-way split.
    pub sync_parallelism: usize,
}

impl Gen1Config {
    /// The demonstrated operating point: 2 GSps, 32 ns slots (31.25 MHz
    /// PRF), 162 pulses/bit ⇒ **192.9 kbps**, 4-bit flash, 512-way
    /// parallel search.
    pub fn demonstrated_193kbps() -> Self {
        Gen1Config {
            sample_rate: SampleRate::from_gsps(2.0),
            slot_samples: 64,
            pulses_per_bit: 162,
            pulse_center: Hertz::from_mhz(500.0),
            preamble_degree: 7,
            preamble_repeats: 4,
            adc_bits: 4,
            sync_parallelism: 512,
        }
    }

    /// Pulse repetition frequency.
    pub fn prf(&self) -> Hertz {
        Hertz::new(self.sample_rate.as_hz() / self.slot_samples as f64)
    }

    /// Information bit rate.
    pub fn bit_rate(&self) -> f64 {
        self.prf().as_hz() / self.pulses_per_bit as f64
    }

    /// Preamble period length in samples.
    pub fn preamble_period_samples(&self) -> usize {
        ((1usize << self.preamble_degree) - 1) * self.slot_samples
    }

    /// Preamble periods the receiver's sync code integrates coherently:
    /// all but one (at least one), for sensitivity down to the link's
    /// operating SNR.
    pub fn sync_periods(&self) -> usize {
        (self.preamble_repeats - 1).max(1)
    }

    /// Worst-case serial-search synchronization time in microseconds: all
    /// code phases in one period, each dwelling one preamble period, spread
    /// over the parallel correlators.
    pub fn sync_time_us(&self) -> f64 {
        let phases = self.preamble_period_samples();
        let dwell_s = self.preamble_period_samples() as f64 / self.sample_rate.as_hz();
        let dwells = phases.div_ceil(self.sync_parallelism);
        dwells as f64 * dwell_s * 1e6
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Never panics; returns an error string instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.slot_samples < 8 {
            return Err("slot must be at least 8 samples".into());
        }
        if self.pulses_per_bit == 0 {
            return Err("pulses_per_bit must be at least 1".into());
        }
        if !(3..=12).contains(&self.preamble_degree) {
            return Err("preamble_degree must be 3..=12".into());
        }
        if self.preamble_repeats < 2 {
            return Err("need at least 2 preamble periods".into());
        }
        if self.sync_parallelism == 0 {
            return Err("sync_parallelism must be at least 1".into());
        }
        if self.pulse_center.as_hz() >= self.sample_rate.as_hz() / 2.0 {
            return Err("pulse center must be below Nyquist".into());
        }
        Ok(())
    }
}

impl Default for Gen1Config {
    fn default() -> Self {
        Gen1Config::demonstrated_193kbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demonstrated_rate_is_193kbps() {
        let cfg = Gen1Config::demonstrated_193kbps();
        cfg.validate().unwrap();
        let rate = cfg.bit_rate();
        assert!((rate - 193e3).abs() / 193e3 < 0.01, "rate {rate}");
        assert_eq!(cfg.prf().as_mhz(), 31.25);
    }

    #[test]
    fn sync_under_70us() {
        let cfg = Gen1Config::demonstrated_193kbps();
        let t = cfg.sync_time_us();
        assert!(t < 70.0, "sync time {t} µs");
        assert!(t > 10.0, "suspiciously fast: {t} µs");
    }

    #[test]
    fn serial_search_would_blow_the_budget() {
        // Without parallelization the same search takes milliseconds — the
        // reason the paper parallelizes.
        let mut cfg = Gen1Config::demonstrated_193kbps();
        cfg.sync_parallelism = 1;
        assert!(cfg.sync_time_us() > 10_000.0);
    }

    #[test]
    fn invalid_configs() {
        let cfg = Gen1Config {
            pulses_per_bit: 0,
            ..Gen1Config::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = Gen1Config {
            slot_samples: 2,
            ..Gen1Config::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = Gen1Config {
            pulse_center: Hertz::from_ghz(1.5),
            ..Gen1Config::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = Gen1Config {
            preamble_repeats: 1,
            ..Gen1Config::default()
        };
        assert!(cfg.validate().is_err());
    }
}
