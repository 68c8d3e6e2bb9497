//! Configuration of the second-generation transceiver.
//!
//! Paper §3: "This receiver allows us to trade off power dissipation with
//! signal processing complexity, quality of service and data rate" — the
//! knobs of that trade (modulation, spreading, FEC, RAKE fingers, channel-
//! estimate precision, ADC bits) are all here.

use crate::bandplan::Channel;
use crate::error::PhyError;
use crate::fec::ConvCode;
use crate::modulation::Modulation;
use crate::packet::FrameLayout;
use uwb_sim::time::{Hertz, SampleRate};

/// Full configuration of a gen2 link.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen2Config {
    /// The occupied sub-band.
    pub channel: Channel,
    /// Complex-baseband simulation sample rate.
    pub sample_rate: SampleRate,
    /// Pulse repetition frequency: one pulse *slot* per period.
    pub prf: Hertz,
    /// Pulses (slots) transmitted per modulated bit — the "Pulses per bit"
    /// spreading knob of paper Fig. 3. Higher values trade rate for Eb.
    pub pulses_per_bit: usize,
    /// Payload modulation.
    pub modulation: Modulation,
    /// Optional convolutional code on the payload.
    pub fec: Option<ConvCode>,
    /// Channel-estimate quantization in bits (`None` = unquantized floats).
    /// Paper: "estimated with a precision of up to four bits".
    pub chanest_bits: Option<u32>,
    /// RAKE fingers the receiver combines.
    pub rake_fingers: usize,
    /// Resolution of the I/Q ADCs (paper: 5-bit SAR).
    pub adc_bits: u32,
    /// m-sequence degree of the acquisition preamble (127 chips at 7).
    pub preamble_degree: u32,
    /// Number of preamble periods transmitted.
    pub preamble_repeats: usize,
    /// Enable the symbol-spaced MLSE (Viterbi) equalizer after the RAKE.
    pub mlse_taps: usize,
    /// Enable the decision-directed carrier-phase PLL on the demodulated
    /// slot statistics (the "PLL" of paper Fig. 3) — needed when the LO has
    /// residual CFO/phase noise. BPSK payloads only.
    pub carrier_tracking: bool,
}

impl Gen2Config {
    /// The paper's nominal operating point: channel 3 (≈5 GHz, the Fig. 4
    /// carrier), 1 GS/s baseband simulation, 100 MHz PRF, BPSK at 1
    /// pulse/bit ⇒ 100 Mbps uncoded, 4-bit channel estimate, 8 RAKE
    /// fingers, 5-bit ADC, 127-chip preamble × 4.
    pub fn nominal_100mbps() -> Self {
        Gen2Config {
            channel: Channel::near_5ghz(),
            sample_rate: SampleRate::from_gsps(1.0),
            prf: Hertz::from_mhz(100.0),
            pulses_per_bit: 1,
            modulation: Modulation::Bpsk,
            fec: None,
            chanest_bits: Some(4),
            rake_fingers: 8,
            adc_bits: 5,
            preamble_degree: 7,
            preamble_repeats: 4,
            mlse_taps: 0,
            carrier_tracking: false,
        }
    }

    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] when a parameter is out of range
    /// or the PRF does not divide the sample rate.
    pub fn validate(&self) -> Result<(), PhyError> {
        let sps = self.sample_rate.as_hz() / self.prf.as_hz();
        if sps < 2.0 || (sps - sps.round()).abs() > 1e-6 {
            return Err(PhyError::InvalidConfig(format!(
                "PRF must divide the sample rate into >= 2 samples per slot (got {sps})"
            )));
        }
        if self.pulses_per_bit == 0 {
            return Err(PhyError::InvalidConfig(
                "pulses_per_bit must be at least 1".into(),
            ));
        }
        if self.rake_fingers == 0 {
            return Err(PhyError::InvalidConfig(
                "rake_fingers must be at least 1".into(),
            ));
        }
        if !(1..=24).contains(&self.adc_bits) {
            return Err(PhyError::InvalidConfig("adc_bits must be 1..=24".into()));
        }
        if let Some(bits) = self.chanest_bits {
            if !(1..=16).contains(&bits) {
                return Err(PhyError::InvalidConfig(
                    "chanest_bits must be 1..=16".into(),
                ));
            }
        }
        if !(3..=12).contains(&self.preamble_degree) {
            return Err(PhyError::InvalidConfig(
                "preamble_degree must be 3..=12".into(),
            ));
        }
        if self.preamble_repeats == 0 {
            return Err(PhyError::InvalidConfig(
                "preamble_repeats must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Samples per pulse slot.
    pub fn samples_per_slot(&self) -> usize {
        (self.sample_rate.as_hz() / self.prf.as_hz()).round() as usize
    }

    /// Chips in one preamble period.
    pub fn preamble_length(&self) -> usize {
        (1usize << self.preamble_degree) - 1
    }

    /// Information bit rate in bits/s, accounting for modulation, spreading
    /// and FEC rate.
    pub fn bit_rate(&self) -> f64 {
        let symbol_rate =
            self.prf.as_hz() / (self.pulses_per_bit * self.modulation.slots_per_symbol()) as f64;
        let raw = symbol_rate * self.modulation.bits_per_symbol() as f64;
        if self.fec.is_some() {
            raw / 2.0
        } else {
            raw
        }
    }

    /// Duration of the preamble + SFD in microseconds — the acquisition
    /// overhead the paper wants near 20 µs.
    pub fn preamble_duration_us(&self) -> f64 {
        // The slots before the header: their count depends on neither the
        // pulse nor the payload.
        let slots = FrameLayout::new(self, 0, 0).header_slot0;
        slots as f64 / self.prf.as_hz() * 1e6
    }
}

impl Default for Gen2Config {
    fn default() -> Self {
        Gen2Config::nominal_100mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_valid_and_100mbps() {
        let cfg = Gen2Config::nominal_100mbps();
        cfg.validate().unwrap();
        assert_eq!(cfg.bit_rate(), 100e6);
        assert_eq!(cfg.samples_per_slot(), 10);
        assert_eq!(cfg.preamble_length(), 127);
    }

    #[test]
    fn bit_rate_accounts_for_knobs() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.pulses_per_bit = 4;
        assert_eq!(cfg.bit_rate(), 25e6);
        cfg.fec = Some(ConvCode::k3());
        assert_eq!(cfg.bit_rate(), 12.5e6);
        cfg.modulation = Modulation::Pam4;
        assert_eq!(cfg.bit_rate(), 25e6);
        cfg.modulation = Modulation::Ppm2;
        // 2 slots per symbol halves the symbol rate.
        assert_eq!(cfg.bit_rate(), 6.25e6);
    }

    #[test]
    fn preamble_duration_in_tens_of_us_range() {
        let cfg = Gen2Config::nominal_100mbps();
        let d = cfg.preamble_duration_us();
        // 4 x 127 chips + the Barker-13 SFD at 100 MHz = 5.21 us.
        assert!((d - 5.21).abs() < 0.01, "{d}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.prf = Hertz::from_mhz(333.0); // does not divide 1 GS/s
        assert!(matches!(cfg.validate(), Err(PhyError::InvalidConfig(_))));

        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.pulses_per_bit = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.adc_bits = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.chanest_bits = Some(99);
        assert!(cfg.validate().is_err());

        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.preamble_repeats = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.rake_fingers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_nominal() {
        assert_eq!(Gen2Config::default(), Gen2Config::nominal_100mbps());
    }
}
