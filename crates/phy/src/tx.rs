//! The gen2 transmitter: frame slots → pulse waveform.
//!
//! Per paper Fig. 3, the transmitter takes "Pulses per bit" symbols, shapes
//! 500 MHz pulses, and hands them to the frequency synthesizer/upconverter.
//! Here the baseband waveform synthesis is exact; upconversion to the
//! channel carrier is delegated to [`uwb_rf::TxChain`] when a passband view
//! is needed (FCC mask, Fig. 4).

use crate::config::Gen2Config;
use crate::correlator::SpreadCode;
use crate::error::PhyError;
use crate::packet::{build_frame_into, FrameLayout, FrameScratch, FrameSlots};
use crate::pulse::PulseShape;
use uwb_dsp::Complex;
use uwb_sim::time::SampleRate;

/// A transmitted burst: complex baseband samples plus frame geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Complex baseband samples at [`Burst::sample_rate`].
    pub samples: Vec<Complex>,
    /// The sample rate of `samples`.
    pub sample_rate: SampleRate,
    /// Sample index of the *center* of slot 0's pulse.
    pub slot0_center: usize,
    /// Samples per slot.
    pub samples_per_slot: usize,
    /// The frame's slot-amplitude breakdown.
    pub slots: FrameSlots,
}

impl Burst {
    /// Duration of the burst in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate.as_hz() * 1e6
    }
}

/// The second-generation pulsed-UWB transmitter.
#[derive(Debug, Clone)]
pub struct Gen2Transmitter {
    config: Gen2Config,
    pulse: Vec<f64>,
}

impl Gen2Transmitter {
    /// Creates a transmitter, generating the 500 MHz pulse template for the
    /// configured sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: Gen2Config) -> Result<Self, PhyError> {
        config.validate()?;
        let pulse = PulseShape::gen2_default().generate(config.sample_rate);
        Ok(Gen2Transmitter { config, pulse })
    }

    /// The configuration in use.
    pub fn config(&self) -> &Gen2Config {
        &self.config
    }

    /// The unit-energy pulse template.
    pub fn pulse(&self) -> &[f64] {
        &self.pulse
    }

    /// Synthesizes the baseband waveform for a payload.
    ///
    /// # Errors
    ///
    /// Propagates framing errors from [`build_frame`].
    pub fn transmit_packet(&self, payload: &[u8]) -> Result<Burst, PhyError> {
        let mut burst = Burst {
            samples: Vec::new(),
            sample_rate: self.config.sample_rate,
            slot0_center: 0,
            samples_per_slot: 0,
            slots: FrameSlots::default(),
        };
        let mut scratch = FrameScratch::new();
        self.transmit_packet_into(payload, &mut burst, &mut scratch)?;
        Ok(burst)
    }

    /// [`Gen2Transmitter::transmit_packet`] into a caller-owned [`Burst`],
    /// drawing framing work buffers from `scratch` — identical output, zero
    /// steady-state heap allocation once the buffers reach their high-water
    /// marks (the per-trial form used by the Monte-Carlo engine).
    ///
    /// # Errors
    ///
    /// Propagates framing errors from [`crate::packet::build_frame_into`].
    pub fn transmit_packet_into(
        &self,
        payload: &[u8],
        burst: &mut Burst,
        scratch: &mut FrameScratch,
    ) -> Result<(), PhyError> {
        build_frame_into(payload, &self.config, &mut burst.slots, scratch)?;
        self.synthesize_in_place(&self.layout(payload.len()), burst);
        Ok(())
    }

    /// The closed-form layout of the burst this transmitter synthesizes
    /// for a `payload_len`-byte payload.
    pub fn layout(&self, payload_len: usize) -> FrameLayout {
        FrameLayout::new(&self.config, self.pulse.len(), payload_len)
    }

    /// Re-synthesizes `burst.samples` (and geometry fields) from
    /// `burst.slots` at the places `layout` gives, reusing the sample
    /// buffer — allocation-free once the capacity suffices. The four slot
    /// segments are walked in transmission order without concatenating
    /// them first.
    fn synthesize_in_place(&self, layout: &FrameLayout, burst: &mut Burst) {
        let sps = layout.samples_per_slot;
        burst.samples.clear();
        burst.samples.resize(layout.burst_len, Complex::ZERO);
        let segments = [
            &burst.slots.preamble,
            &burst.slots.sfd,
            &burst.slots.header,
            &burst.slots.payload,
        ];
        let mut k = 0usize;
        for seg in segments {
            for &a in seg.iter() {
                if a != 0.0 {
                    let start = layout.slot0_start + k * sps;
                    for (j, &p) in self.pulse.iter().enumerate() {
                        burst.samples[start + j].re += a * p;
                    }
                }
                k += 1;
            }
        }
        debug_assert_eq!(k, layout.total_slots, "frame slots disagree with the layout");
        burst.sample_rate = self.config.sample_rate;
        burst.slot0_center = layout.guard;
        burst.samples_per_slot = sps;
    }

    /// The preamble's spread code: one m-sequence period of chips, one
    /// slot apart, each carrying the transmit pulse. Sample 0 of its
    /// template aligns with (chip-0 center − pulse.len()/2) in a
    /// transmitted burst.
    pub fn spread_code(&self) -> SpreadCode {
        SpreadCode {
            chips: crate::pn::msequence_chips(self.config.preamble_degree),
            samples_per_chip: self.config.samples_per_slot(),
            pulse: self.pulse.clone(),
        }
    }

    /// The preamble template waveform (one m-sequence period as pulses),
    /// used by the receiver's channel estimator.
    pub fn preamble_template(&self) -> Vec<Complex> {
        self.spread_code().template()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::complex::mean_power;

    fn tx() -> Gen2Transmitter {
        Gen2Transmitter::new(Gen2Config::nominal_100mbps()).unwrap()
    }

    #[test]
    fn burst_geometry() {
        let t = tx();
        let burst = t.transmit_packet(&[0xAB; 16]).unwrap();
        assert_eq!(burst.samples_per_slot, 10);
        let expected_slots = burst.slots.concat().len();
        // Pulse energy appears at slot centers.
        assert!(burst.samples.len() > expected_slots * 10);
    }

    #[test]
    fn pulse_at_slot_center_has_expected_amplitude() {
        let t = tx();
        // A single +1 preamble chip puts a pulse peak at the slot center.
        let burst = t.transmit_packet(&[]).unwrap();
        let c0 = burst.slot0_center;
        let first_chip = burst.slots.preamble[0];
        let peak = t.pulse()[t.pulse().len() / 2];
        assert!(
            (burst.samples[c0].re - first_chip * peak).abs() < 0.05,
            "{} vs {}",
            burst.samples[c0].re,
            first_chip * peak
        );
    }

    #[test]
    fn waveform_power_scales_with_activity() {
        let t = tx();
        let burst = t.transmit_packet(&[0xFF; 64]).unwrap();
        let p = mean_power(&burst.samples);
        assert!(p > 0.0);
        // Each slot carries a unit-energy pulse (BPSK): average power ~
        // pulse_energy / samples_per_slot = 1/10 (preamble/payload active).
        assert!((p - 0.1).abs() < 0.04, "mean power {p}");
    }

    #[test]
    fn duration_matches_rates() {
        let t = tx();
        let payload = vec![0u8; 125]; // ~1000 bits + framing
        let burst = t.transmit_packet(&payload).unwrap();
        // 1000 payload bits + 32 crc bits at 100 Mbps = 10.3 us, plus 5.2 us
        // preamble and header.
        let d = burst.duration_us();
        assert!(d > 15.0 && d < 18.5, "duration {d} µs");
    }

    #[test]
    fn preamble_template_correlates_with_burst() {
        let t = tx();
        let burst = t.transmit_packet(&[1, 2, 3]).unwrap();
        let template = t.preamble_template();
        let corr = uwb_dsp::correlation::cross_correlate(&burst.samples, &template);
        let (peak_idx, _) = uwb_dsp::correlation::peak(&corr).unwrap();
        // Peak at the start of one of the preamble periods: template sample 0
        // aligns with chip-0 center minus half the pulse length.
        let sps = burst.samples_per_slot;
        let period = 127 * sps;
        let start0 = t.layout(3).slot0_start as isize;
        let rel = (peak_idx as isize - start0).rem_euclid(period as isize);
        assert!(
            rel.min(period as isize - rel) <= 1,
            "peak at {peak_idx}, rel {rel}"
        );
    }

    #[test]
    fn empty_payload_still_frames() {
        let t = tx();
        let burst = t.transmit_packet(&[]).unwrap();
        // CRC-32 alone: 32 payload bits.
        assert_eq!(burst.slots.payload.len(), 32);
        assert!(burst.duration_us() > 5.0);
    }

    #[test]
    fn transmit_into_matches_and_reuses_storage() {
        let t = tx();
        let want = t.transmit_packet(&[0x5A; 32]).unwrap();
        // Pre-sized from a different payload: the into-form must fully
        // overwrite it and reuse the sample allocation.
        let mut burst = t.transmit_packet(&[0x11; 32]).unwrap();
        let ptr = burst.samples.as_ptr();
        let mut scratch = FrameScratch::new();
        t.transmit_packet_into(&[0x5A; 32], &mut burst, &mut scratch)
            .unwrap();
        assert_eq!(burst, want);
        assert_eq!(burst.samples.as_ptr(), ptr, "sample buffer reallocated");
        // Second call with the warm scratch is still bit-identical.
        t.transmit_packet_into(&[0x5A; 32], &mut burst, &mut scratch)
            .unwrap();
        assert_eq!(burst, want);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.pulses_per_bit = 0;
        assert!(Gen2Transmitter::new(cfg).is_err());
    }
}
