//! Packet framing: preamble, SFD, header, payload.
//!
//! Frame layout (in pulse slots):
//!
//! ```text
//! | preamble (m-seq × repeats) | SFD (Barker-13) | header | payload |
//! ```
//!
//! The preamble drives acquisition and channel estimation; the SFD marks the
//! end of the preamble; the header (32 bits, BPSK, CRC-8) carries the payload
//! length and mode flags; the payload is scrambled, optionally FEC-encoded,
//! and modulated per the link configuration. A CRC-32 FCS protects the
//! payload.

use crate::config::Gen2Config;
use crate::crc::{crc32_ieee, crc8};
use crate::error::PhyError;
use crate::fec::{bits_to_bytes_into, bytes_to_bits_into};
use crate::modulation::{Modulation, MAX_BITS_PER_SYMBOL, MAX_SLOTS_PER_SYMBOL};
use crate::pn::{msequence_chips_into, BARKER13};
use crate::scrambler::Scrambler;
use uwb_dsp::Complex;

/// Maximum payload size in bytes (12-bit length field).
const MAX_PAYLOAD: usize = 4095;

/// Decoded header contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Payload length in bytes (before FEC, excluding the CRC-32).
    pub payload_len: usize,
    /// Modulation announced for the payload.
    pub modulation: Modulation,
    /// Whether the payload is convolutionally encoded.
    pub fec: bool,
}

impl Header {
    /// Serializes to the 4-byte over-the-air form.
    pub fn to_bytes(self) -> [u8; 4] {
        let mode = match self.modulation {
            Modulation::Bpsk => 0u8,
            Modulation::Ook => 1,
            Modulation::Ppm2 => 2,
            Modulation::Pam4 => 3,
        };
        let flags = mode | ((self.fec as u8) << 2);
        let b0 = (self.payload_len >> 8) as u8 & 0x0F;
        let b1 = (self.payload_len & 0xFF) as u8;
        let mut out = [b0, b1, flags, 0];
        out[3] = crc8(&out[..3]);
        out
    }

    /// Parses and validates the 4-byte header.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::HeaderInvalid`] on CRC failure.
    pub fn from_bytes(bytes: &[u8; 4]) -> Result<Header, PhyError> {
        if crc8(&bytes[..3]) != bytes[3] {
            return Err(PhyError::HeaderInvalid);
        }
        let payload_len = ((bytes[0] as usize & 0x0F) << 8) | bytes[1] as usize;
        let modulation = match bytes[2] & 0x03 {
            0 => Modulation::Bpsk,
            1 => Modulation::Ook,
            2 => Modulation::Ppm2,
            _ => Modulation::Pam4,
        };
        let fec = bytes[2] & 0x04 != 0;
        Ok(Header {
            payload_len,
            modulation,
            fec,
        })
    }
}

/// The slot-amplitude representation of a frame (one amplitude per pulse
/// slot, before pulse shaping).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameSlots {
    /// Preamble chip amplitudes (±1).
    pub preamble: Vec<f64>,
    /// SFD chip amplitudes (±1).
    pub sfd: Vec<f64>,
    /// Header slot amplitudes (BPSK, spread).
    pub header: Vec<f64>,
    /// Payload slot amplitudes (per configured modulation, spread).
    pub payload: Vec<f64>,
}

impl FrameSlots {
    /// All slots concatenated in transmission order.
    pub fn concat(&self) -> Vec<f64> {
        let mut v =
            Vec::with_capacity(self.preamble.len() + self.sfd.len() + self.header.len()
                + self.payload.len());
        v.extend_from_slice(&self.preamble);
        v.extend_from_slice(&self.sfd);
        v.extend_from_slice(&self.header);
        v.extend_from_slice(&self.payload);
        v
    }
}

/// Reusable working storage for the allocation-free framing and decoding
/// paths ([`build_frame_into`], [`decode_payload_bits_into`],
/// [`reference_payload_bits_into`]). One per Monte-Carlo worker; every
/// buffer grows to its high-water mark on first use and is reused
/// thereafter.
#[derive(Debug, Default)]
pub struct FrameScratch {
    /// One m-sequence preamble period.
    chips: Vec<f64>,
    /// Scrambled payload || CRC bytes.
    body: Vec<u8>,
    /// Bit-stream working buffer.
    bits: Vec<bool>,
    /// Hard decisions from the demapper.
    hard: Vec<bool>,
    /// Soft metrics from the demapper.
    soft: Vec<f64>,
}

impl FrameScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        FrameScratch::default()
    }
}

/// Maps a bit stream to spread slot amplitudes under `modulation` into a
/// caller-owned buffer, using fixed stack arrays per symbol
/// (allocation-free once the capacity suffices).
fn bits_to_slots_into(bits: &[bool], modulation: Modulation, ppb: usize, out: &mut Vec<f64>) {
    let bps = modulation.bits_per_symbol();
    out.clear();
    let mut idx = 0;
    while idx < bits.len() {
        let mut symbol_bits = [false; MAX_BITS_PER_SYMBOL];
        for (k, b) in symbol_bits.iter_mut().enumerate().take(bps) {
            *b = *bits.get(idx + k).unwrap_or(&false); // zero-pad
        }
        let mut amps = [0.0; MAX_SLOTS_PER_SYMBOL];
        let n_slots = modulation.map_into(&symbol_bits[..bps], &mut amps);
        // Spread: the whole symbol repeated `ppb` times.
        for _ in 0..ppb {
            out.extend_from_slice(&amps[..n_slots]);
        }
        idx += bps;
    }
}

/// Builds the slot-amplitude frame for a payload.
///
/// # Errors
///
/// Returns [`PhyError::PayloadTooLarge`] if the payload exceeds the
/// header's 12-bit length field (4095 bytes).
pub fn build_frame(payload: &[u8], config: &Gen2Config) -> Result<FrameSlots, PhyError> {
    let mut frame = FrameSlots::default();
    let mut scratch = FrameScratch::new();
    build_frame_into(payload, config, &mut frame, &mut scratch)?;
    Ok(frame)
}

/// [`build_frame`] into a caller-owned [`FrameSlots`], drawing all working
/// buffers from `scratch` — identical output, zero steady-state heap
/// allocation (FEC encoding, when enabled, is the documented exception).
///
/// # Errors
///
/// Returns [`PhyError::PayloadTooLarge`] if the payload exceeds the
/// header's 12-bit length field (4095 bytes).
pub fn build_frame_into(
    payload: &[u8],
    config: &Gen2Config,
    frame: &mut FrameSlots,
    scratch: &mut FrameScratch,
) -> Result<(), PhyError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(PhyError::PayloadTooLarge {
            requested: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    let ppb = config.pulses_per_bit;

    // Preamble + SFD.
    msequence_chips_into(config.preamble_degree, &mut scratch.chips);
    frame.preamble.clear();
    for _ in 0..config.preamble_repeats {
        frame.preamble.extend_from_slice(&scratch.chips);
    }
    frame.sfd.clear();
    frame.sfd.extend_from_slice(&BARKER13);

    // Header: always BPSK with the same spreading.
    let header = Header {
        payload_len: payload.len(),
        modulation: config.modulation,
        fec: config.fec.is_some(),
    };
    bytes_to_bits_into(&header.to_bytes(), &mut scratch.bits);
    bits_to_slots_into(&scratch.bits, Modulation::Bpsk, ppb, &mut frame.header);

    // Payload: scramble(payload || crc32) -> optional FEC -> modulate.
    scratch.body.clear();
    scratch.body.extend_from_slice(payload);
    let fcs = crc32_ieee(payload);
    scratch.body.extend_from_slice(&fcs.to_be_bytes());
    let mut scrambler = Scrambler::default();
    scrambler.apply_bytes(&mut scratch.body);
    bytes_to_bits_into(&scratch.body, &mut scratch.bits);
    if let Some(code) = config.fec {
        // The convolutional encoder allocates its output (FEC is outside
        // the zero-allocation steady-state contract).
        let coded = code.encode(&scratch.bits);
        scratch.bits.clear();
        scratch.bits.extend_from_slice(&coded);
    }
    bits_to_slots_into(&scratch.bits, config.modulation, ppb, &mut frame.payload);
    Ok(())
}

/// Number of payload slots for a given payload length under `config`.
fn payload_slot_count(payload_len: usize, config: &Gen2Config) -> usize {
    let raw_bits = 8 * (payload_len + 4); // + CRC-32
    let coded_bits = match config.fec {
        Some(code) => 2 * (raw_bits + code.constraint_length as usize - 1),
        None => raw_bits,
    };
    let bps = config.modulation.bits_per_symbol();
    let symbols = coded_bits.div_ceil(bps);
    symbols * config.modulation.slots_per_symbol() * config.pulses_per_bit
}

/// Number of header slots under `config`.
fn header_slot_count(config: &Gen2Config) -> usize {
    32 * config.pulses_per_bit
}

/// Where everything of one frame sits, in closed form: the four sections'
/// slot counts, where the header and the payload start, and the burst's
/// sample geometry. Every count follows from the configuration, the pulse
/// length and the payload length, so the transmitter, the receivers and
/// the MAC planner read one definition instead of re-deriving it.
///
/// ```text
/// | guard | preamble | SFD | header | payload | guard |
///         ^ slot 0   ^ header_slot0 ^ payload_slot0
/// ```
///
/// Slot `s`'s pulse starts at sample `slot0_start + s·samples_per_slot`
/// of the burst. Each guard is half a pulse plus one slot, so the first
/// and the last pulse fit entirely. Only this crate builds one, so every
/// layout is the closed form's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameLayout {
    /// Preamble slots: the m-sequence period times its repeats.
    pub preamble_slots: usize,
    /// Start-of-frame-delimiter slots ([`BARKER13`]).
    pub sfd_slots: usize,
    /// Header slots (32 BPSK bits, spread).
    pub header_slots: usize,
    /// Payload slots (payload and CRC-32, coded, modulated and spread).
    pub payload_slots: usize,
    /// Frame slot index of the first header slot.
    pub header_slot0: usize,
    /// Frame slot index of the first payload slot.
    pub payload_slot0: usize,
    /// Slots in the whole frame.
    pub total_slots: usize,
    /// Samples per pulse slot.
    pub samples_per_slot: usize,
    /// Samples before slot 0's pulse center (and after the last one's).
    pub guard: usize,
    /// Sample index in the burst where slot 0's pulse starts.
    pub slot0_start: usize,
    /// Samples in the synthesized burst.
    pub burst_len: usize,
}

impl FrameLayout {
    /// The layout of a `payload_len`-byte frame under `config`, shaped
    /// with a `pulse_len`-sample pulse.
    pub(crate) fn new(config: &Gen2Config, pulse_len: usize, payload_len: usize) -> Self {
        let preamble_slots = config.preamble_length() * config.preamble_repeats;
        let sfd_slots = BARKER13.len();
        let header_slots = header_slot_count(config);
        let payload_slots = payload_slot_count(payload_len, config);
        let header_slot0 = preamble_slots + sfd_slots;
        let payload_slot0 = header_slot0 + header_slots;
        let total_slots = payload_slot0 + payload_slots;
        let samples_per_slot = config.samples_per_slot();
        let guard = pulse_len / 2 + samples_per_slot;
        FrameLayout {
            preamble_slots,
            sfd_slots,
            header_slots,
            payload_slots,
            header_slot0,
            payload_slot0,
            total_slots,
            samples_per_slot,
            guard,
            slot0_start: guard - pulse_len / 2,
            burst_len: total_slots * samples_per_slot + 2 * guard,
        }
    }
}

/// Combines spread repetitions and demaps a slot-statistic stream back to
/// hard decisions and soft bit metrics in caller-owned buffers, with fixed
/// stack arrays per symbol (allocation-free once the capacities suffice).
/// Inverse of [`bits_to_slots_into`]'s layout.
fn slots_to_soft_into(
    stats: &[Complex],
    modulation: Modulation,
    ppb: usize,
    bits: &mut Vec<bool>,
    soft: &mut Vec<f64>,
) {
    let sps = modulation.slots_per_symbol();
    let group = sps * ppb;
    bits.clear();
    soft.clear();
    for chunk in stats.chunks_exact(group) {
        // Sum repetitions: repetition r's slot s is chunk[r * sps + s].
        let mut combined = [Complex::ZERO; MAX_SLOTS_PER_SYMBOL];
        for (s, c) in combined.iter_mut().enumerate().take(sps) {
            *c = (0..ppb).map(|r| chunk[r * sps + s]).sum::<Complex>() / ppb as f64;
        }
        let mut b = [false; MAX_BITS_PER_SYMBOL];
        let mut m = [0.0; MAX_BITS_PER_SYMBOL];
        let nb = modulation.demap_into(&combined[..sps], &mut b, &mut m);
        bits.extend_from_slice(&b[..nb]);
        soft.extend_from_slice(&m[..nb]);
    }
}

/// Decodes header slot statistics, drawing working storage from `scratch`
/// (allocation-free once the capacities suffice).
///
/// # Errors
///
/// * [`PhyError::TruncatedInput`] — fewer than the header's slots.
/// * [`PhyError::HeaderInvalid`] — the header CRC failed.
pub fn decode_header_into(
    stats: &[Complex],
    config: &Gen2Config,
    scratch: &mut FrameScratch,
) -> Result<Header, PhyError> {
    if stats.len() < header_slot_count(config) {
        return Err(PhyError::TruncatedInput);
    }
    slots_to_soft_into(
        &stats[..header_slot_count(config)],
        Modulation::Bpsk,
        config.pulses_per_bit,
        &mut scratch.hard,
        &mut scratch.soft,
    );
    bits_to_bytes_into(&scratch.hard, &mut scratch.body);
    let arr: [u8; 4] = scratch.body[..4]
        .try_into()
        .map_err(|_| PhyError::HeaderInvalid)?;
    Header::from_bytes(&arr)
}

/// Decodes payload slot statistics down to the descrambled information bits
/// (payload plus CRC-32, `8·(payload_len + 4)` bits) *without* CRC gating —
/// the raw-BER measurement path.
///
/// # Errors
///
/// Returns [`PhyError::TruncatedInput`] if fewer slots than the length
/// implies are provided.
pub fn decode_payload_bits(
    stats: &[Complex],
    payload_len: usize,
    config: &Gen2Config,
) -> Result<Vec<bool>, PhyError> {
    let mut scratch = FrameScratch::new();
    let mut out = Vec::new();
    decode_payload_bits_into(stats, payload_len, config, &mut scratch, &mut out)?;
    Ok(out)
}

/// [`decode_payload_bits`] into a caller-owned buffer, drawing working
/// storage from `scratch` — identical output, zero steady-state heap
/// allocation (the soft Viterbi decoder, when FEC is enabled, is the
/// documented exception).
///
/// # Errors
///
/// Same as [`decode_payload_bits`].
pub fn decode_payload_bits_into(
    stats: &[Complex],
    payload_len: usize,
    config: &Gen2Config,
    scratch: &mut FrameScratch,
    out: &mut Vec<bool>,
) -> Result<(), PhyError> {
    let needed = payload_slot_count(payload_len, config);
    if stats.len() < needed {
        return Err(PhyError::TruncatedInput);
    }
    slots_to_soft_into(
        &stats[..needed],
        config.modulation,
        config.pulses_per_bit,
        &mut scratch.hard,
        &mut scratch.soft,
    );
    let raw_bits = 8 * (payload_len + 4);
    out.clear();
    match config.fec {
        Some(code) => {
            let coded_len = 2 * (raw_bits + code.constraint_length as usize - 1);
            // The Viterbi trellis allocates (FEC is outside the
            // zero-allocation steady-state contract).
            out.extend_from_slice(&code.decode_soft(&scratch.soft[..coded_len]));
        }
        None => out.extend_from_slice(&scratch.hard),
    }
    out.truncate(raw_bits);
    let mut scrambler = Scrambler::default();
    scrambler.apply_bits(out);
    Ok(())
}

/// The ground-truth descrambled bit stream for a payload (payload plus
/// CRC-32), to compare against [`decode_payload_bits`] output when counting
/// bit errors.
pub fn reference_payload_bits(payload: &[u8]) -> Vec<bool> {
    let mut scratch = FrameScratch::new();
    let mut out = Vec::new();
    reference_payload_bits_into(payload, &mut scratch, &mut out);
    out
}

/// [`reference_payload_bits`] into a caller-owned buffer, drawing working
/// storage from `scratch` (allocation-free once the capacities suffice).
pub fn reference_payload_bits_into(
    payload: &[u8],
    scratch: &mut FrameScratch,
    out: &mut Vec<bool>,
) {
    scratch.body.clear();
    scratch.body.extend_from_slice(payload);
    scratch
        .body
        .extend_from_slice(&crc32_ieee(payload).to_be_bytes());
    bytes_to_bits_into(&scratch.body, out);
}

/// Decodes payload slot statistics into the payload bytes, verifying the
/// CRC-32.
///
/// # Errors
///
/// * [`PhyError::TruncatedInput`] — fewer slots than the length implies.
/// * [`PhyError::CrcMismatch`] — the frame check sequence failed.
pub fn decode_payload(
    stats: &[Complex],
    payload_len: usize,
    config: &Gen2Config,
) -> Result<Vec<u8>, PhyError> {
    decode_payload_into(stats, payload_len, config, &mut FrameScratch::new())
}

/// [`decode_payload`] drawing its working storage from `scratch`: without
/// FEC (the Viterbi trellis allocates), the returned payload is its only
/// allocation, and a failed decode allocates nothing.
///
/// # Errors
///
/// Same as [`decode_payload`].
pub fn decode_payload_into(
    stats: &[Complex],
    payload_len: usize,
    config: &Gen2Config,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, PhyError> {
    let needed = payload_slot_count(payload_len, config);
    if stats.len() < needed {
        return Err(PhyError::TruncatedInput);
    }
    slots_to_soft_into(
        &stats[..needed],
        config.modulation,
        config.pulses_per_bit,
        &mut scratch.hard,
        &mut scratch.soft,
    );
    let raw_bits = 8 * (payload_len + 4);
    let bits = match config.fec {
        Some(code) => {
            let coded_len = 2 * (raw_bits + code.constraint_length as usize - 1);
            scratch.bits.clear();
            scratch
                .bits
                .extend_from_slice(&code.decode_soft(&scratch.soft[..coded_len]));
            &mut scratch.bits
        }
        None => &mut scratch.hard,
    };
    bits.truncate(raw_bits);
    bits_to_bytes_into(bits, &mut scratch.body);
    Scrambler::default().apply_bytes(&mut scratch.body);
    let (payload, fcs) = scratch.body.split_at(payload_len);
    let fcs = u32::from_be_bytes(fcs[..4].try_into().expect("FCS slice is exactly 4 bytes"));
    if crc32_ieee(payload) != fcs {
        return Err(PhyError::CrcMismatch);
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::ConvCode;

    fn cfg() -> Gen2Config {
        Gen2Config::nominal_100mbps()
    }

    fn to_stats(slots: &[f64]) -> Vec<Complex> {
        slots.iter().map(|&a| Complex::new(a, 0.0)).collect()
    }

    #[test]
    fn header_byte_round_trip() {
        for modulation in Modulation::all() {
            for fec in [false, true] {
                let h = Header {
                    payload_len: 1234,
                    modulation,
                    fec,
                };
                let parsed = Header::from_bytes(&h.to_bytes()).unwrap();
                assert_eq!(parsed, h);
            }
        }
    }

    #[test]
    fn corrupted_header_rejected() {
        let h = Header {
            payload_len: 100,
            modulation: Modulation::Bpsk,
            fec: false,
        };
        let mut b = h.to_bytes();
        b[1] ^= 0x10;
        assert_eq!(Header::from_bytes(&b), Err(PhyError::HeaderInvalid));
    }

    #[test]
    fn frame_structure_lengths() {
        let config = cfg();
        let payload = vec![0x42u8; 100];
        let frame = build_frame(&payload, &config).unwrap();
        let layout = FrameLayout::new(&config, 11, payload.len());
        assert_eq!(frame.preamble.len(), 127 * 4);
        assert_eq!(frame.preamble.len(), layout.preamble_slots);
        assert_eq!(frame.sfd.len(), layout.sfd_slots);
        assert_eq!(frame.header.len(), layout.header_slots);
        assert_eq!(frame.payload.len(), layout.payload_slots);
        assert_eq!(frame.concat().len(), layout.total_slots);
    }

    #[test]
    fn clean_round_trip_uncoded_bpsk() {
        let config = cfg();
        let payload: Vec<u8> = (0..=200).map(|i| (i * 7) as u8).collect();
        let frame = build_frame(&payload, &config).unwrap();
        let header =
            decode_header_into(&to_stats(&frame.header), &config, &mut FrameScratch::new())
                .unwrap();
        assert_eq!(header.payload_len, payload.len());
        let decoded = decode_payload(&to_stats(&frame.payload), payload.len(), &config).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn clean_round_trip_all_modulations() {
        for modulation in Modulation::all() {
            let mut config = cfg();
            config.modulation = modulation;
            let payload = b"pulsed ultra-wideband".to_vec();
            let frame = build_frame(&payload, &config).unwrap();
            let decoded =
                decode_payload(&to_stats(&frame.payload), payload.len(), &config).unwrap();
            assert_eq!(decoded, payload, "{modulation}");
        }
    }

    #[test]
    fn clean_round_trip_with_fec_and_spreading() {
        let mut config = cfg();
        config.fec = Some(ConvCode::k3());
        config.pulses_per_bit = 3;
        let payload = vec![0xA5u8; 64];
        let frame = build_frame(&payload, &config).unwrap();
        let decoded = decode_payload(&to_stats(&frame.payload), payload.len(), &config).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn fec_heals_slot_errors() {
        let mut config = cfg();
        config.fec = Some(ConvCode::k7());
        let payload = vec![0x3Cu8; 32];
        let frame = build_frame(&payload, &config).unwrap();
        let mut stats = to_stats(&frame.payload);
        // Flip several well-separated slots.
        for idx in [5, 50, 100, 200, 300] {
            stats[idx] = -stats[idx];
        }
        let decoded = decode_payload(&stats, payload.len(), &config).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn crc_catches_uncoded_errors() {
        let config = cfg();
        let payload = vec![0u8; 16];
        let frame = build_frame(&payload, &config).unwrap();
        let mut stats = to_stats(&frame.payload);
        stats[10] = -stats[10];
        assert_eq!(
            decode_payload(&stats, payload.len(), &config),
            Err(PhyError::CrcMismatch)
        );
    }

    #[test]
    fn truncated_input_detected() {
        let config = cfg();
        let payload = vec![1u8; 50];
        let frame = build_frame(&payload, &config).unwrap();
        let stats = to_stats(&frame.payload[..10]);
        assert_eq!(
            decode_payload(&stats, payload.len(), &config),
            Err(PhyError::TruncatedInput)
        );
        assert_eq!(
            decode_header_into(&to_stats(&[1.0; 3]), &config, &mut FrameScratch::new()),
            Err(PhyError::TruncatedInput)
        );
    }

    #[test]
    fn oversized_payload_rejected() {
        let config = cfg();
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            build_frame(&payload, &config),
            Err(PhyError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn spreading_gain_combines() {
        // With ppb=4, a single corrupted repetition must not flip the bit.
        let mut config = cfg();
        config.pulses_per_bit = 4;
        let payload = vec![0xF0u8; 8];
        let frame = build_frame(&payload, &config).unwrap();
        let mut stats = to_stats(&frame.payload);
        // Corrupt every 4th slot (one repetition of each bit).
        for i in (0..stats.len()).step_by(4) {
            stats[i] = -stats[i];
        }
        let decoded = decode_payload(&stats, payload.len(), &config).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn payload_bits_path_matches_reference() {
        let config = cfg();
        let payload = b"raw ber measurement path".to_vec();
        let frame = build_frame(&payload, &config).unwrap();
        let bits = decode_payload_bits(&to_stats(&frame.payload), payload.len(), &config).unwrap();
        assert_eq!(bits, reference_payload_bits(&payload));
        // A flipped slot produces exactly one bit error (uncoded BPSK).
        let mut stats = to_stats(&frame.payload);
        stats[7] = -stats[7];
        let noisy_bits =
            decode_payload_bits(&stats, payload.len(), &config).unwrap();
        let diff = noisy_bits
            .iter()
            .zip(reference_payload_bits(&payload))
            .filter(|(a, b)| **a != *b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn empty_payload() {
        let config = cfg();
        let frame = build_frame(&[], &config).unwrap();
        let decoded = decode_payload(&to_stats(&frame.payload), 0, &config).unwrap();
        assert!(decoded.is_empty());
    }
}
