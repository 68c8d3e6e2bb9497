//! The second-generation digital back end (paper Fig. 3).
//!
//! Pipeline: AGC → I/Q ADC quantization → pulse matched filter → coarse
//! acquisition (parallel correlator search) → channel estimation (4-bit) →
//! RAKE combining → demodulation → descrambling/FEC/CRC. Each stage is a
//! module in this crate; [`Gen2Receiver`] wires them together.

use crate::acquisition::{AcquisitionConfig, AcquisitionResult, CoarseAcquisition};
use crate::chanest::{estimate_cir_into, ChannelEstimate};
use crate::config::Gen2Config;
use crate::error::PhyError;
use crate::mlse::MlseEqualizer;
use crate::modulation::Modulation;
use crate::packet::{decode_header_into, decode_payload_into, FrameLayout, FrameScratch, Header};
use crate::pulse::PulseShape;
use crate::rake::RakeReceiver;
use crate::tx::Gen2Transmitter;
use uwb_adc::Quantizer;
use uwb_dsp::{Complex, DspScratch};

/// How many samples before the acquisition lock the channel-estimation
/// window starts (captures paths earlier than the strongest one).
pub(crate) const CIR_PRE_SAMPLES: usize = 8;
/// Channel-estimation window length in samples.
pub(crate) const CIR_WINDOW: usize = 64;

/// A successfully received packet with per-stage diagnostics.
#[derive(Debug, Clone)]
pub struct ReceivedPacket {
    /// The decoded payload bytes (CRC verified).
    pub payload: Vec<u8>,
    /// The decoded header.
    pub header: Header,
    /// Coarse-acquisition diagnostics.
    pub acquisition: AcquisitionResult,
    /// The (quantized) channel estimate the RAKE used.
    pub estimate: ChannelEstimate,
}

/// What an [`RxState`] holds for the record it last decoded, keyed by the
/// acquisition offset it was computed at.
///
/// `estimate` and `rake` belong to `offset`; when `payload_slots` is
/// `Some(n)`, `payload_raw` holds the `n` raw payload statistics of the
/// frame locked at `offset` (RAKE output before carrier tracking and MLSE).
/// All of it is a pure function of `(record, offset)` and, for the
/// statistics, `n`, so reusing it is bit-exact — as long as it is dropped
/// whenever the record changes ([`RxState::forget_record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMemo {
    offset: usize,
    payload_slots: Option<usize>,
}

/// Reusable per-worker receive state: every buffer the receive chain needs,
/// owned by the caller so steady-state trials allocate nothing.
///
/// One `RxState` per Monte-Carlo worker (it is deliberately not `Clone`: the
/// scratch pool inside should be long-lived, not copied around). All buffers
/// grow to their high-water mark on the first packet and are reused
/// thereafter.
#[derive(Debug)]
pub struct RxState {
    /// Scratch arena for FFT/correlation work buffers.
    pub(crate) scratch: DspScratch,
    /// AGC + quantizer output record.
    pub(crate) digitized: Vec<Complex>,
    /// Channel estimate (raw, then quantized in place).
    pub(crate) estimate: ChannelEstimate,
    /// RAKE rebuilt from `estimate` whenever it is re-estimated.
    pub(crate) rake: RakeReceiver,
    /// Finger-selection index scratch.
    pub(crate) finger_idx: Vec<usize>,
    /// Frame-decode header statistics.
    header_stats: Vec<Complex>,
    /// Frame-decode payload statistics, tracked and equalized in place.
    payload_stats: Vec<Complex>,
    /// Raw payload statistics of the memoized frame (see [`FrameMemo`]).
    payload_raw: Vec<Complex>,
    /// Header and payload decode buffers.
    frame: FrameScratch,
    /// What `estimate`, `rake` and `payload_raw` hold, valid for the
    /// current record. The known-timing pass and every write to
    /// `digitized` clear it; `prepare_rake_on` and `payload_raw_on` fill
    /// it, and skip any stage it already holds.
    memo: Option<FrameMemo>,
    /// Slots the RAKE has combined on this state since it was created.
    combined_slots: u64,
}

impl RxState {
    /// Creates an empty state; buffers size themselves on first use.
    pub fn new() -> Self {
        let estimate = ChannelEstimate::new(vec![Complex::ZERO]);
        let rake = RakeReceiver::from_estimate(&ChannelEstimate::new(vec![Complex::ONE]), 1);
        RxState {
            scratch: DspScratch::new(),
            digitized: Vec::new(),
            estimate,
            rake,
            finger_idx: Vec::new(),
            header_stats: Vec::new(),
            payload_stats: Vec::new(),
            payload_raw: Vec::new(),
            frame: FrameScratch::new(),
            memo: None,
            combined_slots: 0,
        }
    }

    /// Drops everything memoized about the current record. Call it on
    /// every change to the record the next decode reads.
    pub(crate) fn forget_record(&mut self) {
        self.memo = None;
    }

    /// How many slots the RAKE has combined on this state since it was
    /// created: a deterministic work count. A known-timing pass followed by
    /// a frame decode at the same lock combines the payload once, not
    /// twice.
    pub fn combined_slots(&self) -> u64 {
        self.combined_slots
    }

    /// The scratch arena, for callers that interleave their own DSP work
    /// (channel application, noise) with receive calls on one pool.
    pub fn scratch(&mut self) -> &mut DspScratch {
        &mut self.scratch
    }
}

impl Default for RxState {
    fn default() -> Self {
        RxState::new()
    }
}

/// The gen2 receiver.
#[derive(Debug, Clone)]
pub struct Gen2Receiver {
    config: Gen2Config,
    /// The real matched-filter pulse the RAKE correlates with.
    pulse: Vec<f64>,
    preamble_template: Vec<Complex>,
    acquisition: CoarseAcquisition,
    quantizer: Quantizer,
}

impl Gen2Receiver {
    /// Creates a receiver for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: Gen2Config) -> Result<Self, PhyError> {
        config.validate()?;
        let pulse = PulseShape::gen2_default().generate(config.sample_rate);
        // Reuse the transmitter's template construction so both ends agree.
        let tx = Gen2Transmitter::new(config.clone())?;
        let code = tx.spread_code();
        let preamble_template = code.template();
        let acquisition = CoarseAcquisition::new(
            code,
            AcquisitionConfig::with_clock(config.sample_rate.as_hz()),
        );
        let quantizer = Quantizer::new(config.adc_bits, 1.0);
        Ok(Gen2Receiver {
            config,
            pulse,
            preamble_template,
            acquisition,
            quantizer,
        })
    }

    /// The receiver configuration.
    pub fn config(&self) -> &Gen2Config {
        &self.config
    }

    /// Length of one preamble-period template in samples (what acquisition
    /// correlates against).
    pub(crate) fn template_len(&self) -> usize {
        self.preamble_template.len()
    }

    /// Length of the matched-filter pulse template in samples.
    pub(crate) fn pulse_len(&self) -> usize {
        self.pulse.len()
    }

    /// The layout of a `payload_len`-byte frame, built from this
    /// receiver's own pulse (the transmitter's, sample for sample). Where
    /// the header sits does not depend on `payload_len`.
    pub(crate) fn layout(&self, payload_len: usize) -> FrameLayout {
        FrameLayout::new(&self.config, self.pulse.len(), payload_len)
    }

    /// Runs coarse acquisition over `search_len` candidate phases of
    /// `samples`, drawing work buffers from `scratch`.
    pub(crate) fn acquire_into(
        &self,
        samples: &[Complex],
        search_len: usize,
        scratch: &mut DspScratch,
    ) -> AcquisitionResult {
        self.acquisition.acquire_with(samples, search_len, scratch)
    }

    /// Front-end conditioning: AGC to −9 dBFS, then I/Q quantization at the
    /// configured ADC resolution.
    pub fn digitize(&self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.digitize_append(samples, &mut out);
        out
    }

    /// [`Gen2Receiver::digitize`] *appending* the digitized record to a
    /// caller-owned buffer (clear it first for a fresh record), fusing the
    /// gain and quantization passes — allocation-free once the buffer
    /// capacity suffices.
    pub fn digitize_append(&self, samples: &[Complex], out: &mut Vec<Complex>) {
        let p = uwb_dsp::simd::mean_power(samples);
        if p <= 0.0 {
            out.extend_from_slice(samples);
            return;
        }
        let gain = 0.355 / p.sqrt();
        uwb_obs::note!("agc_gain_milli", (gain * 1000.0) as u64);
        // Fused scale + mid-rise quantize sweep — bit-identical to scaling
        // and quantizing each rail in turn (see Quantizer parity test).
        self.quantizer.quantize_scaled_append(samples, gain, out);
    }

    /// Digitizes `samples` into `state` as the record the next decode
    /// reads, dropping everything memoized about the previous one.
    pub(crate) fn load_record(&self, samples: &[Complex], state: &mut RxState) {
        state.digitized.clear();
        self.digitize_append(samples, &mut state.digitized);
        state.forget_record();
    }

    /// Runs the complete receive chain on a complex-baseband record.
    ///
    /// # Errors
    ///
    /// * [`PhyError::SyncFailed`] — acquisition did not clear its threshold.
    /// * [`PhyError::HeaderInvalid`] / [`PhyError::CrcMismatch`] /
    ///   [`PhyError::TruncatedInput`] — decode failures.
    pub fn receive_packet(&self, samples: &[Complex]) -> Result<ReceivedPacket, PhyError> {
        let mut state = RxState::new();
        let digitized = {
            let _t = uwb_obs::span!("rx_agc_adc");
            self.digitize(samples)
        };
        let acq = self.acquire_record(&digitized, &mut state);
        self.receive_packet_acquired(&digitized, &acq, &mut state)
    }

    /// Coarse acquisition over an already-digitized record: one preamble
    /// period of candidate phases correlated against the preamble's spread
    /// code. Emits the lock forensics notes and, on a miss, the `acq_miss`
    /// event.
    pub fn acquire_record(&self, digitized: &[Complex], state: &mut RxState) -> AcquisitionResult {
        let sps = self.config.samples_per_slot();
        let period = self.config.preamble_length() * sps;
        let acq = {
            let _t = uwb_obs::span!("rx_acquisition");
            self.acquisition
                .acquire_with(digitized, period + CIR_PRE_SAMPLES, &mut state.scratch)
        };
        // Flight-recorder forensics: where the correlator locked and how
        // confidently (milli-units of the normalized [0,1] peak metric).
        uwb_obs::note!("acq_offset", acq.offset as u64);
        uwb_obs::note!("acq_metric_milli", (acq.metric * 1000.0) as u64);
        if !acq.detected {
            uwb_obs::event!("acq_miss");
        }
        acq
    }

    /// The frame-decode back half of [`Gen2Receiver::receive_packet`], given
    /// an acquisition result obtained from [`Gen2Receiver::acquire_record`]
    /// over the *same* digitized record: channel estimation → RAKE →
    /// header → payload. `state` must be fresh or have last decoded this
    /// record. After [`Gen2Receiver::payload_statistics_predigitized_with`]
    /// on this record, a lock at its `slot0_start` reuses that pass's
    /// channel estimate, RAKE and, when the header announces a payload of
    /// the same slot count, its raw payload statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Gen2Receiver::receive_packet`].
    pub fn receive_packet_acquired(
        &self,
        digitized: &[Complex],
        acq: &AcquisitionResult,
        state: &mut RxState,
    ) -> Result<ReceivedPacket, PhyError> {
        if !acq.detected {
            return Err(PhyError::SyncFailed);
        }
        let (header, payload) = self.decode_frame_on(digitized, state, acq.offset)?;
        Ok(ReceivedPacket {
            payload,
            header,
            acquisition: *acq,
            estimate: state.estimate.clone(),
        })
    }

    /// Channel estimation and finger selection around the acquisition lock
    /// at `offset` into `digitized`, skipped when `state.memo` already holds
    /// `offset`. Returns `est_start`, the base sample index the RAKE finger
    /// delays are relative to.
    fn prepare_rake_on(&self, digitized: &[Complex], state: &mut RxState, offset: usize) -> usize {
        let est_start = offset.saturating_sub(CIR_PRE_SAMPLES);
        if state.memo.is_some_and(|m| m.offset == offset) {
            return est_start;
        }
        let period = self.config.preamble_length() * self.config.samples_per_slot();
        let periods = (self.config.preamble_repeats - 1).max(1);
        let _t = uwb_obs::span!("rx_chanest");
        estimate_cir_into(
            digitized,
            &self.preamble_template,
            est_start,
            CIR_WINDOW,
            periods,
            period,
            &mut state.estimate,
        );
        if let Some(bits) = self.config.chanest_bits {
            state.estimate.quantize_in_place(bits);
        }
        state.rake.rebuild_from_estimate(
            &state.estimate,
            self.config.rake_fingers,
            &mut state.finger_idx,
        );
        state.memo = Some(FrameMemo {
            offset,
            payload_slots: None,
        });
        est_start
    }

    /// Leaves in `state.payload_raw` the raw statistics (RAKE output before
    /// carrier tracking and MLSE) of the payload slots of the frame
    /// `layout` describes, locked at `offset`, unless `state.memo` says
    /// they are there already.
    fn payload_raw_on(
        &self,
        digitized: &[Complex],
        state: &mut RxState,
        offset: usize,
        layout: &FrameLayout,
    ) {
        let est_start = self.prepare_rake_on(digitized, state, offset);
        let n_payload = layout.payload_slots;
        let memo = FrameMemo {
            offset,
            payload_slots: Some(n_payload),
        };
        if state.memo == Some(memo) {
            return;
        }
        let sps = layout.samples_per_slot;
        let _t = uwb_obs::span!("rx_rake");
        state.rake.combine_slots_into(
            digitized,
            &self.pulse,
            est_start + layout.payload_slot0 * sps,
            sps,
            n_payload,
            &mut state.payload_raw,
        );
        state.combined_slots += n_payload as u64;
        state.memo = Some(memo);
    }

    /// Decodes the header of a frame whose acquisition lock sits at `offset`
    /// within the already-digitized record in `state`. Used by the streaming
    /// receiver to learn the payload length (and hence the frame span it must
    /// buffer) before the payload has streamed in.
    pub(crate) fn decode_header_at(
        &self,
        state: &mut RxState,
        offset: usize,
    ) -> Result<Header, PhyError> {
        let digitized = std::mem::take(&mut state.digitized);
        let out = self.decode_header_on(&digitized, state, offset);
        state.digitized = digitized;
        out
    }

    /// [`Gen2Receiver::decode_header_at`] reading the digitized record from
    /// a caller-owned slice: the header's RAKE statistics into
    /// `state.header_stats`, then the header decode.
    fn decode_header_on(
        &self,
        digitized: &[Complex],
        state: &mut RxState,
        offset: usize,
    ) -> Result<Header, PhyError> {
        let est_start = self.prepare_rake_on(digitized, state, offset);
        let layout = self.layout(0);
        let sps = layout.samples_per_slot;
        let n_header = layout.header_slots;
        {
            let _t = uwb_obs::span!("rx_rake");
            state.rake.combine_slots_into(
                digitized,
                &self.pulse,
                est_start + layout.header_slot0 * sps,
                sps,
                n_header,
                &mut state.header_stats,
            );
            state.combined_slots += n_header as u64;
        }
        let _t = uwb_obs::span!("rx_decode");
        decode_header_into(&state.header_stats, &self.config, &mut state.frame).inspect_err(|_| {
            uwb_obs::event!("header_fail");
        })
    }

    /// Decodes one full frame whose acquisition lock sits at `offset` within
    /// the already-digitized record in `state`: channel estimation → RAKE
    /// rebuild → header → payload, for the incremental
    /// [`crate::stream_rx::StreamRx`].
    pub(crate) fn decode_frame_at(
        &self,
        state: &mut RxState,
        offset: usize,
    ) -> Result<(Header, Vec<u8>), PhyError> {
        let digitized = std::mem::take(&mut state.digitized);
        let out = self.decode_frame_on(&digitized, state, offset);
        state.digitized = digitized;
        out
    }

    /// [`Gen2Receiver::decode_frame_at`] reading the digitized record from
    /// a caller-owned slice.
    ///
    /// The matched filter is never run over the whole record: the RAKE
    /// correlates the pulse only at its finger delays in the header and
    /// payload slots (`combine_slots_into`). Slot `s` of the frame has its
    /// pulse starting at `offset + s·sps`; finger delays are relative to
    /// `offset − CIR_PRE_SAMPLES`. Every statistic buffer lives in `state`,
    /// and the payload's raw statistics come from the memo when a
    /// known-timing pass at this lock already combined them.
    fn decode_frame_on(
        &self,
        digitized: &[Complex],
        state: &mut RxState,
        offset: usize,
    ) -> Result<(Header, Vec<u8>), PhyError> {
        let header = self.decode_header_on(digitized, state, offset)?;
        self.payload_raw_on(digitized, state, offset, &self.layout(header.payload_len));
        let _t = uwb_obs::span!("rx_decode");
        state.payload_stats.clear();
        state.payload_stats.extend_from_slice(&state.payload_raw);
        self.maybe_track_carrier_in_place(&mut state.payload_stats);
        self.maybe_equalize_in_place(
            &mut state.payload_stats,
            &state.estimate,
            &state.rake,
            &mut state.scratch,
        );
        let payload = decode_payload_into(
            &state.payload_stats,
            header.payload_len,
            &self.config,
            &mut state.frame,
        )
        .inspect_err(|e| {
            if matches!(e, PhyError::CrcMismatch) {
                uwb_obs::event!("crc_fail");
            }
        })?;
        Ok((header, payload))
    }

    /// When carrier tracking is enabled and the payload is BPSK, runs the
    /// decision-directed PLL over the slot statistics in time order,
    /// de-rotating residual CFO/phase-noise spin (paper Fig. 3's "PLL"
    /// block). Other modulations pass through unchanged.
    fn maybe_track_carrier_in_place(&self, stats: &mut [Complex]) {
        if !self.config.carrier_tracking || self.config.modulation != Modulation::Bpsk {
            return;
        }
        let mut pll = crate::tracking::Pll::new(0.25);
        for z in stats.iter_mut() {
            *z = pll.track(*z);
        }
    }

    /// When the configuration enables the MLSE (Viterbi demodulator) and the
    /// payload is plain BPSK at one pulse per bit, equalizes the residual
    /// symbol-rate ISI the RAKE output still carries (paper §1: "the ISI due
    /// to multipath can be addressed with a Viterbi demodulator"). Rewrites
    /// `stats` with hard-remodulated symbols; otherwise leaves it untouched.
    ///
    /// The decided-symbol buffer is drawn from (and returned to) `scratch`,
    /// so the only steady-state allocations left on this path are the Viterbi
    /// trellis internals — see
    /// [`MlseEqualizer::equalize_symbols_into`][crate::mlse::MlseEqualizer::equalize_symbols_into]
    /// for the precise per-call breakdown. The MLSE path remains the one
    /// documented exception to the zero-allocation steady state (the nominal
    /// configuration does not enable it).
    fn maybe_equalize_in_place(
        &self,
        stats: &mut Vec<Complex>,
        estimate: &ChannelEstimate,
        rake: &RakeReceiver,
        scratch: &mut DspScratch,
    ) {
        let applicable = self.config.mlse_taps > 1
            && self.config.mlse_taps <= 9
            && self.config.modulation == Modulation::Bpsk
            && self.config.pulses_per_bit == 1
            && self.config.fec.is_none();
        if !applicable {
            return;
        }
        let g = rake.symbol_spaced_response(
            estimate,
            self.config.samples_per_slot(),
            self.config.mlse_taps,
        );
        if g.iter().map(|z| z.norm_sqr()).sum::<f64>() <= 0.0 {
            return;
        }
        let eq = MlseEqualizer::new(g);
        let mut decided = scratch.take_complex(stats.len());
        eq.equalize_symbols_into(stats, &mut decided);
        stats.clear();
        stats.extend_from_slice(&decided);
        scratch.put_complex(decided);
    }

    /// BER-measurement fast path: demodulates payload slot statistics with
    /// *known* frame timing (slot 0 pulse starts at `slot0_start` in
    /// `samples`), skipping acquisition. Returns the raw per-slot decision
    /// statistics so callers can count bit errors against ground truth.
    pub fn payload_statistics_known_timing(
        &self,
        samples: &[Complex],
        slot0_start: usize,
        payload_len: usize,
    ) -> Vec<Complex> {
        let mut out = Vec::new();
        let digitized = {
            let _t = uwb_obs::span!("rx_agc_adc");
            self.digitize(samples)
        };
        self.payload_statistics_predigitized_with(
            &digitized,
            slot0_start,
            payload_len,
            &mut RxState::new(),
            &mut out,
        );
        out
    }

    /// The chanest → RAKE → demodulate back half of
    /// [`Gen2Receiver::payload_statistics_known_timing`], reading an
    /// already-digitized record (produce it with
    /// [`Gen2Receiver::digitize_append`] under the caller's own
    /// `rx_agc_adc` span), drawing every work buffer from a caller-owned
    /// [`RxState`] and writing the statistics into `out` — zero
    /// steady-state heap allocation (the MLSE path, when enabled, is the
    /// documented exception).
    ///
    /// Forgets `state`'s memo at entry (the record is externally supplied,
    /// so anything memoized may belong to a different record), then leaves
    /// the memo holding this record's channel estimate, RAKE and raw
    /// payload statistics at `slot0_start` — so a following
    /// [`Gen2Receiver::receive_packet_acquired`] on the *same* record that
    /// locks at `slot0_start` skips both the second channel estimate and
    /// the second payload combine.
    pub fn payload_statistics_predigitized_with(
        &self,
        digitized: &[Complex],
        slot0_start: usize,
        payload_len: usize,
        state: &mut RxState,
        out: &mut Vec<Complex>,
    ) {
        state.forget_record();
        self.payload_raw_on(digitized, state, slot0_start, &self.layout(payload_len));
        out.clear();
        out.extend_from_slice(&state.payload_raw);
        self.maybe_track_carrier_in_place(out);
        self.maybe_equalize_in_place(out, &state.estimate, &state.rake, &mut state.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::decode_payload;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
    use uwb_sim::Rand;

    fn link(config: &Gen2Config) -> (Gen2Transmitter, Gen2Receiver) {
        (
            Gen2Transmitter::new(config.clone()).unwrap(),
            Gen2Receiver::new(config.clone()).unwrap(),
        )
    }

    #[test]
    fn clean_awgn_free_packet() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload: Vec<u8> = (0..64u8).collect();
        let burst = tx.transmit_packet(&payload).unwrap();
        let got = rx.receive_packet(&burst.samples).unwrap();
        assert_eq!(got.payload, payload);
        assert_eq!(got.header.payload_len, 64);
        assert!(got.acquisition.detected);
    }

    #[test]
    fn packet_with_noise() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0xC3u8; 48];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(1);
        // Per-sample SNR around 3 dB: pulse-level Eb/N0 is ~13 dB.
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        let noisy = add_awgn_complex(&burst.samples, p / 2.0, &mut rng);
        let got = rx.receive_packet(&noisy).unwrap();
        assert_eq!(got.payload, payload);
    }

    #[test]
    fn packet_through_cm1_multipath() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0x11u8; 32];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(7);
        let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
        let through = ch.apply(&burst.samples, cfg.sample_rate);
        let got = rx.receive_packet(&through).unwrap();
        assert_eq!(got.payload, payload);
        // The RAKE should have found multiple meaningful fingers.
        assert!(got.estimate.energy() > 0.0);
    }

    #[test]
    fn noise_only_fails_sync() {
        let cfg = Gen2Config::nominal_100mbps();
        let rx = Gen2Receiver::new(cfg).unwrap();
        let mut rng = Rand::new(2);
        let noise = uwb_sim::awgn::complex_noise(30_000, 1.0, &mut rng);
        assert!(matches!(
            rx.receive_packet(&noise),
            Err(PhyError::SyncFailed)
        ));
    }

    #[test]
    fn one_bit_adc_still_works_in_noise() {
        // The paper's claim: 1-bit is sufficient in the noise-limited regime.
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.adc_bits = 1;
        let (tx, rx) = link(&cfg);
        let payload = vec![0x77u8; 24];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(6);
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        // 1-bit conversion *needs* noise to dither; a noiseless record would
        // be fine too here since pulses are sparse, but add some anyway.
        let noisy = add_awgn_complex(&burst.samples, p, &mut rng);
        let got = rx.receive_packet(&noisy).unwrap();
        assert_eq!(got.payload, payload);
    }

    #[test]
    fn known_timing_stats_match_payload() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0xF0u8; 16];
        let burst = tx.transmit_packet(&payload).unwrap();
        let stats = rx.payload_statistics_known_timing(
            &burst.samples,
            tx.layout(payload.len()).slot0_start,
            payload.len(),
        );
        let decoded = decode_payload(&stats, payload.len(), &cfg).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn fec_config_round_trips() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.fec = Some(crate::fec::ConvCode::k3());
        let (tx, rx) = link(&cfg);
        let payload = vec![0xABu8; 40];
        let burst = tx.transmit_packet(&payload).unwrap();
        let got = rx.receive_packet(&burst.samples).unwrap();
        assert_eq!(got.payload, payload);
        assert!(got.header.fec);
    }

    #[test]
    fn carrier_tracking_rescues_cfo() {
        // A 50 kHz residual CFO rotates the constellation by ~1.6 rad over a
        // 48-byte payload: fatal without tracking, benign with the PLL.
        let base = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let payload = vec![0x2Du8; 48];
        let run = |tracking: bool| -> Result<Vec<u8>, PhyError> {
            let cfg = Gen2Config {
                carrier_tracking: tracking,
                ..base.clone()
            };
            let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
            let rx = Gen2Receiver::new(cfg.clone()).unwrap();
            let burst = tx.transmit_packet(&payload).unwrap();
            let mut lo = uwb_rf::LocalOscillator::with_impairments(
                uwb_sim::Hertz::from_ghz(5.0),
                10.0, // ppm -> 50 kHz at 5 GHz
                0.0,
            );
            let mut rng = Rand::new(11);
            let spun = lo.baseband_rotation(&burst.samples, cfg.sample_rate.as_hz(), &mut rng);
            rx.receive_packet(&spun).map(|p| p.payload)
        };
        assert!(run(false).is_err(), "CFO should break the untracked link");
        assert_eq!(run(true).unwrap(), payload);
    }

    #[test]
    fn mlse_rescues_heavy_isi() {
        use uwb_sim::sv_channel::Tap;
        // A two-ray channel with the echo exactly one symbol (10 ns) later
        // at 70 % amplitude: brutal symbol-rate ISI.
        let taps = vec![
            Tap {
                delay_ns: 0.0,
                gain: Complex::new(1.0, 0.0),
            },
            Tap {
                delay_ns: 10.0,
                gain: Complex::new(0.7, 0.0),
            },
        ];
        let ch = ChannelRealization::from_taps(taps);
        let payload = vec![0x6Bu8; 48];

        let base = Gen2Config {
            rake_fingers: 1,
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let run = |mlse_taps: usize, seed: u64| -> usize {
            let cfg = Gen2Config {
                mlse_taps,
                ..base.clone()
            };
            let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
            let rx = Gen2Receiver::new(cfg.clone()).unwrap();
            let burst = tx.transmit_packet(&payload).unwrap();
            let through = ch.apply(&burst.samples, cfg.sample_rate);
            let mut rng = Rand::new(seed);
            let p = uwb_dsp::complex::mean_power(&through);
            let noisy = add_awgn_complex(&through, p / 3.0, &mut rng);
            let slot0 = tx.layout(payload.len()).slot0_start;
            let stats = rx.payload_statistics_known_timing(&noisy, slot0, payload.len());
            let bits = crate::packet::decode_payload_bits(&stats, payload.len(), &cfg).unwrap();
            crate::packet::reference_payload_bits(&payload)
                .iter()
                .zip(&bits)
                .filter(|(a, b)| a != b)
                .count()
        };
        let mut errs_plain = 0;
        let mut errs_mlse = 0;
        for seed in 0..4 {
            errs_plain += run(0, seed);
            errs_mlse += run(2, seed);
        }
        assert!(
            errs_mlse * 3 < errs_plain.max(1),
            "MLSE {errs_mlse} errors vs plain {errs_plain}"
        );
    }

    #[test]
    fn receiver_rejects_bad_config() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.rake_fingers = 0;
        assert!(Gen2Receiver::new(cfg).is_err());
    }

    #[test]
    fn stage_split_apis_match_convenience_forms_bitwise() {
        // digitize_append + payload_statistics_predigitized_with +
        // acquire_record + receive_packet_acquired on one warm state (the
        // link trial sequence, whose known-timing pass primes the chanest
        // memo) must reproduce the convenience forms bit-for-bit, call
        // after call.
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0x3Cu8; 32];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(9);
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        let noisy = add_awgn_complex(&burst.samples, p / 2.0, &mut rng);
        let slot0 = tx.layout(payload.len()).slot0_start;
        let bits = |v: &[Complex]| {
            v.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect::<Vec<_>>()
        };

        let want_stats = rx.payload_statistics_known_timing(&noisy, slot0, payload.len());
        let want_pkt = rx.receive_packet(&noisy).unwrap();

        let mut state = RxState::new();
        let mut lane = Vec::new();
        let mut got_stats = Vec::new();
        for _ in 0..2 {
            lane.clear();
            lane.extend_from_slice(&[Complex::ONE; 7]); // junk prefix: append semantics
            rx.digitize_append(&noisy, &mut lane);
            let digitized = &lane[7..];
            assert_eq!(digitized, &rx.digitize(&noisy)[..], "append parity");
            rx.payload_statistics_predigitized_with(
                digitized,
                slot0,
                payload.len(),
                &mut state,
                &mut got_stats,
            );
            assert_eq!(bits(&got_stats), bits(&want_stats));
            let acq = rx.acquire_record(digitized, &mut state);
            let got_pkt = rx
                .receive_packet_acquired(digitized, &acq, &mut state)
                .unwrap();
            assert_eq!(got_pkt.payload, want_pkt.payload);
            assert_eq!(got_pkt.header, want_pkt.header);
            assert_eq!(got_pkt.acquisition, want_pkt.acquisition);
            assert_eq!(got_pkt.estimate, want_pkt.estimate);
        }
    }

    /// Exact bit patterns of a run of statistics.
    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// A seeded frame through `model` with noise at half the signal power,
    /// before AGC/ADC, and the sample index of its slot 0 pulse.
    fn seeded_record(
        tx: &Gen2Transmitter,
        model: ChannelModel,
        payload: &[u8],
        seed: u64,
    ) -> (Vec<Complex>, usize) {
        let burst = tx.transmit_packet(payload).unwrap();
        let mut rng = Rand::new(seed);
        let ch = ChannelRealization::generate(model, &mut rng);
        let through = ch.apply(&burst.samples, burst.sample_rate);
        let p = uwb_dsp::complex::mean_power(&through);
        let noisy = add_awgn_complex(&through, p / 2.0, &mut rng);
        (noisy, tx.layout(payload.len()).slot0_start)
    }

    #[test]
    fn known_timing_statistics_match_the_per_slot_oracle_bitwise() {
        // The slot kernel against one-slot-at-a-time combining on real
        // gen2 records: every multipath class, both ends of the ADC range.
        // The 24-byte AWGN record ends inside the late fingers of its last
        // slots.
        let payload = vec![0x5Au8; 24];
        for adc_bits in [1, 5] {
            let cfg = Gen2Config {
                adc_bits,
                ..Gen2Config::nominal_100mbps()
            };
            let (tx, rx) = link(&cfg);
            let layout = tx.layout(payload.len());
            let sps = layout.samples_per_slot;
            for (i, model) in [
                ChannelModel::Awgn,
                ChannelModel::Cm1,
                ChannelModel::Cm2,
                ChannelModel::Cm3,
                ChannelModel::Cm4,
            ]
            .into_iter()
            .enumerate()
            {
                let (record, slot0) = seeded_record(&tx, model, &payload, 40 + i as u64);
                let digitized = rx.digitize(&record);
                let mut state = RxState::new();
                let mut got = Vec::new();
                rx.payload_statistics_predigitized_with(
                    &digitized,
                    slot0,
                    payload.len(),
                    &mut state,
                    &mut got,
                );
                let first = slot0 - CIR_PRE_SAMPLES + layout.payload_slot0 * sps;
                let want: Vec<Complex> = (0..layout.payload_slots)
                    .map(|k| {
                        state
                            .rake
                            .combine_slot_oracle(&digitized, &rx.pulse, first + k * sps)
                    })
                    .collect();
                assert_eq!(bits(&got), bits(&want), "{model:?}, {adc_bits}-bit ADC");
            }
        }
    }

    /// Everything a frame decode at `offset` leaves behind, as bits: the
    /// result, the estimate and the header and payload statistics.
    type FrameBits = (
        Result<(Header, Vec<u8>), PhyError>,
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
    );

    fn frame_bits(
        rx: &Gen2Receiver,
        digitized: &[Complex],
        state: &mut RxState,
        offset: usize,
    ) -> FrameBits {
        let result = rx.decode_frame_on(digitized, state, offset);
        (
            result,
            bits(state.estimate.taps()),
            bits(&state.header_stats),
            bits(&state.payload_stats),
        )
    }

    #[test]
    fn frame_decode_on_a_warm_state_equals_a_fresh_one_after_every_invalidation() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0xA7u8; 24];
        let layout = tx.layout(payload.len());
        let n_header = layout.header_slots as u64;
        let n_payload = layout.payload_slots as u64;
        // Two records with the same frame timing and different noise: a
        // stale memo from one would decode the other at the same offset.
        let (raw_a, slot0) = seeded_record(&tx, ChannelModel::Cm1, &payload, 60);
        let (raw_b, slot0_b) = seeded_record(&tx, ChannelModel::Cm1, &payload, 61);
        assert_eq!(slot0, slot0_b);
        let (a, b) = (rx.digitize(&raw_a), rx.digitize(&raw_b));
        let fresh = |d: &[Complex]| frame_bits(&rx, d, &mut RxState::new(), slot0);
        let (want_a, want_b) = (fresh(&a), fresh(&b));
        assert_eq!(want_a.0.as_ref().unwrap().1, payload);
        assert_ne!(
            want_a.3, want_b.3,
            "the records must differ where a stale memo would show"
        );

        let mut state = RxState::new();
        let mut stats = Vec::new();
        let mut known_timing = |state: &mut RxState, d: &[Complex], offset: usize, len: usize| {
            rx.payload_statistics_predigitized_with(d, offset, len, state, &mut stats);
        };
        // The link trial's sequence reuses the known-timing payload: the
        // frame decode combines only the header.
        known_timing(&mut state, &a, slot0, payload.len());
        let before = state.combined_slots();
        assert_eq!(frame_bits(&rx, &a, &mut state, slot0), want_a);
        assert_eq!(state.combined_slots() - before, n_header);

        // A known-timing pass at another offset: estimate, RAKE and payload
        // are all recomputed at the frame's own lock.
        known_timing(&mut state, &a, slot0 + 3, payload.len());
        let before = state.combined_slots();
        assert_eq!(frame_bits(&rx, &a, &mut state, slot0), want_a);
        assert_eq!(state.combined_slots() - before, n_header + n_payload);

        // A payload length the header does not announce: the estimate is
        // reused, the payload recombined.
        let other_len = payload.len() + 7;
        assert_ne!(tx.layout(other_len).payload_slots as u64, n_payload);
        known_timing(&mut state, &a, slot0, other_len);
        let before = state.combined_slots();
        assert_eq!(frame_bits(&rx, &a, &mut state, slot0), want_a);
        assert_eq!(state.combined_slots() - before, n_header + n_payload);

        // A known-timing pass on another record at the same offset.
        known_timing(&mut state, &b, slot0, payload.len());
        assert_eq!(frame_bits(&rx, &b, &mut state, slot0), want_b);

        // The streaming receiver's record reset: a new window replaces the
        // record in the state, then the frame decodes at the same offset.
        rx.load_record(&raw_a, &mut state);
        assert_eq!(rx.decode_frame_at(&mut state, slot0), want_a.0);
        rx.load_record(&raw_b, &mut state);
        let before = state.combined_slots();
        let got = rx.decode_frame_at(&mut state, slot0);
        assert_eq!(
            (
                got,
                bits(state.estimate.taps()),
                bits(&state.header_stats),
                bits(&state.payload_stats)
            ),
            want_b
        );
        assert_eq!(state.combined_slots() - before, n_header + n_payload);
    }
}
