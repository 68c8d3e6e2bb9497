//! Incremental, bounded-memory packet scanning over a sample stream.
//!
//! [`StreamRx`] runs an acquire → decode → skip state machine
//! *incrementally*: callers push arbitrarily sized blocks of
//! complex-baseband samples, the receiver retains only a fixed window of
//! history (about one preamble period of search slack plus one maximum frame
//! span), and decoded packets come out tagged with their absolute sample
//! offset in the stream.
//!
//! # State machine
//!
//! ```text
//!            ┌────────────── miss: stride one preamble period ─────────────┐
//!            ▼                                                             │
//!      ┌───────────┐  preamble found   ┌──────────┐  header decoded  ┌──────────┐
//!  ──▶ │ Searching │ ────────────────▶ │ Acquired │ ───────────────▶ │ Decoding │
//!      └───────────┘                   └──────────┘                  └──────────┘
//!            ▲    decode failed: skip past the │ acquired preamble         │
//!            └───────────────┴──────────────────────────── packet out ◀────┘
//! ```
//!
//! * **Searching** — waits until one preamble period of candidate phases
//!   (plus the correlation template) is buffered past the scan cursor, then
//!   runs coarse acquisition on that fixed window. A preamble straddling a
//!   block boundary is still caught: the window is defined by *absolute*
//!   sample indices, never by block edges.
//! * **Acquired** — a preamble was found at a known offset; waits until the
//!   SFD and header slots (plus RAKE finger/pulse margin) are buffered, then
//!   estimates the channel and decodes the header to learn the payload
//!   length.
//! * **Decoding** — waits until the full frame span for that payload length
//!   is buffered, then runs the one-shot frame decode (channel estimation →
//!   RAKE → header → payload → CRC).
//!
//! Decode results are deterministic functions of absolute sample positions
//! and the stream contents, so the decoded packets are **identical for any
//! push-block size** — pushing 64 samples at a time, 4096 at a time, or the
//! whole record at once yields the same packets at the same offsets.

use crate::acquisition::AcquisitionResult;
use crate::error::PhyError;
use crate::packet::Header;
use crate::receiver::{Gen2Receiver, ReceivedPacket, RxState, CIR_PRE_SAMPLES, CIR_WINDOW};
use crate::Gen2Config;
use uwb_dsp::Complex;

/// Externally visible phase of the [`StreamRx`] state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPhase {
    /// Scanning for a preamble.
    Searching,
    /// Preamble found; waiting for the header slots to stream in.
    Acquired,
    /// Header decoded; waiting for the full frame span to stream in.
    Decoding,
}

/// Internal phase, carrying the evidence gathered so far.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Searching,
    Acquired { acq: AcquisitionResult },
    Decoding { acq: AcquisitionResult, header: Header },
}

/// The incremental streaming receiver.
///
/// See the [module docs](self) for the state machine. Construction wraps a
/// [`Gen2Receiver`]; `max_payload_len` bounds both the memory footprint and
/// the largest frame the scanner will wait for (a decoded header announcing
/// a longer payload is treated as a corrupted frame and skipped).
///
/// # Example
///
/// ```
/// use uwb_phy::{Gen2Config, Gen2Transmitter, StreamRx};
///
/// # fn main() -> Result<(), uwb_phy::PhyError> {
/// let cfg = Gen2Config { preamble_repeats: 2, ..Gen2Config::nominal_100mbps() };
/// let tx = Gen2Transmitter::new(cfg.clone())?;
/// let burst = tx.transmit_packet(b"streamed")?;
/// let mut record = vec![uwb_dsp::Complex::ZERO; 1000];
/// record.extend_from_slice(&burst.samples);
/// record.extend(std::iter::repeat(uwb_dsp::Complex::ZERO).take(3000));
///
/// let mut rx = StreamRx::new(cfg, 256)?;
/// for block in record.chunks(512) {
///     rx.push_block(block);
/// }
/// rx.finish();
/// let packets: Vec<_> = rx.drain_packets().collect();
/// assert_eq!(packets.len(), 1);
/// assert_eq!(packets[0].1.payload, b"streamed");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamRx {
    rx: Gen2Receiver,
    state: RxState,
    /// Retained window of the stream: `buf[0]` is absolute sample `base`.
    buf: Vec<Complex>,
    /// Absolute sample index of `buf[0]`.
    base: usize,
    /// Absolute sample index of the next attempt window.
    cursor: usize,
    phase: Phase,
    packets: Vec<(usize, ReceivedPacket)>,
    max_payload_len: usize,
}

impl StreamRx {
    /// Creates a streaming receiver for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the configuration fails
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `max_payload_len == 0`.
    pub fn new(config: Gen2Config, max_payload_len: usize) -> Result<Self, PhyError> {
        let rx = Gen2Receiver::new(config)?;
        assert!(max_payload_len > 0, "max payload length must be positive");
        Ok(StreamRx {
            rx,
            state: RxState::new(),
            buf: Vec::new(),
            base: 0,
            cursor: 0,
            phase: Phase::Searching,
            packets: Vec::new(),
            max_payload_len,
        })
    }

    /// The wrapped receiver's configuration.
    pub fn config(&self) -> &Gen2Config {
        self.rx.config()
    }

    /// The externally visible scan phase.
    pub fn phase(&self) -> StreamPhase {
        match self.phase {
            Phase::Searching => StreamPhase::Searching,
            Phase::Acquired { .. } => StreamPhase::Acquired,
            Phase::Decoding { .. } => StreamPhase::Decoding,
        }
    }

    /// Absolute sample index the next attempt window starts at.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Capacity of the history window (bounded: about one acquisition search
    /// window plus one maximum frame span, independent of stream length).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Packets decoded so far and not yet drained, with their absolute
    /// sample offsets.
    pub fn packets(&self) -> &[(usize, ReceivedPacket)] {
        &self.packets
    }

    /// Drains the decoded packets accumulated so far.
    pub fn drain_packets(&mut self) -> std::vec::Drain<'_, (usize, ReceivedPacket)> {
        self.packets.drain(..)
    }

    /// Pushes a block of complex-baseband samples into the scanner and runs
    /// the state machine as far as the buffered stream allows. Returns the
    /// number of packets decoded by this push (retrieve them with
    /// [`StreamRx::drain_packets`] or [`StreamRx::packets`]).
    ///
    /// Block size is arbitrary and does not affect the decoded output.
    pub fn push_block(&mut self, block: &[Complex]) -> usize {
        // Drop any retained prefix the scan has already committed to skip.
        self.discard_front();
        let mut block = block;
        if self.buf.is_empty() && self.base < self.cursor {
            // The whole retained window was skipped; the incoming block may
            // start before the cursor too (long dead frame being skipped).
            let skip = (self.cursor - self.base).min(block.len());
            self.base += skip;
            block = &block[skip..];
        }
        self.buf.extend_from_slice(block);
        let before = self.packets.len();
        self.pump(false);
        self.packets.len() - before
    }

    /// Flushes the state machine at end-of-stream: attempts resolution of
    /// any pending acquisition/decode with the samples that remain (mirroring
    /// what the batch scan does with a truncated record tail). Returns the
    /// number of packets decoded by the flush.
    ///
    /// Idempotent; the scanner can keep receiving [`StreamRx::push_block`]
    /// calls afterwards if the stream resumes.
    pub fn finish(&mut self) -> usize {
        let before = self.packets.len();
        self.pump(true);
        self.packets.len() - before
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Samples needed past `est_start` to read `n_slots` slot statistics
    /// (last finger + matched-filter pulse fully in-window).
    fn slot_span(&self, n_slots: usize) -> usize {
        n_slots * self.config().samples_per_slot() + CIR_WINDOW + self.rx.pulse_len()
    }

    /// Advances the state machine until it runs out of buffered samples.
    /// With `draining` set, pending phases resolve against whatever tail
    /// remains instead of waiting for a full window.
    fn pump(&mut self, draining: bool) {
        let sps = self.config().samples_per_slot();
        let period = self.config().preamble_length() * sps;
        // Slots up to the end of the header: the same for every payload.
        let through_header = self.rx.layout(0).payload_slot0;
        loop {
            let have_end = self.base + self.buf.len();
            match self.phase {
                Phase::Searching => {
                    // One preamble period of candidate phases, each
                    // correlating one template length of samples.
                    let search_len = period + CIR_PRE_SAMPLES;
                    let need = if draining {
                        // Same minimum the batch scan applies to a record
                        // tail: a full preamble plus header margin.
                        period * self.config().preamble_repeats + 64 * sps
                    } else {
                        search_len + self.rx.template_len() - 1
                    };
                    if have_end < self.cursor + need {
                        return;
                    }
                    let end = if draining { have_end } else { self.cursor + need };
                    let acq = self.digitize_and_acquire(end, search_len);
                    if !acq.detected {
                        uwb_obs::event!("acq_miss");
                        self.cursor += period;
                        self.discard_front();
                        continue;
                    }
                    self.phase = Phase::Acquired { acq };
                }
                Phase::Acquired { acq } => {
                    let est_rel = acq.offset.saturating_sub(CIR_PRE_SAMPLES);
                    let need = est_rel + self.slot_span(through_header);
                    let full_end = self.cursor + need;
                    if have_end < full_end && !draining {
                        return;
                    }
                    let end = full_end.min(have_end);
                    if end <= self.cursor {
                        return;
                    }
                    self.digitize_window(end);
                    let header = self.rx.decode_header_at(&mut self.state, acq.offset);
                    match header {
                        Ok(h) if h.payload_len <= self.max_payload_len => {
                            self.phase = Phase::Decoding { acq, header: h };
                        }
                        _ => {
                            // Acquired but the header is unusable: skip past
                            // the preamble that was actually acquired.
                            self.skip_past_preamble(acq.offset, period);
                            if draining && have_end < full_end {
                                // The tail was already short; a re-search of
                                // the same truncated tail cannot progress.
                                return;
                            }
                        }
                    }
                }
                Phase::Decoding { acq, header } => {
                    let est_rel = acq.offset.saturating_sub(CIR_PRE_SAMPLES);
                    let frame_slots = self.rx.layout(header.payload_len).total_slots;
                    let need = est_rel + self.slot_span(frame_slots);
                    let full_end = self.cursor + need;
                    if have_end < full_end && !draining {
                        return;
                    }
                    let end = full_end.min(have_end);
                    if end <= self.cursor {
                        return;
                    }
                    self.digitize_window(end);
                    match self.rx.decode_frame_at(&mut self.state, acq.offset) {
                        Ok((hdr, payload)) => {
                            let frame_start = self.cursor + acq.offset;
                            let advance = acq.offset
                                + self.rx.layout(hdr.payload_len).total_slots * sps;
                            self.packets.push((
                                frame_start,
                                ReceivedPacket {
                                    payload,
                                    header: hdr,
                                    acquisition: acq,
                                    estimate: self.state.estimate.clone(),
                                },
                            ));
                            self.cursor += advance.max(period);
                            self.phase = Phase::Searching;
                            self.discard_front();
                        }
                        Err(_) => {
                            self.skip_past_preamble(acq.offset, period);
                            if draining && have_end < full_end {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Digitizes `[cursor, end)` and runs coarse acquisition over
    /// `search_len` candidate phases.
    fn digitize_and_acquire(&mut self, end: usize, search_len: usize) -> AcquisitionResult {
        self.digitize_window(end);
        let _t = uwb_obs::span!("rx_acquisition");
        self.rx
            .acquire_into(&self.state.digitized, search_len, &mut self.state.scratch)
    }

    /// Digitizes the absolute window `[cursor, end)` into the receive state.
    fn digitize_window(&mut self, end: usize) {
        let a = self.cursor - self.base;
        let b = end - self.base;
        let _t = uwb_obs::span!("rx_agc_adc");
        self.rx.load_record(&self.buf[a..b], &mut self.state);
    }

    /// Decode failure after a successful acquisition: advance past the
    /// preamble that was acquired and fall back to searching.
    fn skip_past_preamble(&mut self, offset: usize, period: usize) {
        self.cursor += offset + period;
        self.phase = Phase::Searching;
        self.discard_front();
    }

    /// Drops retained samples before the cursor (they can never be read
    /// again: every window starts at `cursor`).
    fn discard_front(&mut self) {
        let k = self.cursor.saturating_sub(self.base).min(self.buf.len());
        if k > 0 {
            self.buf.drain(..k);
            self.base += k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Gen2Transmitter;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    fn cfg() -> Gen2Config {
        Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        }
    }

    /// Three noisy packets with silence gaps.
    fn three_packet_record() -> (Vec<Complex>, Vec<Vec<u8>>) {
        let tx = Gen2Transmitter::new(cfg()).unwrap();
        let payloads: Vec<Vec<u8>> = vec![
            b"first packet".to_vec(),
            b"second, longer packet with more bytes".to_vec(),
            b"third".to_vec(),
        ];
        let mut record = vec![Complex::ZERO; 3000];
        for (i, p) in payloads.iter().enumerate() {
            let burst = tx.transmit_packet(p).unwrap();
            record.extend_from_slice(&burst.samples);
            record.extend(vec![Complex::ZERO; 2000 + i * 1500]);
        }
        let mut rng = Rand::new(21);
        let p_sig = uwb_dsp::complex::mean_power(&record);
        let noisy = add_awgn_complex(&record, p_sig / 10.0, &mut rng);
        (noisy, payloads)
    }

    fn run_stream(record: &[Complex], block_len: usize) -> Vec<(usize, Vec<u8>)> {
        let mut srx = StreamRx::new(cfg(), 256).unwrap();
        for block in record.chunks(block_len.max(1)) {
            srx.push_block(block);
        }
        srx.finish();
        srx.drain_packets()
            .map(|(off, p)| (off, p.payload))
            .collect()
    }

    #[test]
    fn finds_all_packets_in_stream() {
        let (record, payloads) = three_packet_record();
        let got = run_stream(&record, 1024);
        assert_eq!(got.len(), 3, "found {}", got.len());
        for ((off, payload), expected) in got.iter().zip(&payloads) {
            assert_eq!(payload, expected);
            assert!(*off >= 2900, "offset {off}");
        }
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn block_size_does_not_change_output() {
        let (record, _) = three_packet_record();
        let whole = run_stream(&record, record.len());
        for block_len in [64usize, 577, 1024, 4096] {
            let got = run_stream(&record, block_len);
            assert_eq!(got, whole, "block_len {block_len} diverged");
        }
    }

    #[test]
    fn preamble_straddling_block_boundary_is_caught() {
        let tx = Gen2Transmitter::new(cfg()).unwrap();
        let burst = tx.transmit_packet(b"straddle me").unwrap();
        // Place the packet so its preamble crosses a 4096-sample boundary.
        let mut record = vec![Complex::ZERO; 4096 - 300];
        record.extend_from_slice(&burst.samples);
        record.extend(vec![Complex::ZERO; 5000]);
        let got = run_stream(&record, 4096);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"straddle me");
    }

    #[test]
    fn noise_only_stream_stays_empty_and_bounded() {
        let mut rng = Rand::new(33);
        let mut srx = StreamRx::new(cfg(), 256).unwrap();
        let noise = uwb_sim::awgn::complex_noise(60_000, 1.0, &mut rng);
        for block in noise.chunks(2048) {
            srx.push_block(block);
        }
        srx.finish();
        assert!(srx.packets().is_empty());
        assert_eq!(srx.phase(), StreamPhase::Searching);
        // The retained window never exceeds one attempt span.
        let sps = srx.config().samples_per_slot();
        let period = srx.config().preamble_length() * sps;
        let bound = 2 * period + CIR_PRE_SAMPLES + 2048;
        assert!(
            srx.buffer_capacity() <= bound * 2,
            "capacity {} vs bound {bound}",
            srx.buffer_capacity()
        );
    }

    #[test]
    fn memory_stays_bounded_across_many_frames() {
        let tx = Gen2Transmitter::new(cfg()).unwrap();
        let burst = tx.transmit_packet(b"bounded memory").unwrap();
        let mut frame = burst.samples.clone();
        frame.extend(vec![Complex::ZERO; 1500]);

        let mut srx = StreamRx::new(cfg(), 256).unwrap();
        let mut cap_after_two = 0usize;
        for i in 0..30 {
            for block in frame.chunks(1024) {
                srx.push_block(block);
            }
            if i == 1 {
                cap_after_two = srx.buffer_capacity();
            }
        }
        srx.finish();
        assert_eq!(srx.packets().len(), 30);
        assert_eq!(
            srx.buffer_capacity(),
            cap_after_two,
            "history window kept growing"
        );
    }

    #[test]
    fn corrupted_frame_does_not_stall_the_scan() {
        let tx = Gen2Transmitter::new(cfg()).unwrap();
        let good = tx.transmit_packet(b"the good one").unwrap();
        let mut bad = tx.transmit_packet(b"the bad one!").unwrap();
        // Null out everything after the preamble: acquisition will lock but
        // the header cannot decode.
        let layout = tx.layout(12);
        let preamble_samples = layout.preamble_slots * layout.samples_per_slot;
        for z in bad.samples[preamble_samples..].iter_mut() {
            *z = Complex::ZERO;
        }
        let mut record = vec![Complex::ZERO; 1000];
        record.extend_from_slice(&bad.samples);
        record.extend(vec![Complex::ZERO; 1200]);
        record.extend_from_slice(&good.samples);
        record.extend(vec![Complex::ZERO; 4000]);
        let got = run_stream(&record, 1000);
        assert_eq!(got.len(), 1, "got {:?}", got.len());
        assert_eq!(got[0].1, b"the good one");
    }

    #[test]
    fn empty_and_tiny_pushes_are_fine() {
        let mut srx = StreamRx::new(cfg(), 64).unwrap();
        assert_eq!(srx.push_block(&[]), 0);
        assert_eq!(srx.push_block(&[Complex::ONE]), 0);
        assert_eq!(srx.finish(), 0);
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn zero_max_payload_panics() {
        let _ = StreamRx::new(cfg(), 0);
    }
}
