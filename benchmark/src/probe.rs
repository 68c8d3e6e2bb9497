//! Per-stage probes: one packet of the workload re-synthesized from its
//! seed and pushed through each PHY and channel stage as a separate,
//! individually timed public call.
//!
//! The record comes from `LinkWorker::synthesize_clean_streamed`; the
//! stage calls then redo its transmit and channel steps from the same RNG
//! draws and must reproduce that record bit for bit, so every timed stage
//! works on exactly the samples the workload's own trial saw.

use uwb_dsp::{BlockProcessor, Complex, DspScratch};
use uwb_phy::packet::{decode_payload_bits_into, reference_payload_bits_into};
use uwb_phy::{
    Burst, FrameScratch, FrameSlots, Gen2Config, Gen2Receiver, Gen2Transmitter, PhyError, RxState,
};
use uwb_platform::link::{LinkOutcome, LinkScenario, LinkWorker};
use uwb_sim::{ChannelRealization, Rand, StreamingAwgn, StreamingChannel};

use crate::trace::Tracer;

/// Stage spans in path order. The known-timing workloads (link BER,
/// network, MAC) decode with the first six; the full link path adds the
/// last two.
pub const STAGES: [&str; 8] = [
    "phy.tx",
    "sim.channel",
    "sim.awgn",
    "phy.digitize",
    "phy.known_timing",
    "phy.decode_bits",
    "phy.acquire",
    "phy.frame_decode",
];

/// Probe counters on top of the link outcome.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Bits, packets, CRC-valid packets and sync failures, counted exactly
    /// as the link trials count them.
    pub outcome: LinkOutcome,
    /// Packets whose acquisition cleared its threshold.
    pub detected: u64,
    /// Length of the last probed record, in samples.
    pub record_len: usize,
}

/// Probes packets of any configuration, keeping one [`Prober`] per
/// configuration met, and tallies them.
#[derive(Default)]
pub struct Probes {
    probers: Vec<Prober>,
    /// Counters over every packet probed so far.
    pub tally: Tally,
}

impl Probes {
    /// Probes one packet of `sc` (see [`Prober::packet`]) inside a
    /// `probe.packet` span.
    pub fn packet(
        &mut self,
        sc: &LinkScenario,
        len: usize,
        block: usize,
        rng: Rand,
        unit: u64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let k = match self.probers.iter().position(|p| p.config == sc.config) {
            Some(k) => k,
            None => {
                self.probers.push(Prober::new(sc));
                self.probers.len() - 1
            }
        };
        let (p, tally) = (&mut self.probers[k], &mut self.tally);
        tr.span("probe.packet", unit, |tr| {
            p.packet(sc, len, block, rng, unit, tr, tally)
        })
    }
}

/// The stage objects for one PHY configuration, with reusable buffers.
struct Prober {
    config: Gen2Config,
    worker: LinkWorker,
    tx: Gen2Transmitter,
    rx: Gen2Receiver,
    state: RxState,
    burst: Burst,
    frame: FrameScratch,
    realization: ChannelRealization,
    channel: StreamingChannel,
    scratch: DspScratch,
    payload: Vec<u8>,
    record: Vec<Complex>,
    digitized: Vec<Complex>,
    stats: Vec<Complex>,
    bits: Vec<bool>,
    ref_bits: Vec<bool>,
}

impl Prober {
    /// Builds the stage objects for `sc`'s configuration.
    fn new(sc: &LinkScenario) -> Prober {
        let config = sc.config.clone();
        Prober {
            worker: LinkWorker::new(sc),
            tx: Gen2Transmitter::new(config.clone()).expect("workload config is valid"),
            rx: Gen2Receiver::new(config.clone()).expect("workload config is valid"),
            state: RxState::new(),
            burst: Burst {
                samples: Vec::new(),
                sample_rate: config.sample_rate,
                slot0_center: 0,
                samples_per_slot: 0,
                slots: FrameSlots::default(),
            },
            frame: FrameScratch::new(),
            realization: ChannelRealization::identity(),
            channel: StreamingChannel::new(),
            scratch: DspScratch::new(),
            payload: Vec::new(),
            record: Vec::new(),
            digitized: Vec::new(),
            stats: Vec::new(),
            bits: Vec::new(),
            ref_bits: Vec::new(),
            config,
        }
    }

    /// Probes one packet: `rng` is the trial's RNG (`Rand::for_trial`),
    /// `unit` the index the spans carry. Errs when a stage call does not
    /// reproduce the workload's own record.
    #[allow(clippy::too_many_arguments)]
    fn packet(
        &mut self,
        sc: &LinkScenario,
        len: usize,
        block: usize,
        rng: Rand,
        unit: u64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let clean = self
            .worker
            .synthesize_clean_streamed(sc, len, block, &mut rng.clone());

        // The trial's draws in the worker's order: payload bytes, then the
        // channel realization.
        let mut rng = rng;
        self.payload.clear();
        self.payload.resize(len, 0);
        rng.fill_bytes(&mut self.payload);
        if self.payload != self.worker.payload_bytes() {
            return Err("probe payload differs from the trial's".into());
        }
        tr.span("phy.tx", unit, |_| {
            self.tx
                .transmit_packet_into(&self.payload, &mut self.burst, &mut self.frame)
        })
        .map_err(|e| format!("transmit: {e:?}"))?;
        tr.span("sim.channel", unit, |_| {
            self.realization.regenerate(sc.channel, &mut rng);
            self.channel
                .configure(&self.realization, sc.config.sample_rate);
            self.record.clear();
            for b in self.burst.samples.chunks(block.max(1)) {
                let start = self.record.len();
                self.record.extend_from_slice(b);
                self.channel
                    .process_block(&mut self.record[start..], &mut self.scratch);
            }
            self.channel.flush_into(&mut self.record, &mut self.scratch);
        });
        if !bit_equal(&self.record, self.worker.clean_record()) {
            return Err("probe record differs from LinkWorker::synthesize_clean_streamed".into());
        }
        tr.span("sim.awgn", unit, |_| {
            StreamingAwgn::new(clean.n0, clean.awgn_rng)
                .process_block(&mut self.record, &mut self.scratch)
        });
        tr.span("phy.digitize", unit, |_| {
            self.digitized.clear();
            self.rx.digitize_append(&self.record, &mut self.digitized)
        });
        tr.span("phy.known_timing", unit, |_| {
            self.rx.payload_statistics_predigitized_with(
                &self.digitized,
                clean.slot0_start,
                len,
                &mut self.state,
                &mut self.stats,
            )
        });
        let decoded = tr.span("phy.decode_bits", unit, |_| {
            decode_payload_bits_into(
                &self.stats,
                len,
                &sc.config,
                &mut self.frame,
                &mut self.bits,
            )
        });
        let out = &mut tally.outcome;
        if decoded.is_ok() {
            reference_payload_bits_into(&self.payload, &mut self.frame, &mut self.ref_bits);
            out.ber.add_bits(&self.ref_bits, &self.bits);
        }
        let acq = tr.span("phy.acquire", unit, |_| {
            self.rx.acquire_record(&self.digitized, &mut self.state)
        });
        let packet = tr.span("phy.frame_decode", unit, |_| {
            self.rx
                .receive_packet_acquired(&self.digitized, &acq, &mut self.state)
        });
        out.packets += 1;
        match packet {
            Ok(p) if p.payload == self.payload => out.packets_ok += 1,
            Err(PhyError::SyncFailed) => out.sync_failures += 1,
            _ => {}
        }
        tally.detected += u64::from(acq.detected);
        tally.record_len = self.record.len();
        Ok(())
    }
}

fn bit_equal(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}
