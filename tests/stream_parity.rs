//! Repo-level gates for the streaming signal chain (`scripts/check.sh
//! stream`): the chunk-size invariance contract, bounded receiver memory,
//! and a link trial's record against the batch impairment helpers.
//!
//! The property under test is the one that makes block streaming *safe to
//! adopt everywhere*: the partition of a record into blocks is
//! unobservable. Any random split of the impairment chain's input, and any
//! random split of the receiver's input, must produce bit-identical
//! records / identical decoded packets; and since the batch helpers run the
//! streamed operators over one block, a trial's record equals their
//! composition bit for bit.

use proptest::prelude::*;
use std::sync::OnceLock;
use uwb::dsp::stream::BlockProcessor;
use uwb::dsp::{Complex, DspScratch};
use uwb::phy::{Gen2Config, Gen2Transmitter, ReceivedPacket, StreamRx};
use uwb::platform::{ErrorCounter, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb::sim::awgn::add_awgn_complex;
use uwb::sim::stream::{StreamingAwgn, StreamingChannel, StreamingInterferer};
use uwb::sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb::sim::time::SampleRate;
use uwb::sim::{Interferer, Rand};

fn small_config() -> Gen2Config {
    Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    }
}

/// Deterministic pseudo-signal (not RNG-driven so the RNG draw order stays
/// reserved for the operators under test).
fn test_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((0.137 * i as f64).sin(), (0.071 * i as f64).cos()))
        .collect()
}

/// Applies channel → CW interferer → AWGN to `input` split at the given
/// block lengths (cycled until the record is consumed), returning the full
/// impaired record including the flushed multipath tail.
fn impair_with_blocks(input: &[Complex], seed: u64, blocks: &[usize]) -> Vec<Complex> {
    let fs = SampleRate::from_gsps(1.0);
    let mut rng = Rand::new(seed);
    let ch = ChannelRealization::generate(ChannelModel::Cm2, &mut rng);
    let mut channel = StreamingChannel::from_realization(&ch, fs);
    let intf = Interferer::cw(150e6, 2.0);
    let mut interferer = StreamingInterferer::new(&intf, fs.as_hz(), &mut rng);
    let mut awgn = StreamingAwgn::new(0.3, rng.clone());
    let mut scratch = DspScratch::new();

    let mut out = Vec::with_capacity(input.len() + channel.tail_len());
    let mut start = 0;
    let mut bi = 0;
    while start < input.len() {
        let bl = blocks[bi % blocks.len()].max(1);
        bi += 1;
        let end = (start + bl).min(input.len());
        out.extend_from_slice(&input[start..end]);
        let block = &mut out[start..end];
        channel.process_block(block, &mut scratch);
        interferer.process_block(block, &mut scratch);
        awgn.process_block(block, &mut scratch);
        start = end;
    }
    let n = out.len();
    channel.flush_into(&mut out, &mut scratch);
    if out.len() > n {
        let tail = &mut out[n..];
        interferer.process_block(tail, &mut scratch);
        awgn.process_block(tail, &mut scratch);
    }
    out
}

/// Shared noisy three-packet capture for the receiver-side properties
/// (built once; proptest cases only re-chunk it).
fn capture() -> &'static (Gen2Config, Vec<Complex>, Vec<Vec<u8>>) {
    static CAPTURE: OnceLock<(Gen2Config, Vec<Complex>, Vec<Vec<u8>>)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let config = small_config();
        let tx = Gen2Transmitter::new(config.clone()).expect("tx config");
        let mut rng = Rand::new(20050307);
        let payloads: Vec<Vec<u8>> = vec![
            b"stream parity 0".to_vec(),
            b"stream parity 1".to_vec(),
            b"p2".to_vec(),
        ];
        let mut record = vec![Complex::ZERO; 2500];
        for p in &payloads {
            let burst = tx.transmit_packet(p).expect("payload size");
            let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
            record.extend(ch.apply(&burst.samples, config.sample_rate));
            record.extend(std::iter::repeat_n(Complex::ZERO, 2200));
        }
        let p = uwb_dsp::complex::mean_power(&record);
        let noisy = uwb::sim::awgn::add_awgn_complex(&record, p / 10.0, &mut rng);
        (config, noisy, payloads)
    })
}

/// Decodes the shared capture through a `StreamRx`, feeding it in blocks of
/// the given lengths (cycled).
fn decode_with_blocks(blocks: &[usize]) -> Vec<(usize, ReceivedPacket)> {
    let (config, capture, _) = capture();
    let mut rx = StreamRx::new(config.clone(), 64).expect("rx config");
    let mut start = 0;
    let mut bi = 0;
    while start < capture.len() {
        let bl = blocks[bi % blocks.len()].max(1);
        bi += 1;
        let end = (start + bl).min(capture.len());
        rx.push_block(&capture[start..end]);
        start = end;
    }
    rx.finish();
    rx.drain_packets().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Impairment chain (multipath + CW interferer + AWGN): any random
    /// block partition produces a bit-identical record, tail included.
    #[test]
    fn impairment_chain_is_partition_invariant(
        seed in 0u64..1000,
        blocks in prop::collection::vec(1usize..striding_max(), 1..8),
    ) {
        let input = test_signal(700);
        let whole = impair_with_blocks(&input, seed, &[input.len()]);
        let split = impair_with_blocks(&input, seed, &blocks);
        prop_assert_eq!(split.len(), whole.len());
        for (i, (s, w)) in split.iter().zip(&whole).enumerate() {
            prop_assert!(
                s.re.to_bits() == w.re.to_bits() && s.im.to_bits() == w.im.to_bits(),
                "sample {} differs: {:?} vs {:?} (blocks {:?})", i, s, w, &blocks
            );
        }
    }

    /// `StreamRx` decodes the same packets (offsets and payloads) no matter
    /// how the capture is chunked.
    #[test]
    fn stream_rx_is_chunk_invariant(
        blocks in prop::collection::vec(1usize..4096, 1..6),
    ) {
        let whole = decode_with_blocks(&[usize::MAX / 2]);
        let (_, _, payloads) = capture();
        prop_assert_eq!(whole.len(), payloads.len(), "reference decode incomplete");
        let split = decode_with_blocks(&blocks);
        prop_assert_eq!(split.len(), whole.len());
        for ((off_s, pkt_s), (off_w, pkt_w)) in split.iter().zip(&whole) {
            prop_assert_eq!(off_s, off_w);
            prop_assert_eq!(&pkt_s.payload, &pkt_w.payload);
            prop_assert_eq!(pkt_s.header, pkt_w.header);
        }
    }
}

/// Largest random block length for the impairment-chain property — spans
/// sub-tail-length blocks up to whole-record blocks.
fn striding_max() -> usize {
    900
}

/// Receiver memory is bounded by the frame budget, not the stream length:
/// pushing a long noise-only stream (with a decodable frame embedded to
/// prove the scan is alive) never grows the buffer past a fixed budget.
#[test]
fn stream_rx_memory_is_bounded_by_frame_not_stream() {
    let (config, _, _) = capture();
    let tx = Gen2Transmitter::new(config.clone()).expect("tx config");
    let burst = tx.transmit_packet(b"bounded").expect("payload size");
    let mut rng = Rand::new(99);

    let mut rx = StreamRx::new(config.clone(), 64).expect("rx config");
    let mut pushed = 0usize;
    let mut capacity_after_warmup = 0usize;
    let mut noise_block = vec![Complex::ZERO; 2048];
    for round in 0..60 {
        // Mostly noise; every 10th round carries a frame.
        if round % 10 == 5 {
            rx.push_block(&burst.samples);
            pushed += burst.samples.len();
        }
        for z in noise_block.iter_mut() {
            *z = Complex::new(0.05 * rng.gaussian(), 0.05 * rng.gaussian());
        }
        rx.push_block(&noise_block);
        pushed += noise_block.len();
        if round == 20 {
            capacity_after_warmup = rx.buffer_capacity();
        }
    }
    rx.finish();

    assert!(pushed > 120_000, "stream too short to be meaningful");
    assert!(rx.packets().len() >= 5, "scan found {} packets", rx.packets().len());
    assert!(
        rx.buffer_capacity() <= capacity_after_warmup,
        "buffer kept growing after warm-up: {} -> {}",
        capacity_after_warmup,
        rx.buffer_capacity()
    );
    assert!(
        rx.buffer_capacity() < pushed / 8,
        "buffer capacity {} not bounded vs {} pushed",
        rx.buffer_capacity(),
        pushed
    );
}

/// Bit-for-bit equality (`==` on `Complex` would let `-0.0` pass for
/// `+0.0`).
fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: sample {i}: {g:?} vs {w:?}"
        );
    }
}

/// A link trial's record is the batch composition of the impairment
/// helpers, bit for bit: on the trial's RNG, the payload bytes,
/// `transmit_packet`, `ChannelRealization::generate`, `apply`, the
/// interferer's `add_to`, then `add_awgn_complex` at the trial's calibrated
/// `n0`. The clean record is compared as well as the noisy one, because
/// noise at this SNR can hide a 1-ulp difference in the clean samples.
#[test]
fn trial_record_equals_the_batch_composition() {
    const PAYLOAD: usize = 48;
    let config = Gen2Config::nominal_100mbps();
    let tx = Gen2Transmitter::new(config.clone()).expect("tx config");
    let fs = config.sample_rate;
    for channel in [ChannelModel::Awgn, ChannelModel::Cm1, ChannelModel::Cm3] {
        for interferer in [None, Some(Interferer::cw(150e6, 0.2))] {
            let scenario = LinkScenario {
                interferer: interferer.clone(),
                channel,
                ..LinkScenario::awgn(config.clone(), 8.0, 2031)
            };
            let mut worker = LinkWorker::new(&scenario);
            for t in 0..3 {
                let what = format!("{channel:?}, interferer {interferer:?}, trial {t}");
                let mut rng = Rand::for_trial(scenario.seed, t);
                let mut payload = vec![0u8; PAYLOAD];
                rng.fill_bytes(&mut payload);
                let burst = tx.transmit_packet(&payload).expect("payload size");
                let ch = ChannelRealization::generate(channel, &mut rng);
                let mut clean = ch.apply(&burst.samples, fs);
                if let Some(intf) = &interferer {
                    clean = intf.add_to(&clean, fs.as_hz(), &mut rng);
                }

                let mut trial_rng = Rand::for_trial(scenario.seed, t);
                let synth = worker.synthesize_clean_streamed(
                    &scenario,
                    PAYLOAD,
                    DEFAULT_STREAM_BLOCK,
                    &mut trial_rng,
                );
                assert_bits_eq(worker.clean_record(), &clean, &format!("{what}: clean"));

                let noisy = add_awgn_complex(&clean, synth.n0, &mut rng);
                let mut counter = ErrorCounter::default();
                worker.trial_ber(
                    &scenario,
                    PAYLOAD,
                    DEFAULT_STREAM_BLOCK,
                    &mut Rand::for_trial(scenario.seed, t),
                    &mut counter,
                );
                assert_bits_eq(worker.clean_record(), &noisy, &format!("{what}: impaired"));
            }
        }
    }
}
