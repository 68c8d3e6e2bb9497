//! Golden acquisition decisions on seeded gen2 records.
//!
//! Each record is synthesized by the link worker's streamed path (payload →
//! frame → channel) behind a per-trial lead of silence, takes its
//! calibrated AWGN, is digitized at the
//! configured ADC resolution, and goes through
//! `Gen2Receiver::acquire_record`. The pinned tuple per record is what the
//! rest of the receiver consumes: `(detected, offset, acq_metric_milli)`,
//! the last being the flight recorder's `acq_metric_milli` note
//! (`⌊1000 · metric⌋`).
//!
//! The pins were taken from the FFT correlator that preceded the
//! chip-domain kernel. A moved tuple means the acquisition arithmetic
//! changed: fix the kernel, never re-pin.

use uwb::dsp::stream::BlockProcessor;
use uwb::dsp::Complex;
use uwb::phy::{Gen2Config, Gen2Receiver, RxState};
use uwb::platform::link::{LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb::sim::sv_channel::ChannelModel;
use uwb::sim::{Rand, StreamingAwgn};

/// Records per scenario.
const RECORDS: u64 = 8;

/// Noise-only samples ahead of trial `trial`'s frame: spread over one
/// preamble period (1,270 samples at the nominal rate) plus the search's
/// channel-estimate margin.
fn lead(trial: u64) -> usize {
    (trial as usize * 389) % 1280
}

/// `(detected, offset, acq_metric_milli)`.
type Decision = (bool, usize, u64);

/// Acquisition decisions for `RECORDS` trials of one scenario.
fn decisions(channel: ChannelModel, ebn0_db: f64, adc_bits: u32, repeats: usize) -> Vec<Decision> {
    let config = Gen2Config {
        adc_bits,
        preamble_repeats: repeats,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario {
        channel,
        ebn0_db,
        ..LinkScenario::awgn(config.clone(), ebn0_db, 0x5EED_AC90)
    };
    let mut worker = LinkWorker::new(&scenario);
    let rx = Gen2Receiver::new(config).expect("valid config");
    let mut state = RxState::new();
    let mut record = Vec::new();
    let mut digitized = Vec::new();
    (0..RECORDS)
        .map(|trial| {
            let mut rng = Rand::for_trial(scenario.seed, trial);
            let clean =
                worker.synthesize_clean_streamed(&scenario, 24, DEFAULT_STREAM_BLOCK, &mut rng);
            // A noise-only lead moves the preamble across the search window.
            record.clear();
            record.resize(lead(trial), Complex::ZERO);
            record.extend_from_slice(worker.clean_record());
            StreamingAwgn::new(clean.n0, clean.awgn_rng)
                .process_block(&mut record, state.scratch());
            digitized.clear();
            rx.digitize_append(&record, &mut digitized);
            let acq = rx.acquire_record(&digitized, &mut state);
            (acq.detected, acq.offset, (acq.metric * 1000.0) as u64)
        })
        .collect()
}

const AWGN_1BIT_R2: [Decision; 8] = [
    (true, 10, 322),
    (true, 399, 330),
    (true, 788, 335),
    (true, 1177, 330),
    (true, 286, 335),
    (true, 675, 319),
    (true, 1064, 332),
    (true, 173, 331),
];

const AWGN_1BIT_R4: [Decision; 8] = [
    (true, 10, 322),
    (true, 399, 330),
    (true, 788, 335),
    (true, 1177, 330),
    (true, 286, 335),
    (true, 675, 319),
    (true, 1064, 332),
    (true, 173, 331),
];

const AWGN_5BIT_R2: [Decision; 8] = [
    (true, 10, 548),
    (true, 399, 546),
    (true, 788, 528),
    (true, 1177, 540),
    (true, 286, 535),
    (true, 675, 532),
    (true, 1064, 528),
    (true, 173, 524),
];

const AWGN_5BIT_R4: [Decision; 8] = [
    (true, 10, 548),
    (true, 399, 544),
    (true, 788, 528),
    (true, 1177, 540),
    (true, 286, 535),
    (true, 675, 533),
    (true, 1064, 528),
    (true, 173, 524),
];

const CM1_R2: [Decision; 8] = [
    (true, 11, 590),
    (true, 399, 681),
    (true, 792, 616),
    (true, 1179, 637),
    (true, 295, 561),
    (true, 677, 591),
    (true, 1068, 541),
    (true, 176, 676),
];

const CM1_R4: [Decision; 8] = [
    (true, 11, 591),
    (true, 399, 679),
    (true, 792, 616),
    (true, 1179, 640),
    (true, 295, 561),
    (true, 677, 591),
    (true, 1068, 539),
    (true, 176, 676),
];

/// 1-bit ADC at 3 dB: the peak straddles the 0.28 threshold (one record
/// misses it by a milli-unit).
const THRESHOLD_EDGE: [Decision; 8] = [
    (false, 10, 279),
    (true, 399, 288),
    (true, 788, 283),
    (false, 1177, 278),
    (true, 286, 294),
    (false, 675, 267),
    (false, 1064, 257),
    (true, 173, 291),
];

/// 1-bit ADC at −12 dB: noise wins, so the offsets are wherever the noise
/// peaks.
const NOISE_BOUND: [Decision; 8] = [
    (false, 10, 104),
    (false, 399, 87),
    (false, 300, 88),
    (false, 678, 79),
    (false, 421, 82),
    (false, 663, 85),
    (false, 876, 77),
    (false, 1186, 76),
];

#[test]
fn awgn_6db_1bit_adc() {
    assert_eq!(decisions(ChannelModel::Awgn, 6.0, 1, 2), AWGN_1BIT_R2);
    assert_eq!(decisions(ChannelModel::Awgn, 6.0, 1, 4), AWGN_1BIT_R4);
}

#[test]
fn awgn_6db_5bit_adc() {
    assert_eq!(decisions(ChannelModel::Awgn, 6.0, 5, 2), AWGN_5BIT_R2);
    assert_eq!(decisions(ChannelModel::Awgn, 6.0, 5, 4), AWGN_5BIT_R4);
}

#[test]
fn cm1_10db() {
    assert_eq!(decisions(ChannelModel::Cm1, 10.0, 5, 2), CM1_R2);
    assert_eq!(decisions(ChannelModel::Cm1, 10.0, 5, 4), CM1_R4);
}

#[test]
fn awgn_1bit_adc_near_and_below_threshold() {
    assert_eq!(decisions(ChannelModel::Awgn, 3.0, 1, 2), THRESHOLD_EDGE);
    assert_eq!(decisions(ChannelModel::Awgn, -12.0, 1, 2), NOISE_BOUND);
}
