//! Golden gen1 synchronization and TOA-ranging decisions on seeded records.
//!
//! Both searches correlate a spread code (±1 chips × one pulse) against a
//! record. These pins hold what the rest of each pipeline consumes:
//!
//! - gen1, E3a-shaped: 24-bit bursts of the demonstrated 193 kbps
//!   configuration at E3a's Eb/N0 points, through `Gen1Receiver::receive`
//!   (digitize, 3-period preamble code, demodulate):
//!   `(locked, offset, ⌊1000 · metric⌋, bit errors)`;
//! - gen1, E3b-shaped: 4-bit bursts at −6 dB per-sample SNR, synchronized
//!   with the 1-period code (a receiver configured for two preamble periods
//!   integrates one) and no bits demodulated;
//! - E13-shaped: the degree-5 ranging code at 10 samples per chip, LOS
//!   with fractional delays and through CM1/CM3, for the leading-edge and
//!   the strongest-peak estimator: `(edge sample, ⌊1e6 · TOA samples⌋)`.
//!
//! The pins were taken from the FFT correlator that preceded the
//! chip-domain bank. A moved tuple means the correlation arithmetic
//! changed: fix the kernel, never re-pin.

use uwb::adc::InterleaveMismatch;
use uwb::dsp::resample::fractional_delay;
use uwb::dsp::Complex;
use uwb::gen1::{Gen1Config, Gen1Receiver, Gen1Transmitter};
use uwb::phy::ranging::ToaEstimator;
use uwb::phy::{PulseShape, SpreadCode};
use uwb::sim::awgn::{add_awgn_complex, add_awgn_real};
use uwb::sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb::sim::{Rand, SampleRate};

const SEED: u64 = 0x5EED_C0DE;

/// `(locked, offset, ⌊1000 · metric⌋, bit errors)`; `(false, 0, 0, 0)` when
/// the CFAR threshold was not cleared.
type Lock = (bool, usize, u64, usize);

/// Receives `records` noisy bursts of `n_bits` bits each and returns one
/// [`Lock`] per record. `noise_p` maps a burst's mean power to the
/// per-sample noise power; `rx_repeats` is the receiver's configured
/// preamble periods (it integrates all but one).
fn gen1_locks(
    seed: u64,
    records: usize,
    n_bits: usize,
    rx_repeats: usize,
    noise_p: impl Fn(f64) -> f64,
) -> Vec<Lock> {
    let cfg = Gen1Config::demonstrated_193kbps();
    let tx = Gen1Transmitter::new(cfg.clone());
    let rx_cfg = Gen1Config {
        preamble_repeats: rx_repeats,
        ..cfg
    };
    let rx = Gen1Receiver::new(rx_cfg, InterleaveMismatch::typical(), SEED);
    let mut rng = Rand::new(seed);
    (0..records)
        .map(|_| {
            let bits: Vec<bool> = (0..n_bits.max(4)).map(|_| rng.bit()).collect();
            let burst = tx.transmit(&bits);
            let p = uwb::dsp::complex::mean_power_real(&burst.samples);
            let noisy = add_awgn_real(&burst.samples, noise_p(p), &mut rng);
            match rx.receive(&noisy, n_bits) {
                Some(d) => {
                    let errors = d.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
                    let metric = (d.sync.metric * 1000.0) as u64;
                    (true, d.sync.offset, metric, errors)
                }
                None => (false, 0, 0, 0),
            }
        })
        .collect()
}

/// E3a's operating points: Eb = 162 unit-energy pulses, real AWGN at
/// `N0/2` per sample.
fn e3a_locks(ebn0_db: f64) -> Vec<Lock> {
    let eb = Gen1Config::demonstrated_193kbps().pulses_per_bit as f64;
    let noise = eb / (2.0 * uwb::dsp::math::db_to_pow(ebn0_db));
    gen1_locks(SEED ^ ebn0_db.to_bits(), 12, 24, 4, |_| noise)
}

#[test]
fn gen1_e3a_three_period_code() {
    let got: Vec<Vec<Lock>> = [5.0, 7.0, 9.0, 11.0, 13.0]
        .iter()
        .map(|&db| e3a_locks(db))
        .collect();
    assert_eq!(got, E3A);
}

#[test]
fn gen1_e3b_one_period_code() {
    assert_eq!(gen1_locks(SEED, 20, 0, 2, |p| 4.0 * p), E3B);
}

fn fs() -> SampleRate {
    SampleRate::from_gsps(1.0)
}

/// E13's ranging preamble: a degree-5 m-sequence at 10 samples per chip
/// carrying the gen2 pulse.
fn ranging_code() -> SpreadCode {
    SpreadCode {
        chips: uwb::phy::pn::msequence_chips(5),
        samples_per_chip: 10,
        pulse: PulseShape::gen2_default().generate(fs()),
    }
}

/// `(edge sample, ⌊1e6 · TOA samples⌋)`, or `None` without an estimate.
type Toa = Option<(usize, i64)>;

fn toa(est: &ToaEstimator, signal: &[Complex], code: &SpreadCode) -> Toa {
    est.estimate(signal, code, fs())
        .map(|t| (t.samples.round() as usize, (t.samples * 1e6).floor() as i64))
}

/// The leading-edge estimator and E13's strongest-peak picker.
fn estimators() -> [ToaEstimator; 2] {
    [
        ToaEstimator::new(),
        ToaEstimator {
            edge_fraction: 0.999,
            search_back: 0,
        },
    ]
}

#[test]
fn ranging_los_fractional_delays() {
    let code = ranging_code();
    let template = code.template();
    let mut got = Vec::new();
    for snr_db in [0.0f64, 6.0, 12.0, 20.0] {
        let mut rng = Rand::new(SEED ^ snr_db.to_bits());
        for _ in 0..4 {
            let true_delay = rng.uniform_in(0.0, 10.0);
            let mut sig = vec![Complex::ZERO; 80];
            sig.extend_from_slice(&template);
            sig.extend(vec![Complex::ZERO; 80]);
            let delayed = fractional_delay(&sig, true_delay, 8);
            let p = uwb::dsp::complex::mean_power(&delayed);
            let n0 = p / uwb::dsp::math::db_to_pow(snr_db);
            let noisy = add_awgn_complex(&delayed, n0, &mut rng);
            for est in &estimators() {
                got.push(toa(est, &noisy, &code));
            }
        }
    }
    assert_eq!(got, RANGING_LOS);
}

#[test]
fn ranging_through_multipath() {
    let code = ranging_code();
    let template = code.template();
    let mut got = Vec::new();
    for channel in [ChannelModel::Cm1, ChannelModel::Cm3] {
        for dist_m in [1.0f64, 5.0] {
            let mut rng = Rand::new(SEED ^ dist_m.to_bits());
            let delay = uwb::phy::ranging::distance_to_delay_ns(dist_m) * fs().as_hz() / 1e9;
            for _ in 0..4 {
                let ch = ChannelRealization::generate(channel, &mut rng);
                let mut sig = vec![Complex::ZERO; 60];
                sig.extend_from_slice(&template);
                sig.extend(vec![Complex::ZERO; 120]);
                let through = ch.apply(&sig, fs());
                let delayed = fractional_delay(&through, delay, 8);
                let p = uwb::dsp::complex::mean_power(&delayed);
                let noisy = add_awgn_complex(&delayed, p / 100.0, &mut rng);
                for est in &estimators() {
                    got.push(toa(est, &noisy, &code));
                }
            }
        }
    }
    assert_eq!(got, RANGING_MULTIPATH);
}

/// E3a shape, 12 records at each of 5, 7, 9, 11 and 13 dB Eb/N0.
const E3A: [[Lock; 12]; 5] = [
    // 5 dB
    [
        (true, 73, 7289, 0),
        (false, 0, 0, 0),
        (true, 73, 7361, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (true, 73, 8399, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (true, 73, 8779, 1),
    ],
    // 7 dB
    [
        (true, 73, 8209, 0),
        (false, 0, 0, 0),
        (true, 73, 9056, 0),
        (true, 73, 7831, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (false, 0, 0, 0),
        (true, 73, 8498, 0),
        (false, 0, 0, 0),
        (true, 73, 11118, 0),
    ],
    // 9 dB
    [
        (true, 73, 8772, 0),
        (true, 73, 9466, 0),
        (true, 73, 9114, 0),
        (true, 73, 8294, 0),
        (true, 73, 11353, 0),
        (true, 73, 9207, 0),
        (true, 73, 8059, 0),
        (true, 73, 8984, 0),
        (true, 73, 8915, 0),
        (true, 73, 8099, 0),
        (true, 73, 8802, 0),
        (true, 73, 10711, 0),
    ],
    // 11 dB
    [
        (true, 73, 13510, 0),
        (true, 73, 9873, 0),
        (true, 73, 13733, 0),
        (true, 73, 10599, 0),
        (true, 73, 8371, 0),
        (true, 73, 11073, 0),
        (true, 73, 10571, 0),
        (true, 73, 11523, 0),
        (true, 73, 13013, 0),
        (true, 73, 12911, 0),
        (true, 73, 12399, 0),
        (true, 73, 12335, 0),
    ],
    // 13 dB
    [
        (true, 73, 13523, 0),
        (true, 73, 12509, 0),
        (true, 73, 16092, 0),
        (true, 73, 12460, 0),
        (true, 73, 11105, 0),
        (true, 73, 12582, 0),
        (true, 73, 14572, 0),
        (true, 73, 16810, 0),
        (true, 73, 16021, 0),
        (true, 73, 15448, 0),
        (true, 73, 14025, 0),
        (true, 73, 14616, 0),
    ],
];

/// E3b shape: −6 dB per-sample SNR, 1-period code.
const E3B: [Lock; 20] = [
    (true, 73, 65406, 0),
    (true, 73, 60259, 0),
    (true, 73, 64239, 0),
    (true, 73, 65195, 0),
    (true, 73, 64874, 0),
    (true, 73, 62958, 0),
    (true, 73, 67123, 0),
    (true, 73, 67583, 0),
    (true, 73, 64978, 0),
    (true, 73, 64200, 0),
    (true, 73, 65682, 0),
    (true, 73, 64405, 0),
    (true, 73, 65512, 0),
    (true, 73, 64908, 0),
    (true, 73, 66596, 0),
    (true, 73, 65335, 0),
    (true, 73, 66691, 0),
    (true, 73, 64767, 0),
    (true, 73, 65731, 0),
    (true, 73, 64285, 0),
];

/// LOS at 0, 6, 12 and 20 dB, 4 delays each; leading edge, then
/// strongest peak, per record.
const RANGING_LOS: [Toa; 32] = [
    Some((86, 86038884)),
    Some((86, 86038884)),
    Some((84, 84032088)),
    Some((84, 84032088)),
    Some((88, 88049708)),
    Some((88, 88049708)),
    Some((83, 82654490)),
    Some((83, 82654490)),
    Some((84, 84215576)),
    Some((84, 84215576)),
    Some((82, 82106936)),
    Some((82, 82106936)),
    Some((88, 88413642)),
    Some((88, 88413642)),
    Some((90, 89654128)),
    Some((90, 89654128)),
    Some((83, 82636714)),
    Some((83, 82636714)),
    Some((81, 81220699)),
    Some((81, 81220699)),
    Some((83, 82779649)),
    Some((83, 82779649)),
    Some((84, 84098585)),
    Some((84, 84098585)),
    Some((85, 84799850)),
    Some((85, 84799850)),
    Some((89, 89110574)),
    Some((89, 89110574)),
    Some((81, 80786219)),
    Some((81, 80786219)),
    Some((82, 81895781)),
    Some((82, 81895781)),
];

/// CM1 at 1 and 5 m, then CM3 at 1 and 5 m, 4 realizations each;
/// leading edge, then strongest peak, per record.
const RANGING_MULTIPATH: [Toa; 32] = [
    Some((65, 64682136)),
    Some((65, 64682136)),
    Some((64, 63739399)),
    Some((64, 63739399)),
    Some((63, 63337192)),
    Some((69, 69447435)),
    Some((68, 68287795)),
    Some((68, 68287795)),
    Some((80, 80325815)),
    Some((80, 80325815)),
    Some((76, 76082138)),
    Some((81, 80944354)),
    Some((76, 75790740)),
    Some((80, 79527810)),
    Some((76, 76176208)),
    Some((76, 76176208)),
    Some((63, 63304587)),
    Some((77, 77241635)),
    Some((65, 64955278)),
    Some((76, 76424849)),
    Some((65, 64747950)),
    Some((74, 73511291)),
    Some((64, 64275895)),
    Some((72, 72359472)),
    Some((79, 78730596)),
    Some((87, 86652497)),
    Some((77, 77219560)),
    Some((77, 77219560)),
    Some((77, 77199040)),
    Some((77, 77199040)),
    Some((77, 77275747)),
    Some((91, 90774351)),
];
