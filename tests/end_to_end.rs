//! Integration: complete gen2 packets across configurations, channels and
//! impairments (spans uwb-phy, uwb-sim, uwb-adc, uwb-platform).

use uwb::phy::{ConvCode, Gen2Config, Gen2Receiver, Gen2Transmitter, Modulation, PhyError};
use uwb::sim::awgn::add_awgn_complex;
use uwb::sim::{ChannelModel, ChannelRealization, Rand};

fn round_trip(
    config: &Gen2Config,
    payload: &[u8],
    channel: ChannelModel,
    noise_rel: f64,
    seed: u64,
) {
    let tx = Gen2Transmitter::new(config.clone()).expect("tx");
    let rx = Gen2Receiver::new(config.clone()).expect("rx");
    let burst = tx.transmit_packet(payload).expect("frame");
    let mut rng = Rand::new(seed);
    let ch = ChannelRealization::generate(channel, &mut rng);
    let through = ch.apply(&burst.samples, config.sample_rate);
    let p = uwb_dsp::complex::mean_power(&through);
    let noisy = if noise_rel > 0.0 {
        add_awgn_complex(&through, p * noise_rel, &mut rng)
    } else {
        through
    };
    let packet = rx.receive_packet(&noisy).expect("receive");
    assert_eq!(packet.payload, payload, "payload mismatch");
}

#[test]
fn all_modulations_over_awgn() {
    for modulation in Modulation::all() {
        let config = Gen2Config {
            modulation,
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        round_trip(
            &config,
            b"modulation integration",
            ChannelModel::Awgn,
            0.05,
            1,
        );
    }
}

#[test]
fn fec_and_spreading_over_cm1() {
    let config = Gen2Config {
        fec: Some(ConvCode::k3()),
        pulses_per_bit: 2,
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    round_trip(&config, &[0x5A; 48], ChannelModel::Cm1, 0.1, 2);
}

#[test]
fn k7_fec_over_cm2() {
    let config = Gen2Config {
        fec: Some(ConvCode::k7()),
        preamble_repeats: 3,
        ..Gen2Config::nominal_100mbps()
    };
    round_trip(&config, &[0x77; 32], ChannelModel::Cm2, 0.15, 3);
}

#[test]
fn severe_multipath_cm3_with_more_fingers() {
    let config = Gen2Config {
        rake_fingers: 16,
        preamble_repeats: 3,
        ..Gen2Config::nominal_100mbps()
    };
    round_trip(&config, &[0x12; 40], ChannelModel::Cm3, 0.05, 5);
}

#[test]
fn various_payload_sizes() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    for (i, len) in [0usize, 1, 13, 255, 1000].into_iter().enumerate() {
        let payload: Vec<u8> = (0..len).map(|k| (k * 31 + i) as u8).collect();
        round_trip(&config, &payload, ChannelModel::Awgn, 0.02, 10 + i as u64);
    }
}

#[test]
fn low_resolution_adc_still_decodes() {
    for bits in [1u32, 2, 4] {
        let config = Gen2Config {
            adc_bits: bits,
            preamble_repeats: 3,
            ..Gen2Config::nominal_100mbps()
        };
        round_trip(
            &config,
            &[0xAB; 24],
            ChannelModel::Awgn,
            0.25,
            20 + bits as u64,
        );
    }
}

#[test]
fn alternate_channels_and_prf() {
    // Different sub-band and a 50 MHz PRF (20 samples/slot).
    let config = Gen2Config {
        channel: uwb::phy::Channel::new(10).expect("channel"),
        prf: uwb::sim::Hertz::from_mhz(50.0),
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    assert_eq!(config.samples_per_slot(), 20);
    round_trip(&config, &[0xF0; 20], ChannelModel::Cm1, 0.1, 30);
}

#[test]
fn corrupted_payload_is_rejected_not_miscredited() {
    // At hopeless SNR the receiver must fail loudly (sync or CRC), never
    // return a wrong payload as Ok.
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(config.clone()).expect("tx");
    let rx = Gen2Receiver::new(config.clone()).expect("rx");
    let payload = vec![0xEEu8; 64];
    let burst = tx.transmit_packet(&payload).expect("frame");
    let mut rng = Rand::new(40);
    let p = uwb_dsp::complex::mean_power(&burst.samples);
    let hopeless = add_awgn_complex(&burst.samples, p * 300.0, &mut rng);
    match rx.receive_packet(&hopeless) {
        Ok(packet) => assert_eq!(packet.payload, payload, "silent corruption"),
        Err(PhyError::SyncFailed)
        | Err(PhyError::CrcMismatch)
        | Err(PhyError::HeaderInvalid)
        | Err(PhyError::TruncatedInput) => {}
        Err(e) => panic!("unexpected error {e}"),
    }
}
