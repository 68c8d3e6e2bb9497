//! Integration: the full direct-conversion signal path at RF passband —
//! baseband pulses → quadrature upconversion to a 14-plan channel → planar
//! antenna model → LNA → zero-IF I/Q downconversion → decimation back to
//! the back-end rate → packet decode. This exercises the architecture of
//! paper Fig. 3 end to end (spans uwb-phy, uwb-rf, uwb-sim, uwb-dsp).

use uwb::dsp::resample::{decimate, upsample};
use uwb::phy::{Gen2Config, Gen2Receiver, Gen2Transmitter};
use uwb::rf::{IqImpairments, LocalOscillator, RxChain, TxChain};
use uwb::sim::time::SampleRate;
use uwb::sim::{Antenna, Rand};

const PASSBAND_FS: f64 = 32e9;
const RATIO: usize = 32;

fn passband_round_trip(impairments: IqImpairments, cfo_ppm: f64, seed: u64) -> Vec<u8> {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let tx_phy = Gen2Transmitter::new(config.clone()).expect("tx");
    let rx_phy = Gen2Receiver::new(config.clone()).expect("rx");
    let payload = b"zero-IF passband chain".to_vec();
    let burst = tx_phy.transmit_packet(&payload).expect("frame");

    // Interpolate the 1 GS/s baseband to the passband simulation rate.
    let bb_32g = upsample(&burst.samples, RATIO, 8);

    // Upconvert to the channel carrier and radiate through the antenna.
    let fs_pass = SampleRate::new(PASSBAND_FS);
    let carrier = config.channel.center();
    let tx_rf = TxChain::new(carrier, 0.01); // -20 dBm: linear for the LNA
    let passband = tx_rf.transmit(&bb_32g, fs_pass);
    let antenna = Antenna::uwb_elliptical();
    let radiated = antenna.apply(&passband, fs_pass);

    // Receive: LNA -> impaired zero-IF downconversion -> AGC.
    let mut rng = Rand::new(seed);
    let lo = LocalOscillator::with_impairments(carrier, cfo_ppm, 0.0);
    let mut rx_rf = RxChain::new(carrier)
        .with_lo(lo)
        .with_impairments(impairments);
    let bb_rx_32g = rx_rf.receive(&radiated, fs_pass, &mut rng);

    // Decimate back to the digital back end's rate and decode.
    let bb_rx = decimate(&bb_rx_32g, RATIO);
    assert!((bb_rx.len() as f64 / burst.samples.len() as f64 - 1.0).abs() < 0.01);
    let packet = rx_phy.receive_packet(&bb_rx).expect("packet");
    packet.payload
}

#[test]
fn ideal_front_end() {
    let payload = passband_round_trip(IqImpairments::ideal(), 0.0, 1);
    assert_eq!(payload, b"zero-IF passband chain");
}

#[test]
fn typical_iq_impairments() {
    // 0.5 dB gain imbalance, 3 deg phase error, DC offsets: the DC-offset
    // and image terms must be absorbed by the back end.
    let payload = passband_round_trip(IqImpairments::typical(), 0.0, 2);
    assert_eq!(payload, b"zero-IF passband chain");
}

#[test]
fn small_cfo_survives_short_packet() {
    // 1 ppm at ~5 GHz = 5 kHz; over a ~13 µs packet that is ~0.4 rad of
    // rotation — within what the RAKE's per-packet channel estimate absorbs.
    let payload = passband_round_trip(IqImpairments::ideal(), 1.0, 3);
    assert_eq!(payload, b"zero-IF passband chain");
}

#[test]
fn antenna_bandpass_preserves_in_band_pulse() {
    // Direct check that the antenna model passes channel-3 energy.
    let fs = SampleRate::new(PASSBAND_FS);
    let antenna = Antenna::uwb_elliptical();
    let config = Gen2Config::nominal_100mbps();
    let shape = uwb::phy::PulseShape::gen2_default();
    let bb: Vec<uwb_dsp::Complex> = shape.generate_complex(SampleRate::new(PASSBAND_FS));
    let pass = TxChain::new(config.channel.center(), 0.01).transmit(&bb, fs);
    let out = antenna.apply(&pass, fs);
    let e_in: f64 = pass.iter().map(|x| x * x).sum();
    let e_out: f64 = out.iter().map(|x| x * x).sum();
    assert!(
        e_out / e_in > 0.5,
        "antenna ate the pulse: {}",
        e_out / e_in
    );
}
