//! Integration: failure injection. The receiver must degrade loudly and
//! safely — wrong results must surface as errors, never as silently wrong
//! payloads — under clipping, saturation, truncation, and hostile inputs.

use uwb::phy::{Gen2Config, Gen2Receiver, Gen2Transmitter, PhyError};
use uwb::sim::{Interferer, Rand};
use uwb_dsp::Complex;

fn cfg() -> Gen2Config {
    Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    }
}

fn check_no_silent_corruption(
    rx: &Gen2Receiver,
    samples: &[Complex],
    expected: &[u8],
) -> &'static str {
    match rx.receive_packet(samples) {
        Ok(p) if p.payload == expected => "ok",
        Ok(p) => panic!(
            "SILENT CORRUPTION: decoded {} bytes != expected {} bytes",
            p.payload.len(),
            expected.len()
        ),
        Err(PhyError::SyncFailed) => "sync_failed",
        Err(PhyError::CrcMismatch) => "crc",
        Err(PhyError::HeaderInvalid) => "header",
        Err(PhyError::TruncatedInput) => "truncated",
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

#[test]
fn hard_clipping_survivable_or_loud() {
    let config = cfg();
    let tx = Gen2Transmitter::new(config.clone()).unwrap();
    let rx = Gen2Receiver::new(config).unwrap();
    let payload = vec![0x5Au8; 32];
    let burst = tx.transmit_packet(&payload).unwrap();
    // Clip at 30% of peak: heavy nonlinearity, but BPSK pulses survive
    // clipping well (sign-preserving).
    let peak = burst.samples.iter().fold(0.0f64, |m, z| m.max(z.norm()));
    let limit = 0.3 * peak;
    let clipped: Vec<Complex> = burst
        .samples
        .iter()
        .map(|z| {
            if z.norm() > limit {
                *z * (limit / z.norm())
            } else {
                *z
            }
        })
        .collect();
    let outcome = check_no_silent_corruption(&rx, &clipped, &payload);
    assert_eq!(outcome, "ok", "clipping should be survivable for BPSK");
}

#[test]
fn record_truncated_mid_payload() {
    let config = cfg();
    let tx = Gen2Transmitter::new(config.clone()).unwrap();
    let rx = Gen2Receiver::new(config).unwrap();
    let payload = vec![0x77u8; 128];
    let burst = tx.transmit_packet(&payload).unwrap();
    // Keep the preamble + header but cut half the payload.
    let cut = burst.samples.len() * 2 / 3;
    let outcome = check_no_silent_corruption(&rx, &burst.samples[..cut], &payload);
    assert_ne!(outcome, "ok", "truncated packet cannot decode");
}

#[test]
fn zero_and_constant_inputs() {
    let config = cfg();
    let rx = Gen2Receiver::new(config).unwrap();
    let zeros = vec![Complex::ZERO; 20_000];
    assert!(matches!(
        rx.receive_packet(&zeros),
        Err(PhyError::SyncFailed)
    ));
    let dc = vec![Complex::new(0.7, -0.7); 20_000];
    assert!(matches!(rx.receive_packet(&dc), Err(PhyError::SyncFailed)));
}

#[test]
fn interferer_only_does_not_sync() {
    let config = cfg();
    let rx = Gen2Receiver::new(config.clone()).unwrap();
    let mut rng = Rand::new(9);
    let tone = Interferer::cw(120e6, 1.0).generate(30_000, config.sample_rate.as_hz(), &mut rng);
    assert!(matches!(
        rx.receive_packet(&tone),
        Err(PhyError::SyncFailed)
    ));
}

#[test]
fn wrong_config_cross_decode_fails_loudly() {
    // TX with FEC, RX without: header announces FEC, lengths disagree —
    // must error, never return garbage as Ok.
    let mut tx_cfg = cfg();
    tx_cfg.fec = Some(uwb::phy::ConvCode::k3());
    let rx_cfg = cfg();
    let tx = Gen2Transmitter::new(tx_cfg).unwrap();
    let rx = Gen2Receiver::new(rx_cfg).unwrap();
    let payload = vec![0xABu8; 24];
    let burst = tx.transmit_packet(&payload).unwrap();
    // A loud failure is the expected outcome; Ok must carry the exact bytes.
    if let Ok(p) = rx.receive_packet(&burst.samples) {
        assert_eq!(p.payload, payload, "silent corruption");
    }
}

#[test]
fn preamble_only_no_data() {
    // A signal that contains the preamble but stops right after it: sync
    // succeeds, decode must fail loudly.
    let config = cfg();
    let tx = Gen2Transmitter::new(config.clone()).unwrap();
    let rx = Gen2Receiver::new(config.clone()).unwrap();
    let burst = tx.transmit_packet(&[0u8; 64]).unwrap();
    let layout = tx.layout(64);
    let preamble_samples = layout.preamble_slots * layout.samples_per_slot + layout.guard;
    let outcome =
        check_no_silent_corruption(&rx, &burst.samples[..preamble_samples], &[0u8; 64]);
    assert_ne!(outcome, "ok");
}

#[test]
fn enormous_amplitude_input() {
    // 1e9x scale: AGC must normalize, nothing overflows.
    let config = cfg();
    let tx = Gen2Transmitter::new(config.clone()).unwrap();
    let rx = Gen2Receiver::new(config).unwrap();
    let payload = vec![0x42u8; 16];
    let burst = tx.transmit_packet(&payload).unwrap();
    let huge: Vec<Complex> = burst.samples.iter().map(|&z| z * 1e9).collect();
    let packet = rx.receive_packet(&huge).expect("AGC should normalize");
    assert_eq!(packet.payload, payload);
    let tiny: Vec<Complex> = burst.samples.iter().map(|&z| z * 1e-9).collect();
    let packet = rx.receive_packet(&tiny).expect("AGC should normalize");
    assert_eq!(packet.payload, payload);
}
