//! Integration: every stochastic pipeline is bit-reproducible from its seed
//! (the workspace's core experimental-hygiene invariant).

use uwb::adc::InterleaveMismatch;
use uwb::gen1::{Gen1Config, Gen1Receiver, Gen1Transmitter};
use uwb::phy::Gen2Config;
use uwb::platform::link::{run_ber_fast, LinkScenario};
use uwb::sim::{ChannelModel, ChannelRealization, Interferer, Rand};

#[test]
fn channel_realizations_reproduce() {
    for model in [
        ChannelModel::Cm1,
        ChannelModel::Cm2,
        ChannelModel::Cm3,
        ChannelModel::Cm4,
    ] {
        let a = ChannelRealization::generate(model, &mut Rand::new(99));
        let b = ChannelRealization::generate(model, &mut Rand::new(99));
        assert_eq!(a, b, "{model}");
    }
}

#[test]
fn ber_runs_reproduce() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario {
        channel: ChannelModel::Cm1,
        interferer: Some(Interferer::cw(120e6, 0.5)),
        ..LinkScenario::awgn(config, 6.0, 1234)
    };
    let a = run_ber_fast(&scenario, 24, 30, 30_000);
    let b = run_ber_fast(&scenario, 24, 30, 30_000);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.total, b.total);
}

#[test]
fn different_seeds_differ() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let a = run_ber_fast(&LinkScenario::awgn(config.clone(), 4.0, 1), 24, 50, 50_000);
    let b = run_ber_fast(&LinkScenario::awgn(config, 4.0, 2), 24, 50, 50_000);
    // Same statistics, different sample paths: totals may match but the
    // exact error counts at equal totals almost surely differ.
    assert!(
        a.errors != b.errors || a.total != b.total,
        "independent seeds produced identical runs"
    );
}

#[test]
fn gen1_link_reproduces() {
    let cfg = Gen1Config {
        pulses_per_bit: 8,
        ..Gen1Config::demonstrated_193kbps()
    };
    let tx = Gen1Transmitter::new(cfg.clone());
    let bits = vec![true, false, false, true];
    let b1 = tx.transmit(&bits);
    let b2 = tx.transmit(&bits);
    assert_eq!(b1, b2);
    let rx1 = Gen1Receiver::new(cfg.clone(), InterleaveMismatch::typical(), 5);
    let rx2 = Gen1Receiver::new(cfg, InterleaveMismatch::typical(), 5);
    let d1 = rx1.digitize(&b1.samples);
    let d2 = rx2.digitize(&b2.samples);
    assert_eq!(
        d1, d2,
        "ADC mismatch realizations must derive from the seed"
    );
}
