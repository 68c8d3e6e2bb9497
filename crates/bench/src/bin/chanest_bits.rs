//! E6 — channel-estimate precision: why 4 bits is the design point
//! (paper §3: "estimated with a precision of up to four bits").
//!
//! Sweeps the channel-estimate quantization from 1 to 8 bits (plus
//! unquantized) on a CM3 link and reports BER and estimator NMSE. Expected
//! shape: 4 bits is within a whisker of unquantized; 1–2 bits clearly worse.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::chanest::ChannelEstimate;
use uwb_phy::Gen2Config;
use uwb_platform::link::{run_ber_fast, LinkScenario};
use uwb_platform::report::{format_rate, Table};
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb_sim::{Rand, SampleRate};

fn main() {
    println!(
        "{}",
        banner("E6", "RAKE BER vs channel-estimate precision", "§3")
    );

    // --- NMSE of quantized estimates over a CM3 ensemble ---
    let mut rng = Rand::new(EXPERIMENT_SEED);
    let fs = SampleRate::from_gsps(1.0);
    let mut nmse = [0.0f64; 9]; // index = bits (0 unused)
    let ensemble = 40;
    for _ in 0..ensemble {
        let ch = ChannelRealization::generate(ChannelModel::Cm3, &mut rng);
        let taps = ch.discretize(fs);
        let est = ChannelEstimate::new(taps);
        for bits in 1..=8u32 {
            nmse[bits as usize] += est.quantized(bits).nmse(&est) / ensemble as f64;
        }
    }

    // --- Link BER vs estimate bits ---
    let ebn0 = 8.0;
    let mut table = Table::new(vec!["estimate bits", "estimator NMSE", "BER on CM3"]);
    let mut rows = Vec::new();
    for bits in [1u32, 2, 3, 4, 6] {
        let cfg = Gen2Config {
            chanest_bits: Some(bits),
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let c = run_ber_fast(
            &LinkScenario {
                channel: ChannelModel::Cm3,
                ..LinkScenario::awgn(cfg, ebn0, EXPERIMENT_SEED)
            },
            32,
            60,
            120_000,
        );
        rows.push((bits, c.rate()));
        table.row(vec![
            bits.to_string(),
            format!("{:.2e}", nmse[bits as usize]),
            format_rate(c.errors, c.total),
        ]);
    }
    // Unquantized reference.
    let cfg_float = Gen2Config {
        chanest_bits: None,
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let float_ber = run_ber_fast(
        &LinkScenario {
            channel: ChannelModel::Cm3,
            ..LinkScenario::awgn(cfg_float, ebn0, EXPERIMENT_SEED)
        },
        32,
        60,
        120_000,
    );
    table.row(vec![
        "float".to_string(),
        "0".to_string(),
        format_rate(float_ber.errors, float_ber.total),
    ]);
    println!("\nCM3 channel, Eb/N0 = {ebn0} dB, RAKE-8:\n{table}");

    let four_bit = rows.iter().find(|(b, _)| *b == 4).unwrap().1;
    let one_bit = rows[0].1;
    let ok = four_bit < 2.5 * float_ber.rate().max(1e-4) && one_bit > four_bit;
    println!(
        "paper design point: 4-bit precision.\n\
         measured: 4-bit BER within ~2x of the unquantized estimator while\n\
         1-bit is clearly worse -> shape check: {}",
        if ok { "PASS" } else { "FAIL" }
    );
}
