//! E12 — link adaptation: trading power, complexity, QoS and data rate
//! (paper §3: "this receiver allows us to trade off power dissipation with
//! signal processing complexity, quality of service and data rate, adapting
//! to channel conditions").

use uwb_bench::banner;
use uwb_phy::{ChannelConditions, Gen2Config, LinkAdapter, PowerModel};
use uwb_platform::report::Table;

fn main() {
    println!("{}", banner("E12", "power / QoS / rate adaptation", "§3"));

    let adapter = LinkAdapter::new(Gen2Config::nominal_100mbps(), PowerModel::cmos180());

    // SNR sweep at the paper's severe-multipath point (~20 ns rms).
    let mut table = Table::new(vec![
        "SNR (dB)",
        "delay spread (ns)",
        "rate (Mbps)",
        "FEC",
        "pulses/bit",
        "RAKE fingers",
        "MLSE taps",
        "power (mW)",
        "rationale",
    ]);
    for &(snr, spread) in &[
        (20.0, 3.0),
        (16.0, 12.0),
        (12.0, 20.0),
        (9.0, 20.0),
        (6.0, 20.0),
        (2.0, 25.0),
    ] {
        let op = adapter.adapt(&ChannelConditions {
            snr_db: snr,
            delay_spread_ns: spread,
            interferer_present: false,
        });
        table.row(vec![
            format!("{snr:.0}"),
            format!("{spread:.0}"),
            format!("{:.1}", op.bit_rate / 1e6),
            match op.config.fec {
                Some(c) => format!("K={}", c.constraint_length),
                None => "off".to_string(),
            },
            op.config.pulses_per_bit.to_string(),
            op.config.rake_fingers.to_string(),
            op.config.mlse_taps.to_string(),
            format!("{:.1}", op.power.total_mw()),
            op.rationale.clone(),
        ]);
    }
    println!("\n{table}");

    // The frontier: rate vs power across the SNR grid at fixed dispersion.
    let curve = adapter.trade_curve(&[0.0, 2.0, 5.0, 9.0, 12.0, 16.0, 20.0], 10.0);
    let mut frontier = Table::new(vec!["SNR (dB)", "rate (Mbps)", "power (mW)", "mW per Mbps"]);
    for (snr, op) in [0.0, 2.0, 5.0, 9.0, 12.0, 16.0, 20.0].iter().zip(&curve) {
        frontier.row(vec![
            format!("{snr:.0}"),
            format!("{:.1}", op.bit_rate / 1e6),
            format!("{:.1}", op.power.total_mw()),
            format!("{:.2}", op.power.total_mw() / (op.bit_rate / 1e6)),
        ]);
    }
    println!("rate/power frontier at 10 ns delay spread:\n{frontier}");
    println!(
        "expected shape: as SNR falls the policy spends symbols (spreading),\n\
         trellis states (FEC/MLSE) and fingers to hold QoS, so rate falls and\n\
         energy-per-bit rises — the paper's adaptive trade made concrete."
    );
}
