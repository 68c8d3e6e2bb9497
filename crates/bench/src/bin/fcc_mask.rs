//! E2 — FCC spectral-mask compliance of the gen2 transmitter.
//!
//! Paper §1: transmissions are limited to −41.3 dBm/MHz EIRP. For each of
//! the 14 channels we upconvert a modulated burst, scale it to the maximum
//! compliant power, and report the margin across the whole mask (including
//! the GPS notch at 0.96–1.61 GHz).

use uwb_bench::banner;
use uwb_phy::bandplan::Channel;
use uwb_phy::{Gen2Config, Gen2Transmitter};
use uwb_platform::mask::{check_mask, fcc_indoor_mask, scale_to_mask};
use uwb_platform::report::Table;
use uwb_rf::TxChain;
use uwb_sim::time::SampleRate;

fn main() {
    println!(
        "{}",
        banner(
            "E2",
            "FCC −41.3 dBm/MHz mask compliance",
            "§1 + §3 band plan"
        )
    );

    // Synthesize the baseband directly at the passband simulation rate so
    // upconversion is sample-exact.
    let fs = SampleRate::new(32e9);
    let mask = fcc_indoor_mask();
    let cfg = Gen2Config {
        sample_rate: fs,
        preamble_repeats: 1,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg.clone()).expect("config");
    let burst = tx.transmit_packet(&[0xA5; 16]).expect("payload");

    let mut table = Table::new(vec![
        "channel",
        "center",
        "peak density (dBm/MHz)",
        "worst margin (dB)",
        "worst at",
        "compliant",
    ]);

    let mut all_ok = true;
    for ch in Channel::all() {
        let chain = TxChain::new(ch.center(), 1.0);
        let passband = chain.transmit(&burst.samples, fs);
        // Scale each channel's burst to just meet the in-band ceiling.
        let (scaled, _) = scale_to_mask(&passband, fs, &mask, 1.0, -41.3 - 0.5);
        let report = check_mask(&scaled, fs, &mask, 1.0);
        all_ok &= report.compliant;
        table.row(vec![
            format!("{}", ch.index()),
            format!("{:.3} GHz", ch.center().as_ghz()),
            format!("{:.1}", report.peak_density_dbm_per_mhz),
            format!("{:+.1}", report.worst_margin_db),
            format!("{:.2} GHz", report.worst_frequency_hz / 1e9),
            if report.compliant { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("\n{table}");
    println!(
        "paper: all 14 channels operate at the −41.3 dBm/MHz ceiling.\n\
         measured: every channel {} the mask when scaled to the ceiling.",
        if all_ok { "meets" } else { "VIOLATES" }
    );
    println!("shape check: {}", if all_ok { "PASS" } else { "FAIL" });
}
