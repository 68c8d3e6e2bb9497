//! E9 — the 14-channel band plan (paper §3: "upconverted to one of 14
//! channels (sub-bands) in the 3.1-10.6 GHz band").
//!
//! Prints the channel grid and measures, per channel, the upconverted
//! occupied bandwidth and the leakage into each adjacent channel.

use uwb_bench::banner;
use uwb_phy::bandplan::Channel;
use uwb_phy::{Gen2Config, Gen2Transmitter};
use uwb_platform::report::Table;
use uwb_rf::TxChain;
use uwb_sim::time::SampleRate;

fn main() {
    println!("{}", banner("E9", "14-channel band plan occupancy", "§3"));

    // Baseband synthesized directly at the passband rate (sample-exact
    // upconversion).
    let fs = SampleRate::new(32e9);
    let cfg = Gen2Config {
        sample_rate: fs,
        preamble_repeats: 1,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg).expect("config");
    let burst = tx.transmit_packet(&[0x96; 24]).expect("payload");

    let mut table = Table::new(vec![
        "ch",
        "center (GHz)",
        "edges (GHz)",
        "-10 dB BW (MHz)",
        "adj. leakage (dB)",
        "in FCC band",
    ]);

    for ch in Channel::all() {
        let chain = TxChain::new(ch.center(), 1.0);
        let pass = chain.transmit(&burst.samples, fs);
        let psd = uwb_dsp::psd::welch_real(&pass, fs.as_hz(), 4096, uwb_dsp::Window::Blackman);
        let bw = psd.bandwidth_below_peak(10.0);
        // Power inside own channel vs inside the next channel up.
        let (freqs, vals) = psd.sorted();
        let band_power = |lo: f64, hi: f64| -> f64 {
            freqs
                .iter()
                .zip(&vals)
                .filter(|(&f, _)| f >= lo && f < hi)
                .map(|(_, &v)| v)
                .sum()
        };
        let own = band_power(ch.low_edge().as_hz(), ch.high_edge().as_hz());
        let spacing = 528e6;
        let adj = band_power(
            ch.low_edge().as_hz() + spacing,
            ch.high_edge().as_hz() + spacing,
        );
        let leak_db = 10.0 * (adj / own.max(1e-300)).log10();
        table.row(vec![
            ch.index().to_string(),
            format!("{:.3}", ch.center().as_ghz()),
            format!(
                "{:.3}-{:.3}",
                ch.low_edge().as_ghz(),
                ch.high_edge().as_ghz()
            ),
            format!("{:.0}", bw / 1e6),
            format!("{leak_db:.1}"),
            if ch.within_fcc_band() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("\n{table}");
    println!(
        "expected shape: 14 non-overlapping 500 MHz channels on a 528 MHz grid\n\
         spanning 3.168-10.560 GHz, each with strongly negative adjacent-channel\n\
         leakage (pulse spectrum rolls off between grid slots)."
    );
}
