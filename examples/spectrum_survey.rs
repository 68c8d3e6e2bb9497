//! Spectrum survey: the 14-channel band plan, the FCC mask, and a Fig. 4
//! style pulse on the 5 GHz channel.
//!
//! Run with: `cargo run --release --example spectrum_survey`

use uwb::phy::bandplan::Channel;
use uwb::phy::pulse::{measure_bandwidth, PulseShape};
use uwb::platform::mask::{fcc_indoor_mask, mask_limit_at};
use uwb::platform::report::oscillogram;
use uwb::rf::TxChain;
use uwb::sim::pathloss::max_tx_power_dbm;
use uwb::sim::time::{Hertz, SampleRate};

fn main() {
    // --- The band plan (paper §3: 14 channels in 3.1-10.6 GHz) ---
    println!("14-channel band plan (528 MHz grid, 500 MHz occupied):");
    for ch in Channel::all() {
        println!(
            "  ch{:>2}: {:.3} GHz  [{:.3} .. {:.3}]  mask here: {:.1} dBm/MHz",
            ch.index(),
            ch.center().as_ghz(),
            ch.low_edge().as_ghz(),
            ch.high_edge().as_ghz(),
            mask_limit_at(&fcc_indoor_mask(), ch.center().as_hz())
        );
    }
    println!(
        "\nFCC power ceiling for a 500 MHz channel: {:.1} dBm total",
        max_tx_power_dbm(Hertz::from_mhz(500.0))
    );

    // --- The Fig. 4 pulse on the channel nearest 5 GHz ---
    let fs = SampleRate::new(32e9);
    let ch = Channel::near_5ghz();
    println!("\nFig. 4 pulse on {ch}:");
    let shape = PulseShape::gen2_default();
    let baseband = shape.generate_complex(fs);
    let passband = TxChain::new(ch.center(), 1.0).transmit(&baseband, fs);
    let bw = measure_bandwidth(&shape.generate(fs), fs, 10.0);
    println!(
        "  -10 dB bandwidth: {:.0} MHz (paper: 500 MHz)",
        bw.as_mhz()
    );
    // Central 3 ns window of the burst.
    let half = (1.5e-9 * fs.as_hz()) as usize;
    let c = passband.len() / 2;
    println!("{}", oscillogram(&passband[c - half..c + half], 15, 76));
}
