//! A6 — frame efficiency: why the paper wants a ~20 µs preamble.
//!
//! §1 motivates fast acquisition by requiring the preamble be "comparable
//! with current wireless systems (~20 µs)". This experiment quantifies the
//! cost: goodput (payload bits over total air time) vs payload size and
//! preamble length at the 100 Mbps operating point — analytically from the
//! frame geometry and verified against synthesized burst durations.

use uwb_bench::banner;
use uwb_phy::{Gen2Config, Gen2Transmitter};
use uwb_platform::report::Table;

fn main() {
    println!(
        "{}",
        banner(
            "A6",
            "frame efficiency vs preamble length",
            "§1 preamble budget"
        )
    );

    let mut table = Table::new(vec![
        "preamble (chips x reps)",
        "preamble air time (µs)",
        "payload (bytes)",
        "burst (µs)",
        "goodput (Mbps)",
        "efficiency",
    ]);

    for (degree, repeats) in [(7u32, 2usize), (7, 4), (7, 8), (10, 4)] {
        for payload_len in [32usize, 256, 1500] {
            let cfg = Gen2Config {
                preamble_degree: degree,
                preamble_repeats: repeats,
                ..Gen2Config::nominal_100mbps()
            };
            let tx = Gen2Transmitter::new(cfg.clone()).expect("config");
            let payload = vec![0xA5u8; payload_len];
            let burst = tx.transmit_packet(&payload).expect("size");
            let air_us = burst.duration_us();
            let goodput = 8.0 * payload_len as f64 / (air_us * 1e-6) / 1e6;
            let efficiency = goodput / (cfg.bit_rate() / 1e6);
            table.row(vec![
                format!("{} x {repeats}", cfg.preamble_length()),
                format!("{:.2}", cfg.preamble_duration_us()),
                payload_len.to_string(),
                format!("{air_us:.2}"),
                format!("{goodput:.1}"),
                format!("{:.0} %", 100.0 * efficiency),
            ]);
        }
    }
    println!("\n100 Mbps link, BPSK, 1 pulse/bit:\n{table}");
    println!(
        "expected shape: at short packets the preamble dominates air time —\n\
         a 1023-chip preamble (the kind a slow serial search would need for\n\
         repeated dwells) caps goodput well below half the channel rate, while\n\
         the parallel-search-enabled 127-chip x 2-4 preamble keeps efficiency\n\
         high even for 32-byte packets. That is the §1 argument for fast\n\
         acquisition, in numbers."
    );
}
