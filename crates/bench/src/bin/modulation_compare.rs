//! E11 — modulation-scheme comparison on the discrete-prototype platform
//! (paper §3: the platform allows "the comparison between different
//! modulation schemes" within 500 MHz).
//!
//! BER vs Eb/N0 for BPSK / OOK / 2-PPM / 4-PAM (coherent), the noncoherent
//! variants where defined, and each format's closed-form AWGN reference.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::Modulation;
use uwb_platform::metrics::{bpsk_awgn_ber, ook_awgn_ber, pam4_awgn_ber, ppm2_awgn_ber};
use uwb_platform::report::{format_rate, log_strip_chart, Table};
use uwb_platform::waveform::{modulation_ber, modulation_ber_noncoherent};

fn theory(m: Modulation, ebn0: f64) -> f64 {
    match m {
        Modulation::Bpsk => bpsk_awgn_ber(ebn0),
        Modulation::Ook => ook_awgn_ber(ebn0),
        Modulation::Ppm2 => ppm2_awgn_ber(ebn0),
        Modulation::Pam4 => pam4_awgn_ber(ebn0),
    }
}

fn main() {
    println!(
        "{}",
        banner(
            "E11",
            "modulation comparison within 500 MHz",
            "§3 + Fig. 4 context"
        )
    );

    let grid = [2.0, 4.0, 6.0, 8.0, 10.0];
    let target_errors = 300;
    let max_bits = 3_000_000;

    for m in Modulation::all() {
        let mut table = Table::new(vec!["Eb/N0 (dB)", "measured", "theory", "noncoherent"]);
        let mut series = Vec::new();
        for (i, &e) in grid.iter().enumerate() {
            let c = modulation_ber(m, e, target_errors, max_bits, EXPERIMENT_SEED + i as u64);
            let nc = modulation_ber_noncoherent(
                m,
                e,
                target_errors,
                max_bits,
                EXPERIMENT_SEED + 100 + i as u64,
            );
            series.push((e, c.rate()));
            table.row(vec![
                format!("{e:.0}"),
                format_rate(c.errors, c.total),
                format!("{:.2e}", theory(m, e)),
                match nc {
                    Some(n) => format_rate(n.errors, n.total),
                    None => "-".to_string(),
                },
            ]);
        }
        println!("\n{m}:\n{table}");
        println!("{}", log_strip_chart(&series, "Eb/N0", "BER"));
    }

    // Rate/robustness summary at 8 dB.
    let mut summary = Table::new(vec![
        "format",
        "bits/symbol",
        "slots/symbol",
        "relative rate @ fixed PRF",
        "BER @ 8 dB",
    ]);
    for m in Modulation::all() {
        let c = modulation_ber(m, 8.0, 400, 4_000_000, EXPERIMENT_SEED + 7);
        let rate = m.bits_per_symbol() as f64 / m.slots_per_symbol() as f64;
        summary.row(vec![
            m.to_string(),
            m.bits_per_symbol().to_string(),
            m.slots_per_symbol().to_string(),
            format!("{rate:.1}x"),
            format_rate(c.errors, c.total),
        ]);
    }
    println!("\nsummary at Eb/N0 = 8 dB:\n{summary}");
    println!(
        "expected shape: BPSK best per-Eb (antipodal); OOK/2-PPM pay ~3 dB;\n\
         4-PAM trades ~1.3 dB for 2x rate; noncoherent detection costs more\n\
         at low SNR — the trade space the discrete prototype was built to map."
    );
}
