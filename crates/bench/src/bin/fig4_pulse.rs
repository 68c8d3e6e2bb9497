//! E1 — reproduces paper Fig. 4: a 500 MHz-bandwidth pulse on a 5 GHz
//! carrier (±150 mV span, 580 ps/div ⇒ a few-ns burst).
//!
//! Prints the time-domain oscillogram, the measured −10 dB bandwidth, the
//! burst duration, and the spectrum peak location.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::pulse::{measure_bandwidth, PulseShape};
use uwb_platform::report::{oscillogram, Table};
use uwb_rf::TxChain;
use uwb_sim::time::{Hertz, SampleRate};

fn main() {
    println!(
        "{}",
        banner("E1", "500 MHz pulse with 5 GHz carrier", "Fig. 4")
    );
    let _ = EXPERIMENT_SEED; // deterministic experiment: no randomness used

    let fs = SampleRate::new(32e9);
    let carrier = Hertz::from_ghz(5.0);

    // Baseband pulse.
    let shape = PulseShape::gen2_default();
    let baseband = shape.generate(fs);
    let bb_bw = measure_bandwidth(&baseband, fs, 10.0);

    // Upconvert to the Fig. 4 carrier, scale to the paper's ±150 mV display.
    let bb_complex = shape.generate_complex(fs);
    let tx = TxChain::new(carrier, 1.0);
    let passband = tx.transmit(&bb_complex, fs);
    let peak = uwb_dsp::math::max_abs(&passband);
    let scaled: Vec<f64> = passband.iter().map(|x| x / peak * 0.150).collect();

    // Burst duration at 10% of peak (matches scope-trace reading).
    let dt_ps = 1e12 / fs.as_hz();
    let above = scaled.iter().filter(|x| x.abs() > 0.1 * 0.150).count();
    let duration_ps = above as f64 * dt_ps;

    // Spectrum of the passband burst.
    let mut padded = passband.clone();
    padded.resize(passband.len() * 8, 0.0);
    let psd = uwb_dsp::psd::periodogram_real(&padded, fs.as_hz(), uwb_dsp::Window::Blackman);
    let peak_f = psd.peak_frequency().abs();
    let pass_bw = psd.bandwidth_below_peak(10.0);

    println!(
        "\ntime-domain burst (~{:.0} ps per column, span ±150 mV):\n",
        {
            let cols = 78.0;
            scaled.len() as f64 * dt_ps / cols
        }
    );
    // Show the central ±3 ns of the burst.
    let half_window = (3e-9 * fs.as_hz()) as usize;
    let c = scaled.len() / 2;
    let window = &scaled[c.saturating_sub(half_window)..(c + half_window).min(scaled.len())];
    println!("{}", oscillogram(window, 17, 78));

    let mut table = Table::new(vec!["quantity", "paper", "measured"]);
    table.row(vec![
        "carrier frequency".to_string(),
        "5 GHz".to_string(),
        format!("{:.3} GHz", peak_f / 1e9),
    ]);
    table.row(vec![
        "pulse bandwidth (-10 dB, baseband)".to_string(),
        "500 MHz".to_string(),
        format!("{:.1} MHz", bb_bw.as_mhz()),
    ]);
    table.row(vec![
        "passband -10 dB bandwidth".to_string(),
        "~500 MHz".to_string(),
        format!("{:.1} MHz", pass_bw / 1e9 * 1e3),
    ]);
    table.row(vec![
        "burst duration (10% envelope)".to_string(),
        "few ns (580 ps/div trace)".to_string(),
        format!("{:.2} ns", duration_ps / 1e3),
    ]);
    table.row(vec![
        "display span".to_string(),
        "±150 mV".to_string(),
        format!("±{:.0} mV", uwb_dsp::math::max_abs(&scaled) * 1e3),
    ]);
    println!("\n{table}");

    let ok = (peak_f - 5e9).abs() < 0.2e9 && (bb_bw.as_mhz() - 500.0).abs() < 75.0;
    println!("shape check: {}", if ok { "PASS" } else { "FAIL" });
}
