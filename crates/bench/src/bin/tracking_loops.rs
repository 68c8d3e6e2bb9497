//! Ablation — the fine-tracking loops of Figs. 1 and 3 (PLL/DLL blocks).
//!
//! Part 1 (DLL): timing discriminator S-curve and convergence against a
//! sub-sample timing offset — the retiming problem the receiver's
//! "Retiming Block" solves.
//! Part 2 (PLL): BER vs residual LO CFO with carrier tracking on/off.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_dsp::resample::fractional_delay;
use uwb_dsp::Complex;
use uwb_phy::packet::{decode_payload_bits, reference_payload_bits};
use uwb_phy::pulse::PulseShape;
use uwb_phy::tracking::Dll;
use uwb_phy::{Gen2Config, Gen2Receiver, Gen2Transmitter};
use uwb_platform::metrics::ErrorCounter;
use uwb_platform::report::{format_rate, Table};
use uwb_rf::LocalOscillator;
use uwb_sim::awgn::add_awgn_complex;
use uwb_sim::time::SampleRate;
use uwb_sim::{Hertz, Rand};

fn main() {
    println!(
        "{}",
        banner("A2", "fine tracking: DLL S-curve + PLL vs CFO", "Figs. 1 & 3 PLL/DLL")
    );

    // --- Part 1: DLL discriminator S-curve and convergence ---
    let fs = SampleRate::from_gsps(1.0);
    let pulse = PulseShape::gen2_default().generate_complex(fs);
    let make_sig = |delay: f64| -> Vec<Complex> {
        let mut sig = vec![Complex::ZERO; 40];
        sig.extend_from_slice(&pulse);
        sig.extend(vec![Complex::ZERO; 40]);
        fractional_delay(&sig, delay, 8)
    };

    let dll = Dll::new(1.0, 0.4);
    let mut s_curve = Table::new(vec!["true offset (samples)", "discriminator"]);
    for &off in &[-0.8, -0.4, -0.2, 0.0, 0.2, 0.4, 0.8] {
        let sig = make_sig(off);
        let d = dll.discriminant(&sig, &pulse, 40.0);
        s_curve.row(vec![format!("{off:+.1}"), format!("{d:+.3}")]);
    }
    println!("\nDLL early-late S-curve (spacing 1 sample):\n{s_curve}");

    let mut conv = Table::new(vec!["true offset", "DLL estimate after 30 updates", "residual"]);
    for &off in &[0.15, 0.35, -0.45] {
        let sig = make_sig(off);
        let mut loop_dll = Dll::new(1.0, 0.4);
        for _ in 0..30 {
            loop_dll.update(&sig, &pulse, 40.0);
        }
        conv.row(vec![
            format!("{off:+.2}"),
            format!("{:+.3}", loop_dll.timing()),
            format!("{:+.3}", loop_dll.timing() - off),
        ]);
    }
    println!("DLL convergence:\n{conv}");

    // --- Part 2: PLL vs CFO ---
    let base = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let payload_len = 48usize;
    let run = |cfo_ppm: f64, tracking: bool| -> ErrorCounter {
        let cfg = Gen2Config {
            carrier_tracking: tracking,
            ..base.clone()
        };
        let tx = Gen2Transmitter::new(cfg.clone()).expect("tx");
        let rx = Gen2Receiver::new(cfg.clone()).expect("rx");
        let mut counter = ErrorCounter::new();
        for trial in 0..12u64 {
            let mut rng = Rand::new(EXPERIMENT_SEED ^ trial);
            let mut payload = vec![0u8; payload_len];
            rng.fill_bytes(&mut payload);
            let burst = tx.transmit_packet(&payload).expect("frame");
            let mut lo = LocalOscillator::with_impairments(
                Hertz::from_ghz(5.0),
                cfo_ppm,
                0.0,
            );
            let spun = lo.baseband_rotation(&burst.samples, cfg.sample_rate.as_hz(), &mut rng);
            let p = uwb_dsp::complex::mean_power(&spun);
            let noisy = add_awgn_complex(&spun, p / 20.0, &mut rng);
            let slot0 = tx.layout(payload_len).slot0_start;
            let stats = rx.payload_statistics_known_timing(&noisy, slot0, payload_len);
            if let Ok(bits) = decode_payload_bits(&stats, payload_len, &cfg) {
                counter.add_bits(&reference_payload_bits(&payload), &bits);
            }
        }
        counter
    };

    let mut pll_table = Table::new(vec!["LO CFO (ppm @ 5 GHz)", "BER no tracking", "BER with PLL"]);
    for &ppm in &[0.0, 2.0, 5.0, 10.0, 20.0] {
        let off = run(ppm, false);
        let on = run(ppm, true);
        pll_table.row(vec![
            format!("{ppm:.0}"),
            format_rate(off.errors, off.total),
            format_rate(on.errors, on.total),
        ]);
    }
    println!("PLL carrier tracking vs residual CFO:\n{pll_table}");
    println!(
        "expected shape: the DLL discriminator is odd and monotonic through\n\
         zero and the loop converges to the true sub-sample offset; without\n\
         the PLL the link dies once the CFO rotates the constellation within\n\
         a packet (~5 ppm at 5 GHz), while the tracked receiver holds BER."
    );
}
