//! E13 — "precise locationing" (paper abstract).
//!
//! The 500 MHz pulses that carry data also timestamp the direct path.
//! Part 1: one-way TOA error vs SNR (LOS). Part 2: two-way ranging distance
//! error over CM1/CM3 multipath, leading-edge detector vs naive
//! strongest-peak picking (which rides the strongest echo in NLOS).

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_dsp::resample::fractional_delay;
use uwb_dsp::Complex;
use uwb_phy::pulse::PulseShape;
use uwb_phy::ranging::{distance_to_delay_ns, solve_two_way, ToaEstimator};
use uwb_phy::SpreadCode;
use uwb_platform::report::Table;
use uwb_sim::awgn::add_awgn_complex;
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb_sim::time::SampleRate;
use uwb_sim::Rand;

fn fs() -> SampleRate {
    SampleRate::from_gsps(1.0)
}

/// A preamble-like ranging code: 31 BPSK pulses at 100 MHz PRF.
fn ranging_code() -> SpreadCode {
    SpreadCode {
        chips: uwb_phy::pn::msequence_chips(5),
        samples_per_chip: 10,
        pulse: PulseShape::gen2_default().generate(fs()),
    }
}

fn main() {
    println!(
        "{}",
        banner(
            "E13",
            "precise locationing via leading-edge TOA",
            "abstract"
        )
    );

    let code = ranging_code();
    let template = code.template();
    let est = ToaEstimator::new();

    // --- Part 1: TOA error vs matched-filter SNR (LOS, fractional delays) ---
    let mut t1 = Table::new(vec![
        "per-sample SNR (dB)",
        "TOA RMS error (ps)",
        "range RMS (cm)",
    ]);
    for &snr_db in &[0.0f64, 6.0, 12.0, 20.0] {
        let mut rng = Rand::new(EXPERIMENT_SEED ^ snr_db.to_bits());
        let mut sq = 0.0;
        let trials = 60;
        for _ in 0..trials {
            let true_delay = rng.uniform_in(0.0, 10.0);
            let mut sig = vec![Complex::ZERO; 80];
            sig.extend_from_slice(&template);
            sig.extend(vec![Complex::ZERO; 80]);
            let delayed = fractional_delay(&sig, true_delay, 8);
            let p = uwb_dsp::complex::mean_power(&delayed);
            let noisy = add_awgn_complex(&delayed, p / uwb_dsp::math::db_to_pow(snr_db), &mut rng);
            if let Some(toa) = est.estimate(&noisy, &code, fs()) {
                let err_samples = toa.samples - (80.0 + true_delay);
                sq += err_samples * err_samples;
            } else {
                sq += 100.0; // count misses harshly
            }
        }
        let rms_samples = (sq / trials as f64).sqrt();
        let rms_ps = rms_samples * 1e3; // 1 GS/s -> 1 ns/sample
        t1.row(vec![
            format!("{snr_db:.0}"),
            format!("{rms_ps:.0}"),
            format!(
                "{:.1}",
                rms_ps * 1e-12 * uwb_sim::pathloss::SPEED_OF_LIGHT * 1e2
            ),
        ]);
    }
    println!("\nLOS TOA accuracy (sub-sample parabolic refinement):\n{t1}");

    // --- Part 2: two-way ranging through multipath ---
    let mut t2 = Table::new(vec![
        "channel",
        "true distance",
        "leading-edge error (cm, median)",
        "strongest-peak error (cm, median)",
    ]);
    let naive = ToaEstimator {
        edge_fraction: 0.999, // effectively strongest-peak picking
        search_back: 0,
    };
    for channel in [ChannelModel::Cm1, ChannelModel::Cm3] {
        for &dist_m in &[1.0f64, 5.0] {
            let mut rng = Rand::new(EXPERIMENT_SEED ^ dist_m.to_bits());
            let delay_samples = distance_to_delay_ns(dist_m) * fs().as_hz() / 1e9;
            let mut edge_errs = Vec::new();
            let mut peak_errs = Vec::new();
            for _ in 0..40 {
                let ch = ChannelRealization::generate(channel, &mut rng);
                let mut sig = vec![Complex::ZERO; 60];
                sig.extend_from_slice(&template);
                sig.extend(vec![Complex::ZERO; 120]);
                let through = ch.apply(&sig, fs());
                let delayed = fractional_delay(&through, delay_samples, 8);
                let p = uwb_dsp::complex::mean_power(&delayed);
                let noisy = add_awgn_complex(&delayed, p / 100.0, &mut rng);
                for (which, est_ref) in [(0, &est), (1, &naive)] {
                    if let Some(toa) = est_ref.estimate(&noisy, &code, fs()) {
                        // Two-way: assume symmetric link (same TOA both ways).
                        let t_tx = 0.0;
                        let turnaround = 1000.0;
                        let measured_oneway_ns = toa.ns - 60.0; // template inserted at 60
                        let r =
                            solve_two_way(t_tx, 2.0 * measured_oneway_ns + turnaround, turnaround);
                        let err_cm = (r.distance_m - dist_m).abs() * 100.0;
                        if which == 0 {
                            edge_errs.push(err_cm);
                        } else {
                            peak_errs.push(err_cm);
                        }
                    }
                }
            }
            let median = |v: &mut Vec<f64>| -> f64 {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
            };
            t2.row(vec![
                format!("{channel}"),
                format!("{dist_m:.0} m"),
                format!("{:.0}", median(&mut edge_errs)),
                format!("{:.0}", median(&mut peak_errs)),
            ]);
        }
    }
    println!("two-way ranging through multipath (100 SNR, 40 realizations):\n{t2}");
    println!(
        "expected shape: LOS accuracy reaches centimetres at high SNR (the\n\
         500 MHz bandwidth's promise); through multipath the naive strongest-\n\
         peak ranger is biased late by metres (it locks onto echoes) while\n\
         the leading-edge detector stays within tens of centimetres — the\n\
         'precise locationing' the abstract claims, and why UWB does it."
    );
}
