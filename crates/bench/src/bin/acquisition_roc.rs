//! A5 — ablation: acquisition detector operating characteristic.
//!
//! The coarse-acquisition threshold trades missed packets against false
//! alarms (paper §1: fast, reliable sync is a headline requirement). This
//! experiment sweeps the normalized-correlation threshold and reports
//! detection and false-alarm rates at several SNRs, plus the same for
//! longer preambles — justifying the receiver's default threshold.

use std::time::Duration;
use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::{AcquisitionConfig, CoarseAcquisition, Gen2Config, Gen2Transmitter};
use uwb_platform::report::Table;
use uwb_sim::awgn::{add_awgn_complex, complex_noise};
use uwb_sim::montecarlo::{resolve_threads, MonteCarlo};

fn main() {
    println!(
        "{}",
        banner("A5", "acquisition ROC: threshold / SNR / preamble length", "§1")
    );

    let trials = 40u64;
    let thresholds = [0.08, 0.12, 0.18, 0.28, 0.45];
    let mut total_trials = 0u64;
    let mut total_wall = Duration::ZERO;

    for degree in [6u32, 7] {
        let cfg = Gen2Config {
            preamble_degree: degree,
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let tx = Gen2Transmitter::new(cfg.clone()).expect("config");
        let code = tx.spread_code();
        let period = cfg.preamble_length() * cfg.samples_per_slot();

        let mut table = Table::new(vec![
            "threshold",
            "P_fa (noise only)",
            "P_d @ -12 dB/sample",
            "P_d @ -9 dB",
            "P_d @ -6 dB",
        ]);
        for &th in &thresholds {
            let mk_engine = || {
                CoarseAcquisition::new(
                    code.clone(),
                    AcquisitionConfig {
                        threshold: th,
                        parallelism: 32,
                        clock_hz: cfg.sample_rate.as_hz(),
                    },
                )
            };

            // False alarms on pure noise. One engine per worker; every
            // trial draws an independent noise record from its derived
            // per-trial stream.
            let fa_run = MonteCarlo::new(EXPERIMENT_SEED ^ th.to_bits(), trials).run(
                mk_engine,
                |engine, _trial, rng, fa: &mut u64| {
                    let noise = complex_noise(period * 3, 1.0, rng);
                    if engine.acquire(&noise, period).detected {
                        *fa += 1;
                    }
                },
                |_| false,
            );
            total_trials += fa_run.stats.trials;
            total_wall += fa_run.stats.wall;
            let fa = fa_run.value;

            // Detections at several per-sample SNRs. The burst is
            // deterministic, so each worker synthesizes it once and only
            // the noise varies per trial.
            let mut detections = Vec::new();
            for snr_db in [-12.0f64, -9.0, -6.0] {
                let det_run = MonteCarlo::new(
                    EXPERIMENT_SEED ^ th.to_bits() ^ snr_db.to_bits(),
                    trials,
                )
                .run(
                    || {
                        let engine = mk_engine();
                        let burst = tx.transmit_packet(&[0x5A; 8]).expect("payload");
                        let p = uwb_dsp::complex::mean_power(&burst.samples);
                        let truth = tx.layout(8).slot0_start;
                        (engine, burst, p, truth)
                    },
                    |(engine, burst, p, truth), _trial, rng, det: &mut u64| {
                        let noisy = add_awgn_complex(
                            &burst.samples,
                            *p / uwb_dsp::math::db_to_pow(snr_db),
                            rng,
                        );
                        let r = engine.acquire(&noisy, period);
                        if r.detected && r.offset.abs_diff(*truth) <= 2 {
                            *det += 1;
                        }
                    },
                    |_| false,
                );
                total_trials += det_run.stats.trials;
                total_wall += det_run.stats.wall;
                detections.push(det_run.value);
            }
            table.row(vec![
                format!("{th:.2}"),
                format!("{}/{trials}", fa),
                format!("{}/{trials}", detections[0]),
                format!("{}/{trials}", detections[1]),
                format!("{}/{trials}", detections[2]),
            ]);
        }
        println!(
            "\npreamble degree {degree} ({} chips, {:.2} µs/period):\n{table}",
            cfg.preamble_length(),
            period as f64 / cfg.sample_rate.as_hz() * 1e6
        );
    }
    println!(
        "engine: {total_trials} acquisition trials in {:.2} s on {} thread(s) \
         ({:.0} trials/s)\n",
        total_wall.as_secs_f64(),
        resolve_threads(None),
        total_trials as f64 / total_wall.as_secs_f64().max(1e-12),
    );
    println!(
        "expected shape: false alarms die out above ~2/sqrt(N) while detection\n\
         holds to lower thresholds; the receiver's default (0.28) sits in the\n\
         gap for the 127-chip preamble across the SNR range where the payload\n\
         itself is decodable. Longer preambles widen the gap (more integration)."
    );
}
