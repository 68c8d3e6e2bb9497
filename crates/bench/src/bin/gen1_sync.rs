//! E3b — gen1 packet synchronization in under 70 µs (paper §2).
//!
//! Sweeps the hardware parallelization of the sync engine and reports the
//! modeled search time, plus a Monte-Carlo check that the lock is correct
//! at the operating SNR.

use uwb_adc::InterleaveMismatch;
use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_gen1::{Gen1Config, Gen1Receiver, Gen1Sync, Gen1Transmitter};
use uwb_platform::report::Table;
use uwb_sim::awgn::add_awgn_real;
use uwb_sim::Rand;

fn main() {
    println!(
        "{}",
        banner("E3b", "packet synchronization < 70 µs", "§2 / Fig. 1")
    );

    // --- Timing model vs parallelization ---
    let mut table = Table::new(vec![
        "parallel correlators",
        "phases",
        "dwells",
        "search time (µs)",
        "< 70 µs",
    ]);
    for p in [1usize, 16, 64, 128, 256, 512, 1024] {
        let cfg = Gen1Config {
            sync_parallelism: p,
            ..Gen1Config::demonstrated_193kbps()
        };
        let phases = cfg.preamble_period_samples();
        let t = cfg.sync_time_us();
        table.row(vec![
            p.to_string(),
            phases.to_string(),
            phases.div_ceil(p).to_string(),
            format!("{t:.1}"),
            if t < 70.0 { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("\n{table}");

    // --- Monte-Carlo lock accuracy at the demonstrated point ---
    let cfg = Gen1Config::demonstrated_193kbps();
    let tx = Gen1Transmitter::new(cfg.clone());
    let rx = Gen1Receiver::new(cfg.clone(), InterleaveMismatch::typical(), EXPERIMENT_SEED);
    let sync = Gen1Sync::new(tx.preamble_code(1), cfg.clone());
    let mut rng = Rand::new(EXPERIMENT_SEED);
    let trials = 40;
    let mut locks = 0;
    let mut exact = 0;
    let mut times = Vec::new();
    for _ in 0..trials {
        let bits: Vec<bool> = (0..4).map(|_| rng.bit()).collect();
        let burst = tx.transmit(&bits);
        let p = uwb_dsp::complex::mean_power_real(&burst.samples);
        let noisy = add_awgn_real(&burst.samples, 4.0 * p, &mut rng);
        let digitized = rx.digitize(&noisy);
        if let Some(r) = sync.acquire(&digitized) {
            locks += 1;
            times.push(r.search_time_us);
            if r.offset.abs_diff(burst.slot0_start) <= 1 {
                exact += 1;
            }
        }
    }
    let mean_t = times.iter().sum::<f64>() / times.len().max(1) as f64;
    println!(
        "Monte-Carlo at -6 dB per-sample SNR: {locks}/{trials} locks, {exact}/{locks} \
         on the exact phase, modeled search time {mean_t:.1} µs"
    );
    println!(
        "paper: \"packet synchronization is obtained in less than 70 µs\".\n\
         shape check: {}",
        if mean_t < 70.0 && locks == trials {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
