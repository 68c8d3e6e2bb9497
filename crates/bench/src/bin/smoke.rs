//! Smoke — a fast end-to-end sanity check of the Monte-Carlo engine and the
//! gen2 link (used by `scripts/check.sh smoke`).
//!
//! Runs one small AWGN BER point on the parallel engine, re-runs it pinned
//! to a single worker thread, and exits non-zero unless:
//!
//! * both runs finish without exhausting the trial budget (non-truncated);
//! * the two counters are bit-identical (the engine's determinism contract);
//! * the measured BER is sane for the operating point.
//!
//! Extra modes:
//!
//! * `--trace out.json` — export the run's span timeline as Chrome Trace
//!   Event JSON (needs a build with `--features obs-trace`);
//! * `--replay-seed <seed>` — re-run exactly one trial on the given derived
//!   RNG seed (from a flight-recorder report) with a verbose forensic dump.

use std::process::ExitCode;
use uwb_bench::{banner, trace_arg, write_trace, EXPERIMENT_SEED};
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_budgeted, LinkOutcome, LinkScenario, LinkWorker, TrialBudget,
};
use uwb_platform::report::stage_table;

/// Parses a u64 seed in decimal or `0x`-prefixed hex (the form the flight
/// recorder prints).
fn parse_seed(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

/// `smoke --replay-seed <seed>`: re-runs exactly one full trial on a derived
/// RNG seed taken from a flight-recorder report, with a verbose forensic
/// dump (outcome, stage profile, notes, event breadcrumbs). The trial's
/// waveforms, decisions, and errors reproduce the recorded trial bit-for-bit
/// because every trial is a pure function of its derived seed.
fn replay(seed: u64) -> ExitCode {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, EXPERIMENT_SEED);
    println!("replaying one trial on derived seed {seed:#x}");

    let _ = uwb_obs::take_thread_telemetry(); // isolate the dump
    uwb_obs::set_trial(0);
    uwb_obs::recorder::begin_trial(0, seed);
    let mut rng = uwb_sim::Rand::new(seed);
    let mut worker = LinkWorker::new(&scenario);
    let mut outcome = LinkOutcome::default();
    worker.trial_full(&scenario, 24, &mut rng, &mut outcome);
    let telemetry = uwb_obs::take_thread_telemetry();

    println!(
        "outcome: {} bit error(s) / {} bits, packets {}/{} ok, {} sync failure(s)",
        outcome.ber.errors,
        outcome.ber.total,
        outcome.packets_ok,
        outcome.packets,
        outcome.sync_failures
    );
    let profile = stage_table(&telemetry);
    if !profile.is_empty() {
        println!("\nstage profile (1 trial):");
        print!("{profile}");
    }
    print!("\n{}", uwb_obs::recorder::render_report(&telemetry.worst));
    if !uwb_obs::enabled() {
        eprintln!("warning: telemetry disabled in this build; rebuild with `--features obs`");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(seed) = args
        .iter()
        .position(|a| a == "--replay-seed")
        .and_then(|i| args.get(i + 1))
    {
        let Ok(seed) = parse_seed(seed) else {
            eprintln!("--replay-seed: expected a decimal or 0x-hex u64, got '{seed}'");
            return ExitCode::FAILURE;
        };
        return replay(seed);
    }
    println!(
        "{}",
        banner("S0", "engine + link smoke check", "tier-1 gate")
    );

    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    // 6 dB AWGN: a few errors per thousand bits, so the error target is
    // reachable well inside the trial budget.
    let scenario = LinkScenario::awgn(config, 6.0, EXPERIMENT_SEED);
    let budget = TrialBudget { max_trials: 2_000 };
    let run = run_ber_fast_budgeted(&scenario, 24, 20, 200_000, budget);
    println!("parallel : {run}  ({})", run.stats.summary());

    let mut failures = 0u32;
    if run.stop.truncated() {
        eprintln!(
            "FAIL: run truncated by the trial budget ({})",
            run.stats.trials
        );
        failures += 1;
    }
    if run.total == 0 {
        eprintln!("FAIL: no bits observed");
        failures += 1;
    }
    let rate = run.rate();
    if !(rate > 1e-5 && rate < 0.2) {
        eprintln!("FAIL: BER {rate:.3e} outside the sane window (1e-5, 0.2) for 6 dB AWGN");
        failures += 1;
    }

    // Determinism: the same run pinned to one worker thread must agree
    // bit-for-bit with the free-threaded run above — counters AND the
    // deterministic telemetry view (stage call counts, events, digests).
    std::env::set_var("UWB_THREADS", "1");
    let serial = run_ber_fast_budgeted(&scenario, 24, 20, 200_000, budget);
    std::env::remove_var("UWB_THREADS");
    println!("1-thread : {serial}  ({})", serial.stats.summary());
    if serial.counter != run.counter || serial.stop != run.stop {
        eprintln!(
            "FAIL: thread-count dependence: {} threads gave {}, 1 thread gave {}",
            run.stats.threads, run.counter, serial.counter
        );
        failures += 1;
    }
    if serial.stats.telemetry.fingerprint() != run.stats.telemetry.fingerprint() {
        eprintln!(
            "FAIL: telemetry thread-count dependence: fingerprint {:#x} vs {:#x}",
            run.stats.telemetry.fingerprint(),
            serial.stats.telemetry.fingerprint()
        );
        failures += 1;
    }
    if uwb_obs::enabled() && run.stats.telemetry.is_empty() {
        eprintln!("FAIL: telemetry enabled but the run snapshot is empty");
        failures += 1;
    }

    // Per-stage profile of the multi-threaded run (uwb-telemetry-v3).
    let profile = stage_table(&run.stats.telemetry);
    if !profile.is_empty() {
        println!("\nstage profile ({} trials):", run.stats.trials);
        print!("{profile}");
    }
    // Percentile digests (the report's `quantiles`).
    for d in &run.stats.telemetry.digests {
        println!(
            "digest {}: n={} p50={} p95={} p99={} max={}",
            d.name,
            d.count,
            d.quantile(0.50),
            d.quantile(0.95),
            d.quantile(0.99),
            d.max
        );
    }
    // Worst-trial flight recorder (seeds feed `smoke --replay-seed`).
    if !run.stats.telemetry.worst.is_empty() {
        print!(
            "\n{}",
            uwb_obs::recorder::render_report(&run.stats.telemetry.worst)
        );
    }
    // Optional span-timeline export.
    if let Some(path) = trace_arg(&args) {
        if let Err(e) = write_trace(&path, &run.stats.telemetry) {
            eprintln!("FAIL: --trace {path}: {e}");
            failures += 1;
        }
    }

    if failures == 0 {
        println!("smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {failures} check(s) failed");
        ExitCode::FAILURE
    }
}
