//! Determinism contract of the parallel Monte-Carlo engine, end to end.
//!
//! The engine promises bit-identical results for any worker thread count:
//! trial `t` always derives its RNG from `derive_trial_seed(master, t)`,
//! chunk results merge in strict chunk order, and early stop is evaluated
//! at chunk boundaries on the merged prefix only. These tests pin that
//! contract at the root-crate level, on both a synthetic floating-point
//! reduction (where merge-order sensitivity would show instantly) and the
//! real gen2 link runners.

use uwb_phy::Gen2Config;
use uwb_platform::link::{run_ber_budgeted, run_ber_fast_budgeted, TrialBudget};
use uwb_platform::{ErrorCounter, LinkScenario, LinkStopReason};
use uwb_sim::montecarlo::resolve_threads;
use uwb_sim::{derive_trial_seed, MonteCarlo, Rand};

const SEED: u64 = 20050307;

fn scenario() -> LinkScenario {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    LinkScenario::awgn(config, 6.0, SEED)
}

/// A deliberately order-sensitive reduction: floating-point sums only come
/// out bit-identical when the merge order is fixed.
fn float_reduction(threads: usize) -> (u64, ErrorCounter) {
    let out = MonteCarlo::new(SEED, 500)
        .threads(threads)
        .chunk_size(7)
        .run(
            || (),
            |_, trial, rng, acc: &mut (f64, ErrorCounter)| {
                // Non-associative float work plus integer counting.
                let x = rng.gaussian() * (trial as f64 + 1.0).ln();
                acc.0 += x / (1.0 + x.abs());
                acc.1.add_raw(1, rng.bit() as u64);
            },
            |_| false,
        );
    (out.value.0.to_bits(), out.value.1)
}

#[test]
fn engine_results_identical_across_thread_counts() {
    let reference = float_reduction(1);
    for threads in [2, 3, 4, 8] {
        let got = float_reduction(threads);
        assert_eq!(
            got, reference,
            "thread count {threads} changed the reduction result"
        );
    }
}

#[test]
fn early_stop_identical_across_thread_counts() {
    let run = |threads: usize| {
        MonteCarlo::new(SEED ^ 0xE5, 10_000)
            .threads(threads)
            .chunk_size(5)
            .run(
                || (),
                |_, _, rng, hits: &mut u64| {
                    if rng.chance(0.03) {
                        *hits += 1;
                    }
                },
                |hits| *hits >= 25,
            )
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.value, b.value, "early-stop value depends on threads");
    assert_eq!(
        a.stats.trials, b.stats.trials,
        "early-stop trial count depends on threads"
    );
    assert_eq!(a.stats.stop_reason, b.stats.stop_reason);
    assert!(a.stats.trials < 10_000, "stop predicate never fired");
}

#[test]
fn derive_trial_seed_gives_distinct_decorrelated_streams() {
    // Distinct seeds for distinct trials (the old `seed ^ trial * const`
    // scheme produced correlated streams for adjacent trials).
    let mut seeds: Vec<u64> = (0..256).map(|t| derive_trial_seed(SEED, t)).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 256, "trial seeds collide");

    // Changing the master changes every trial seed.
    for t in 0..64 {
        assert_ne!(derive_trial_seed(SEED, t), derive_trial_seed(SEED + 1, t));
    }

    // Adjacent trials produce uncorrelated bit streams: the first draws
    // should differ in roughly half their bits, not one or two.
    let a = Rand::for_trial(SEED, 41).next_u64();
    let b = Rand::for_trial(SEED, 42).next_u64();
    let hamming = (a ^ b).count_ones();
    assert!(
        (16..=48).contains(&hamming),
        "adjacent trial streams look correlated (hamming {hamming})"
    );
}

#[test]
fn link_runners_agree_and_are_thread_invariant() {
    let sc = scenario();
    let budget = TrialBudget { max_trials: 500 };

    // Fast (BER-only) and full (BER + acquisition) runners must count the
    // same bit errors: same trials, same per-trial seeds, same BER path.
    let fast = run_ber_fast_budgeted(&sc, 24, 12, 100_000, budget);
    let full = run_ber_budgeted(&sc, 24, 12, 100_000, budget);
    assert_eq!(*fast, full.ber, "fast/full BER counters diverge");
    assert!(!fast.stop.truncated());

    // Thread invariance on the real link, driven through the public env
    // knob (safe even if another test races: determinism means the result
    // cannot depend on the resolved count).
    std::env::set_var("UWB_THREADS", "4");
    let threaded = run_ber_fast_budgeted(&sc, 24, 12, 100_000, budget);
    std::env::set_var("UWB_THREADS", "1");
    let serial = run_ber_fast_budgeted(&sc, 24, 12, 100_000, budget);
    std::env::remove_var("UWB_THREADS");
    assert_eq!(*threaded, *serial, "link BER depends on thread count");
    assert_eq!(threaded.stop, serial.stop);
    assert_eq!(threaded.stats.trials, serial.stats.trials);
}

#[test]
fn truncation_is_reported_not_silent() {
    // Impossible error target + tiny budget: the old runner stopped at a
    // hard-coded 10 000 trials and returned an ordinary-looking outcome.
    // Now the stop reason says so.
    let run = run_ber_fast_budgeted(
        &scenario(),
        24,
        u64::MAX,
        u64::MAX,
        TrialBudget { max_trials: 3 },
    );
    assert_eq!(run.stop, LinkStopReason::Truncated);
    assert!(run.stop.truncated());
    assert_eq!(run.stats.trials, 3);
}

#[test]
fn coupling_build_work_is_thread_invariant() {
    // The coupling build's counted work on `net_city_1k`'s floor plan: per
    // victim, the grid cells walked and the candidates the grids hand over
    // (the victim's own transmitter included). The build runs serially on
    // the planning thread, so neither count may depend on `UWB_THREADS`
    // (set through the env knob as above: a racing test cannot change a
    // deterministic result).
    let sc = uwb_net::NetScenario::clustered_city(100, 10, 9.0, SEED);
    let plan = |threads: &str| {
        std::env::set_var("UWB_THREADS", threads);
        let _ = uwb_obs::take_thread_telemetry();
        let plan = uwb_net::plan_network(&sc);
        (plan, uwb_obs::take_thread_telemetry())
    };
    let (serial, serial_telem) = plan("1");
    let (threaded, threaded_telem) = plan("4");
    std::env::remove_var("UWB_THREADS");

    assert_eq!(serial.coupling, threaded.coupling);
    assert_eq!(
        serial_telem.to_json_deterministic(),
        threaded_telem.to_json_deterministic(),
        "plan telemetry depends on thread count"
    );
    if uwb_obs::enabled() {
        let st = serial_telem
            .stage("net_coupling")
            .expect("net_coupling span");
        assert_eq!(st.calls, 1);
        let total = |name: &str| {
            let d = serial_telem
                .digests
                .iter()
                .find(|d| d.name == name)
                .unwrap_or_else(|| panic!("digest {name:?} missing"));
            assert_eq!(d.count, 1000, "{name}: one sample per victim");
            d.sum
        };
        assert_eq!(total("net_coupling_candidates"), 35_259);
        assert_eq!(total("net_coupling_cells"), 58_286);
        let edges: usize = serial.coupling.iter().map(Vec::len).sum();
        assert_eq!(edges, 34_133);
    }
}

#[test]
fn thread_resolution_precedence() {
    assert_eq!(resolve_threads(Some(5)), 5);
    assert!(resolve_threads(None) >= 1);
}

#[test]
fn telemetry_is_thread_invariant_on_the_real_link() {
    // The determinism contract extends to the telemetry snapshot: stage
    // call counts, event counts, and digest bins come from per-chunk
    // thread-local deltas merged in chunk order, so the deterministic view
    // must be bit-identical for any worker count. (Stage nanoseconds are
    // wall-clock and deliberately excluded from both the fingerprint and
    // `to_json_deterministic`.)
    let sc = scenario();
    let budget = TrialBudget { max_trials: 300 };

    std::env::set_var("UWB_THREADS", "1");
    let serial = run_ber_fast_budgeted(&sc, 24, 12, 80_000, budget);
    std::env::set_var("UWB_THREADS", "4");
    let threaded = run_ber_fast_budgeted(&sc, 24, 12, 80_000, budget);
    std::env::remove_var("UWB_THREADS");

    assert_eq!(*serial, *threaded, "BER counters diverged");
    assert_eq!(
        serial.stats.telemetry.to_json_deterministic(),
        threaded.stats.telemetry.to_json_deterministic(),
        "deterministic telemetry view depends on thread count"
    );
    assert_eq!(
        serial.stats.telemetry.fingerprint(),
        threaded.stats.telemetry.fingerprint(),
        "telemetry fingerprint depends on thread count"
    );

    // When the obs feature is on, the fast path must have produced per-stage
    // stats covering every merged trial.
    if uwb_obs::enabled() {
        let telem = &serial.stats.telemetry;
        assert!(!telem.is_empty(), "instrumented run yielded no telemetry");
        for stage in ["tx", "awgn", "rx_chanest", "rx_rake"] {
            let st = telem
                .stage(stage)
                .unwrap_or_else(|| panic!("stage {stage:?} missing from telemetry"));
            assert_eq!(
                st.calls, serial.stats.trials,
                "stage {stage:?} call count != merged trials"
            );
        }
    } else {
        assert!(
            serial.stats.telemetry.is_empty(),
            "no-op build produced telemetry"
        );
    }
}

#[test]
fn network_run_is_thread_invariant_including_telemetry() {
    // The whole-network determinism contract: an 8-user piconet (round-robin
    // across the band plan, so adjacent-channel coupling is active) produces
    // bit-identical per-link error counters AND telemetry fingerprints for
    // 1 vs 8 worker threads. Thread counts are pinned through the engine's
    // explicit override so this test cannot race other tests on the
    // `UWB_THREADS` environment variable.
    let mut sc = uwb_net::NetScenario::ring(8, 7.0, SEED ^ 0xA3);
    sc.rounds = 12;
    let plan = uwb_net::plan_network(&sc);

    let serial = uwb_net::run_plan_threads(plan.clone(), 1);
    let threaded = uwb_net::run_plan_threads(plan, 8);

    for l in 0..sc.len() {
        assert_eq!(
            serial.links[l].counter, threaded.links[l].counter,
            "link {l}'s error counter depends on thread count"
        );
        assert_eq!(serial.links[l].packets, threaded.links[l].packets);
        assert_eq!(serial.links[l].packets_bad, threaded.links[l].packets_bad);
    }
    assert_eq!(
        serial.aggregate_throughput_bps.to_bits(),
        threaded.aggregate_throughput_bps.to_bits(),
        "aggregate throughput depends on thread count"
    );
    assert_eq!(
        serial.stats.telemetry.to_json_deterministic(),
        threaded.stats.telemetry.to_json_deterministic(),
        "deterministic telemetry view depends on thread count"
    );
    assert_eq!(
        serial.stats.telemetry.fingerprint(),
        threaded.stats.telemetry.fingerprint(),
        "network telemetry fingerprint depends on thread count"
    );

    if uwb_obs::enabled() {
        let telem = &serial.stats.telemetry;
        assert!(
            !telem.is_empty(),
            "instrumented network run yielded no telemetry"
        );
        // One scheduling span per lazy record synthesis (every link
        // transmits once per round); one mix + one reception per link per
        // round.
        let rounds = serial.stats.trials;
        let n = sc.len() as u64;
        for (stage, expect) in [
            ("net_schedule", rounds * n),
            ("net_mix", rounds * n),
            ("net_rx", rounds * n),
        ] {
            let st = telem
                .stage(stage)
                .unwrap_or_else(|| panic!("stage {stage:?} missing from network telemetry"));
            assert_eq!(st.calls, expect, "stage {stage:?} call count");
        }
    }
}

#[test]
fn truncated_run_telemetry_is_thread_invariant() {
    // Truncation emits a deterministic `run_truncated` event on the
    // coordinating thread; overrun chunks beyond the stop boundary are
    // discarded together with their telemetry.
    let sc = scenario();
    let budget = TrialBudget { max_trials: 9 };
    std::env::set_var("UWB_THREADS", "1");
    let a = run_ber_fast_budgeted(&sc, 24, u64::MAX, u64::MAX, budget);
    std::env::set_var("UWB_THREADS", "3");
    let b = run_ber_fast_budgeted(&sc, 24, u64::MAX, u64::MAX, budget);
    std::env::remove_var("UWB_THREADS");

    assert_eq!(a.stop, LinkStopReason::Truncated);
    assert_eq!(b.stop, LinkStopReason::Truncated);
    assert_eq!(
        a.stats.telemetry.fingerprint(),
        b.stats.telemetry.fingerprint(),
        "truncated-run telemetry depends on thread count"
    );
    if uwb_obs::enabled() {
        assert_eq!(a.stats.telemetry.event_count("run_truncated"), 1);
        assert_eq!(b.stats.telemetry.event_count("run_truncated"), 1);
    }
}

#[test]
fn mac_city_replication_is_lane_invariant_including_telemetry() {
    // One replication keeps one engine worker busy; the MAC runner turns
    // the other threads into decode lanes for same-slot frames. So 1, 2
    // and 4 threads decode the same frames on 1, 2 and 4 lanes, and the
    // per-link counters and the telemetry fingerprint must not move —
    // helper lanes' telemetry is merged back into the worker's thread.
    let mut sc = uwb_mac::MacScenario::clustered_city(25, 4, 9.0, 1.5, SEED ^ 0x3C);
    sc.horizon_slots = 80;
    assert_eq!(sc.len(), 100);
    let run = |threads: usize| uwb_mac::run_mac_plan_threads(uwb_mac::plan_mac(&sc), threads);
    let serial = run(1);
    let frames: u64 = serial.links.iter().map(|l| l.stats.tx_frames).sum();
    assert!(frames > 100, "the city must put frames on air ({frames})");
    for l in &serial.links {
        assert_eq!(l.stats.ring_overflows, 0, "mixing ring overflowed");
    }
    for threads in [2, 4] {
        let lanes = run(threads);
        for (l, (a, b)) in serial.links.iter().zip(&lanes.links).enumerate() {
            assert_eq!(
                a.stats, b.stats,
                "link {l}'s counters depend on {threads} lanes"
            );
        }
        assert_eq!(
            serial.stats.telemetry.fingerprint(),
            lanes.stats.telemetry.fingerprint(),
            "MAC telemetry fingerprint depends on {threads} lanes"
        );
        assert_eq!(
            serial.stats.telemetry.to_json_deterministic(),
            lanes.stats.telemetry.to_json_deterministic()
        );
    }
    if uwb_obs::enabled() {
        let telem = &serial.stats.telemetry;
        for stage in ["mac_synth", "mac_mix", "mac_rx", "rx_rake"] {
            let st = telem
                .stage(stage)
                .unwrap_or_else(|| panic!("stage {stage:?} missing from MAC telemetry"));
            assert_eq!(st.calls, frames, "stage {stage:?} runs once per frame");
        }
    }
}
