//! macbench — tracked benchmarks for the discrete-event MAC simulator
//! (the perf anchor for `scripts/check.sh mac`).
//!
//! Times the MAC planning phase, one warm 8-user discrete-event trial
//! (arrivals + CSMA + waveform synthesis + overlap mixing + decode + ARQ),
//! and one warm 1,000-user clustered-city trial:
//!
//! ```text
//! cargo run -p uwb-bench --release --bin macbench -- --out BENCH_mac.json
//! cargo run -p uwb-bench --release --bin macbench -- --check BENCH_mac.json --tol 15
//! ```
//!
//! Kernel times gate; frames/s is informational. `delivered_frac_8user`
//! and `mean_latency_slots_8user` are *physical* quantities,
//! bit-deterministic for the fixed scenario/seed, pinned exactly as cheap
//! whole-stack determinism checks: any drift means the traffic, CSMA, PHY
//! or ARQ behaviour changed. The command line, report schema and check are
//! `uwb_bench::tracked`'s; the stage profile is that of the warm 8-user
//! trials.

use std::process::ExitCode;
use std::time::Instant;
use uwb_bench::tracked::{self, time_us, Metric, MetricPolicy::*, Suite};
use uwb_bench::EXPERIMENT_SEED;
use uwb_mac::{plan_mac, run_mac_plan_threads, MacAccumulator, MacScenario, MacWorker};
use uwb_net::ChannelPolicy;
use uwb_phy::bandplan::Channel;

/// Warm 8-user trials in the timed loop.
const TRIALS: u64 = 6;

fn main() -> ExitCode {
    tracked::main("macbench", suite)
}

/// The benchmark scenario: 8 users, 4 channels (every link has one
/// co-channel contender), 1.2 Erlang per link — past the knee, so CSMA
/// defers, collisions, and ARQ retries are all on the measured path.
fn bench_scenario() -> MacScenario {
    let mut sc = MacScenario::ring(8, 9.0, 1.2, EXPERIMENT_SEED);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect());
    sc.horizon_slots = 400;
    sc.replications = 4;
    sc
}

fn suite() -> Suite {
    let scenario = bench_scenario();
    // 1. The MAC planning phase: channel assignment + coupling graph (no
    //    probe sweep: the scenario does not adapt) + closed-form airtimes
    //    + sense-set extraction. A plan takes ~10 µs, so each batch of 200
    //    runs for ~2 ms: one preempted batch cannot decide the row.
    let plan_us = time_us(200, 15, || {
        let _ = plan_mac(&scenario);
    });
    let mut metrics = vec![Metric::us("plan_mac_8user", plan_us, Gate)];

    let plan = plan_mac(&scenario);

    // 2. One warm 8-user trial: the full event loop over the 400-slot
    //    horizon plus queue drain.
    let telemetry = {
        let mut worker = MacWorker::new(&plan);
        let mut acc = MacAccumulator::default();
        // Warm-up trial so all pooled buffers reach steady state, then
        // drop its telemetry.
        worker.trial(&plan, 0, &mut acc);
        let _ = uwb_obs::take_thread_telemetry();
        let mut acc = MacAccumulator::default();
        let t0 = Instant::now();
        for rep in 0..TRIALS {
            worker.trial(&plan, rep, &mut acc);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let frames: u64 = acc.links.iter().map(|l| l.tx_frames).sum();
        let us = elapsed * 1e6 / TRIALS as f64;
        let frames_per_s = frames as f64 / elapsed;
        metrics.extend([
            Metric::us("mac_trial_8user", us, Gate),
            Metric::new(
                "frames_per_s_8user",
                frames_per_s,
                "frames/s",
                1,
                InfoHigherBetter,
            ),
        ]);
        uwb_obs::take_thread_telemetry()
    };

    // 3. One warm 1,000-user clustered-city trial on the sparse graph.
    {
        let mut city = MacScenario::clustered_city(100, 10, 9.0, 1.0, EXPERIMENT_SEED);
        city.horizon_slots = 60;
        let city_plan = plan_mac(&city);
        let mut worker = MacWorker::new(&city_plan);
        let mut acc = MacAccumulator::default();
        worker.trial(&city_plan, 0, &mut acc);
        let us = time_us(1, 3, || {
            worker.trial(&city_plan, 1, &mut acc);
        });
        metrics.push(Metric::us("mac_trial_1k", us, Gate));
    }

    // 4. The deterministic physics pins from the full measured run
    //    (1 thread so the baseline reproduces anywhere).
    let report = run_mac_plan_threads(plan_mac(&scenario), 1);
    let delivered_frac = report.delivered_fraction();
    let delivered: u64 = report.delivered_total;
    let lat_sum: u64 = report.links.iter().map(|l| l.stats.latency_slots_sum).sum();
    let mean_latency_slots = if delivered == 0 {
        0.0
    } else {
        lat_sum as f64 / delivered as f64
    };
    metrics.extend([
        Metric::new("delivered_frac_8user", delivered_frac, "frac", 6, Exact),
        Metric::new(
            "mean_latency_slots_8user",
            mean_latency_slots,
            "slots",
            4,
            Exact,
        ),
    ]);

    Suite {
        metrics,
        telemetry,
        trials: TRIALS,
    }
}
