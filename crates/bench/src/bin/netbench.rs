//! netbench — tracked benchmarks for the multi-user piconet simulator
//! (the perf anchor for `scripts/check.sh net`).
//!
//! Times the network warm path (clean synthesis + superposition mixing +
//! per-victim reception for an 8-user piconet), the mixing kernel itself,
//! the planning phase (channel allocation and the coupling graph: the ring
//! is not adapted, so no probe runs), the 10k-link interference-graph
//! build and a warm 1,000-user round:
//!
//! ```text
//! cargo run -p uwb-bench --release --bin netbench -- --out BENCH_net.json
//! cargo run -p uwb-bench --release --bin netbench -- --check BENCH_net.json --tol 15
//! ```
//!
//! Kernel times gate; rounds/s and nodes/s are informational.
//! `aggregate_mbps` and `edges_per_node_10k` are *physical* quantities,
//! bit-deterministic for the fixed scenario/seed, pinned exactly as cheap
//! whole-chain determinism checks: any drift means the physics or the
//! graph changed. `arena_live_1k` and `arena_live_10k` pin the record
//! arena the runner's channel-major sweep needs on the two city floor
//! plans: a change there means the sweep order or its liveness schedule
//! moved. `net_mix_1k` (informational) is the warm 1,000-user round's
//! `net_mix` span per victim — the plane mix of its ~34 coupled records
//! plus the noise pass — so the victim decode's mix half has its own row
//! beside the AoS `mix_superpose_8x` kernel. The command line, report schema and check are
//! `uwb_bench::tracked`'s; the stage profile is that of the warm 8-user
//! rounds (one round per trial).

use std::process::ExitCode;
use std::time::Instant;
use uwb_bench::tracked::{self, noise_complex, time_us, Metric, MetricPolicy::*, Suite};
use uwb_bench::EXPERIMENT_SEED;
use uwb_dsp::stream::accumulate_scaled;
use uwb_dsp::Complex;
use uwb_net::{
    build_coupling_sparse, plan_network, run_plan_threads, NetAccumulator, NetScenario, NetWorker,
    RecordSchedule,
};
use uwb_phy::bandplan::Channel;
use uwb_sim::Rand;

/// Warm 8-user rounds in the timed loop.
const ROUNDS: u64 = 24;

fn main() -> ExitCode {
    tracked::main("netbench", suite)
}

/// The benchmark scenario: 8 users on the default 4 m ring, round-robin
/// across the full band plan (adjacent-channel leakage active), AWGN.
fn bench_scenario() -> NetScenario {
    let mut sc = NetScenario::ring(8, 8.0, EXPERIMENT_SEED);
    sc.rounds = 16;
    sc
}

fn suite() -> Suite {
    let scenario = bench_scenario();
    // 1. The planning phase for the 8-user scenario: channel allocation
    //    and the coupling graph (unadapted, so no probe sweep). A plan
    //    takes a few µs, so each batch of 200 runs for ~1 ms: one preempted
    //    batch cannot decide the row.
    let plan_us = time_us(200, 15, || {
        let _ = plan_network(&scenario);
    });
    let mut metrics = vec![Metric::us("plan_8user", plan_us, Gate)];

    let plan = plan_network(&scenario);

    // 2. The 8-source superposition kernel at the real record shape:
    //    own record copied, then 7 scaled accumulations.
    {
        // Match the true per-round record length by synthesizing one
        // link's clean record.
        let len = {
            let link = &plan.links[0];
            let mut w = uwb_platform::link::LinkWorker::new(&link.scenario);
            let mut rng = Rand::for_trial(link.scenario.seed, 0);
            let _ = w.synthesize_clean_streamed(
                &link.scenario,
                scenario.payload_len,
                uwb_platform::link::DEFAULT_STREAM_BLOCK,
                &mut rng,
            );
            w.clean_record().len()
        };
        let sources: Vec<Vec<Complex>> = (0..8).map(|s| noise_complex(len, s as u64)).collect();
        let mut mixed = noise_complex(len, 99);
        let mix_us = time_us(50, 9, || {
            mixed.copy_from_slice(&sources[0]);
            for src in &sources[1..] {
                accumulate_scaled(&mut mixed, src, 0.125);
            }
        });
        metrics.push(Metric::us("mix_superpose_8x", mix_us, Gate));
    }

    // 3. One warm 8-user round: full clean synthesis for all 8 links +
    //    8 victim mixes + 8 receptions, driven directly on one worker.
    let telemetry = {
        let mut worker = NetWorker::new(&plan);
        let mut acc = NetAccumulator::default();
        // Warm-up round so buffers reach steady state, then drop its spans.
        worker.round(&plan, 0, &mut acc);
        let _ = uwb_obs::take_thread_telemetry();
        let t0 = Instant::now();
        for r in 0..ROUNDS {
            worker.round(&plan, r % plan.rounds.max(1), &mut acc);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let us = elapsed * 1e6 / ROUNDS as f64;
        let rounds_per_s = ROUNDS as f64 / elapsed;
        metrics.extend([
            Metric::us("net_round_8user", us, Gate),
            Metric::new(
                "rounds_per_s",
                rounds_per_s,
                "rounds/s",
                1,
                InfoHigherBetter,
            ),
        ]);
        uwb_obs::take_thread_telemetry()
    };

    // 4. Sparse interference-graph construction at city scale: 10,000
    //    links on the clustered floor plan, round-robin channels, the
    //    scaling scenario's -40 dB coupling floor. This is the pure
    //    plan-time graph build (spatial grids + radius queries + exact
    //    rechecks), no waveform synthesis.
    {
        let city = NetScenario::clustered_city(1000, 10, 8.0, EXPERIMENT_SEED);
        let all: Vec<Channel> = Channel::all().collect();
        let channels: Vec<Channel> = (0..city.len()).map(|l| all[l % all.len()]).collect();
        let rows =
            build_coupling_sparse(&city.topology, &city.selectivity, &channels, &city.coupling);
        let edges: usize = rows.iter().map(|r| r.len()).sum();
        let edges_per_node = edges as f64 / city.len() as f64;
        let build_us = time_us(1, 5, || {
            let _ =
                build_coupling_sparse(&city.topology, &city.selectivity, &channels, &city.coupling);
        });
        let live = RecordSchedule::channel_major(&channels, &rows).max_live();
        metrics.extend([
            Metric::us("graph_build_10k", build_us, Gate),
            Metric::new("edges_per_node_10k", edges_per_node, "edges/node", 2, Exact),
            Metric::new("arena_live_10k", live as f64, "records", 0, Exact),
        ]);
    }

    // 5. One warm 1,000-user round on the event-driven sparse path: lazy
    //    shared-waveform synthesis, arena recycling, per-victim mixing and
    //    reception. `nodes_per_s_1k` is the headline scaling number.
    {
        let mut city = NetScenario::clustered_city(100, 10, 8.0, EXPERIMENT_SEED);
        city.rounds = 4;
        let city_plan = plan_network(&city);
        let mut worker = NetWorker::new(&city_plan);
        let mut acc = NetAccumulator::default();
        worker.round(&city_plan, 0, &mut acc);
        let _ = uwb_obs::take_thread_telemetry();
        let us = time_us(1, 5, || {
            worker.round(&city_plan, 1, &mut acc);
        });
        // Without telemetry (`--no-default-features`) there is no span to
        // read, and the row is left out.
        if let Some(mix) = uwb_obs::take_thread_telemetry().stage("net_mix") {
            let per_victim = mix.ns as f64 / 1e3 / mix.calls.max(1) as f64;
            metrics.push(Metric::us("net_mix_1k", per_victim, InfoLowerBetter));
        }
        let nodes_per_s = city_plan.len() as f64 / (us * 1e-6);
        metrics.extend([
            Metric::us("net_round_1k", us, Gate),
            Metric::new(
                "nodes_per_s_1k",
                nodes_per_s,
                "nodes/s",
                0,
                InfoHigherBetter,
            ),
            Metric::new(
                "arena_live_1k",
                city_plan.record_schedule().max_live() as f64,
                "records",
                0,
                Exact,
            ),
        ]);
    }

    // 6. The deterministic aggregate goodput of the full measured run
    //    (1 thread so the baseline is reproducible anywhere).
    let report = run_plan_threads(plan, 1);
    let aggregate_mbps = report.aggregate_throughput_bps / 1e6;
    metrics.push(Metric::new(
        "aggregate_mbps",
        aggregate_mbps,
        "Mbit/s",
        3,
        Exact,
    ));

    Suite {
        metrics,
        telemetry,
        trials: ROUNDS,
    }
}
