//! City-scale piconet demo: 10,000 simultaneously operating links on a
//! clustered floor plan, one full network round, end to end.
//!
//! This is the scaling showcase for the sparse interference graph and the
//! shared-waveform arena:
//!
//! * **Plan** — per-channel spatial grids enumerate ~O(N·k) candidate
//!   couplings instead of all N² pairs; anything below the −40 dB
//!   total-coupling floor is never even visited. The city is not adapted,
//!   so planning synthesizes no probe waveform.
//! * **Measure** — victims are swept channel by channel; each
//!   transmitter's clean waveform is synthesized once per round into a
//!   recycled arena slot and shared read-only by every coupled receiver,
//!   so peak waveform memory is the graph's overlap width along the sweep
//!   (982 records), not 10,000 records.
//!
//! Run with: `cargo run --release --example piconet_city`
//!
//! Options:
//!
//! * `--users N` — total link count (default 10,000; rounded down to a
//!   multiple of 10 links per cluster);
//! * `--trace out.json` — export the round's span timeline as Chrome Trace
//!   Event JSON (needs `--features obs-trace`; try `--users 1000` for a
//!   timeline Perfetto loads comfortably).

use std::time::Instant;
use uwb::net::{plan_network, run_plan_threads, NetScenario};

/// Extracts the value following `flag`, if present.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // 1,000 clusters × 10 links on a ~620 m square grid: 20 m cluster
    // pitch, 3 m cluster radius, 1 m links, round-robin over all 14
    // channels, no adaptation (so no probe sweep).
    let per_cluster = 10;
    let users: usize = arg_value(&args, "--users")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let clusters = (users / per_cluster).max(1);
    let trace_path = arg_value(&args, "--trace");
    let ebn0_db = 8.0;
    let mut sc = NetScenario::clustered_city(clusters, per_cluster, ebn0_db, 0x2005_0314);
    sc.rounds = 1;
    let n = sc.len();

    println!(
        "piconet city: {n} links ({clusters} clusters x {per_cluster}), \
         Eb/N0 = {ebn0_db} dB, coupling floor {} dB\n",
        sc.coupling.floor_db
    );

    // --- Plan: channel allocation + sparse graph. ---
    let t0 = Instant::now();
    let plan = plan_network(&sc);
    let plan_s = t0.elapsed().as_secs_f64();

    let edges: usize = plan.coupling.iter().map(|r| r.len()).sum();
    let max_row = plan.coupling.iter().map(|r| r.len()).max().unwrap_or(0);
    let isolated = plan.coupling.iter().filter(|r| r.is_empty()).count();
    let arena = plan.record_schedule().max_live();
    println!("plan phase            {plan_s:>10.2} s");
    println!(
        "directed edges        {edges:>10}   ({:.2} per node, dense would be {})",
        edges as f64 / n as f64,
        n - 1
    );
    println!("largest coupling row  {max_row:>10}");
    println!("isolated links        {isolated:>10}");
    println!(
        "arena size            {arena:>10}   live records max, channel-major sweep \
         (vs {n} without sharing)"
    );

    // --- Measure: one event-driven round over the whole city. ---
    let t0 = Instant::now();
    let report = run_plan_threads(plan, 1);
    let round_s = t0.elapsed().as_secs_f64();
    let nodes_per_s = n as f64 / round_s;

    let errors: u64 = report.links.iter().map(|l| l.counter.errors).sum();
    let bad: u64 = report.links.iter().map(|l| l.packets_bad).sum();
    let worst_ber = report.links.iter().map(|l| l.ber()).fold(0.0f64, f64::max);
    println!("\nmeasurement round     {round_s:>10.2} s   ({nodes_per_s:.0} nodes/s, 1 thread)");
    println!("packets               {:>10}   ({bad} with errors)", n);
    println!("bit errors            {errors:>10}   (worst link BER {worst_ber:.2e})");
    println!(
        "aggregate goodput     {:>10.0} Mbit/s",
        report.aggregate_throughput_bps / 1e6
    );
    // Percentile digests over the round (per-link SINR and goodput, plus
    // per-decode bit errors) — the `uwb-telemetry-v3` quantile view.
    for d in &report.stats.telemetry.digests {
        println!(
            "digest {:<22} n={:<6} p50={:<8} p95={:<8} p99={:<8} max={}",
            d.name,
            d.count,
            d.quantile(0.50),
            d.quantile(0.95),
            d.quantile(0.99),
            d.max
        );
    }
    if !report.stats.telemetry.worst.is_empty() {
        print!(
            "\n{}",
            uwb::obs::recorder::render_report(&report.stats.telemetry.worst)
        );
    }
    if let Some(path) = &trace_path {
        if !uwb::obs::trace::enabled() {
            eprintln!(
                "warning: --trace {path}: this build records no spans; \
                 rebuild with `--features obs-trace`"
            );
        } else {
            let doc = uwb::obs::trace::export_chrome(&report.stats.telemetry.spans);
            std::fs::write(path, doc).expect("write trace");
            println!(
                "\ntrace: {} span(s) ({} dropped) -> {path}",
                report.stats.telemetry.spans.len(),
                report.stats.telemetry.spans_dropped
            );
        }
    }
    println!(
        "\nper-channel spatial grids keep plan enumeration near O(N.k); the\n\
         shared-waveform arena keeps round memory at the graph's overlap\n\
         width. Doubling the city doubles the work, not the memory."
    );
}
