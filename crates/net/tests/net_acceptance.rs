//! The network simulator's acceptance contracts, end to end:
//!
//! 1. **Isolation parity** — a link whose channel is beyond the front end's
//!    selectivity floor from every other link produces a BER counter
//!    **bit-identical** to the same link run alone through the single-link
//!    streamed path.
//! 2. **Contention** — two co-channel links at equal SNR are each strictly
//!    worse than their isolated selves.
//! 3. **Thread determinism** — the whole network run (all per-link
//!    counters) is bit-identical for any worker thread count.
//! 4. **Scale** — ≥ 8 concurrent links across ≥ 3 channels runs and
//!    reports coherently.

use uwb_net::{
    build_coupling, plan_network, run_network, run_plan, run_plan_threads, ChannelPolicy,
    NetScenario,
};
use uwb_phy::bandplan::Channel;
use uwb_platform::link::{run_ber_fast_streamed_tuned, TrialBudget, DEFAULT_STREAM_BLOCK};
use uwb_sim::sv_channel::ChannelModel;
use uwb_sim::topology::{LinkGeometry, Position, Topology};

const SEED: u64 = 20050314;

fn ch(i: usize) -> Channel {
    Channel::new(i).unwrap()
}

/// Two links laid out so each interfering path (1.6 − 1.0 = 0.6 m) is
/// *shorter* than the victim's own path (1.0 m): strong, symmetric mutual
/// interference when co-channel.
fn contended_pair() -> Topology {
    Topology::new(vec![
        LinkGeometry::new(Position::new(0.0, 0.0), Position::new(1.0, 0.0)),
        LinkGeometry::new(Position::new(1.6, 0.0), Position::new(0.6, 0.0)),
    ])
}

#[test]
fn isolated_link_matches_single_link_streamed_path_bitwise() {
    assert_isolated_link_matches_single_link(ChannelModel::Awgn, 6);
}

#[test]
fn isolated_cm1_link_matches_single_link_streamed_path_bitwise() {
    // Multipath records carry `im` planes, which the AWGN run never
    // builds; the coupled links mix them too.
    assert_isolated_link_matches_single_link(ChannelModel::Cm1, 3);
}

/// 8 links; link 7 parked on channel 13 while everyone else crowds
/// channels 0–2 — the gap to channel 13 is far below the gen2
/// selectivity floor, so link 7's coupling row must be empty and its
/// counter bit-identical to a solo streamed run.
fn assert_isolated_link_matches_single_link(channel: ChannelModel, rounds: u64) {
    let mut sc = NetScenario::ring(8, 7.0, SEED);
    sc.channel_model = channel;
    sc.policy = ChannelPolicy::Static(vec![
        ch(0),
        ch(0),
        ch(1),
        ch(1),
        ch(2),
        ch(2),
        ch(0),
        ch(13),
    ]);
    sc.rounds = rounds;
    let report = run_network(&sc);
    assert!(
        report.plan.coupling[7].is_empty(),
        "channel 13 must be decoupled: {:?}",
        report.plan.coupling[7]
    );

    let solo = run_ber_fast_streamed_tuned(
        &report.plan.links[7].scenario,
        sc.payload_len,
        DEFAULT_STREAM_BLOCK,
        u64::MAX,
        u64::MAX,
        TrialBudget {
            max_trials: sc.rounds,
        },
        None,
        None,
    );
    assert_eq!(
        report.links[7].counter, solo.counter,
        "isolated network link must be bit-identical to the solo streamed run"
    );
    assert_eq!(report.links[7].packets, sc.rounds);
}

#[test]
fn co_channel_contention_strictly_degrades_both_links() {
    let rounds = 12;
    let mut contended = NetScenario::ring(2, 6.0, SEED ^ 0xC0);
    contended.topology = contended_pair();
    contended.policy = ChannelPolicy::Static(vec![ch(3), ch(3)]);
    contended.rounds = rounds;
    let report = run_network(&contended);
    assert_eq!(report.plan.coupling[0].len(), 1);
    assert_eq!(report.plan.coupling[1].len(), 1);

    // The isolated baseline: identical links, seeds, rounds — channels so
    // far apart nothing couples.
    let mut isolated = contended.clone();
    isolated.policy = ChannelPolicy::Static(vec![ch(0), ch(13)]);
    let base = run_network(&isolated);
    assert!(base.plan.coupling.iter().all(|r| r.is_empty()));

    for l in 0..2 {
        let with = report.links[l].counter;
        let without = base.links[l].counter;
        assert!(
            with.errors > without.errors,
            "link {l}: contended {with:?} must be strictly worse than isolated {without:?}"
        );
    }
    // Contention also shows up in the goodput aggregate.
    assert!(report.aggregate_throughput_bps < base.aggregate_throughput_bps);
}

#[test]
fn network_run_is_bit_identical_across_thread_counts() {
    let mut sc = NetScenario::ring(8, 7.0, SEED ^ 0x7E);
    sc.rounds = 10;
    let plan = plan_network(&sc);
    let reference = run_plan_threads(plan.clone(), 1);
    for threads in [2, 4, 8] {
        let got = run_plan_threads(plan.clone(), threads);
        for l in 0..sc.len() {
            assert_eq!(
                got.links[l].counter, reference.links[l].counter,
                "thread count {threads} changed link {l}'s counter"
            );
            assert_eq!(got.links[l].packets, reference.links[l].packets);
            assert_eq!(got.links[l].packets_bad, reference.links[l].packets_bad);
        }
        assert_eq!(
            got.aggregate_throughput_bps.to_bits(),
            reference.aggregate_throughput_bps.to_bits(),
            "thread count {threads} changed the aggregate"
        );
    }
}

#[test]
fn eight_links_three_channels_report_coherently() {
    let mut sc = NetScenario::ring(8, 9.0, SEED ^ 0x33);
    sc.policy = ChannelPolicy::RoundRobin(vec![ch(1), ch(6), ch(11)]);
    sc.rounds = 4;
    let report = run_network(&sc);
    assert_eq!(report.len(), 8);
    let mut used: Vec<usize> = report.links.iter().map(|l| l.channel.index()).collect();
    used.sort_unstable();
    used.dedup();
    assert_eq!(used, vec![1, 6, 11], "three distinct channels in use");
    let mut agg = 0.0;
    for (l, r) in report.links.iter().enumerate() {
        assert_eq!(r.packets, sc.rounds, "link {l} must attempt every round");
        assert!(r.counter.total > 0, "link {l} counted no bits");
        assert!(r.throughput_bps >= 0.0 && r.throughput_bps <= r.bit_rate);
        agg += r.throughput_bps;
    }
    assert!((report.aggregate_throughput_bps - agg).abs() < 1e-6);
}

#[test]
fn interference_aware_policy_beats_all_co_channel() {
    // 6 tightly packed links, candidates spread across the band: the
    // greedy measured-interference policy must deliver at least the
    // aggregate goodput of the all-co-channel worst case.
    let mut aware = NetScenario::ring(6, 6.0, SEED ^ 0x11);
    aware.topology = Topology::ring(6, 1.0, 1.0);
    aware.policy = ChannelPolicy::InterferenceAware(vec![ch(0), ch(4), ch(8), ch(12)]);
    aware.rounds = 6;
    let aware_report = run_network(&aware);

    let mut packed = aware.clone();
    packed.policy = ChannelPolicy::Static(vec![ch(0)]);
    let packed_report = run_network(&packed);

    let aware_errs: u64 = aware_report.links.iter().map(|l| l.counter.errors).sum();
    let packed_errs: u64 = packed_report.links.iter().map(|l| l.counter.errors).sum();
    assert!(
        aware_errs <= packed_errs,
        "interference-aware ({aware_errs} errors) must not be worse than all-co-channel ({packed_errs})"
    );
    assert!(
        aware_report.aggregate_throughput_bps >= packed_report.aggregate_throughput_bps,
        "aware {} < packed {}",
        aware_report.aggregate_throughput_bps,
        packed_report.aggregate_throughput_bps
    );
}

#[test]
fn sparse_graph_round_is_bit_identical_to_dense_path() {
    // 16 users, round-robin across the band: co- and adjacent-channel
    // coupling everywhere. The sparse scenario's floor (-150 dB) is far
    // below every coupling the spectral floor keeps, so the geometric
    // pruning must be a pure no-op: the planned graph must equal both the
    // classic dense-semantics plan and the brute-force O(N²) reference
    // bit-for-bit, and the measurement rounds must produce bit-identical
    // counters.
    let mut dense_sc = NetScenario::ring(16, 7.0, SEED ^ 0x16);
    dense_sc.rounds = 4;
    let mut sparse_sc = dense_sc.clone();
    sparse_sc.coupling.floor_db = -150.0;

    let dense_plan = plan_network(&dense_sc);
    let sparse_plan = plan_network(&sparse_sc);

    let channels: Vec<Channel> = dense_plan.links.iter().map(|l| l.channel).collect();
    let reference = build_coupling(&dense_sc.topology, &dense_sc.selectivity, &channels);
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "the 16-user scenario must actually couple"
    );
    let bits = |row: &Vec<(usize, f64)>| -> Vec<(usize, u64)> {
        row.iter().map(|&(u, g)| (u, g.to_bits())).collect()
    };
    for (v, want) in reference.iter().enumerate() {
        assert_eq!(
            bits(&sparse_plan.coupling[v]),
            bits(want),
            "sparse row {v} differs from the dense reference"
        );
        assert_eq!(
            bits(&sparse_plan.coupling[v]),
            bits(&dense_plan.coupling[v]),
            "sparse row {v} differs from the default-parameters plan"
        );
    }

    let dense_report = run_plan(dense_plan);
    let sparse_report = run_plan(sparse_plan);
    for l in 0..16 {
        assert_eq!(
            dense_report.links[l].counter, sparse_report.links[l].counter,
            "link {l}: sparse-graph round diverged from the dense path"
        );
    }
    assert_eq!(
        dense_report.aggregate_throughput_bps.to_bits(),
        sparse_report.aggregate_throughput_bps.to_bits()
    );
}

/// Release-scale gate (run via `scripts/check.sh net`): a 1,000-user
/// clustered city plans with a bounded sparse graph and measures
/// bit-identically for 1/2/4/8 worker threads.
#[test]
#[ignore = "release-scale gate: scripts/check.sh net runs it with --release"]
fn thousand_user_clustered_round_is_thread_invariant() {
    let mut sc = NetScenario::clustered_city(100, 10, 7.0, SEED ^ 0x1000);
    sc.rounds = 1;
    let plan = plan_network(&sc);
    let n = plan.len();
    assert_eq!(n, 1000);
    let edges: usize = plan.coupling.iter().map(|r| r.len()).sum();
    let edges_per_node = edges as f64 / n as f64;
    assert!(edges > 0, "the city must actually couple");
    assert!(
        edges_per_node < 80.0,
        "graph is not sparse: {edges_per_node:.1} edges/node"
    );

    let reference = run_plan_threads(plan.clone(), 1);
    for threads in [2, 4, 8] {
        let got = run_plan_threads(plan.clone(), threads);
        for l in 0..n {
            assert_eq!(
                got.links[l].counter, reference.links[l].counter,
                "thread count {threads} changed link {l}'s counter"
            );
            assert_eq!(got.links[l].packets, reference.links[l].packets);
            assert_eq!(got.links[l].packets_bad, reference.links[l].packets_bad);
        }
        assert_eq!(
            got.aggregate_throughput_bps.to_bits(),
            reference.aggregate_throughput_bps.to_bits(),
            "thread count {threads} changed the aggregate"
        );
    }
}

#[test]
fn run_plan_matches_run_network() {
    let mut sc = NetScenario::ring(3, 8.0, SEED ^ 0x55);
    sc.rounds = 3;
    let a = run_network(&sc);
    let b = run_plan(plan_network(&sc));
    for l in 0..sc.len() {
        assert_eq!(a.links[l].counter, b.links[l].counter);
    }
}
