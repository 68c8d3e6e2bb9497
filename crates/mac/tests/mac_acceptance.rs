//! MAC acceptance criteria: light-load latency, saturation plateau,
//! forced-collision ARQ recovery, conservation, thread-count determinism
//! (AWGN and CM1), a recent-transmission ring that never drops a mixable
//! frame, and the `re`-only mix path on AWGN.

use uwb_mac::{
    plan_mac, run_mac, run_mac_plan_threads, MacAccumulator, MacReport, MacScenario, MacWorker,
};
use uwb_net::ChannelPolicy;
use uwb_phy::bandplan::Channel;
use uwb_sim::sv_channel::ChannelModel;

/// Every counter that participates in the bit-exactness contract, per
/// link, flattened for comparison.
fn fingerprint(r: &MacReport) -> Vec<u64> {
    let mut v = Vec::new();
    for l in &r.links {
        let s = &l.stats;
        v.extend_from_slice(&[
            s.offered,
            s.delivered,
            s.dropped_queue,
            s.dropped_retry,
            s.tx_frames,
            s.defers,
            s.retries,
            s.decode_failures,
            s.ack_losses,
            s.delivered_info_bits,
            s.latency_slots_sum,
            s.latency_slots_max,
            s.queue_delay_slots_sum,
            s.ber.total,
            s.ber.errors,
            s.ring_overflows,
        ]);
    }
    v
}

/// The mixing ring kept every frame a victim could still overlap: no
/// decode missed an interferer, and same-slot decode batches are exact.
fn assert_no_ring_overflow(r: &MacReport) {
    for (l, lr) in r.links.iter().enumerate() {
        assert_eq!(
            lr.stats.ring_overflows, 0,
            "link {l} overflowed its mixing ring"
        );
    }
}

/// A co-channel pair: both links on channel 3 so they genuinely contend
/// for (and interfere on) the same spectrum.
fn co_channel_pair(ebn0_db: f64, load: f64, seed: u64) -> MacScenario {
    let mut sc = MacScenario::ring(2, ebn0_db, load, seed);
    sc.net.policy = ChannelPolicy::Static(vec![Channel::new(3).unwrap()]);
    sc
}

#[test]
fn conservation_offered_equals_delivered_plus_dropped() {
    let mut sc = co_channel_pair(9.0, 1.2, 2025);
    sc.horizon_slots = 300;
    sc.replications = 2;
    let r = run_mac(&sc);
    assert_no_ring_overflow(&r);
    assert!(r.offered_total > 0, "traffic sources must generate packets");
    assert_eq!(
        r.offered_total,
        r.delivered_total + r.dropped_total,
        "queues drain after the horizon: every packet is delivered or dropped"
    );
}

#[test]
fn light_load_latency_is_service_time_and_no_retries() {
    // Clean high-SNR links at 10% load: nothing queues, nothing collides,
    // nothing retries — latency is essentially airtime + ACK.
    let mut sc = MacScenario::ring(2, 12.0, 0.1, 7);
    sc.horizon_slots = 1_500;
    sc.replications = 2;
    let r = run_mac(&sc);
    assert_no_ring_overflow(&r);
    assert!(r.delivered_total > 10, "light load must still deliver");
    for (l, lr) in r.links.iter().enumerate() {
        assert_eq!(lr.stats.retries, 0, "link {l}: no retries at light load");
        assert_eq!(lr.dropped, 0, "link {l}: no drops at light load");
        let cycle = (lr.airtime_slots + sc.ack_slots) as f64;
        assert!(
            lr.mean_latency_slots >= cycle - 1e-9,
            "link {l}: latency {} cannot beat the service time {cycle}",
            lr.mean_latency_slots
        );
        assert!(
            lr.mean_latency_slots < cycle + 3.0,
            "link {l}: latency {} should be within a few slots of the service time {cycle}",
            lr.mean_latency_slots
        );
    }
}

#[test]
fn saturation_delivered_plateaus_at_channel_capacity() {
    // Two links share one channel. Ramping offered load from clearly
    // unsaturated to 2x saturated must show the knee: throughput rises,
    // then plateaus — more offered load does not deliver more.
    let delivered_at = |load: f64| {
        let mut sc = co_channel_pair(10.0, load, 515);
        sc.horizon_slots = 400;
        sc.replications = 2;
        let r = run_mac(&sc);
        assert_no_ring_overflow(&r);
        r.delivered_total
    };
    let light = delivered_at(0.3);
    let sat = delivered_at(1.5);
    let oversat = delivered_at(3.0);
    assert!(
        sat as f64 > light as f64 * 1.3,
        "delivered must grow below saturation ({light} -> {sat})"
    );
    assert!(
        (oversat as f64) < sat as f64 * 1.15,
        "delivered must plateau beyond saturation ({sat} -> {oversat})"
    );
    // The shared channel bounds combined delivery: delivered frames cannot
    // occupy more slot-time than the simulation had (horizon + drain tail).
    let mut sc = co_channel_pair(10.0, 3.0, 515);
    sc.horizon_slots = 400;
    sc.replications = 2;
    let plan = plan_mac(&sc);
    let cycle = plan.cycle_slots(0);
    let drain_tail = sc.queue_cap as u64 * cycle * (sc.max_retries as u64 + 1) * 2;
    assert!(
        oversat * cycle <= sc.replications * (sc.horizon_slots + drain_tail),
        "delivered {oversat} x cycle {cycle} exceeds available channel time"
    );
}

#[test]
fn hidden_terminals_collide_and_arq_recovers() {
    // Raise the sense threshold above every coupling gain: carrier sense
    // goes blind (pure ALOHA), so co-channel transmissions overlap in
    // time, genuinely mix at the victims' receivers, and fail to decode.
    // ARQ must then redeliver at least part of the traffic. The crossed
    // pair puts each interferer exactly as far from the victim receiver
    // as the victim's own transmitter (0 dB I/S), so a real overlap
    // reliably breaks the packet.
    use uwb_sim::topology::{LinkGeometry, Position, Topology};
    let tight = Topology::new(vec![
        LinkGeometry::new(Position::new(0.0, 0.0), Position::new(1.0, 0.0)),
        LinkGeometry::new(Position::new(1.0, 1.0), Position::new(0.0, 1.0)),
    ]);
    let mut sc = co_channel_pair(10.0, 0.9, 99);
    sc.net.topology = tight.clone();
    sc.sense_threshold_db = 200.0; // nothing is sensable
    sc.horizon_slots = 500;
    sc.replications = 2;
    let r = run_mac(&sc);
    assert_no_ring_overflow(&r);
    let decode_failures: u64 = r.links.iter().map(|l| l.stats.decode_failures).sum();
    let retries: u64 = r.links.iter().map(|l| l.stats.retries).sum();
    assert!(
        decode_failures > 0,
        "blind carrier sense at 0.9 Erlang must produce real collisions"
    );
    assert!(retries > 0, "failed frames must be retransmitted");
    assert!(
        r.delivered_total > 0,
        "ARQ must recover some traffic despite collisions"
    );
    assert_eq!(r.offered_total, r.delivered_total + r.dropped_total);
    // Blind stations never defer — every collision above came from
    // genuinely un-sensable (hidden) transmitters.
    let blind_defers: u64 = r.links.iter().map(|l| l.stats.defers).sum();
    assert_eq!(blind_defers, 0, "a blind station cannot defer");
    // Same scenario with carrier sense enabled (default threshold): the
    // pair is mutually sensable at 0 dB coupling, so CSMA actively
    // defers and still delivers. (Decode-failure *counts* are not
    // compared: randomly-offset ALOHA overlaps decorrelate at the pulse
    // matched filter and are often survivable, while CSMA's residual
    // same-slot collisions are pulse-aligned and fatal — which failure
    // mode dominates is load- and PHY-dependent.)
    let mut csma = co_channel_pair(10.0, 0.9, 99);
    csma.net.topology = tight;
    csma.horizon_slots = 500;
    csma.replications = 2;
    let rc = run_mac(&csma);
    assert_no_ring_overflow(&rc);
    let csma_defers: u64 = rc.links.iter().map(|l| l.stats.defers).sum();
    assert!(
        csma_defers > 0,
        "mutually sensable saturated links must carrier-sense defer"
    );
    assert!(rc.delivered_total > 0, "CSMA must still deliver traffic");
    assert_eq!(rc.offered_total, rc.delivered_total + rc.dropped_total);
}

#[test]
fn reports_are_bit_identical_across_thread_counts() {
    let mut sc = MacScenario::ring(4, 9.0, 0.8, 31);
    sc.horizon_slots = 250;
    sc.replications = 4;
    let serial = run_mac_plan_threads(plan_mac(&sc), 1);
    assert_no_ring_overflow(&serial);
    let baseline = fingerprint(&serial);
    assert!(baseline.iter().any(|&x| x > 0));
    // Four replications fill one engine chunk, so the other threads become
    // decode lanes: 2, 4 and 8 lanes must reproduce the serial counters.
    for threads in [2, 4, 8] {
        let r = fingerprint(&run_mac_plan_threads(plan_mac(&sc), threads));
        assert_eq!(baseline, r, "thread count {threads} changed the counters");
    }
}

#[test]
fn cm1_report_is_bit_identical_at_one_and_two_threads() {
    // Multipath records carry `im` planes: the CM1 run must mix them and
    // still reproduce the serial counters on two decode lanes.
    let mut sc = MacScenario::ring(4, 9.0, 1.0, 0xC41);
    sc.net.policy = ChannelPolicy::Static(vec![Channel::new(3).unwrap()]);
    sc.net.channel_model = ChannelModel::Cm1;
    sc.horizon_slots = 200;
    sc.replications = 1;
    let plan = plan_mac(&sc);
    let mut worker = MacWorker::new(&plan);
    worker.trial(&plan, 0, &mut MacAccumulator::default());
    let counts = worker.mix_counts();
    assert!(
        counts.with_im > 0,
        "CM1 sources must mix with im planes: {counts:?}"
    );
    assert_eq!(counts.re_only, 0, "CM1 records are complex: {counts:?}");

    let serial = run_mac_plan_threads(plan, 1);
    assert_no_ring_overflow(&serial);
    let baseline = fingerprint(&serial);
    assert!(serial.links.iter().all(|l| l.stats.ber.total > 0));
    let r = fingerprint(&run_mac_plan_threads(plan_mac(&sc), 2));
    assert_eq!(baseline, r, "two threads changed the CM1 counters");
}

#[test]
fn eight_user_awgn_ring_mixes_every_source_on_the_re_plane() {
    // The `mac_ring8_saturated` shape: eight users on four channels, past
    // the knee. On AWGN no record has an `im` plane.
    let mut sc = MacScenario::ring(8, 9.0, 1.2, 20050307);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect());
    sc.horizon_slots = 200;
    let plan = plan_mac(&sc);
    let mut worker = MacWorker::new(&plan);
    let mut acc = MacAccumulator::default();
    worker.trial(&plan, 0, &mut acc);
    let counts = worker.mix_counts();
    assert!(counts.re_only > 0, "the ring must mix overlapping frames");
    assert_eq!(
        counts.with_im, 0,
        "AWGN sources must mix re-only: {counts:?}"
    );
}

#[test]
fn small_city_never_overflows_the_mixing_ring() {
    // Many links, many overlaps and many frames ending in one slot: the
    // ring of the two most recent transmissions must still hold every
    // frame a victim can overlap.
    let mut sc = MacScenario::clustered_city(8, 6, 9.0, 1.5, 4242);
    sc.horizon_slots = 150;
    let r = run_mac(&sc);
    assert!(r.links.iter().map(|l| l.stats.tx_frames).sum::<u64>() > 50);
    assert_no_ring_overflow(&r);
}

/// Larger thread-parity sweep for `scripts/check.sh mac` (slow: 8 users,
/// collisions, 4 replications x 4 thread counts).
#[test]
#[ignore]
fn eight_user_report_is_bit_identical_across_thread_counts() {
    let mut sc = MacScenario::ring(8, 9.0, 1.0, 77);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect());
    sc.horizon_slots = 400;
    sc.replications = 4;
    let serial = run_mac_plan_threads(plan_mac(&sc), 1);
    assert_no_ring_overflow(&serial);
    let baseline = fingerprint(&serial);
    assert!(baseline.iter().any(|&x| x > 0));
    for threads in [2, 4, 8] {
        let r = fingerprint(&run_mac_plan_threads(plan_mac(&sc), threads));
        assert_eq!(baseline, r, "thread count {threads} changed the counters");
    }
}
