//! Allocation-regression gate for the zero-allocation DSP kernel layer.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm-up trial has populated every pooled buffer (worker scratch, FFT
//! plans, packet frame storage), subsequent gen2 fast-path trials must
//! perform **zero** heap allocations. This pins the PR's core contract: the
//! steady-state Monte-Carlo inner loop never touches the allocator.
//!
//! This integration-test binary deliberately contains a single `#[test]` so
//! no concurrently running test can pollute the allocation counter. The
//! matching 1-vs-N-thread determinism gate lives in
//! `tests/montecarlo_determinism.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uwb_net::{plan_network, NetAccumulator, NetScenario, NetWorker};
use uwb_phy::Gen2Config;
use uwb_platform::link::{LinkScenario, LinkWorker};
use uwb_platform::ErrorCounter;

/// System allocator wrapper that counts every allocation entry point.
///
/// Counts are kept **per thread** (const-init TLS cell, itself
/// allocation-free) in addition to the global total: the libtest harness's
/// main thread lazily initializes its mpmc receive context *while the test
/// thread runs*, so a process-global count intermittently blames the gate
/// for two harness-owned allocations. The contract under test is "the trial
/// loop on *this* thread allocates nothing", which is exactly what the
/// thread-local count measures.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static THREAD_ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one allocator entry on this thread. `try_with` because the
/// allocator can be entered during TLS teardown, when the cell is gone.
fn count() {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOC_CALLS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation as far as the
        // zero-alloc contract is concerned.
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Steady-state gen2 fast-path trials allocate nothing: warm a few
/// trials, then run many more and require the allocation counter to stand
/// still. Uses the same smoke scenario as the Monte-Carlo engine and
/// `dspbench` (AWGN, `preamble_repeats = 2`, 24-byte payload) on the
/// per-trial known-timing body (`LinkWorker::trial_ber`): the worker's
/// record, digitized and statistic buffers and the streaming operators'
/// per-block workspace all ratchet to their high-water capacity during
/// warm-up. A CM1 section then holds the multi-tap channel convolution to
/// the same gate, an acquisition section holds
/// `Gen2Receiver::acquire_record` to its zero-steady-state-allocation
/// claim, and a frame-decode section pins `receive_packet_acquired` to the
/// two allocations its returned packet owns. (Every section lives in this
/// one `#[test]` so no concurrent test can pollute the counter.)
#[test]
fn gen2_fast_path_steady_state_is_allocation_free() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, 20050307);
    let mut worker = LinkWorker::new(&scenario);
    let mut counter = ErrorCounter::default();

    const BLOCK: usize = 4096;
    let trial = |w: &mut LinkWorker, sc: &LinkScenario, len, t, c: &mut ErrorCounter| {
        w.trial_ber(sc, len, BLOCK, &mut uwb_sim::Rand::for_trial(sc.seed, t), c);
    };
    // Warm-up: builds FFT plans (cached per thread) and sizes every pooled
    // buffer in the worker.
    for t in 0..24 {
        trial(&mut worker, &scenario, 24, t, &mut counter);
    }

    let before = thread_allocs();
    for t in 24..224 {
        trial(&mut worker, &scenario, 24, t, &mut counter);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "AWGN 24 B section: steady-state trials must not allocate \
         (allocations {before} before, {after} after 200 trials)"
    );
    // Sanity: the loop actually demodulated bits.
    assert!(counter.total > 0, "trials produced no bits");

    // --- Multipath: the same per-trial body on CM1 (256-byte payload, the
    //     benchmark's multipath link shape) exercises the multi-tap
    //     convolution and its per-block `[history | block]` workspace (the
    //     real burst takes the real-input kernel and its `f64` buffer). CM1
    //     tail lengths vary per realization, so a new trial could
    //     legitimately grow the record once more: the gate warms one fixed
    //     set of trials and replays exactly that set. ---
    let cm1 = LinkScenario {
        channel: uwb_sim::ChannelModel::Cm1,
        ebn0_db: 10.0,
        ..scenario.clone()
    };
    let mut cm1_worker = LinkWorker::new(&cm1);
    let mut cm1_counter = ErrorCounter::default();
    const CM1_TRIALS: u64 = 8;
    for t in 0..CM1_TRIALS {
        trial(&mut cm1_worker, &cm1, 256, t, &mut cm1_counter);
    }

    let before = thread_allocs();
    for _ in 0..3 {
        for t in 0..CM1_TRIALS {
            trial(&mut cm1_worker, &cm1, 256, t, &mut cm1_counter);
        }
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "CM1 256 B replay section: replayed trials must not allocate \
         (allocations {before} before, {after} after 3 replays of {CM1_TRIALS} trials)"
    );
    assert!(cm1_counter.total > 0, "CM1 trials produced no bits");

    // --- Acquisition: `Gen2Receiver::acquire_record` on one warm
    //     `RxState` must not allocate on records it has never seen. The
    //     records are synthesized, noised and digitized up front; the
    //     first one warms the state's scratch. ---
    let rx = uwb_phy::Gen2Receiver::new(scenario.config.clone()).expect("valid config");
    let records: Vec<(Vec<uwb_dsp::Complex>, usize)> = (0..17)
        .map(|trial| {
            let mut rng = uwb_sim::Rand::for_trial(scenario.seed, 1000 + trial);
            let clean = worker.synthesize_clean_streamed(&scenario, 24, BLOCK, &mut rng);
            let mut record = worker.clean_record().to_vec();
            let mut scratch = uwb_dsp::DspScratch::new();
            uwb_dsp::BlockProcessor::process_block(
                &mut uwb_sim::StreamingAwgn::new(clean.n0, clean.awgn_rng),
                &mut record,
                &mut scratch,
            );
            (rx.digitize(&record), clean.slot0_start)
        })
        .collect();
    let mut rx_state = uwb_phy::RxState::new();
    assert!(rx.acquire_record(&records[0].0, &mut rx_state).detected);

    let before = thread_allocs();
    let mut detected = 0;
    for (record, _) in &records[1..] {
        detected += usize::from(rx.acquire_record(record, &mut rx_state).detected);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "warm acquisition must not allocate ({} allocations across {} fresh records)",
        after - before,
        records.len() - 1
    );
    assert_eq!(
        detected,
        records.len() - 1,
        "acquisition missed a 6 dB record"
    );

    // --- Frame decode: `receive_packet_acquired` on the same warm state,
    //     in the link trial's order (known-timing pass, acquisition, frame
    //     decode). Its statistic and decode buffers live in the state; the
    //     allocations left are the returned `ReceivedPacket`'s own storage:
    //       1. the payload bytes (`decode_payload_into`'s `to_vec`);
    //       2. the channel-estimate clone.
    //     A failed decode (header or CRC) allocates nothing. ---
    const ALLOCS_PER_DELIVERED_PACKET: u64 = 2;
    let mut stats = Vec::new();
    let mut frame_allocs = 0;
    let mut delivered = 0;
    for (i, (record, slot0)) in records.iter().enumerate() {
        rx.payload_statistics_predigitized_with(record, *slot0, 24, &mut rx_state, &mut stats);
        let acq = rx.acquire_record(record, &mut rx_state);
        let before = thread_allocs();
        let packet = rx.receive_packet_acquired(record, &acq, &mut rx_state);
        let after = thread_allocs();
        // Record 0 warms the state's frame buffers.
        if i > 0 {
            frame_allocs += after - before;
            delivered += u64::from(packet.is_ok());
        }
    }
    assert!(delivered > 0, "no 6 dB record decoded");
    assert_eq!(
        frame_allocs,
        ALLOCS_PER_DELIVERED_PACKET * delivered,
        "a warm frame decode must allocate only the returned packet's payload \
         and estimate ({frame_allocs} allocations, {delivered} of {} packets delivered)",
        records.len() - 1
    );

    // --- Network warm path: a 2-link co-channel piconet round must also
    //     be allocation-free. Each round runs two full clean syntheses,
    //     two superposition mixes (own + coupled foreign + AWGN), and two
    //     receptions — all out of `NetWorker`'s reused storage. ---
    let mut net_scenario = NetScenario::ring(2, 6.0, 20050314);
    net_scenario.policy =
        uwb_net::ChannelPolicy::Static(vec![uwb_phy::bandplan::Channel::new(3).unwrap()]);
    let plan = plan_network(&net_scenario);
    assert!(
        plan.coupling.iter().all(|row| !row.is_empty()),
        "the 2-link gate must exercise real co-channel mixing"
    );
    let mut net_worker = NetWorker::new(&plan);
    let mut acc = NetAccumulator::default();
    // Warm-up: sizes the per-link workers, the clean-synthesis table, and
    // the mix buffer.
    for r in 0..3 {
        net_worker.round(&plan, r, &mut acc);
    }

    let before = thread_allocs();
    for r in 0..100 {
        net_worker.round(&plan, r, &mut acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state network rounds must not allocate ({} allocations \
         across 100 two-link rounds)",
        after - before
    );
    assert!(
        acc.links.iter().all(|l| l.ber.total > 0),
        "network rounds produced no bits"
    );

    // --- 64-user sparse round: the arena-scheduled, event-driven network
    //     path must also be allocation-free once warm — lazy record
    //     synthesis into recycled arena slots, config-pooled workers,
    //     payload snapshots, and per-victim mixing all out of `NetWorker`'s
    //     preallocated storage. The finite coupling floor makes the graph
    //     sparse, so slots really are recycled mid-round, and round-robin
    //     channels make the channel-major sweep differ from link-id
    //     order, so the gate covers the reordered sweep. ---
    let mut city = NetScenario::ring(64, 6.0, 20050315);
    city.probe_spectral = false;
    city.coupling.floor_db = -60.0;
    let plan = plan_network(&city);
    let edges: usize = plan.coupling.iter().map(|r| r.len()).sum();
    assert!(edges > 0, "the 64-user gate must exercise real mixing");
    let identity: Vec<u32> = (0..plan.len() as u32).collect();
    assert_ne!(
        plan.record_schedule().order(),
        identity.as_slice(),
        "the 64-user gate must sweep victims out of link-id order"
    );
    let mut net_worker = NetWorker::new(&plan);
    let mut acc = NetAccumulator::default();
    for r in 0..2 {
        net_worker.round(&plan, r, &mut acc);
    }

    let before = thread_allocs();
    for r in 2..6 {
        net_worker.round(&plan, r, &mut acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state 64-user rounds must not allocate ({} allocations \
         across 4 rounds)",
        after - before
    );
    assert!(
        acc.links.iter().all(|l| l.ber.total > 0),
        "64-user rounds produced no bits"
    );

    // --- MAC discrete-event trials: the warm steady-state loop (event
    //     heap, queue rings, record pool, mix buffer, telemetry names)
    //     must also be allocation-free. A saturated co-channel pair
    //     exercises every path: arrivals, queueing, carrier-sense defer,
    //     waveform synthesis into pooled records, overlap mixing, decode
    //     failures, ARQ retries, and record recycling. ---
    let mut mac_sc = uwb_mac::MacScenario::ring(2, 6.0, 1.5, 20050316);
    mac_sc.net.policy =
        uwb_net::ChannelPolicy::Static(vec![uwb_phy::bandplan::Channel::new(3).unwrap()]);
    mac_sc.horizon_slots = 200;
    let mac_plan = uwb_mac::plan_mac(&mac_sc);
    assert!(
        mac_plan.net.coupling.iter().all(|row| !row.is_empty()),
        "the MAC gate must exercise real co-channel mixing"
    );
    let mut mac_worker = uwb_mac::MacWorker::new(&mac_plan);
    let mut mac_acc = uwb_mac::MacAccumulator::default();
    // Warm-up: ratchets the event heap, pooled record buffers, and the
    // telemetry name registry to their high-water marks.
    for rep in 0..3 {
        mac_worker.trial(&mac_plan, rep, &mut mac_acc);
    }

    let before = thread_allocs();
    for rep in 3..8 {
        mac_worker.trial(&mac_plan, rep, &mut mac_acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state MAC trials must not allocate ({} allocations \
         across 5 saturated two-link trials)",
        after - before
    );
    assert!(
        mac_acc.links.iter().all(|l| l.delivered > 0),
        "MAC trials delivered no packets"
    );

    // --- The same pair on a 2-lane MAC worker. A slot whose frames all
    //     decode on this thread allocates nothing; a slot split across
    //     lanes spawns one scoped helper thread and merges its telemetry
    //     back, at most `PER_SPLIT` allocations however many frames it
    //     decodes (5 without telemetry, 9 with, 10 with span timelines on
    //     x86-64 Linux). The helper allocates on its own thread, so this section
    //     reads the process-wide count, which the harness can bump by a
    //     couple of allocations (see `CountingAlloc`): `SLACK` covers that.
    //     The counters must match the one-lane worker's. ---
    const PER_SPLIT: u64 = 16;
    const SLACK: u64 = 8;
    let mut lanes_worker = uwb_mac::MacWorker::with_lanes(&mac_plan, 2);
    let mut lanes_acc = uwb_mac::MacAccumulator::default();
    for rep in 0..3 {
        lanes_worker.trial(&mac_plan, rep, &mut lanes_acc);
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let splits_before = lanes_worker.split_batches();
    for rep in 3..8 {
        lanes_worker.trial(&mac_plan, rep, &mut lanes_acc);
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let splits = lanes_worker.split_batches() - splits_before;

    assert!(
        splits > 0,
        "the saturated pair must end frames in the same slot"
    );
    assert!(
        allocs <= PER_SPLIT * splits + SLACK,
        "2-lane MAC trials made {allocs} allocations over {splits} split slots \
         (at most {PER_SPLIT} per split slot)"
    );
    assert_eq!(
        lanes_acc.links, mac_acc.links,
        "decode lanes changed the MAC counters"
    );
}
