//! The MAC measurement phase: a per-thread discrete-event worker on the
//! deterministic Monte-Carlo engine.
//!
//! One *replication* is one engine trial. Inside a trial the worker runs
//! the event loop to completion: Poisson/bursty arrivals feed bounded
//! FIFOs, heads-of-line carrier-sense over the coupling graph's sensable
//! subgraph, defer with binary exponential backoff, transmit a genuinely
//! synthesized waveform, and decode the superposition of every coupled
//! transmission that overlapped the victim's airtime (hidden terminals
//! included — they mix but never defer). Delivery is stop-and-wait ARQ:
//! decode failure or a lost ACK retransmits after backoff until
//! `max_retries` is exhausted.
//!
//! ## Determinism
//!
//! Every random draw in a trial comes from streams keyed on
//! `(master seed, replication, link)`: the per-link MAC stream (arrivals,
//! backoff, ACK loss) and the per-frame waveform stream
//! `Rand::for_trial(link_wave_seed, tx_uid)`. The event queue's total
//! `(time, link, seq)` order does the rest — counters are bit-identical
//! for any `UWB_THREADS` because trials are merged by the engine's
//! ordered-prefix reduction, exactly as in `uwb-net`.
//!
//! ## Waveform retention
//!
//! A transmission's record must stay resident until the last victim whose
//! airtime overlapped it has decoded. A victim decoding at time `T`
//! started at `T - airtime ≥ T - max_airtime`, so any overlapper's end
//! `e_u` satisfies `e_u > T - max_airtime`; conversely a record whose end
//! is at least `max_airtime` old can never be mixed again. Transmitters
//! that nobody couples to (`out_deg == 0`) recycle immediately after
//! their own decode; everyone else schedules a `Release` event
//! `max_airtime` slots after frame end. Each link keeps a ring of its 2
//! most recent transmissions — sufficient because one victim airtime
//! window can overlap at most 2 consecutive frames of one neighbor (their
//! ends are at least one airtime apart). That holds for equal airtimes;
//! `start_tx` counts every eviction of a still-mixable entry in
//! [`MacLinkStats::ring_overflows`] so the assumption is checked, not
//! trusted.
//!
//! ## Same-slot decode batches
//!
//! When the loop pops the first `TxEnd` of slot `T`, it decodes every
//! frame ending at `T` at once (mix → AWGN → known-timing decode, the
//! victim decode [`uwb_net::VictimMixer::decode_victim`] that the network
//! round runs too), spread over the worker's *decode lanes*, and parks
//! each outcome on its link.
//! The outcomes are then applied — counters, ACK-loss draws, follow-up
//! events — as each `TxEnd` pops, in the unchanged `(time, link, seq)`
//! order. This is exact because a decode's inputs are frozen once `T`
//! begins: mixing sources need `start < T`; a record is released only at
//! `end + max_airtime > T`, and a zero-out-degree record is read by no
//! other link; and the one same-slot change a decode could see — a
//! `start_tx` at `T` evicting a still-mixable ring entry — is counted in
//! `ring_overflows`, which the acceptance scenarios pin at zero.
//! Synthesis stays serial: it runs at `Attempt` time, interleaved with
//! carrier sense and the record pool, and is a small share of the work.
//!
//! Pooled records are the network's [`uwb_net::TxRecord`]s, filled by the
//! same [`uwb_net::TxRecord::synthesize`] a network round uses: `re` /
//! `im` planes, the payload snapshot and the synthesis metadata. On AWGN
//! no `im` plane is kept, so every overlapping source is mixed with one
//! real axpy at its slot offset.
//!
//! ## Zero warm-path allocation
//!
//! The event heap, queue rings, record pool (including every `re` plane
//! and payload buffer), mix buffers, and decode scratch are all preallocated
//! in [`MacWorker::with_lanes`] from plan-time bounds and reused across
//! events and trials. A one-lane worker, and any batch of one frame,
//! decodes on the worker's thread and allocates nothing; a batch split
//! across lanes spawns scoped helper threads, a fixed number of
//! allocations per split batch whatever its size.

use crate::events::{Event, EventKind, EventQueue};
use crate::plan::{plan_mac, MacPlan};
use crate::report::MacReport;
use crate::scenario::MacScenario;
use crate::traffic::{ArrivalGen, TrafficModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use uwb_dsp::Complex;
use uwb_net::{Layer, MixCounts, TxRecord, VictimMixer, WaveRecord, WorkerPool};
use uwb_platform::link::DEFAULT_STREAM_BLOCK;
use uwb_platform::metrics::ErrorCounter;
use uwb_sim::montecarlo::{resolve_threads, Merge, MonteCarlo};
use uwb_sim::{derive_trial_seed, Rand};

/// Salt separating the MAC trial-seed domain from the network round
/// domain (both derive from the same scenario master seed).
const MAC_TRIAL_SALT: u64 = 0x6D61_6353_6C6F_7431;
/// Salt separating the per-link MAC control stream (arrivals, backoff,
/// ACK loss) from the per-link waveform stream.
const MAC_CTL_SALT: u64 = 0x6261_636B_6F66_6621;

/// Per-link MAC statistics accumulated over replications.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MacLinkStats {
    /// Packets generated by the traffic source.
    pub offered: u64,
    /// Packets ACKed to the transmitter.
    pub delivered: u64,
    /// Arrivals rejected by the full FIFO.
    pub dropped_queue: u64,
    /// Packets abandoned after the ARQ retry limit.
    pub dropped_retry: u64,
    /// Data frames put on air (first attempts + retransmissions).
    pub tx_frames: u64,
    /// Carrier-sense deferrals (attempts postponed because a sensable
    /// neighbor was on air).
    pub defers: u64,
    /// Retransmitted frames (`tx_frames` minus first attempts).
    pub retries: u64,
    /// Frames whose receiver failed to decode them (collision or noise).
    pub decode_failures: u64,
    /// Frames decoded correctly whose ACK was lost (induced).
    pub ack_losses: u64,
    /// Information bits in delivered packets.
    pub delivered_info_bits: u64,
    /// Sum of arrival→ACK latency over delivered packets, in slots.
    pub latency_slots_sum: u64,
    /// Worst delivered-packet latency, in slots.
    pub latency_slots_max: u64,
    /// Sum of arrival→first-transmission queueing delay, in slots.
    pub queue_delay_slots_sum: u64,
    /// Bit-level error counter over all decoded data frames.
    pub ber: ErrorCounter,
    /// Transmissions that evicted a still-mixable frame from this link's
    /// recent-transmission ring: a later decode could miss that frame.
    /// Zero whenever all airtimes are equal.
    pub ring_overflows: u64,
}

impl Merge for MacLinkStats {
    fn merge(&mut self, other: &Self) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.dropped_queue += other.dropped_queue;
        self.dropped_retry += other.dropped_retry;
        self.tx_frames += other.tx_frames;
        self.defers += other.defers;
        self.retries += other.retries;
        self.decode_failures += other.decode_failures;
        self.ack_losses += other.ack_losses;
        self.delivered_info_bits += other.delivered_info_bits;
        self.latency_slots_sum += other.latency_slots_sum;
        self.latency_slots_max = self.latency_slots_max.max(other.latency_slots_max);
        self.queue_delay_slots_sum += other.queue_delay_slots_sum;
        self.ber.merge(&other.ber);
        self.ring_overflows += other.ring_overflows;
    }
}

/// Engine accumulator: element-wise per-link merge (a fresh chunk
/// accumulator adopts the other side wholesale, mirroring
/// `uwb_net::NetAccumulator`).
#[derive(Debug, Clone, Default)]
pub struct MacAccumulator {
    /// Per-link statistics, indexed by link id.
    pub links: Vec<MacLinkStats>,
}

impl MacAccumulator {
    fn ensure_len(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize(n, MacLinkStats::default());
        }
    }
}

impl Merge for MacAccumulator {
    fn merge(&mut self, other: &Self) {
        if self.links.is_empty() {
            self.links.extend_from_slice(&other.links);
            return;
        }
        assert_eq!(
            self.links.len(),
            other.links.len(),
            "MAC accumulators must cover the same links"
        );
        for (a, b) in self.links.iter_mut().zip(&other.links) {
            a.merge(b);
        }
    }
}

/// A queued packet.
#[derive(Debug, Clone, Copy, Default)]
struct Packet {
    arrival: u64,
}

/// One entry in a link's recent-transmission ring: the on-air interval
/// (in slots) and the record-pool slot holding the waveform.
#[derive(Debug, Clone, Copy, Default)]
struct TxRef {
    start: u64,
    end: u64,
    slot: u32,
    valid: bool,
}

const RECENT: usize = 2;

/// A data frame's decode outcome, computed with its slot's batch and
/// applied when its `TxEnd` pops.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    ok: bool,
    ber: ErrorCounter,
}

/// Per-link mutable MAC state.
#[derive(Debug)]
struct LinkState {
    /// Fixed-capacity FIFO ring.
    q: Vec<Packet>,
    head: usize,
    len: usize,
    /// Backoff exponent stage (saturates at `bexp_max`).
    be: u32,
    /// Failed transmissions of the head-of-line packet so far.
    attempt: u32,
    /// An Attempt/TxEnd/Ack chain is pending for the head-of-line packet.
    engaged: bool,
    /// Queueing delay already recorded for the head-of-line packet.
    service_started: bool,
    /// On-air interval of the most recent activity (data + ACK), for
    /// neighbors' carrier sense.
    busy_from: u64,
    busy_until: u64,
    /// Record-pool slot and start of the in-flight data frame.
    cur_slot: u32,
    cur_start: u64,
    /// Ring of the 2 most recent transmissions (mixing sources).
    recent: [TxRef; RECENT],
    recent_next: usize,
    /// Outcome of the in-flight frame, once its slot has been decoded.
    decoded: Option<Decoded>,
    /// Per-trial frame counter — the waveform-stream uid.
    tx_uid: u64,
    /// Waveform-stream master for this (trial, link).
    wave_seed: u64,
    /// MAC control stream: arrivals, backoff draws, ACK-loss draws.
    rng: Rand,
    /// Arrival process state.
    arrivals: ArrivalGen,
}

impl LinkState {
    fn new(queue_cap: usize, traffic: TrafficModel, rate_pps: f64) -> LinkState {
        LinkState {
            q: vec![Packet::default(); queue_cap],
            head: 0,
            len: 0,
            be: 0,
            attempt: 0,
            engaged: false,
            service_started: false,
            busy_from: 0,
            busy_until: 0,
            cur_slot: 0,
            cur_start: 0,
            recent: [TxRef::default(); RECENT],
            recent_next: 0,
            decoded: None,
            tx_uid: 0,
            wave_seed: 0,
            rng: Rand::new(0),
            arrivals: ArrivalGen::new(traffic, rate_pps),
        }
    }

    fn reset(&mut self, trial_seed: u64, l: usize) {
        self.head = 0;
        self.len = 0;
        self.be = 0;
        self.attempt = 0;
        self.engaged = false;
        self.service_started = false;
        self.busy_from = 0;
        self.busy_until = 0;
        self.cur_slot = 0;
        self.cur_start = 0;
        self.recent = [TxRef::default(); RECENT];
        self.recent_next = 0;
        self.decoded = None;
        self.tx_uid = 0;
        self.wave_seed = uwb_net::link_seed(trial_seed, l);
        self.rng = Rand::for_trial(trial_seed ^ MAC_CTL_SALT, l as u64);
        self.arrivals.reset();
    }

    fn hol(&self) -> Packet {
        self.q[self.head]
    }

    fn enqueue(&mut self, p: Packet) {
        let cap = self.q.len();
        self.q[(self.head + self.len) % cap] = p;
        self.len += 1;
    }

    fn dequeue(&mut self) {
        self.head = (self.head + 1) % self.q.len();
        self.len -= 1;
    }
}

/// Free-list record pool. `reset` restores a deterministic acquisition
/// order for each trial (slot identity never affects results — records
/// are read back only through `TxRef`s — but a fixed order keeps memory
/// behavior reproducible too).
#[derive(Debug, Default)]
struct RecordPool {
    slots: Vec<TxRecord>,
    free: Vec<u32>,
}

impl RecordPool {
    fn with_prealloc(count: usize, sample_cap: usize, payload_cap: usize) -> RecordPool {
        let mut pool = RecordPool {
            slots: Vec::with_capacity(count.max(1)),
            free: Vec::with_capacity(count.max(1)),
        };
        for _ in 0..count {
            pool.slots.push(TxRecord {
                wave: WaveRecord::with_capacity(sample_cap),
                payload: Vec::with_capacity(payload_cap),
                ..TxRecord::default()
            });
        }
        pool.reset();
        pool
    }

    fn reset(&mut self) {
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
    }

    fn acquire(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(TxRecord::default());
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

/// One decode lane: the PHY workers and buffers a decode writes. Lane 0
/// runs on the worker's own thread and also serves synthesis; the others
/// run on scoped helper threads while a batch is split.
struct DecodeLane {
    pool: WorkerPool,
    mixer: VictimMixer,
    /// `(index in the slot's batch, outcome)` of each frame this lane
    /// decoded.
    done: Vec<(usize, Decoded)>,
}

impl DecodeLane {
    fn new(plan: &MacPlan, sample_cap: usize) -> DecodeLane {
        DecodeLane {
            pool: WorkerPool::new(&plan.net),
            mixer: VictimMixer::with_capacity(sample_cap),
            done: Vec::with_capacity(plan.len().max(1)),
        }
    }

    /// Mixes, adds noise to and decodes the frame whose `TxEnd` is `ev`.
    /// Reads the record pool and the links' rings, writes only this lane.
    fn decode(
        &mut self,
        plan: &MacPlan,
        records: &[TxRecord],
        links: &[LinkState],
        ev: &Event,
    ) -> Decoded {
        let (l, now) = (ev.link as usize, ev.time);
        let rec = &records[ev.arg as usize];
        let s_v = links[l].cur_start;
        // Every coupled transmission whose airtime overlapped ours, at its
        // true slot offset. Row order is ascending tx index; within a row,
        // older ring entry first — both deterministic, part of the
        // bit-exactness contract.
        let slot_samples = plan.params.slot_samples as i64;
        let sources = plan.net.coupling[l].iter().flat_map(|&(u, gain)| {
            let nb = &links[u];
            let oldest = nb.recent_next; // ring of 2: next slot = oldest
            (0..RECENT).filter_map(move |k| {
                let r = nb.recent[(oldest + k) % RECENT];
                (r.valid && r.start < now && r.end > s_v).then(|| {
                    let off = (r.start as i64 - s_v as i64) * slot_samples;
                    (&records[r.slot as usize].wave, off as isize, gain)
                })
            })
        });
        let mut ber = ErrorCounter::default();
        let ok = self.mixer.decode_victim(
            Layer::Mac,
            rec,
            sources,
            self.pool.worker_for(l),
            &mut ber,
        );
        Decoded { ok, ber }
    }
}

/// Per-thread MAC worker: the pooled PHY workers plus all event-loop
/// state, preallocated once and reused across trials.
pub struct MacWorker {
    lanes: Vec<DecodeLane>,
    records: RecordPool,
    /// The complex record a synthesis writes before it is split into its
    /// pool slot.
    synth: Vec<Complex>,
    links: Vec<LinkState>,
    events: EventQueue,
    /// The `TxEnd` events of the slot being decoded, in pop order.
    slot_frames: Vec<Event>,
    /// Network-wide bit-error total for the current trial (flight-recorder
    /// score).
    trial_errs: u64,
    split_batches: u64,
}

impl MacWorker {
    /// A one-lane worker: every decode runs on the calling thread.
    pub fn new(plan: &MacPlan) -> MacWorker {
        MacWorker::with_lanes(plan, 1)
    }

    /// Builds the worker from the frozen plan with `lanes` decode lanes
    /// (at least one), pre-sizing every buffer the steady-state loop
    /// touches. Pools are fully preallocated for small networks (≤ 64
    /// links); very large sweeps let the record pool grow lazily during
    /// the first trial instead of reserving 2N records. Results do not
    /// depend on the lane count.
    pub fn with_lanes(plan: &MacPlan, lanes: usize) -> MacWorker {
        let n = plan.len();
        let sample_cap = plan.max_record_len + DEFAULT_STREAM_BLOCK;
        let prealloc = if n <= 64 { 2 * n } else { 0 };
        let links = (0..n)
            .map(|l| LinkState::new(plan.params.queue_cap, plan.params.traffic, plan.rate_pps[l]))
            .collect();
        MacWorker {
            lanes: (0..lanes.max(1))
                .map(|_| DecodeLane::new(plan, sample_cap))
                .collect(),
            records: RecordPool::with_prealloc(prealloc, sample_cap, plan.net.payload_len),
            synth: Vec::with_capacity(sample_cap),
            links,
            events: EventQueue::with_capacity(8 * n + 64),
            slot_frames: Vec::with_capacity(n.max(1)),
            trial_errs: 0,
            split_batches: 0,
        }
    }

    /// Same-slot batches this worker has spread over more than one lane so
    /// far — the batches that spawn helper threads.
    pub fn split_batches(&self) -> u64 {
        self.split_batches
    }

    /// The sources this worker's decodes have mixed so far, by path,
    /// summed over its lanes: on AWGN every one is `re`-only.
    pub fn mix_counts(&self) -> MixCounts {
        self.lanes.iter().fold(MixCounts::default(), |a, lane| {
            let c = lane.mixer.counts();
            MixCounts {
                re_only: a.re_only + c.re_only,
                with_im: a.with_im + c.with_im,
            }
        })
    }

    /// Runs one complete replication: resets all state from
    /// `(plan seed, rep)`, seeds initial arrivals, and drains the event
    /// loop (arrivals stop at the horizon; queues drain to completion, so
    /// `offered == delivered + dropped` at trial end).
    pub fn trial(&mut self, plan: &MacPlan, rep: u64, acc: &mut MacAccumulator) {
        let n = plan.len();
        acc.ensure_len(n);
        let trial_seed = derive_trial_seed(plan.seed() ^ MAC_TRIAL_SALT, rep);
        self.events.clear();
        self.records.reset();
        self.trial_errs = 0;
        for l in 0..n {
            self.links[l].reset(trial_seed, l);
        }
        for l in 0..n {
            let st = &mut self.links[l];
            let t = st.arrivals.next_arrival(0, &mut st.rng);
            if t < plan.params.horizon_slots {
                self.events.push(t, l as u32, EventKind::Arrival, 0);
            }
        }
        while let Some(ev) = self.events.pop() {
            let l = ev.link as usize;
            match ev.kind {
                EventKind::Arrival => self.on_arrival(plan, l, ev.time, acc),
                EventKind::Attempt => self.on_attempt(plan, l, ev.time, acc),
                EventKind::TxEnd => self.on_tx_end(plan, ev, acc),
                EventKind::AckDone => self.on_ack_done(plan, l, ev.time, ev.arg, acc),
                EventKind::Release => self.on_release(l, ev.arg),
            }
        }
        // Trial score for the worst-trial flight recorder (no-op unless
        // the engine armed this trial).
        uwb_obs::recorder::observe(self.trial_errs, 0);
    }

    fn on_arrival(&mut self, plan: &MacPlan, l: usize, now: u64, acc: &mut MacAccumulator) {
        let st = &mut self.links[l];
        let stats = &mut acc.links[l];
        stats.offered += 1;
        if st.len == st.q.len() {
            stats.dropped_queue += 1;
            uwb_obs::event!("mac_queue_drop");
        } else {
            st.enqueue(Packet { arrival: now });
            if !st.engaged {
                st.engaged = true;
                st.attempt = 0;
                st.be = 0;
                st.service_started = false;
                self.events.push(now, l as u32, EventKind::Attempt, 0);
            }
        }
        let st = &mut self.links[l];
        let t = st.arrivals.next_arrival(now, &mut st.rng);
        if t < plan.params.horizon_slots {
            self.events.push(t, l as u32, EventKind::Arrival, 0);
        }
    }

    fn on_attempt(&mut self, plan: &MacPlan, l: usize, now: u64, acc: &mut MacAccumulator) {
        // Carrier sense over the sensable subgraph: a neighbor already on
        // air *strictly before* this slot defers us; two stations starting
        // in the same slot cannot hear each other and will collide — that
        // is the CSMA vulnerable window.
        let busy = plan.sense[l]
            .iter()
            .any(|&u| self.links[u].busy_from < now && self.links[u].busy_until > now);
        if busy {
            uwb_obs::event!("mac_csma_defer");
            acc.links[l].defers += 1;
            let st = &mut self.links[l];
            let cw = plan.params.cw0 << st.be;
            let defer = 1 + st.rng.below(cw as usize) as u64;
            self.events.push(now + defer, l as u32, EventKind::Attempt, 0);
            return;
        }
        self.start_tx(plan, l, now, acc);
    }

    fn start_tx(&mut self, plan: &MacPlan, l: usize, now: u64, acc: &mut MacAccumulator) {
        let slot = self.records.acquire();
        {
            let _t = uwb_obs::span!("mac_synth");
            let st = &mut self.links[l];
            let mut rng = Rand::for_trial(st.wave_seed, st.tx_uid);
            st.tx_uid += 1;
            self.records.slots[slot as usize].synthesize(
                self.lanes[0].pool.worker_for(l),
                &plan.net.links[l].scenario,
                plan.net.payload_len,
                &mut rng,
                &mut self.synth,
            );
        }

        let airtime = plan.airtime_slots[l];
        let st = &mut self.links[l];
        let stats = &mut acc.links[l];
        let evicted = st.recent[st.recent_next];
        if evicted.valid && evicted.end + plan.max_airtime_slots > now {
            // A frame some victim may still mix leaves the ring.
            stats.ring_overflows += 1;
            uwb_obs::event!("mac_ring_overflow");
        }
        st.busy_from = now;
        st.busy_until = now + airtime;
        st.cur_slot = slot;
        st.cur_start = now;
        st.recent[st.recent_next] = TxRef {
            start: now,
            end: now + airtime,
            slot,
            valid: true,
        };
        st.recent_next = (st.recent_next + 1) % RECENT;

        stats.tx_frames += 1;
        if st.attempt > 0 {
            stats.retries += 1;
        } else if !st.service_started {
            st.service_started = true;
            let qd = now - st.hol().arrival;
            stats.queue_delay_slots_sum += qd;
            uwb_obs::digest!("mac_queue_delay_slots", qd);
        }
        self.events
            .push(now + airtime, l as u32, EventKind::TxEnd, slot);
    }

    /// Decodes every frame ending in `first`'s slot, `first` included,
    /// across the decode lanes, and parks each outcome on its link until
    /// that link's `TxEnd` pops. Lanes claim frames from a shared index.
    fn decode_slot(&mut self, plan: &MacPlan, first: Event) {
        self.slot_frames.clear();
        self.slot_frames.push(first);
        self.events
            .pending_at(first.time, EventKind::TxEnd, &mut self.slot_frames);
        let MacWorker {
            lanes,
            records,
            links,
            slot_frames: frames,
            split_batches,
            ..
        } = self;
        let (records, shared_links) = (&records.slots[..], &links[..]);
        // The worker's own lane decodes the last frame last, as a lone
        // lane would, so per-thread "latest value" state (the flight
        // recorder's notes) ends on the same frame for any lane count.
        let last = frames.len() - 1;
        // Relaxed: the counter only hands out indices. Outcomes come back
        // through each lane's `done` once the scope has joined its threads.
        let next = AtomicUsize::new(0);
        let share = |lane: &mut DecodeLane| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= last {
                break;
            }
            let d = lane.decode(plan, records, shared_links, &frames[i]);
            lane.done.push((i, d));
        };
        let own_share = |lane: &mut DecodeLane| {
            share(lane);
            let d = lane.decode(plan, records, shared_links, &frames[last]);
            lane.done.push((last, d));
        };
        let used = lanes.len().min(frames.len());
        let (own, helpers) = lanes[..used]
            .split_first_mut()
            .expect("a worker has at least one lane");
        if helpers.is_empty() {
            own_share(own);
        } else {
            *split_batches += 1;
            let trial = uwb_obs::current_trial();
            std::thread::scope(|s| {
                let share = &share;
                let handles: Vec<_> = helpers
                    .iter_mut()
                    .map(|lane| {
                        s.spawn(move || {
                            uwb_obs::set_trial(trial);
                            share(lane);
                            uwb_obs::take_thread_telemetry()
                        })
                    })
                    .collect();
                own_share(own);
                for h in handles {
                    let telemetry = h.join().expect("decode lane panicked");
                    uwb_obs::merge_thread_telemetry(&telemetry);
                }
            });
        }
        for lane in &mut lanes[..used] {
            for (i, d) in lane.done.drain(..) {
                links[frames[i].link as usize].decoded = Some(d);
            }
        }
    }

    fn on_tx_end(&mut self, plan: &MacPlan, ev: Event, acc: &mut MacAccumulator) {
        let (l, now, slot) = (ev.link as usize, ev.time, ev.arg);
        if self.links[l].decoded.is_none() {
            self.decode_slot(plan, ev);
        }
        let Decoded { ok, ber } = self.links[l]
            .decoded
            .take()
            .expect("a slot's batch decodes all of its frames");
        let stats = &mut acc.links[l];
        stats.ber.merge(&ber);
        self.trial_errs += ber.errors;

        // Recycle the record as soon as it can no longer be mixed.
        if plan.out_deg[l] == 0 {
            self.release_record(l, slot);
        } else {
            self.events.push(
                now + plan.max_airtime_slots,
                l as u32,
                EventKind::Release,
                slot,
            );
        }

        if ok {
            let st = &mut self.links[l];
            // The receiver sends an ACK, which occupies the channel for
            // carrier sensing (event-level model; no ACK waveform).
            st.busy_until = now + plan.params.ack_slots;
            let lost = plan.params.ack_loss > 0.0 && st.rng.chance(plan.params.ack_loss);
            if lost {
                stats.ack_losses += 1;
                uwb_obs::event!("mac_ack_lost");
                self.events.push(
                    now + plan.params.ack_timeout_slots,
                    l as u32,
                    EventKind::AckDone,
                    0,
                );
            } else {
                self.events
                    .push(now + plan.params.ack_slots, l as u32, EventKind::AckDone, 1);
            }
        } else {
            stats.decode_failures += 1;
            uwb_obs::event!("mac_decode_fail");
            self.events.push(
                now + plan.params.ack_timeout_slots,
                l as u32,
                EventKind::AckDone,
                0,
            );
        }
    }

    fn on_ack_done(&mut self, plan: &MacPlan, l: usize, now: u64, acked: u32, acc: &mut MacAccumulator) {
        let st = &mut self.links[l];
        let stats = &mut acc.links[l];
        let finish = if acked == 1 {
            let latency = now - st.hol().arrival;
            stats.delivered += 1;
            stats.delivered_info_bits += 8 * plan.net.payload_len as u64;
            stats.latency_slots_sum += latency;
            stats.latency_slots_max = stats.latency_slots_max.max(latency);
            uwb_obs::digest!("mac_latency_slots", latency);
            uwb_obs::digest!("mac_retries_per_packet", st.attempt as u64);
            true
        } else {
            st.attempt += 1;
            if st.attempt > plan.params.max_retries {
                stats.dropped_retry += 1;
                uwb_obs::event!("mac_retry_drop");
                uwb_obs::digest!("mac_retries_per_packet", st.attempt as u64);
                true
            } else {
                st.be = (st.be + 1).min(plan.params.bexp_max);
                let cw = plan.params.cw0 << st.be;
                let backoff = 1 + st.rng.below(cw as usize) as u64;
                self.events
                    .push(now + backoff, l as u32, EventKind::Attempt, 0);
                false
            }
        };
        if finish {
            let st = &mut self.links[l];
            st.dequeue();
            st.be = 0;
            st.attempt = 0;
            st.service_started = false;
            if st.len > 0 {
                self.events.push(now + 1, l as u32, EventKind::Attempt, 0);
            } else {
                st.engaged = false;
            }
        }
    }

    fn on_release(&mut self, l: usize, slot: u32) {
        self.release_record(l, slot);
    }

    fn release_record(&mut self, l: usize, slot: u32) {
        self.records.release(slot);
        for r in &mut self.links[l].recent {
            if r.valid && r.slot == slot {
                r.valid = false;
            }
        }
    }
}

/// Plans and measures a complete MAC scenario: [`plan_mac`], then
/// `replications` trials on the deterministic parallel engine, then
/// report assembly. Worker count follows `UWB_THREADS` / available
/// parallelism; all counters are bit-identical either way.
pub fn run_mac(scenario: &MacScenario) -> MacReport {
    run_mac_engine(plan_mac(scenario), None)
}

/// The measurement phase over a frozen plan with an explicit worker-thread
/// override — the hook the determinism tests use to compare thread counts
/// in-process.
pub fn run_mac_plan_threads(plan: MacPlan, threads: usize) -> MacReport {
    run_mac_engine(plan, Some(threads))
}

/// Decode lanes per engine worker. The engine hands out replications in
/// chunks of `chunk` trials, so at most `⌈replications / chunk⌉` workers
/// ever get one; the threads they cannot keep busy become decode lanes.
fn decode_lanes(threads: usize, replications: u64, chunk: u64) -> usize {
    let busy = (threads as u64)
        .min(replications.div_ceil(chunk.max(1)))
        .max(1);
    (threads as u64 / busy).max(1) as usize
}

fn run_mac_engine(plan: MacPlan, threads: Option<usize>) -> MacReport {
    let threads = resolve_threads(threads);
    let engine = MonteCarlo::new(plan.seed(), plan.params.replications).threads(threads);
    let lanes = decode_lanes(threads, plan.params.replications, engine.chunk_size);
    let outcome = engine.run(
        || MacWorker::with_lanes(&plan, lanes),
        |w: &mut MacWorker, rep, _rng, acc: &mut MacAccumulator| w.trial(&plan, rep, acc),
        |_| false,
    );
    let mut acc = outcome.value;
    acc.ensure_len(plan.len());
    MacReport::new(plan, acc, outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::decode_lanes;

    #[test]
    fn idle_engine_threads_become_decode_lanes() {
        // One replication on two threads: the second thread decodes.
        assert_eq!(decode_lanes(2, 1, 8), 2);
        // 32 replications keep both threads busy: one lane each.
        assert_eq!(decode_lanes(2, 32, 8), 1);
        // Four replications fit one chunk: every thread is a lane.
        assert_eq!(decode_lanes(8, 4, 8), 8);
        assert_eq!(decode_lanes(1, 1, 8), 1);
        assert_eq!(decode_lanes(4, 0, 8), 4);
        assert_eq!(decode_lanes(3, 16, 8), 1);
    }
}
