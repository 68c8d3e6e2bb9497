//! The measurement phase: replaying a frozen [`NetPlan`] on the
//! deterministic parallel Monte-Carlo engine.
//!
//! One engine *trial* is one network *round*: every link transmits one
//! packet simultaneously; every receiver decodes its own packet out of the
//! superposition of its clean waveform, every coupled foreign waveform
//! (fixed ascending-transmitter mixing order), and its calibrated receiver
//! noise. Rounds are independent by construction — all per-round state is
//! re-derived from `Rand::for_trial(link_seed, round)` — so the engine's
//! ordered-prefix merge makes the whole network run bit-identical for any
//! `UWB_THREADS`.
//!
//! Rounds are **event-driven** over the sparse interference graph: victims
//! are processed in the channel-major sweep of [`RecordSchedule`] (by
//! assigned channel, then by id), so consecutive victims share most of
//! their interferers; each transmitter's clean waveform is synthesized
//! lazily (once per round, at its first reader) into a slot of the shared
//! [`RecordArena`] and recycled after its last reader, so peak waveform
//! memory is the graph's overlap width along the sweep rather than N
//! records, and the records being mixed stay in cache. The sweep order
//! never changes a value: each victim's sum is own record, coupling row in
//! ascending-transmitter order, then its own noise.
//!
//! The sweep itself is one private loop, `NetWorker::sweep`: make the
//! victim's record and its row's records resident, visit the victim, then
//! release the records it read last. A round visits each victim with its
//! decode; an adaptive plan ([`plan_network`] with `adapt` on) drives the
//! same sweep over a probe plan, cut into spans with a schedule each, and
//! visits each victim with its probe measurement.
//!
//! Records are [`crate::TxRecord`]s: `re` / `im` planes, the payload
//! snapshot, the synthesis metadata and the mean power, filled by
//! [`crate::TxRecord::synthesize`] as in the MAC. Every victim goes
//! through the one victim decode the MAC shares,
//! [`VictimMixer::decode_victim`]: on AWGN no record has an `im` plane, so
//! each coupled source costs one real axpy over the `re` plane. A victim
//! with an empty row skips the mix copy — the noise pass reads its own
//! record — which is what makes idle links and isolated clusters nearly
//! free.
//!
//! The warm path allocates nothing: the config-deduplicated worker pool,
//! the arena slots (records, payload snapshots, synthesis metadata) and
//! the mix buffers all live in [`NetWorker`] and are reused round after
//! round (the arena's slot-acquisition sequence is identical every round,
//! so each slot ratchets to its high-water capacity during round 0).

use crate::arena::{RecordArena, RecordSchedule};
use crate::controller::{plan_network, NetPlan};
use crate::mix::{Layer, MixCounts, VictimMixer};
use crate::pool::WorkerPool;
use crate::report::{LinkReport, NetReport};
use crate::scenario::NetScenario;
use uwb_dsp::Complex;
use uwb_platform::metrics::ErrorCounter;
use uwb_sim::montecarlo::{Merge, MonteCarlo};
use uwb_sim::Rand;

/// Per-link error statistics accumulated over measurement rounds.
#[derive(Debug, Clone, Default)]
pub struct LinkRoundStats {
    /// Bit-level error counter (known-timing BER).
    pub ber: ErrorCounter,
    /// Packets attempted (= rounds contributing to the merge).
    pub packets: u64,
    /// Packets with at least one bit error or a decode failure.
    pub packets_bad: u64,
}

impl LinkRoundStats {
    /// Packet error rate over the contributing rounds.
    ///
    /// `NaN` when no packets were attempted — same no-data contract as
    /// [`ErrorCounter::rate`]: "no packets" is *not knowing* the PER, which
    /// must stay distinguishable from a measured PER of zero.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            f64::NAN
        } else {
            self.packets_bad as f64 / self.packets as f64
        }
    }
}

impl Merge for LinkRoundStats {
    fn merge(&mut self, other: &Self) {
        self.ber.merge(&other.ber);
        self.packets += other.packets;
        self.packets_bad += other.packets_bad;
    }
}

/// The engine's merge accumulator: one [`LinkRoundStats`] per link.
///
/// `Merge for Vec<T>` in the engine is *concatenation* (stream semantics),
/// which is wrong here — network rounds must merge **element-wise** per
/// link. The empty-default case (a fresh chunk accumulator) adopts the
/// other side wholesale.
#[derive(Debug, Clone, Default)]
pub struct NetAccumulator {
    /// Per-link statistics, indexed by link id.
    pub links: Vec<LinkRoundStats>,
}

impl NetAccumulator {
    /// Ensures `links` holds exactly `n` entries (idempotent).
    fn ensure_len(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize(n, LinkRoundStats::default());
        }
    }
}

impl Merge for NetAccumulator {
    fn merge(&mut self, other: &Self) {
        if self.links.is_empty() {
            self.links.extend_from_slice(&other.links);
            return;
        }
        assert_eq!(
            self.links.len(),
            other.links.len(),
            "network accumulators must cover the same links"
        );
        for (a, b) in self.links.iter_mut().zip(&other.links) {
            a.merge(b);
        }
    }
}

/// Per-thread measurement state: a config-deduplicated [`LinkWorker`] pool,
/// the shared-waveform arena with its liveness schedule, and the reusable
/// synthesis and mixing buffers. Constructed once per engine worker;
/// everything warm is allocation-free.
///
/// The pool ([`crate::pool::WorkerPool`]) holds one worker per **distinct**
/// `Gen2Config` rather than one per link — a worker only carries
/// configuration-shaped machinery (transmitter, streaming channel, receiver
/// scratch), while the per-round records and payload snapshots live in the
/// arena. A 10 000-link network on a round-robin policy therefore costs 14
/// workers, not 10 000.
///
/// [`LinkWorker`]: uwb_platform::link::LinkWorker
pub struct NetWorker {
    pub(crate) pool: WorkerPool,
    schedule: RecordSchedule,
    pub(crate) arena: RecordArena,
    pub(crate) mixer: VictimMixer,
    /// The complex record a synthesis writes before it is split into its
    /// arena slot.
    synth: Vec<Complex>,
}

impl NetWorker {
    /// Builds the pooled workers, liveness schedule, and arena from the
    /// frozen plan.
    pub fn new(plan: &NetPlan) -> Self {
        NetWorker::with_schedule(plan, plan.record_schedule())
    }

    /// [`NetWorker::new`] sweeping the victims of `schedule`, in its order,
    /// instead of the plan's channel-major sweep of every link.
    pub(crate) fn with_schedule(plan: &NetPlan, schedule: RecordSchedule) -> Self {
        NetWorker {
            pool: WorkerPool::new(plan),
            arena: RecordArena::new(plan.len(), schedule.max_live()),
            schedule,
            mixer: VictimMixer::default(),
            synth: Vec::new(),
        }
    }

    /// The sources this worker's victims have mixed so far, by path: on
    /// AWGN every one is `re`-only.
    pub fn mix_counts(&self) -> MixCounts {
        self.mixer.counts()
    }

    /// Synthesizes link `u`'s clean record for `round` into an arena slot
    /// if it is not already resident. Every record is a pure function of
    /// `(link_seed(u), round)`, so the lazy first-reader order produces
    /// exactly the waveforms an eager 0..n sweep would.
    fn ensure_record(&mut self, plan: &NetPlan, round: u64, u: usize) {
        if self.arena.is_resident(u) {
            return;
        }
        let _t = uwb_obs::span!("net_schedule");
        let mut rng = Rand::for_trial(plan.link_seed(u), round);
        self.arena.acquire(u).synthesize(
            self.pool.worker_for(u),
            &plan.links[u].scenario,
            plan.payload_len,
            &mut rng,
            &mut self.synth,
        );
    }

    /// The one victim sweep: per victim of the schedule, in its order,
    /// make the victim's record and its coupling row's records resident
    /// (`net_schedule`, lazy, shared), `visit` it, then recycle every
    /// record it read last.
    pub(crate) fn sweep(
        &mut self,
        plan: &NetPlan,
        round: u64,
        mut visit: impl FnMut(&mut NetWorker, usize),
    ) {
        for p in 0..self.schedule.order().len() {
            let v = self.schedule.order()[p] as usize;
            self.ensure_record(plan, round, v);
            for &(u, _) in &plan.coupling[v] {
                self.ensure_record(plan, round, u);
            }
            visit(self, v);
            self.arena.release_expired(&self.schedule, p);
        }
    }

    /// Runs one network round (= one engine trial) and accumulates every
    /// link's outcome into `acc`.
    ///
    /// Victims are processed in the schedule's channel-major sweep. Per
    /// victim: materialize the records its coupling row needs, mix own +
    /// coupled foreign records + calibrated AWGN in fixed
    /// ascending-transmitter order (`net_mix`), decode and count
    /// (`net_rx`).
    pub fn round(&mut self, plan: &NetPlan, round: u64, acc: &mut NetAccumulator) {
        self.round_by(plan, round, acc, NetWorker::decode);
    }

    /// One victim's mix, noise and decode on the plane mixer, its row's
    /// records all resident.
    fn decode(&mut self, plan: &NetPlan, v: usize, counter: &mut ErrorCounter) -> bool {
        let arena = &self.arena;
        self.mixer.decode_victim(
            Layer::Net,
            arena.record(v),
            plan.coupling[v]
                .iter()
                .map(|&(u, gain)| (&arena.record(u).wave, 0, gain)),
            self.pool.worker_for(v),
            counter,
        )
    }

    /// [`round`](Self::round) with each victim decoded by `decode`.
    fn round_by(
        &mut self,
        plan: &NetPlan,
        round: u64,
        acc: &mut NetAccumulator,
        decode: fn(&mut NetWorker, &NetPlan, usize, &mut ErrorCounter) -> bool,
    ) {
        acc.ensure_len(plan.len());
        let mut round_errs = 0u64;
        let mut round_bad = 0u64;
        self.sweep(plan, round, |w, v| {
            let own = w.arena.record(v);
            // Per-victim round SINR: own clean power over coupled foreign
            // power (plan gains are amplitude factors → power scales by
            // gain²) plus the calibrated per-sample receiver noise power.
            // Centi-dB with a +100 dB offset keeps the u64 digest monotonic
            // across the practical [-100, +84] dB range.
            let interference: f64 = plan.coupling[v]
                .iter()
                .map(|&(u, gain)| gain * gain * w.arena.record(u).power)
                .sum();
            let sinr = own.power / (interference + own.synthesis().n0).max(f64::MIN_POSITIVE);
            let sinr_cdb = (10.0 * sinr.log10() + 100.0) * 100.0;
            uwb_obs::digest!("net_link_sinr_cdb", sinr_cdb.max(0.0) as u64);

            let stats = &mut acc.links[v];
            let errs_before = stats.ber.errors;
            stats.packets += 1;
            // Own record, then the row in ascending-transmitter order (the
            // summation order is part of the bit-exactness contract), then
            // receiver noise from the RNG state the single-link path would
            // hold — an uncoupled link is bit-identical to an isolated
            // streamed run.
            let ok = decode(w, plan, v, &mut stats.ber);
            if !ok {
                stats.packets_bad += 1;
                round_bad += 1;
            }
            round_errs += stats.ber.errors - errs_before;
        });
        // Finalize this round's flight-recorder snapshot: one network round
        // is one engine trial, scored by its network-wide bit-error total
        // (no-op unless the engine armed the trial).
        uwb_obs::note!("net_round_bad_packets", round_bad);
        uwb_obs::recorder::observe(round_errs, 0);
    }
}

/// Plans and measures a complete network scenario: the planning phase
/// ([`plan_network`]), then `scenario.rounds` measurement rounds on the
/// deterministic parallel engine, then report assembly.
pub fn run_network(scenario: &NetScenario) -> NetReport {
    run_plan(plan_network(scenario))
}

/// Measurement phase over an externally supplied (possibly hand-edited)
/// plan. Worker count follows `UWB_THREADS` / available parallelism; the
/// per-link counters are bit-identical either way.
pub fn run_plan(plan: NetPlan) -> NetReport {
    run_plan_engine(plan, None)
}

/// [`run_plan`] with an explicit worker-thread override — the hook the
/// determinism tests use to compare thread counts within one process
/// without racing on the `UWB_THREADS` environment variable.
pub fn run_plan_threads(plan: NetPlan, threads: usize) -> NetReport {
    run_plan_engine(plan, Some(threads))
}

fn run_plan_engine(plan: NetPlan, threads: Option<usize>) -> NetReport {
    let mut engine = MonteCarlo::new(plan.seed, plan.rounds);
    if let Some(t) = threads {
        engine = engine.threads(t);
    }
    let outcome = engine.run(
        || NetWorker::new(&plan),
        |w: &mut NetWorker, round, _rng, acc: &mut NetAccumulator| w.round(&plan, round, acc),
        |_| false,
    );
    let mut acc = outcome.value;
    acc.ensure_len(plan.len());
    let links: Vec<LinkReport> = plan
        .links
        .iter()
        .zip(&acc.links)
        .map(|(l, s)| LinkReport::new(l, s))
        .collect();
    let mut stats = outcome.stats;
    // Per-link goodput digest, recorded after the workers joined (serial,
    // ascending link order → deterministic for any thread count) and folded
    // into the run's telemetry snapshot.
    for l in &links {
        uwb_obs::digest!("net_link_goodput_kbps", (l.throughput_bps / 1e3) as u64);
    }
    stats.telemetry.merge(&uwb_obs::take_thread_telemetry());
    NetReport::new(links, stats, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{oracle, Source};
    use crate::scenario::ChannelPolicy;
    use uwb_phy::bandplan::Channel;
    use uwb_sim::sv_channel::ChannelModel;

    /// A per-victim decode a round can run.
    type Decode = fn(&mut NetWorker, &NetPlan, usize, &mut ErrorCounter) -> bool;

    /// The oracle victim decode: the complex (AoS) mix the planes replaced,
    /// over the same arena records, with the same spans.
    fn aos_decode(w: &mut NetWorker, plan: &NetPlan, v: usize, counter: &mut ErrorCounter) -> bool {
        let sources: Vec<Source<'_>> = plan.coupling[v]
            .iter()
            .map(|&(u, gain)| (&w.arena.record(u).wave, 0, gain))
            .collect();
        let victim = w.arena.record(v);
        oracle::decode_victim(Layer::Net, victim, &sources, w.pool.worker_for(v), counter)
    }

    /// Runs `rounds` rounds of `plan` on one worker sweeping `schedule`
    /// and decoding with `decode`, returning the accumulator, the rounds'
    /// deterministic telemetry and the worker's mix counts.
    fn sweep_by(
        plan: &NetPlan,
        schedule: RecordSchedule,
        rounds: u64,
        decode: Decode,
    ) -> (NetAccumulator, String, MixCounts) {
        let _ = uwb_obs::take_thread_telemetry();
        let mut worker = NetWorker::with_schedule(plan, schedule);
        let mut acc = NetAccumulator::default();
        for r in 0..rounds {
            worker.round_by(plan, r, &mut acc, decode);
        }
        (
            acc,
            uwb_obs::take_thread_telemetry().to_json_deterministic(),
            worker.mix_counts(),
        )
    }

    /// [`sweep_by`] on the plane mixer.
    fn sweep(plan: &NetPlan, schedule: RecordSchedule, rounds: u64) -> (NetAccumulator, String) {
        let (acc, telemetry, _) = sweep_by(plan, schedule, rounds, NetWorker::decode);
        (acc, telemetry)
    }

    /// Equal per-link counters, bit for bit.
    fn assert_same_links(a: &NetAccumulator, b: &NetAccumulator, what: &str) {
        assert_eq!(a.links.len(), b.links.len());
        for (l, (x, y)) in a.links.iter().zip(&b.links).enumerate() {
            assert_eq!(x.ber, y.ber, "link {l}: {what} changed the counter");
            assert_eq!(x.packets, y.packets);
            assert_eq!(x.packets_bad, y.packets_bad, "link {l}: {what} changed PER");
        }
        assert!(
            a.links.iter().all(|l| l.ber.total > 0),
            "rounds produced no bits"
        );
    }

    /// Channel-major and ascending-id sweeps of `plan` give the same
    /// per-link counters and telemetry over `rounds` rounds.
    fn assert_sweep_order_invariant(plan: &NetPlan, rounds: u64) {
        let ordered = plan.record_schedule();
        let identity = RecordSchedule::build(plan.len(), &plan.coupling);
        assert_ne!(ordered.order(), identity.order(), "the orders must differ");
        assert!(
            plan.coupling.iter().any(|r| !r.is_empty()),
            "the plan must couple"
        );
        let (a, ta) = sweep(plan, ordered, rounds);
        let (b, tb) = sweep(plan, identity, rounds);
        assert_same_links(&a, &b, "sweep order");
        assert_eq!(ta, tb, "sweep order changed the telemetry");
    }

    /// The plane mixer and the complex oracle give the same per-link
    /// counters and telemetry over `rounds` rounds of `plan`; returns the
    /// plane path's mix counts.
    fn assert_matches_oracle(plan: &NetPlan, rounds: u64) -> MixCounts {
        let (a, ta, counts) = sweep_by(plan, plan.record_schedule(), rounds, NetWorker::decode);
        let (b, tb, _) = sweep_by(plan, plan.record_schedule(), rounds, aos_decode);
        assert_same_links(&a, &b, "the plane mix");
        assert_eq!(ta, tb, "the plane mix changed the telemetry");
        let sources: usize = plan.coupling.iter().map(|r| r.len()).sum();
        assert!(sources > 0, "the plan must couple");
        assert_eq!(
            counts.re_only + counts.with_im,
            rounds * sources as u64,
            "every source is mixed once per round"
        );
        counts
    }

    #[test]
    fn awgn_round_matches_the_oracle_on_the_re_plane_alone() {
        let mut sc = NetScenario::clustered_city(20, 10, 7.0, 20050307);
        sc.rounds = 2;
        let counts = assert_matches_oracle(&plan_network(&sc), 2);
        assert_eq!(counts.with_im, 0, "AWGN records must mix re-only");
    }

    #[test]
    fn cm1_round_matches_the_oracle_with_im_planes() {
        let mut sc = NetScenario::clustered_city(6, 4, 9.0, 20050308);
        sc.channel_model = ChannelModel::Cm1;
        sc.rounds = 2;
        let counts = assert_matches_oracle(&plan_network(&sc), 2);
        assert_eq!(counts.re_only, 0, "CM1 records are complex");
        assert!(counts.with_im > 0);
    }

    /// Release-scale gate (run via `scripts/check.sh net`): one round of
    /// the 1,000-user clustered city on the plane mixer matches the
    /// complex oracle worker in every per-link counter and in the
    /// deterministic telemetry, and every source takes the `re`-only path.
    #[test]
    #[ignore = "release-scale gate: scripts/check.sh net runs it with --release"]
    fn thousand_user_city_round_matches_the_oracle() {
        let mut sc = NetScenario::clustered_city(100, 10, 7.0, 20050314 ^ 0x1000);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        assert_eq!(plan.len(), 1000);
        let counts = assert_matches_oracle(&plan, 1);
        assert_eq!(counts.with_im, 0, "AWGN records must mix re-only");
    }

    #[test]
    fn round_is_sweep_order_invariant() {
        let mut sc = NetScenario::clustered_city(20, 10, 7.0, 20050307);
        sc.rounds = 4;
        let plan = plan_network(&sc);
        assert_sweep_order_invariant(&plan, 4);
    }

    /// Release-scale gate (run via `scripts/check.sh net`): the 1,000-user
    /// clustered city of the thread-invariance acceptance test measures
    /// bit-identically under the channel-major and ascending-id sweeps.
    #[test]
    #[ignore = "release-scale gate: scripts/check.sh net runs it with --release"]
    fn thousand_user_clustered_round_is_sweep_order_invariant() {
        let mut sc = NetScenario::clustered_city(100, 10, 7.0, 20050314 ^ 0x1000);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        assert_eq!(plan.len(), 1000);
        assert_sweep_order_invariant(&plan, 1);
    }

    #[test]
    fn record_read_by_a_later_victim_is_unchanged_by_an_earlier_decode() {
        // Link 1's row is emptied by hand while link 0 still reads it.
        // Sweeping 1 before 0 decodes the empty-row victim first while a
        // later victim still needs its record: the decode must leave that
        // record as synthesized, and the round must match the id sweep.
        let mut sc = NetScenario::ring(2, 6.0, 20050314);
        sc.policy = ChannelPolicy::Static(vec![Channel::new(3).unwrap()]);
        sc.probe_spectral = false;
        let mut plan = plan_network(&sc);
        assert_eq!(plan.coupling[0].len(), 1, "link 0 must read link 1");
        plan.coupling[1].clear();
        let reversed = RecordSchedule::ordered(vec![1, 0], &plan.coupling);

        let mut w = NetWorker::with_schedule(&plan, reversed.clone());
        w.ensure_record(&plan, 0, 1);
        let planes = |r: &crate::mix::WaveRecord| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(r.re()), r.im().map(bits))
        };
        let before = planes(&w.arena.record(1).wave);
        w.decode(&plan, 1, &mut ErrorCounter::default());
        assert_eq!(
            planes(&w.arena.record(1).wave),
            before,
            "the decode wrote its own record"
        );

        let (a, _) = sweep(&plan, reversed, 6);
        let (b, _) = sweep(&plan, RecordSchedule::build(2, &plan.coupling), 6);
        assert_same_links(&a, &b, "the reversed sweep");
    }

    #[test]
    fn link_round_stats_merge_is_elementwise() {
        let mut a = NetAccumulator::default();
        a.ensure_len(2);
        a.links[0].packets = 3;
        a.links[0].packets_bad = 1;
        a.links[1].packets = 3;
        let mut b = NetAccumulator::default();
        b.ensure_len(2);
        b.links[0].packets = 2;
        b.links[1].packets = 2;
        b.links[1].packets_bad = 2;
        a.merge(&b);
        assert_eq!(a.links.len(), 2, "element-wise, not concatenation");
        assert_eq!(a.links[0].packets, 5);
        assert_eq!(a.links[0].packets_bad, 1);
        assert_eq!(a.links[1].packets, 5);
        assert_eq!(a.links[1].packets_bad, 2);
    }

    #[test]
    fn empty_accumulator_adopts_other_side() {
        let mut a = NetAccumulator::default();
        let mut b = NetAccumulator::default();
        b.ensure_len(3);
        b.links[2].packets = 7;
        a.merge(&b);
        assert_eq!(a.links.len(), 3);
        assert_eq!(a.links[2].packets, 7);
    }

    #[test]
    fn per_distinguishes_no_data_from_zero_errors() {
        // No packets -> NaN (the ErrorCounter::rate no-data contract), NOT
        // 0.0: "never measured" must not read as "perfect".
        let s = LinkRoundStats::default();
        assert!(s.per().is_nan());
        let s = LinkRoundStats {
            packets: 4,
            packets_bad: 0,
            ..Default::default()
        };
        assert_eq!(s.per(), 0.0);
        let s = LinkRoundStats {
            packets: 4,
            packets_bad: 1,
            ..Default::default()
        };
        assert_eq!(s.per(), 0.25);
    }
}
