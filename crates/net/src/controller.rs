//! The network controller: channel allocation + per-link adaptation.
//!
//! Everything that *reacts to measurements* happens here, in a
//! deterministic **planning phase** before the Monte-Carlo measurement
//! phase starts. The deterministic parallel engine forbids carrying
//! information between trials through worker state, so closed-loop control
//! cannot run inside the measurement loop; instead the controller probes
//! the network once (real synthesized waveforms, real
//! `uwb_phy::spectral` measurements), freezes its decisions into a
//! [`NetPlan`], and the measurement phase replays that static plan —
//! bit-identically for any `UWB_THREADS`.
//!
//! Planning has two stages. The first, `assign`, synthesizes nothing
//! (except under the interference-aware policy, whose allocation
//! measures): it allocates channels, builds the sparse coupling graph on
//! that assignment, and gives every link the base config with its channel
//! written in and its own seed. With adaptation on, the probe pass then
//! measures each link's interference and replaces its config with the
//! adapter's; the adapted configs are its only decision, so without
//! adaptation no probe runs.
//!
//! The probe pass is a measurement round of its own: a [`NetWorker`]
//! sweep at the reserved round `PROBE_ROUND` over a *probe plan* in which
//! every link runs the base config with its own seed under the final
//! coupling rows, so the worker pool holds one worker. It walks victims in
//! the rounds' channel-major order ([`RecordSchedule::channel_major`]),
//! synthesizes each record into the arena at its first reader and recycles
//! it after its last, and visits each victim with a probe measurement
//! instead of a decode: the interference mix on the plane mixer
//! ([`VictimMixer`]), the optional spectral probe, and the adapter. Every
//! adapted config is a pure function of its victim; the order changes only
//! the arena size and the cache traffic, never the plan.
//!
//! Because every config is a pure function of its victim, the sweep is cut
//! into contiguous spans that run on their own threads, each a
//! `NetWorker` on the span's own schedule (`RecordSchedule::split`). A
//! record read on both sides of a cut is synthesized once by each span
//! that reads it — at most `max_live` records per cut — and one span runs
//! inline on the calling thread.

use crate::arena::RecordSchedule;
use crate::coupling::{build_coupling_sparse, coupling_db, CouplingRow};
use crate::mix::{TxRecord, VictimMixer};
use crate::runner::NetWorker;
use crate::scenario::{ChannelPolicy, NetScenario};
use uwb_dsp::Complex;
use uwb_phy::bandplan::Channel;
use uwb_phy::{ChannelConditions, Gen2Config, LinkAdapter, PowerModel, SpectralMonitor};
use uwb_platform::link::{channel_rms_delay_ns, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb_sim::montecarlo::resolve_threads;
use uwb_sim::rng::derive_trial_seed;
use uwb_sim::Rand;

/// Salt that decorrelates per-link seed streams from the engine's per-round
/// trial seeds (both derive from the scenario master seed).
const LINK_SEED_SALT: u64 = 0x9e3a_75f1_7c15_2bd1;

/// The reserved trial index used for planning probes — measurement rounds
/// are `0..rounds` and never reach it.
const PROBE_ROUND: u64 = u64::MAX;

/// Decorrelated master seed for link `l` of a network with master seed
/// `net_seed`. Round `r` of link `l` runs on `Rand::for_trial(seed, r)` —
/// the same schedule a single-link streamed run with `scenario.seed = seed`
/// uses for trial `r`, which is what makes the isolation bit-parity
/// contract testable.
pub fn link_seed(net_seed: u64, l: usize) -> u64 {
    derive_trial_seed(net_seed ^ LINK_SEED_SALT, l as u64)
}

/// Frozen per-link plan entry.
#[derive(Debug, Clone)]
pub struct NetLinkPlan {
    /// The link's complete single-link scenario: adapted config (with the
    /// assigned channel written in), Eb/N0, channel model, and the link's
    /// decorrelated seed.
    pub scenario: LinkScenario,
    /// The assigned band-plan channel (also in `scenario.config.channel`).
    pub channel: Channel,
}

/// The frozen network plan: everything the measurement phase needs, and
/// nothing it may mutate.
#[derive(Debug, Clone)]
pub struct NetPlan {
    /// Per-link entries, indexed by link id.
    pub links: Vec<NetLinkPlan>,
    /// Row `v`: foreign transmitters coupling into receiver `v`
    /// (ascending-index, amplitude gains).
    pub coupling: Vec<CouplingRow>,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Streaming block length in samples: always
    /// [`DEFAULT_STREAM_BLOCK`], which every synthesis uses.
    pub block_len: usize,
    /// Measurement rounds.
    pub rounds: u64,
    /// Network master seed (the Monte-Carlo master).
    pub seed: u64,
}

impl NetPlan {
    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when the plan has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The decorrelated master seed of link `l` (equals
    /// `self.links[l].scenario.seed`).
    pub fn link_seed(&self, l: usize) -> u64 {
        self.links[l].scenario.seed
    }

    /// The channel-major sweep schedule the measurement rounds run (and
    /// an adaptive plan's probe sweep ran); its `max_live` is the round's
    /// arena size.
    pub fn record_schedule(&self) -> RecordSchedule {
        let channels: Vec<Channel> = self.links.iter().map(|l| l.channel).collect();
        RecordSchedule::channel_major(&channels, &self.coupling)
    }
}

/// The planning phase's first stage, which probes nothing: channel
/// allocation, the sparse coupling graph on the final assignment, and per
/// link the base config with the assigned channel written in and the
/// link's decorrelated seed. Only the interference-aware policy
/// synthesizes waveforms (one probe per link, serially, for its measured
/// allocation).
fn assign(scenario: &NetScenario) -> NetPlan {
    // --- Channel allocation. ---
    // The static policies are pure index arithmetic; the greedy
    // interference-aware policy synthesizes a dense probe table
    // (documented small-N), serially.
    let channels = allocate_channels(scenario);

    // --- Sparse interference graph on the final assignment. ---
    // Couplings below the scenario's floor are never enumerated; with the
    // default parameters the rows are bit-identical to the dense
    // `build_coupling` reference.
    let coupling = {
        let _t = uwb_obs::span!("net_coupling");
        build_coupling_sparse(
            &scenario.topology,
            &scenario.selectivity,
            &channels,
            &scenario.coupling,
        )
    };

    let links = channels
        .into_iter()
        .enumerate()
        .map(|(l, channel)| {
            let mut config = scenario.base_config.clone();
            config.channel = channel;
            NetLinkPlan {
                scenario: link_scenario(scenario, config, l),
                channel,
            }
        })
        .collect();
    NetPlan {
        links,
        coupling,
        payload_len: scenario.payload_len,
        block_len: DEFAULT_STREAM_BLOCK,
        rounds: scenario.rounds,
        seed: scenario.seed,
    }
}

/// Runs the planning phase: channel allocation, the coupling graph, and
/// with `scenario.adapt` set the probe pass — probe synthesis on the final
/// assignment, the interference measurement, the optional spectral probe
/// and measurement-driven adaptation. Without adaptation no probe is
/// synthesized (except the interference-aware policy's allocation
/// probes) and every link keeps the base config with its channel written
/// in.
///
/// Deterministic — a pure function of the scenario, bit-identical for any
/// `UWB_THREADS`. The probe sweep runs in contiguous spans, one per
/// thread while each span keeps at least the schedule's `max_live`
/// victims; a small network takes one span on the calling thread.
/// Telemetry: each probe synthesis runs under a `net_schedule` span, as in
/// the rounds, and the helper threads' stages merge into the calling
/// thread's.
///
/// # Panics
///
/// Panics if the scenario has no links, a policy candidate list is empty,
/// or an adapted configuration fails validation.
pub fn plan_network(scenario: &NetScenario) -> NetPlan {
    plan_network_swept(scenario, RecordSchedule::channel_major, None).0
}

/// The deterministic work of one plan: the probe sweep's spans (0 without
/// adaptation) and the probe syntheses over the whole plan.
#[derive(Debug, PartialEq, Eq)]
struct PlanWork {
    spans: usize,
    syntheses: usize,
}

/// [`plan_network`] with the probe sweep's schedule built by `order_by`
/// from the channel assignment and the coupling rows, and the span count
/// bounded by `threads` (`None`: [`resolve_threads`]'s default).
fn plan_network_swept(
    scenario: &NetScenario,
    order_by: fn(&[Channel], &[CouplingRow]) -> RecordSchedule,
    threads: Option<usize>,
) -> (NetPlan, PlanWork) {
    assert!(!scenario.is_empty(), "network needs at least one link");
    let n = scenario.len();
    let allocation_probes = match scenario.policy {
        ChannelPolicy::InterferenceAware(_) => n,
        _ => 0,
    };
    let mut plan = assign(scenario);
    if !scenario.adapt {
        let work = PlanWork {
            spans: 0,
            syntheses: allocation_probes,
        };
        return (plan, work);
    }

    // The probe plan is the assignment with every link back on the base
    // config (and its own seed), so its worker pool holds one worker.
    let channels: Vec<Channel> = plan.links.iter().map(|l| l.channel).collect();
    for link in &mut plan.links {
        link.scenario.config.channel = scenario.base_config.channel;
    }

    // --- Per-link probe measurements on the final assignment. ---
    // A `NetWorker` sweep of the probe plan in the measurement rounds'
    // order, cut into contiguous spans that run concurrently. A span costs
    // an arena of up to `max_live` records and re-synthesizes the records
    // live across its cut, so spans are kept only while each holds at
    // least `max_live` victims.
    let schedule = order_by(&channels, &plan.coupling);
    let t = resolve_threads(threads).min(n / schedule.max_live()).max(1);
    let spans = schedule.split(&plan.coupling, t);
    let work = PlanWork {
        spans: spans.len(),
        syntheses: allocation_probes + spans.iter().map(RecordSchedule::records).sum::<usize>(),
    };
    let measure = Measure {
        scenario,
        channels: &channels,
        monitor: SpectralMonitor::new(),
        adapter: LinkAdapter::new(scenario.base_config.clone(), PowerModel::cmos180()),
        delay_ns: channel_rms_delay_ns(scenario.channel_model, 8, scenario.seed),
    };
    let swept = on_threads(spans, |span| measure.span(&plan, span));

    // The sweep visits every victim once: each adapted config replaces
    // its link's probe config.
    for (v, config) in swept.into_iter().flatten() {
        plan.links[v].scenario.config = config;
    }
    (plan, work)
}

/// Link `l`'s single-link scenario on `config`, with its decorrelated seed.
fn link_scenario(scenario: &NetScenario, config: Gen2Config, l: usize) -> LinkScenario {
    LinkScenario {
        config,
        channel: scenario.channel_model,
        ebn0_db: scenario.ebn0_db,
        interferer: None,
        notch_enabled: false,
        seed: link_seed(scenario.seed, l),
    }
}

/// Runs `job` on every item and returns the results in item order: the
/// last item on the calling thread, the others on scoped helper threads
/// whose telemetry merges into the caller's. One item runs inline, with
/// no thread spawned.
fn on_threads<I: Send, R: Send>(mut items: Vec<I>, job: impl Fn(I) -> R + Sync) -> Vec<R> {
    let last = items.pop().expect("at least one item");
    if items.is_empty() {
        return vec![job(last)];
    }
    std::thread::scope(|s| {
        let job = &job;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                s.spawn(move || {
                    let r = job(item);
                    (r, uwb_obs::take_thread_telemetry())
                })
            })
            .collect();
        let own = job(last);
        let mut out: Vec<R> = handles
            .into_iter()
            .map(|h| {
                let (r, telemetry) = h.join().expect("planner thread panicked");
                uwb_obs::merge_thread_telemetry(&telemetry);
                r
            })
            .collect();
        out.push(own);
        out
    })
}

/// Everything a probe-sweep span reads and no span writes: the scenario,
/// the final assignment, and the measurement machinery.
struct Measure<'a> {
    scenario: &'a NetScenario,
    channels: &'a [Channel],
    monitor: SpectralMonitor,
    adapter: LinkAdapter,
    delay_ns: f64,
}

impl Measure<'_> {
    /// Sweeps the victims of `span` over the probe plan `probes` on a
    /// worker of its own and returns their adapted configs with their link
    /// ids, in sweep order.
    fn span(&self, probes: &NetPlan, span: RecordSchedule) -> Vec<(usize, Gen2Config)> {
        let mut worker = NetWorker::with_schedule(probes, span);
        let mut spectral_mix = Vec::new();
        let mut configs = Vec::new();
        worker.sweep(probes, PROBE_ROUND, |w, v| {
            configs.push((v, self.config(probes, w, v, &mut spectral_mix)));
        });
        configs
    }

    /// Victim `v`'s adapted config, its row's probe records all resident
    /// in `w`'s arena.
    fn config(
        &self,
        probes: &NetPlan,
        w: &mut NetWorker,
        v: usize,
        spectral_mix: &mut Vec<Complex>,
    ) -> Gen2Config {
        let scenario = self.scenario;
        let (arena, mixer) = (&w.arena, &mut w.mixer);
        let own = arena.record(v);
        let row = &probes.coupling[v];

        // Interference superposition at receiver v under the final plan,
        // mixed in the same fixed ascending-transmitter order (and with the
        // same per-edge gains) as the measurement phase.
        mixer.start_zeros(own.wave.len());
        let any = !row.is_empty();
        for &(u, gain) in row {
            mixer.add(&arena.record(u).wave, 0, gain);
        }
        let p_intf = if any { mixer.mean_power() } else { 0.0 };

        // Spectral measurement over own signal + interference (optional:
        // the Welch PSD dominates plan time on large networks).
        let detected = scenario.probe_spectral && {
            mixer.add(&own.wave, 0, 1.0);
            mixer.complex_into(spectral_mix);
            let fs = scenario.base_config.sample_rate.as_hz();
            self.monitor.analyze(spectral_mix, fs).detected
        };

        // Adaptation: probe-measured SINR → operating point. The noise
        // power per complex sample is n0 (two-sided, I+Q), so the SNR
        // degradation from interference is (N + I) / N.
        let p_noise = own.synthesis().n0.max(1e-300);
        let degradation_db = 10.0 * (1.0 + p_intf / p_noise).log10();
        let conditions = ChannelConditions {
            snr_db: scenario.ebn0_db - degradation_db,
            delay_spread_ns: self.delay_ns,
            interferer_present: detected || any,
        };
        // The channel assignment overrides the adapter's base channel.
        let mut config = self.adapter.adapt(&conditions).config;
        config.channel = self.channels[v];
        config.validate().expect("adapted config");
        config
    }
}

/// Executes the scenario's channel-allocation policy.
fn allocate_channels(scenario: &NetScenario) -> Vec<Channel> {
    let n = scenario.len();
    match &scenario.policy {
        ChannelPolicy::Static(chs) | ChannelPolicy::RoundRobin(chs) => {
            assert!(!chs.is_empty(), "channel policy needs candidates");
            (0..n).map(|l| chs[l % chs.len()]).collect()
        }
        ChannelPolicy::InterferenceAware(candidates) => {
            assert!(!candidates.is_empty(), "channel policy needs candidates");
            // The greedy policy compares *measured* interference mixes on
            // every (candidate, assigned) pair, so it materializes the full
            // O(N) probe-record table and scans O(N²) pairs — a planning
            // policy for small networks, kept dense by design. Large
            // networks use the static policies, which are free. Probes run
            // every link on the base config with its own seed.
            let probe_links: Vec<LinkScenario> = (0..n)
                .map(|l| link_scenario(scenario, scenario.base_config.clone(), l))
                .collect();
            let mut worker = LinkWorker::new(&probe_links[0]);
            let mut synth = Vec::new();
            let records: Vec<TxRecord> = probe_links
                .iter()
                .map(|probe| {
                    let mut record = TxRecord::default();
                    let mut rng = Rand::for_trial(probe.seed, PROBE_ROUND);
                    let len = scenario.payload_len;
                    record.synthesize(&mut worker, probe, len, &mut rng, &mut synth);
                    record
                })
                .collect();
            let mut assigned: Vec<Channel> = Vec::with_capacity(n);
            let mut mixer = VictimMixer::default();
            for v in 0..n {
                let mut best = candidates[0];
                let mut best_power = f64::INFINITY;
                for &cand in candidates {
                    // Measured interference power at v on this candidate:
                    // superpose the already-assigned transmitters' probe
                    // waveforms through the coupling model and measure.
                    mixer.start_zeros(records[v].wave.len());
                    let mut any = false;
                    for (u, &ch_u) in assigned.iter().enumerate() {
                        if let Some(db) =
                            coupling_db(&scenario.topology, &scenario.selectivity, u, ch_u, v, cand)
                        {
                            mixer.add(&records[u].wave, 0, 10f64.powf(db / 20.0));
                            any = true;
                        }
                    }
                    let p = if any { mixer.mean_power() } else { 0.0 };
                    if p < best_power {
                        best_power = p;
                        best = cand;
                    }
                }
                assigned.push(best);
            }
            assigned
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::topology::Topology;

    #[test]
    fn link_seeds_are_decorrelated() {
        let s0 = link_seed(42, 0);
        let s1 = link_seed(42, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, 42);
        // Different master seeds move every link seed.
        assert_ne!(link_seed(43, 0), s0);
    }

    #[test]
    fn round_robin_assignment_cycles() {
        let mut sc = NetScenario::ring(5, 8.0, 1);
        sc.policy = ChannelPolicy::RoundRobin(vec![
            Channel::new(0).unwrap(),
            Channel::new(5).unwrap(),
            Channel::new(10).unwrap(),
        ]);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        let idx: Vec<usize> = plan.links.iter().map(|l| l.channel.index()).collect();
        assert_eq!(idx, vec![0, 5, 10, 0, 5]);
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn static_assignment_sets_config_channel() {
        let mut sc = NetScenario::ring(2, 8.0, 2);
        sc.policy = ChannelPolicy::Static(vec![Channel::new(7).unwrap()]);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        for l in &plan.links {
            assert_eq!(l.channel.index(), 7);
            assert_eq!(l.scenario.config.channel.index(), 7);
        }
        // Co-channel pair: each receiver sees the other transmitter.
        assert_eq!(plan.coupling[0], vec![(1, plan.coupling[0][0].1)]);
        assert!(plan.coupling[0][0].1 > 0.0);
    }

    #[test]
    fn interference_aware_spreads_co_located_links() {
        // Two tightly packed links: the greedy policy must not put the
        // second on the first's channel when a far channel is available.
        let mut sc = NetScenario::ring(2, 8.0, 3);
        sc.topology = Topology::ring(2, 0.5, 1.0);
        sc.policy = ChannelPolicy::InterferenceAware(vec![
            Channel::new(3).unwrap(),
            Channel::new(9).unwrap(),
        ]);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        assert_eq!(
            plan.links[0].channel.index(),
            3,
            "first pick: first candidate"
        );
        assert_eq!(plan.links[1].channel.index(), 9, "second link must dodge");
        assert!(plan.coupling.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn adaptation_produces_valid_operating_points() {
        let mut sc = NetScenario::ring(4, 6.0, 4);
        sc.adapt = true;
        sc.base_config.adc_bits = 1;
        sc.policy = ChannelPolicy::Static(vec![Channel::new(3).unwrap()]);
        sc.rounds = 1;
        let plan = plan_network(&sc);
        for l in &plan.links {
            let config = &l.scenario.config;
            config.validate().unwrap();
            assert_eq!(config.channel, l.channel);
            // All-co-channel, everyone sees interference: the adapter
            // raises the 1-bit ADC to 4 bits.
            assert_eq!(config.adc_bits, 4);
        }
    }

    /// Equal plans, bit for bit: coupling gains on `to_bits`, every other
    /// field on `Debug`.
    fn assert_same_plan(a: &NetPlan, b: &NetPlan, what: &str) {
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.coupling.iter().zip(&b.coupling) {
            let bits =
                |r: &CouplingRow| r.iter().map(|&(u, g)| (u, g.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(ra), bits(rb), "{what} changed a coupling row");
        }
        for (l, (x, y)) in a.links.iter().zip(&b.links).enumerate() {
            // Debug prints every f64 in its shortest round-trip form, so
            // equal strings mean equal entries.
            assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{what} changed link {l}"
            );
        }
    }

    #[test]
    fn plan_is_sweep_order_invariant() {
        // Channel-major versus ascending-id probe sweep on a 200-link city
        // with adaptation and spectral probing on: equal plans, bit for
        // bit. The city's round-robin channels make the two orders differ.
        let a = plan_network(&city_200());
        let b = plan_network_swept(
            &city_200(),
            |ch, rows| RecordSchedule::build(ch.len(), rows),
            Some(1),
        )
        .0;
        assert!(
            a.coupling.iter().any(|r| !r.is_empty()),
            "the city must couple"
        );
        assert_ne!(
            a.record_schedule().order(),
            RecordSchedule::build(a.len(), &a.coupling).order()
        );
        assert_same_plan(&a, &b, "the sweep order");
    }

    /// The 200-link city with adaptation and spectral probing on.
    fn city_200() -> NetScenario {
        let mut sc = NetScenario::clustered_city(20, 10, 7.0, 20050307);
        sc.adapt = true;
        sc.probe_spectral = true;
        sc
    }

    /// Plans `sc` on each of `threads` and checks every plan equals the
    /// one-thread plan bit for bit, and that each plan makes the probe
    /// syntheses its work claims (with telemetry on: one `tx` stage call
    /// per synthesis, and `channel` stage calls in proportion, every probe
    /// record being the same length). A cut re-synthesizes the records
    /// live across it, at most the sweep's `max_live`. Returns each plan's
    /// work.
    fn assert_thread_invariant(sc: &NetScenario, threads: &[usize]) -> Vec<PlanWork> {
        let plan = |t: usize| {
            let _ = uwb_obs::take_thread_telemetry();
            let (plan, work) = plan_network_swept(sc, RecordSchedule::channel_major, Some(t));
            let telemetry = uwb_obs::take_thread_telemetry();
            let calls = |stage| telemetry.stage(stage).map_or(0, |s| s.calls as usize);
            (plan, work, [calls("tx"), calls("channel")])
        };
        let (serial, serial_work, serial_calls) = plan(1);
        assert_eq!(serial_work.spans, 1);
        let max_live = serial.record_schedule().max_live();
        threads
            .iter()
            .map(|&t| {
                let (p, work, [tx, channel]) = plan(t);
                assert_same_plan(&serial, &p, &format!("{t} threads"));
                assert!(work.spans <= t);
                if uwb_obs::enabled() {
                    assert_eq!(tx, work.syntheses, "{t} threads: one tx per synthesis");
                    assert_eq!(
                        channel * serial_work.syntheses,
                        serial_calls[1] * work.syntheses,
                        "{t} threads: channel stage calls"
                    );
                }
                assert!(
                    work.syntheses >= serial_work.syntheses
                        && work.syntheses <= serial_work.syntheses + (work.spans - 1) * max_live,
                    "{t} threads: {work:?}"
                );
                work
            })
            .collect()
    }

    #[test]
    fn plan_is_thread_invariant_on_the_city() {
        let sc = city_200();
        let work = assert_thread_invariant(&sc, &[1, 2, 3, 8]);
        assert_eq!(
            work[0],
            PlanWork {
                spans: 1,
                syntheses: sc.len()
            },
            "one span synthesizes every probe once"
        );
        assert!(
            work[1].spans == 2 && work[1].syntheses > sc.len(),
            "{:?}",
            work[1]
        );
        assert!(
            work[2].spans == 3 && work[2].syntheses > work[1].syntheses,
            "{:?}",
            work[2]
        );
    }

    #[test]
    fn ring_plans_in_one_span() {
        // Adapted, round-robin over all 14 channels and over four (the
        // saturated MAC ring's policy): every record stays live, so no cut
        // pays.
        let mut sc = NetScenario::ring(8, 8.0, 77);
        sc.adapt = true;
        for policy in [
            sc.policy.clone(),
            ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect()),
        ] {
            sc.policy = policy;
            for w in assert_thread_invariant(&sc, &[1, 2, 3, 8]) {
                let one_span = PlanWork {
                    spans: 1,
                    syntheses: 8,
                };
                assert_eq!(w, one_span);
            }
        }
    }

    #[test]
    fn interference_aware_plan_is_thread_invariant() {
        // The greedy allocation synthesizes every probe once, serially,
        // before the sweep synthesizes them again.
        let mut sc = NetScenario::ring(4, 8.0, 5);
        sc.topology = Topology::ring(4, 0.5, 1.0);
        sc.adapt = true;
        sc.policy = ChannelPolicy::InterferenceAware(vec![
            Channel::new(3).unwrap(),
            Channel::new(4).unwrap(),
        ]);
        for w in assert_thread_invariant(&sc, &[1, 2, 3, 8]) {
            assert_eq!(w.syntheses, 8);
        }
    }

    #[test]
    #[ignore = "release-scale gate: scripts/check.sh net runs it with --release"]
    fn thousand_user_city_plan_is_thread_invariant() {
        // The net_city_1k benchmark's floor plan and seed, adapted: the one
        // cut re-synthesizes the 95 records live across it.
        let mut sc = NetScenario::clustered_city(100, 10, 9.0, 20050307);
        sc.adapt = true;
        let work = assert_thread_invariant(&sc, &[2]);
        let two_spans = PlanWork {
            spans: 2,
            syntheses: 1095,
        };
        assert_eq!(work[0], two_spans);
    }

    #[test]
    fn unadapted_plans_do_not_probe() {
        // Without adaptation the probe sweep decides nothing, so it does
        // not run: the round-robin city and the 8-ring (both with the
        // spectral probe on) synthesize nothing, and the interference-aware
        // policy only its allocation probes.
        let mut city = city_200();
        city.adapt = false;
        let ring = NetScenario::ring(8, 8.0, 77);
        let mut aware = NetScenario::ring(4, 8.0, 5);
        aware.topology = Topology::ring(4, 0.5, 1.0);
        aware.policy = ChannelPolicy::InterferenceAware(vec![
            Channel::new(3).unwrap(),
            Channel::new(4).unwrap(),
        ]);
        for (sc, syntheses) in [(&city, 0), (&ring, 0), (&aware, 4)] {
            assert!(sc.probe_spectral);
            let _ = uwb_obs::take_thread_telemetry();
            let (plan, work) = plan_network_swept(sc, RecordSchedule::channel_major, None);
            let telemetry = uwb_obs::take_thread_telemetry();
            assert_eq!(
                work,
                PlanWork {
                    spans: 0,
                    syntheses
                }
            );
            if uwb_obs::enabled() {
                let tx = telemetry.stage("tx").map_or(0, |s| s.calls as usize);
                assert_eq!(tx, syntheses, "one tx per allocation probe");
            }
            for (l, link) in plan.links.iter().enumerate() {
                let mut base = sc.base_config.clone();
                base.channel = link.channel;
                assert_eq!(link.scenario.config, base, "link {l} keeps the base config");
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let mut sc = NetScenario::ring(6, 8.0, 77);
        sc.adapt = true;
        let a = plan_network(&sc);
        let b = plan_network(&sc);
        assert_eq!(a.coupling, b.coupling);
        for (x, y) in a.links.iter().zip(b.links.iter()) {
            assert_eq!(x.channel, y.channel);
            assert_eq!(format!("{:?}", x.scenario), format!("{:?}", y.scenario));
        }
    }
}
