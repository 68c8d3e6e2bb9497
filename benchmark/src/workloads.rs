//! The benchmark's workloads: their inputs, set-up, one measured sample,
//! the same work replayed through direct worker calls, and the result
//! fingerprint every sample is checked against.
//!
//! Every call here goes through a library crate's public API; nothing is
//! added to any crate. A *unit* is one worker-level piece of work: a link
//! trial, a network round, or a MAC replication.

use std::ops::Range;
use std::time::{Duration, Instant};
use uwb_mac::{
    plan_mac, run_mac_plan_threads, MacAccumulator, MacLinkStats, MacPlan, MacScenario, MacWorker,
};
use uwb_net::{
    plan_network, run_plan_threads, ChannelPolicy, NetAccumulator, NetPlan, NetScenario, NetWorker,
};
use uwb_phy::bandplan::Channel;
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_budgeted, run_ber_fast_streamed_tuned, BatchScratch, LinkOutcome, LinkScenario,
    LinkWorker, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb_platform::ErrorCounter;
use uwb_sim::montecarlo::resolve_batch;
use uwb_sim::sv_channel::ChannelModel;
use uwb_sim::Rand;

use crate::trace::Tracer;

/// The workload seed when `--seed` is not given: the repository's
/// `EXPERIMENT_SEED` (DATE 2005, Munich, 7 March), so the default run
/// replays the inputs behind the published experiment numbers.
pub const DEFAULT_SEED: u64 = 20050307;

/// Seed of the two city floor plans. The floor plan is part of the
/// workload, like its size and load; `--seed` draws everything that
/// happens on it. Across seeds a seeded floor plan alone moves city
/// throughput by about 11 % (measured with host drift cancelled).
const FLOOR_PLAN_SEED: u64 = DEFAULT_SEED;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_ber_budgeted`: acquisition, header, CRC and payload per packet.
    LinkFull,
    /// `run_ber_fast_streamed_tuned`: batched known-timing BER.
    LinkBer,
    /// `run_plan_threads` over the planned 1,000-link city.
    NetCity,
    /// `run_mac_plan_threads` over the planned 8-user ring.
    MacRing,
    /// `run_mac_plan_threads` over the planned 1,000-link city.
    MacCity,
}

/// One workload: a fixed scenario whose random draws come from the seed.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Which entry point it drives.
    pub kind: Kind,
    /// Units per sample: link trials, network rounds or MAC replications.
    pub units: u64,
    /// Packets the traced run re-synthesizes for the per-stage probes.
    pub probe_packets: u64,
}

/// The workloads, in the order a full run takes them. A sample is as short
/// as the engine allows while still using two threads (a network or MAC
/// sample needs two 8-trial chunks, or is one replication), so a run holds
/// many samples: 0.3–0.5 s for the link and ring workloads, 2–3 s for the
/// two cities, at two threads on a 2-vCPU host. The run length comes from
/// `--seconds`.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "link_full_awgn",
        kind: Kind::LinkFull,
        units: 3_000,
        probe_packets: 2_000,
    },
    Spec {
        name: "link_ber_cm1",
        kind: Kind::LinkBer,
        units: 600,
        probe_packets: 600,
    },
    Spec {
        name: "net_city_1k",
        kind: Kind::NetCity,
        units: 16,
        probe_packets: 400,
    },
    Spec {
        name: "mac_ring8_saturated",
        kind: Kind::MacRing,
        units: 32,
        probe_packets: 400,
    },
    Spec {
        name: "mac_city_1k",
        kind: Kind::MacCity,
        units: 1,
        probe_packets: 400,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The gen2 100 Mb/s configuration with two preamble repetitions, the
/// repository's fast-test configuration.
fn gen2() -> Gen2Config {
    Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    }
}

/// A link workload's input.
#[derive(Clone)]
pub struct LinkInput {
    /// The scenario.
    pub sc: LinkScenario,
    /// Payload bytes per packet.
    pub len: usize,
    /// Full path (`run_ber_budgeted`) or known-timing BER.
    pub full: bool,
    /// Trials per sample.
    pub units: u64,
}

/// The workload's prepared input: what set-up produces and samples reuse.
pub enum Input {
    /// A link scenario and how to run it.
    Link(LinkInput),
    /// A frozen network plan.
    Net(NetPlan),
    /// A frozen MAC plan.
    Mac(MacPlan),
}

impl Spec {
    /// Runs the workload's set-up once for samples of `units` units and
    /// returns the input with the time set-up took. For the link workloads
    /// set-up is `LinkWorker::new` plus one cold trial on a freshly spawned
    /// thread (FFT plans are thread-local, so every new engine thread pays
    /// for them again); for the network and MAC workloads it is planning.
    pub fn setup(&self, seed: u64, units: u64) -> (Input, Duration) {
        match self.kind {
            Kind::LinkFull | Kind::LinkBer => {
                let full = self.kind == Kind::LinkFull;
                let (sc, len) = if full {
                    (LinkScenario::awgn(gen2(), 6.0, seed), 24)
                } else {
                    let sc = LinkScenario {
                        channel: ChannelModel::Cm1,
                        ..LinkScenario::awgn(gen2(), 10.0, seed)
                    };
                    (sc, 256)
                };
                let cold = sc.clone();
                let took = std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let mut w = LinkWorker::new(&cold);
                    if full {
                        let mut rng = Rand::for_trial(cold.seed, 0);
                        w.trial_full(&cold, len, &mut rng, &mut LinkOutcome::default());
                    } else {
                        let (mut scratch, mut c) = (BatchScratch::new(), ErrorCounter::default());
                        w.trial_batch_ber_streamed(
                            &cold,
                            len,
                            DEFAULT_STREAM_BLOCK,
                            0..1,
                            &mut scratch,
                            &mut c,
                        );
                    }
                    t0.elapsed()
                })
                .join()
                .expect("set-up thread panicked");
                (
                    Input::Link(LinkInput {
                        sc,
                        len,
                        full,
                        units,
                    }),
                    took,
                )
            }
            Kind::NetCity => {
                let mut sc = NetScenario::clustered_city(100, 10, 9.0, FLOOR_PLAN_SEED);
                sc.seed = seed;
                sc.rounds = units;
                let t0 = Instant::now();
                let plan = plan_network(&sc);
                (Input::Net(plan), t0.elapsed())
            }
            Kind::MacRing | Kind::MacCity => {
                let mut sc = if self.kind == Kind::MacCity {
                    let mut sc = MacScenario::clustered_city(125, 8, 9.0, 1.5, FLOOR_PLAN_SEED);
                    sc.net.seed = seed;
                    sc.horizon_slots = 120;
                    sc
                } else {
                    // Eight users on four channels, so every link has one
                    // co-channel contender, at 1.2 Erlang: past the knee.
                    let mut sc = MacScenario::ring(8, 9.0, 1.2, seed);
                    let channels = (3..7).map(|i| Channel::new(i).expect("channel index below 14"));
                    sc.net.policy = ChannelPolicy::RoundRobin(channels.collect());
                    sc.horizon_slots = 400;
                    sc
                };
                sc.replications = units;
                let t0 = Instant::now();
                let plan = plan_mac(&sc);
                (Input::Mac(plan), t0.elapsed())
            }
        }
    }
}

/// Runs one sample: the workload's `run_*` entry point over all its units
/// on `threads` engine threads. Returns the input for the next sample
/// (plans travel back through the report) and the result counters.
pub fn sample(input: Input, threads: usize) -> (Input, Counts) {
    match input {
        Input::Link(l) => {
            // No error target and no bit cap: exactly `units` packets.
            let (budget, never) = (
                TrialBudget {
                    max_trials: l.units,
                },
                u64::MAX,
            );
            let counts = if l.full {
                // `run_ber_budgeted` takes its thread count from the
                // environment; no engine thread is alive here.
                std::env::set_var("UWB_THREADS", threads.to_string());
                let run = run_ber_budgeted(&l.sc, l.len, never, never, budget);
                Counts::Link(run.outcome, run.stats.trials)
            } else {
                let block = DEFAULT_STREAM_BLOCK;
                let run = run_ber_fast_streamed_tuned(
                    &l.sc,
                    l.len,
                    block,
                    never,
                    never,
                    budget,
                    None,
                    Some(threads),
                );
                Counts::Ber(run.counter, run.stats.trials)
            };
            (Input::Link(l), counts)
        }
        Input::Net(plan) => {
            let report = run_plan_threads(plan, threads);
            let links = report
                .links
                .iter()
                .map(|l| [l.counter.total, l.counter.errors, l.packets, l.packets_bad]);
            let counts = Counts::Net(links.collect());
            (Input::Net(report.plan), counts)
        }
        Input::Mac(plan) => {
            let report = run_mac_plan_threads(plan, threads);
            let counts = Counts::Mac(report.links.iter().map(|l| l.stats.clone()).collect());
            (Input::Mac(report.plan), counts)
        }
    }
}

/// The units of one sample replayed serially through direct worker calls
/// on this thread, one span per call: `platform.trial` (one link trial, or
/// one engine batch of them), `net.round` or `mac.trial`. For the link
/// workloads `after(trials, so_far, tr)` runs after each call, with the
/// trials it covered and the counters up to them.
pub fn direct(
    input: &Input,
    tr: &mut Tracer,
    mut after: impl FnMut(Range<u64>, &Counts, &mut Tracer),
) -> Counts {
    match input {
        Input::Link(l) if l.full => {
            let mut w = LinkWorker::new(&l.sc);
            let mut out = LinkOutcome::default();
            for t in 0..l.units {
                let mut rng = Rand::for_trial(l.sc.seed, t);
                tr.span("platform.trial", t, |_| {
                    w.trial_full(&l.sc, l.len, &mut rng, &mut out)
                });
                after(t..t + 1, &Counts::Link(out.clone(), t + 1), tr);
            }
            Counts::Link(out, l.units)
        }
        Input::Link(l) => {
            let mut w = LinkWorker::new(&l.sc);
            let (mut scratch, mut counter) = (BatchScratch::new(), ErrorCounter::default());
            for trials in batches(l.units, resolve_batch(None)) {
                let (start, end, block) = (trials.start, trials.end, DEFAULT_STREAM_BLOCK);
                let range = trials.clone();
                tr.span("platform.trial", start, |_| {
                    w.trial_batch_ber_streamed(
                        &l.sc,
                        l.len,
                        block,
                        range,
                        &mut scratch,
                        &mut counter,
                    )
                });
                after(trials, &Counts::Ber(counter, end), tr);
            }
            Counts::Ber(counter, l.units)
        }
        Input::Net(plan) => {
            let mut w = NetWorker::new(plan);
            let mut acc = NetAccumulator::default();
            for r in 0..plan.rounds {
                tr.span("net.round", r, |_| w.round(plan, r, &mut acc));
            }
            let links = acc
                .links
                .iter()
                .map(|l| [l.ber.total, l.ber.errors, l.packets, l.packets_bad]);
            Counts::Net(links.collect())
        }
        Input::Mac(plan) => {
            let mut w = MacWorker::new(plan);
            let mut acc = MacAccumulator::default();
            for rep in 0..plan.params.replications {
                tr.span("mac.trial", rep, |_| w.trial(plan, rep, &mut acc));
            }
            Counts::Mac(acc.links)
        }
    }
}

/// Splits `0..units` into consecutive batches of `batch` trials that never
/// straddle a multiple of the engine's 8-trial chunk.
fn batches(units: u64, batch: u64) -> impl Iterator<Item = Range<u64>> {
    let chunk = 8u64.div_ceil(batch) * batch;
    (0..units.div_ceil(chunk)).flat_map(move |c| {
        let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(units));
        (lo..hi)
            .step_by(batch as usize)
            .map(move |b| b..(b + batch).min(hi))
    })
}

/// A sample's result counters.
#[derive(Debug, Clone)]
pub enum Counts {
    /// Full link path: outcome and trials the engine reported.
    Link(LinkOutcome, u64),
    /// Known-timing BER: bit counter and trials the engine reported.
    Ber(ErrorCounter, u64),
    /// Per link: bits, bit errors, packets, bad packets.
    Net(Vec<[u64; 4]>),
    /// Per-link MAC statistics.
    Mac(Vec<MacLinkStats>),
}

/// A sample's identity: a hash of every counter, a readable summary, and
/// any internal inconsistency found.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// FNV-1a over every counter, as 16 hex digits.
    pub hash: String,
    /// Aggregate counters, for people.
    pub summary: String,
    /// A broken invariant, if any (wrong packet count, MAC conservation).
    pub problem: Option<String>,
}

impl Counts {
    /// Packets carried by the sample: trials for the link workloads,
    /// links × rounds for the network, data frames on air for the MAC.
    pub fn packets(&self) -> u64 {
        match self {
            Counts::Link(o, _) => o.packets,
            Counts::Ber(_, trials) => *trials,
            Counts::Net(links) => links.iter().map(|l| l[2]).sum(),
            Counts::Mac(links) => links.iter().map(|l| l.tx_frames).sum(),
        }
    }

    /// The fingerprint. `units` is what the sample was asked to run.
    pub fn fingerprint(&self, units: u64) -> Fingerprint {
        let mut words = Vec::new();
        let mut problem = None;
        let summary = match self {
            Counts::Link(o, trials) => {
                words.extend([
                    o.ber.total,
                    o.ber.errors,
                    o.packets,
                    o.packets_ok,
                    o.sync_failures,
                ]);
                if *trials != units || o.packets != units {
                    problem = Some(format!(
                        "ran {trials} trials / {} packets, asked {units}",
                        o.packets
                    ));
                }
                format!(
                    "bits={} errors={} packets={} ok={} sync_fail={}",
                    o.ber.total, o.ber.errors, o.packets, o.packets_ok, o.sync_failures
                )
            }
            Counts::Ber(c, trials) => {
                words.extend([c.total, c.errors, *trials]);
                if *trials != units {
                    problem = Some(format!("ran {trials} trials, asked {units}"));
                }
                format!("bits={} errors={} packets={trials}", c.total, c.errors)
            }
            Counts::Net(links) => {
                let mut sum = [0u64; 4];
                for l in links {
                    words.extend(l);
                    for (s, x) in sum.iter_mut().zip(l) {
                        *s += x;
                    }
                }
                if links.iter().any(|l| l[2] != units) {
                    problem = Some(format!(
                        "a link did not carry one packet in each of {units} rounds"
                    ));
                }
                format!(
                    "links={} bits={} errors={} packets={} bad={}",
                    links.len(),
                    sum[0],
                    sum[1],
                    sum[2],
                    sum[3]
                )
            }
            Counts::Mac(links) => {
                let mut sum = MacLinkStats::default();
                for (l, s) in links.iter().enumerate() {
                    words.extend([
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
                    ]);
                    if s.offered != s.delivered + s.dropped_queue + s.dropped_retry
                        && problem.is_none()
                    {
                        problem = Some(format!("link {l}: offered != delivered + dropped"));
                    }
                    uwb_sim::montecarlo::Merge::merge(&mut sum, s);
                }
                format!(
                    "links={} offered={} delivered={} dropped={} frames={} defers={} retries={} decode_fail={}",
                    links.len(),
                    sum.offered,
                    sum.delivered,
                    sum.dropped_queue + sum.dropped_retry,
                    sum.tx_frames,
                    sum.defers,
                    sum.retries,
                    sum.decode_failures
                )
            }
        };
        Fingerprint {
            hash: format!("{:016x}", fnv1a(&words)),
            summary,
            problem,
        }
    }
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_follow_the_engine_chunks() {
        let b: Vec<_> = batches(20, 8).collect();
        assert_eq!(b, vec![0..8, 8..16, 16..20]);
        let b: Vec<_> = batches(10, 3).collect();
        assert_eq!(b, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(batches(24, 8).count(), 3);
    }
}
