//! The traced run: per-layer metrics for one workload, from spans the
//! benchmark records around its own calls into each layer.
//!
//! Order of work: set-up; the sample on the engine's threads twice (a
//! warm-up, then one that counts allocations and FFT plans); the sample on
//! one thread; the same units through direct worker calls; for the link
//! workloads, the first trials through direct calls again, each followed
//! at once by its stage probes, so a trial and its stage rows see the same
//! phase of a noisy host; the sample on one thread again. Engine overhead
//! compares the faster one-thread sample with the undisturbed direct
//! calls. Network and MAC packets are probed last: a round or replication
//! cannot be split from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use uwb_net::NetPlan;
use uwb_platform::link::DEFAULT_STREAM_BLOCK;
use uwb_sim::Rand;

use crate::metrics::PER_LAYER;
use crate::probe::{Probes, STAGES};
use crate::trace::{self, Tracer};
use crate::workloads::{direct, sample, Counts, Input, Kind, LinkInput, Spec};
use crate::{alloc, fingerprint_problem, stats, Report};

/// One `run_*` sample inside a span, timed.
fn timed(
    input: Input,
    threads: usize,
    name: &'static str,
    tr: &mut Tracer,
) -> (Input, f64, Counts) {
    let t0 = Instant::now();
    let (input, counts) = tr.span(name, 0, |_| sample(input, threads));
    (input, t0.elapsed().as_secs_f64(), counts)
}

/// The traced run of one workload at `units` units per sample; `tid` is
/// its track in the Chrome trace.
pub fn traced(spec: &'static Spec, seed: u64, units: u64, threads: usize, tid: u32) -> Report {
    let mut r = Report::new(spec);
    let mut tr = Tracer::new(4 * units as usize + 12 * spec.probe_packets as usize + 64);
    let live0 = alloc::snapshot().live;
    let (input, _) = spec.setup(seed, units);
    let retained = alloc::snapshot().live.saturating_sub(live0);

    let (input, t_warm, warm) = timed(input, threads, "sample.warm_up", &mut tr);
    let reference = warm.fingerprint(units);
    let start_live = alloc::reset_peak();
    let (a0, p0) = (alloc::snapshot(), uwb_dsp::fft::fft_plans_built());
    let (input, t_par, counts) = timed(input, threads, "sample.threads", &mut tr);
    let (a1, plans) = (alloc::snapshot(), uwb_dsp::fft::fft_plans_built() - p0);
    let heap_peak = retained + alloc::peak().saturating_sub(start_live);
    let (input, t_one_a, one_a) = timed(input, 1, "sample.one_thread", &mut tr);
    let direct_counts = tr.span("direct", units, |tr| direct(&input, tr, |_, _, _| {}));
    let batch = uwb_sim::montecarlo::resolve_batch(None);
    let head = ((units.min(spec.probe_packets) / batch).max(1) * batch).min(units);
    let mut probes = Probes::default();
    let mut problem = match &input {
        Input::Link(l) => attribution(l, head, &mut tr, &mut probes),
        _ => None,
    };
    let (input, t_one_b, one_b) = timed(input, 1, "sample.one_thread", &mut tr);
    std::env::set_var("UWB_THREADS", threads.to_string());
    let plan = match &input {
        Input::Net(plan) => Some(plan),
        Input::Mac(plan) => Some(&plan.net),
        Input::Link(_) => None,
    };
    if let Some(plan) = plan {
        problem = problem.or(probe_plan(plan, spec.probe_packets, &mut tr, &mut probes));
    }

    let runs = [
        ("sample", &counts),
        ("1-thread sample", &one_a),
        ("1-thread sample", &one_b),
        ("direct worker calls", &direct_counts),
    ];
    for (what, c) in runs {
        let p = fingerprint_problem(spec, seed, units, &c.fingerprint(units), &reference);
        r.check(p.map(|p| format!("{what}: {p}")));
    }
    r.check(problem);

    let (t_par, t_one) = (t_par.min(t_warm), t_one_a.min(t_one_b));
    let packets = counts.packets() as f64;
    let unit_name = match input {
        Input::Link(_) => "platform.trial",
        Input::Net(_) => "net.round",
        Input::Mac(_) => "mac.trial",
    };
    let unit_ns = tr.durations(unit_name, "direct");
    let unit_total: f64 = unit_ns.iter().sum();
    // A link span covers one trial or one engine batch: scale to packets.
    let per_call = if let Input::Link(_) = input {
        packets / unit_ns.len() as f64
    } else {
        1.0
    };
    let per_unit_us: Vec<f64> = unit_ns.iter().map(|d| d / per_call / 1e3).collect();
    let (tail_pct, tail) = stats::tail(&per_unit_us);
    let tally = &probes.tally;
    let probed = tally.outcome.packets.max(1) as f64;
    let stage_us = |name: &str| tr.total_ns(name) as f64 / probed / 1e3;

    // The per-layer table. For the link workloads: the probed trials' own
    // time against the stage rows of the same packets, for the stages on
    // the workload's path.
    let mut table = Vec::new();
    let unattributed = if let Input::Link(_) = input {
        let on_path = if spec.kind == Kind::LinkFull {
            &STAGES[..]
        } else {
            &STAGES[..6]
        };
        let unit_us =
            tr.durations(unit_name, "attribution").iter().sum::<f64>() / head as f64 / 1e3;
        let rows: f64 = on_path.iter().map(|s| stage_us(s)).sum();
        let rest = unit_us - rows;
        table.push(format!(
            "per-layer table over {head} probed trials (us per packet, share of platform.trial):"
        ));
        for (name, us) in on_path
            .iter()
            .map(|s| (*s, stage_us(s)))
            .chain([("unattributed", rest)])
        {
            table.push(format!(
                "  {name:<20} {us:>10.3} {:>7.1} %",
                100.0 * us / unit_us
            ));
        }
        let check = format!("(rows + unattributed = {:.3})", rows + rest);
        table.push(format!(
            "  {:<20} {unit_us:>10.3}   100.0 %  {check}",
            "= platform.trial"
        ));
        rest / unit_us
    } else {
        table.push(format!(
            "per-layer table: {unit_name} ({:.3} ms each) has no children measured from outside; \
             splitting it needs spans inside the program, so all of it is unattributed",
            unit_total / unit_ns.len() as f64 / 1e6
        ));
        1.0
    };

    // Mixing cost on a record of this workload's length.
    let mix_us = {
        let src = vec![uwb_dsp::Complex::new(0.25, -0.5); tally.record_len.max(1)];
        let mut dst = src.clone();
        let calls = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..calls {
            uwb_dsp::stream::accumulate_scaled(&mut dst, std::hint::black_box(&src), 0.5);
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
    };

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (edges, max_live) = plan.map_or((0.0, 0.0), graph);
    let net_bad = match &counts {
        Counts::Net(links) => ratio(
            links.iter().map(|l| l[3]).sum(),
            links.iter().map(|l| l[2]).sum(),
        ),
        _ => 0.0,
    };
    let mut mac = uwb_mac::MacLinkStats::default();
    if let Counts::Mac(links) = &counts {
        links
            .iter()
            .for_each(|l| uwb_sim::Merge::merge(&mut mac, l));
    }
    let mut v: BTreeMap<&str, f64> = STAGES
        .iter()
        .map(|s| (stage_metric(s), stage_us(s)))
        .collect();
    v.extend([
        ("sim.engine.overhead_frac", 1.0 - unit_total / 1e9 / t_one),
        ("sim.engine.parallel_eff", t_one / (threads as f64 * t_par)),
        ("phy.acq_detect_frac", tally.detected as f64 / probed),
        ("phy.crc_ok_frac", tally.outcome.packets_ok as f64 / probed),
        ("unit.us_p50", stats::median(&per_unit_us)),
        ("unit.us_tail", tail),
        ("unit.us_per_packet", unit_total / packets / 1e3),
        ("unit.unattributed_frac", unattributed),
        ("dsp.mix.us_per_call", mix_us),
        ("dsp.fft_plans_built", plans as f64),
        ("net.edges_per_link", edges),
        ("net.arena.max_live", max_live),
        ("net.bad_packet_frac", net_bad),
        ("mac.defers_per_frame", ratio(mac.defers, mac.tx_frames)),
        ("mac.retry_frac", ratio(mac.retries, mac.tx_frames)),
        (
            "mac.decode_fail_frac",
            ratio(mac.decode_failures, mac.tx_frames),
        ),
        ("mac.delivered_frac", ratio(mac.delivered, mac.offered)),
        ("mac.queue_drop_frac", ratio(mac.dropped_queue, mac.offered)),
        ("alloc.per_packet", (a1.calls - a0.calls) as f64 / packets),
        (
            "alloc.bytes_per_packet",
            (a1.bytes - a0.bytes) as f64 / packets,
        ),
        ("alloc.heap_peak_mb", heap_peak as f64 / 1e6),
    ]);
    r.metrics = PER_LAYER.iter().map(|m| (m, v[m.name])).collect();
    let not_finite: Vec<_> = r
        .metrics
        .iter()
        .filter(|(_, x)| !x.is_finite())
        .map(|(m, _)| m.name)
        .collect();
    r.check((!not_finite.is_empty()).then(|| format!("not finite: {not_finite:?}")));

    let (spans, span_ns) = (tr.spans().len() as f64, trace::span_cost_ns());
    let overhead_s = spans * span_ns / 1e9;
    r.notes.push(format!(
        "{} {unit_name} calls; unit.us_tail is the p{tail_pct:.2} of {} (the maximum below 20)",
        unit_ns.len(),
        per_unit_us.len()
    ));
    r.notes.push(format!(
        "engine: {t_one:.3} s on 1 thread, {t_par:.3} s on {threads} (faster of two each); \
         direct worker calls {:.3} s",
        unit_total / 1e9
    ));
    r.notes.extend(table);
    r.notes
        .push("span self times (calls, total ms, self ms):".into());
    for (name, calls, total, own) in tr.self_times() {
        let (total, own) = (total as f64 / 1e6, own as f64 / 1e6);
        r.notes
            .push(format!("  {name:<20} {calls:>8} {total:>12.3} {own:>12.3}"));
    }
    r.notes.push(format!(
        "tracing overhead: {spans} spans ({} dropped) x {span_ns:.1} ns = {:.3} ms, {:.3} % of the \
         untraced 1-thread sample",
        tr.dropped(),
        overhead_s * 1e3,
        100.0 * overhead_s / t_one
    ));
    let trace_problem = write_trace(spec, seed, &tr, tid, &mut r.notes);
    r.check(trace_problem);
    r.fingerprint = Some(reference);
    r
}

/// The first `head` trials of a link workload through direct calls, each
/// call followed by the stage probes of its trials, whose counters must
/// add up to the trials' own.
fn attribution(l: &LinkInput, head: u64, tr: &mut Tracer, probes: &mut Probes) -> Option<String> {
    let first = Input::Link(LinkInput {
        units: head,
        ..l.clone()
    });
    let mut problem = None;
    tr.span("attribution", head, |tr| {
        direct(&first, tr, |trials, so_far, tr| {
            if problem.is_some() {
                return;
            }
            for t in trials.clone() {
                let rng = Rand::for_trial(l.sc.seed, t);
                if let Err(e) = probes.packet(&l.sc, l.len, DEFAULT_STREAM_BLOCK, rng, t, tr) {
                    problem = Some(format!("probe of trial {t}: {e}"));
                    return;
                }
            }
            let t = &probes.tally.outcome;
            let probed = match so_far {
                Counts::Ber(..) => Counts::Ber(t.ber, t.packets),
                _ => Counts::Link(t.clone(), t.packets),
            };
            let (want, got) = (
                so_far.fingerprint(trials.end),
                probed.fingerprint(trials.end),
            );
            if want != got {
                problem = Some(format!(
                    "probes counted {} but the trials {}",
                    got.summary, want.summary
                ));
            }
        })
    });
    problem
}

/// Probes `packets` packets of a network or MAC workload: packet `i` is
/// link `i mod n` in round `i div n`, as synthesized before any
/// interference is mixed in.
fn probe_plan(
    plan: &NetPlan,
    packets: u64,
    tr: &mut Tracer,
    probes: &mut Probes,
) -> Option<String> {
    let n = plan.len() as u64;
    tr.span("probe", packets, |tr| {
        (0..packets).find_map(|i| {
            let (l, round) = ((i % n) as usize, i / n);
            let rng = Rand::for_trial(plan.link_seed(l), round);
            let sc = &plan.links[l].scenario;
            let p = probes.packet(sc, plan.payload_len, plan.block_len, rng, i, tr);
            p.err().map(|e| format!("probe of packet {i}: {e}"))
        })
    })
}

fn stage_metric(stage: &str) -> &'static str {
    let m = PER_LAYER
        .iter()
        .find(|m| m.name.strip_suffix(".us_per_packet") == Some(stage));
    m.expect("every stage has a metric").name
}

/// Mean coupling edges per link and the arena's peak live records.
fn graph(plan: &NetPlan) -> (f64, f64) {
    let edges: usize = plan.coupling.iter().map(Vec::len).sum();
    let live = uwb_net::RecordSchedule::build(plan.len(), &plan.coupling).max_live();
    (edges as f64 / plan.len().max(1) as f64, live as f64)
}

/// Writes the Chrome trace under `results/` and checks it parses.
fn write_trace(
    spec: &Spec,
    seed: u64,
    tr: &Tracer,
    tid: u32,
    notes: &mut Vec<String>,
) -> Option<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("{}-seed{seed}.trace.json", spec.name));
    let doc = tr.chrome_json(tid);
    if let Err(e) = uwb_obs::json::parse(&doc) {
        return Some(format!("trace does not parse: {e}"));
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
        Ok(()) => {
            notes.push(format!("trace: {}", path.display()));
            None
        }
        Err(e) => Some(format!("cannot write {}: {e}", path.display())),
    }
}
