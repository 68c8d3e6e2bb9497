//! Schema gate for `uwb-telemetry-v3`: the hand-rolled `RunStats::to_json`
//! output must stay machine-parseable.
//!
//! The run report is rendered without serde (the repo vendors no JSON
//! library), which means nothing at compile time stops a stray `NaN`, a
//! missing comma, or a renamed key from landing in `BENCH_*.json` consumers.
//! This test closes the loop with the strict in-repo parser
//! ([`uwb_obs::json::parse`]): it parses a real engine run's report and pins
//! the key set, the value types, and the finiteness of every number (the
//! parser rejects `NaN`/`Infinity` tokens outright — they are not JSON).

use uwb_obs::json::{parse, Json};
use uwb_phy::Gen2Config;
use uwb_platform::link::{run_ber_fast_budgeted, LinkScenario, TrialBudget};

const SEED: u64 = 20050311;

/// A real (small) engine run whose report we validate.
fn run_report() -> String {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, SEED);
    let run = run_ber_fast_budgeted(&scenario, 24, 10, 50_000, TrialBudget { max_trials: 64 });
    run.stats.to_json()
}

fn obj(v: &Json) -> &[(String, Json)] {
    v.as_obj().expect("expected a JSON object")
}

fn field<'a>(o: &'a [(String, Json)], key: &str) -> &'a Json {
    &o.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
        .1
}

#[test]
fn run_stats_json_parses_and_matches_schema() {
    let json = run_report();
    let root = parse(&json).expect("RunStats::to_json must be valid JSON");
    let o = obj(&root);

    // Exact top-level key set, in order (consumers key on the schema tag).
    let keys: Vec<&str> = o.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "trials",
            "trials_executed",
            "wall_ms",
            "threads",
            "trials_per_sec",
            "stop_reason",
            "truncated",
            "telemetry",
        ],
        "top-level key set drifted"
    );

    assert_eq!(field(o, "schema").as_str(), Some("uwb-telemetry-v3"));
    let trials = field(o, "trials").as_num().expect("trials must be a number");
    assert!(trials >= 1.0 && trials.fract() == 0.0, "trials must be a whole count");
    let executed = field(o, "trials_executed").as_num().expect("number");
    assert!(executed >= trials, "executed ({executed}) < merged ({trials})");
    let wall_ms = field(o, "wall_ms").as_num().expect("wall_ms must be a number");
    assert!(wall_ms.is_finite() && wall_ms >= 0.0);
    let threads = field(o, "threads").as_num().expect("number");
    assert!(threads >= 1.0 && threads.fract() == 0.0);
    // trials_per_sec is a finite number or an explicit null (untimed run) —
    // never NaN (the parser would already have rejected that).
    match field(o, "trials_per_sec") {
        Json::Null => {}
        v => assert!(v.as_num().expect("number or null").is_finite()),
    }
    assert!(field(o, "stop_reason").as_str().is_some());
    assert!(field(o, "truncated").as_bool().is_some());

    // The embedded telemetry object is the deterministic form: stages carry
    // name + calls only (no wall-clock ns), events name + count, and
    // quantiles name/count/sum/p50/p95/p99/max.
    let telem = obj(field(o, "telemetry"));
    let tkeys: Vec<&str> = telem.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(tkeys, ["stages", "events", "quantiles"]);

    let stages = field(telem, "stages").as_arr().expect("stages array");
    if uwb_obs::enabled() {
        assert!(!stages.is_empty(), "instrumented run produced no stage stats");
    }
    for st in stages {
        let st = obj(st);
        let keys: Vec<&str> = st.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "calls"], "stage entry drifted (ns must stay out)");
        assert!(field(st, "name").as_str().is_some());
        assert!(field(st, "calls").as_num().expect("number") >= 1.0);
    }
    for ev in field(telem, "events").as_arr().expect("events array") {
        let ev = obj(ev);
        let keys: Vec<&str> = ev.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "count"]);
        assert!(field(ev, "count").as_num().expect("number") >= 1.0);
    }
    // Quantile digests: every entry carries finite, ordered percentiles and
    // a sum consistent with its count and maximum.
    let quantiles = field(telem, "quantiles").as_arr().expect("quantiles array");
    let mut saw_trial_bit_errors = false;
    for q in quantiles {
        let q = obj(q);
        let keys: Vec<&str> = q.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "count", "sum", "p50", "p95", "p99", "max"]);
        let name = field(q, "name").as_str().expect("digest name");
        saw_trial_bit_errors |= name == "trial_bit_errors";
        let count = field(q, "count").as_num().expect("number");
        assert!(count >= 1.0);
        let sum = field(q, "sum").as_num().expect("sum number");
        let p50 = field(q, "p50").as_num().expect("p50 number");
        let p95 = field(q, "p95").as_num().expect("p95 number");
        let p99 = field(q, "p99").as_num().expect("p99 number");
        let max = field(q, "max").as_num().expect("max number");
        for v in [p50, p95, p99, max] {
            assert!(v.is_finite() && v >= 0.0, "{name}: non-finite percentile");
        }
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "{name}: unordered percentiles");
        assert!(
            max <= sum && sum <= count * max,
            "{name}: sum {sum} inconsistent with count {count} and max {max}"
        );
    }
    if uwb_obs::enabled() {
        assert!(
            saw_trial_bit_errors,
            "instrumented link run must report a trial_bit_errors digest"
        );
    }
}

#[test]
fn run_stats_json_has_no_non_finite_numbers() {
    // The strict parser rejects NaN / Infinity / -Infinity tokens, so a
    // successful parse already proves finiteness. Belt and braces: the raw
    // text must not smuggle them in as strings either.
    let json = run_report();
    parse(&json).expect("valid JSON");
    for needle in ["NaN", "nan", "Infinity", "inf"] {
        assert!(
            !json.contains(needle),
            "report text contains non-finite token {needle:?}: {json}"
        );
    }
}

#[test]
fn telemetry_json_roundtrips_through_the_parser() {
    // Both telemetry forms (timed and deterministic) parse; the timed form
    // adds exactly one key ("ns") per stage entry.
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, SEED);
    let run = run_ber_fast_budgeted(&scenario, 24, 5, 20_000, TrialBudget { max_trials: 16 });
    let timed = parse(&run.stats.telemetry.to_json()).expect("timed form parses");
    let det = parse(&run.stats.telemetry.to_json_deterministic()).expect("det form parses");
    let timed_stages = field(obj(&timed), "stages").as_arr().unwrap();
    let det_stages = field(obj(&det), "stages").as_arr().unwrap();
    assert_eq!(timed_stages.len(), det_stages.len());
    for (t, d) in timed_stages.iter().zip(det_stages) {
        assert_eq!(obj(t).len(), obj(d).len() + 1, "timed adds exactly `ns`");
        assert!(field(obj(t), "ns").as_num().expect("ns number") >= 0.0);
    }
}

#[test]
fn mac_digests_agree_with_mac_counters() {
    // The MAC feeds three digests from the same event-loop points that
    // bump its per-link counters, so on the saturated 8-user ring (every
    // link has one co-channel contender) their sample counts must equal
    // the counters summed over links. A digest dropped at the registry cap
    // (`MAX_DIGESTS`) would read zero here.
    use uwb_phy::bandplan::Channel;
    let mut sc = uwb_mac::MacScenario::ring(8, 9.0, 1.2, SEED);
    sc.net.policy =
        uwb_net::ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect());
    sc.horizon_slots = 400;
    sc.replications = 4;
    let report = uwb_mac::run_mac(&sc);
    let sum = |f: fn(&uwb_mac::MacLinkStats) -> u64| -> u64 {
        report.links.iter().map(|l| f(&l.stats)).sum()
    };
    let delivered = sum(|s| s.delivered);
    let dropped_retry = sum(|s| s.dropped_retry);
    let tx_frames = sum(|s| s.tx_frames);
    let retries = sum(|s| s.retries);
    assert!(
        delivered > 0 && retries > 0,
        "the ring must deliver and retry"
    );
    let count = |name: &str| {
        report
            .stats
            .telemetry
            .digests
            .iter()
            .find(|d| d.name == name)
            .map_or(0, |d| d.count)
    };
    if uwb_obs::enabled() {
        assert_eq!(count("mac_latency_slots"), delivered);
        assert_eq!(count("mac_queue_delay_slots"), tx_frames - retries);
        assert_eq!(count("mac_retries_per_packet"), delivered + dropped_retry);
    } else {
        assert!(report.stats.telemetry.is_empty());
    }
}
