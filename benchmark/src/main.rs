//! uwbbench — the repository's end-to-end benchmark.
//!
//! ```text
//! uwbbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! uwbbench compare BASE HEAD [--claim WORKLOAD:METRIC]...
//! ```
//!
//! Without `--workload` every workload runs, samples interleaved round-robin
//! so a slow phase of the host hits each alike. Load is a closed loop: one
//! `run_*` call at a time, each on `min(2, nproc)` engine threads. Each
//! workload gets a second of discarded warm-up samples, then samples until
//! `--seconds` (default: `run_seconds` of `BENCHMARK.json`) of measurement
//! have passed (at least three). A panic in set-up or in a sample is caught
//! and counted as a failed check. Every sample's
//! counters are fingerprinted and must match the first sample's, and, for
//! the default seed, the pins in `pins.json`.
//!
//! `--trace 1` is the separate traced run: per-layer metrics from spans
//! the benchmark records around its own calls, a per-layer table, and a
//! Chrome trace in `results/`. The last line of standard output is always
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod compare;
mod layers;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::traced;
use metrics::{Metric, END_TO_END};
use workloads::{sample, Fingerprint, Input, Spec, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: uwbbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n       \
                     uwbbench compare BASE HEAD [--claim WORKLOAD:METRIC]...";

/// Measured samples per workload, at least.
const MIN_SAMPLES: usize = 3;

/// Set-up calls after each measured sample take about this share of the
/// sample's time (at least one call), so set-up is timed across the same
/// phases of a noisy host as throughput, not in one short window.
const SETUP_SHARE: f64 = 0.05;

/// Timed set-up calls per workload, at least.
const SETUP_MIN_CALLS: usize = 5;

/// Warm-up samples run until this much time has passed (at least one,
/// and no longer than the run measures).
const WARM_UP_S: f64 = 1.0;

/// Fingerprints of the default seed's full-size samples.
const PINS: &str = include_str!("../pins.json");

struct Opts {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: metrics::run_seconds(),
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads =
                    vec![workloads::find(name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("uwbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    // Entry points without a thread argument read `UWB_THREADS`; batch
    // width stays at the library default.
    std::env::set_var("UWB_THREADS", threads.to_string());
    std::env::remove_var("UWB_BATCH");
    println!(
        "uwbbench: seed {} | {} engine thread(s) of {nproc} available | {}",
        opts.seed,
        threads,
        if opts.trace {
            "traced run".to_string()
        } else {
            format!("{} s per workload", opts.seconds)
        }
    );

    let reports: Vec<Report> = if opts.trace {
        let traced_or_failed = |(i, w): (usize, &&'static Spec)| {
            catch_unwind(|| traced(w, opts.seed, w.units, threads, i as u32)).unwrap_or_else(|_| {
                let mut r = Report::new(w);
                r.check(Some("traced run panicked".into()));
                r
            })
        };
        opts.workloads
            .iter()
            .enumerate()
            .map(traced_or_failed)
            .collect()
    } else {
        untraced(
            &opts.workloads,
            opts.seed,
            opts.seconds,
            threads,
            None,
            MIN_SAMPLES,
        )
    };
    for r in &reports {
        r.print();
    }

    let correct = reports.iter().all(|r| r.problems.is_empty());
    if let Some(path) = &opts.out {
        let runs: Vec<String> = reports
            .iter()
            .map(|r| r.record(opts.seed, opts.trace))
            .collect();
        if let Err(e) = std::fs::write(path, format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n"))) {
            eprintln!("uwbbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&reports));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's outcome.
struct Report {
    spec: &'static Spec,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    fingerprint: Option<Fingerprint>,
    metrics: Vec<(&'static Metric, f64)>,
    /// Human-readable lines printed under the metrics.
    notes: Vec<String>,
}

impl Report {
    fn new(spec: &'static Spec) -> Report {
        Report {
            spec,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            fingerprint: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one checked operation; `problem` marks it failed.
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    fn print(&self) {
        println!("\n== {} ==", self.spec.name);
        for (m, v) in &self.metrics {
            let dir = if m.higher_is_better {
                "higher is better"
            } else {
                "lower is better"
            };
            println!("  {:<32} {:>14} {:<6} {dir}", m.name, fmt_value(*v), m.unit);
        }
        for n in &self.notes {
            println!("  {n}");
        }
        if let Some(f) = &self.fingerprint {
            println!("  fingerprint {}  {}", f.hash, f.summary);
        }
        println!(
            "  checks: {} attempted, {} failed (failed_frac {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
    }

    /// This run as one record of a `--out` results file.
    fn record(&self, seed: u64, traced: bool) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{traced},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"fingerprint\":\"{}\",\"metrics\":{}}}",
            self.spec.name,
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            self.fingerprint.as_ref().map_or("", |f| &f.hash),
            metrics_json(self.metrics.iter().map(|(m, v)| (m.name.to_string(), *m, *v))),
        )
    }
}

/// The final line: one JSON object. With several workloads each metric
/// name is prefixed by its workload's.
fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let all = reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |(m, v)| {
            let name = if prefix {
                format!("{}.{}", r.spec.name, m.name)
            } else {
                m.name.to_string()
            };
            (name, *m, *v)
        })
    });
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        reports.iter().all(|r| r.problems.is_empty()),
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics_json(all)
    )
}

fn metrics_json(metrics: impl Iterator<Item = (String, &'static Metric, f64)>) -> String {
    let items: Vec<String> = metrics
        .map(|(name, m, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_num(v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A value with all its digits; JSON has no NaN or infinity, so those
/// (which a check has already flagged) print as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Checks a fingerprint against the reference and, for the default seed
/// at full size, against the pin.
fn fingerprint_problem(
    spec: &Spec,
    seed: u64,
    units: u64,
    f: &Fingerprint,
    reference: &Fingerprint,
) -> Option<String> {
    if let Some(p) = &f.problem {
        return Some(p.clone());
    }
    if f != reference {
        return Some(format!(
            "fingerprint {} ({}) != reference {} ({})",
            f.hash, f.summary, reference.hash, reference.summary
        ));
    }
    if seed == DEFAULT_SEED && units == spec.units {
        let pins = uwb_obs::json::parse(PINS).expect("pins.json is valid JSON");
        if let Some(pin) = pins.get(spec.name).and_then(|p| p.as_str()) {
            if pin != f.hash {
                return Some(format!(
                    "fingerprint {} != pinned {pin} for the default seed",
                    f.hash
                ));
            }
        }
    }
    None
}

/// One workload's state in an untraced run.
struct Run {
    spec: &'static Spec,
    seed: u64,
    units: u64,
    input: Option<Input>,
    setup_s: Vec<f64>,
    reference: Option<Fingerprint>,
    rates: Vec<f64>,
    packets: u64,
    min_samples: usize,
    /// Warm-up time so far, and how much of it to run.
    warm_up: Duration,
    warm_up_s: f64,
    measured: Duration,
    report: Report,
}

impl Run {
    fn new(spec: &'static Spec, seed: u64, units: u64, min_samples: usize, warm_up_s: f64) -> Run {
        let mut r = Run {
            spec,
            seed,
            units,
            min_samples,
            warm_up_s,
            input: None,
            setup_s: Vec::new(),
            reference: None,
            rates: Vec::new(),
            packets: 0,
            warm_up: Duration::ZERO,
            measured: Duration::ZERO,
            report: Report::new(spec),
        };
        r.input = r.setup().map(|(input, _)| input);
        r
    }

    /// One set-up call; a panic is caught and counted as a failed check.
    fn setup(&mut self) -> Option<(Input, Duration)> {
        let (spec, seed, units) = (self.spec, self.seed, self.units);
        let out = catch_unwind(|| spec.setup(seed, units)).ok();
        if out.is_none() {
            self.report.check(Some("set-up panicked".into()));
        }
        out
    }

    /// Times set-up calls, at least one, until `budget_s` have passed;
    /// each replaces the input.
    fn time_setup(&mut self, budget_s: f64) {
        let t0 = Instant::now();
        loop {
            let Some((input, took)) = self.setup() else {
                return;
            };
            self.input = Some(input);
            self.setup_s.push(took.as_secs_f64());
            if t0.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
    }

    /// Runs one sample, then times set-up calls. Until `warm_up_s` have
    /// passed samples are warm-up: the first sets the reference
    /// fingerprint, none is timed.
    fn step(&mut self, threads: usize) {
        let Some(input) = self.input.take().or_else(|| self.setup().map(|(i, _)| i)) else {
            return;
        };
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| sample(input, threads)));
        let took = t0.elapsed();
        let problem = match out {
            Err(_) => Some("sample panicked".to_string()),
            Ok((input, counts)) => {
                self.input = Some(input);
                let f = counts.fingerprint(self.units);
                let reference = self.reference.get_or_insert_with(|| f.clone());
                let problem = fingerprint_problem(self.spec, self.seed, self.units, &f, reference);
                if self.warming_up() {
                    self.warm_up += took;
                } else {
                    self.rates
                        .push(counts.packets() as f64 / took.as_secs_f64());
                    self.packets += counts.packets();
                    self.measured += took;
                    self.time_setup(SETUP_SHARE * took.as_secs_f64());
                }
                problem
            }
        };
        self.report.check(problem);
    }

    fn warming_up(&self) -> bool {
        self.warm_up.as_secs_f64() < self.warm_up_s
    }

    /// Measured long enough, or failed: a failed run is reported as such
    /// and measures no further.
    fn done(&self, seconds: f64) -> bool {
        let enough = self.rates.len() >= self.min_samples && self.measured.as_secs_f64() >= seconds;
        enough || self.report.failed > 0
    }

    /// Both metrics are aggregates over the whole run: all measured
    /// packets over all measured time, and all set-up time over all
    /// set-up calls. On a shared host whose speed changes in phases of
    /// seconds to minutes, medians of samples or calls flip with the phase
    /// a run mostly saw; the aggregates were the steadiest across runs of
    /// everything tried (see the README).
    fn finish(mut self) -> Report {
        let rate = self.packets as f64 / self.measured.as_secs_f64();
        let setup = self.setup_s.iter().sum::<f64>() / self.setup_s.len() as f64;
        let r = &mut self.report;
        r.metrics = vec![(&END_TO_END[0], rate), (&END_TO_END[1], setup)];
        let (q1, q3) = stats::quartiles(&self.rates);
        let rates: Vec<String> = self.rates.iter().map(|x| format!("{x:.0}")).collect();
        r.notes.push(format!(
            "packets_per_s: {} packets in {:.3} s over {} samples of {} units; per sample: median {:.0}, \
             IQR {q1:.0}..{q3:.0} ({:.1} %): {}",
            self.packets,
            self.measured.as_secs_f64(),
            self.rates.len(),
            self.units,
            stats::median(&self.rates),
            100.0 * stats::rel_iqr(&self.rates),
            rates.join(" ")
        ));
        r.notes.push(format!(
            "setup_s: mean of {} calls; per call: median {:.6} s, IQR {:.1} %",
            self.setup_s.len(),
            stats::median(&self.setup_s),
            100.0 * stats::rel_iqr(&self.setup_s)
        ));
        r.fingerprint = self.reference;
        let measured = rate.is_finite() && rate > 0.0 && setup.is_finite();
        r.check((!measured).then(|| "nothing measured".into()));
        self.report
    }
}

/// The untraced run: one set-up and the warm-up samples per workload, then
/// samples (each followed by timed set-up calls) interleaved round-robin
/// until every workload has `seconds` of measurement and `min_samples`
/// samples. `units` overrides the workloads' sample sizes.
fn untraced(
    specs: &[&'static Spec],
    seed: u64,
    seconds: f64,
    threads: usize,
    units: Option<u64>,
    min_samples: usize,
) -> Vec<Report> {
    let warm_up_s = WARM_UP_S.min(seconds);
    let new =
        |s: &&'static Spec| Run::new(s, seed, units.unwrap_or(s.units), min_samples, warm_up_s);
    let mut runs: Vec<Run> = specs.iter().map(new).collect();
    for r in &mut runs {
        while r.warming_up() && r.report.failed == 0 {
            r.step(threads);
        }
    }
    while runs.iter().any(|r| !r.done(seconds)) {
        for r in runs.iter_mut().filter(|r| !r.done(seconds)) {
            r.step(threads);
        }
    }
    for r in &mut runs {
        while r.setup_s.len() < SETUP_MIN_CALLS && r.report.failed == 0 {
            r.time_setup(0.0);
        }
    }
    runs.into_iter().map(Run::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;
    use workloads::Kind;

    /// Every workload at a tiny size passes its checks and reports every
    /// named metric, untraced and traced. The traced run also checks the
    /// one-thread samples against the two-thread ones.
    #[test]
    fn smoke_every_workload_every_metric() {
        let tiny = |s: &Spec| match s.kind {
            Kind::LinkFull | Kind::LinkBer => 16,
            Kind::NetCity | Kind::MacRing => 2,
            Kind::MacCity => 1,
        };
        for spec in &WORKLOADS {
            let reports = untraced(&[spec], 7, 1e-9, 2, Some(tiny(spec)), 1);
            let r = &reports[0];
            assert!(r.problems.is_empty(), "{}: {:?}", spec.name, r.problems);
            let names: Vec<_> = r.metrics.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            assert!(
                r.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
                "{:?}",
                r.metrics
            );
            let r = traced(spec, 7, tiny(spec), 2, 0);
            assert!(
                r.problems.is_empty(),
                "{} traced: {:?}",
                spec.name,
                r.problems
            );
            assert_eq!(r.metrics.len(), PER_LAYER.len());
            let line = result_line(&[r]);
            let doc = uwb_obs::json::parse(&line).expect("result line is JSON");
            assert_eq!(
                doc.get("metrics").unwrap().as_obj().unwrap().len(),
                PER_LAYER.len()
            );
        }
    }

    #[test]
    fn options_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload net_city_1k --seed 5 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workloads.len(), o.seed, o.seconds, o.trace),
            (1, 5, 3.0, true)
        );
        assert_eq!(parse_opts(&[]).unwrap().workloads.len(), WORKLOADS.len());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
