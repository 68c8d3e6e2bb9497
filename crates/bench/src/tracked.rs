//! The one driver behind the *tracked* benchmark binaries (`dspbench`,
//! `netbench`, `macbench`): each binary only measures its [`Suite`] and
//! hands it to [`main`], which owns the command line, the report format,
//! the console tables and the baseline check behind `scripts/check.sh
//! bench` / `net` / `mac`.
//!
//! Every report has the same layout (schema [`SCHEMA`]):
//!
//! ```json
//! {
//!   "schema": "uwb-bench-v2",
//!   "suite": "<binary>",
//!   "metrics": {
//!     "<name>": { "value": <number>, "unit": "<unit>", "policy": "<policy>" },
//!     ...
//!   },
//!   "stage_ns_per_trial": { "stage:<name>": <ns per trial>, ... }
//! }
//! ```
//!
//! `metrics` holds one row per [`Metric`]; its `policy` is the
//! [`MetricPolicy`] label and decides how `--check` judges the row.
//! `stage_ns_per_trial` is the wall-clock stage profile of the suite's
//! timed loop (empty when telemetry is compiled out); it is
//! informational and never checked. Reports are read back with the strict
//! [`uwb_obs::json`] parser.

use std::process::ExitCode;
use std::time::Instant;
use uwb_dsp::Complex;
use uwb_obs::json::{self, Json};
use uwb_platform::report::{stage_table, Table};
use uwb_sim::Rand;

/// Schema string of every tracked report.
pub const SCHEMA: &str = "uwb-bench-v2";

/// `--tol` when the flag is absent, in percent.
const DEFAULT_TOL_PCT: f64 = 15.0;

/// Times `f` for `iters` calls, repeated `reps` times; returns the *best*
/// per-call time in microseconds (minimum is the standard noise-robust
/// statistic for micro-benchmarks: all noise is additive).
///
/// The first call runs outside the timed region as warm-up, populating
/// caches (FFT plans, scratch pools, allocator high-water marks).
pub fn time_us<F: FnMut()>(iters: usize, reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        let dt = t0.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64;
        best = best.min(dt);
    }
    best
}

/// `n` complex samples with independent uniform(−1, 1) parts from `seed`:
/// the stand-in signal the kernel timings run on.
pub fn noise_complex(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = Rand::new(seed);
    (0..n)
        .map(|_| Complex::new(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)))
        .collect()
}

/// How `--check` judges one metric against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Smaller is better; a rise beyond tolerance fails the check.
    Gate,
    /// A deterministic pin: the rendered value must equal the baseline's
    /// exactly, in either direction.
    Exact,
    /// Bigger is better, but too load-sensitive to gate CI on — a drop
    /// beyond tolerance is reported as `slower (info)` only.
    InfoHigherBetter,
    /// Smaller is better, informational only (never fails the check).
    InfoLowerBetter,
}

impl MetricPolicy {
    /// The policy's name in a report.
    fn label(self) -> &'static str {
        match self {
            MetricPolicy::Gate => "gate",
            MetricPolicy::Exact => "exact",
            MetricPolicy::InfoHigherBetter => "info-higher-better",
            MetricPolicy::InfoLowerBetter => "info-lower-better",
        }
    }

    fn from_label(label: &str) -> Option<MetricPolicy> {
        use MetricPolicy::*;
        [Gate, Exact, InfoHigherBetter, InfoLowerBetter]
            .into_iter()
            .find(|p| p.label() == label)
    }
}

/// One row of a suite.
#[derive(Debug)]
pub struct Metric {
    /// Row name, unique within its suite.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, for readers of the report.
    pub unit: &'static str,
    /// Digits after the decimal point in the report; an
    /// [`MetricPolicy::Exact`] row is compared at this precision.
    pub decimals: usize,
    /// How `--check` judges the row.
    pub policy: MetricPolicy,
}

impl Metric {
    /// A row with every field given.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        decimals: usize,
        policy: MetricPolicy,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            decimals,
            policy,
        }
    }

    /// A time in microseconds per call (three decimals).
    pub fn us(name: &'static str, us: f64, policy: MetricPolicy) -> Self {
        Metric::new(name, us, "us", 3, policy)
    }
}

/// What a tracked binary measures: its metric rows plus the stage
/// telemetry of its timed loop.
pub struct Suite {
    /// The rows, in report order.
    pub metrics: Vec<Metric>,
    /// Stage telemetry of the timed loop (empty when telemetry is off).
    pub telemetry: uwb_obs::Telemetry,
    /// Trials the timed loop ran (a network round counts as one trial);
    /// the stage profile is reported per trial.
    pub trials: u64,
}

/// The parsed command line: `[--out PATH] [--check BASELINE] [--tol PCT]`.
#[derive(Debug, PartialEq)]
struct Args {
    out: Option<String>,
    check: Option<String>,
    tol_pct: f64,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            out: None,
            check: None,
            tol_pct: DEFAULT_TOL_PCT,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !matches!(flag.as_str(), "--out" | "--check" | "--tol") {
                return Err(format!("unknown argument {flag}"));
            }
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--out" => parsed.out = Some(value.clone()),
                "--check" => parsed.check = Some(value.clone()),
                _ => {
                    parsed.tol_pct = value
                        .parse()
                        .ok()
                        .filter(|t: &f64| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| format!("--tol {value}: need a finite percentage > 0"))?
                }
            }
        }
        Ok(parsed)
    }
}

/// Renders `suite` as a report of schema [`SCHEMA`] labelled `tool`.
fn render(tool: &str, suite: &Suite) -> String {
    let metrics: Vec<String> = suite
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{ \"value\": {:.*}, \"unit\": {}, \"policy\": \"{}\" }}",
                json::escape(m.name),
                m.decimals,
                m.value,
                json::escape(m.unit),
                m.policy.label()
            )
        })
        .collect();
    // ns per trial, not per call, so stages that run more than once per
    // trial still sum to the trial budget.
    let stages: Vec<String> = suite
        .telemetry
        .stages
        .iter()
        .map(|st| {
            let per_trial = st.ns as f64 / suite.trials.max(1) as f64;
            format!("    \"stage:{}\": {per_trial:.0}", st.name)
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"suite\": {},\n  \"metrics\": {},\n  \
         \"stage_ns_per_trial\": {}\n}}\n",
        json::escape(tool),
        object(&metrics),
        object(&stages)
    )
}

/// A JSON object from pre-rendered `"key": value` lines, one per line.
fn object(lines: &[String]) -> String {
    if lines.is_empty() {
        "{}".to_string()
    } else {
        format!("{{\n{}\n  }}", lines.join(",\n"))
    }
}

/// One parsed metric row of a report.
struct Row {
    name: String,
    value: f64,
    policy: MetricPolicy,
}

/// The `metrics` rows of a report, after checking its schema.
fn rows(report: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(report)?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no \"metrics\" object")?;
    let mut rows: Vec<Row> = Vec::with_capacity(metrics.len());
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_num);
        let policy = m
            .get("policy")
            .and_then(Json::as_str)
            .and_then(MetricPolicy::from_label);
        let (Some(value), Some(policy)) = (value, policy) else {
            return Err(format!(
                "metric {name}: needs a numeric value and a known policy"
            ));
        };
        if rows.iter().any(|r| &r.name == name) {
            return Err(format!("metric {name} appears twice"));
        }
        rows.push(Row {
            name: name.clone(),
            value,
            policy,
        });
    }
    Ok(rows)
}

/// Checks the `current` report against `baseline`, prints the comparison
/// table, and returns whether the check passed.
///
/// The check fails when a [`MetricPolicy::Gate`] row rises more than
/// `tol_pct` percent above its baseline, when an [`MetricPolicy::Exact`]
/// row differs from its baseline at all, when a row's policy differs from
/// the baseline's, or when a row is in one report but not the other.
/// Info rows never fail.
fn check(tool: &str, baseline: &str, current: &str, tol_pct: f64) -> bool {
    let (base, curr) = match (rows(baseline), rows(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) => {
            eprintln!("{tool}: unusable baseline: {e}");
            return false;
        }
        (_, Err(e)) => {
            eprintln!("{tool}: unusable report: {e}");
            return false;
        }
    };
    let mut passed = true;
    let mut table = Table::new(vec![
        "metric", "policy", "baseline", "current", "worse by", "verdict",
    ]);
    for c in &curr {
        let Some(b) = base.iter().find(|b| b.name == c.name) else {
            passed = false;
            let value = c.value.to_string();
            table.row(vec![
                c.name.as_str(),
                c.policy.label(),
                "-",
                &value,
                "",
                "NEW: not in baseline",
            ]);
            continue;
        };
        // Positive always means "got worse" for the row's polarity.
        let scale = b.value.abs().max(1e-12);
        let worse_pct = match c.policy {
            MetricPolicy::InfoHigherBetter => (b.value - c.value) / scale * 100.0,
            _ => (c.value - b.value) / scale * 100.0,
        };
        let verdict = if b.policy != c.policy {
            passed = false;
            "POLICY CHANGED"
        } else if c.policy == MetricPolicy::Exact {
            if c.value == b.value {
                "ok"
            } else {
                passed = false;
                "CHANGED"
            }
        } else if worse_pct > tol_pct {
            match c.policy {
                MetricPolicy::Gate => {
                    passed = false;
                    "REGRESSED"
                }
                MetricPolicy::InfoHigherBetter => "slower (info)",
                _ => "worse (info)",
            }
        } else if worse_pct < -tol_pct {
            // Better beyond the tolerance band: a candidate for re-pinning.
            "improved"
        } else {
            "ok"
        };
        table.row(vec![
            c.name.clone(),
            c.policy.label().to_string(),
            b.value.to_string(),
            c.value.to_string(),
            format!("{worse_pct:+.1}%"),
            verdict.to_string(),
        ]);
    }
    for b in base
        .iter()
        .filter(|b| !curr.iter().any(|c| c.name == b.name))
    {
        passed = false;
        let value = b.value.to_string();
        table.row(vec![
            b.name.as_str(),
            b.policy.label(),
            &value,
            "-",
            "",
            "MISSING from this run",
        ]);
    }
    print!("{table}");
    passed
}

/// Runs a tracked binary: parses `[--out PATH] [--check BASELINE]
/// [--tol PCT]`, measures `suite`, prints its rows and stage profile,
/// writes the report to `--out`, and checks it against `--check` with
/// `--tol` percent tolerance (default 15).
///
/// A malformed command line prints usage and exits with status 2 before
/// anything is measured; a failed write or check exits with status 1.
pub fn main(tool: &str, suite: fn() -> Suite) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{tool}: {e}\nusage: {tool} [--out PATH] [--check BASELINE] [--tol PCT]");
            return ExitCode::from(2);
        }
    };
    let suite = suite();
    let report = render(tool, &suite);

    let mut table = Table::new(vec!["metric", "value", "unit", "policy"]);
    for m in &suite.metrics {
        table.row(vec![
            m.name.to_string(),
            format!("{:.*}", m.decimals, m.value),
            m.unit.to_string(),
            m.policy.label().to_string(),
        ]);
    }
    print!("{table}");
    let profile = stage_table(&suite.telemetry);
    if !profile.is_empty() {
        println!("\ntimed-loop stage profile ({} trials):", suite.trials);
        print!("{profile}");
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("{tool}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.check {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{tool}: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("\n{tool} vs {path} (tolerance {}%):", args.tol_pct);
        if !check(tool, &baseline, &report, args.tol_pct) {
            eprintln!("{tool}: check against {path} failed");
            return ExitCode::FAILURE;
        }
        println!("{tool}: every metric within its policy");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use MetricPolicy::*;

    fn suite(rows: &[(&'static str, f64, MetricPolicy)]) -> Suite {
        Suite {
            metrics: rows
                .iter()
                .map(|&(name, value, policy)| Metric::new(name, value, "x", 3, policy))
                .collect(),
            telemetry: uwb_obs::Telemetry::default(),
            trials: 1,
        }
    }

    /// Baseline rows: one per policy.
    const BASE: [(&str, f64, MetricPolicy); 4] = [
        ("kernel", 10.0, Gate),
        ("pin", 0.5, Exact),
        ("tps", 100.0, InfoHigherBetter),
        ("overhead", 2.0, InfoLowerBetter),
    ];

    /// Checks a run where row `name` reads `value` against `BASE`.
    fn check_with(name: &str, value: f64) -> bool {
        let current: Vec<_> = BASE
            .iter()
            .map(|&(n, v, p)| (n, if n == name { value } else { v }, p))
            .collect();
        let base = render("test", &suite(&BASE));
        check("test", &base, &render("test", &suite(&current)), 15.0)
    }

    fn args(argv: &[&str]) -> Result<Args, String> {
        Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn report_parses_and_round_trips() {
        let mut s = suite(&BASE);
        s.metrics
            .push(Metric::new("frac", 0.732535, "frac", 6, Exact));
        let report = render("test", &s);
        let doc = json::parse(&report).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let frac = doc
            .get("metrics")
            .and_then(|m| m.get("frac"))
            .expect("frac row");
        assert_eq!(frac.get("value").and_then(Json::as_num), Some(0.732535));
        assert_eq!(frac.get("policy").and_then(Json::as_str), Some("exact"));
        assert!(check("test", &report, &report, 15.0));
    }

    #[test]
    fn gate_fails_only_on_a_rise() {
        assert!(!check_with("kernel", 15.0));
        assert!(check_with("kernel", 11.0));
        assert!(check_with("kernel", 2.0));
    }

    #[test]
    fn exact_fails_on_any_change_at_rendered_precision() {
        assert!(!check_with("pin", 0.4));
        assert!(!check_with("pin", 0.6));
        assert!(!check_with("pin", 0.501));
        // Below the three rendered decimals the value is unchanged.
        assert!(check_with("pin", 0.5000004));
    }

    #[test]
    fn info_rows_never_fail() {
        assert!(check_with("tps", 10.0));
        assert!(check_with("overhead", 40.0));
    }

    #[test]
    fn a_row_in_one_report_only_fails_either_way() {
        let base = render("test", &suite(&BASE));
        let mut extra = suite(&BASE);
        extra.metrics.push(Metric::us("new_kernel", 1.0, Gate));
        let extra = render("test", &extra);
        assert!(
            !check("test", &base, &extra, 15.0),
            "row missing from baseline"
        );
        assert!(!check("test", &extra, &base, 15.0), "row missing from run");
    }

    #[test]
    fn policy_change_and_bad_baselines_fail() {
        let base = render("test", &suite(&BASE));
        let mut moved = BASE;
        moved[0].2 = InfoLowerBetter;
        assert!(!check("test", &base, &render("test", &suite(&moved)), 15.0));
        let old_schema = base.replace(SCHEMA, "uwb-dspbench-v1");
        assert!(!check("test", &old_schema, &base, 15.0));
        assert!(!check("test", "{\"kernel\": 10.0}", &base, 15.0));
        assert!(!check("test", "", &base, 15.0));
        let twice = suite(&[("a", 1.0, Gate), ("a", 1.0, Gate)]);
        let twice = render("test", &twice);
        assert!(!check("test", &twice, &twice, 15.0));
    }

    #[test]
    fn args_parse_the_three_flags() {
        assert_eq!(
            args(&[]),
            Ok(Args {
                out: None,
                check: None,
                tol_pct: 15.0
            })
        );
        assert_eq!(
            args(&["--out", "o.json", "--check", "b.json", "--tol", "60"]),
            Ok(Args {
                out: Some("o.json".into()),
                check: Some("b.json".into()),
                tol_pct: 60.0
            })
        );
    }

    #[test]
    fn args_reject_misconfigured_gates() {
        for argv in [
            &["--check"][..],
            &["--out"],
            &["--check", "--tol", "15"],
            &["--tol"],
            &["--tol", "abc"],
            &["--tol", "0"],
            &["--tol", "-5"],
            &["--tol", "inf"],
            &["--tol", "NaN"],
            &["--trials", "400"],
            &["BENCH_dsp.json"],
        ] {
            assert!(args(argv).is_err(), "{argv:?} must be rejected");
        }
    }

    #[test]
    fn time_us_returns_finite_positive() {
        let mut x = 0u64;
        let t = time_us(10, 2, || {
            x = x.wrapping_add(1);
        });
        assert!(t.is_finite() && t >= 0.0);
        assert!(x > 0);
    }
}
