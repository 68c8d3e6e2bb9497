//! Shared plumbing for the *tracked* benchmark binaries (`dspbench`,
//! `netbench`, `macbench`): timing, the flat `"name": number` JSON
//! convention, and the baseline regression checker behind
//! `scripts/check.sh bench` / `net` / `mac`.
//!
//! Every tracked report uses a flat schema on purpose — each metric is a
//! single `"name": number` pair at some nesting depth, names are globally
//! unique within a report, and the checker needs no real JSON parser (the
//! repo vendors no serde). Binaries declare how each metric is judged via
//! a [`MetricPolicy`] lookup instead of hard-coding key lists in the
//! checker.

use std::process::ExitCode;
use std::time::Instant;

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

/// How the regression checker treats one metric of a tracked report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Smaller is better; a rise beyond tolerance fails the check.
    Gate,
    /// Bigger is better, but too load-sensitive to gate CI on — a drop
    /// beyond tolerance is reported as `slower (info)` only.
    InfoHigherBetter,
    /// Smaller is better, informational only (never fails the check).
    InfoLowerBetter,
    /// Not a metric (schema markers, configuration echoes, profiles).
    Skip,
}

/// Pulls every `"name": number` pair out of a flat-schema report — no
/// general JSON parser needed (or wanted: the repo vendors no serde).
pub fn parse_pairs(json: &str) -> Vec<(String, f64)> {
    let mut pairs = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let Some(endq) = json[start..].find('"') else {
                break;
            };
            let key = &json[start..start + endq];
            i = start + endq + 1;
            // Skip whitespace, expect ':'.
            while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b':' {
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                    i += 1;
                }
                let num_start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'-' | b'e' | b'E' | b'+'))
                {
                    i += 1;
                }
                if let Ok(v) = json[num_start..i].parse::<f64>() {
                    pairs.push((key.to_string(), v));
                }
            }
        } else {
            i += 1;
        }
    }
    pairs
}

/// Compares a freshly rendered report against a committed baseline,
/// printing a metric table and returning the process exit code.
///
/// `policy` maps each metric name to its [`MetricPolicy`]; `tool` labels
/// diagnostics. Only [`MetricPolicy::Gate`] metrics can fail the check:
/// they fail when they rise more than `tol_pct` percent above the
/// baseline. A gated metric missing from the current run also fails.
pub fn check_against(
    tool: &str,
    baseline_path: &str,
    current: &str,
    tol_pct: f64,
    policy: &dyn Fn(&str) -> MetricPolicy,
) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{tool}: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = parse_pairs(&baseline);
    let curr = parse_pairs(current);
    let mut failed = false;
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "metric", "baseline", "current", "delta"
    );
    for (key, base_v) in &base {
        let pol = policy(key);
        if pol == MetricPolicy::Skip {
            continue;
        }
        let Some((_, curr_v)) = curr.iter().find(|(k, _)| k == key) else {
            eprintln!("{tool}: metric {key} missing from current run");
            failed = true;
            continue;
        };
        // Positive delta always means "got worse" for the metric's polarity.
        let scale = base_v.abs().max(1e-12);
        let delta_pct = match pol {
            MetricPolicy::InfoHigherBetter => (base_v - curr_v) / scale * 100.0,
            _ => (curr_v - base_v) / scale * 100.0,
        };
        let verdict = if delta_pct > tol_pct {
            match pol {
                MetricPolicy::Gate => {
                    failed = true;
                    "REGRESSED"
                }
                MetricPolicy::InfoHigherBetter => "slower (info)",
                MetricPolicy::InfoLowerBetter => "worse (info)",
                MetricPolicy::Skip => unreachable!(),
            }
        } else if delta_pct < -tol_pct {
            // Faster/better beyond the tolerance band: candidate for re-pinning.
            "improved"
        } else {
            "ok"
        };
        println!("{key:<34} {base_v:>12.3} {curr_v:>12.3} {delta_pct:>+8.1}% {verdict}");
    }
    if failed {
        eprintln!("{tool}: gated metric regression beyond {tol_pct}% tolerance");
        ExitCode::FAILURE
    } else {
        println!("{tool}: all gated metrics within {tol_pct}% of baseline");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "uwb-test-v1",
  "kernels_us": {
    "alpha": 10.0,
    "beta": 2.5e1
  },
  "throughput_tps": { "tps": 100.0 },
  "overhead_pct": -1.5
}"#;

    fn policy(key: &str) -> MetricPolicy {
        match key {
            "schema" => MetricPolicy::Skip,
            "tps" => MetricPolicy::InfoHigherBetter,
            "overhead_pct" => MetricPolicy::InfoLowerBetter,
            _ => MetricPolicy::Gate,
        }
    }

    #[test]
    fn parse_pairs_extracts_flat_metrics() {
        let pairs = parse_pairs(SAMPLE);
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("alpha"), Some(10.0));
        assert_eq!(get("beta"), Some(25.0));
        assert_eq!(get("tps"), Some(100.0));
        assert_eq!(get("overhead_pct"), Some(-1.5));
        // The schema string is not a number and never parses as a metric.
        assert_eq!(get("schema"), None);
    }

    #[test]
    fn check_passes_identical_report() {
        let dir = std::env::temp_dir().join("uwb_tracked_test_pass");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(&path, SAMPLE).unwrap();
        let code = check_against("test", path.to_str().unwrap(), SAMPLE, 15.0, &policy);
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn check_fails_gated_regression_but_not_info() {
        let dir = std::env::temp_dir().join("uwb_tracked_test_fail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(&path, SAMPLE).unwrap();
        // tps halves (info only) and overhead worsens (info only): pass.
        let slower = SAMPLE
            .replace("\"tps\": 100.0", "\"tps\": 50.0")
            .replace("\"overhead_pct\": -1.5", "\"overhead_pct\": 40.0");
        let code = check_against("test", path.to_str().unwrap(), &slower, 15.0, &policy);
        assert_eq!(code, ExitCode::SUCCESS);
        // A gated kernel rising 50% fails.
        let regressed = SAMPLE.replace("\"alpha\": 10.0", "\"alpha\": 15.0");
        let code = check_against("test", path.to_str().unwrap(), &regressed, 15.0, &policy);
        assert_eq!(code, ExitCode::FAILURE);
        // A gated kernel *improving* never fails.
        let improved = SAMPLE.replace("\"alpha\": 10.0", "\"alpha\": 2.0");
        let code = check_against("test", path.to_str().unwrap(), &improved, 15.0, &policy);
        assert_eq!(code, ExitCode::SUCCESS);
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
