//! `uwbbench compare BASE HEAD`: judges paired runs of a parent commit
//! (BASE) and a change (HEAD).
//!
//! BASE and HEAD are each a results file written by `--out`, or a
//! directory of them. A BASE run and a HEAD run form a pair when they have
//! the same file name inside their directories, the same workload, and the
//! same position among that workload's runs in the file. A run one side has
//! and the other lacks (its process died before writing) counts as a
//! failure of the side that lacks it. For a claimed metric the change must
//! win at least 9 of 10 pairs (ties count for neither) and its median must
//! differ from the parent's by more than the parent's interquartile range.
//! Every other end-to-end metric may not get worse by more than its bound
//! from `BENCHMARK.json`; where the parent's own spread is wider than the
//! bound it is unresolved, unless every change run beats every parent run.

use std::path::Path;
use std::process::ExitCode;
use uwb_obs::json::{parse, Json};

use crate::metrics::{bounds, END_TO_END};
use crate::stats::{median, quartiles};

/// A row's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Meets the claim rule.
    Improved,
    /// Within its bound and the spread resolves that.
    Unchanged,
    /// Worse by more than its bound.
    Regressed,
    /// A claim not shown, a spread wider than the bound, or no pairs.
    Unresolved,
}

/// Pairs below which no gain is shown.
const MIN_PAIRS: usize = 10;

/// Judges one metric on one workload. `base[i]` and `head[i]` form pair
/// `i`; `bound` is the share of the base median the metric may worsen by.
pub fn judge(
    base: &[f64],
    head: &[f64],
    higher_is_better: bool,
    bound: f64,
    claimed: bool,
) -> Verdict {
    if base.is_empty() || head.is_empty() {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let (mb, mh) = (median(base), median(head));
    let gain = sign * (mh - mb) / mb.abs();
    let (q1, q3) = quartiles(base);
    let (wins, pairs) = wins(base, head, higher_is_better);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > 0.0 && (mh - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    if -gain > bound {
        return Verdict::Regressed;
    }
    let all_better = base
        .iter()
        .all(|&b| head.iter().all(|&h| sign * (h - b) > 0.0));
    if claimed || ((q3 - q1) / mb.abs() > bound && !all_better) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Pairs the change wins (ties count for neither), and pairs.
fn wins(base: &[f64], head: &[f64], higher_is_better: bool) -> (usize, usize) {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let pairs = base.len().min(head.len());
    (
        (0..pairs)
            .filter(|&i| sign * (head[i] - base[i]) > 0.0)
            .count(),
        pairs,
    )
}

/// One run record from a results file.
#[derive(Clone)]
struct RunRecord {
    /// The file's name inside a results directory (empty for a file given
    /// directly) and the record's position among its workload's records in
    /// that file: what pairs it with a record of the other side.
    pair: (String, usize),
    workload: String,
    seed: f64,
    failed: f64,
    fingerprint: String,
    metrics: Json,
}

fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs: Vec<RunRecord> = Vec::new();
    for f in files {
        let name = if path.is_dir() {
            f.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned()
        } else {
            String::new()
        };
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let list = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{}: no \"runs\"", f.display()))?;
        for r in list {
            let field = |k: &str| {
                r.get(k)
                    .ok_or(format!("{}: run without \"{k}\"", f.display()))
            };
            if field("trace")?.as_bool() == Some(true) {
                continue;
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let index = runs
                .iter()
                .filter(|x| x.pair.0 == name && x.workload == workload)
                .count();
            runs.push(RunRecord {
                pair: (name.clone(), index),
                workload,
                seed: field("seed")?.as_num().unwrap_or(f64::NAN),
                failed: field("failed")?.as_num().unwrap_or(f64::NAN),
                fingerprint: field("fingerprint")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics: field("metrics")?.clone(),
            });
        }
    }
    Ok(runs)
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("uwbbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let (mut files, mut claims) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--claim" => claims.push(it.next().ok_or("--claim needs WORKLOAD:METRIC")?.clone()),
            _ => files.push(a.clone()),
        }
    }
    let [base_path, head_path] = files.as_slice() else {
        return Err("need BASE and HEAD".into());
    };
    compare(
        &load(Path::new(base_path))?,
        &load(Path::new(head_path))?,
        &claims,
    )
}

/// Prints one row per workload and end-to-end metric and one line of
/// failures per workload; true when nothing regressed, every claim is
/// shown, and no workload has more failures in HEAD than in BASE.
fn compare(base: &[RunRecord], head: &[RunRecord], claims: &[String]) -> Result<bool, String> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in base.iter().chain(head) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    for c in claims {
        let known = c
            .split_once(':')
            .is_some_and(|(w, m)| workloads.contains(&w) && END_TO_END.iter().any(|x| x.name == m));
        if !known {
            return Err(format!("claim {c} names no workload:metric of the results"));
        }
    }
    let bounds = bounds();

    let mut ok = true;
    println!(
        "{:<20} {:<14} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "change", "wins"
    );
    for &w in &workloads {
        let pairs: Vec<(&RunRecord, &RunRecord)> = of(base, w)
            .filter_map(|b| of(head, w).find(|h| h.pair == b.pair).map(|h| (b, h)))
            .collect();
        // A run without a partner never wrote its results: a failure.
        let (missing_base, missing_head) = (
            of(head, w).count() - pairs.len(),
            of(base, w).count() - pairs.len(),
        );
        // Failures are counted below; the metrics and result counts are
        // compared on the pairs where neither run failed.
        let pairs: Vec<_> = pairs
            .into_iter()
            .filter(|(b, h)| b.failed == 0.0 && h.failed == 0.0)
            .collect();
        for (m, bound) in END_TO_END.iter().zip(&bounds) {
            let value = |r: &RunRecord| {
                r.metrics
                    .get(m.name)
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_num)
                    .unwrap_or(f64::NAN)
            };
            let bv: Vec<f64> = pairs.iter().map(|(b, _)| value(b)).collect();
            let hv: Vec<f64> = pairs.iter().map(|(_, h)| value(h)).collect();
            let claimed = claims.iter().any(|c| c == &format!("{w}:{}", m.name));
            let verdict = judge(&bv, &hv, m.higher_is_better, *bound, claimed);
            let (wins, n) = wins(&bv, &hv, m.higher_is_better);
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4e} [{q1:.3e} {q3:.3e}]", median(v))
            };
            println!(
                "{w:<20} {:<14} {:>30} {:>30} {:>7.2}% {wins:>3}/{n:<2}  {verdict:?}{}",
                m.name,
                side(&bv),
                side(&hv),
                100.0 * (median(&hv) / median(&bv) - 1.0),
                if claimed { " (claimed)" } else { "" }
            );
            ok &= verdict != Verdict::Regressed && (!claimed || verdict == Verdict::Improved);
        }
        let failed = |side: &[RunRecord], missing: usize| {
            of(side, w).map(|r| r.failed).sum::<f64>() + missing as f64
        };
        let (fb, fh) = (failed(base, missing_base), failed(head, missing_head));
        let counts = if pairs.iter().any(|(x, y)| x.seed != y.seed) {
            "not comparable (pairs ran different seeds)"
        } else if pairs.iter().all(|(x, y)| x.fingerprint == y.fingerprint) {
            "identical"
        } else {
            "DIFFER"
        };
        println!(
            "{w:<20} failed: base {fb}, head {fh} (of which runs missing: base {missing_base}, \
             head {missing_head}); result counts {counts}"
        );
        ok &= fh <= fb;
    }
    Ok(ok)
}

/// The runs of one workload on one side.
fn of<'a>(side: &'a [RunRecord], workload: &'a str) -> impl Iterator<Item = &'a RunRecord> {
    side.iter().filter(move |r| r.workload == workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn claim_rule_needs_nine_wins_and_a_gap_beyond_the_spread() {
        let base = ten(100.0, 1.0);
        // Every pair wins by 20: improved.
        let head: Vec<f64> = base.iter().map(|b| b + 20.0).collect();
        assert_eq!(judge(&base, &head, true, 0.1, true), Verdict::Improved);
        // Every pair wins, but by less than the parent's IQR: not shown.
        let head: Vec<f64> = base.iter().map(|b| b + 1.0).collect();
        assert_eq!(judge(&base, &head, true, 0.1, true), Verdict::Unresolved);
        // Eight wins of ten: not shown.
        let mut head: Vec<f64> = base.iter().map(|b| b + 20.0).collect();
        head[0] = 50.0;
        head[1] = 50.0;
        assert_eq!(judge(&base, &head, true, 0.5, true), Verdict::Unresolved);
        // Lower-is-better metrics invert the direction.
        let head: Vec<f64> = base.iter().map(|b| b - 30.0).collect();
        assert_eq!(judge(&base, &head, false, 0.1, true), Verdict::Improved);
        // Nine pairs, all won: too few to show a gain.
        assert_eq!(
            judge(&base[..9], &head[..9], false, 0.1, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn other_metrics_use_the_bound() {
        let base = ten(100.0, 0.5);
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge(&base, &same, true, 0.1, false), Verdict::Unchanged);
        let worse: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(judge(&base, &worse, true, 0.1, false), Verdict::Regressed);
        assert_eq!(judge(&base, &worse, false, 0.1, false), Verdict::Improved);
        // Parent spread wider than the bound: unresolved.
        let noisy = ten(50.0, 20.0);
        let head = ten(52.0, 18.0);
        assert_eq!(judge(&noisy, &head, true, 0.1, false), Verdict::Unresolved);
        // No pairs at all: unresolved, never unchanged.
        assert_eq!(judge(&base, &[], true, 0.1, false), Verdict::Unresolved);
    }

    /// Ten runs of `workload`, one file each, as abtest.sh names them.
    fn runs(workload: &str, rate: f64) -> Vec<RunRecord> {
        (0..10)
            .map(|i| RunRecord {
                pair: (format!("{i:03}-{workload}.json"), 0),
                workload: workload.to_string(),
                seed: 1.0,
                failed: 0.0,
                fingerprint: "f".into(),
                metrics: parse(&format!(
                    "{{\"packets_per_s\":{{\"value\":{}}},\"setup_s\":{{\"value\":{}}}}}",
                    rate + i as f64,
                    0.01 + 1e-4 * i as f64
                ))
                .unwrap(),
            })
            .collect()
    }

    #[test]
    fn runs_missing_from_head_are_failures() {
        let mut base = runs("net_city_1k", 1000.0);
        base.extend(runs("mac_city_1k", 500.0));
        assert_eq!(compare(&base, &base.clone(), &[]), Ok(true));

        // Every HEAD run of one workload crashed before writing results.
        let only_net: Vec<RunRecord> = runs("net_city_1k", 1000.0);
        assert_eq!(compare(&base, &only_net, &[]), Ok(false));

        // One HEAD run of ten is missing; the others still pair by name.
        let mut gap = runs("net_city_1k", 1000.0);
        gap.remove(3);
        assert_eq!(compare(&base[..10], &gap, &[]), Ok(false));
        // The same gap in BASE is the parent's failure, not the change's.
        assert_eq!(compare(&gap, &base[..10], &[]), Ok(true));

        // A HEAD run that wrote results but failed a check.
        let mut bad = base[..10].to_vec();
        bad[5].failed = 1.0;
        bad[5].metrics = parse("{}").unwrap();
        assert_eq!(compare(&base[..10], &bad, &[]), Ok(false));
    }
}
