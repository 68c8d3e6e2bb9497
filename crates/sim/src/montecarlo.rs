//! Deterministic parallel Monte-Carlo engine.
//!
//! Every quantitative claim reproduced from the paper (BER waterfalls, sync
//! statistics, interferer-rescue curves) is a Monte-Carlo estimate. This
//! module turns the former one-trial-at-a-time loops into a std-only
//! work-stealing engine whose merged result is **bit-identical for 1 and N
//! worker threads**:
//!
//! * workers pull fixed-size *chunks* of trial indices from a shared atomic
//!   counter (`std::thread::scope`, no extra crates);
//! * each trial gets its own RNG via [`crate::rng::derive_trial_seed`]
//!   `(master_seed, trial)` — streams never depend on which worker ran the
//!   trial;
//! * expensive per-run state (transmitters, receivers, monitors) is built
//!   once per worker by a `make_state` closure and reused across trials;
//! * per-chunk partial results are merged through the [`Merge`] trait in
//!   strict chunk order (an ordered-prefix reduction), and the early-stop
//!   predicate is evaluated at chunk boundaries of that deterministic
//!   order — so the set of trials contributing to the final result does not
//!   depend on thread count or scheduling. Workers that overrun the stop
//!   point have their chunks discarded.
//!
//! Thread count comes from the `UWB_THREADS` environment variable (0 or
//! unset → `std::thread::available_parallelism`), overridable per run with
//! [`MonteCarlo::threads`].
//!
//! ## Telemetry
//!
//! When the `obs` feature is on, the engine drains each worker's
//! [`uwb_obs`] thread-local collector *per chunk* and merges the snapshots
//! in the same deterministic chunk order as the results — so the
//! [`RunStats::telemetry`] stage call counts, event counts, and digest
//! bins cover exactly the contributing trials and are bit-identical for any
//! `UWB_THREADS`. Overrun chunks are discarded together with their
//! telemetry. Stage *nanosecond* totals are wall-clock measurements and are
//! excluded from the determinism contract
//! ([`uwb_obs::Telemetry::to_json_deterministic`] omits them).

use crate::rng::Rand;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use uwb_obs::Telemetry;

/// Result types that can be combined across trials / chunks / workers.
///
/// `merge` must be associative, and the engine guarantees it is only ever
/// applied in ascending trial order, so plain counter addition satisfies the
/// bit-identical determinism contract.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Why a Monte-Carlo run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stop predicate became true on the deterministic merge prefix.
    TargetReached,
    /// All `max_trials` trials ran without the predicate firing — the
    /// estimate is *truncated* by the trial budget and callers must surface
    /// that instead of reporting a clean statistic.
    TrialBudgetExhausted,
}

impl StopReason {
    /// `true` when the run stopped because the trial budget ran out.
    pub fn truncated(&self) -> bool {
        matches!(self, StopReason::TrialBudgetExhausted)
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::TargetReached => write!(f, "target-reached"),
            StopReason::TrialBudgetExhausted => write!(f, "trial-budget-exhausted"),
        }
    }
}

/// Per-run execution statistics.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Trials contributing to the merged result.
    pub trials: u64,
    /// Trials actually executed (≥ `trials`: overrun chunks are discarded).
    pub trials_executed: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Per-run telemetry snapshot: stage timings/call counts, event counts,
    /// and digests accumulated over exactly the contributing trials,
    /// merged in deterministic chunk order. Empty when the `obs` feature is
    /// off.
    pub telemetry: Telemetry,
}

impl RunStats {
    /// Contributing trials per wall-clock second, or `None` when the run was
    /// too short to time meaningfully (wall clock under 1 µs — the old
    /// `max(1e-12)` divide guard silently reported absurd throughputs for
    /// empty runs).
    pub fn trials_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if secs < 1e-6 {
            None
        } else {
            Some(self.trials as f64 / secs)
        }
    }

    /// `true` when the result was cut short by the trial budget.
    pub fn truncated(&self) -> bool {
        self.stop_reason.truncated()
    }

    /// One-line human summary (`trials … in … ms, … trials/s, reason`).
    pub fn summary(&self) -> String {
        let tps = match self.trials_per_sec() {
            Some(v) => format!("{v:.0} trials/s"),
            None => "n/a trials/s".to_string(),
        };
        format!(
            "{} trials in {:.1} ms on {} thread{} ({}, {})",
            self.trials,
            self.wall.as_secs_f64() * 1e3,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            tps,
            self.stop_reason,
        )
    }

    /// `uwb-telemetry-v3` JSON record (hand-rolled — no serde).
    ///
    /// Run-level wall-clock fields (`wall_ms`, `trials_per_sec`) vary
    /// between runs; the embedded `"telemetry"` object is the
    /// *deterministic* view (stage call counts, event counts, and the
    /// `"quantiles"` percentile digests — no nanoseconds)
    /// and is bit-identical for any `UWB_THREADS`. `trials_per_sec` is
    /// `null` when the run was too short to time.
    pub fn to_json(&self) -> String {
        let tps = match self.trials_per_sec() {
            Some(v) => format!("{v:.1}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":\"uwb-telemetry-v3\",\"trials\":{},\"trials_executed\":{},\"wall_ms\":{:.3},\"threads\":{},\"trials_per_sec\":{},\"stop_reason\":\"{}\",\"truncated\":{},\"telemetry\":{}}}",
            self.trials,
            self.trials_executed,
            self.wall.as_secs_f64() * 1e3,
            self.threads,
            tps,
            self.stop_reason,
            self.truncated(),
            self.telemetry.to_json_deterministic(),
        )
    }
}

/// A merged Monte-Carlo result together with its run statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome<R> {
    /// The deterministically merged result.
    pub value: R,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Resolves the worker count: explicit override, else `UWB_THREADS`, else
/// `available_parallelism`.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("UWB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Always 1: the engine runs one trial per call. Kept, reading no
/// environment, only because the benchmark crate still names it; it goes
/// with that crate's next change (ROADMAP item 10).
#[doc(hidden)]
pub fn resolve_batch(_explicit: Option<u64>) -> u64 {
    1
}

/// A configured Monte-Carlo run (see the module docs for the guarantees).
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Master seed; trial `t` runs on `derive_trial_seed(master_seed, t)`.
    pub master_seed: u64,
    /// Hard trial budget (the run never executes more than this many
    /// contributing trials).
    pub max_trials: u64,
    /// Trials per scheduling chunk. The stop predicate is evaluated at
    /// chunk boundaries, so smaller chunks stop closer to the target at the
    /// cost of more scheduling overhead.
    pub chunk_size: u64,
    /// Explicit thread count (`None` → `UWB_THREADS` / available cores).
    pub threads: Option<usize>,
}

impl MonteCarlo {
    /// A run with the default chunk size (8) and environment thread count.
    pub fn new(master_seed: u64, max_trials: u64) -> Self {
        MonteCarlo {
            master_seed,
            max_trials,
            chunk_size: 8,
            threads: None,
        }
    }

    /// Overrides the worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Overrides the chunk size.
    pub fn chunk_size(mut self, n: u64) -> Self {
        self.chunk_size = n.max(1);
        self
    }

    /// Runs the Monte-Carlo loop.
    ///
    /// * `make_state` builds per-worker cached state (transmitters,
    ///   receivers, scratch buffers) once per worker thread;
    /// * `trial(state, trial_index, rng, acc)` runs one trial, accumulating
    ///   into `acc` (a chunk-local `R`); it must be deterministic given the
    ///   trial index and RNG, and must not carry information between trials
    ///   through `state`;
    /// * `stop(&merged)` is evaluated on the deterministic merge prefix
    ///   after each chunk; once true, the run winds down cooperatively.
    ///
    /// Returns the merged result and [`RunStats`]. The result is
    /// bit-identical for any thread count.
    pub fn run<R, S, FS, FT, FP>(&self, make_state: FS, trial: FT, stop: FP) -> RunOutcome<R>
    where
        R: Merge + Default + Send,
        FS: Fn() -> S + Sync,
        FT: Fn(&mut S, u64, &mut Rand, &mut R) + Sync,
        FP: Fn(&R) -> bool + Sync,
    {
        let t0 = Instant::now();
        // Discard telemetry residue on the calling thread so the per-run
        // snapshot covers exactly the contributing trials regardless of
        // whether this thread doubles as the worker (single-threaded mode)
        // or only coordinates (multi-threaded mode).
        let _ = uwb_obs::take_thread_telemetry();
        let threads = resolve_threads(self.threads);
        let chunk = self.chunk_size.max(1);
        let n_chunks = self.max_trials.div_ceil(chunk);

        let next_chunk = AtomicU64::new(0);
        // Chunk index after which no merging happens (u64::MAX = undecided).
        let stop_chunk = AtomicU64::new(u64::MAX);
        let executed = AtomicU64::new(0);
        let reducer = Mutex::new(Reducer::<R> {
            pending: BTreeMap::new(),
            merged: R::default(),
            telemetry: Telemetry::default(),
            frontier: 0,
            stopped_at: None,
        });

        let worker = || {
            let mut state = make_state();
            // Discard any telemetry residue this thread accumulated outside
            // the engine (only possible in single-threaded mode, where the
            // caller's thread is the worker): the per-run snapshot must
            // cover exactly the contributing trials for any thread count.
            let _ = uwb_obs::take_thread_telemetry();
            loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks || c > stop_chunk.load(Ordering::Relaxed) {
                    break;
                }
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(self.max_trials);
                let mut local = R::default();
                for t in lo..hi {
                    uwb_obs::set_trial(t);
                    // Arm the flight recorder with the trial's derived seed
                    // so a worst-trial snapshot can be replayed standalone.
                    uwb_obs::recorder::begin_trial(
                        t,
                        crate::rng::derive_trial_seed(self.master_seed, t),
                    );
                    let mut rng = Rand::for_trial(self.master_seed, t);
                    trial(&mut state, t, &mut rng, &mut local);
                }
                // Drain this chunk's telemetry; it merges (or is discarded)
                // together with the chunk's result.
                let telem = uwb_obs::take_thread_telemetry();
                executed.fetch_add(hi - lo, Ordering::Relaxed);
                let mut red = reducer.lock().expect("reducer poisoned");
                if red.stopped_at.is_some() {
                    // Result already decided; drop the overrun chunk.
                    continue;
                }
                red.pending.insert(c, (local, telem));
                // Advance the deterministic merge frontier.
                loop {
                    let frontier = red.frontier;
                    let Some((r, t)) = red.pending.remove(&frontier) else {
                        break;
                    };
                    red.merged.merge(&r);
                    red.telemetry.merge(&t);
                    let at = red.frontier;
                    red.frontier += 1;
                    if stop(&red.merged) {
                        red.stopped_at = Some(at);
                        stop_chunk.store(at, Ordering::Relaxed);
                        red.pending.clear();
                        break;
                    }
                }
            }
        };

        if threads <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }

        let red = reducer.into_inner().expect("reducer poisoned");
        let (stop_reason, trials) = match red.stopped_at {
            Some(k) => (
                StopReason::TargetReached,
                ((k + 1) * chunk).min(self.max_trials),
            ),
            None => (StopReason::TrialBudgetExhausted, self.max_trials),
        };
        let mut telemetry = red.telemetry;
        if stop_reason.truncated() {
            // Truncation is itself a reportable rare event: record it (ring
            // buffer + count) and fold the record into the run snapshot.
            // Emitted on the coordinating thread after the workers joined,
            // so it is deterministic for any thread count.
            uwb_obs::set_trial(trials.saturating_sub(1));
            uwb_obs::event!("run_truncated", trials);
            telemetry.merge(&uwb_obs::take_thread_telemetry());
        }
        RunOutcome {
            value: red.merged,
            stats: RunStats {
                trials,
                trials_executed: executed.load(Ordering::Relaxed),
                wall: t0.elapsed(),
                threads,
                stop_reason,
                telemetry,
            },
        }
    }
}

struct Reducer<R> {
    pending: BTreeMap<u64, (R, Telemetry)>,
    merged: R,
    telemetry: Telemetry,
    frontier: u64,
    stopped_at: Option<u64>,
}

impl Merge for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for f64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }
}

impl<T: Clone> Merge for Vec<T> {
    /// Concatenation — chunk order makes this deterministic too.
    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Tally {
        trials: u64,
        hits: u64,
        checksum: u64,
    }

    impl Merge for Tally {
        fn merge(&mut self, other: &Self) {
            self.trials += other.trials;
            self.hits += other.hits;
            self.checksum = self.checksum.wrapping_add(other.checksum);
        }
    }

    fn toy_run(threads: usize, max_trials: u64, target_hits: u64) -> (Tally, RunStats) {
        let out = MonteCarlo::new(42, max_trials).threads(threads).run(
            || (),
            |_, trial, rng, acc: &mut Tally| {
                acc.trials += 1;
                if rng.chance(0.125) {
                    acc.hits += 1;
                }
                acc.checksum = acc.checksum.wrapping_add(rng.next_u64() ^ trial);
            },
            |acc| acc.hits >= target_hits,
        );
        (out.value, out.stats)
    }

    #[test]
    fn identical_across_thread_counts() {
        let (v1, s1) = toy_run(1, 10_000, 64);
        for threads in [2, 4, 8] {
            let (vn, sn) = toy_run(threads, 10_000, 64);
            assert_eq!(v1, vn, "{threads} threads");
            assert_eq!(s1.trials, sn.trials);
            assert_eq!(s1.stop_reason, sn.stop_reason);
        }
    }

    #[test]
    fn early_stop_reports_target_reached() {
        let (v, s) = toy_run(4, 100_000, 10);
        assert_eq!(s.stop_reason, StopReason::TargetReached);
        assert!(!s.truncated());
        assert!(v.hits >= 10);
        assert!(s.trials < 100_000, "stop did not engage: {}", s.trials);
        assert_eq!(v.trials, s.trials, "merged trials must match stats");
        assert!(s.trials_executed >= s.trials);
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        // Impossible target: predicate never fires.
        let (v, s) = toy_run(3, 500, u64::MAX);
        assert_eq!(s.stop_reason, StopReason::TrialBudgetExhausted);
        assert!(s.truncated());
        assert_eq!(s.trials, 500);
        assert_eq!(v.trials, 500);
    }

    #[test]
    fn chunk_size_one_matches_serial_trial_granularity() {
        let run = |threads: usize| {
            MonteCarlo::new(7, 1_000)
                .chunk_size(1)
                .threads(threads)
                .run(
                    || (),
                    |_, _, rng, acc: &mut Tally| {
                        acc.trials += 1;
                        if rng.chance(0.5) {
                            acc.hits += 1;
                        }
                    },
                    |acc| acc.hits >= 20,
                )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.value, b.value);
        // With chunk 1, the merged prefix stops exactly at the trial where
        // the 20th hit lands.
        assert_eq!(a.value.hits, 20);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let builds = AtomicU64::new(0);
        let out = MonteCarlo::new(1, 64).threads(2).run(
            || builds.fetch_add(1, Ordering::Relaxed),
            |_, _, _, acc: &mut u64| *acc += 1,
            |_| false,
        );
        assert_eq!(out.value, 64);
        let n = builds.load(Ordering::Relaxed);
        assert!((1..=2).contains(&n), "state built once per worker, got {n}");
    }

    #[test]
    fn stats_formatting() {
        let (_, s) = toy_run(1, 100, 5);
        let json = s.to_json();
        assert!(json.contains("\"schema\":\"uwb-telemetry-v3\""), "{json}");
        assert!(json.contains("\"trials\":"), "{json}");
        assert!(
            json.contains("\"stop_reason\":\"target-reached\""),
            "{json}"
        );
        assert!(json.contains("\"telemetry\":{"), "{json}");
        assert!(s.summary().contains("trials/s"));
        if let Some(tps) = s.trials_per_sec() {
            assert!(tps > 0.0);
        }
    }

    #[test]
    fn trials_per_sec_is_none_for_untimed_runs() {
        let s = RunStats {
            trials: 100,
            trials_executed: 100,
            wall: Duration::from_nanos(10),
            threads: 1,
            stop_reason: StopReason::TrialBudgetExhausted,
            telemetry: Telemetry::default(),
        };
        assert_eq!(s.trials_per_sec(), None);
        assert!(s.summary().contains("n/a trials/s"), "{}", s.summary());
        assert!(
            s.to_json().contains("\"trials_per_sec\":null"),
            "{}",
            s.to_json()
        );
    }

    #[test]
    fn truncated_run_records_event() {
        let (_, s) = toy_run(2, 300, u64::MAX);
        assert!(s.truncated());
        if uwb_obs::enabled() {
            assert_eq!(s.telemetry.event_count("run_truncated"), 1);
        } else {
            assert!(s.telemetry.is_empty());
        }
    }

    #[test]
    fn telemetry_counts_are_thread_count_invariant() {
        let run = |threads: usize| {
            MonteCarlo::new(17, 4_000).threads(threads).run(
                || (),
                |_, _trial, rng, acc: &mut Tally| {
                    let _t = uwb_obs::span!("mc_test_stage");
                    acc.trials += 1;
                    let v = rng.next_u64() % 100;
                    uwb_obs::digest!("mc_test_digest", v);
                    if v == 0 {
                        uwb_obs::event!("mc_test_rare");
                    }
                    if rng.chance(0.125) {
                        acc.hits += 1;
                    }
                },
                |acc| acc.hits >= 40,
            )
        };
        let a = run(1);
        for threads in [2, 4] {
            let b = run(threads);
            assert_eq!(a.value, b.value, "{threads} threads");
            assert_eq!(
                a.stats.telemetry.to_json_deterministic(),
                b.stats.telemetry.to_json_deterministic(),
                "{threads} threads"
            );
            assert_eq!(
                a.stats.telemetry.fingerprint(),
                b.stats.telemetry.fingerprint(),
                "{threads} threads"
            );
        }
        if uwb_obs::enabled() {
            let st = a.stats.telemetry.stage("mc_test_stage").expect("stage");
            assert_eq!(st.calls, a.stats.trials);
        }
    }

    #[test]
    fn env_threads_parsing() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn vec_merge_preserves_trial_order() {
        let run = |threads: usize| {
            MonteCarlo::new(5, 100).threads(threads).run(
                || (),
                |_, trial, _, acc: &mut Vec<u64>| acc.push(trial),
                |_| false,
            )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.value, (0..100).collect::<Vec<u64>>());
        assert_eq!(a.value, b.value);
    }
}
