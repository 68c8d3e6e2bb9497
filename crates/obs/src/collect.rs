//! Per-thread collection state: stage timers, event counts, digests.
//!
//! Every collector slot is a const-initialised `Cell<u64>` inside a
//! `thread_local!` block — no lazy allocation, no locking, no atomic RMW on
//! the warm path. [`take_thread_telemetry`] drains the thread's state into a
//! [`Telemetry`] snapshot (zeroing the slots), which the Monte-Carlo engine
//! merges in deterministic chunk order.

#[cfg(feature = "obs")]
use crate::registry;
use crate::registry::{DigestId, EventId, StageId};
use crate::telemetry::Telemetry;

#[cfg(feature = "obs")]
use crate::telemetry::{digest_bin, DigestStat, EventStat, StageStat, DIGEST_BINS};
#[cfg(feature = "obs")]
use std::cell::Cell;
#[cfg(feature = "obs")]
use std::time::Instant;

#[cfg(feature = "obs")]
use crate::registry::{MAX_DIGESTS, MAX_EVENTS, MAX_STAGES};

// ---------------------------------------------------------------------------
// Thread-local collector (obs on)
// ---------------------------------------------------------------------------

#[cfg(feature = "obs")]
struct Collector {
    stage_ns: [Cell<u64>; MAX_STAGES],
    stage_calls: [Cell<u64>; MAX_STAGES],
    events: [Cell<u64>; MAX_EVENTS],
    digest_n: [Cell<u64>; MAX_DIGESTS],
    digest_sum: [Cell<u64>; MAX_DIGESTS],
    digest_max: [Cell<u64>; MAX_DIGESTS],
    digest_bins: [[Cell<u64>; DIGEST_BINS]; MAX_DIGESTS],
    trial: Cell<u64>,
}

#[cfg(feature = "obs")]
impl Collector {
    const fn new() -> Self {
        Collector {
            stage_ns: [const { Cell::new(0) }; MAX_STAGES],
            stage_calls: [const { Cell::new(0) }; MAX_STAGES],
            events: [const { Cell::new(0) }; MAX_EVENTS],
            digest_n: [const { Cell::new(0) }; MAX_DIGESTS],
            digest_sum: [const { Cell::new(0) }; MAX_DIGESTS],
            digest_max: [const { Cell::new(0) }; MAX_DIGESTS],
            digest_bins: [const { [const { Cell::new(0) }; DIGEST_BINS] }; MAX_DIGESTS],
            trial: Cell::new(0),
        }
    }
}

#[cfg(feature = "obs")]
thread_local! {
    static TLS: Collector = const { Collector::new() };
}

// ---------------------------------------------------------------------------
// Trial tagging
// ---------------------------------------------------------------------------

/// Tags subsequent work on this thread with the given Monte-Carlo trial
/// index: span-timeline records carry it.
#[cfg(feature = "obs")]
#[inline]
pub fn set_trial(trial: u64) {
    TLS.with(|c| c.trial.set(trial));
}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn set_trial(_trial: u64) {}

/// The trial index most recently set on this thread via [`set_trial`].
#[cfg(feature = "obs")]
#[inline]
pub fn current_trial() -> u64 {
    TLS.with(|c| c.trial.get())
}

/// Always 0 (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn current_trial() -> u64 {
    0
}

// ---------------------------------------------------------------------------
// Stage timers
// ---------------------------------------------------------------------------

/// RAII guard accumulating wall nanoseconds (and one call) into a stage's
/// per-thread slot on drop. Construct via [`crate::span!`].
#[cfg(feature = "obs")]
pub struct StageTimer {
    id: StageId,
    t0: Instant,
}

#[cfg(feature = "obs")]
impl StageTimer {
    /// Starts timing the given stage (no-op guard if `id` is the sentinel).
    #[inline]
    pub fn start(id: StageId) -> StageTimer {
        // Pin the trace epoch no later than any span start, so span start
        // offsets never saturate to zero (except the epoch-defining first).
        #[cfg(feature = "obs-trace")]
        let _ = crate::trace::epoch();
        StageTimer {
            id,
            t0: Instant::now(),
        }
    }
}

#[cfg(feature = "obs")]
impl Drop for StageTimer {
    #[inline]
    fn drop(&mut self) {
        if self.id == StageId::NONE {
            return;
        }
        let ns = self.t0.elapsed().as_nanos() as u64;
        let i = self.id.0 as usize;
        let trial = TLS.with(|c| {
            c.stage_ns[i].set(c.stage_ns[i].get().wrapping_add(ns));
            c.stage_calls[i].set(c.stage_calls[i].get() + 1);
            c.trial.get()
        });
        #[cfg(feature = "obs-trace")]
        {
            let start_ns = self
                .t0
                .saturating_duration_since(crate::trace::epoch())
                .as_nanos() as u64;
            crate::trace::push(self.id.0, trial, start_ns, ns);
        }
        #[cfg(not(feature = "obs-trace"))]
        let _ = trial;
    }
}

/// Zero-sized no-op guard (`obs` feature off).
#[cfg(not(feature = "obs"))]
pub struct StageTimer;

#[cfg(not(feature = "obs"))]
impl StageTimer {
    /// No-op.
    #[inline(always)]
    pub fn start(_id: StageId) -> StageTimer {
        StageTimer
    }
}

/// Empty `Drop` so call sites may end a span early with `drop(timer)`
/// without tripping `clippy::drop_non_drop` in the no-op build; the
/// optimizer erases it entirely.
#[cfg(not(feature = "obs"))]
impl Drop for StageTimer {
    #[inline(always)]
    fn drop(&mut self) {}
}

// ---------------------------------------------------------------------------
// Event / digest recording (called from the macros)
// ---------------------------------------------------------------------------

/// Bumps the per-thread count for the event and leaves a breadcrumb on the
/// flight recorder's in-flight trial. Called by [`crate::event!`]; not
/// public API.
#[cfg(feature = "obs")]
#[doc(hidden)]
#[inline]
pub fn record_event(id: EventId, value: u64) {
    if id == EventId::NONE {
        return;
    }
    TLS.with(|c| {
        let i = id.0 as usize;
        c.events[i].set(c.events[i].get() + 1);
    });
    crate::recorder::crumb(id.0, value);
}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[doc(hidden)]
#[inline(always)]
pub fn record_event(_id: EventId, _value: u64) {}

/// Records `value` into the percentile digest's per-thread log-linear bins.
/// Called by [`crate::digest!`]; not public API.
#[cfg(feature = "obs")]
#[doc(hidden)]
#[inline]
pub fn record_digest(id: DigestId, value: u64) {
    if id == DigestId::NONE {
        return;
    }
    let i = id.0 as usize;
    let b = digest_bin(value);
    TLS.with(|c| {
        c.digest_n[i].set(c.digest_n[i].get() + 1);
        c.digest_sum[i].set(c.digest_sum[i].get().wrapping_add(value));
        c.digest_max[i].set(c.digest_max[i].get().max(value));
        c.digest_bins[i][b].set(c.digest_bins[i][b].get() + 1);
    });
}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[doc(hidden)]
#[inline(always)]
pub fn record_digest(_id: DigestId, _value: u64) {}

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

/// Drains this thread's collector into a [`Telemetry`] snapshot, zeroing
/// every slot (take semantics). The snapshot's entries are sorted by name.
///
/// With the `obs` feature off this allocates nothing and returns an empty
/// snapshot.
#[cfg(feature = "obs")]
pub fn take_thread_telemetry() -> Telemetry {
    let stage_names = registry::stage_names();
    let event_names = registry::event_names();
    let digest_names = registry::digest_names();

    TLS.with(|c| {
        let mut stages: Vec<StageStat> = Vec::new();
        for (i, name) in stage_names.iter().enumerate() {
            let calls = c.stage_calls[i].replace(0);
            let ns = c.stage_ns[i].replace(0);
            if calls > 0 || ns > 0 {
                stages.push(StageStat { name, calls, ns });
            }
        }
        let mut events: Vec<EventStat> = Vec::new();
        for (i, name) in event_names.iter().enumerate() {
            let count = c.events[i].replace(0);
            if count > 0 {
                events.push(EventStat { name, count });
            }
        }
        let mut digests: Vec<DigestStat> = Vec::new();
        for (i, name) in digest_names.iter().enumerate() {
            let count = c.digest_n[i].replace(0);
            let sum = c.digest_sum[i].replace(0);
            let max = c.digest_max[i].replace(0);
            let mut bins: Vec<(u16, u64)> = Vec::new();
            for (b, cell) in c.digest_bins[i].iter().enumerate() {
                let n = cell.replace(0);
                if n > 0 {
                    bins.push((b as u16, n));
                }
            }
            if count > 0 {
                digests.push(DigestStat {
                    name,
                    count,
                    sum,
                    max,
                    bins,
                });
            }
        }
        stages.sort_unstable_by_key(|s| s.name);
        events.sort_unstable_by_key(|e| e.name);
        digests.sort_unstable_by_key(|d| d.name);
        let (spans, spans_dropped) = crate::trace::drain();
        let worst = crate::recorder::drain();
        Telemetry {
            stages,
            events,
            digests,
            spans,
            spans_dropped,
            worst,
        }
    })
}

/// Empty snapshot (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline]
pub fn take_thread_telemetry() -> Telemetry {
    Telemetry::default()
}

/// Adds a snapshot back into this thread's collector — the inverse of
/// [`take_thread_telemetry`]. A helper thread that ran part of a trial
/// drains its own collector and the trial's thread merges the result, so
/// the next drain on that thread covers the helper's work too. Stage
/// calls/ns, event counts and digest bins add; span records
/// append to this thread's trace ring (saturating like any other span).
/// Flight-recorder entries are not carried: a helper never arms a trial,
/// so its snapshot has none.
#[cfg(feature = "obs")]
pub fn merge_thread_telemetry(t: &Telemetry) {
    let add = |cell: &Cell<u64>, v: u64| cell.set(cell.get().wrapping_add(v));
    TLS.with(|c| {
        for s in &t.stages {
            let id = registry::register_stage(s.name);
            if id != StageId::NONE {
                add(&c.stage_calls[id.0 as usize], s.calls);
                add(&c.stage_ns[id.0 as usize], s.ns);
            }
        }
        for e in &t.events {
            let id = registry::register_event(e.name);
            if id != EventId::NONE {
                add(&c.events[id.0 as usize], e.count);
            }
        }
        for d in &t.digests {
            let id = registry::register_digest(d.name);
            if id != DigestId::NONE {
                let i = id.0 as usize;
                add(&c.digest_n[i], d.count);
                add(&c.digest_sum[i], d.sum);
                c.digest_max[i].set(c.digest_max[i].get().max(d.max));
                for &(b, n) in &d.bins {
                    add(&c.digest_bins[i][b as usize], n);
                }
            }
        }
    });
    #[cfg(feature = "obs-trace")]
    for sp in &t.spans {
        let id = registry::register_stage(sp.name);
        if id != StageId::NONE {
            crate::trace::push(id.0, sp.trial, sp.start_ns, sp.dur_ns);
        }
    }
}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn merge_thread_telemetry(_t: &Telemetry) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_and_drains() {
        let _ = take_thread_telemetry(); // clear residue from other tests
        {
            let _t = crate::span!("collect_test_stage");
            std::hint::black_box(0u64);
        }
        {
            let _t = crate::span!("collect_test_stage");
            std::hint::black_box(0u64);
        }
        let snap = take_thread_telemetry();
        if crate::enabled() {
            let s = snap.stage("collect_test_stage").expect("stage present");
            assert_eq!(s.calls, 2);
            // second drain is empty
            let snap2 = take_thread_telemetry();
            assert!(snap2.stage("collect_test_stage").is_none());
        } else {
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn events_and_digests_drain() {
        let _ = take_thread_telemetry();
        crate::event!("collect_test_event");
        crate::event!("collect_test_event", 9u64);
        crate::digest!("collect_test_digest", 5u64);
        crate::digest!("collect_test_digest", 0u64);
        crate::digest!("collect_test_digest", 40u64);
        let snap = take_thread_telemetry();
        if crate::enabled() {
            assert_eq!(snap.event_count("collect_test_event"), 2);
            let d = snap
                .digests
                .iter()
                .find(|d| d.name == "collect_test_digest")
                .expect("digest present");
            assert_eq!(d.count, 3);
            assert_eq!(d.sum, 45);
            assert_eq!(d.max, 40);
            // Exact bins below 16; 40 = 0b101000 -> decade 2^5, sub-bucket 4.
            assert_eq!(d.bins, vec![(0, 1), (5, 1), (16 + 16 + 4, 1)]);
        } else {
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn helper_thread_snapshot_merges_into_this_thread() {
        let _ = take_thread_telemetry();
        let work = || {
            {
                let _t = crate::span!("collect_test_merge_stage");
            }
            crate::event!("collect_test_merge_event");
            crate::digest!("collect_test_merge_digest", 40u64);
        };
        work();
        let helper = std::thread::scope(|s| {
            s.spawn(|| {
                work();
                take_thread_telemetry()
            })
            .join()
            .unwrap()
        });
        merge_thread_telemetry(&helper);
        let merged = take_thread_telemetry();
        let mut twice = helper.clone();
        twice.merge(&helper);
        assert_eq!(merged.fingerprint(), twice.fingerprint());
        if crate::enabled() {
            assert_eq!(merged.stage("collect_test_merge_stage").unwrap().calls, 2);
            assert_eq!(merged.event_count("collect_test_merge_event"), 2);
        } else {
            assert!(merged.is_empty());
        }
    }

    #[test]
    fn trial_tag_roundtrip() {
        set_trial(41);
        if crate::enabled() {
            assert_eq!(current_trial(), 41);
        } else {
            assert_eq!(current_trial(), 0);
        }
        set_trial(0);
    }
}
