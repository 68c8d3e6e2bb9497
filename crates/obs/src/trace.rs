//! Span timelines: per-thread fixed-capacity rings of
//! `{stage, trial, start_ns, dur_ns}` records filled by the same [`crate::span!`]
//! RAII guards that feed the aggregate stage timers, drained per Monte-Carlo
//! chunk into [`crate::Telemetry::spans`] and exportable as Chrome Trace
//! Event Format JSON (viewable in Perfetto / `chrome://tracing`).
//!
//! Only compiled into real collectors with the `obs-trace` cargo feature
//! (which implies `obs`); otherwise every function here is a no-op and
//! [`enabled`] returns `false`.
//!
//! ## Determinism contract
//!
//! `start_ns`, `dur_ns`, and `thread` are wall-clock / scheduling artifacts
//! and are **excluded** from the determinism contract. Record **counts and
//! ordering** — the `(name, trial)` sequence hashed by
//! [`crate::Telemetry::trace_fingerprint`] — are bit-identical for any
//! `UWB_THREADS`, because each chunk's records are appended in serial
//! execution order and chunks merge in ascending chunk order.
//!
//! ## Allocation contract
//!
//! The per-thread ring is reserved to `TRACE_CAP` records on the first
//! span of each thread (a warm-up-path, one-time allocation) and never grows:
//! once full between drains, further records are counted as dropped rather
//! than reallocating, so steady-state spans stay allocation-free.

/// Capacity of each per-thread span ring, in records. Sized so one chunk of
/// a 1,000-user network round (≈ 20k spans) fits without drops; when a chunk
/// overflows it, the newest records are dropped and counted
/// ([`crate::Telemetry::spans_dropped`]) deterministically.
#[cfg(feature = "obs-trace")]
const TRACE_CAP: usize = 65_536;

/// One completed span: a named pipeline stage that ran on `thread` during
/// Monte-Carlo trial `trial`, from `start_ns` (process-relative) for
/// `dur_ns` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (a registered static string).
    pub name: &'static str,
    /// Monte-Carlo trial (or network round) index the span ran under.
    pub trial: u64,
    /// Start time in nanoseconds since the process trace epoch
    /// (wall-clock: excluded from the determinism contract).
    pub start_ns: u64,
    /// Duration in nanoseconds (wall-clock: excluded from the determinism
    /// contract).
    pub dur_ns: u64,
    /// Arbitrary per-thread id (assigned in thread-creation order; excluded
    /// from the determinism contract).
    pub thread: u32,
}

/// `true` when this build records span timelines (`obs-trace` feature on).
pub const fn enabled() -> bool {
    cfg!(feature = "obs-trace")
}

#[cfg(feature = "obs-trace")]
mod imp {
    use super::{SpanRecord, TRACE_CAP};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Process-wide epoch all span start times are measured against.
    pub(crate) fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    struct Ring {
        /// `(stage id, trial, start_ns, dur_ns)`; names resolve at drain.
        buf: Vec<(u16, u64, u64, u64)>,
        dropped: u64,
        thread: u32,
    }

    thread_local! {
        static RING: RefCell<Ring> = RefCell::new(Ring {
            buf: Vec::new(),
            dropped: 0,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        });
    }

    /// Appends one completed span to this thread's ring (called from
    /// `StageTimer::drop`). Reserves the full ring capacity on first use;
    /// saturates (counting drops) instead of growing.
    #[inline]
    pub(crate) fn push(stage: u16, trial: u64, start_ns: u64, dur_ns: u64) {
        RING.with(|r| {
            let mut r = r.borrow_mut();
            if r.buf.capacity() == 0 {
                r.buf.reserve_exact(TRACE_CAP);
            }
            if r.buf.len() < TRACE_CAP {
                r.buf.push((stage, trial, start_ns, dur_ns));
            } else {
                r.dropped += 1;
            }
        });
    }

    /// Drains this thread's ring into name-resolved records (take
    /// semantics; the ring keeps its capacity).
    pub(crate) fn drain() -> (Vec<SpanRecord>, u64) {
        let names = crate::registry::stage_names();
        RING.with(|r| {
            let mut r = r.borrow_mut();
            if r.buf.is_empty() && r.dropped == 0 {
                return (Vec::new(), 0);
            }
            let thread = r.thread;
            let spans = r
                .buf
                .iter()
                .map(|&(stage, trial, start_ns, dur_ns)| SpanRecord {
                    name: names.get(stage as usize).copied().unwrap_or("?"),
                    trial,
                    start_ns,
                    dur_ns,
                    thread,
                })
                .collect();
            r.buf.clear();
            let dropped = std::mem::take(&mut r.dropped);
            (spans, dropped)
        })
    }
}

#[cfg(feature = "obs-trace")]
pub(crate) use imp::{drain, epoch, push};

/// Empty drain (`obs-trace` feature off; kept for cfg symmetry).
#[cfg(not(feature = "obs-trace"))]
#[inline(always)]
#[allow(dead_code)]
pub(crate) fn drain() -> (Vec<SpanRecord>, u64) {
    (Vec::new(), 0)
}

/// Renders span records as a Chrome Trace Event Format document
/// (`{"traceEvents":[...]}` with `ph:"X"` complete events), loadable in
/// Perfetto or `chrome://tracing`. Timestamps are microseconds with
/// nanosecond precision; the Monte-Carlo trial index rides in `args.trial`.
pub fn export_chrome(spans: &[SpanRecord]) -> String {
    let mut s = String::with_capacity(128 + spans.len() * 96);
    s.push_str("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":{},\"cat\":\"uwb\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trial\":{}}}}}",
            crate::json::escape(sp.name),
            sp.start_ns / 1_000,
            sp.start_ns % 1_000,
            sp.dur_ns / 1_000,
            sp.dur_ns % 1_000,
            sp.thread,
            sp.trial
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_json_and_carries_trials() {
        let spans = [
            SpanRecord {
                name: "tx",
                trial: 3,
                start_ns: 1_234_567,
                dur_ns: 890,
                thread: 0,
            },
            SpanRecord {
                name: "rx_rake",
                trial: 4,
                start_ns: 2_000_000,
                dur_ns: 1_500,
                thread: 1,
            },
        ];
        let doc = export_chrome(&spans);
        let v = crate::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("tx"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_num(), Some(1234.567));
        assert_eq!(
            events[1].get("args").unwrap().get("trial").unwrap().as_num(),
            Some(4.0)
        );
        // Empty timeline still renders a valid document.
        crate::json::parse(&export_chrome(&[])).unwrap();
    }

    #[test]
    fn spans_ride_the_thread_telemetry_drain() {
        let _ = crate::take_thread_telemetry(); // clear residue
        {
            let _t = crate::span!("trace_test_stage");
            std::hint::black_box(0u64);
        }
        let snap = crate::take_thread_telemetry();
        if enabled() {
            assert_eq!(snap.spans.len(), 1);
            assert_eq!(snap.spans[0].name, "trace_test_stage");
            assert_eq!(snap.spans_dropped, 0);
            // Second drain is empty.
            assert!(crate::take_thread_telemetry().spans.is_empty());
        } else {
            assert!(snap.spans.is_empty());
        }
    }
}
