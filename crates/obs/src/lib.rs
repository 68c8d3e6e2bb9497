//! # uwb-obs — zero-overhead telemetry for the UWB reproduction
//!
//! The paper's receiver must *adapt* (power/QoS/data-rate, interferer
//! monitoring) based on what the pipeline observes at runtime, and more than
//! half of the system's power sits in the digital back end — so knowing
//! *where* per-trial time goes and *why* a packet failed is part of the
//! architecture, not an afterthought. This crate provides the measurement
//! substrate used by every other crate in the workspace, one collector per
//! question:
//!
//! * **stages** — [`span!`] / [`StageTimer`]: RAII nanosecond accumulators
//!   with preallocated per-thread slots (zero heap allocation on the warm
//!   path);
//! * **event counts** — [`event!`]: deterministic per-thread counts of rare
//!   happenings (acquisition miss, CRC failure, notch retune); the flight
//!   recorder keeps the most recent ones per trial as breadcrumbs;
//! * **distributions** — [`digest!`]: fixed log-linear (HDR-style)
//!   digests of deterministic per-trial quantities (bit errors per
//!   trial, latencies, retries) with deterministic p50/p95/p99/max
//!   extraction ([`telemetry::DigestStat::quantile`]), surfaced as the
//!   `"quantiles"` array of the `uwb-telemetry-v3` report;
//! * **forensics** — [`recorder`]: a bounded deterministic ring of the K
//!   worst trials with forensic snapshots (trial seed for replay, [`note!`]
//!   values, event breadcrumbs), thread-count-invariant by construction;
//! * **timelines** — [`trace`] (opt-in `obs-trace` feature): the same
//!   [`span!`] guards additionally fill per-thread rings of
//!   `{stage, trial, start_ns, dur_ns}` records, exportable as Chrome Trace
//!   Event JSON for Perfetto.
//!
//! A [`Telemetry`] snapshot is a mergeable, JSON-renderable copy of a
//! thread's stage/event/digest state, drained per Monte-Carlo chunk and
//! merged in deterministic chunk order by `uwb_sim::montecarlo`.
//!
//! ## The `obs` feature
//!
//! With the `obs` feature **off** (the default for bare library consumers),
//! every macro and collection function compiles to a no-op: [`StageTimer`]
//! is a zero-sized type, [`event!`]/[`digest!`]/[`note!`] expand to dead
//! borrows the optimizer deletes, and [`take_thread_telemetry`] returns an
//! empty [`Telemetry`]. The umbrella `uwb` crate and the experiment binaries
//! enable the feature by default. The `obs-trace` feature (off by default,
//! implies `obs`) additionally turns on span timelines; without it
//! [`trace::enabled`] is `false` and span recording costs nothing.
//!
//! ## Digest bin edges
//!
//! [`digest!`] bins values below 16 exactly, then splits each power of two
//! `[2^e, 2^(e+1))` (4 ≤ e ≤ 63) into 16 linear sub-buckets
//! ([`DIGEST_BINS`] bins in all). That bounds the relative quantile error at
//! 6.25%, and the top bin's inclusive upper edge saturates at `u64::MAX`, so
//! every `u64` lands in a bin without wrapping or panicking.
//!
//! ## Determinism contract
//!
//! Stage *call counts*, *event counts*, and *digest bins* depend only on
//! the executed trials, so — drained per chunk and merged in chunk order —
//! they are bit-identical for any `UWB_THREADS`. Stage *nanosecond totals*
//! are wall-clock measurements and are explicitly excluded from that
//! contract; [`Telemetry::to_json_deterministic`] and
//! [`Telemetry::fingerprint`] omit them.
//!
//! ## Example
//!
//! ```
//! fn work() {
//!     let _t = uwb_obs::span!("demo_stage");
//!     uwb_obs::digest!("demo_values", 37u64);
//!     uwb_obs::event!("demo_event");
//! }
//! work();
//! let snap = uwb_obs::take_thread_telemetry();
//! if uwb_obs::enabled() {
//!     assert_eq!(snap.stages[0].name, "demo_stage");
//!     assert_eq!(snap.stages[0].calls, 1);
//! } else {
//!     assert!(snap.is_empty());
//! }
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod telemetry;
pub mod trace;

mod collect;
mod registry;

pub use collect::{
    current_trial, merge_thread_telemetry, set_trial, take_thread_telemetry, StageTimer,
};
#[doc(hidden)]
pub use collect::{record_digest, record_event};
pub use registry::{
    register_digest, register_event, register_note, register_stage, DigestId, EventId, NoteId,
    StageId, MAX_DIGESTS, MAX_EVENTS, MAX_STAGES,
};
pub use telemetry::{DigestStat, EventStat, StageStat, Telemetry, DIGEST_BINS};

/// `true` when this build collects telemetry (the `obs` feature is on).
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

// ---------------------------------------------------------------------------
// Macros — real collectors with `obs`, dead no-ops without.
// ---------------------------------------------------------------------------

/// Starts an RAII stage timer: nanoseconds between this call and the guard's
/// drop are accumulated into the named stage's preallocated per-thread slot.
///
/// ```
/// let _t = uwb_obs::span!("rake");
/// // ... stage body ...
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __UWB_OBS_STAGE: ::std::sync::OnceLock<$crate::StageId> =
            ::std::sync::OnceLock::new();
        $crate::StageTimer::start(*__UWB_OBS_STAGE.get_or_init(|| $crate::register_stage($name)))
    }};
}

/// No-op form (`obs` feature off): a zero-sized guard.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        let _ = &$name;
        $crate::StageTimer::start($crate::StageId::NONE)
    }};
}

/// Records one occurrence of a named rare event (optionally with a `u64`
/// payload): bumps the deterministic per-thread count and, inside a
/// flight-recorder trial, leaves a breadcrumb carrying the payload.
///
/// ```
/// uwb_obs::event!("acq_miss");
/// uwb_obs::event!("notch_retune", 150_000_000u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event!($name, 0u64)
    };
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_EVENT: ::std::sync::OnceLock<$crate::EventId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_EVENT.get_or_init(|| $crate::register_event($name));
        $crate::record_event(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! event {
    ($name:expr) => {{
        let _ = &$name;
    }};
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}

/// Records a `u64` sample into the named percentile digest: a fixed
/// log-linear (HDR-style) histogram with deterministic p50/p95/p99/max
/// extraction, rendered in the telemetry report's `"quantiles"` array.
///
/// ```
/// uwb_obs::digest!("trial_bit_errors", 3u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! digest {
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_DIGEST: ::std::sync::OnceLock<$crate::DigestId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_DIGEST.get_or_init(|| $crate::register_digest($name));
        $crate::record_digest(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! digest {
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}

/// Writes a named forensic note onto the flight recorder's in-flight trial
/// (latest value per name wins; ignored outside `recorder::begin_trial` /
/// `recorder::observe`). Signed quantities should be stored two's-complement
/// (`as u64`) and are rendered back as `i64`.
///
/// ```
/// uwb_obs::note!("snr_milli_db", (-3500i64) as u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! note {
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_NOTE: ::std::sync::OnceLock<$crate::NoteId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_NOTE.get_or_init(|| $crate::register_note($name));
        $crate::recorder::record_note(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! note {
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}
