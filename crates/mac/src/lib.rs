//! # uwb-mac — deterministic traffic + CSMA + ARQ over the UWB piconet
//!
//! The layers below this crate answer "what BER does a link see at this
//! SNR, through this interference?". This crate answers the question the
//! paper's multi-piconet band plan exists for: **how much offered traffic
//! does the network actually deliver, and at what latency?**
//!
//! It is a discrete-event MAC simulator on top of `uwb-net`'s sparse
//! interference graph:
//!
//! * **Traffic** ([`traffic`]) — per-link Poisson or bursty on/off packet
//!   arrivals, in Erlangs of the link's nominal service cycle, feeding
//!   bounded FIFO queues.
//! * **Channel access** ([`runner`]) — CSMA with binary exponential
//!   backoff over the *sensable* subgraph of the coupling matrix: a
//!   neighbor coupled at or above the sense threshold defers us; one
//!   coupled below it is a hidden terminal whose waveform still mixes
//!   into our receiver. Collisions are not a coin flip — the overlapping
//!   waveforms are genuinely superposed at their slot offsets and the
//!   pooled PHY workers decode the result.
//! * **Delivery** — stop-and-wait ARQ with event-level ACKs, timeouts, a
//!   retry limit, and drop accounting.
//!
//! ## Determinism contract
//!
//! The event scheduler ([`events`]) is a binary heap totally ordered by
//! `(time, link, seq)`; every random draw comes from streams keyed on
//! `(seed, replication, link)`; one replication is one trial on the
//! ordered-merge Monte-Carlo engine. Reports are therefore bit-identical
//! for any `UWB_THREADS`, including when idle engine threads become
//! decode lanes for frames that end in the same slot (see [`runner`]).
//! The warm steady-state loop of a one-lane worker allocates nothing (see
//! `tests/alloc_regression.rs` at the workspace root).
//!
//! # Example: a lightly loaded 2-user piconet
//!
//! ```
//! use uwb_mac::{run_mac, MacScenario};
//!
//! let mut sc = MacScenario::ring(2, 9.0, 0.2, 42);
//! sc.horizon_slots = 400;
//! sc.replications = 1;
//! let report = run_mac(&sc);
//! assert_eq!(report.len(), 2);
//! assert_eq!(
//!     report.offered_total,
//!     report.delivered_total + report.dropped_total,
//!     "queues drain to completion after the horizon"
//! );
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod plan;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod traffic;

pub use events::{Event, EventKind, EventQueue};
pub use plan::{plan_mac, MacParams, MacPlan};
pub use report::{MacLinkReport, MacReport};
pub use runner::{run_mac, run_mac_plan_threads, MacAccumulator, MacLinkStats, MacWorker};
pub use scenario::MacScenario;
pub use traffic::{ArrivalGen, TrafficModel};
