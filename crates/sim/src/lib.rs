//! # uwb-sim — environment models for the pulsed-UWB reproduction
//!
//! Everything between the transmit antenna connector and the receive LNA:
//!
//! * [`time`] — `Picoseconds` / `Hertz` / `SampleRate` newtypes
//! * [`rng`] — seeded, reproducible randomness with Gaussian and
//!   exponential sampling
//! * [`montecarlo`] — deterministic parallel Monte-Carlo engine (bit-identical
//!   results for any thread count, cooperative early stop)
//! * [`awgn`] — calibrated additive noise (per-power, per-SNR, per-Eb/N0)
//! * [`sv_channel`] — IEEE 802.15.3a Saleh–Valenzuela multipath (CM1–CM4),
//!   covering the paper's "rms delay spread ~20 ns" regime
//! * [`interference`] — narrowband interferer generators (CW, modulated)
//! * [`stream`] — block-streamed channel, AWGN and interferer operators;
//!   the batch helpers above run them over one block
//! * [`antenna`] — band-pass behavioral model of the planar elliptical
//!   antenna of paper Fig. 2
//! * [`pathloss`] — free-space/log-distance loss and the FCC −41.3 dBm/MHz
//!   power ceiling
//! * [`topology`] — piconet floor-plan geometry and pairwise path gains
//!
//! # Example: one CM3 channel realization
//!
//! ```
//! use uwb_sim::{ChannelModel, ChannelRealization, Rand};
//!
//! let mut rng = Rand::new(1);
//! let ch = ChannelRealization::generate(ChannelModel::Cm3, &mut rng);
//! assert!((ch.energy() - 1.0).abs() < 1e-9);
//! assert!(ch.rms_delay_spread_ns() > 1.0);
//! ```

#![warn(missing_docs)]

pub mod antenna;
pub mod awgn;
pub mod interference;
pub mod montecarlo;
pub mod pathloss;
pub mod rng;
pub mod stream;
pub mod sv_channel;
pub mod time;
pub mod topology;

pub use antenna::Antenna;
pub use interference::{Interferer, InterfererKind};
pub use montecarlo::{Merge, MonteCarlo, RunOutcome, RunStats, StopReason};
pub use rng::{derive_trial_seed, Rand};
pub use stream::{StreamingAwgn, StreamingChannel, StreamingInterferer};
pub use sv_channel::{ChannelModel, ChannelRealization, SvParams, Tap};
pub use time::{Hertz, Picoseconds, SampleRate};
pub use topology::{LinkGeometry, Position, Topology};
