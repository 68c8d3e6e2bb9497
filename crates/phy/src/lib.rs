//! # uwb-phy — the pulsed-UWB PHY (the paper's primary contribution)
//!
//! Reproduction of the transceiver architecture of *Blázquez et al., "Direct
//! Conversion Pulsed UWB Transceiver Architecture", DATE 2005* — the
//! second-generation 3.1–10.6 GHz system of the paper's Fig. 3, built from
//! the following blocks:
//!
//! | Paper block | Module |
//! |---|---|
//! | 500 MHz pulses | [`pulse`] |
//! | 14-channel band plan | [`bandplan`] |
//! | "Pulses per bit" / modulation | [`modulation`], [`config`] |
//! | packet framing + preamble | [`packet`], [`pn`], [`scrambler`], [`crc`] |
//! | transmitter | [`tx`] |
//! | parallelized correlators | [`correlator`] |
//! | coarse acquisition | [`acquisition`] |
//! | PLL/DLL fine tracking | [`tracking`] |
//! | 4-bit channel estimation | [`chanest`] |
//! | programmable RAKE | [`rake`] |
//! | Viterbi demodulator (FEC + MLSE) | [`fec`], [`mlse`] |
//! | spectral monitoring → notch | [`spectral`] (filter in `uwb-rf`) |
//! | power/QoS/rate adaptation | [`adapt`], [`power`] |
//! | "precise locationing" (abstract) | [`ranging`] |
//! | full digital back end | [`receiver`] |
//!
//! # Quickstart: a 100 Mbps packet over the air
//!
//! ```
//! use uwb_phy::{Gen2Config, Gen2Transmitter, Gen2Receiver};
//!
//! # fn main() -> Result<(), uwb_phy::PhyError> {
//! let cfg = Gen2Config::nominal_100mbps();
//! let tx = Gen2Transmitter::new(cfg.clone())?;
//! let rx = Gen2Receiver::new(cfg)?;
//!
//! let burst = tx.transmit_packet(b"hello uwb")?;
//! let packet = rx.receive_packet(&burst.samples)?;
//! assert_eq!(packet.payload, b"hello uwb");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod acquisition;
pub mod adapt;
pub mod bandplan;
pub mod chanest;
pub mod config;
pub mod correlator;
pub mod crc;
pub mod error;
pub mod fec;
pub mod mlse;
pub mod modulation;
pub mod packet;
pub mod pn;
pub mod power;
pub mod pulse;
pub mod rake;
pub mod ranging;
pub mod receiver;
pub mod scrambler;
pub mod spectral;
pub mod stream_rx;
pub mod tracking;
pub mod tx;

pub use acquisition::{AcquisitionConfig, AcquisitionResult, CoarseAcquisition};
pub use adapt::{ChannelConditions, LinkAdapter, OperatingPoint};
pub use bandplan::Channel;
pub use chanest::{estimate_cir, ChannelEstimate};
pub use config::Gen2Config;
pub use correlator::{CorrelatorBank, CorrelatorStats, SpreadCode};
pub use error::PhyError;
pub use fec::ConvCode;
pub use mlse::MlseEqualizer;
pub use modulation::Modulation;
pub use packet::{FrameLayout, FrameScratch, FrameSlots, Header};
pub use power::{PowerBreakdown, PowerClass, PowerModel};
pub use pulse::PulseShape;
pub use rake::RakeReceiver;
pub use ranging::{solve_two_way, RangingResult, ToaEstimate, ToaEstimator};
pub use receiver::{Gen2Receiver, ReceivedPacket, RxState};
pub use spectral::{InterfererReport, SpectralMonitor};
pub use stream_rx::{StreamPhase, StreamRx};
pub use tracking::{Dll, Pll};
pub use tx::{Burst, Gen2Transmitter};
