//! Umbrella crate for the pulsed-UWB direct-conversion transceiver
//! reproduction (Blázquez et al., *Direct Conversion Pulsed UWB Transceiver
//! Architecture*, DATE 2005).
//!
//! This crate re-exports the individual workspace crates under short module
//! names so that examples and downstream users can write `uwb::phy::...`
//! instead of depending on each crate separately.
//!
//! # Quickstart
//!
//! ```
//! use uwb::phy::{Gen2Config, Gen2Transmitter, Gen2Receiver};
//! use uwb::sim::ChannelModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = Gen2Config::default();
//! let tx = Gen2Transmitter::new(cfg.clone())?;
//! let payload = vec![0xA5u8; 32];
//! let burst = tx.transmit_packet(&payload)?;
//! assert!(!burst.samples.is_empty());
//! # Ok(())
//! # }
//! ```

/// DSP substrate: FFT, filters, windows, correlation, resampling, PSD.
pub mod dsp {
    pub use uwb_dsp::*;
}

/// Environment models: AWGN, Saleh–Valenzuela channel, interference, antenna.
pub mod sim {
    pub use uwb_sim::*;
}

/// Behavioral RF front-end models.
pub mod rf {
    pub use uwb_rf::*;
}

/// ADC models: ideal quantizer, flash, SAR, interleaving, sine-test metrics.
pub mod adc {
    pub use uwb_adc::*;
}

/// The pulsed-UWB PHY: the paper's primary contribution.
pub mod phy {
    pub use uwb_phy::*;
}

/// First-generation baseband transceiver (paper Fig. 1).
pub mod gen1 {
    pub use uwb_gen1::*;
}

/// Discrete prototype platform substitute: link harness and metrology.
pub mod platform {
    pub use uwb_platform::*;
}

/// Deterministic multi-user piconet simulation across the 14-channel band
/// plan.
pub mod net {
    pub use uwb_net::*;
}

/// Deterministic discrete-event MAC layer: traffic sources, CSMA carrier
/// sense over the interference graph, stop-and-wait ARQ.
pub mod mac {
    pub use uwb_mac::*;
}

/// Observability: telemetry snapshots, span timelines, the worst-trial
/// flight recorder, and percentile digests.
pub mod obs {
    pub use uwb_obs::*;
}
