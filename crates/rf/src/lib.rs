//! # uwb-rf — behavioral RF front-end models
//!
//! The analog portion of the paper's direct-conversion transceiver (Fig. 3),
//! as sampled-signal behavioral models:
//!
//! * [`lna`] — gain / NF / IIP3 low-noise amplifier
//! * [`lo`] — local oscillator with CFO (ppm) and phase noise
//! * [`downconvert`] — quadrature upconverter and zero-IF receiver with I/Q
//!   imbalance and DC offset
//! * [`notch`] — the tunable front-end notch steered by spectral monitoring
//! * [`agc`] — automatic gain control ahead of the ADCs
//! * [`selectivity`] — adjacent-channel rejection curve of the cascade
//! * [`frontend`] — composed [`TxChain`] / [`RxChain`]
//!
//! # Example: upconvert a burst to channel 3 and receive it
//!
//! ```
//! use uwb_rf::{TxChain, RxChain};
//! use uwb_sim::{Rand, time::{Hertz, SampleRate}};
//! use uwb_dsp::Complex;
//!
//! let fs = SampleRate::new(32e9);
//! let carrier = Hertz::from_ghz(4.488);
//! let burst: Vec<Complex> = (0..1024)
//!     .map(|i| {
//!         let t = (i as f64 - 512.0) / 100.0;
//!         Complex::new((-t * t).exp(), 0.0)
//!     })
//!     .collect();
//! let passband = TxChain::new(carrier, 1.0).transmit(&burst, fs);
//! let mut rng = Rand::new(0);
//! let baseband = RxChain::new(carrier).receive(&passband, fs, &mut rng);
//! assert_eq!(baseband.len(), passband.len());
//! ```

#![warn(missing_docs)]

pub mod agc;
pub mod downconvert;
pub mod frontend;
pub mod lna;
pub mod lo;
pub mod notch;
pub mod selectivity;

pub use agc::Agc;
pub use downconvert::{DirectConversionRx, IqImpairments, Upconverter};
pub use frontend::{RxChain, TxChain};
pub use lna::Lna;
pub use lo::LocalOscillator;
pub use notch::TunableNotch;
pub use selectivity::ChannelSelectivity;
