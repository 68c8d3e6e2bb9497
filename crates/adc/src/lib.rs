//! # uwb-adc — data-converter models
//!
//! The converters the two transceivers rely on:
//!
//! * [`Quantizer`] — ideal mid-rise quantizer at any resolution (for the
//!   1-bit vs 4-bit sufficiency study of paper §1)
//! * [`FlashAdc`] — comparator bank with offset-induced INL/DNL
//! * [`SarAdc`] — the gen2 receiver's 5-bit successive-approximation
//!   converter with capacitor mismatch (paper Fig. 3)
//! * [`InterleavedAdc`] — the gen1 4-way time-interleaved 2 GSps flash with
//!   offset/gain/skew mismatch (paper Fig. 1)
//! * [`metrics`] — SNDR / ENOB / SFDR sine-test metrology
//!
//! # Example: the paper's 1-bit regime
//!
//! ```
//! use uwb_adc::Quantizer;
//!
//! let comparator = Quantizer::new(1, 1.0);
//! // A 1-bit converter keeps only the sign.
//! assert_eq!(comparator.quantize(0.3), 0.5);
//! assert_eq!(comparator.quantize(-0.7), -0.5);
//! ```

#![warn(missing_docs)]

pub mod flash;
pub mod interleave;
pub mod metrics;
pub mod quantizer;
pub mod sar;

pub use flash::FlashAdc;
pub use interleave::{InterleaveMismatch, InterleavedAdc};
pub use metrics::{sine_test, SineTestResult};
pub use quantizer::Quantizer;
pub use sar::SarAdc;
