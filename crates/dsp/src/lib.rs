//! # uwb-dsp — DSP substrate for the pulsed-UWB transceiver reproduction
//!
//! Dependency-free digital signal processing primitives used by every other
//! crate in the workspace:
//!
//! * [`Complex`] arithmetic for equivalent-baseband processing
//! * [`Fft`] — radix-2 FFT with in-place transforms and a thread-local plan
//!   cache ([`fft::cached_plan`]), for spectra and test oracles
//! * [`DspScratch`] — reusable buffer arena for allocation-free steady-state
//!   kernels
//! * [`FirFilter`] — windowed-sinc FIR design (lowpass/highpass)
//! * [`Biquad`]/[`BiquadCascade`] — IIR sections including the tunable notch
//! * [`Window`] functions (Hann, Hamming, Blackman, Kaiser)
//! * [`Nco`] — phase-continuous oscillator for frequency translation
//! * [`correlation`] — sliding and normalized correlation for tests and
//!   `dspbench` (the receiver correlates through `uwb_phy::CorrelatorBank`)
//! * [`resample`] — up/down-sampling and fractional delay (retiming block)
//! * [`psd`] — periodogram and Welch PSD estimation (spectral monitoring,
//!   FCC-mask checks)
//! * [`math`] — dB conversions, `erfc`/Q-function, Bessel I0, statistics
//!
//! # Example: matched-filter detection of a pulse
//!
//! ```
//! use uwb_dsp::{correlation::cross_correlate, Complex};
//!
//! // A simple 8-sample template embedded in a longer record.
//! let template: Vec<Complex> = (0..8)
//!     .map(|i| Complex::cis(0.3 * i as f64))
//!     .collect();
//! let mut record = vec![Complex::ZERO; 64];
//! for (i, &t) in template.iter().enumerate() {
//!     record[20 + i] = t;
//! }
//! let corr = cross_correlate(&record, &template);
//! let (peak_idx, _) = uwb_dsp::correlation::peak(&corr).unwrap();
//! assert_eq!(peak_idx, 20);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod correlation;
pub mod fft;
pub mod fir;
pub mod iir;
pub mod math;
pub mod nco;
pub mod psd;
pub mod resample;
pub mod scratch;
pub mod simd;
pub mod stream;
pub mod window;

pub use complex::Complex;
pub use fft::Fft;
pub use fir::FirFilter;
pub use iir::{Biquad, BiquadCascade};
pub use nco::Nco;
pub use psd::Psd;
pub use scratch::DspScratch;
pub use stream::BlockProcessor;
pub use window::Window;
