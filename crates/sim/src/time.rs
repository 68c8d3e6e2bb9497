//! Time and frequency newtypes.
//!
//! UWB work mixes picosecond pulse timing with multi-gigahertz carriers; the
//! newtypes here keep units straight at compile time (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A duration expressed in picoseconds.
///
/// ```
/// use uwb_sim::time::Picoseconds;
/// let pulse = Picoseconds::from_nanos(2.0);
/// assert_eq!(pulse.as_ps(), 2000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picoseconds(f64);

impl Picoseconds {
    /// Creates a duration from picoseconds.
    pub const fn new(ps: f64) -> Self {
        Picoseconds(ps)
    }

    /// Creates a duration from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Picoseconds(ns * 1e3)
    }

    /// Creates a duration from seconds.
    fn from_secs(s: f64) -> Self {
        Picoseconds(s * 1e12)
    }

    /// The value in picoseconds.
    pub fn as_ps(self) -> f64 {
        self.0
    }

    /// The value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 * 1e-3
    }

    /// The value in microseconds.
    fn as_us(self) -> f64 {
        self.0 * 1e-6
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-12
    }
}

impl fmt::Display for Picoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.3} µs", self.as_us())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} ns", self.as_ns())
        } else {
            write!(f, "{:.1} ps", self.0)
        }
    }
}

impl Add for Picoseconds {
    type Output = Picoseconds;
    fn add(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds(self.0 + rhs.0)
    }
}

impl Sub for Picoseconds {
    type Output = Picoseconds;
    fn sub(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Picoseconds {
    type Output = Picoseconds;
    fn mul(self, rhs: f64) -> Picoseconds {
        Picoseconds(self.0 * rhs)
    }
}

impl Div<f64> for Picoseconds {
    type Output = Picoseconds;
    fn div(self, rhs: f64) -> Picoseconds {
        Picoseconds(self.0 / rhs)
    }
}

/// A frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from hertz.
    pub const fn new(hz: f64) -> Self {
        Hertz(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// The value in hertz.
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// The value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 * 1e-6
    }

    /// The value in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// The period of one cycle.
    pub fn period(self) -> Picoseconds {
        Picoseconds::from_secs(1.0 / self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e9 {
            write!(f, "{:.4} GHz", self.as_ghz())
        } else if self.0.abs() >= 1e6 {
            write!(f, "{:.3} MHz", self.as_mhz())
        } else {
            write!(f, "{:.1} Hz", self.0)
        }
    }
}

impl Add for Hertz {
    type Output = Hertz;
    fn add(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 + rhs.0)
    }
}

impl Sub for Hertz {
    type Output = Hertz;
    fn sub(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

/// A sampling rate in samples per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SampleRate(f64);

impl SampleRate {
    /// Creates a sample rate.
    ///
    /// # Panics
    ///
    /// Panics if `sps` is not strictly positive and finite.
    pub fn new(sps: f64) -> Self {
        assert!(sps > 0.0 && sps.is_finite(), "sample rate must be positive");
        SampleRate(sps)
    }

    /// Creates a sample rate in gigasamples per second.
    pub fn from_gsps(gsps: f64) -> Self {
        SampleRate::new(gsps * 1e9)
    }

    /// Samples per second.
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// Gigasamples per second.
    pub fn as_gsps(self) -> f64 {
        self.0 * 1e-9
    }

    /// Converts a normalized frequency (cycles/sample) to hertz.
    pub fn to_hz(self, normalized: f64) -> Hertz {
        Hertz::new(normalized * self.0)
    }

    /// Converts hertz to a normalized frequency (cycles/sample).
    pub fn normalize(self, f: Hertz) -> f64 {
        f.as_hz() / self.0
    }
}

impl fmt::Display for SampleRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GS/s", self.as_gsps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picoseconds_conversions() {
        let t = Picoseconds::from_nanos(70_000.0);
        assert_eq!(t.as_us(), 70.0);
        assert_eq!(t.as_ns(), 70_000.0);
        assert_eq!(t.as_ps(), 70_000_000.0);
        assert!((Picoseconds::from_secs(1e-9).as_ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn picoseconds_arithmetic() {
        let a = Picoseconds::new(100.0);
        let b = Picoseconds::new(50.0);
        assert_eq!((a + b).as_ps(), 150.0);
        assert_eq!((a - b).as_ps(), 50.0);
        assert_eq!((a * 2.0).as_ps(), 200.0);
        assert_eq!((a / 4.0).as_ps(), 25.0);
    }

    #[test]
    fn hertz_conversions() {
        let f = Hertz::from_ghz(5.0);
        assert_eq!(f.as_mhz(), 5000.0);
        assert!((f.period().as_ps() - 200.0).abs() < 1e-9);
        assert_eq!((f + Hertz::from_ghz(1.0)).as_ghz(), 6.0);
        assert_eq!((f * 2.0).as_ghz(), 10.0);
    }

    #[test]
    fn sample_rate_helpers() {
        let fs = SampleRate::from_gsps(2.0); // gen1 ADC rate
        assert_eq!(fs.as_hz(), 2.0e9);
        assert_eq!(fs.normalize(Hertz::from_mhz(500.0)), 0.25);
        assert_eq!(fs.to_hz(0.25).as_mhz(), 500.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Picoseconds::new(580.0).to_string(), "580.0 ps");
        assert_eq!(Picoseconds::from_nanos(20.0).to_string(), "20.000 ns");
        assert_eq!(Picoseconds::from_nanos(70_000.0).to_string(), "70.000 µs");
        assert_eq!(Hertz::from_ghz(3.432).to_string(), "3.4320 GHz");
        assert_eq!(Hertz::from_mhz(528.0).to_string(), "528.000 MHz");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_sample_rate_panics() {
        SampleRate::new(-1.0);
    }
}
