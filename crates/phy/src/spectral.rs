//! Spectral monitoring: interferer detection and frequency estimation.
//!
//! Paper §3: "The digital back end detects the presence of an interferer and
//! estimates its frequency that may be used in the front end notch filter."
//! The monitor runs a Welch PSD over a received block, compares the peak
//! bin against the median floor (a CFAR-style test that is robust to the
//! wideband signal itself), and refines the peak frequency by parabolic
//! interpolation to a fraction of a bin.

use uwb_dsp::psd::welch;
use uwb_dsp::{Complex, Window};
use uwb_sim::time::Hertz;

/// Result of one spectral-monitoring pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterfererReport {
    /// `true` if a narrowband interferer was detected.
    pub detected: bool,
    /// Estimated interferer frequency (baseband offset).
    pub frequency: Hertz,
    /// Peak-to-median power ratio in dB (the detection statistic).
    pub peak_to_floor_db: f64,
    /// Estimated interferer power relative to the total block power, in dB.
    pub relative_power_db: f64,
}

/// The spectral monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralMonitor {
    /// FFT segment length for the Welch estimate.
    pub segment_len: usize,
    /// Detection threshold on peak/median, in dB. A UWB pulse stream is
    /// spectrally flat, so ~12 dB keeps false alarms negligible.
    pub threshold_db: f64,
}

impl SpectralMonitor {
    /// Default monitor: 1024-bin segments, 12 dB threshold.
    pub fn new() -> Self {
        SpectralMonitor {
            segment_len: 1024,
            threshold_db: 12.0,
        }
    }

    /// Analyzes a received complex-baseband block at `fs_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `fs_hz <= 0`.
    pub fn analyze(&self, samples: &[Complex], fs_hz: f64) -> InterfererReport {
        let psd = welch(samples, fs_hz, self.segment_len, Window::Hann);
        let (freqs, vals) = psd.sorted();
        let n = vals.len();

        // Median floor.
        let mut sorted_vals = vals.clone();
        sorted_vals.sort_by(f64::total_cmp);
        let median = sorted_vals[n / 2].max(1e-300);

        // Peak and parabolic refinement.
        let peak_idx = uwb_dsp::math::argmax(&vals).unwrap_or(0);
        let peak = vals[peak_idx];
        let peak_to_floor_db = 10.0 * (peak / median).log10();

        let df = if n > 1 { freqs[1] - freqs[0] } else { 0.0 };
        let frac = if peak_idx > 0 && peak_idx + 1 < n {
            // Parabolic interpolation on log power.
            let (a, b, c) = (
                vals[peak_idx - 1].max(1e-300).ln(),
                vals[peak_idx].max(1e-300).ln(),
                vals[peak_idx + 1].max(1e-300).ln(),
            );
            let denom = a - 2.0 * b + c;
            if denom.abs() > 1e-12 {
                (0.5 * (a - c) / denom).clamp(-0.5, 0.5)
            } else {
                0.0
            }
        } else {
            0.0
        };
        let freq = freqs[peak_idx] + frac * df;

        // Interferer power ≈ sum of bins within ±2 of the peak.
        let lo = peak_idx.saturating_sub(2);
        let hi = (peak_idx + 3).min(n);
        let intf_power: f64 = vals[lo..hi].iter().sum();
        let total: f64 = vals.iter().sum();
        let relative_power_db = 10.0 * (intf_power / total.max(1e-300)).log10();

        InterfererReport {
            detected: peak_to_floor_db >= self.threshold_db,
            frequency: Hertz::new(freq),
            peak_to_floor_db,
            relative_power_db,
        }
    }
}

impl Default for SpectralMonitor {
    fn default() -> Self {
        SpectralMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::awgn::complex_noise;
    use uwb_sim::{Interferer, Rand};

    const FS: f64 = 1e9;

    #[test]
    fn detects_cw_in_noise() {
        let mut rng = Rand::new(1);
        let noise = complex_noise(32_768, 1.0, &mut rng);
        let intf = Interferer::cw(137e6, 10.0);
        let sig = intf.add_to(&noise, FS, &mut rng);
        let report = SpectralMonitor::new().analyze(&sig, FS);
        assert!(report.detected, "ratio {}", report.peak_to_floor_db);
        assert!(
            (report.frequency.as_hz() - 137e6).abs() < 1e6,
            "estimated {}",
            report.frequency
        );
    }

    #[test]
    fn frequency_estimate_sub_bin() {
        // Frequency deliberately between bins: parabolic interpolation
        // should get within a fraction of a bin.
        let mut rng = Rand::new(2);
        let bin = FS / 1024.0;
        let f0 = 100.0 * bin + 0.37 * bin;
        let noise = complex_noise(65_536, 0.01, &mut rng);
        let intf = Interferer::cw(f0, 5.0);
        let sig = intf.add_to(&noise, FS, &mut rng);
        let report = SpectralMonitor::new().analyze(&sig, FS);
        assert!(report.detected);
        assert!(
            (report.frequency.as_hz() - f0).abs() < 0.3 * bin,
            "error {} Hz (bin {bin})",
            (report.frequency.as_hz() - f0).abs()
        );
    }

    #[test]
    fn negative_frequency_interferer() {
        let mut rng = Rand::new(3);
        let noise = complex_noise(32_768, 0.5, &mut rng);
        let intf = Interferer::cw(-220e6, 20.0);
        let sig = intf.add_to(&noise, FS, &mut rng);
        let report = SpectralMonitor::new().analyze(&sig, FS);
        assert!(report.detected);
        assert!((report.frequency.as_hz() + 220e6).abs() < 1e6);
    }

    #[test]
    fn no_false_alarm_on_noise() {
        let mut rng = Rand::new(4);
        let noise = complex_noise(32_768, 1.0, &mut rng);
        let report = SpectralMonitor::new().analyze(&noise, FS);
        assert!(!report.detected, "ratio {}", report.peak_to_floor_db);
    }

    #[test]
    fn no_false_alarm_on_uwb_pulses() {
        // A pulse stream is wideband; the monitor must not flag it.
        use crate::config::Gen2Config;
        use crate::tx::Gen2Transmitter;
        let tx = Gen2Transmitter::new(Gen2Config::nominal_100mbps()).unwrap();
        let burst = tx.transmit_packet(&[0x5A; 64]).unwrap();
        let report = SpectralMonitor::new().analyze(&burst.samples, FS);
        assert!(
            !report.detected,
            "false alarm on pulses: {} dB",
            report.peak_to_floor_db
        );
    }

    #[test]
    fn detects_interferer_on_top_of_pulses() {
        use crate::config::Gen2Config;
        use crate::tx::Gen2Transmitter;
        let mut rng = Rand::new(5);
        let tx = Gen2Transmitter::new(Gen2Config::nominal_100mbps()).unwrap();
        let burst = tx.transmit_packet(&[0x5A; 200]).unwrap();
        // Interferer 10 dB above the pulse average power.
        let p_sig = uwb_dsp::complex::mean_power(&burst.samples);
        let intf = Interferer::cw(180e6, p_sig * 10.0);
        let sig = intf.add_to(&burst.samples, FS, &mut rng);
        let report = SpectralMonitor::new().analyze(&sig, FS);
        assert!(report.detected);
        assert!((report.frequency.as_hz() - 180e6).abs() < 2e6);
        assert!(report.relative_power_db > -3.0, "{}", report.relative_power_db);
    }

    #[test]
    fn stronger_interferer_higher_statistic() {
        let mut rng = Rand::new(6);
        let noise = complex_noise(16_384, 1.0, &mut rng);
        let weak = Interferer::cw(90e6, 2.0).add_to(&noise, FS, &mut rng);
        let strong = Interferer::cw(90e6, 50.0).add_to(&noise, FS, &mut rng);
        let m = SpectralMonitor::new();
        let rw = m.analyze(&weak, FS);
        let rs = m.analyze(&strong, FS);
        assert!(rs.peak_to_floor_db > rw.peak_to_floor_db);
    }
}
