//! FCC spectral-mask compliance checking.
//!
//! The FCC Part 15 indoor UWB mask limits EIRP density to −41.3 dBm/MHz in
//! 3.1–10.6 GHz, with much tighter limits outside (notably −75.3 dBm/MHz in
//! the 0.96–1.61 GHz GPS band). The checker measures a transmit waveform's
//! PSD and compares it against the mask segment by segment.

use uwb_dsp::psd::welch_real;
use uwb_dsp::Window;
use uwb_sim::time::SampleRate;

/// One segment of the regulatory mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskSegment {
    /// Segment start frequency (Hz).
    pub f_lo: f64,
    /// Segment end frequency (Hz).
    pub f_hi: f64,
    /// EIRP density limit in dBm/MHz.
    pub limit_dbm_per_mhz: f64,
}

/// The FCC Part 15 indoor UWB mask.
pub fn fcc_indoor_mask() -> Vec<MaskSegment> {
    vec![
        MaskSegment {
            f_lo: 0.0,
            f_hi: 0.96e9,
            limit_dbm_per_mhz: -41.3,
        },
        MaskSegment {
            f_lo: 0.96e9,
            f_hi: 1.61e9,
            limit_dbm_per_mhz: -75.3,
        },
        MaskSegment {
            f_lo: 1.61e9,
            f_hi: 1.99e9,
            limit_dbm_per_mhz: -53.3,
        },
        MaskSegment {
            f_lo: 1.99e9,
            f_hi: 3.1e9,
            limit_dbm_per_mhz: -51.3,
        },
        MaskSegment {
            f_lo: 3.1e9,
            f_hi: 10.6e9,
            limit_dbm_per_mhz: -41.3,
        },
        MaskSegment {
            f_lo: 10.6e9,
            f_hi: f64::INFINITY,
            limit_dbm_per_mhz: -51.3,
        },
    ]
}

/// The mask limit (dBm/MHz) at a frequency.
pub fn mask_limit_at(mask: &[MaskSegment], f_hz: f64) -> f64 {
    mask.iter()
        .find(|s| f_hz >= s.f_lo && f_hz < s.f_hi)
        .map(|s| s.limit_dbm_per_mhz)
        .unwrap_or(-51.3)
}

/// Result of a mask compliance check.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskReport {
    /// `true` if every measured bin is at or below the mask.
    pub compliant: bool,
    /// Worst margin in dB (positive = headroom, negative = violation).
    pub worst_margin_db: f64,
    /// Frequency of the worst margin (Hz).
    pub worst_frequency_hz: f64,
    /// Measured in-band (3.1–10.6 GHz) peak density in dBm/MHz.
    pub peak_density_dbm_per_mhz: f64,
    /// Per-bin `(freq_hz, density_dbm_per_mhz, limit_dbm_per_mhz)` rows for
    /// plotting.
    pub bins: Vec<(f64, f64, f64)>,
}

/// Checks a real passband waveform (volts across 50 Ω with `0 dBm ≙ power
/// 1.0` normalization) against a mask.
///
/// `duty` rescales the measured density for burst duty cycling: regulators
/// measure with a 1 ms averaging window, so a transmitter active `duty` of
/// the time has its average density reduced accordingly.
///
/// # Panics
///
/// Panics if the waveform is empty or `duty` is outside `(0, 1]`.
pub fn check_mask(waveform: &[f64], fs: SampleRate, mask: &[MaskSegment], duty: f64) -> MaskReport {
    assert!(!waveform.is_empty(), "cannot check an empty waveform");
    assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
    let psd = welch_real(waveform, fs.as_hz(), 4096, Window::Blackman);
    let (freqs, vals) = psd.sorted();

    let mut bins = Vec::new();
    let mut worst = f64::INFINITY;
    let mut worst_f = 0.0;
    let mut peak_inband = f64::NEG_INFINITY;
    for (&f, &v) in freqs.iter().zip(&vals) {
        if f <= 0.0 {
            continue; // one-sided view; real signal is symmetric
        }
        // Two-sided PSD -> one-sided density: x2. V^2/Hz with 1.0 == 0 dBm
        // -> dBm/MHz = 10 log10(2 * v * 1e6) scaled by duty.
        let density_mw_per_mhz = 2.0 * v * 1e6 * duty;
        let density_dbm = 10.0 * density_mw_per_mhz.max(1e-300).log10();
        let limit = mask_limit_at(mask, f);
        let margin = limit - density_dbm;
        if margin < worst {
            worst = margin;
            worst_f = f;
        }
        if (3.1e9..10.6e9).contains(&f) {
            peak_inband = peak_inband.max(density_dbm);
        }
        bins.push((f, density_dbm, limit));
    }
    MaskReport {
        compliant: worst >= 0.0,
        worst_margin_db: worst,
        worst_frequency_hz: worst_f,
        peak_density_dbm_per_mhz: peak_inband,
        bins,
    }
}

/// Scales a waveform so its in-band peak density just meets `target_dbm`
/// dBm/MHz (returns the scaled waveform and the applied power scale in dB).
pub fn scale_to_mask(
    waveform: &[f64],
    fs: SampleRate,
    mask: &[MaskSegment],
    duty: f64,
    target_dbm: f64,
) -> (Vec<f64>, f64) {
    let report = check_mask(waveform, fs, mask, duty);
    let delta_db = target_dbm - report.peak_density_dbm_per_mhz;
    let amp = uwb_dsp::math::db_to_amp(delta_db);
    (waveform.iter().map(|&x| x * amp).collect(), delta_db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SampleRate {
        SampleRate::new(32e9)
    }

    #[test]
    fn mask_lookup() {
        let mask = fcc_indoor_mask();
        assert_eq!(mask_limit_at(&mask, 5e9), -41.3);
        assert_eq!(mask_limit_at(&mask, 1.2e9), -75.3); // GPS band
        assert_eq!(mask_limit_at(&mask, 12e9), -51.3);
        assert_eq!(mask_limit_at(&mask, 2.5e9), -51.3);
    }

    #[test]
    fn quiet_signal_compliant() {
        // A very weak in-band tone passes.
        let n = 65_536;
        let x: Vec<f64> = (0..n)
            .map(|i| 1e-6 * (std::f64::consts::TAU * 5e9 * i as f64 / 32e9).sin())
            .collect();
        let report = check_mask(&x, fs(), &fcc_indoor_mask(), 1.0);
        assert!(report.compliant, "margin {}", report.worst_margin_db);
    }

    #[test]
    fn loud_signal_violates() {
        let n = 65_536;
        let x: Vec<f64> = (0..n)
            .map(|i| 1.0 * (std::f64::consts::TAU * 5e9 * i as f64 / 32e9).sin())
            .collect();
        let report = check_mask(&x, fs(), &fcc_indoor_mask(), 1.0);
        assert!(!report.compliant);
        assert!((report.worst_frequency_hz - 5e9).abs() < 0.2e9);
    }

    #[test]
    fn gps_band_is_the_tight_spot() {
        // Equal-power tones at 1.2 GHz and 5 GHz: the GPS one has 34 dB less
        // headroom.
        let n = 65_536;
        let tone = |f: f64| -> Vec<f64> {
            (0..n)
                .map(|i| 1e-5 * (std::f64::consts::TAU * f * i as f64 / 32e9).sin())
                .collect()
        };
        let r_gps = check_mask(&tone(1.2e9), fs(), &fcc_indoor_mask(), 1.0);
        let r_band = check_mask(&tone(5e9), fs(), &fcc_indoor_mask(), 1.0);
        let delta = r_band.worst_margin_db - r_gps.worst_margin_db;
        assert!((delta - 34.0).abs() < 2.0, "delta {delta}");
    }

    #[test]
    fn duty_cycling_buys_margin() {
        let n = 65_536;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.01 * (std::f64::consts::TAU * 5e9 * i as f64 / 32e9).sin())
            .collect();
        let full = check_mask(&x, fs(), &fcc_indoor_mask(), 1.0);
        let tenth = check_mask(&x, fs(), &fcc_indoor_mask(), 0.1);
        assert!(
            (tenth.worst_margin_db - full.worst_margin_db - 10.0).abs() < 0.1,
            "{} vs {}",
            tenth.worst_margin_db,
            full.worst_margin_db
        );
    }

    #[test]
    fn scale_to_mask_hits_target() {
        let n = 65_536;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.5 * (std::f64::consts::TAU * 6e9 * i as f64 / 32e9).sin())
            .collect();
        let (scaled, _) = scale_to_mask(&x, fs(), &fcc_indoor_mask(), 1.0, -41.3);
        let report = check_mask(&scaled, fs(), &fcc_indoor_mask(), 1.0);
        assert!(
            (report.peak_density_dbm_per_mhz + 41.3).abs() < 0.5,
            "peak {}",
            report.peak_density_dbm_per_mhz
        );
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_panics() {
        check_mask(&[1.0], fs(), &fcc_indoor_mask(), 0.0);
    }
}
