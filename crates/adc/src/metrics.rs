//! Converter metrology: SNDR / ENOB / SFDR from a sine-wave test.

use uwb_dsp::psd::periodogram_real;
use uwb_dsp::Window;

/// Result of a single-tone converter test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SineTestResult {
    /// Signal-to-noise-and-distortion ratio in dB.
    pub sndr_db: f64,
    /// Effective number of bits: `(SNDR − 1.76) / 6.02`.
    pub enob: f64,
    /// Spurious-free dynamic range in dB (carrier to strongest spur).
    pub sfdr_db: f64,
    /// The detected carrier frequency in hertz.
    pub carrier_hz: f64,
}

/// Runs a single-tone test: feeds the reference `input` (the ideal sine) and
/// the converter's `output`, computes SNDR/ENOB/SFDR from the output
/// spectrum.
///
/// The carrier is located as the strongest positive-frequency bin; a
/// ±`leak_bins` guard band around it is attributed to the signal (window
/// leakage), everything else to noise+distortion.
///
/// # Panics
///
/// Panics if `output` is empty or `fs_hz <= 0`.
pub fn sine_test(output: &[f64], fs_hz: f64, leak_bins: usize) -> SineTestResult {
    assert!(!output.is_empty(), "cannot test an empty record");
    assert!(fs_hz > 0.0, "sample rate must be positive");
    let psd = periodogram_real(output, fs_hz, Window::Blackman);
    let (freqs, vals) = psd.sorted();
    let n = freqs.len();
    // Only positive frequencies, excluding DC region.
    let start = freqs.partition_point(|&f| f <= 0.0);
    let dc_guard = leak_bins.max(1);
    let pos_vals = &vals[start..];
    let pos_freqs = &freqs[start..];
    // Find carrier (skip near-DC bins).
    let mut carrier_idx = dc_guard;
    for i in dc_guard..pos_vals.len() {
        if pos_vals[i] > pos_vals[carrier_idx] {
            carrier_idx = i;
        }
    }
    let lo = carrier_idx.saturating_sub(leak_bins);
    let hi = (carrier_idx + leak_bins + 1).min(pos_vals.len());
    let signal_power: f64 = pos_vals[lo..hi].iter().sum();
    let mut noise_power = 0.0;
    let mut max_spur = 0.0f64;
    for (i, &v) in pos_vals.iter().enumerate() {
        if i < dc_guard {
            continue; // DC region excluded
        }
        if i >= lo && i < hi {
            continue; // carrier region
        }
        noise_power += v;
        max_spur = max_spur.max(v);
    }
    let _ = n;
    let sndr_db = 10.0 * (signal_power / noise_power.max(1e-300)).log10();
    let sfdr_db = 10.0 * (pos_vals[carrier_idx] / max_spur.max(1e-300)).log10();
    SineTestResult {
        sndr_db,
        enob: (sndr_db - 1.76) / 6.02,
        sfdr_db,
        carrier_hz: pos_freqs[carrier_idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::Quantizer;

    /// Generates the standard coherent test sine: amplitude `amp`, an
    /// odd number of cycles over `n` samples so every code is exercised.
    fn test_sine(n: usize, cycles: usize, amp: f64) -> Vec<f64> {
        let f = cycles as f64 / n as f64;
        (0..n)
            .map(|i| amp * (std::f64::consts::TAU * f * i as f64).sin())
            .collect()
    }

    #[test]
    fn enob_close_to_nominal_bits() {
        for bits in [4u32, 6, 8] {
            let q = Quantizer::new(bits, 1.0);
            let x = test_sine(16_384, 127, 0.99);
            let y = q.quantize_block(&x);
            let r = sine_test(&y, 1e9, 8);
            assert!(
                (r.enob - bits as f64).abs() < 0.7,
                "{bits}-bit ENOB {}",
                r.enob
            );
        }
    }

    #[test]
    fn carrier_frequency_detected() {
        let x = test_sine(8192, 129, 0.9);
        let q = Quantizer::new(8, 1.0);
        let y = q.quantize_block(&x);
        let r = sine_test(&y, 8192.0, 8); // fs = n -> bin = cycles
        assert!((r.carrier_hz - 129.0).abs() < 2.0, "{}", r.carrier_hz);
    }

    #[test]
    fn clean_sine_has_huge_sndr() {
        let x = test_sine(8192, 127, 0.9);
        let r = sine_test(&x, 1e6, 8);
        assert!(r.sndr_db > 80.0, "{}", r.sndr_db);
        assert!(r.sfdr_db > 60.0, "{}", r.sfdr_db);
    }

    #[test]
    fn distortion_lowers_sfdr() {
        // Add third harmonic distortion.
        let n = 8192;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * 127.0 * i as f64 / n as f64;
                0.9 * t.sin() + 0.01 * (3.0 * t).sin()
            })
            .collect();
        let r = sine_test(&x, n as f64, 8);
        // Carrier/spur = 0.9/0.01 => ~39 dB.
        assert!((r.sfdr_db - 39.1).abs() < 2.0, "{}", r.sfdr_db);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_record_panics() {
        sine_test(&[], 1e9, 4);
    }
}
