//! Time-of-arrival estimation and two-way ranging.
//!
//! The paper's abstract promises "high data rates over short distances and
//! precise locationing": the same 500 MHz pulses that carry data resolve
//! multipath at the ~2 ns level, so the leading edge of the channel response
//! timestamps the direct path to sub-metre accuracy. This module implements
//! the standard pipeline: matched filter → strongest peak → leading-edge
//! search (the first path is *not* always the strongest in NLOS) →
//! parabolic sub-sample refinement → two-way-ranging distance solve.

use uwb_dsp::correlation::cross_correlate_fft;
use uwb_dsp::Complex;
use uwb_sim::pathloss::SPEED_OF_LIGHT;
use uwb_sim::time::SampleRate;

/// A time-of-arrival estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToaEstimate {
    /// Arrival time in (fractional) samples from the start of the record.
    pub samples: f64,
    /// Arrival time in nanoseconds.
    pub ns: f64,
    /// Magnitude of the matched-filter output at the detected leading edge.
    pub edge_magnitude: f64,
    /// Magnitude at the strongest path (≥ `edge_magnitude`).
    pub peak_magnitude: f64,
}

/// Leading-edge TOA estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToaEstimator {
    /// A path is accepted as the leading edge when its matched-filter
    /// magnitude exceeds `edge_fraction` of the strongest path's.
    pub edge_fraction: f64,
    /// How far before the strongest path to search for earlier arrivals,
    /// in samples.
    pub search_back: usize,
}

impl ToaEstimator {
    /// Default estimator: 25 % edge threshold, 60-sample (60 ns at 1 GS/s)
    /// search-back window.
    pub fn new() -> Self {
        ToaEstimator {
            edge_fraction: 0.25,
            search_back: 60,
        }
    }

    /// Estimates the TOA of `template` within `signal`.
    ///
    /// Returns `None` if the record is shorter than the template or contains
    /// no energy.
    pub fn estimate(
        &self,
        signal: &[Complex],
        template: &[Complex],
        fs: SampleRate,
    ) -> Option<ToaEstimate> {
        if signal.len() < template.len() || template.is_empty() {
            return None;
        }
        let corr = cross_correlate_fft(signal, template);
        let mags: Vec<f64> = corr.iter().map(|z| z.norm()).collect();
        let peak_idx = uwb_dsp::math::argmax(&mags)?;
        let peak = mags[peak_idx];
        if peak <= 0.0 {
            return None;
        }
        // Leading edge: earliest local maximum above the threshold within
        // the search-back window.
        let lo = peak_idx.saturating_sub(self.search_back);
        let threshold = self.edge_fraction * peak;
        let mut edge_idx = peak_idx;
        for i in lo..peak_idx {
            let is_local_max = mags[i] >= threshold
                && (i == 0 || mags[i] >= mags[i - 1])
                && mags[i] >= mags[i + 1];
            if is_local_max {
                edge_idx = i;
                break;
            }
        }
        // Parabolic sub-sample refinement around the edge.
        let frac = if edge_idx > 0 && edge_idx + 1 < mags.len() {
            let (a, b, c) = (mags[edge_idx - 1], mags[edge_idx], mags[edge_idx + 1]);
            let denom = a - 2.0 * b + c;
            if denom.abs() > 1e-12 {
                (0.5 * (a - c) / denom).clamp(-0.5, 0.5)
            } else {
                0.0
            }
        } else {
            0.0
        };
        let samples = edge_idx as f64 + frac;
        Some(ToaEstimate {
            samples,
            ns: samples / fs.as_hz() * 1e9,
            edge_magnitude: mags[edge_idx],
            peak_magnitude: peak,
        })
    }
}

impl Default for ToaEstimator {
    fn default() -> Self {
        ToaEstimator::new()
    }
}

/// The result of a two-way ranging exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangingResult {
    /// Estimated one-way distance in metres.
    pub distance_m: f64,
    /// Round-trip time of flight in nanoseconds (turnaround removed).
    pub round_trip_ns: f64,
}

/// Solves a symmetric two-way ranging exchange: device A timestamps its
/// transmit at `t_tx_ns` and the reply's arrival at `t_rx_ns`; device B's
/// known turnaround is `turnaround_ns`. Distance is
/// `c · (t_rx − t_tx − turnaround) / 2`.
///
/// A negative time-of-flight (possible under noise) clamps to zero distance.
pub fn solve_two_way(t_tx_ns: f64, t_rx_ns: f64, turnaround_ns: f64) -> RangingResult {
    let round_trip_ns = (t_rx_ns - t_tx_ns - turnaround_ns).max(0.0);
    RangingResult {
        distance_m: SPEED_OF_LIGHT * round_trip_ns * 1e-9 / 2.0,
        round_trip_ns,
    }
}

/// One-way delay for a distance.
pub fn distance_to_delay_ns(distance_m: f64) -> f64 {
    distance_m / SPEED_OF_LIGHT * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pulse::PulseShape;
    use uwb_dsp::resample::fractional_delay;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    fn fs() -> SampleRate {
        SampleRate::from_gsps(1.0)
    }

    fn template() -> Vec<Complex> {
        PulseShape::gen2_default().generate_complex(fs())
    }

    fn delayed_pulse(delay: f64) -> Vec<Complex> {
        let tpl = template();
        let mut sig = vec![Complex::ZERO; 100];
        sig.extend_from_slice(&tpl);
        sig.extend(vec![Complex::ZERO; 100]);
        fractional_delay(&sig, delay, 8)
    }

    #[test]
    fn clean_toa_is_exact() {
        let est = ToaEstimator::new();
        let tpl = template();
        for &d in &[0.0, 0.3, 7.6, -2.4] {
            let sig = delayed_pulse(d);
            let toa = est.estimate(&sig, &tpl, fs()).unwrap();
            let expect = 100.0 + d;
            assert!(
                (toa.samples - expect).abs() < 0.05,
                "delay {d}: {} vs {expect}",
                toa.samples
            );
        }
    }

    #[test]
    fn noisy_toa_within_a_sample() {
        let est = ToaEstimator::new();
        let tpl = template();
        let mut rng = Rand::new(2);
        let sig = delayed_pulse(4.5);
        // Pulse energy 1, noise power 0.01 per sample: ~20 dB matched SNR.
        let noisy = add_awgn_complex(&sig, 0.01, &mut rng);
        let toa = est.estimate(&noisy, &tpl, fs()).unwrap();
        assert!((toa.samples - 104.5).abs() < 1.0, "{}", toa.samples);
    }

    #[test]
    fn leading_edge_beats_strongest_path() {
        // NLOS-like: direct path at 100 with amplitude 0.4, echo at 112 with
        // amplitude 1.0. Peak picking alone would report the echo.
        let tpl = template();
        let mut sig = vec![Complex::ZERO; 160 + tpl.len()];
        for (j, &t) in tpl.iter().enumerate() {
            sig[100 + j] += t * 0.4;
            sig[112 + j] += t * 1.0;
        }
        let est = ToaEstimator::new();
        let toa = est.estimate(&sig, &tpl, fs()).unwrap();
        assert!(
            (toa.samples - 100.0).abs() < 0.5,
            "leading edge missed: {}",
            toa.samples
        );
        assert!(toa.edge_magnitude < toa.peak_magnitude);
    }

    #[test]
    fn weak_precursor_below_threshold_ignored() {
        // A 10% precursor is below the 25% edge threshold: should not fire.
        let tpl = template();
        let mut sig = vec![Complex::ZERO; 160 + tpl.len()];
        for (j, &t) in tpl.iter().enumerate() {
            sig[95 + j] += t * 0.1;
            sig[110 + j] += t * 1.0;
        }
        let toa = ToaEstimator::new().estimate(&sig, &tpl, fs()).unwrap();
        assert!((toa.samples - 110.0).abs() < 0.5, "{}", toa.samples);
    }

    #[test]
    fn two_way_solve() {
        // 3 m -> 10.0069 ns one way, 20.014 ns round trip.
        let tof = distance_to_delay_ns(3.0);
        let r = solve_two_way(1000.0, 1000.0 + 2.0 * tof + 500.0, 500.0);
        assert!((r.distance_m - 3.0).abs() < 1e-9, "{}", r.distance_m);
        // Negative clamps.
        let neg = solve_two_way(1000.0, 1000.0, 500.0);
        assert_eq!(neg.distance_m, 0.0);
    }

    #[test]
    fn distance_delay_round_trip() {
        for &d in &[0.1, 1.0, 10.0] {
            assert!((SPEED_OF_LIGHT * distance_to_delay_ns(d) * 1e-9 - d).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let est = ToaEstimator::new();
        assert!(est.estimate(&[], &template(), fs()).is_none());
        assert!(est
            .estimate(&[Complex::ZERO; 10], &template(), fs())
            .is_none());
        let zeros = vec![Complex::ZERO; 500];
        assert!(est.estimate(&zeros, &template(), fs()).is_none());
    }
}
