//! Gen1 power model (paper Fig. 1 blocks).
//!
//! Same activity-based method as `uwb_phy::power`, with the gen1 block set:
//! no downconverter (carrierless), a 2 GSps 4-way interleaved flash ADC,
//! and a heavily parallelized all-digital synchronizer.

use crate::config::Gen1Config;
use uwb_phy::power::{BlockPower, EnergyConstants, PowerBreakdown, PowerClass};

/// Gen1 receiver power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gen1PowerModel {
    /// Energy constants.
    pub energy: EnergyConstants,
    /// RF front end (LNA + buffers; no mixer/synthesizer — baseband radio).
    pub rf_mw: f64,
    /// PLL clock generation.
    pub pll_mw: f64,
    /// Fraction of time the sync engine is active.
    pub sync_duty: f64,
}

impl Gen1PowerModel {
    /// Default 0.18 µm model.
    pub fn cmos180() -> Self {
        Gen1PowerModel {
            energy: EnergyConstants::cmos180(),
            rf_mw: 12.0,
            pll_mw: 10.0,
            sync_duty: 0.1,
        }
    }

    /// Computes the block breakdown for a configuration.
    pub fn breakdown(&self, config: &Gen1Config) -> PowerBreakdown {
        let e = self.energy;
        let fs = config.sample_rate.as_hz();
        let mw = 1e3;
        let mut blocks = Vec::new();

        blocks.push(BlockPower {
            name: "RF front end (no mixer)".into(),
            mw: self.rf_mw,
            class: PowerClass::Analog,
        });
        blocks.push(BlockPower {
            name: "PLL".into(),
            mw: self.pll_mw,
            class: PowerClass::Analog,
        });

        // 4-way interleaved flash: each lane runs at fs/4 with 2^b - 1
        // comparators firing per conversion.
        let comparators = ((1u32 << config.adc_bits) - 1) as f64;
        blocks.push(BlockPower {
            name: format!("4-way {}-bit flash ADC @ 2 GSps", config.adc_bits),
            mw: fs * comparators * e.comparator * mw,
            class: PowerClass::Adc,
        });

        // High-speed buffers between ADC and back end (Fig. 1).
        blocks.push(BlockPower {
            name: "high-speed buffers".into(),
            mw: fs * 4.0 * e.add * mw,
            class: PowerClass::Digital,
        });

        // Pulse matched filter at the full rate.
        let pulse_taps = uwb_phy::pulse::PulseShape::Monocycle {
            center: config.pulse_center,
        }
        .generate(config.sample_rate)
        .len();
        blocks.push(BlockPower {
            name: "pulse matched filter".into(),
            mw: pulse_taps as f64 * fs * e.mac * mw,
            class: PowerClass::Digital,
        });

        // Coarse-acquisition correlator bank (duty-cycled).
        blocks.push(BlockPower {
            name: format!("{}-way sync bank", config.sync_parallelism),
            mw: config.sync_parallelism as f64 * config.prf().as_hz() * e.mac * self.sync_duty * mw,
            class: PowerClass::Digital,
        });

        // Bit integrator (pulses-per-bit accumulate).
        blocks.push(BlockPower {
            name: "despreading integrator".into(),
            mw: config.prf().as_hz() * e.add * mw,
            class: PowerClass::Digital,
        });

        // Clocking overhead.
        let digital: f64 = blocks
            .iter()
            .filter(|b| b.class == PowerClass::Digital)
            .map(|b| b.mw)
            .sum();
        blocks.push(BlockPower {
            name: "clock tree + control".into(),
            mw: 0.1 * digital,
            class: PowerClass::Digital,
        });

        PowerBreakdown { blocks }
    }
}

impl Default for Gen1PowerModel {
    fn default() -> Self {
        Gen1PowerModel::cmos180()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_plus_adc_dominates() {
        let bd = Gen1PowerModel::cmos180().breakdown(&Gen1Config::demonstrated_193kbps());
        let f = bd.digital_and_adc_fraction();
        assert!(f > 0.5, "digital+ADC fraction {f}");
    }

    #[test]
    fn totals_plausible() {
        let bd = Gen1PowerModel::cmos180().breakdown(&Gen1Config::demonstrated_193kbps());
        let t = bd.total_mw();
        assert!(t > 20.0 && t < 300.0, "total {t} mW");
    }

    #[test]
    fn adc_power_scales_with_comparator_count() {
        let model = Gen1PowerModel::cmos180();
        let mut lo = Gen1Config::demonstrated_193kbps();
        lo.adc_bits = 1;
        let mut hi = Gen1Config::demonstrated_193kbps();
        hi.adc_bits = 4;
        let adc = |cfg: &Gen1Config| model.breakdown(cfg).class_mw(PowerClass::Adc);
        // (2^4 - 1) / (2^1 - 1) = 15.
        assert!((adc(&hi) / adc(&lo) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn parallelism_costs_power() {
        let model = Gen1PowerModel::cmos180();
        let mut narrow = Gen1Config::demonstrated_193kbps();
        narrow.sync_parallelism = 64;
        let wide = Gen1Config::demonstrated_193kbps(); // 512
        assert!(model.breakdown(&wide).total_mw() > model.breakdown(&narrow).total_mw());
    }
}
