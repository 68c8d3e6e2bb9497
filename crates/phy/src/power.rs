//! Activity-based power model.
//!
//! Paper §1: "The large complexity required in the synchronization and
//! demodulation of the UWB signal results in more than half of the system
//! power being dissipated in the digital back end and the ADC." The silicon
//! itself is unreproducible; this model derives block-level power from
//! operation counts (MACs, adds, comparator decisions) at 0.18 µm / 1.8 V
//! energy-per-operation constants, so the *architectural* claim can be
//! checked and the §3 power/QoS trade-offs explored.

use crate::config::Gen2Config;

/// Energy-per-operation constants (joules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConstants {
    /// One real multiply-accumulate in a dedicated datapath.
    pub mac: f64,
    /// One addition / compare-select.
    pub add: f64,
    /// One comparator decision (flash slice, SAR bit trial).
    pub comparator: f64,
    /// One SAR capacitor-DAC settle per bit trial.
    pub dac_settle: f64,
}

impl EnergyConstants {
    /// Representative 0.18 µm, 1.8 V values.
    pub fn cmos180() -> Self {
        EnergyConstants {
            mac: 1.0e-12,
            add: 0.2e-12,
            comparator: 0.4e-12,
            dac_settle: 0.8e-12,
        }
    }
}

/// Power class of a block, for the "back end + ADC > half" bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerClass {
    /// RF/analog blocks (LNA, mixers, synthesizer, filters).
    Analog,
    /// The data converters.
    Adc,
    /// The digital back end.
    Digital,
}

/// One block's contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPower {
    /// Block name (e.g. "matched filter").
    pub name: String,
    /// Average power in milliwatts.
    pub mw: f64,
    /// Which class the block belongs to.
    pub class: PowerClass,
}

/// A complete receiver power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Per-block figures.
    pub blocks: Vec<BlockPower>,
}

impl PowerBreakdown {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.blocks.iter().map(|b| b.mw).sum()
    }

    /// Power of one class in mW.
    pub fn class_mw(&self, class: PowerClass) -> f64 {
        self.blocks
            .iter()
            .filter(|b| b.class == class)
            .map(|b| b.mw)
            .sum()
    }

    /// Fraction of total power in the digital back end plus the ADCs — the
    /// paper claims this exceeds 0.5.
    pub fn digital_and_adc_fraction(&self) -> f64 {
        let t = self.total_mw();
        if t > 0.0 {
            (self.class_mw(PowerClass::Digital) + self.class_mw(PowerClass::Adc)) / t
        } else {
            0.0
        }
    }
}

/// The receiver power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy constants in use.
    pub energy: EnergyConstants,
    /// Fixed analog power: LNA (mW).
    pub lna_mw: f64,
    /// Fixed analog power: mixers and LO buffers (mW).
    pub mixer_mw: f64,
    /// Fixed analog power: frequency synthesizer / PLL (mW).
    pub synthesizer_mw: f64,
    /// Fixed analog power: baseband VGAs and filters (mW).
    pub baseband_analog_mw: f64,
    /// Hardware parallelism of the acquisition correlator bank.
    pub acquisition_parallelism: usize,
    /// Fraction of time the acquisition engine is active (preamble duty).
    pub acquisition_duty: f64,
}

impl PowerModel {
    /// Default 0.18 µm receiver model (32-way acquisition, 10 % duty).
    pub fn cmos180() -> Self {
        PowerModel {
            energy: EnergyConstants::cmos180(),
            lna_mw: 9.0,
            mixer_mw: 8.0,
            synthesizer_mw: 12.0,
            baseband_analog_mw: 4.0,
            acquisition_parallelism: 32,
            acquisition_duty: 0.1,
        }
    }

    /// Computes the receiver breakdown for a link configuration.
    pub fn breakdown(&self, config: &Gen2Config) -> PowerBreakdown {
        let e = self.energy;
        let fs = config.sample_rate.as_hz();
        let prf = config.prf.as_hz();
        let symbol_rate =
            prf / (config.pulses_per_bit * config.modulation.slots_per_symbol()) as f64;
        // Pulse template length at fs (the matched filter's tap count).
        let pulse_taps = crate::pulse::PulseShape::gen2_default()
            .generate(config.sample_rate)
            .len();

        let mut blocks = Vec::new();
        let mw = 1e3; // W -> mW

        // --- Analog front end (fixed) ---
        blocks.push(BlockPower {
            name: "LNA".into(),
            mw: self.lna_mw,
            class: PowerClass::Analog,
        });
        blocks.push(BlockPower {
            name: "mixers + LO".into(),
            mw: self.mixer_mw,
            class: PowerClass::Analog,
        });
        blocks.push(BlockPower {
            name: "frequency synthesizer".into(),
            mw: self.synthesizer_mw,
            class: PowerClass::Analog,
        });
        blocks.push(BlockPower {
            name: "baseband VGA/filters".into(),
            mw: self.baseband_analog_mw,
            class: PowerClass::Analog,
        });

        // --- ADCs: two SAR converters at the sample rate ---
        let sar_energy_per_conv = config.adc_bits as f64 * (e.comparator + e.dac_settle);
        blocks.push(BlockPower {
            name: format!("2x {}-bit SAR ADC", config.adc_bits),
            mw: 2.0 * fs * sar_energy_per_conv * mw,
            class: PowerClass::Adc,
        });

        // --- Digital back end ---
        // Pulse matched filter: complex input x real template = 2 real MACs
        // per tap per sample, at the full sample rate. The dominant block.
        blocks.push(BlockPower {
            name: "pulse matched filter".into(),
            mw: pulse_taps as f64 * fs * 2.0 * e.mac * mw,
            class: PowerClass::Digital,
        });

        // Acquisition correlator bank: P parallel correlators, each one
        // complex MAC per chip, duty-cycled to the preamble.
        blocks.push(BlockPower {
            name: format!("{}-way acquisition bank", self.acquisition_parallelism),
            mw: self.acquisition_parallelism as f64
                * prf
                * 2.0
                * e.mac
                * self.acquisition_duty
                * mw,
            class: PowerClass::Digital,
        });

        // Channel estimator: `window` correlation lags during the preamble.
        let window = 64.0;
        blocks.push(BlockPower {
            name: "channel estimator (4-bit CIR)".into(),
            mw: window * prf * 2.0 * e.mac * self.acquisition_duty * mw,
            class: PowerClass::Digital,
        });

        // RAKE: fingers x complex MAC per symbol.
        blocks.push(BlockPower {
            name: format!("RAKE ({} fingers)", config.rake_fingers),
            mw: config.rake_fingers as f64 * symbol_rate * 4.0 * e.mac * mw,
            class: PowerClass::Digital,
        });

        // MLSE equalizer (if enabled): states x 2 branches x ACS per symbol.
        if config.mlse_taps > 1 {
            let states = (1usize << (config.mlse_taps - 1)) as f64;
            blocks.push(BlockPower {
                name: format!("MLSE ({} taps)", config.mlse_taps),
                mw: states * 2.0 * symbol_rate * (e.mac + 2.0 * e.add) * mw,
                class: PowerClass::Digital,
            });
        }

        // FEC Viterbi decoder (if enabled).
        if let Some(code) = config.fec {
            let states = code.states() as f64;
            let coded_rate = symbol_rate * config.modulation.bits_per_symbol() as f64;
            blocks.push(BlockPower {
                name: format!("Viterbi decoder (K={})", code.constraint_length),
                mw: states * 2.0 * coded_rate * 3.0 * e.add * mw,
                class: PowerClass::Digital,
            });
        }

        // Spectral monitor: a 1024-point FFT every ~100 µs.
        let fft_ops = 1024.0 * 10.0; // N log2 N
        blocks.push(BlockPower {
            name: "spectral monitor".into(),
            mw: fft_ops * 4.0 * e.mac / 100e-6 * mw,
            class: PowerClass::Digital,
        });

        // Clocking / control overhead: 10 % of digital.
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

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::cmos180()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::ConvCode;

    #[test]
    fn paper_claim_backend_plus_adc_over_half() {
        let model = PowerModel::cmos180();
        let bd = model.breakdown(&Gen2Config::nominal_100mbps());
        let f = bd.digital_and_adc_fraction();
        assert!(f > 0.5, "digital+ADC fraction {f}");
        assert!(f < 0.95, "analog should still be visible: {f}");
    }

    #[test]
    fn totals_are_plausible_for_018um() {
        let bd = PowerModel::cmos180().breakdown(&Gen2Config::nominal_100mbps());
        let t = bd.total_mw();
        // A 0.18 um UWB receiver lands in the tens-to-low-hundreds of mW.
        assert!(t > 30.0 && t < 300.0, "total {t} mW");
    }

    #[test]
    fn more_fingers_cost_more() {
        let model = PowerModel::cmos180();
        let mut small = Gen2Config::nominal_100mbps();
        small.rake_fingers = 2;
        let mut big = Gen2Config::nominal_100mbps();
        big.rake_fingers = 16;
        assert!(model.breakdown(&big).total_mw() > model.breakdown(&small).total_mw());
    }

    #[test]
    fn fec_and_mlse_add_blocks() {
        let model = PowerModel::cmos180();
        let mut cfg = Gen2Config::nominal_100mbps();
        let base_blocks = model.breakdown(&cfg).blocks.len();
        cfg.fec = Some(ConvCode::k7());
        cfg.mlse_taps = 3;
        let bd = model.breakdown(&cfg);
        assert_eq!(bd.blocks.len(), base_blocks + 2);
        assert!(bd.blocks.iter().any(|b| b.name.contains("Viterbi")));
        assert!(bd.blocks.iter().any(|b| b.name.contains("MLSE")));
    }

    #[test]
    fn adc_power_scales_with_bits() {
        let model = PowerModel::cmos180();
        let mut lo = Gen2Config::nominal_100mbps();
        lo.adc_bits = 1;
        let mut hi = Gen2Config::nominal_100mbps();
        hi.adc_bits = 5;
        let adc = |cfg: &Gen2Config| model.breakdown(cfg).class_mw(PowerClass::Adc);
        assert!((adc(&hi) / adc(&lo) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lower_rate_lowers_digital_power() {
        // Spreading (lower data rate) cuts symbol-rate blocks.
        let model = PowerModel::cmos180();
        let fast = Gen2Config::nominal_100mbps();
        let mut slow = Gen2Config::nominal_100mbps();
        slow.pulses_per_bit = 8;
        let d_fast = model.breakdown(&fast).class_mw(PowerClass::Digital);
        let d_slow = model.breakdown(&slow).class_mw(PowerClass::Digital);
        assert!(d_slow < d_fast);
    }

    #[test]
    fn class_accounting_consistent() {
        let bd = PowerModel::cmos180().breakdown(&Gen2Config::nominal_100mbps());
        let sum = bd.class_mw(PowerClass::Analog)
            + bd.class_mw(PowerClass::Adc)
            + bd.class_mw(PowerClass::Digital);
        assert!((sum - bd.total_mw()).abs() < 1e-9);
        assert!(bd.blocks.iter().all(|b| b.mw >= 0.0));
    }
}
