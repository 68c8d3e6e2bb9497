//! Composed TX and RX front-end chains (paper Fig. 3, analog portion).
//!
//! TX: baseband pulses → quadrature upconverter → (PA scaling to the FCC
//! ceiling). RX: passband → LNA → direct-conversion I/Q downconversion →
//! AGC → samples for the ADCs.

use crate::agc::Agc;
use crate::downconvert::{DirectConversionRx, IqImpairments, Upconverter};
use crate::lna::Lna;
use crate::lo::LocalOscillator;
use uwb_dsp::Complex;
use uwb_sim::rng::Rand;
use uwb_sim::time::{Hertz, SampleRate};

/// Transmit chain: upconversion plus average-power scaling.
#[derive(Debug, Clone)]
pub struct TxChain {
    upconverter: Upconverter,
    /// Target average transmit power (linear, 1.0 ≙ 0 dBm normalized).
    pub target_power: f64,
}

impl TxChain {
    /// Creates a TX chain for the given carrier at the given average power.
    ///
    /// # Panics
    ///
    /// Panics if `target_power <= 0`.
    pub fn new(carrier: Hertz, target_power: f64) -> Self {
        assert!(target_power > 0.0, "target power must be positive");
        TxChain {
            upconverter: Upconverter::new(carrier),
            target_power,
        }
    }

    /// The carrier frequency.
    pub fn carrier(&self) -> Hertz {
        self.upconverter.carrier()
    }

    /// Upconverts and scales a baseband burst to the target average power
    /// (measured over the burst). Returns the passband signal.
    pub fn transmit(&self, baseband: &[Complex], fs: SampleRate) -> Vec<f64> {
        let pass = self.upconverter.upconvert(baseband, fs);
        let p = uwb_dsp::complex::mean_power_real(&pass);
        if p <= 0.0 {
            return pass;
        }
        let k = (self.target_power / p).sqrt();
        pass.iter().map(|&x| x * k).collect()
    }
}

/// Receive chain: LNA → direct conversion → AGC.
#[derive(Debug, Clone)]
pub struct RxChain {
    /// The low-noise amplifier model.
    pub lna: Lna,
    downconverter: DirectConversionRx,
    agc: Agc,
    /// Input-referred noise power used by the LNA noise model (thermal noise
    /// in the signal bandwidth, linear units). Zero disables LNA noise.
    pub input_noise_power: f64,
}

impl RxChain {
    /// An ideal-LO receive chain at `carrier` with the default UWB LNA.
    pub fn new(carrier: Hertz) -> Self {
        RxChain {
            lna: Lna::uwb_default(),
            downconverter: DirectConversionRx::new(carrier),
            agc: Agc::for_unit_adc(),
            input_noise_power: 0.0,
        }
    }

    /// Replaces the LO (adds CFO / phase noise).
    pub fn with_lo(mut self, lo: LocalOscillator) -> Self {
        self.downconverter = self.downconverter.with_lo(lo);
        self
    }

    /// Sets direct-conversion I/Q impairments.
    pub fn with_impairments(mut self, imp: IqImpairments) -> Self {
        self.downconverter = self.downconverter.with_impairments(imp);
        self
    }

    /// Full receive pass: real passband at `fs` in, AGC-leveled complex
    /// baseband out (same rate).
    pub fn receive(&mut self, passband: &[f64], fs: SampleRate, rng: &mut Rand) -> Vec<Complex> {
        let amplified = self.lna.amplify_real(passband, self.input_noise_power, rng);
        let mut baseband = self.downconverter.downconvert(&amplified, fs, rng);
        self.agc.process_in_place(&mut baseband);
        baseband
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 32e9;

    fn fs() -> SampleRate {
        SampleRate::new(FS)
    }

    fn gaussian_burst(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = (i as f64 - n as f64 / 2.0) / (n as f64 / 10.0);
                Complex::new((-t * t).exp(), 0.0)
            })
            .collect()
    }

    #[test]
    fn tx_power_calibrated() {
        let tx = TxChain::new(Hertz::from_ghz(4.488), 0.037); // -14.3 dBm
        let bb = gaussian_burst(4096);
        let pass = tx.transmit(&bb, fs());
        let p = uwb_dsp::complex::mean_power_real(&pass);
        assert!((p - 0.037).abs() / 0.037 < 1e-6, "{p}");
    }

    #[test]
    fn end_to_end_burst_recovered() {
        let carrier = Hertz::from_ghz(5.016);
        // -20 dBm average at the LNA input: comfortably linear for the
        // -6 dBm-IIP3 default LNA (a 0 dBm drive would saturate it).
        let tx = TxChain::new(carrier, 0.01);
        let bb = gaussian_burst(4096);
        let pass = tx.transmit(&bb, fs());
        let mut rx = RxChain::new(carrier);
        let mut rng = Rand::new(1);
        let out = rx.receive(&pass, fs(), &mut rng);
        // Burst envelope should correlate strongly with the template.
        let corr = uwb_dsp::correlation::normalized_correlation(&out, &bb);
        let peak = corr.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(peak > 0.85, "normalized peak {peak}");
    }

    #[test]
    fn agc_levels_output() {
        let carrier = Hertz::from_ghz(3.96);
        let tx = TxChain::new(carrier, 1e-4); // very weak
        let bb = vec![Complex::ONE; 8192];
        let pass = tx.transmit(&bb, fs());
        let mut rx = RxChain::new(carrier);
        let mut rng = Rand::new(2);
        let out = rx.receive(&pass, fs(), &mut rng);
        let rms = uwb_dsp::complex::mean_power(&out).sqrt();
        // AGC target is 0.355 (-9 dBFS).
        assert!((rms - 0.355).abs() < 0.1, "rms {rms}");
        assert!(rx.agc.gain() > 1.0);
    }

    #[test]
    fn works_across_band_plan_extremes() {
        // Lowest and highest paper channels both round-trip.
        let mut rng = Rand::new(7);
        for ghz in [3.432, 10.296] {
            let carrier = Hertz::from_ghz(ghz);
            let tx = TxChain::new(carrier, 0.01);
            let bb = gaussian_burst(4096);
            let pass = tx.transmit(&bb, fs());
            let mut rx = RxChain::new(carrier);
            let out = rx.receive(&pass, fs(), &mut rng);
            let corr = uwb_dsp::correlation::normalized_correlation(&out, &bb);
            let peak = corr.iter().fold(0.0f64, |m, &v| m.max(v));
            assert!(peak > 0.8, "channel at {ghz} GHz: peak {peak}");
        }
    }

    #[test]
    fn wrong_carrier_does_not_demodulate() {
        // TX on ch3, RX on ch8: the 2.64 GHz offset lands far outside the
        // baseband lowpass, so nothing coherent comes through.
        let tx = TxChain::new(Hertz::from_ghz(5.016), 0.01);
        let bb = gaussian_burst(4096);
        let pass = tx.transmit(&bb, fs());
        let mut rx = RxChain::new(Hertz::from_ghz(7.656));
        let mut rng = Rand::new(8);
        let out = rx.receive(&pass, fs(), &mut rng);
        let corr = uwb_dsp::correlation::normalized_correlation(&out, &bb);
        let peak = corr.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(peak < 0.5, "cross-channel leak: peak {peak}");
    }

    #[test]
    fn silent_input_stays_silent() {
        let mut rx = RxChain::new(Hertz::from_ghz(4.488));
        let mut rng = Rand::new(9);
        let out = rx.receive(&vec![0.0; 4096], fs(), &mut rng);
        // No LNA noise configured: output is (numerically) silent.
        assert!(uwb_dsp::complex::mean_power(&out) < 1e-20);
    }

    #[test]
    #[should_panic(expected = "target power")]
    fn bad_power_panics() {
        TxChain::new(Hertz::from_ghz(4.0), 0.0);
    }
}
