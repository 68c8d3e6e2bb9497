//! Pulse shapes.
//!
//! The gen2 signal is "a sequence of 500 MHz bandwidth pulses" (paper §3,
//! Fig. 4 shows one on a 5 GHz carrier); the gen1 chip radiates carrierless
//! baseband monocycles. Shapes here are generated at an arbitrary sample
//! rate and normalized to unit energy.

use uwb_dsp::Complex;
use uwb_sim::time::{Hertz, SampleRate};

/// Pulse shape selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PulseShape {
    /// Gaussian envelope with the given −10 dB bandwidth. The baseband pulse
    /// of the gen2 transmitter.
    Gaussian {
        /// Target −10 dB bandwidth.
        bandwidth: Hertz,
    },
    /// First derivative of a Gaussian ("monocycle") with the given nominal
    /// center frequency — the classic carrierless impulse-radio shape used
    /// by the gen1 chip.
    Monocycle {
        /// Peak-response frequency of the monocycle.
        center: Hertz,
    },
    /// Root-raised-cosine with the given symbol (chip) rate and roll-off —
    /// the shape a discrete prototype AWG would typically emit.
    RootRaisedCosine {
        /// Chip rate (the pulse's two-sided bandwidth is
        /// `(1 + roll_off) * chip_rate`).
        chip_rate: Hertz,
        /// Excess-bandwidth roll-off factor in `[0, 1]`.
        roll_off: f64,
    },
}

impl PulseShape {
    /// The paper's 500 MHz Gaussian pulse.
    pub fn gen2_default() -> Self {
        PulseShape::Gaussian {
            bandwidth: Hertz::from_mhz(500.0),
        }
    }

    /// Generates the unit-energy pulse samples (real) at `fs`.
    ///
    /// The returned pulse is centered in its buffer and long enough to hold
    /// > 99.9 % of the shape's energy.
    ///
    /// # Panics
    ///
    /// Panics if the shape parameters are non-positive, roll-off is outside
    /// `[0, 1]`, or `fs` violates Nyquist for the shape's bandwidth.
    pub fn generate(&self, fs: SampleRate) -> Vec<f64> {
        let mut p = match *self {
            PulseShape::Gaussian { bandwidth } => gaussian_pulse(bandwidth, fs),
            PulseShape::Monocycle { center } => monocycle_pulse(center, fs),
            PulseShape::RootRaisedCosine {
                chip_rate,
                roll_off,
            } => rrc_pulse(chip_rate, roll_off, fs),
        };
        normalize_energy(&mut p);
        p
    }

    /// The pulse as a complex baseband template.
    pub fn generate_complex(&self, fs: SampleRate) -> Vec<Complex> {
        self.generate(fs)
            .iter()
            .map(|&x| Complex::new(x, 0.0))
            .collect()
    }
}

fn gaussian_pulse(bandwidth: Hertz, fs: SampleRate) -> Vec<f64> {
    let bw = bandwidth.as_hz();
    assert!(bw > 0.0, "bandwidth must be positive");
    assert!(
        bw / 2.0 < fs.as_hz() / 2.0,
        "sample rate too low for the pulse bandwidth"
    );
    // Gaussian g(t) = exp(-t²/(2σ²)) has |G(f)|² ∝ exp(-4π²σ²f²).
    // −10 dB (power) at f = bw/2: 4π²σ²(bw/2)² = ln 10 ⇒
    // σ = sqrt(ln 10) / (π·bw).
    let sigma_t = 10f64.ln().sqrt() / (std::f64::consts::PI * bw);
    let dt = 1.0 / fs.as_hz();
    let half = (4.5 * sigma_t / dt).ceil() as isize;
    (-half..=half)
        .map(|k| {
            let t = k as f64 * dt;
            (-t * t / (2.0 * sigma_t * sigma_t)).exp()
        })
        .collect()
}

fn monocycle_pulse(center: Hertz, fs: SampleRate) -> Vec<f64> {
    let fc = center.as_hz();
    assert!(fc > 0.0, "center frequency must be positive");
    assert!(fc < fs.as_hz() / 2.0, "sample rate too low for the monocycle");
    // First Gaussian derivative: peak spectral response at f_p = 1/(2 pi sigma).
    let sigma = 1.0 / (std::f64::consts::TAU * fc);
    let dt = 1.0 / fs.as_hz();
    let half = (5.0 * sigma / dt).ceil() as isize;
    (-half..=half)
        .map(|k| {
            let t = k as f64 * dt;
            -t / (sigma * sigma) * (-t * t / (2.0 * sigma * sigma)).exp()
        })
        .collect()
}

fn rrc_pulse(chip_rate: Hertz, roll_off: f64, fs: SampleRate) -> Vec<f64> {
    let rc = chip_rate.as_hz();
    assert!(rc > 0.0, "chip rate must be positive");
    assert!((0.0..=1.0).contains(&roll_off), "roll-off must be in [0, 1]");
    assert!(
        rc * (1.0 + roll_off) / 2.0 < fs.as_hz() / 2.0,
        "sample rate too low for the RRC bandwidth"
    );
    let tc = 1.0 / rc; // chip period
    let dt = 1.0 / fs.as_hz();
    let span_chips = 8.0;
    let half = (span_chips * tc / dt).ceil() as isize;
    let beta = roll_off;
    (-half..=half)
        .map(|k| {
            let t = k as f64 * dt / tc; // in chip periods
            rrc_sample(t, beta)
        })
        .collect()
}

/// One sample of the unit-rate RRC impulse response (t in symbol periods).
fn rrc_sample(t: f64, beta: f64) -> f64 {
    let pi = std::f64::consts::PI;
    if t.abs() < 1e-9 {
        return 1.0 - beta + 4.0 * beta / pi;
    }
    if beta > 0.0 && (t.abs() - 1.0 / (4.0 * beta)).abs() < 1e-9 {
        // Singular point.
        return beta / std::f64::consts::SQRT_2
            * ((1.0 + 2.0 / pi) * (pi / (4.0 * beta)).sin()
                + (1.0 - 2.0 / pi) * (pi / (4.0 * beta)).cos());
    }
    let num = (pi * t * (1.0 - beta)).sin() + 4.0 * beta * t * (pi * t * (1.0 + beta)).cos();
    let den = pi * t * (1.0 - (4.0 * beta * t) * (4.0 * beta * t));
    num / den
}

/// Scales a pulse to unit energy in place.
///
/// # Panics
///
/// Panics if the pulse has zero energy.
fn normalize_energy(pulse: &mut [f64]) {
    let e: f64 = pulse.iter().map(|x| x * x).sum();
    assert!(e > 0.0, "cannot normalize a zero pulse");
    let k = 1.0 / e.sqrt();
    for x in pulse.iter_mut() {
        *x *= k;
    }
}

/// Measures the −`db` two-sided bandwidth of a pulse at sample rate `fs`
/// using a zero-padded periodogram.
pub fn measure_bandwidth(pulse: &[f64], fs: SampleRate, db: f64) -> Hertz {
    // Zero-pad heavily for frequency resolution.
    let mut padded = pulse.to_vec();
    padded.resize(pulse.len().max(1) * 16, 0.0);
    let psd = uwb_dsp::psd::periodogram_real(&padded, fs.as_hz(), uwb_dsp::Window::Rectangular);
    Hertz::new(psd.bandwidth_below_peak(db))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SampleRate {
        SampleRate::from_gsps(4.0)
    }

    #[test]
    fn gaussian_bandwidth_is_500mhz() {
        let p = PulseShape::gen2_default().generate(fs());
        let bw = measure_bandwidth(&p, fs(), 10.0);
        let err = (bw.as_mhz() - 500.0).abs() / 500.0;
        assert!(err < 0.15, "-10 dB bandwidth {} MHz", bw.as_mhz());
    }

    #[test]
    fn pulses_are_unit_energy() {
        for shape in [
            PulseShape::gen2_default(),
            PulseShape::Monocycle {
                center: Hertz::from_mhz(800.0),
            },
            PulseShape::RootRaisedCosine {
                chip_rate: Hertz::from_mhz(500.0),
                roll_off: 0.3,
            },
        ] {
            let p = shape.generate(fs());
            let e: f64 = p.iter().map(|x| x * x).sum();
            assert!((e - 1.0).abs() < 1e-9, "{shape:?}: energy {e}");
        }
    }

    #[test]
    fn gaussian_duration_matches_bandwidth() {
        // A 500 MHz pulse should have ~2 ns main lobe (the "few ns" burst of
        // Fig. 4 at 580 ps/div).
        let p = PulseShape::gen2_default().generate(fs());
        let dt_ns = 1e9 / fs().as_hz();
        let peak = uwb_dsp::math::max_abs(&p);
        let above: usize = p.iter().filter(|x| x.abs() > peak * 0.1).count();
        let dur_ns = above as f64 * dt_ns;
        assert!(dur_ns > 1.0 && dur_ns < 6.0, "duration {dur_ns} ns");
    }

    #[test]
    fn monocycle_is_odd_and_zero_mean() {
        let p = PulseShape::Monocycle {
            center: Hertz::from_mhz(500.0),
        }
        .generate(fs());
        let sum: f64 = p.iter().sum();
        assert!(sum.abs() < 1e-9, "monocycle must have no DC: {sum}");
        // Odd symmetry.
        let n = p.len();
        for k in 0..n / 2 {
            assert!((p[k] + p[n - 1 - k]).abs() < 1e-9);
        }
    }

    #[test]
    fn monocycle_spectral_peak_near_center() {
        let fc = Hertz::from_mhz(600.0);
        let p = PulseShape::Monocycle { center: fc }.generate(fs());
        let mut padded = p.clone();
        padded.resize(p.len() * 16, 0.0);
        let psd =
            uwb_dsp::psd::periodogram_real(&padded, fs().as_hz(), uwb_dsp::Window::Rectangular);
        let peak = psd.peak_frequency().abs();
        assert!(
            (peak - fc.as_hz()).abs() / fc.as_hz() < 0.15,
            "peak at {peak}"
        );
    }

    #[test]
    fn rrc_nyquist_zero_crossings() {
        // The full raised cosine (RRC convolved with itself) has zeros at
        // integer chip offsets; check the RRC autocorrelation instead.
        let rate = Hertz::from_mhz(500.0);
        let p = PulseShape::RootRaisedCosine {
            chip_rate: rate,
            roll_off: 0.25,
        }
        .generate(fs());
        let sps = (fs().as_hz() / rate.as_hz()).round() as usize;
        // Autocorrelation at lag = k * sps must be ~0 for k != 0.
        let auto = |lag: usize| -> f64 { (0..p.len() - lag).map(|i| p[i] * p[i + lag]).sum() };
        let r0 = auto(0);
        for k in 1..=3 {
            let r = auto(k * sps);
            assert!(r.abs() / r0 < 0.02, "ISI at lag {k}: {}", r / r0);
        }
    }

    #[test]
    fn pulse_is_centered() {
        let p = PulseShape::gen2_default().generate(fs());
        let peak_idx = uwb_dsp::math::argmax(&p).unwrap();
        assert_eq!(peak_idx, p.len() / 2);
        assert_eq!(p.len() % 2, 1);
    }

    #[test]
    fn complex_variant_matches_real() {
        let shape = PulseShape::gen2_default();
        let r = shape.generate(fs());
        let c = shape.generate_complex(fs());
        assert_eq!(r.len(), c.len());
        for (a, b) in r.iter().zip(&c) {
            assert_eq!(*a, b.re);
            assert_eq!(b.im, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "sample rate too low")]
    fn nyquist_violation_panics() {
        PulseShape::Gaussian {
            bandwidth: Hertz::from_ghz(3.0),
        }
        .generate(SampleRate::from_gsps(1.0));
    }

    #[test]
    #[should_panic(expected = "zero pulse")]
    fn normalize_zero_panics() {
        let mut z = vec![0.0; 4];
        normalize_energy(&mut z);
    }
}
