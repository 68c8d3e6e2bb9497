//! IEEE 802.15.3a Saleh–Valenzuela multipath channel model.
//!
//! The paper's receiver must survive "severe multipath conditions (rms delay
//! spread of the channel on the order of 20 ns)". The 802.15.3a channel
//! modeling subcommittee's Saleh–Valenzuela variant (CM1–CM4) is the model
//! the UWB community — including the authors' group — standardized on for
//! exactly this evaluation, so it is the substrate here.
//!
//! Clusters arrive as a Poisson process with rate Λ; rays within a cluster
//! arrive with rate λ; mean tap energy decays double-exponentially with
//! cluster decay Γ and ray decay γ; per-tap fading is log-normal with random
//! polarity (equivalently uniform phase at complex baseband).

use crate::rng::Rand;
use crate::stream::StreamingChannel;
use crate::time::SampleRate;
use uwb_dsp::stream::process_record;
use uwb_dsp::{Complex, DspScratch};

/// Channel environment selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelModel {
    /// AWGN only — single unit tap, no multipath.
    Awgn,
    /// CM1: line-of-sight, 0–4 m. rms delay spread ≈ 5 ns.
    Cm1,
    /// CM2: non-line-of-sight, 0–4 m. rms ≈ 8 ns.
    Cm2,
    /// CM3: NLOS, 4–10 m. rms ≈ 14 ns.
    Cm3,
    /// CM4: extreme NLOS. rms ≈ 25 ns — the paper's "~20 ns" regime sits
    /// between CM3 and CM4.
    Cm4,
}

impl ChannelModel {
    /// The standard parameter set for this environment, `None` for
    /// [`ChannelModel::Awgn`].
    pub fn parameters(self) -> Option<SvParams> {
        match self {
            ChannelModel::Awgn => None,
            ChannelModel::Cm1 => Some(SvParams {
                cluster_rate: 0.0233,
                ray_rate: 2.5,
                cluster_decay: 7.1,
                ray_decay: 4.3,
                fading_sigma_db: 3.3941,
            }),
            ChannelModel::Cm2 => Some(SvParams {
                cluster_rate: 0.4,
                ray_rate: 0.5,
                cluster_decay: 5.5,
                ray_decay: 6.7,
                fading_sigma_db: 3.3941,
            }),
            ChannelModel::Cm3 => Some(SvParams {
                cluster_rate: 0.0667,
                ray_rate: 2.1,
                cluster_decay: 14.0,
                ray_decay: 7.9,
                fading_sigma_db: 3.3941,
            }),
            ChannelModel::Cm4 => Some(SvParams {
                cluster_rate: 0.0667,
                ray_rate: 2.1,
                cluster_decay: 24.0,
                ray_decay: 12.0,
                fading_sigma_db: 3.3941,
            }),
        }
    }

    /// Nominal rms delay spread of the environment in nanoseconds (from the
    /// 802.15.3a final report).
    pub fn nominal_rms_ns(self) -> f64 {
        match self {
            ChannelModel::Awgn => 0.0,
            ChannelModel::Cm1 => 5.28,
            ChannelModel::Cm2 => 8.03,
            ChannelModel::Cm3 => 14.28,
            ChannelModel::Cm4 => 25.0,
        }
    }
}

impl std::fmt::Display for ChannelModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ChannelModel::Awgn => "AWGN",
            ChannelModel::Cm1 => "CM1",
            ChannelModel::Cm2 => "CM2",
            ChannelModel::Cm3 => "CM3",
            ChannelModel::Cm4 => "CM4",
        };
        f.write_str(s)
    }
}

/// Saleh–Valenzuela model parameters (rates in 1/ns, decays in ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvParams {
    /// Cluster arrival rate Λ (1/ns).
    pub cluster_rate: f64,
    /// Ray arrival rate λ within a cluster (1/ns).
    pub ray_rate: f64,
    /// Cluster energy decay constant Γ (ns).
    pub cluster_decay: f64,
    /// Ray energy decay constant γ (ns).
    pub ray_decay: f64,
    /// Log-normal fading standard deviation per tap (dB).
    pub fading_sigma_db: f64,
}

/// A continuous-time tap: `(delay in ns, complex gain)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Arrival delay in nanoseconds relative to the first path.
    pub delay_ns: f64,
    /// Complex gain of the path.
    pub gain: Complex,
}

/// A realized channel: continuous taps plus helpers to discretize and apply.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRealization {
    taps: Vec<Tap>,
}

/// Stable insertion sort by delay — the identical permutation a stable
/// `slice::sort_by` produces, but without that sort's temporary-buffer
/// allocation. Tap counts are small (tens to a few hundred), so the O(n²)
/// worst case never matters; what matters is that the per-trial
/// [`ChannelRealization::regenerate`] path stays allocation-free.
fn sort_taps_stable(taps: &mut [Tap]) {
    for i in 1..taps.len() {
        let mut j = i;
        while j > 0 && taps[j - 1].delay_ns > taps[j].delay_ns {
            taps.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Normalizes total tap energy to one and sorts by delay, in place.
fn finalize_taps(taps: &mut [Tap]) {
    assert!(!taps.is_empty(), "channel needs at least one tap");
    let energy: f64 = taps.iter().map(|t| t.gain.norm_sqr()).sum();
    assert!(energy > 0.0, "channel taps must carry energy");
    let scale = 1.0 / energy.sqrt();
    for t in taps.iter_mut() {
        t.gain = t.gain * scale;
    }
    sort_taps_stable(taps);
}

impl ChannelRealization {
    /// A single unit tap at zero delay (the AWGN channel).
    pub fn identity() -> Self {
        ChannelRealization {
            taps: vec![Tap {
                delay_ns: 0.0,
                gain: Complex::ONE,
            }],
        }
    }

    /// Builds a realization from explicit taps, normalizing total energy to
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or all gains are zero.
    pub fn from_taps(mut taps: Vec<Tap>) -> Self {
        finalize_taps(&mut taps);
        ChannelRealization { taps }
    }

    /// Draws a random realization of `model` (normalized to unit energy).
    /// [`ChannelModel::Awgn`] yields the identity channel.
    pub fn generate(model: ChannelModel, rng: &mut Rand) -> Self {
        let mut c = ChannelRealization::identity();
        c.regenerate(model, rng);
        c
    }

    /// Draws a random Saleh–Valenzuela realization with explicit parameters.
    pub fn generate_sv(p: &SvParams, rng: &mut Rand) -> Self {
        let mut c = ChannelRealization::identity();
        c.regenerate_sv(p, rng);
        c
    }

    /// Redraws this realization from `model`, reusing the existing tap
    /// storage. Identical RNG draw order and results as
    /// [`ChannelRealization::generate`], but allocation-free once the tap
    /// buffer has reached its high-water capacity — the per-trial form used
    /// by the Monte-Carlo workers.
    pub fn regenerate(&mut self, model: ChannelModel, rng: &mut Rand) {
        match model.parameters() {
            None => {
                self.taps.clear();
                self.taps.push(Tap {
                    delay_ns: 0.0,
                    gain: Complex::ONE,
                });
            }
            Some(p) => self.regenerate_sv(&p, rng),
        }
    }

    /// Redraws a Saleh–Valenzuela realization in place (see
    /// [`ChannelRealization::regenerate`]).
    fn regenerate_sv(&mut self, p: &SvParams, rng: &mut Rand) {
        // Truncate the profile when mean energy has decayed by ~50 dB.
        let max_cluster_delay = 5.0 * p.cluster_decay;
        let max_ray_excess = 5.0 * p.ray_decay;
        let sigma_ln = p.fading_sigma_db * std::f64::consts::LN_10 / 20.0;

        let taps = &mut self.taps;
        taps.clear();
        let mut t_cluster = 0.0; // first cluster at 0 by convention
        while t_cluster <= max_cluster_delay {
            let mut tau = 0.0; // first ray of each cluster at the cluster time
            while tau <= max_ray_excess {
                let mean_energy =
                    (-t_cluster / p.cluster_decay).exp() * (-tau / p.ray_decay).exp();
                // Log-normal amplitude fading about the mean energy, with the
                // standard -sigma^2/2 correction so E[|g|^2] = mean_energy.
                let x = rng.gaussian() * sigma_ln;
                let amp = (mean_energy.sqrt()) * (x - sigma_ln * sigma_ln / 2.0).exp();
                // Random polarity (baseband equivalent: uniform phase).
                let phase = rng.uniform_in(0.0, std::f64::consts::TAU);
                taps.push(Tap {
                    delay_ns: t_cluster + tau,
                    gain: Complex::from_polar(amp, phase),
                });
                tau += rng.exponential(p.ray_rate);
            }
            t_cluster += rng.exponential(p.cluster_rate);
        }
        finalize_taps(taps);
    }

    /// The continuous-time taps, sorted by delay.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false`: construction guarantees at least one tap.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total energy of the taps (1.0 after normalization).
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|t| t.gain.norm_sqr()).sum()
    }

    /// Mean excess delay in nanoseconds (energy-weighted mean of delays).
    pub fn mean_excess_delay_ns(&self) -> f64 {
        let e = self.energy();
        self.taps
            .iter()
            .map(|t| t.delay_ns * t.gain.norm_sqr())
            .sum::<f64>()
            / e
    }

    /// rms delay spread in nanoseconds.
    pub fn rms_delay_spread_ns(&self) -> f64 {
        let e = self.energy();
        let mu = self.mean_excess_delay_ns();
        let m2 = self
            .taps
            .iter()
            .map(|t| t.delay_ns * t.delay_ns * t.gain.norm_sqr())
            .sum::<f64>()
            / e;
        (m2 - mu * mu).max(0.0).sqrt()
    }

    /// Maximum excess delay in nanoseconds.
    pub fn max_excess_delay_ns(&self) -> f64 {
        self.taps.last().map_or(0.0, |t| t.delay_ns)
    }

    /// Discretizes the channel into a sampled impulse response at `fs`.
    /// Each continuous tap is accumulated into its nearest sample bin.
    pub fn discretize(&self, fs: SampleRate) -> Vec<Complex> {
        let mut h = Vec::new();
        self.discretize_into(fs, &mut h);
        h
    }

    /// [`ChannelRealization::discretize`] writing into a caller-owned buffer
    /// (cleared and refilled; allocation-free once its capacity suffices).
    pub fn discretize_into(&self, fs: SampleRate, h: &mut Vec<Complex>) {
        let ts_ns = 1e9 / fs.as_hz();
        let n = (self.max_excess_delay_ns() / ts_ns).round() as usize + 1;
        h.clear();
        h.resize(n, Complex::ZERO);
        for t in &self.taps {
            let k = (t.delay_ns / ts_ns).round() as usize;
            h[k.min(n - 1)] += t.gain;
        }
    }

    /// Convolves a complex baseband signal with the discretized channel:
    /// the input plus the channel tail. One block of [`StreamingChannel`]
    /// and its flush, so the record is bit-identical to a link trial's
    /// streamed one for any block partition.
    pub fn apply(&self, input: &[Complex], fs: SampleRate) -> Vec<Complex> {
        let mut out = input.to_vec();
        let mut conv = StreamingChannel::from_realization(self, fs);
        process_record(&mut conv, &mut out, input.len(), &mut DspScratch::new());
        out
    }

    /// Energy captured by the `n` strongest taps, as a fraction of total —
    /// the quantity a selective-RAKE receiver can collect.
    pub fn energy_capture(&self, n: usize) -> f64 {
        let mut energies: Vec<f64> = self.taps.iter().map(|t| t.gain.norm_sqr()).collect();
        energies.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = energies.iter().sum();
        energies.iter().take(n).sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_channel() {
        let c = ChannelRealization::identity();
        assert_eq!(c.len(), 1);
        assert_eq!(c.rms_delay_spread_ns(), 0.0);
        assert!((c.energy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_to_unit_energy() {
        let mut rng = Rand::new(1);
        for model in [ChannelModel::Cm1, ChannelModel::Cm3] {
            let c = ChannelRealization::generate(model, &mut rng);
            assert!((c.energy() - 1.0).abs() < 1e-9, "{model}");
        }
    }

    #[test]
    fn rms_delay_spread_orders_by_model() {
        // Ensemble averages must order CM1 < CM2 < CM3 < CM4 and be near the
        // nominal published values.
        let mut rng = Rand::new(42);
        let mut avg = |m: ChannelModel| {
            let n = 60;
            (0..n)
                .map(|_| ChannelRealization::generate(m, &mut rng).rms_delay_spread_ns())
                .sum::<f64>()
                / n as f64
        };
        let r1 = avg(ChannelModel::Cm1);
        let r2 = avg(ChannelModel::Cm2);
        let r3 = avg(ChannelModel::Cm3);
        let r4 = avg(ChannelModel::Cm4);
        assert!(r1 < r2 && r2 < r3 && r3 < r4, "{r1} {r2} {r3} {r4}");
        // Within a factor ~2 of nominal (short truncation biases slightly low).
        assert!(r1 > 2.0 && r1 < 11.0, "CM1 rms {r1}");
        assert!(r3 > 7.0 && r3 < 28.0, "CM3 rms {r3}");
        assert!(r4 > 12.0 && r4 < 50.0, "CM4 rms {r4}");
    }

    #[test]
    fn cm3_is_paper_regime() {
        // CM3/CM4 bracket the paper's "~20 ns" claim.
        assert!(ChannelModel::Cm3.nominal_rms_ns() < 20.0);
        assert!(ChannelModel::Cm4.nominal_rms_ns() > 20.0);
    }

    #[test]
    fn determinism_with_seed() {
        let a = ChannelRealization::generate(ChannelModel::Cm2, &mut Rand::new(7));
        let b = ChannelRealization::generate(ChannelModel::Cm2, &mut Rand::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn regenerate_matches_generate_bitwise() {
        // Same seed, same draw order: the in-place redraw must be identical
        // to a fresh generate, for both AWGN and multipath models.
        for model in [ChannelModel::Awgn, ChannelModel::Cm2, ChannelModel::Cm4] {
            let fresh = ChannelRealization::generate(model, &mut Rand::new(99));
            let mut reused = ChannelRealization::generate(ChannelModel::Cm1, &mut Rand::new(1));
            reused.regenerate(model, &mut Rand::new(99));
            assert_eq!(fresh, reused, "{model}");
        }
    }

    #[test]
    fn discretization_preserves_energy_roughly() {
        let mut rng = Rand::new(3);
        let c = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
        let h = c.discretize(SampleRate::from_gsps(2.0));
        let e: f64 = h.iter().map(|z| z.norm_sqr()).sum();
        // Bin-collisions can add coherently/destructively; allow slack.
        assert!(e > 0.5 && e < 2.0, "discretized energy {e}");
        assert!(!h.is_empty());
    }

    #[test]
    fn apply_extends_signal_by_tail() {
        let mut rng = Rand::new(4);
        let c = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
        let fs = SampleRate::from_gsps(1.0);
        let sig = vec![Complex::ONE; 100];
        let out = c.apply(&sig, fs);
        let h = c.discretize(fs);
        assert_eq!(out.len(), 100 + h.len() - 1);
    }

    #[test]
    fn identity_apply_is_passthrough() {
        let c = ChannelRealization::identity();
        let fs = SampleRate::from_gsps(1.0);
        let sig: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, 0.0)).collect();
        let out = c.apply(&sig, fs);
        for (a, b) in sig.iter().zip(&out) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn energy_capture_monotonic() {
        let mut rng = Rand::new(5);
        let c = ChannelRealization::generate(ChannelModel::Cm3, &mut rng);
        let mut prev = 0.0;
        for n in [1, 2, 4, 8, 16, 1000] {
            let e = c.energy_capture(n);
            assert!(e >= prev);
            assert!(e <= 1.0 + 1e-9);
            prev = e;
        }
        assert!((c.energy_capture(100_000) - 1.0).abs() < 1e-9);
        // A few fingers should capture a meaningful fraction but not all.
        let few = c.energy_capture(4);
        assert!(few > 0.05 && few < 1.0, "{few}");
    }

    #[test]
    fn taps_sorted_by_delay() {
        let mut rng = Rand::new(6);
        let c = ChannelRealization::generate(ChannelModel::Cm4, &mut rng);
        for w in c.taps().windows(2) {
            assert!(w[0].delay_ns <= w[1].delay_ns);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_panic() {
        ChannelRealization::from_taps(Vec::new());
    }
}
