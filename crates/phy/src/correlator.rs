//! Parallelized correlator bank.
//!
//! Paper §1: "The back end requires parallelization to reduce the packet
//! synchronization time and to process the large data rate provided by the
//! ADC." In hardware, `P` correlators evaluate `P` candidate code phases per
//! clock; this model computes the same outputs and *accounts for the clock
//! cycles and multiply-accumulate operations* so acquisition-time and power
//! numbers can be derived from it.

use std::cell::RefCell;

use uwb_dsp::fft32::cached_plan32;
use uwb_dsp::math::next_pow2;
use uwb_dsp::{Complex, DspScratch};

/// Forward FFT of the zero-padded, conjugated, time-reversed template in
/// split f32 lanes, memoized per FFT size so repeated acquisition sweeps pay
/// for the template transform once instead of every call.
#[derive(Debug, Clone)]
struct TplSpectrum32 {
    n: usize,
    re: Vec<f32>,
    im: Vec<f32>,
}

/// Operation accounting for a correlator-bank run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorrelatorStats {
    /// Candidate phases evaluated.
    pub phases_evaluated: usize,
    /// Hardware clock cycles consumed (`ceil(phases / parallelism)` dwells,
    /// each lasting one template length of clocks).
    pub clock_cycles: u64,
    /// Real multiply-accumulate operations performed.
    pub mac_ops: u64,
}

/// A bank of `parallelism` correlators sharing one template.
///
/// The bank memoizes the FFT of its matched template per transform size (a
/// `RefCell`, so the bank is `!Sync`; the Monte-Carlo engine builds one bank
/// per worker thread, which is the intended sharing model).
#[derive(Debug, Clone)]
pub struct CorrelatorBank {
    template: Vec<Complex>,
    parallelism: usize,
    /// Lazily built matched-template spectrum (see [`TplSpectrum32`]).
    tpl_spectrum32: RefCell<Option<TplSpectrum32>>,
}

impl CorrelatorBank {
    /// Creates a bank with the given template and hardware parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the template is empty or `parallelism == 0`.
    pub fn new(template: Vec<Complex>, parallelism: usize) -> Self {
        assert!(!template.is_empty(), "correlator template must be non-empty");
        assert!(parallelism > 0, "parallelism must be at least 1");
        CorrelatorBank {
            template,
            parallelism,
            tpl_spectrum32: RefCell::new(None),
        }
    }

    /// The template length in samples.
    pub fn template_len(&self) -> usize {
        self.template.len()
    }

    /// The correlation template.
    pub fn template(&self) -> &[Complex] {
        &self.template
    }

    /// The number of parallel correlators.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Correlates `signal` against the template at every phase in
    /// `phases` (sample offsets into `signal`). Offsets whose window would
    /// run past the end yield zero.
    ///
    /// Returns per-phase complex outputs plus the hardware cost.
    pub fn run(&self, signal: &[Complex], phases: &[usize]) -> (Vec<Complex>, CorrelatorStats) {
        let m = self.template.len();
        let mut out = Vec::with_capacity(phases.len());
        for &p in phases {
            if p + m > signal.len() {
                out.push(Complex::ZERO);
                continue;
            }
            let mut acc = Complex::ZERO;
            for (j, &t) in self.template.iter().enumerate() {
                acc += signal[p + j] * t.conj();
            }
            out.push(acc);
        }
        let dwells = phases.len().div_ceil(self.parallelism);
        let stats = CorrelatorStats {
            phases_evaluated: phases.len(),
            clock_cycles: dwells as u64 * m as u64,
            // Complex × conj(complex) = 4 real MACs per sample.
            mac_ops: phases.len() as u64 * m as u64 * 4,
        };
        (out, stats)
    }

    /// Correlates the contiguous phase range `0..n_phases`, the access
    /// pattern of a serial acquisition sweep.
    ///
    /// Outputs and hardware accounting are the same as
    /// [`CorrelatorBank::run`] over `(0..n_phases).collect()` — the stats
    /// model the *hardware* correlator bank (dwells, clocks, MACs), which is
    /// independent of how this software model evaluates the outputs. For
    /// large sweeps the contiguous structure lets the model use one FFT
    /// cross-correlation (`O(N log N)`) instead of `O(phases × m)` direct
    /// MACs; results agree with the direct form up to floating-point
    /// rounding.
    pub fn run_prefix(&self, signal: &[Complex], n_phases: usize) -> (Vec<Complex>, CorrelatorStats) {
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        let stats = self.run_prefix_into(signal, n_phases, &mut scratch, &mut out);
        (out, stats)
    }

    /// [`CorrelatorBank::run_prefix`] computing into caller-owned storage.
    ///
    /// Identical outputs and hardware accounting; FFT work buffers come from
    /// `scratch` and the matched-template spectrum is memoized inside the
    /// bank, so steady-state acquisition sweeps perform zero heap allocation
    /// and one forward + one inverse transform (instead of two forward + one
    /// inverse with a per-call template transform).
    pub fn run_prefix_into(
        &self,
        signal: &[Complex],
        n_phases: usize,
        scratch: &mut DspScratch,
        out: &mut Vec<Complex>,
    ) -> CorrelatorStats {
        let m = self.template.len();
        let use_fft = m > 1 && n_phases.saturating_mul(m) >= Self::FFT_THRESHOLD_MACS;
        out.clear();
        if !use_fft {
            out.reserve(n_phases);
            for p in 0..n_phases {
                if p + m > signal.len() {
                    out.push(Complex::ZERO);
                    continue;
                }
                let mut acc = Complex::ZERO;
                for (j, &t) in self.template.iter().enumerate() {
                    acc += signal[p + j] * t.conj();
                }
                out.push(acc);
            }
        } else {
            self.correlate_prefix_fft32(signal, n_phases, scratch, out);
        }
        let dwells = n_phases.div_ceil(self.parallelism);
        CorrelatorStats {
            phases_evaluated: n_phases,
            clock_cycles: dwells as u64 * m as u64,
            mac_ops: n_phases as u64 * m as u64 * 4,
        }
    }

    /// Below this work estimate the direct form wins (and stays exactly
    /// bit-identical to `run`, which small unit tests rely on).
    const FFT_THRESHOLD_MACS: usize = 1 << 15;

    /// (Re)builds the cached f32 template spectrum for transform size `n`,
    /// with the inverse transform's 1/N folded in (see
    /// [`CorrelatorBank::correlate_prefix_fft32`]).
    fn ensure_spectrum32(&self, n: usize) {
        let mut cache = self.tpl_spectrum32.borrow_mut();
        if cache.as_ref().is_none_or(|c| c.n != n) {
            let fft = cached_plan32(n);
            let mut re = vec![0.0f32; n];
            let mut im = vec![0.0f32; n];
            for (i, t) in self.template.iter().rev().enumerate() {
                re[i] = t.re as f32;
                im[i] = -t.im as f32; // conj
            }
            fft.forward_in_place(&mut re, &mut im);
            // Fold the inverse transform's 1/N into the cached spectrum
            // so the hot path can use the unscaled inverse (one fewer
            // pass over the lanes per acquisition).
            let inv_n = 1.0f32 / n as f32;
            for x in re.iter_mut() {
                *x *= inv_n;
            }
            for x in im.iter_mut() {
                *x *= inv_n;
            }
            *cache = Some(TplSpectrum32 { n, re, im });
        }
    }

    /// FFT path of [`CorrelatorBank::run_prefix_into`]: correlate against the
    /// memoized template spectrum through [`uwb_dsp::fft32`] on split f32
    /// lanes, writing `n_phases` outputs (zero-filled past the last valid
    /// lag). Outputs differ from an f64 FFT by ~1e-7 relative (see the
    /// parity tests), which acquisition's threshold test and argmax absorb.
    fn correlate_prefix_fft32(
        &self,
        signal: &[Complex],
        n_phases: usize,
        scratch: &mut DspScratch,
        out: &mut Vec<Complex>,
    ) {
        let m = self.template.len();
        let needed = (n_phases + m - 1).min(signal.len());
        if needed < m {
            out.resize(n_phases, Complex::ZERO);
            return;
        }
        let n_valid = needed - m + 1;
        let n = next_pow2(needed + m - 1);
        self.ensure_spectrum32(n);
        let cache = self.tpl_spectrum32.borrow();
        let tpl = cache
            .as_ref()
            .expect("tpl_spectrum32 populated above for this size");
        let fft = cached_plan32(n);
        let mut sr = scratch.take_f32(n);
        let mut si = scratch.take_f32(n);
        for (i, z) in signal[..needed].iter().enumerate() {
            sr[i] = z.re as f32;
            si[i] = z.im as f32;
        }
        fft.forward_in_place(&mut sr, &mut si);
        // Pointwise complex product in SoA form.
        for i in 0..n {
            let (ar, ai) = (sr[i], si[i]);
            sr[i] = ar * tpl.re[i] - ai * tpl.im[i];
            si[i] = ar * tpl.im[i] + ai * tpl.re[i];
        }
        fft.inverse_in_place_unscaled(&mut sr, &mut si);
        let take = n_valid.min(n_phases);
        out.reserve(n_phases);
        for i in m - 1..m - 1 + take {
            out.push(Complex::new(sr[i] as f64, si[i] as f64));
        }
        out.resize(n_phases, Complex::ZERO);
        scratch.put_f32(sr);
        scratch.put_f32(si);
    }

    /// Correlates every phase in `0..signal.len() − template_len + 1`
    /// (a full sliding search).
    pub fn run_full(&self, signal: &[Complex]) -> (Vec<Complex>, CorrelatorStats) {
        let n = signal.len().saturating_sub(self.template.len()) + 1;
        self.run_prefix(signal, n)
    }

    /// Time in microseconds the search takes on hardware clocked at
    /// `clock_hz`, given the stats of a run.
    pub fn search_time_us(stats: &CorrelatorStats, clock_hz: f64) -> f64 {
        stats.clock_cycles as f64 / clock_hz * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::cis(0.2 * i as f64)).collect()
    }

    #[test]
    fn outputs_match_direct_correlation() {
        let tpl = template(16);
        let mut sig = vec![Complex::ZERO; 100];
        for (i, &t) in tpl.iter().enumerate() {
            sig[40 + i] = t;
        }
        let bank = CorrelatorBank::new(tpl.clone(), 4);
        let (out, _) = bank.run_full(&sig);
        let direct = uwb_dsp::correlation::cross_correlate(&sig, &tpl);
        assert_eq!(out.len(), direct.len());
        for (a, b) in out.iter().zip(&direct) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn peak_found_at_embedded_phase() {
        let tpl = template(32);
        let mut sig = vec![Complex::ZERO; 300];
        for (i, &t) in tpl.iter().enumerate() {
            sig[123 + i] = t;
        }
        let bank = CorrelatorBank::new(tpl, 8);
        let (out, _) = bank.run_full(&sig);
        let mags: Vec<f64> = out.iter().map(|z| z.norm()).collect();
        assert_eq!(uwb_dsp::math::argmax(&mags), Some(123));
    }

    #[test]
    fn clock_cycles_scale_inversely_with_parallelism() {
        let tpl = template(64);
        let sig = vec![Complex::ONE; 1000];
        let phases: Vec<usize> = (0..512).collect();
        let serial = CorrelatorBank::new(tpl.clone(), 1);
        let parallel = CorrelatorBank::new(tpl, 32);
        let (_, s1) = serial.run(&sig, &phases);
        let (_, s32) = parallel.run(&sig, &phases);
        assert_eq!(s1.clock_cycles, 512 * 64);
        assert_eq!(s32.clock_cycles, 16 * 64);
        assert_eq!(s1.clock_cycles / s32.clock_cycles, 32);
        // Total MAC work is the same — parallel hardware, same energy.
        assert_eq!(s1.mac_ops, s32.mac_ops);
    }

    #[test]
    fn run_prefix_fft_path_matches_direct() {
        // 512 phases × 128-tap template clears FFT_THRESHOLD_MACS.
        let tpl = template(128);
        let mut sig: Vec<Complex> = (0..800)
            .map(|i| Complex::cis(0.37 * i as f64) * (0.2 + 0.01 * (i % 17) as f64))
            .collect();
        for (i, &t) in tpl.iter().enumerate() {
            sig[333 + i] += t;
        }
        let bank = CorrelatorBank::new(tpl, 8);
        let n_phases = 512;
        let (fast, s_fast) = bank.run_prefix(&sig, n_phases);
        let phases: Vec<usize> = (0..n_phases).collect();
        let (direct, s_direct) = bank.run(&sig, &phases);
        assert_eq!(s_fast, s_direct, "hardware accounting must not change");
        assert_eq!(fast.len(), direct.len());
        // The FFT runs in f32, so parity with the f64 direct form is
        // relative to the output scale rather than near-exact.
        let scale = direct.iter().map(|z| z.norm()).fold(1.0, f64::max);
        let tol = 1e-5 * scale;
        for (a, b) in fast.iter().zip(&direct) {
            assert!((*a - *b).norm() < tol, "{a} vs {b}");
        }
    }

    /// f64 FFT cross-correlation over the prefix `0..n_phases` — the oracle
    /// the f32 path is bounded against.
    fn correlate_prefix_fft64(
        tpl: &[Complex],
        signal: &[Complex],
        n_phases: usize,
    ) -> Vec<Complex> {
        let m = tpl.len();
        let needed = (n_phases + m - 1).min(signal.len());
        let n = next_pow2(needed + m - 1);
        let fft = uwb_dsp::fft::cached_plan(n);
        let mut spec = vec![Complex::ZERO; n];
        for (o, t) in spec.iter_mut().zip(tpl.iter().rev()) {
            *o = t.conj();
        }
        fft.forward_in_place(&mut spec);
        let mut fa = vec![Complex::ZERO; n];
        fa[..needed].copy_from_slice(&signal[..needed]);
        fft.forward_in_place(&mut fa);
        for (x, y) in fa.iter_mut().zip(&spec) {
            *x *= *y;
        }
        fft.inverse_in_place(&mut fa);
        let mut out = fa[m - 1..m - 1 + (needed - m + 1).min(n_phases)].to_vec();
        out.resize(n_phases, Complex::ZERO);
        out
    }

    /// Acceptance bound of the f32 acquisition FFT: it must stay within a
    /// small relative envelope of the f64 FFT at every phase. The
    /// envelope (10 ppm of the peak magnitude) is ~1000× tighter than the
    /// margin between acquisition's detection threshold and real peaks.
    #[test]
    fn f32_fft_path_is_ulp_bounded_against_f64() {
        let tpl = template(128);
        let mut sig: Vec<Complex> = (0..4096)
            .map(|i| Complex::cis(1.3 * i as f64) * (0.05 + 0.002 * (i % 31) as f64))
            .collect();
        for (i, &t) in tpl.iter().enumerate() {
            sig[1777 + i] += t * 2.0;
        }
        let bank = CorrelatorBank::new(tpl.clone(), 8);
        let n_phases = 3000;
        let mut scratch = DspScratch::new();
        let f64_out = correlate_prefix_fft64(&tpl, &sig, n_phases);
        let mut f32_out = Vec::new();
        bank.correlate_prefix_fft32(&sig, n_phases, &mut scratch, &mut f32_out);
        assert_eq!(f64_out.len(), f32_out.len());
        let scale = f64_out.iter().map(|z| z.norm()).fold(f64::MIN_POSITIVE, f64::max);
        let mut worst = 0.0f64;
        for (a, b) in f32_out.iter().zip(&f64_out) {
            worst = worst.max((*a - *b).norm());
        }
        assert!(
            worst <= 1e-5 * scale,
            "worst abs deviation {worst} exceeds 1e-5 × peak {scale}"
        );
        // And the argmax — the decision acquisition actually takes — agrees.
        let am = |v: &[Complex]| {
            let mags: Vec<f64> = v.iter().map(|z| z.norm()).collect();
            uwb_dsp::math::argmax(&mags)
        };
        assert_eq!(am(&f32_out), am(&f64_out));
        assert_eq!(am(&f64_out), Some(1777));
    }

    #[test]
    fn run_prefix_handles_short_signal() {
        // n_phases extends past the valid range: tail phases must be zero,
        // on both the direct and FFT paths.
        let tpl = template(64);
        let sig = vec![Complex::ONE; 600];
        let bank = CorrelatorBank::new(tpl, 4);
        let (out, stats) = bank.run_prefix(&sig, 600); // valid lags: 0..=536
        assert_eq!(out.len(), 600);
        assert_eq!(stats.phases_evaluated, 600);
        assert!(out[536].norm() > 0.0);
        for z in &out[537..] {
            assert_eq!(*z, Complex::ZERO);
        }
    }

    #[test]
    fn out_of_range_phase_yields_zero() {
        let tpl = template(10);
        let sig = vec![Complex::ONE; 12];
        let bank = CorrelatorBank::new(tpl, 1);
        let (out, _) = bank.run(&sig, &[0, 2, 5]);
        assert!(out[0].norm() > 0.0);
        assert!(out[1].norm() > 0.0);
        assert_eq!(out[2], Complex::ZERO); // 5 + 10 > 12
    }

    #[test]
    fn search_time_formula() {
        let stats = CorrelatorStats {
            phases_evaluated: 1000,
            clock_cycles: 500_000,
            mac_ops: 0,
        };
        // 500k cycles at 500 MHz = 1000 us.
        let t = CorrelatorBank::search_time_us(&stats, 500e6);
        assert!((t - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_template_panics() {
        CorrelatorBank::new(Vec::new(), 4);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_panics() {
        CorrelatorBank::new(template(4), 0);
    }
}
