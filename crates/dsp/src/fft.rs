//! Radix-2 decimation-in-time FFT.
//!
//! A dependency-free iterative Cooley–Tukey implementation with precomputed
//! twiddle factors and zero-padded transforms of arbitrary length. Its users
//! are spectra (Welch PSD and the spectral monitor), the f64 correlation
//! oracles the acquisition tests check the chip-domain kernel against, and
//! `dspbench`'s kernel rows. No receiver search correlates through it, and
//! no channel convolves through it: the multipath channel is the streamed
//! direct-form `uwb_sim::StreamingChannel`.
//!
//! The forward transform computes `X[k] = Σ x[n] e^{-i 2π nk/N}`; the inverse
//! applies the conjugate kernel and divides by `N`, so
//! `ifft(fft(x)) == x`.
//!
//! # Allocation-free steady state
//!
//! Two layers keep the FFT path allocation-free:
//!
//! * **In-place transforms** — [`Fft::process_in_place`],
//!   [`Fft::forward_in_place`] and [`Fft::inverse_in_place`] operate on a
//!   caller-provided buffer. The in-place bit-reversal permutation is an
//!   involution, so the outputs are **bit-identical** to the allocating
//!   [`Fft::forward`] / [`Fft::inverse`].
//! * **A thread-local plan cache** — [`cached_plan`] returns this thread's
//!   memoized [`Fft`] for a given size, so twiddle and bit-reversal tables are
//!   computed once per (worker thread, size) instead of per call.
//!   [`fft_plans_built`] exposes a process-wide construction counter that
//!   tests use to assert the cache is effective.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::complex::Complex;
use crate::math::next_pow2;

/// Process-wide count of [`Fft`] plan constructions (see [`fft_plans_built`]).
static PLANS_BUILT: AtomicU64 = AtomicU64::new(0);

/// Number of [`Fft`] plans constructed process-wide since program start.
///
/// Diagnostics only: the allocation/plan-cache regression tests snapshot this
/// counter before and after a batch of steady-state trials to prove plans are
/// built at most once per (worker thread, size).
pub fn fft_plans_built() -> u64 {
    PLANS_BUILT.load(Ordering::Relaxed)
}

/// Planned FFT of a fixed power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and twiddle factors;
/// [`Fft::forward_in_place`] and [`Fft::inverse_in_place`] then run without
/// any allocation, and [`Fft::forward`] / [`Fft::inverse`] allocate only
/// their output buffer.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{Complex, Fft};
///
/// let fft = Fft::new(8);
/// let x: Vec<Complex> = (0..8).map(|n| Complex::new(n as f64, 0.0)).collect();
/// let spec = fft.forward(&x);
/// let back = fft.inverse(&spec);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// // The in-place form produces bit-identical results on a caller buffer.
/// let mut buf = x.clone();
/// fft.forward_in_place(&mut buf);
/// assert_eq!(buf, spec);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    rev: Vec<usize>,
    /// Twiddles for the forward transform, one per butterfly stride level.
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Plans an FFT of size `n`.
    ///
    /// Prefer [`cached_plan`] in per-trial code: it memoizes plans per thread
    /// so the tables below are built once per (worker, size).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_power_of_two(),
            "FFT size must be a power of two"
        );
        PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
        let bits = n.trailing_zeros();
        let mut rev = vec![0usize; n];
        if bits > 0 {
            for (i, r) in rev.iter_mut().enumerate() {
                *r = i.reverse_bits() >> (usize::BITS - bits);
            }
        }
        // Half-size table of e^{-i 2π k / n}.
        let twiddles = (0..n / 2)
            .map(|k| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64))
            .collect();
        Fft { n, rev, twiddles }
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan has size ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Butterfly passes over an already bit-reverse-permuted buffer, plus the
    /// `1/N` scaling for the inverse. Shared by every transform entry point so
    /// all of them produce bit-identical values.
    fn butterflies(&self, a: &mut [Complex], invert: bool) {
        let n = self.n;
        let mut len = 2usize;
        while len <= n {
            let stride = n / len;
            let half = len / 2;
            // k outermost so the twiddle load + conditional conjugate are
            // hoisted out of the hot loop. Butterflies within a stage touch
            // disjoint index pairs and each output is the same arithmetic
            // expression as before, so this reordering is bit-identical.
            for k in 0..half {
                let mut w = self.twiddles[k * stride];
                if invert {
                    w = w.conj();
                }
                for start in (0..n).step_by(len) {
                    let u = a[start + k];
                    let v = a[start + k + half] * w;
                    a[start + k] = u + v;
                    a[start + k + half] = u - v;
                }
            }
            len <<= 1;
        }
        if invert {
            let inv_n = 1.0 / n as f64;
            for z in a.iter_mut() {
                *z = z.scale(inv_n);
            }
        }
    }

    /// Transforms `a` in place (forward when `invert` is false, inverse —
    /// including the `1/N` normalization — when true).
    ///
    /// The bit-reversal permutation is an involution, so applying it by
    /// pairwise swaps yields exactly the array the out-of-place gather
    /// produces; outputs are **bit-identical** to [`Fft::forward`] /
    /// [`Fft::inverse`]. No allocation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.len()`.
    pub fn process_in_place(&self, a: &mut [Complex], invert: bool) {
        assert_eq!(a.len(), self.n, "input length must equal FFT size");
        for i in 0..self.n {
            let r = self.rev[i];
            if i < r {
                a.swap(i, r);
            }
        }
        self.butterflies(a, invert);
    }

    /// Forward DFT in place. Bit-identical to [`Fft::forward`], allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.len()`.
    pub fn forward_in_place(&self, a: &mut [Complex]) {
        self.process_in_place(a, false);
    }

    /// Inverse DFT in place (includes the `1/N` normalization). Bit-identical
    /// to [`Fft::inverse`], allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.len()`.
    pub fn inverse_in_place(&self, a: &mut [Complex]) {
        self.process_in_place(a, true);
    }

    /// Gather-permute `input` into a new buffer, then run the butterflies
    /// there.
    fn transform(&self, input: &[Complex], invert: bool) -> Vec<Complex> {
        assert_eq!(input.len(), self.n, "input length must equal FFT size");
        let mut out: Vec<Complex> = self.rev.iter().map(|&r| input[r]).collect();
        self.butterflies(&mut out, invert);
        out
    }

    /// Forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex]) -> Vec<Complex> {
        self.transform(input, false)
    }

    /// Inverse DFT (includes the `1/N` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn inverse(&self, input: &[Complex]) -> Vec<Complex> {
        self.transform(input, true)
    }
}

/// Per-thread memoized FFT plans keyed by transform size.
///
/// Plans are stored by `log2(n)` and shared out as [`Rc`] clones, so a
/// worker thread builds each size's twiddle/bit-reversal tables exactly once
/// no matter how many kernels request it. One lives in each thread, behind
/// [`cached_plan`].
#[derive(Debug, Default)]
struct FftPlanner {
    /// `plans[log2(n)]` holds the plan for size `n`.
    plans: Vec<Option<Rc<Fft>>>,
}

impl FftPlanner {
    /// An empty planner; plans are built lazily on first request.
    fn new() -> Self {
        FftPlanner::default()
    }

    /// Returns the plan for size `n`, building and caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    fn plan(&mut self, n: usize) -> Rc<Fft> {
        assert!(
            n > 0 && n.is_power_of_two(),
            "FFT size must be a power of two"
        );
        let idx = n.trailing_zeros() as usize;
        if idx >= self.plans.len() {
            self.plans.resize(idx + 1, None);
        }
        self.plans[idx]
            .get_or_insert_with(|| Rc::new(Fft::new(n)))
            .clone()
    }
}

thread_local! {
    static THREAD_PLANNER: RefCell<FftPlanner> = RefCell::new(FftPlanner::new());
}

/// This thread's cached FFT plan of size `n`, built on first use.
///
/// Every FFT-based kernel in the crate routes through this cache, so a
/// Monte-Carlo worker computes twiddle/bit-reversal tables once per size for
/// its whole lifetime ([`fft_plans_built`] lets tests verify that).
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
pub fn cached_plan(n: usize) -> Rc<Fft> {
    THREAD_PLANNER.with(|p| p.borrow_mut().plan(n))
}

/// One-shot forward FFT of a complex signal, zero-padded to the next power of
/// two.
///
/// Returns the spectrum and the transform size actually used.
pub fn fft_padded(signal: &[Complex]) -> (Vec<Complex>, usize) {
    let n = next_pow2(signal.len().max(1));
    let mut buf = signal.to_vec();
    buf.resize(n, Complex::ZERO);
    cached_plan(n).forward_in_place(&mut buf);
    (buf, n)
}

/// The frequency in hertz of FFT bin `k` for an `n`-point transform at sample
/// rate `fs`, mapped into `(-fs/2, fs/2]`.
pub fn bin_frequency(k: usize, n: usize, fs: f64) -> f64 {
    let k = k % n;
    let f = k as f64 * fs / n as f64;
    if f > fs / 2.0 {
        f - fs
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn dc_signal_transforms_to_impulse() {
        let fft = Fft::new(16);
        let x = vec![Complex::ONE; 16];
        let spec = fft.forward(&x);
        assert!((spec[0] - Complex::new(16.0, 0.0)).norm() < 1e-9);
        for z in &spec[1..] {
            assert!(z.norm() < 1e-9);
        }
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let fft = Fft::new(8);
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let spec = fft.forward(&x);
        for z in &spec {
            assert!((*z - Complex::ONE).norm() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_correct_bin() {
        let n = 64;
        let fft = Fft::new(n);
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(std::f64::consts::TAU * k0 as f64 * t as f64 / n as f64))
            .collect();
        let spec = fft.forward(&x);
        for (k, z) in spec.iter().enumerate() {
            if k == k0 {
                assert!((z.norm() - n as f64).abs() < 1e-6);
            } else {
                assert!(z.norm() < 1e-6, "leak at bin {k}");
            }
        }
    }

    #[test]
    fn round_trip() {
        let n = 128;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let back = fft.inverse(&fft.forward(&x));
        assert_close(&x, &back, 1e-9);
    }

    #[test]
    fn in_place_is_bit_identical_to_out_of_place() {
        let n = 256;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.61).sin(), (i as f64 * 0.23).cos()))
            .collect();
        let spec = fft.forward(&x);
        let mut buf = x.clone();
        fft.forward_in_place(&mut buf);
        assert_eq!(buf, spec, "forward_in_place must be bit-identical");
        let back = fft.inverse(&spec);
        fft.inverse_in_place(&mut buf);
        assert_eq!(buf, back, "inverse_in_place must be bit-identical");
    }

    #[test]
    fn planner_caches_plans_per_size() {
        // The process-wide `fft_plans_built` counter is shared with every
        // concurrently running test, so reuse is checked on the planner.
        let mut planner = FftPlanner::new();
        let p1 = planner.plan(512);
        let p2 = planner.plan(512);
        assert!(Rc::ptr_eq(&p1, &p2), "same size must share one plan");
        assert_eq!(planner.plans.iter().flatten().count(), 1);
        let _p3 = planner.plan(1024);
        assert_eq!(planner.plans.iter().flatten().count(), 2);
    }

    #[test]
    fn cached_plan_reuses_thread_local_plan() {
        // Warm the cache, then verify repeat requests build nothing new.
        let a = cached_plan(2048);
        let b = cached_plan(2048);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 256;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let spec = fft.forward(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() / e_time < 1e-10);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let fft = Fft::new(n);
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, -(i as f64))).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft.forward(&a);
        let fb = fft.forward(&b);
        let fsum = fft.forward(&sum);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&fsum, &expect, 1e-8);
    }

    #[test]
    fn padded_transforms() {
        let (spec_c, n_c) = fft_padded(&[Complex::ONE; 5]);
        assert_eq!(n_c, 8);
        assert_eq!(spec_c.len(), 8);
    }

    #[test]
    fn bin_frequency_mapping() {
        let fs = 1000.0;
        assert_eq!(bin_frequency(0, 8, fs), 0.0);
        assert_eq!(bin_frequency(1, 8, fs), 125.0);
        assert_eq!(bin_frequency(4, 8, fs), 500.0); // Nyquist maps positive
        assert_eq!(bin_frequency(7, 8, fs), -125.0);
    }

    #[test]
    fn size_one_fft() {
        let fft = Fft::new(1);
        let x = [Complex::new(2.5, -1.0)];
        assert_eq!(fft.forward(&x), x.to_vec());
        assert_eq!(fft.inverse(&x), x.to_vec());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn planner_non_pow2_panics() {
        FftPlanner::new().plan(12);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        Fft::new(8).forward(&[Complex::ZERO; 4]);
    }
}
