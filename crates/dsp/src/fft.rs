//! Radix-2 decimation-in-time FFT.
//!
//! A dependency-free iterative Cooley–Tukey implementation with precomputed
//! twiddle factors, plus helpers for real-input transforms and zero-padded
//! transforms of arbitrary length.
//!
//! The forward transform computes `X[k] = Σ x[n] e^{-i 2π nk/N}`; the inverse
//! applies the conjugate kernel and divides by `N`, so
//! `ifft(fft(x)) == x`.
//!
//! # Allocation-free steady state
//!
//! Three layers keep the per-trial DSP path allocation-free:
//!
//! * **In-place / into-buffer transforms** — [`Fft::process_in_place`],
//!   [`Fft::forward_in_place`], [`Fft::inverse_in_place`],
//!   [`Fft::forward_into`], [`Fft::inverse_into`] operate on caller-provided
//!   buffers. The in-place bit-reversal permutation is an involution, so the
//!   outputs are **bit-identical** to the allocating [`Fft::forward`] /
//!   [`Fft::inverse`].
//! * **A thread-local plan cache** — [`cached_plan`] returns this thread's
//!   memoized [`Fft`] for a given size, so twiddle and bit-reversal tables are
//!   computed once per (worker thread, size) instead of per call.
//!   [`fft_plans_built`] exposes a process-wide construction counter that
//!   tests use to assert the cache is effective.
//! * **Packed real transforms** — [`fft_convolve_real`] packs both real
//!   inputs into one complex signal (`z = a + i·b`), so a real×real linear
//!   convolution costs two transforms instead of three. The unpacking
//!   reorders float operations, so results match the complex reference to
//!   ≤ 1e-12 relative error rather than bitwise (tolerance documented and
//!   parity-tested in `tests/fft_parity.rs`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::complex::Complex;
use crate::math::next_pow2;
use crate::scratch::DspScratch;

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
        assert!(n > 0 && n.is_power_of_two(), "FFT size must be a power of two");
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

    /// Gather-permute `input` into `out`, then run the butterflies there.
    fn transform_into(&self, input: &[Complex], out: &mut [Complex], invert: bool) {
        assert_eq!(input.len(), self.n, "input length must equal FFT size");
        assert_eq!(out.len(), self.n, "output length must equal FFT size");
        for (i, o) in out.iter_mut().enumerate() {
            *o = input[self.rev[i]];
        }
        self.butterflies(out, invert);
    }

    /// Forward DFT of `input` written into the caller-provided `out`.
    /// Bit-identical to [`Fft::forward`], allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()` or `out.len() != self.len()`.
    pub fn forward_into(&self, input: &[Complex], out: &mut [Complex]) {
        self.transform_into(input, out, false);
    }

    /// Inverse DFT of `input` (with `1/N` normalization) written into the
    /// caller-provided `out`. Bit-identical to [`Fft::inverse`],
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()` or `out.len() != self.len()`.
    pub fn inverse_into(&self, input: &[Complex], out: &mut [Complex]) {
        self.transform_into(input, out, true);
    }

    /// Forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.n];
        self.transform_into(input, &mut out, false);
        out
    }

    /// Inverse DFT (includes the `1/N` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn inverse(&self, input: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.n];
        self.transform_into(input, &mut out, true);
        out
    }
}

/// Per-thread memoized FFT plans keyed by transform size.
///
/// Plans are stored by `log2(n)` and shared out as [`Rc`] clones, so a
/// worker thread builds each size's twiddle/bit-reversal tables exactly once
/// no matter how many kernels request it. Most callers should use the
/// thread-local front end [`cached_plan`] instead of owning a planner.
#[derive(Debug, Default)]
pub struct FftPlanner {
    /// `plans[log2(n)]` holds the plan for size `n`.
    plans: Vec<Option<Rc<Fft>>>,
}

impl FftPlanner {
    /// An empty planner; plans are built lazily on first request.
    pub fn new() -> Self {
        FftPlanner::default()
    }

    /// Returns the plan for size `n`, building and caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn plan(&mut self, n: usize) -> Rc<Fft> {
        assert!(n > 0 && n.is_power_of_two(), "FFT size must be a power of two");
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

/// Linear convolution of two complex signals via zero-padded FFT.
///
/// Output length is `a.len() + b.len() - 1` (empty if either input is empty).
/// Uses the thread-local plan cache; see [`fft_convolve_into`] for the
/// allocation-free form.
pub fn fft_convolve(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let fft = cached_plan(n);
    let mut pa = a.to_vec();
    pa.resize(n, Complex::ZERO);
    let mut pb = b.to_vec();
    pb.resize(n, Complex::ZERO);
    fft.forward_in_place(&mut pa);
    fft.forward_in_place(&mut pb);
    for (x, y) in pa.iter_mut().zip(&pb) {
        *x *= *y;
    }
    fft.inverse_in_place(&mut pa);
    pa.truncate(out_len);
    pa
}

/// [`fft_convolve`] computing into caller-owned storage.
///
/// `out` is cleared and filled with the `a.len() + b.len() - 1` convolution
/// samples; one intermediate buffer comes from `scratch`. After warm-up
/// (capacities at their high-water marks) the call performs **zero heap
/// allocation**. Values are bit-identical to [`fft_convolve`].
pub fn fft_convolve_into(
    a: &[Complex],
    b: &[Complex],
    scratch: &mut DspScratch,
    out: &mut Vec<Complex>,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let fft = cached_plan(n);
    out.extend_from_slice(a);
    out.resize(n, Complex::ZERO);
    let mut pb = scratch.take_complex(n);
    pb[..b.len()].copy_from_slice(b);
    fft.forward_in_place(out);
    fft.forward_in_place(&mut pb);
    for (x, y) in out.iter_mut().zip(&pb) {
        *x *= *y;
    }
    fft.inverse_in_place(out);
    out.truncate(out_len);
    scratch.put_complex(pb);
}

/// Linear convolution of two real signals via one **packed** complex FFT.
///
/// Both inputs ride a single transform (`z = a + i·b`): the spectra are
/// unpacked with the Hermitian-symmetry identities
/// `A[k] = (Z[k] + conj(Z[n-k]))/2`, `B[k] = -i/2 · (Z[k] - conj(Z[n-k]))`,
/// multiplied, and inverse-transformed once — two FFTs instead of the three a
/// complex-path convolution needs. The reordering of float operations means
/// results match the complex reference to **≤ 1e-12** relative error (not
/// bitwise); the parity is locked down in `tests/fft_parity.rs`.
pub fn fft_convolve_real(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    fft_convolve_real_into(a, b, &mut scratch, &mut out);
    out
}

/// [`fft_convolve_real`] computing into caller-owned storage.
///
/// `out` is cleared and filled with the `a.len() + b.len() - 1` samples; the
/// packed complex work buffer comes from `scratch`, so the steady state is
/// allocation-free.
pub fn fft_convolve_real_into(
    a: &[f64],
    b: &[f64],
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let fft = cached_plan(n);
    let mut z = scratch.take_complex(n);
    for (zi, &x) in z.iter_mut().zip(a) {
        zi.re = x;
    }
    for (zi, &x) in z.iter_mut().zip(b) {
        zi.im = x;
    }
    fft.forward_in_place(&mut z);
    // Unpack A[k], B[k] from Z[k] and Z[n-k], multiply, and write the product
    // spectrum back in place. The product of two real-signal spectra is
    // Hermitian, so P[n-k] = conj(P[k]) and one half-spectrum pass suffices.
    let half = n / 2;
    for k in 0..=half {
        let zk = z[k];
        let zmk = z[if k == 0 { 0 } else { n - k }].conj();
        let ak = (zk + zmk).scale(0.5);
        let bk = (zk - zmk) * Complex::new(0.0, -0.5);
        let p = ak * bk;
        z[k] = p;
        if k != 0 && k != n - k {
            z[n - k] = p.conj();
        }
    }
    fft.inverse_in_place(&mut z);
    out.extend(z[..out_len].iter().map(|c| c.re));
    scratch.put_complex(z);
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
    fn into_buffer_is_bit_identical() {
        let n = 64;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64 * 0.1 - 3.0, (i as f64 * 0.7).cos()))
            .collect();
        let mut out = vec![Complex::ZERO; n];
        fft.forward_into(&x, &mut out);
        assert_eq!(out, fft.forward(&x));
        let mut back = vec![Complex::ZERO; n];
        fft.inverse_into(&out, &mut back);
        assert_eq!(back, fft.inverse(&out));
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
    fn convolution_matches_direct() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, -1.0];
        let got = fft_convolve_real(&a, &b);
        let want = [0.5, 0.0, -0.5, -3.0];
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn packed_real_convolution_matches_complex_path() {
        // The packed path reorders float ops; parity must hold to 1e-12.
        let a: Vec<f64> = (0..200).map(|i| (0.13 * i as f64).sin() * 2.0).collect();
        let b: Vec<f64> = (0..37).map(|i| (0.41 * i as f64).cos() - 0.2).collect();
        let packed = fft_convolve_real(&a, &b);
        let ca: Vec<Complex> = a.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let cb: Vec<Complex> = b.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let reference = fft_convolve(&ca, &cb);
        assert_eq!(packed.len(), reference.len());
        let scale: f64 = a.iter().map(|x| x.abs()).sum::<f64>()
            * b.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for (p, r) in packed.iter().zip(&reference) {
            assert!((p - r.re).abs() <= 1e-12 * scale.max(1.0), "{p} vs {}", r.re);
        }
    }

    #[test]
    fn convolve_into_is_bit_identical_and_reuses_storage() {
        let a: Vec<Complex> = (0..120).map(|i| Complex::cis(0.3 * i as f64)).collect();
        let b: Vec<Complex> = (0..30).map(|i| Complex::new(0.1 * i as f64, -0.5)).collect();
        let want = fft_convolve(&a, &b);
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        fft_convolve_into(&a, &b, &mut scratch, &mut out);
        assert_eq!(out, want);
        // Second call must reuse both the output and scratch storage.
        let cap = out.capacity();
        fft_convolve_into(&a, &b, &mut scratch, &mut out);
        assert_eq!(out, want);
        assert_eq!(out.capacity(), cap);
        assert_eq!(scratch.pooled(), 1);
    }

    #[test]
    fn empty_convolution() {
        assert!(fft_convolve(&[], &[Complex::ONE]).is_empty());
        assert!(fft_convolve_real(&[], &[1.0]).is_empty());
        let mut scratch = DspScratch::new();
        let mut out = vec![Complex::ONE];
        fft_convolve_into(&[], &[Complex::ONE], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn size_one_fft() {
        let fft = Fft::new(1);
        let x = [Complex::new(2.5, -1.0)];
        assert_eq!(fft.forward(&x), x.to_vec());
        assert_eq!(fft.inverse(&x), x.to_vec());
        // Single-sample convolution exercises the n = 1 plan.
        let y = fft_convolve(&[Complex::new(3.0, 0.0)], &[Complex::new(0.0, 2.0)]);
        assert_eq!(y.len(), 1);
        assert!((y[0] - Complex::new(0.0, 6.0)).norm() < 1e-12);
        // And the packed real path at n = 1.
        let r = fft_convolve_real(&[3.0], &[-2.0]);
        assert_eq!(r.len(), 1);
        assert!((r[0] + 6.0).abs() < 1e-12);
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

    #[test]
    #[should_panic(expected = "output length")]
    fn wrong_output_length_panics() {
        let mut out = vec![Complex::ZERO; 4];
        Fft::new(8).forward_into(&[Complex::ZERO; 8], &mut out);
    }
}
