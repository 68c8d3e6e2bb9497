//! Flat, lane-parallel kernel sweeps for the per-trial hot loops.
//!
//! The three stages that dominate a full-path Monte-Carlo trial — AWGN
//! synthesis, AGC + ADC quantization, and acquisition — all reduce to
//! straight-line passes over contiguous sample blocks. The loops here are
//! written so LLVM's autovectorizer can lift them onto whatever SIMD lanes
//! the target provides (the workspace builds with `target-cpu=native`):
//!
//! * **reductions** split their accumulation across `LANES` independent
//!   partial sums (a serial `fold` pins every add onto one dependency
//!   chain, which the vectorizer must preserve under strict IEEE
//!   semantics);
//! * **maps** are branch-free — clamping uses `min`/`max`, quadrant logic
//!   uses arithmetic selects — so the whole body lowers to vector ops.
//!
//! Every kernel is deterministic and machine-independent: the lane split is
//! a *fixed* reassociation chosen here, not a fast-math license, so results
//! are bit-identical on every CPU (only the speed changes). The lane-split
//! sums **are** a different rounding order than the serial `fold` the
//! workspace used before; callers that switched (AGC, the receiver front
//! end) re-pinned their downstream fingerprints once, as documented in
//! EXPERIMENTS.md.

use crate::complex::Complex;

/// Number of independent accumulator lanes used by the split reductions.
///
/// Eight f64 lanes fill one AVX-512 register (two AVX2 registers); the
/// value is part of the deterministic contract — changing it changes the
/// reassociation and therefore the low-order bits of every reduction.
const LANES: usize = 8;

/// Sum of `|z|²` over the block, accumulated in `LANES` independent
/// lanes (lane `i` takes elements `i, i+LANES, …`), then combined in
/// ascending lane order. Deterministic on every target.
#[inline]
fn sum_power(signal: &[Complex]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = signal.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (acc, z) in lanes.iter_mut().zip(chunk) {
            *acc += z.re * z.re + z.im * z.im;
        }
    }
    for (acc, z) in lanes.iter_mut().zip(chunks.remainder()) {
        *acc += z.re * z.re + z.im * z.im;
    }
    lanes.iter().sum()
}

/// Mean power `Σ|z|²/N` via `sum_power` (0 for an empty block).
#[inline]
pub fn mean_power(signal: &[Complex]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    sum_power(signal) / signal.len() as f64
}

/// [`mean_power`] fused with the bitwise OR of every imaginary part, in one
/// pass: the power is bit-identical to [`mean_power`]'s (the same lanes,
/// the same order), and the OR is 0 exactly when every imaginary part is
/// `+0.0`. Branch-free with no early exit, so it vectorizes.
pub fn mean_power_and_im_bits(signal: &[Complex]) -> (f64, u64) {
    let mut lanes = [0.0f64; LANES];
    let mut bits = [0u64; LANES];
    let mut chunks = signal.chunks_exact(LANES);
    for chunk in &mut chunks {
        for ((acc, b), z) in lanes.iter_mut().zip(&mut bits).zip(chunk) {
            *acc += z.re * z.re + z.im * z.im;
            *b |= z.im.to_bits();
        }
    }
    for ((acc, b), z) in lanes.iter_mut().zip(&mut bits).zip(chunks.remainder()) {
        *acc += z.re * z.re + z.im * z.im;
        *b |= z.im.to_bits();
    }
    let power = if signal.is_empty() {
        0.0
    } else {
        lanes.iter().sum::<f64>() / signal.len() as f64
    };
    (power, bits.iter().fold(0, |a, b| a | b))
}

/// Scales every sample by `gain` in place (`z * gain`, elementwise — the
/// same arithmetic as the scalar AGC loop, so this is bit-identical to it).
#[inline]
pub fn scale_in_place(signal: &mut [Complex], gain: f64) {
    for z in signal.iter_mut() {
        *z = *z * gain;
    }
}

/// Branch-free fused AGC + mid-rise quantizer sweep.
///
/// For each input sample, both rails are scaled by `gain`, quantized to the
/// code `k = clamp(floor(x·gain / step), lo, hi)` and reconstructed at the
/// code centre `(k + 0.5)·step` — the arithmetic of
/// `Quantizer::quantize(z * gain)`, whose division by `step` becomes a
/// multiplication only where that is exact (see
/// [`quantize_scaled_append`]), so the output is **bit-identical** to the
/// scalar per-sample path; the parity is locked down in `uwb-adc`'s
/// tests. The clamp lowers to `max`/`min` and the loop body is
/// straight-line, so the whole sweep autovectorizes.
pub fn quantize_scaled_into(
    input: &[Complex],
    gain: f64,
    step: f64,
    lo: f64,
    hi: f64,
    out: &mut Vec<Complex>,
) {
    out.clear();
    quantize_scaled_append(input, gain, step, lo, hi, out);
}

/// [`quantize_scaled_into`] that *appends* to `out` instead of replacing
/// it, so a caller can digitize into a buffer it already owns. Sample
/// arithmetic is identical.
///
/// When `step` is a power of two whose reciprocal is representable (every
/// `Quantizer::new(bits, 1.0)`, whose step is `2^(1−bits)`), the sweep
/// multiplies by `1/step` instead of dividing. The reciprocal is then
/// exact, so `y·(1/step)` and `y/step` are the correctly rounded values of
/// the same real number `y·2^-e` and agree bit for bit, subnormal and
/// overflowing results included. Any other step keeps the division.
pub fn quantize_scaled_append(
    input: &[Complex],
    gain: f64,
    step: f64,
    lo: f64,
    hi: f64,
    out: &mut Vec<Complex>,
) {
    out.reserve(input.len());
    if let Some(recip) = exact_reciprocal(step) {
        out.extend(input.iter().map(|&z| {
            let kr = (z.re * gain * recip).floor().max(lo).min(hi);
            let ki = (z.im * gain * recip).floor().max(lo).min(hi);
            Complex::new((kr + 0.5) * step, (ki + 0.5) * step)
        }));
    } else {
        out.extend(input.iter().map(|&z| {
            let kr = (z.re * gain / step).floor().max(lo).min(hi);
            let ki = (z.im * gain / step).floor().max(lo).min(hi);
            Complex::new((kr + 0.5) * step, (ki + 0.5) * step)
        }));
    }
}

/// `1/step` when `step` is a positive power of two (normal or subnormal)
/// and `1/step` is itself finite, so that multiplying by it rounds exactly
/// like dividing by `step`; `None` otherwise.
fn exact_reciprocal(step: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = step.to_bits();
    let pow2 = step > 0.0
        && if step.is_normal() {
            bits & MANTISSA == 0
        } else {
            bits.is_power_of_two()
        };
    let recip = 1.0 / step;
    (pow2 && recip.is_finite()).then_some(recip)
}

/// Correlation of `signal` against a purely real template (the channel
/// estimator's inner product): returns `Σ s[j]·t[j].re` for the I and Q
/// rails. Only the template's real parts are read — the caller guarantees
/// every `im` is zero (the pulse-shaped preamble template always is), which
/// is what makes the 2-MAC sweep equal to the full `s·conj(t)`.
///
/// Accumulates in `LANES` independent lanes combined in ascending order —
/// fixed reassociation, deterministic everywhere. The caller guarantees
/// `signal.len() >= template.len()`; extra signal samples are ignored.
#[inline]
pub fn dot_real_template(signal: &[Complex], template: &[Complex]) -> Complex {
    let n = template.len().min(signal.len());
    let (signal, template) = (&signal[..n], &template[..n]);
    let mut re = [0.0f64; LANES];
    let mut im = [0.0f64; LANES];
    let mut s_chunks = signal.chunks_exact(LANES);
    let mut t_chunks = template.chunks_exact(LANES);
    for (sc, tc) in (&mut s_chunks).zip(&mut t_chunks) {
        for i in 0..LANES {
            re[i] += sc[i].re * tc[i].re;
            im[i] += sc[i].im * tc[i].re;
        }
    }
    for (s, t) in s_chunks.remainder().iter().zip(t_chunks.remainder()) {
        re[0] += s.re * t.re;
        im[0] += s.im * t.re;
    }
    Complex::new(re.iter().sum(), im.iter().sum())
}

/// Natural logarithm over a block, `out[i] = ln(x[i])`, for strictly
/// positive finite inputs — the batched Box–Muller radius pass.
///
/// The scalar `f64::ln` is a libm call the vectorizer cannot touch; this
/// kernel is a branch-free polynomial the compiler can keep in vector
/// registers. Reduction: `x = 2^e · m` with `m ∈ [√½, √2)`, then
/// `ln m = 2·atanh(z)` with `z = (m−1)/(m+1)`, `|z| ≤ 0.1716`, via an
/// 11-term odd series; `ln x = ln m + e·ln2` with a hi/lo split of `ln 2`.
/// Accuracy ≈ 1 ulp over the Box–Muller input range `(0, 1]` — bit-exact
/// agreement with libm is *not* claimed (the batched generator is a
/// documented different stream; see `uwb_sim::rng`).
///
/// # Panics
///
/// Debug builds assert `x > 0` and finite; release builds produce garbage
/// (not UB) for non-positive input.
pub fn ln_block(x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "ln_block length mismatch");
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    for (o, &v) in out.iter_mut().zip(x) {
        debug_assert!(v > 0.0 && v.is_finite(), "ln_block needs x > 0, got {v}");
        let bits = v.to_bits();
        // Shift the exponent window so the mantissa lands in [√½, √2):
        // adding 0x0018_... moves the split point from 1.0 down to ≈0.7071.
        let adj = bits.wrapping_add(0x0009_5F62_9999_9999);
        let e = (adj >> 52) as i64 - 1023;
        let m = f64::from_bits(bits.wrapping_sub((e as u64) << 52));
        let z = (m - 1.0) / (m + 1.0);
        let w = z * z;
        // atanh(z)/z = 1 + w/3 + w²/5 + …  (|z| ≤ 0.1716 ⇒ w ≤ 0.0295;
        // the w¹¹ term is below 2⁻⁶⁰ relative).
        let p = 1.0 / 21.0;
        let p = p * w + 1.0 / 19.0;
        let p = p * w + 1.0 / 17.0;
        let p = p * w + 1.0 / 15.0;
        let p = p * w + 1.0 / 13.0;
        let p = p * w + 1.0 / 11.0;
        let p = p * w + 1.0 / 9.0;
        let p = p * w + 1.0 / 7.0;
        let p = p * w + 1.0 / 5.0;
        let p = p * w + 1.0 / 3.0;
        let p = p * w + 1.0;
        let e = e as f64;
        *o = e * LN2_LO + (2.0 * z) * p + e * LN2_HI;
    }
}

/// Sine and cosine of `τ·u` over a block for `u ∈ [0, 1)` — the batched
/// Box–Muller angle pass (`u` in *turns*, which makes quadrant reduction
/// exact: no π-rounding error).
///
/// Quadrant `q = ⌊4u + ½⌋` is selected arithmetically (the selects lower
/// to vector blends), the residual `r = u − q/4 ∈ [−⅛, ⅛]` feeds Taylor
/// polynomials for `sin/cos(τr)` with `|τr| ≤ π/4` (error < 2⁻⁵⁰), and the
/// quadrant maps `(s, c)` onto the output pair. Accuracy ≈ 1–2 ulp —
/// again, libm agreement is not claimed.
pub fn sincos_tau_block(u: &[f64], sin_out: &mut [f64], cos_out: &mut [f64]) {
    assert_eq!(u.len(), sin_out.len(), "sincos_tau_block length mismatch");
    assert_eq!(u.len(), cos_out.len(), "sincos_tau_block length mismatch");
    use std::f64::consts::TAU;
    for ((s_o, c_o), &x) in sin_out.iter_mut().zip(cos_out.iter_mut()).zip(u) {
        debug_assert!((0.0..1.0).contains(&x), "sincos_tau_block needs u in [0,1)");
        let q = (4.0 * x + 0.5).floor(); // 0..=4; q=4 folds onto quadrant 0
        let r = TAU * (x - 0.25 * q); // |r| ≤ π/4, exact reduction
        let w = r * r;
        // sin(r)/r: Taylor through r¹⁴ (|r| ≤ π/4 ⇒ next term < 2⁻⁵⁷).
        let ps = -1.0 / 1_307_674_368_000.0; // −1/15!
        let ps = ps * w + 1.0 / 6_227_020_800.0; // 1/13!
        let ps = ps * w - 1.0 / 39_916_800.0; // −1/11!
        let ps = ps * w + 1.0 / 362_880.0; // 1/9!
        let ps = ps * w - 1.0 / 5_040.0; // −1/7!
        let ps = ps * w + 1.0 / 120.0; // 1/5!
        let ps = ps * w - 1.0 / 6.0; // −1/3!
        let ps = ps * w + 1.0;
        let s = ps * r;
        // cos(r): Taylor through r¹⁶.
        let pc = 1.0 / 20_922_789_888_000.0; // 1/16!
        let pc = pc * w - 1.0 / 87_178_291_200.0; // −1/14!
        let pc = pc * w + 1.0 / 479_001_600.0; // 1/12!
        let pc = pc * w - 1.0 / 3_628_800.0; // −1/10!
        let pc = pc * w + 1.0 / 40_320.0; // 1/8!
        let pc = pc * w - 1.0 / 720.0; // −1/6!
        let pc = pc * w + 1.0 / 24.0; // 1/4!
        let pc = pc * w - 0.5;
        let c = pc * w + 1.0;
        // Quadrant map: fold q=4 → 0, then
        //   q=0: ( s,  c)   q=1: ( c, −s)   q=2: (−s, −c)   q=3: (−c,  s)
        let q = if q >= 4.0 { 0.0 } else { q };
        let swap = q == 1.0 || q == 3.0; // odd quadrant: sin/cos exchange
        let s_base = if swap { c } else { s };
        let c_base = if swap { s } else { c };
        let s_neg = q >= 2.0; // quadrants 2, 3 negate sin
        let c_neg = q == 1.0 || q == 2.0; // quadrants 1, 2 negate cos
        *s_o = if s_neg { -s_base } else { s_base };
        *c_o = if c_neg { -c_base } else { c_base };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_im_bits_keep_mean_power_bit_identical() {
        let xs: Vec<Complex> = (0..1003)
            .map(|i| Complex::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
            .collect();
        let real: Vec<Complex> = xs.iter().map(|z| Complex::new(z.re, 0.0)).collect();
        let negative_zero: Vec<Complex> = xs.iter().map(|z| Complex::new(z.re, -0.0)).collect();
        for (signal, complex) in [(&xs, true), (&real, false), (&negative_zero, true)] {
            // Every remainder length, the empty block, and the long block.
            for n in (0..=2 * LANES + 1).chain([signal.len()]) {
                let block = &signal[..n];
                let (power, bits) = mean_power_and_im_bits(block);
                assert_eq!(power.to_bits(), mean_power(block).to_bits(), "n = {n}");
                assert_eq!(bits != 0, complex && n > 0, "n = {n}");
            }
        }
    }

    #[test]
    fn sum_power_matches_serial_closely() {
        let xs: Vec<Complex> = (0..1003)
            .map(|i| Complex::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
            .collect();
        let serial: f64 = xs.iter().map(|z| z.norm_sqr()).sum();
        let split = sum_power(&xs);
        assert!((split - serial).abs() <= 1e-12 * serial.max(1.0));
        assert_eq!(sum_power(&[]), 0.0);
        assert_eq!(mean_power(&[]), 0.0);
        // Short block (remainder-only path).
        let short = &xs[..5];
        let serial_short: f64 = short.iter().map(|z| z.norm_sqr()).sum();
        assert!((sum_power(short) - serial_short).abs() < 1e-15);
    }

    #[test]
    fn sum_power_is_deterministic() {
        let xs: Vec<Complex> = (0..777)
            .map(|i| Complex::new(1.0 / (i + 1) as f64, -(i as f64)))
            .collect();
        assert_eq!(sum_power(&xs).to_bits(), sum_power(&xs).to_bits());
    }

    #[test]
    fn quantize_scaled_matches_scalar_bitwise() {
        // Mirror Quantizer::new(5, 1.0): step = 2/32, codes -16..=15.
        let step = 2.0 / 32.0;
        let (lo, hi) = (-16.0, 15.0);
        let gain = 1.7378;
        let scalar_q = |x: f64| {
            let k = (x / step).floor().clamp(lo, hi);
            (k + 0.5) * step
        };
        let input: Vec<Complex> = (0..501)
            .map(|i| Complex::new((0.11 * i as f64).sin() * 2.0, (0.07 * i as f64).cos() * 0.3))
            .collect();
        let mut out = Vec::new();
        quantize_scaled_into(&input, gain, step, lo, hi, &mut out);
        for (z, o) in input.iter().zip(&out) {
            let want = Complex::new(scalar_q(z.re * gain), scalar_q(z.im * gain));
            assert_eq!(*o, want);
        }
    }

    #[test]
    fn exact_reciprocal_only_for_representable_powers_of_two() {
        let min_sub = f64::from_bits(1); // 2^-1074: its reciprocal overflows
        let half_min = f64::from_bits(1 << 51); // 2^-1023, subnormal
        for step in [1.0, 0.5, 2.0, 0.0625, 2f64.powi(-23)] {
            assert_eq!(exact_reciprocal(step), Some(1.0 / step), "{step:e}");
        }
        for step in [f64::MIN_POSITIVE, half_min] {
            let recip = exact_reciprocal(step).unwrap_or_else(|| panic!("{step:e}"));
            assert_eq!(recip * step, 1.0, "{step:e}");
        }
        assert_eq!(exact_reciprocal(2f64.powi(1023)), Some(2f64.powi(-1023)));
        for step in [0.0, -0.0, -0.5, 3.0, 0.1, min_sub, f64::INFINITY, f64::NAN] {
            assert_eq!(exact_reciprocal(step), None, "{step:e}");
        }
    }

    #[test]
    fn non_power_of_two_step_keeps_the_division() {
        // A 5-bit quantizer at full scale 0.9. Multiplying by the rounded
        // reciprocal of its step floors differently from dividing on some
        // code boundaries and their neighbours; the kernel must divide.
        let step = 2.0 * 0.9 / 32.0;
        let (lo, hi) = (-1e9, 1e9);
        let recip = 1.0 / step;
        let witnesses: Vec<Complex> = (-4000..4000)
            .flat_map(|k| {
                let y = k as f64 * step;
                [y, y.next_up(), y.next_down()]
            })
            .filter(|&y| (y * recip).floor() != (y / step).floor())
            .map(|y| Complex::new(y, -y))
            .collect();
        assert!(!witnesses.is_empty());
        let mut out = Vec::new();
        quantize_scaled_into(&witnesses, 1.0, step, lo, hi, &mut out);
        for (z, o) in witnesses.iter().zip(&out) {
            let want = |y: f64| ((y / step).floor().max(lo).min(hi) + 0.5) * step;
            assert_eq!(o.re.to_bits(), want(z.re).to_bits(), "{z:?}");
            assert_eq!(o.im.to_bits(), want(z.im).to_bits(), "{z:?}");
        }
    }

    #[test]
    fn dot_real_template_matches_serial_closely() {
        let sig: Vec<Complex> = (0..643)
            .map(|i| Complex::new((0.13 * i as f64).sin(), (0.29 * i as f64).cos()))
            .collect();
        let tpl: Vec<Complex> = (0..640)
            .map(|i| Complex::new(if i % 3 == 0 { 1.0 } else { -0.5 }, 0.0))
            .collect();
        let got = dot_real_template(&sig, &tpl);
        let mut want = Complex::ZERO;
        for (s, t) in sig.iter().zip(&tpl) {
            want.re += s.re * t.re;
            want.im += s.im * t.re;
        }
        assert!((got - want).norm() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn ln_block_accuracy() {
        let xs: Vec<f64> = (1..20_000u64)
            .map(|k| k as f64 / 20_000.0)
            .chain([f64::MIN_POSITIVE, 1e-300, 0.5, 1.0, 2.0_f64.powi(-53)])
            .collect();
        let mut out = vec![0.0; xs.len()];
        ln_block(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = x.ln();
            let tol = 4.0 * f64::EPSILON * want.abs().max(1.0);
            assert!((got - want).abs() <= tol, "ln({x}): {got} vs {want}");
        }
    }

    #[test]
    fn sincos_accuracy() {
        let us: Vec<f64> = (0..40_000u64).map(|k| k as f64 / 40_000.0).collect();
        let mut s = vec![0.0; us.len()];
        let mut c = vec![0.0; us.len()];
        sincos_tau_block(&us, &mut s, &mut c);
        for ((&u, &sg), &cg) in us.iter().zip(&s).zip(&c) {
            let a = std::f64::consts::TAU * u;
            assert!((sg - a.sin()).abs() < 1e-15, "sin(τ·{u}): {sg} vs {}", a.sin());
            assert!((cg - a.cos()).abs() < 1e-15, "cos(τ·{u}): {cg} vs {}", a.cos());
            // The pair stays on the unit circle to high accuracy.
            assert!((sg * sg + cg * cg - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn scale_in_place_matches_scalar() {
        let mut a: Vec<Complex> = (0..33).map(|i| Complex::new(i as f64, -2.0)).collect();
        let want: Vec<Complex> = a.iter().map(|&z| z * 1.25).collect();
        scale_in_place(&mut a, 1.25);
        assert_eq!(a, want);
    }
}
