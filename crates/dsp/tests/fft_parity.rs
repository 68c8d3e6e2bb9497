//! Parity tests for the zero-allocation FFT layer.
//!
//! Every `_into` / `_in_place` variant added by the kernel-layer rework must
//! reproduce its allocating counterpart *bit for bit* — they share the same
//! butterfly schedule, so even the rounding errors must line up.
//!
//! The proptest section drives `forward_into`/`inverse_into` round trips on
//! every power-of-two size up to 4096 with arbitrary signals.

use proptest::prelude::*;
use uwb_dsp::fft::{cached_plan, fft_convolve, fft_convolve_into, Fft};
use uwb_dsp::{Complex, DspScratch};

/// Deterministic pseudo-signal (no RNG dependency needed for the fixed tests).
fn signal(n: usize, phase: f64) -> Vec<Complex> {
    (0..n)
        .map(|k| {
            let t = k as f64 * 0.37 + phase;
            Complex::new((1.3 * t).sin() + 0.2 * (7.1 * t).cos(), (2.9 * t).cos())
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// `forward_into` must be bit-identical to the allocating `forward` on every
/// power-of-two size the repo uses (the in-place bit-reversal is an
/// involution, so the butterfly order is unchanged).
#[test]
fn forward_into_bitwise_matches_forward() {
    for shift in 0..=12 {
        let n = 1usize << shift;
        let fft = Fft::new(n);
        let x = signal(n, 0.123);
        let reference = fft.forward(&x);
        let mut out = vec![Complex::ZERO; n];
        fft.forward_into(&x, &mut out);
        assert_bits_eq(&reference, &out, &format!("forward n={n}"));
    }
}

/// Same for `inverse_into` vs `inverse`.
#[test]
fn inverse_into_bitwise_matches_inverse() {
    for shift in 0..=12 {
        let n = 1usize << shift;
        let fft = Fft::new(n);
        let x = signal(n, 4.56);
        let reference = fft.inverse(&x);
        let mut out = vec![Complex::ZERO; n];
        fft.inverse_into(&x, &mut out);
        assert_bits_eq(&reference, &out, &format!("inverse n={n}"));
    }
}

/// `forward_in_place` / `inverse_in_place` are the same butterflies again.
#[test]
fn in_place_bitwise_matches_out_of_place() {
    for &n in &[1usize, 2, 8, 64, 512, 4096] {
        let fft = Fft::new(n);
        let x = signal(n, 9.87);

        let mut buf = x.clone();
        fft.forward_in_place(&mut buf);
        assert_bits_eq(&fft.forward(&x), &buf, &format!("fwd in place n={n}"));

        let mut buf = x.clone();
        fft.inverse_in_place(&mut buf);
        assert_bits_eq(&fft.inverse(&x), &buf, &format!("inv in place n={n}"));
    }
}

/// The thread-local plan cache must hand back transforms identical to a
/// freshly built plan, and must not rebuild plans for sizes it has seen.
#[test]
fn cached_plan_matches_fresh_plan_and_is_reused() {
    let n = 256;
    let x = signal(n, 2.2);
    let plan = cached_plan(n);
    assert_bits_eq(
        &Fft::new(n).forward(&x),
        &plan.forward(&x),
        "cached vs fresh",
    );
    // Pointer identity, not the process-wide `fft_plans_built` counter,
    // which concurrently running tests also bump.
    for _ in 0..100 {
        let again = cached_plan(n);
        assert!(
            std::rc::Rc::ptr_eq(&plan, &again),
            "cached_plan must not rebuild a plan for a cached size"
        );
    }
}

/// Complex convolution: the scratch variant is the same transform chain.
#[test]
fn fft_convolve_into_bitwise_matches() {
    let a = signal(300, 0.5);
    let b = signal(77, 1.5);
    let reference = fft_convolve(&a, &b);
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    fft_convolve_into(&a, &b, &mut scratch, &mut out);
    assert_bits_eq(&reference, &out, "fft_convolve");
    // Steady state: a second call reuses the pooled buffers and still agrees.
    fft_convolve_into(&a, &b, &mut scratch, &mut out);
    assert_bits_eq(&reference, &out, "fft_convolve (warm)");
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), len..=len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `inverse_into(forward_into(x)) == x` on random power-of-two sizes up
    /// to 4096 with arbitrary signals — the buffered pair must round-trip
    /// exactly like the allocating pair always has.
    #[test]
    fn into_round_trip(shift in 0usize..=12, full in complex_vec(4096)) {
        let n = 1usize << shift;
        let x = &full[..n];
        let fft = Fft::new(n);
        let mut spec = vec![Complex::ZERO; n];
        let mut back = vec![Complex::ZERO; n];
        fft.forward_into(x, &mut spec);
        fft.inverse_into(&spec, &mut back);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).norm() < 1e-6 * (1.0 + a.norm()));
        }
    }

    /// Bitwise parity between `forward_into` and `forward` holds for
    /// arbitrary signals, not just the fixed probe above.
    #[test]
    fn into_parity_random_signals(x in complex_vec(1024)) {
        let fft = Fft::new(1024);
        let reference = fft.forward(&x);
        let mut out = vec![Complex::ZERO; 1024];
        fft.forward_into(&x, &mut out);
        for (a, b) in reference.iter().zip(&out) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
