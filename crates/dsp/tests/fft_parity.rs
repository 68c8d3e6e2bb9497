//! Parity tests for the zero-allocation FFT layer.
//!
//! The `_in_place` transforms and the thread-local plan cache must
//! reproduce the allocating transforms of a fresh plan *bit for bit* — they
//! share the same butterfly schedule, so even the rounding errors must line
//! up. `properties.rs` checks the round trip.

use uwb_dsp::fft::{cached_plan, Fft};
use uwb_dsp::Complex;

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
