//! Property-based tests for the DSP substrate invariants.

use proptest::prelude::*;
use uwb_dsp::complex::to_complex;
use uwb_dsp::correlation::normalized_correlation;
use uwb_dsp::fft::Fft;
use uwb_dsp::math::next_pow2;
use uwb_dsp::{Complex, FirFilter, Window};

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), len..=len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for arbitrary signals.
    #[test]
    fn fft_round_trip(x in complex_vec(64)) {
        let fft = Fft::new(64);
        let back = fft.inverse(&fft.forward(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).norm() < 1e-6 * (1.0 + a.norm()));
        }
    }

    /// Parseval: time-domain and frequency-domain energies agree.
    #[test]
    fn fft_parseval(x in complex_vec(128)) {
        let fft = Fft::new(128);
        let spec = fft.forward(&x);
        let et: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((et - ef).abs() <= 1e-6 * (1.0 + et));
    }

    /// FFT of a shifted impulse has unit magnitude in every bin.
    #[test]
    fn impulse_flat_spectrum(shift in 0usize..32) {
        let mut x = vec![Complex::ZERO; 32];
        x[shift] = Complex::ONE;
        let spec = Fft::new(32).forward(&x);
        for z in spec {
            prop_assert!((z.norm() - 1.0).abs() < 1e-9);
        }
    }

    /// Normalized correlation is bounded by 1 (Cauchy–Schwarz).
    #[test]
    fn normalized_correlation_bounded(
        sig in complex_vec(80),
        tpl in complex_vec(9),
    ) {
        for v in normalized_correlation(&sig, &tpl) {
            prop_assert!(v <= 1.0 + 1e-9);
            prop_assert!(v >= 0.0);
        }
    }

    /// FIR filtering is linear: filter(a*x + y) == a*filter(x) + filter(y).
    #[test]
    fn fir_linearity(
        x in prop::collection::vec(-10.0f64..10.0, 50..=50),
        y in prop::collection::vec(-10.0f64..10.0, 50..=50),
        a in -5.0f64..5.0,
    ) {
        let fir = FirFilter::lowpass(15, 0.2, Window::Hamming);
        let lhs_input: Vec<f64> = x.iter().zip(&y).map(|(&p, &q)| a * p + q).collect();
        let lhs = fir.filter_real(&lhs_input);
        let fx = fir.filter_real(&x);
        let fy = fir.filter_real(&y);
        for i in 0..50 {
            let rhs = a * fx[i] + fy[i];
            prop_assert!((lhs[i] - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        }
    }

    /// FIR filtering is time-invariant: delaying input delays output.
    #[test]
    fn fir_time_invariance(
        x in prop::collection::vec(-10.0f64..10.0, 30..=30),
        d in 1usize..8,
    ) {
        let fir = FirFilter::lowpass(9, 0.3, Window::Hann);
        let y = fir.filter_real(&x);
        let mut delayed = vec![0.0; d];
        delayed.extend_from_slice(&x);
        let yd = fir.filter_real(&delayed);
        for i in 0..x.len() {
            prop_assert!((y[i] - yd[i + d]).abs() < 1e-12);
        }
    }

    /// next_pow2 returns the smallest power of two >= n.
    #[test]
    fn next_pow2_minimal(n in 1usize..100_000) {
        let p = next_pow2(n);
        prop_assert!(p.is_power_of_two());
        prop_assert!(p >= n);
        prop_assert!(p / 2 < n);
    }

    /// Window coefficients stay within [0, 1] and are symmetric.
    #[test]
    fn window_bounds(n in 2usize..200, beta in 0.0f64..12.0) {
        for win in [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(beta)] {
            let w = win.generate(n);
            for k in 0..n {
                prop_assert!(w[k] >= -1e-9 && w[k] <= 1.0 + 1e-9);
                prop_assert!((w[k] - w[n - 1 - k]).abs() < 1e-9);
            }
        }
    }

    /// Complex division inverts multiplication.
    #[test]
    fn complex_field_axioms(
        re1 in -100.0f64..100.0, im1 in -100.0f64..100.0,
        re2 in 0.1f64..100.0, im2 in 0.1f64..100.0,
    ) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        let c = a * b / b;
        prop_assert!((c - a).norm() < 1e-9 * (1.0 + a.norm()));
        // |ab| = |a||b|
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs()
            < 1e-9 * (1.0 + a.norm() * b.norm()));
    }

    /// to_complex/to_real round trip.
    #[test]
    fn real_complex_round_trip(x in prop::collection::vec(-1e6f64..1e6, 0..50)) {
        let c = to_complex(&x);
        let back = uwb_dsp::complex::to_real(&c);
        prop_assert_eq!(x, back);
    }
}
