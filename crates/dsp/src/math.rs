//! Numeric utilities shared across the workspace: dB conversions, special
//! functions (erfc, Q-function, modified Bessel I0), and small statistics
//! helpers.

/// Converts decibels to a power ratio: `10^(db/10)`.
#[inline]
pub fn db_to_pow(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts an amplitude ratio to decibels: `20 * log10(ratio)`.
#[inline]
pub fn amp_to_db(ratio: f64) -> f64 {
    20.0 * ratio.log10()
}

/// Converts decibels to an amplitude ratio: `10^(db/20)`.
#[inline]
pub fn db_to_amp(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Complementary error function, via the rational approximation of
/// Abramowitz & Stegun 7.1.26 refined with the standard `erfcx`-style
/// continued form. Maximum absolute error below `1.2e-7`, which is far below
/// the Monte-Carlo noise floor of any BER estimate in this workspace.
fn erfc(x: f64) -> f64 {
    // Numerical Recipes "erfcc": fractional error everywhere < 1.2e-7.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian Q-function: tail probability of a standard normal,
/// `Q(x) = P(N(0,1) > x)`.
///
/// The theoretical BER of coherent BPSK in AWGN is `Q(sqrt(2 Eb/N0))`.
///
/// ```
/// use uwb_dsp::math::q_function;
/// assert!((q_function(0.0) - 0.5).abs() < 1e-7);
/// ```
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Modified Bessel function of the first kind, order zero, `I0(x)`.
///
/// Polynomial approximations from Abramowitz & Stegun 9.8.1/9.8.2; used by
/// the Kaiser window. Accurate to better than `2e-7` relative error.
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let t = (x / 3.75) * (x / 3.75);
        1.0 + t
            * (3.5156229
                + t * (3.0899424
                    + t * (1.2067492 + t * (0.2659732 + t * (0.0360768 + t * 0.0045813)))))
    } else {
        let t = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.39894228
                + t * (0.01328592
                    + t * (0.00225319
                        + t * (-0.00157565
                            + t * (0.00916281
                                + t * (-0.02057706
                                    + t * (0.02635537 + t * (-0.01647633 + t * 0.00392377))))))))
    }
}

/// Normalized sinc: `sin(πx) / (πx)`, with `sinc(0) = 1`.
///
/// ```
/// use uwb_dsp::math::sinc;
/// assert_eq!(sinc(0.0), 1.0);
/// assert!(sinc(1.0).abs() < 1e-12);
/// ```
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance of a slice. Returns `0.0` for slices shorter than 2.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Root-mean-square value of a slice.
pub fn rms(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    (data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt()
}

/// Maximum absolute value in a slice. Returns `0.0` for an empty slice.
pub fn max_abs(data: &[f64]) -> f64 {
    data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Index of the maximum element (ties resolve to the first occurrence).
/// Returns `None` for an empty slice.
pub fn argmax(data: &[f64]) -> Option<usize> {
    if data.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (i, &x) in data.iter().enumerate() {
        if x > data[best] {
            best = i;
        }
    }
    Some(best)
}

/// Next power of two greater than or equal to `n` (minimum 1).
pub fn next_pow2(n: usize) -> usize {
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// Clamps `x` into `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "clamp: lo must not exceed hi");
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for &v in &[0.001, 0.5, 1.0, 42.0, 1e6] {
            assert!((db_to_amp(amp_to_db(v)) - v).abs() / v < 1e-12);
        }
        assert!((amp_to_db(2.0) - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn erfc_reference_values() {
        // Reference values from tables.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(0.5) - 0.4795001).abs() < 1e-6);
        assert!((erfc(1.0) - 0.1572992).abs() < 1e-6);
        assert!((erfc(2.0) - 0.0046777).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.8427008).abs() < 1e-6);
    }

    #[test]
    fn q_function_reference() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(3.0) - 0.00134990).abs() < 1e-6);
        // BPSK at Eb/N0 = 9.6 dB should give ~1e-5.
        let ebn0 = db_to_pow(9.6);
        let ber = q_function((2.0 * ebn0).sqrt());
        assert!(ber > 0.5e-5 && ber < 2e-5, "ber = {ber}");
    }

    #[test]
    fn bessel_i0_reference() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-7);
        assert!((bessel_i0(1.0) - 1.2660658).abs() < 1e-5);
        assert!((bessel_i0(5.0) - 27.239871).abs() / 27.24 < 1e-5);
        assert!((bessel_i0(-5.0) - bessel_i0(5.0)).abs() < 1e-9);
    }

    #[test]
    fn sinc_zeros_at_integers() {
        for k in 1..=10 {
            assert!(sinc(k as f64).abs() < 1e-12);
            assert!(sinc(-k as f64).abs() < 1e-12);
        }
        assert_eq!(sinc(0.0), 1.0);
    }

    #[test]
    fn stats_helpers() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&d), 2.5);
        assert!((variance(&d) - 1.25).abs() < 1e-12);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn pow2_and_clamp() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(clamp(5.0, 0.0, 2.0), 2.0);
        assert_eq!(clamp(-5.0, 0.0, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "clamp")]
    fn clamp_bad_range_panics() {
        clamp(0.0, 2.0, 1.0);
    }
}
