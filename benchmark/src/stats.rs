//! Order statistics for timing samples.

/// Median of `v` (mean of the two middle values for even lengths); `NaN`
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so a
/// spread printed here matches one recomputed from the result files. A
/// single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values).
pub fn rel_iqr(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    if v.len() < 2 {
        0.0
    } else {
        (q3 - q1) / median(v).abs()
    }
}

/// The tail of a timing distribution: the highest percentile with at least
/// ten samples beyond it, as `(percentile, value)`. That is the 11th-largest
/// sample, at percentile `100·(n−10)/n`. Below 20 samples that percentile
/// would sit under the median, so the maximum is returned at percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        n if n < 20 => (100.0, s[n - 1]),
        n => (100.0 * (n - 10) as f64 / n as f64, s[n - 11]),
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(rel_iqr(&[5.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(pct, 90.0);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);

        // 32 samples: the 11th largest sits at percentile 68.75.
        let v: Vec<f64> = (1..=32).rev().map(f64::from).collect();
        assert_eq!(tail(&v), (68.75, 22.0));

        // 20 samples: the 11th largest is the p50, the lowest tail allowed.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));

        // Fewer than 20 samples: the maximum, never a value below the median.
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (100.0, 9.0));
        for n in [10, 11, 16, 19] {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(tail(&v), (100.0, f64::from(n)), "n = {n}");
            assert!(tail(&v).1 >= median(&v));
        }
    }
}
