//! Window functions for FIR design and spectral estimation.

use crate::math::bessel_i0;

/// Window function selector.
///
/// All windows are *symmetric* (filter-design convention) of length `n`:
/// `w[k]` for `k = 0..n`, with `w[0] == w[n-1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Rectangular (boxcar) window: all ones.
    Rectangular,
    /// Hann window (raised cosine), −31 dB first sidelobe.
    Hann,
    /// Hamming window, −41 dB first sidelobe.
    Hamming,
    /// Blackman window, −58 dB first sidelobe.
    Blackman,
    /// Kaiser window with shape parameter β. β≈0 is rectangular; larger β
    /// trades main-lobe width for sidelobe suppression.
    Kaiser(f64),
}

impl Window {
    /// Evaluates the window at tap `k` of an `n`-tap window.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` or `n == 0`.
    pub fn coefficient(self, k: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        assert!(k < n, "window index out of range");
        if n == 1 {
            return 1.0;
        }
        let x = k as f64 / (n - 1) as f64; // in [0, 1]
        let two_pi = std::f64::consts::TAU;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (two_pi * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (two_pi * x).cos(),
            Window::Blackman => {
                0.42 - 0.5 * (two_pi * x).cos() + 0.08 * (2.0 * two_pi * x).cos()
            }
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // in [-1, 1]
                bessel_i0(beta * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(beta)
            }
        }
    }

    /// Generates the full window of length `n`.
    ///
    /// ```
    /// use uwb_dsp::Window;
    /// let w = Window::Hann.generate(8);
    /// assert_eq!(w.len(), 8);
    /// assert!(w[0].abs() < 1e-12); // Hann endpoints are zero
    /// ```
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|k| self.coefficient(k, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_symmetry() {
        for win in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Kaiser(6.0),
        ] {
            let n = 33;
            let w = win.generate(n);
            assert_eq!(w.len(), n);
            for k in 0..n {
                assert!(
                    (w[k] - w[n - 1 - k]).abs() < 1e-12,
                    "{win:?} not symmetric at {k}"
                );
                assert!(w[k] >= -1e-12 && w[k] <= 1.0 + 1e-12);
            }
            // Peak at the center.
            assert!((w[n / 2] - 1.0).abs() < 1e-9, "{win:?} center not 1");
        }
    }

    #[test]
    fn hann_endpoints_zero() {
        let w = Window::Hann.generate(16);
        assert!(w[0].abs() < 1e-12);
        assert!(w[15].abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints() {
        let w = Window::Hamming.generate(16);
        assert!((w[0] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        let w = Window::Kaiser(0.0).generate(9);
        for x in w {
            assert!((x - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_tap_window() {
        for win in [Window::Hann, Window::Kaiser(4.0)] {
            assert_eq!(win.generate(1), vec![1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Window::Hann.coefficient(8, 8);
    }
}
