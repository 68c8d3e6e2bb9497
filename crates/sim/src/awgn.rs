//! Additive white Gaussian noise.

use crate::rng::Rand;
use uwb_dsp::complex::mean_power;
use uwb_dsp::Complex;

/// Stack-buffer quantum for the chunked noise loops: 256 gaussians = 128
/// complex samples per refill, matching `GAUSS_BATCH` so each chunk maps to
/// one carry-buffer drain. The chunking is unobservable — the block stream
/// is chunk-size invariant (see [`Rand::fill_gaussian`]).
const NOISE_CHUNK: usize = 256;

/// Validates `noise_power`: negative power is a sign error in the caller
/// (e.g. a mis-signed SNR sweep), which would otherwise silently run
/// *noiseless* and report perfect BER. Debug builds panic; release builds
/// keep the documented clamp-to-zero behaviour.
#[inline]
fn checked_noise_power(noise_power: f64) -> f64 {
    debug_assert!(
        noise_power >= 0.0,
        "negative noise_power ({noise_power}): a mis-signed SNR runs noiseless"
    );
    noise_power.max(0.0)
}

/// Adds real AWGN of the given power (variance) to a signal.
///
/// Negative `noise_power` is a caller bug: it panics in debug builds and
/// clamps to zero (noiseless) in release builds.
pub fn add_awgn_real(signal: &[f64], noise_power: f64, rng: &mut Rand) -> Vec<f64> {
    let sigma = checked_noise_power(noise_power).sqrt();
    let mut out = signal.to_vec();
    let mut buf = [0.0f64; NOISE_CHUNK];
    for chunk in out.chunks_mut(NOISE_CHUNK) {
        rng.fill_gaussian(&mut buf[..chunk.len()]);
        for (x, g) in chunk.iter_mut().zip(&buf) {
            *x += sigma * g;
        }
    }
    out
}

/// Adds circularly-symmetric complex AWGN of total power `noise_power`
/// (split evenly between I and Q).
///
/// Negative `noise_power` is a caller bug: it panics in debug builds and
/// clamps to zero (noiseless) in release builds.
pub fn add_awgn_complex(signal: &[Complex], noise_power: f64, rng: &mut Rand) -> Vec<Complex> {
    let mut out = signal.to_vec();
    add_awgn_complex_in_place(&mut out, noise_power, rng);
    out
}

/// [`add_awgn_complex`] mutating the signal in place (allocation-free).
///
/// The per-trial form used by the Monte-Carlo workers, and the same noise
/// loop as [`StreamingAwgn`](crate::stream::StreamingAwgn): results and
/// downstream RNG state are bit-identical to the allocating form and to a
/// streamed source seeded with the same RNG. Negative `noise_power` panics
/// in debug builds and clamps to zero in release builds.
pub fn add_awgn_complex_in_place(signal: &mut [Complex], noise_power: f64, rng: &mut Rand) {
    add_complex_noise(signal, complex_sigma(noise_power), rng);
}

/// The per-component standard deviation of complex noise of total power
/// `noise_power` (checked as in [`checked_noise_power`]).
pub(crate) fn complex_sigma(noise_power: f64) -> f64 {
    (checked_noise_power(noise_power) / 2.0).sqrt()
}

/// The complex noise loop: adds `σ·(g0 + i·g1)` to each sample, drawing
/// from the block stream ([`Rand::fill_gaussian`]) I then Q per sample in
/// ascending order, through a stack chunk buffer.
pub(crate) fn add_complex_noise(signal: &mut [Complex], sigma: f64, rng: &mut Rand) {
    let mut buf = [0.0f64; NOISE_CHUNK];
    for chunk in signal.chunks_mut(NOISE_CHUNK / 2) {
        rng.fill_gaussian(&mut buf[..2 * chunk.len()]);
        for (z, g) in chunk.iter_mut().zip(buf.chunks_exact(2)) {
            *z += Complex::new(sigma * g[0], sigma * g[1]);
        }
    }
}

/// Generates `n` samples of complex AWGN with total power `noise_power`.
///
/// Negative `noise_power` is a caller bug: it panics in debug builds and
/// clamps to zero (silence) in release builds.
pub fn complex_noise(n: usize, noise_power: f64, rng: &mut Rand) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; n];
    add_awgn_complex_in_place(&mut out, noise_power, rng);
    out
}

/// Adds complex noise scaled for a target SNR (dB) relative to the measured
/// power of `signal`. Returns the noisy signal and the noise power used.
pub fn add_noise_snr(signal: &[Complex], snr_db: f64, rng: &mut Rand) -> (Vec<Complex>, f64) {
    let p_sig = mean_power(signal);
    let p_noise = p_sig / uwb_dsp::math::db_to_pow(snr_db);
    (add_awgn_complex(signal, p_noise, rng), p_noise)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::complex::mean_power_real;

    #[test]
    fn noise_power_is_calibrated() {
        let mut rng = Rand::new(1);
        let n = 200_000;
        let p = 0.04;
        let noise = complex_noise(n, p, &mut rng);
        let measured = mean_power(&noise);
        assert!((measured - p).abs() / p < 0.03, "{measured}");
        let rnoise = add_awgn_real(&vec![0.0; n], p, &mut rng);
        let rm = mean_power_real(&rnoise);
        assert!((rm - p).abs() / p < 0.03, "{rm}");
    }

    #[test]
    fn snr_calibration() {
        let mut rng = Rand::new(2);
        let sig = vec![Complex::ONE; 100_000];
        let (noisy, p_noise) = add_noise_snr(&sig, 10.0, &mut rng);
        assert!((p_noise - 0.1).abs() < 1e-12);
        // Noise power check: subtract the known signal.
        let resid: f64 = noisy
            .iter()
            .map(|z| (*z - Complex::ONE).norm_sqr())
            .sum::<f64>()
            / noisy.len() as f64;
        assert!((resid - 0.1).abs() < 0.005, "{resid}");
    }

    #[test]
    fn in_place_matches_allocating_bitwise() {
        let sig: Vec<Complex> = (0..64).map(|i| Complex::new(i as f64, -0.5)).collect();
        let want = add_awgn_complex(&sig, 0.3, &mut Rand::new(17));
        let mut rng = Rand::new(17);
        let mut buf = sig.clone();
        add_awgn_complex_in_place(&mut buf, 0.3, &mut rng);
        assert_eq!(buf, want);
        // Downstream RNG state must match too.
        assert_eq!(rng.gaussian(), {
            let mut r2 = Rand::new(17);
            let _ = add_awgn_complex(&sig, 0.3, &mut r2);
            r2.gaussian()
        });
    }

    #[test]
    fn zero_noise_passthrough() {
        let mut rng = Rand::new(4);
        let sig = vec![Complex::new(1.0, -2.0); 16];
        let out = add_awgn_complex(&sig, 0.0, &mut rng);
        assert_eq!(out, sig);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative noise_power")]
    fn negative_noise_power_panics_in_debug() {
        // A mis-signed SNR sweep used to clamp silently to zero noise and
        // report perfect BER; debug builds now catch the sign error.
        let mut rng = Rand::new(1);
        let mut sig = vec![Complex::ONE; 4];
        add_awgn_complex_in_place(&mut sig, -0.1, &mut rng);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn negative_noise_power_clamps_in_release() {
        // Release builds keep the documented clamp-to-zero behaviour.
        let mut rng = Rand::new(1);
        let sig = vec![Complex::ONE; 4];
        assert_eq!(add_awgn_complex(&sig, -0.1, &mut rng), sig);
        assert_eq!(add_awgn_real(&[0.0; 4], -1.0, &mut rng), vec![0.0; 4]);
    }

    #[test]
    fn allocating_forms_share_the_block_stream() {
        // complex_noise / add_awgn_complex / in_place all consume the same
        // number of block-stream draws per sample, so they are
        // interchangeable bitwise at matched seeds.
        let n = 300; // spans a carry-buffer refill
        let noise = complex_noise(n, 0.5, &mut Rand::new(9));
        let from_add = add_awgn_complex(&vec![Complex::ZERO; n], 0.5, &mut Rand::new(9));
        assert_eq!(noise, from_add);
    }

    #[test]
    fn noise_is_white_ish() {
        // Lag-1 autocorrelation should be near zero.
        let mut rng = Rand::new(5);
        let noise = add_awgn_real(&vec![0.0; 100_000], 1.0, &mut rng);
        let mut acc = 0.0;
        for i in 0..noise.len() - 1 {
            acc += noise[i] * noise[i + 1];
        }
        let rho = acc / (noise.len() - 1) as f64;
        assert!(rho.abs() < 0.02, "lag-1 correlation {rho}");
    }
}
