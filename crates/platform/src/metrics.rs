//! Link metrology: BER/PER counters with confidence intervals.

/// A bit-error counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounter {
    /// Bits (or packets) observed.
    pub total: u64,
    /// Errors observed.
    pub errors: u64,
}

impl ErrorCounter {
    /// An empty counter.
    pub fn new() -> Self {
        ErrorCounter::default()
    }

    /// Adds a comparison of two bit slices (counts positions that differ;
    /// a length mismatch counts the surplus as errors).
    pub fn add_bits(&mut self, reference: &[bool], received: &[bool]) {
        let n = reference.len().max(received.len());
        self.total += n as u64;
        let common = reference.len().min(received.len());
        let diff = reference[..common]
            .iter()
            .zip(&received[..common])
            .filter(|(a, b)| a != b)
            .count() as u64;
        self.errors += diff + (n - common) as u64;
    }

    /// Records `n` observations with `e` errors.
    pub fn add_raw(&mut self, n: u64, e: u64) {
        self.total += n;
        self.errors += e.min(n);
    }

    /// The error rate. `NaN` when nothing was observed — an empty counter is
    /// *not* evidence of an error-free link (the old `0.0` return made a
    /// zero-trial run indistinguishable from a perfect one). `f64::max`
    /// ignores NaN, so `c.rate().max(floor)` caller patterns keep working.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.errors as f64 / self.total as f64
        }
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: &ErrorCounter) {
        self.total += other.total;
        self.errors += other.errors;
    }
}

/// Engine-side merge: lets `ErrorCounter` be the accumulator of a
/// [`uwb_sim::montecarlo::MonteCarlo`] run.
impl uwb_sim::montecarlo::Merge for ErrorCounter {
    fn merge(&mut self, other: &Self) {
        ErrorCounter::merge(self, other);
    }
}

impl std::fmt::Display for ErrorCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} = {:.3e}", self.errors, self.total, self.rate())
    }
}

/// Theoretical BPSK BER in AWGN at the given Eb/N0 (dB) — the reference
/// curve every waterfall is compared against.
pub fn bpsk_awgn_ber(ebn0_db: f64) -> f64 {
    let ebn0 = uwb_dsp::math::db_to_pow(ebn0_db);
    uwb_dsp::math::q_function((2.0 * ebn0).sqrt())
}

/// Theoretical OOK (coherent) BER: `Q(sqrt(Eb/N0))` — 3 dB worse than BPSK.
pub fn ook_awgn_ber(ebn0_db: f64) -> f64 {
    let ebn0 = uwb_dsp::math::db_to_pow(ebn0_db);
    uwb_dsp::math::q_function(ebn0.sqrt())
}

/// Theoretical coherent binary-PPM (orthogonal) BER: `Q(sqrt(Eb/N0))`.
pub fn ppm2_awgn_ber(ebn0_db: f64) -> f64 {
    ook_awgn_ber(ebn0_db)
}

/// Theoretical Gray-coded 4-PAM BER: `(3/4) Q(sqrt(4/5 · Eb/N0))`.
pub fn pam4_awgn_ber(ebn0_db: f64) -> f64 {
    let ebn0 = uwb_dsp::math::db_to_pow(ebn0_db);
    0.75 * uwb_dsp::math::q_function((0.8 * ebn0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_counting() {
        let mut c = ErrorCounter::new();
        c.add_bits(&[true, false, true], &[true, true, true]);
        assert_eq!(c.total, 3);
        assert_eq!(c.errors, 1);
        assert!((c.rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_counts_as_errors() {
        let mut c = ErrorCounter::new();
        c.add_bits(&[true; 5], &[true; 3]);
        assert_eq!(c.total, 5);
        assert_eq!(c.errors, 2);
    }

    #[test]
    fn empty_counter_rate_is_nan() {
        let c = ErrorCounter::new();
        assert!(c.rate().is_nan(), "empty rate must be NaN, not 0");
        // The `.rate().max(floor)` caller idiom stays safe: max ignores NaN.
        assert_eq!(c.rate().max(1e-6), 1e-6);
    }

    #[test]
    fn merge_adds() {
        let mut a = ErrorCounter::new();
        a.add_raw(100, 5);
        let mut b = ErrorCounter::new();
        b.add_raw(50, 2);
        a.merge(&b);
        assert_eq!(a.total, 150);
        assert_eq!(a.errors, 7);
    }

    #[test]
    fn theory_reference_points() {
        // BPSK: 9.6 dB -> ~1e-5; 6.8 dB -> ~1e-3.
        assert!((bpsk_awgn_ber(9.6).log10() + 5.0).abs() < 0.15);
        assert!((bpsk_awgn_ber(6.8).log10() + 3.0).abs() < 0.15);
        // OOK/PPM is 3 dB worse than BPSK.
        assert!((ook_awgn_ber(12.6) / bpsk_awgn_ber(9.6) - 1.0).abs() < 0.05);
        assert_eq!(ook_awgn_ber(8.0), ppm2_awgn_ber(8.0));
        // 4-PAM worse than BPSK at the same Eb/N0.
        assert!(pam4_awgn_ber(9.6) > bpsk_awgn_ber(9.6));
    }

    #[test]
    fn display_format() {
        let mut c = ErrorCounter::new();
        c.add_raw(1000, 3);
        assert!(c.to_string().contains("3/1000"));
    }
}
