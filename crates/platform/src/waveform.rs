//! Modulation-scheme comparison.
//!
//! The discrete prototype is "flexible enough to generate all kinds of
//! signals within a bandwidth of 500 MHz, allowing the comparison between
//! different modulation schemes" (paper §3). [`modulation_ber`] runs a
//! slot-level Monte-Carlo BER for any [`Modulation`].

use crate::metrics::ErrorCounter;
use uwb_dsp::Complex;
use uwb_phy::Modulation;
use uwb_sim::Rand;

/// Slot-level Monte-Carlo BER of a modulation format in AWGN at the given
/// Eb/N0 (dB). Coherent demodulation; runs until `target_errors` or
/// `max_bits`.
pub fn modulation_ber(
    modulation: Modulation,
    ebn0_db: f64,
    target_errors: u64,
    max_bits: u64,
    seed: u64,
) -> ErrorCounter {
    let mut rng = Rand::new(seed);
    let mut counter = ErrorCounter::new();
    let bps = modulation.bits_per_symbol();
    // Eb = mean symbol energy / bits per symbol; slot noise is complex with
    // total power N0 (matched-filter convention).
    let eb = modulation.mean_symbol_energy() / bps as f64;
    let n0 = eb / uwb_dsp::math::db_to_pow(ebn0_db);
    let sigma = (n0 / 2.0).sqrt();
    while counter.errors < target_errors && counter.total < max_bits {
        let bits: Vec<bool> = (0..bps).map(|_| rng.bit()).collect();
        let amps = modulation.map(&bits);
        let slots: Vec<Complex> = amps
            .iter()
            .map(|&a| Complex::new(a + sigma * rng.gaussian(), sigma * rng.gaussian()))
            .collect();
        let (decided, _) = modulation.demap(&slots);
        counter.add_bits(&bits, &decided);
    }
    counter
}

/// Non-coherent variant of [`modulation_ber`] (energy detection); returns
/// `None` for coherent-only formats.
pub fn modulation_ber_noncoherent(
    modulation: Modulation,
    ebn0_db: f64,
    target_errors: u64,
    max_bits: u64,
    seed: u64,
) -> Option<ErrorCounter> {
    if !modulation.supports_noncoherent() {
        return None;
    }
    let mut rng = Rand::new(seed);
    let mut counter = ErrorCounter::new();
    let bps = modulation.bits_per_symbol();
    let eb = modulation.mean_symbol_energy() / bps as f64;
    let n0 = eb / uwb_dsp::math::db_to_pow(ebn0_db);
    let sigma = (n0 / 2.0).sqrt();
    while counter.errors < target_errors && counter.total < max_bits {
        let bits: Vec<bool> = (0..bps).map(|_| rng.bit()).collect();
        let amps = modulation.map(&bits);
        let phase = rng.uniform_in(0.0, std::f64::consts::TAU); // unknown carrier
        let slots: Vec<Complex> = amps
            .iter()
            .map(|&a| {
                Complex::from_polar(a, phase)
                    + Complex::new(sigma * rng.gaussian(), sigma * rng.gaussian())
            })
            .collect();
        let (decided, _) = modulation.demap_noncoherent(&slots)?;
        counter.add_bits(&bits, &decided);
    }
    Some(counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bpsk_awgn_ber, ook_awgn_ber, pam4_awgn_ber};

    #[test]
    fn bpsk_monte_carlo_matches_theory() {
        let c = modulation_ber(Modulation::Bpsk, 5.0, 400, 4_000_000, 2);
        let theory = bpsk_awgn_ber(5.0);
        let ratio = c.rate() / theory;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    fn ook_monte_carlo_matches_theory() {
        let c = modulation_ber(Modulation::Ook, 8.0, 400, 4_000_000, 3);
        let theory = ook_awgn_ber(8.0);
        let ratio = c.rate() / theory;
        assert!(ratio > 0.75 && ratio < 1.35, "ratio {ratio}");
    }

    #[test]
    fn pam4_monte_carlo_matches_theory() {
        let c = modulation_ber(Modulation::Pam4, 8.0, 400, 4_000_000, 4);
        let theory = pam4_awgn_ber(8.0);
        let ratio = c.rate() / theory;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn modulation_ranking_at_fixed_ebn0() {
        // BPSK < PPM/OOK at the same Eb/N0 (3 dB antipodal advantage).
        let e = 7.0;
        let bpsk = modulation_ber(Modulation::Bpsk, e, 200, 2_000_000, 5).rate();
        let ook = modulation_ber(Modulation::Ook, e, 200, 2_000_000, 6).rate();
        let ppm = modulation_ber(Modulation::Ppm2, e, 200, 2_000_000, 7).rate();
        assert!(bpsk < ook, "bpsk {bpsk} vs ook {ook}");
        assert!(bpsk < ppm, "bpsk {bpsk} vs ppm {ppm}");
    }

    #[test]
    fn noncoherent_costs_extra() {
        let e = 9.0;
        let coh = modulation_ber(Modulation::Ppm2, e, 300, 3_000_000, 8).rate();
        let noncoh = modulation_ber_noncoherent(Modulation::Ppm2, e, 300, 3_000_000, 9)
            .unwrap()
            .rate();
        assert!(noncoh > coh, "noncoherent {noncoh} vs coherent {coh}");
        assert!(modulation_ber_noncoherent(Modulation::Bpsk, e, 10, 100, 10).is_none());
    }
}
