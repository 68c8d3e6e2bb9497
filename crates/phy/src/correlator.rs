//! Parallelized correlator bank.
//!
//! Paper §1: "The back end requires parallelization to reduce the packet
//! synchronization time and to process the large data rate provided by the
//! ADC." In hardware, `P` correlators evaluate `P` candidate code phases per
//! clock; this model computes the same outputs and *accounts for that bank's
//! clock cycles and multiply-accumulate operations* ([`CorrelatorStats`]) so
//! acquisition-time and power numbers can be derived from it.
//!
//! The software does not compute the way the modelled bank does. The
//! template is a [`SpreadCode`]: `N` chips `c_k = ±1`, `S` samples apart,
//! each carrying the same real `L`-tap pulse `p`. The correlation at phase
//! `φ` therefore factors into chip sums and a pulse FIR,
//!
//! ```text
//! Z[q]   = Σ_k c_k · s[q + k·S]        (N adds per chip sum)
//! out[φ] = Σ_j p[j] · Z[φ + j]          (L real MACs per phase)
//! ```
//!
//! instead of `(N−1)·S + L` complex MACs per phase. On ADC output the chip
//! sums are exact: quantized samples are `(k+½)·step` with a power-of-two
//! step, and ±1 sums of them stay exactly representable in f64, so they do
//! not depend on summation order, and the kernel adds the +1 chips and
//! subtracts the −1 chips without multiplying. Both stages run
//! register-tiled, [`TILE`] outputs per pass over the chips or taps.

use uwb_dsp::Complex;

/// Outputs per tile: 32 complex accumulators fill sixteen 256-bit
/// registers. On a 2-vCPU AVX-512 host the gen2 chip sums took a little
/// over half as long at 32 as at 16, whose eight registers of independent
/// sums do not cover the add latency. The width only sets how many sums
/// run side by side, never the order within one.
const TILE: usize = 32;

/// A direct-sequence spread template: `chips` (±1) placed
/// `samples_per_chip` apart, each carrying the same real `pulse`.
///
/// Sample 0 of the template is sample 0 of chip 0's pulse, so the template
/// spans `(N−1)·samples_per_chip + pulse.len()` samples; a pulse longer
/// than a chip overlaps the next chip's.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadCode {
    /// Chip values, ±1.
    pub chips: Vec<f64>,
    /// Samples from one chip's pulse to the next.
    pub samples_per_chip: usize,
    /// The real pulse each chip carries.
    pub pulse: Vec<f64>,
}

impl SpreadCode {
    /// Template length in samples (zero for an empty code).
    pub fn template_len(&self) -> usize {
        match self.chips.len() {
            0 => 0,
            n => (n - 1) * self.samples_per_chip + self.pulse.len(),
        }
    }

    /// The template waveform `Σ_k c_k · p(t − k·S)` in the real rail.
    /// Where pulses overlap, chips add in ascending order, as the
    /// transmitter lays them down.
    pub fn template(&self) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.template_len()];
        for (k, &c) in self.chips.iter().enumerate() {
            let start = k * self.samples_per_chip;
            for (j, &p) in self.pulse.iter().enumerate() {
                out[start + j].re += c * p;
            }
        }
        out
    }
}

/// Operation accounting for a correlator-bank run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorrelatorStats {
    /// Candidate phases evaluated.
    pub phases_evaluated: usize,
    /// Hardware clock cycles consumed (`ceil(phases / parallelism)` dwells,
    /// each lasting one template length of clocks).
    pub clock_cycles: u64,
    /// Real multiply-accumulate operations the hardware bank performs.
    pub mac_ops: u64,
}

/// A bank of `parallelism` correlators sharing one spread-code template.
#[derive(Debug, Clone)]
pub struct CorrelatorBank {
    code: SpreadCode,
    parallelism: usize,
    /// Sample offsets `k·S` of the +1 chips, ascending.
    plus: Vec<usize>,
    /// Sample offsets `k·S` of the −1 chips, ascending.
    minus: Vec<usize>,
}

impl CorrelatorBank {
    /// Creates a bank for the given code and hardware parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the code has no chips, no pulse, a chip other than ±1, or
    /// `samples_per_chip == 0`, or if `parallelism == 0`.
    pub fn new(code: SpreadCode, parallelism: usize) -> Self {
        assert!(
            !code.chips.is_empty() && !code.pulse.is_empty(),
            "correlator template must be non-empty"
        );
        assert!(
            code.chips.iter().all(|&c| c == 1.0 || c == -1.0),
            "chips must be ±1"
        );
        assert!(
            code.samples_per_chip > 0,
            "samples_per_chip must be at least 1"
        );
        assert!(parallelism > 0, "parallelism must be at least 1");
        let spc = code.samples_per_chip;
        let offsets = |sign: f64| -> Vec<usize> {
            let chips = code.chips.iter().enumerate();
            chips
                .filter(|&(_, &c)| c == sign)
                .map(|(k, _)| k * spc)
                .collect()
        };
        let (plus, minus) = (offsets(1.0), offsets(-1.0));
        CorrelatorBank {
            code,
            parallelism,
            plus,
            minus,
        }
    }

    /// The template length in samples.
    pub fn template_len(&self) -> usize {
        self.code.template_len()
    }

    /// Correlates the contiguous phase range `0..n_phases` of `signal`
    /// against the template (the access pattern of a serial acquisition
    /// sweep), into `out`. Phases whose window would run past the end of
    /// `signal` yield zero.
    ///
    /// The returned stats model the *hardware* bank (dwells, clocks, MACs)
    /// and do not depend on how the software evaluates the outputs. The
    /// chip sums live in `out` behind the outputs, so a sweep allocates
    /// nothing once `out` has held one of its size.
    pub fn run_prefix_into(
        &self,
        signal: &[Complex],
        n_phases: usize,
        out: &mut Vec<Complex>,
    ) -> CorrelatorStats {
        out.clear();
        let n_valid = self.valid_phases(signal.len(), n_phases);
        if n_valid > 0 {
            out.resize(2 * n_valid + self.code.pulse.len() - 1, Complex::ZERO);
            let (phases, z) = out.split_at_mut(n_valid);
            chip_sums(&self.plus, &self.minus, signal, z);
            pulse_fir(&self.code.pulse, z, phases);
            out.truncate(n_valid);
        }
        out.resize(n_phases, Complex::ZERO);
        let m = self.template_len();
        let dwells = n_phases.div_ceil(self.parallelism);
        CorrelatorStats {
            phases_evaluated: n_phases,
            clock_cycles: dwells as u64 * m as u64,
            // Complex × conj(complex) = 4 real MACs per sample.
            mac_ops: n_phases as u64 * m as u64 * 4,
        }
    }

    /// Real operations the software kernel performs in a
    /// [`run_prefix_into`](Self::run_prefix_into) call over `signal_len`
    /// samples and `n_phases` phases: two real adds per chip term of each
    /// chip sum, two real MACs per pulse tap of each valid phase. A
    /// deterministic count of the software's work; the modelled hardware's
    /// is [`CorrelatorStats::mac_ops`].
    pub fn kernel_ops(&self, signal_len: usize, n_phases: usize) -> u64 {
        let n_valid = self.valid_phases(signal_len, n_phases) as u64;
        if n_valid == 0 {
            return 0;
        }
        let (n, l) = (self.code.chips.len() as u64, self.code.pulse.len() as u64);
        2 * (n_valid + l - 1) * n + 2 * n_valid * l
    }

    /// Phases in `0..n_phases` whose whole window fits in `signal_len`.
    fn valid_phases(&self, signal_len: usize, n_phases: usize) -> usize {
        (signal_len + 1)
            .saturating_sub(self.template_len())
            .min(n_phases)
    }

    /// Time in microseconds the search takes on hardware clocked at
    /// `clock_hz`, given the stats of a run.
    pub fn search_time_us(stats: &CorrelatorStats, clock_hz: f64) -> f64 {
        stats.clock_cycles as f64 / clock_hz * 1e6
    }
}

/// Chip sums `z[q] = Σ_k c_k · x[q + k·S]` for ±1 chips, given as the
/// sample offsets `k·S` of the +1 chips (`plus`) and of the −1 chips
/// (`minus`): each sum adds its +1 terms in ascending `k`, then subtracts
/// its −1 terms in ascending `k`, so no term is multiplied.
///
/// Outputs are computed [`TILE`] at a time: one pass over the chips adds
/// `±x[q0 + t + k·S]` to the `t`-th of `TILE` accumulators, which are
/// independent chains the vectorizer runs side by side. Needs
/// `x.len() ≥ z.len() + max offset`.
fn chip_sums(plus: &[usize], minus: &[usize], x: &[Complex], z: &mut [Complex]) {
    let tiled = z.len() - z.len() % TILE;
    let mut tiles = z.chunks_exact_mut(TILE);
    for (t, out) in (&mut tiles).enumerate() {
        let q0 = t * TILE;
        let mut acc = [Complex::ZERO; TILE];
        for &o in plus {
            for (a, &v) in acc.iter_mut().zip(&x[q0 + o..][..TILE]) {
                *a += v;
            }
        }
        for &o in minus {
            for (a, &v) in acc.iter_mut().zip(&x[q0 + o..][..TILE]) {
                *a -= v;
            }
        }
        out.copy_from_slice(&acc);
    }
    // The last `len mod TILE` outputs, one serial sum each.
    for (j, out) in tiles.into_remainder().iter_mut().enumerate() {
        let q = tiled + j;
        let mut acc = Complex::ZERO;
        for &o in plus {
            acc += x[q + o];
        }
        for &o in minus {
            acc -= x[q + o];
        }
        *out = acc;
    }
}

/// The pulse FIR `out[φ] = Σ_j p[j] · z[φ + j]`, each sum in ascending `j`,
/// tiled like [`chip_sums`]. Needs `z.len() ≥ out.len() + p.len() − 1`.
fn pulse_fir(p: &[f64], z: &[Complex], out: &mut [Complex]) {
    let tiled = out.len() - out.len() % TILE;
    let mut tiles = out.chunks_exact_mut(TILE);
    for (t, o) in (&mut tiles).enumerate() {
        let q0 = t * TILE;
        let mut acc = [Complex::ZERO; TILE];
        for (j, &pj) in p.iter().enumerate() {
            for (a, &v) in acc.iter_mut().zip(&z[q0 + j..][..TILE]) {
                *a += v * pj;
            }
        }
        o.copy_from_slice(&acc);
    }
    for (i, o) in tiles.into_remainder().iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (j, &pj) in p.iter().enumerate() {
            acc += z[tiled + i + j] * pj;
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::math::next_pow2;

    fn code(degree: u32, samples_per_chip: usize, pulse_len: usize) -> SpreadCode {
        SpreadCode {
            chips: crate::pn::msequence_chips(degree),
            samples_per_chip,
            pulse: (0..pulse_len)
                .map(|j| (0.7 * j as f64).cos() + 0.1)
                .collect(),
        }
    }

    fn run(bank: &CorrelatorBank, signal: &[Complex], n_phases: usize) -> Vec<Complex> {
        let mut out = Vec::new();
        bank.run_prefix_into(signal, n_phases, &mut out);
        out
    }

    /// A complex test record with the template embedded at `at`.
    fn record(code: &SpreadCode, len: usize, at: usize) -> Vec<Complex> {
        let mut sig: Vec<Complex> = (0..len)
            .map(|i| Complex::cis(1.3 * i as f64) * (0.05 + 0.002 * (i % 31) as f64))
            .collect();
        for (i, t) in code.template().iter().enumerate() {
            if at + i < len {
                sig[at + i] += *t * 2.0;
            }
        }
        sig
    }

    /// f64 FFT cross-correlation over the prefix `0..n_phases` — the oracle
    /// the chip-domain kernel is bounded against.
    fn correlate_prefix_fft64(
        tpl: &[Complex],
        signal: &[Complex],
        n_phases: usize,
    ) -> Vec<Complex> {
        let m = tpl.len();
        let needed = (n_phases + m - 1).min(signal.len());
        if needed < m {
            return vec![Complex::ZERO; n_phases];
        }
        let n = next_pow2(needed + m - 1);
        let fft = uwb_dsp::fft::cached_plan(n);
        let mut spec = vec![Complex::ZERO; n];
        for (o, t) in spec.iter_mut().zip(tpl.iter().rev()) {
            *o = t.conj();
        }
        fft.forward_in_place(&mut spec);
        let mut fa = vec![Complex::ZERO; n];
        fa[..needed].copy_from_slice(&signal[..needed]);
        fft.forward_in_place(&mut fa);
        for (x, y) in fa.iter_mut().zip(&spec) {
            *x *= *y;
        }
        fft.inverse_in_place(&mut fa);
        let mut out = fa[m - 1..m - 1 + (needed - m + 1).min(n_phases)].to_vec();
        out.resize(n_phases, Complex::ZERO);
        out
    }

    /// Runs the kernel and bounds it against the f64 FFT oracle at every
    /// phase, relative to the peak magnitude.
    fn checked_run(code: &SpreadCode, signal: &[Complex], n_phases: usize) -> Vec<Complex> {
        let out = run(&CorrelatorBank::new(code.clone(), 8), signal, n_phases);
        let oracle = correlate_prefix_fft64(&code.template(), signal, n_phases);
        assert_eq!(out.len(), oracle.len());
        let scale = oracle
            .iter()
            .map(|z| z.norm())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (phase, (a, b)) in out.iter().zip(&oracle).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-10 * scale,
                "phase {phase} of {n_phases}: {a} vs {b}"
            );
        }
        out
    }

    #[test]
    fn kernel_matches_fft_oracle_across_codes() {
        // m-sequence degrees 3–12; chip spacings 1, 2 and gen2's 10; pulses
        // shorter than, equal to and longer than a chip (gen2: 11 > 10).
        for degree in 3..=12u32 {
            for (spc, pulse_len) in [(1, 1), (1, 3), (2, 2), (2, 5), (10, 4), (10, 11)] {
                let code = code(degree, spc, pulse_len);
                let m = code.template_len();
                let at = 5 + (m / 3) % 200;
                let sig = record(&code, 2 * m + 37, at);
                let out = checked_run(&code, &sig, 317);
                let mags: Vec<f64> = out.iter().map(|z| z.norm()).collect();
                assert_eq!(
                    uwb_dsp::math::argmax(&mags),
                    Some(at),
                    "degree {degree} spc {spc} L {pulse_len}"
                );
            }
        }
    }

    #[test]
    fn search_lengths_off_the_tile_grid_and_past_the_last_lag() {
        let code = code(7, 10, 11);
        let m = code.template_len();
        let sig = record(&code, m + 300, 123);
        // Valid lags: 0..=300. Lengths off the tile grid on both sides of
        // it, then past the last valid lag (those phases are zero).
        for n_phases in [
            0,
            1,
            TILE - 1,
            TILE,
            TILE + 1,
            5 * TILE + 7,
            300,
            301,
            302,
            777,
        ] {
            let out = checked_run(&code, &sig, n_phases);
            assert_eq!(out.len(), n_phases);
            if n_phases > 301 {
                assert!(out[300].norm() > 0.0);
                assert!(out[301..].iter().all(|z| *z == Complex::ZERO));
            }
        }
        // A record shorter than the template has no valid lag at all.
        let bank = CorrelatorBank::new(code, 4);
        assert!(run(&bank, &sig[..m - 1], 50)
            .iter()
            .all(|z| *z == Complex::ZERO));
        assert_eq!(bank.kernel_ops(m - 1, 50), 0);
    }

    #[test]
    fn chip_sums_of_quantizer_output_are_order_independent() {
        // Quantized samples are (k+½)·step with a power-of-two step, so ±1
        // chip sums are exact: the kernel's order (+1 chips, then −1 chips)
        // and ascending, descending or scrambled chip order give the same
        // bits.
        let code = code(7, 10, 11);
        let q = uwb_adc::Quantizer::new(5, 1.0);
        let raw: Vec<Complex> = (0..3000)
            .map(|i| Complex::new((0.37 * i as f64).sin(), (0.11 * i as f64).cos() * 0.8))
            .collect();
        let mut sig = Vec::new();
        q.quantize_scaled_append(&raw, 0.9, &mut sig);
        let n_z = 3000 - (code.chips.len() - 1) * code.samples_per_chip;
        let bank = CorrelatorBank::new(code.clone(), 1);
        let mut z = vec![Complex::ZERO; n_z];
        chip_sums(&bank.plus, &bank.minus, &sig, &mut z);
        let n = code.chips.len();
        let scrambled: Vec<usize> = (0..n).map(|k| (k * 38) % n).collect();
        for (q0, zq) in z.iter().enumerate() {
            for order in [
                (0..n).collect::<Vec<_>>(),
                (0..n).rev().collect(),
                scrambled.clone(),
            ] {
                let mut acc = Complex::ZERO;
                for k in order {
                    acc += sig[q0 + k * code.samples_per_chip] * code.chips[k];
                }
                assert_eq!(acc.re.to_bits(), zq.re.to_bits(), "q {q0}");
                assert_eq!(acc.im.to_bits(), zq.im.to_bits(), "q {q0}");
            }
        }
    }

    #[test]
    fn template_matches_transmitter_layout() {
        // Chip k's pulse occupies [k·S, k·S + L); overlaps add.
        let code = SpreadCode {
            chips: vec![1.0, -1.0, 1.0],
            samples_per_chip: 2,
            pulse: vec![0.5, 1.0, 0.25],
        };
        let re: Vec<f64> = code.template().iter().map(|z| z.re).collect();
        assert_eq!(re, vec![0.5, 1.0, 0.25 - 0.5, -1.0, -0.25 + 0.5, 1.0, 0.25]);
        assert_eq!(code.template_len(), 7);
    }

    #[test]
    fn stats_model_the_hardware_bank() {
        // Every (phases, parallelism): ceil(phases / P) dwells of one
        // template length, 4 real MACs per template sample per phase — the
        // same whether or not the record covers the phase.
        let code = code(6, 10, 11);
        let m = code.template_len() as u64;
        let sig = vec![Complex::ONE; 900];
        for p in [1usize, 4, 16, 32, 64, 128] {
            let bank = CorrelatorBank::new(code.clone(), p);
            for n_phases in [0usize, 1, 31, 32, 33, 640, 1000] {
                let mut out = Vec::new();
                let s = bank.run_prefix_into(&sig, n_phases, &mut out);
                assert_eq!(s.phases_evaluated, n_phases);
                assert_eq!(s.clock_cycles, n_phases.div_ceil(p) as u64 * m);
                assert_eq!(s.mac_ops, n_phases as u64 * m * 4);
            }
        }
        let serial = CorrelatorBank::new(code.clone(), 1);
        let parallel = CorrelatorBank::new(code, 32);
        let mut out = Vec::new();
        let s1 = serial.run_prefix_into(&sig, 512, &mut out);
        let s32 = parallel.run_prefix_into(&sig, 512, &mut out);
        assert_eq!(s1.clock_cycles / s32.clock_cycles, 32);
        // Total MAC work is the same — parallel hardware, same energy.
        assert_eq!(s1.mac_ops, s32.mac_ops);
    }

    #[test]
    fn kernel_ops_count_chip_adds_and_fir_macs() {
        // Gen2 shape: 127 chips, 10 samples apart, 11-tap pulse; 1,278
        // phases over a long record.
        let bank = CorrelatorBank::new(code(7, 10, 11), 32);
        let chip_adds = 2 * (1278 + 10) * 127;
        let fir_macs = 2 * 1278 * 11;
        assert_eq!(bank.kernel_ops(10_000, 1278), chip_adds + fir_macs);
    }

    #[test]
    fn search_time_formula() {
        let stats = CorrelatorStats {
            phases_evaluated: 1000,
            clock_cycles: 500_000,
            mac_ops: 0,
        };
        // 500k cycles at 500 MHz = 1000 us.
        let t = CorrelatorBank::search_time_us(&stats, 500e6);
        assert!((t - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_template_panics() {
        CorrelatorBank::new(
            SpreadCode {
                chips: Vec::new(),
                samples_per_chip: 1,
                pulse: vec![1.0],
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn non_binary_chips_panic() {
        CorrelatorBank::new(
            SpreadCode {
                chips: vec![1.0, 0.5, -1.0],
                samples_per_chip: 1,
                pulse: vec![1.0],
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_panics() {
        CorrelatorBank::new(code(3, 1, 1), 0);
    }
}
