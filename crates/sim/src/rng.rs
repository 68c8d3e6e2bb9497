//! Deterministic randomness plumbing.
//!
//! Every stochastic model in the workspace takes an explicit `u64` seed so
//! experiments are bit-reproducible. The generator is a self-contained
//! xoshiro256++ (no external crates — the build must work with no registry
//! access) seeded through splitmix64, with Gaussian sampling via Box–Muller.
//!
//! [`derive_trial_seed`] is the workspace-wide rule for turning a
//! `(master_seed, trial)` pair into an independent per-trial stream. It
//! replaces the old `seed ^ trial * GOLDEN` convention, which was linear in
//! both arguments (streams collided across scenarios that differed only in
//! seed offsets) and mapped trial 0 to the master seed verbatim.

/// The splitmix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the splitmix64 sequence: advances `state` and returns the
/// next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64_mix(*state)
}

/// Derives the RNG seed for Monte-Carlo trial `trial` of a run with
/// `master_seed`.
///
/// Properties (tested):
/// * `derive_trial_seed(s, 0) != s` — trial 0 does **not** reuse the master
///   seed verbatim;
/// * nonlinear in both arguments — adjacent trials and adjacent master
///   seeds land in unrelated streams, so scenarios run with `seed` and
///   `seed + 1` cannot shadow each other trial-for-trial.
#[inline]
pub fn derive_trial_seed(master_seed: u64, trial: u64) -> u64 {
    // Two chained splitmix64 finalizers with distinct odd offsets: the first
    // decorrelates the master seed, the second folds in the trial index.
    let a = splitmix64_mix(master_seed ^ 0xA076_1D64_78BD_642F);
    splitmix64_mix(a ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xE703_7ED1_A0B4_28DB)
}

/// Number of parallel xoshiro256++ lanes behind [`Rand::fill_gaussian`].
///
/// Eight u64 lanes fill one AVX-512 register; the lane count is part of the
/// block-Gaussian stream definition and must not change without re-pinning
/// the downstream fingerprints.
const GAUSS_LANES: usize = 8;

/// Carry-buffer quantum for [`Rand::fill_gaussian`]: gaussians are always
/// produced in blocks of this many, regardless of how callers partition
/// their requests — that fixed refill quantum is what makes the block
/// stream chunk-size invariant.
const GAUSS_BATCH: usize = 256;

/// A seeded random source with Gaussian sampling.
///
/// ```
/// use uwb_sim::Rand;
/// let mut a = Rand::new(42);
/// let mut b = Rand::new(42);
/// assert_eq!(a.gaussian(), b.gaussian()); // same seed, same stream
/// ```
///
/// Two Gaussian streams coexist (see [`Rand::fill_gaussian`]): the scalar
/// [`Rand::gaussian`] stream drawn from the main xoshiro state, and the
/// block stream drawn from `GAUSS_LANES` independent lanes. They never
/// consume each other's draws, so interleaving calls is well-defined.
#[derive(Debug, Clone)]
pub struct Rand {
    s: [u64; 4],
    spare: Option<f64>,
    /// SoA lane states for the block generator: `lanes[j][i]` is word `j`
    /// of lane `i`'s xoshiro256++ state.
    lanes: [[u64; GAUSS_LANES]; 4],
    /// Carry buffer of already-generated gaussians (`batch[batch_pos..]`
    /// are still unconsumed).
    batch: [f64; GAUSS_BATCH],
    batch_pos: usize,
}

impl Rand {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        // Standard xoshiro seeding: fill the state from a splitmix64 stream.
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // The block-generator lanes continue the same splitmix64 stream, so
        // the main xoshiro state (and every pre-existing pinned stream) is
        // unchanged by their presence.
        let mut lanes = [[0u64; GAUSS_LANES]; 4];
        for i in 0..GAUSS_LANES {
            for word in lanes.iter_mut() {
                word[i] = splitmix64(&mut sm);
            }
        }
        Rand {
            s,
            spare: None,
            lanes,
            batch: [0.0; GAUSS_BATCH],
            batch_pos: GAUSS_BATCH,
        }
    }

    /// Creates the generator for trial `trial` of a run seeded with
    /// `master_seed` (see [`derive_trial_seed`]).
    pub fn for_trial(master_seed: u64, trial: u64) -> Self {
        Rand::new(derive_trial_seed(master_seed, trial))
    }

    /// Raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; `label` decorrelates children
    /// of the same parent seed.
    pub fn fork(&mut self, label: u64) -> Rand {
        let s = self.next_u64() ^ splitmix64_mix(label.wrapping_add(0x9E37_79B9_7F4A_7C15));
        Rand::new(s)
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Widening-multiply rejection sampling (Lemire): unbiased.
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n || low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// A random boolean with probability `p` of being `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A random bit (fair coin).
    pub fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Fills a byte buffer with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }

    /// Standard normal sample (Box–Muller with caching of the spare value).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u1 = self.uniform();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Fills `out` with standard normal samples from the **block stream**.
    ///
    /// The block stream is generated `GAUSS_BATCH` samples at a time by
    /// `GAUSS_LANES` lane-parallel xoshiro256++ generators feeding a
    /// batched, branch-free Box–Muller (polynomial `ln` and `sin`/`cos`
    /// kernels from [`uwb_dsp::simd`] — the whole refill autovectorizes).
    /// A carry buffer hands out samples across calls, so the stream depends
    /// only on *how many* gaussians have been drawn, never on how the
    /// requests were partitioned (chunk-size invariance, tested).
    ///
    /// This is a **different stream** from the scalar [`Rand::gaussian`]:
    /// the two share a seed but not draws, and their values differ.
    ///
    /// Per-pair math: `u1 = (k1 + 1)·2⁻⁵³ ∈ (0, 1]` (no rejection loop —
    /// `u1 = 1` gives radius 0), `u2 = k2·2⁻⁵³ ∈ [0, 1)`, then
    /// `r = √(−2 ln u1)` and the pair is `(r·cos τu2, r·sin τu2)`, matching
    /// the scalar draw's cos-then-sin order.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.batch_pos == GAUSS_BATCH {
                self.refill_gaussian_batch();
            }
            let n = (out.len() - filled).min(GAUSS_BATCH - self.batch_pos);
            out[filled..filled + n]
                .copy_from_slice(&self.batch[self.batch_pos..self.batch_pos + n]);
            self.batch_pos += n;
            filled += n;
        }
    }

    /// Advances all [`GAUSS_LANES`] lane generators one step, writing each
    /// lane's xoshiro256++ output to `out`. Both loops are lane-wise
    /// independent, so they lower to vector shifts/rotates/adds.
    #[inline]
    // Index form keeps the four state rows visibly in lockstep per lane;
    // an iterator chain over one row would obscure that and change nothing.
    #[allow(clippy::needless_range_loop)]
    fn step_lanes(lanes: &mut [[u64; GAUSS_LANES]; 4], out: &mut [u64; GAUSS_LANES]) {
        for i in 0..GAUSS_LANES {
            out[i] = lanes[0][i]
                .wrapping_add(lanes[3][i])
                .rotate_left(23)
                .wrapping_add(lanes[0][i]);
        }
        for i in 0..GAUSS_LANES {
            let t = lanes[1][i] << 17;
            lanes[2][i] ^= lanes[0][i];
            lanes[3][i] ^= lanes[1][i];
            lanes[1][i] ^= lanes[2][i];
            lanes[0][i] ^= lanes[3][i];
            lanes[2][i] ^= t;
            lanes[3][i] = lanes[3][i].rotate_left(45);
        }
    }

    /// Regenerates the carry buffer: [`GAUSS_BATCH`]`/2` Box–Muller pairs
    /// in four flat passes (raw draws → uniforms, batched `ln`, batched
    /// `sin`/`cos`, combine). All scratch lives on the stack — the warm
    /// path stays allocation-free.
    fn refill_gaussian_batch(&mut self) {
        const PAIRS: usize = GAUSS_BATCH / 2;
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let mut u1 = [0.0f64; PAIRS];
        let mut u2 = [0.0f64; PAIRS];
        let mut buf = [0u64; GAUSS_LANES];
        // Radius uniforms first, then angle uniforms: lane step k feeds
        // samples k*LANES..(k+1)*LANES, in lane order.
        for k in 0..PAIRS / GAUSS_LANES {
            Self::step_lanes(&mut self.lanes, &mut buf);
            for (u, &raw) in u1[k * GAUSS_LANES..].iter_mut().zip(&buf) {
                *u = ((raw >> 11) + 1) as f64 * SCALE; // (0, 1]
            }
        }
        for k in 0..PAIRS / GAUSS_LANES {
            Self::step_lanes(&mut self.lanes, &mut buf);
            for (u, &raw) in u2[k * GAUSS_LANES..].iter_mut().zip(&buf) {
                *u = (raw >> 11) as f64 * SCALE; // [0, 1)
            }
        }
        let mut lnv = [0.0f64; PAIRS];
        uwb_dsp::simd::ln_block(&u1, &mut lnv);
        let mut sin = [0.0f64; PAIRS];
        let mut cos = [0.0f64; PAIRS];
        uwb_dsp::simd::sincos_tau_block(&u2, &mut sin, &mut cos);
        for k in 0..PAIRS {
            let r = (-2.0 * lnv[k]).sqrt();
            self.batch[2 * k] = r * cos[k];
            self.batch[2 * k + 1] = r * sin[k];
        }
        self.batch_pos = 0;
    }

    /// Exponential sample with the given rate λ (mean `1/λ`).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::math::{mean, variance};

    #[test]
    fn determinism() {
        let mut a = Rand::new(7);
        let mut b = Rand::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.gaussian(), b.gaussian());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rand::new(1);
        let mut b = Rand::new(2);
        let va: Vec<f64> = (0..10).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = Rand::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let v1: Vec<f64> = (0..10).map(|_| c1.uniform()).collect();
        let v2: Vec<f64> = (0..10).map(|_| c2.uniform()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn trial_seed_distinct_from_master() {
        for seed in [0u64, 1, 42, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            assert_ne!(derive_trial_seed(seed, 0), seed, "seed {seed:#x}");
        }
    }

    #[test]
    fn trial_seeds_do_not_collide_across_adjacent_masters() {
        // The old linear rule had seed ^ trial*G collide whenever
        // (s1 ^ s2) == (t1 ^ t2) * G; the mixed rule must not.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for seed in 0..64u64 {
            for trial in 0..256u64 {
                assert!(
                    seen.insert(derive_trial_seed(seed, trial)),
                    "collision at seed {seed}, trial {trial}"
                );
            }
        }
    }

    #[test]
    fn trial_streams_decorrelated() {
        // Adjacent trials produce unrelated uniform streams.
        let mut a = Rand::for_trial(123, 0);
        let mut b = Rand::for_trial(123, 1);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // And the same (seed, trial) always reproduces.
        let mut c = Rand::for_trial(123, 0);
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vc);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rand::new(123);
        let v: Vec<f64> = (0..200_000).map(|_| r.gaussian()).collect();
        assert!(mean(&v).abs() < 0.02, "mean {}", mean(&v));
        assert!((variance(&v) - 1.0).abs() < 0.03, "var {}", variance(&v));
    }

    #[test]
    fn fill_gaussian_chunk_invariance() {
        // The block stream must depend only on how many samples were drawn,
        // never on the partition of the requests.
        let mut whole = vec![0.0; 1000];
        Rand::new(77).fill_gaussian(&mut whole);
        for chunks in [
            vec![1000],
            vec![1, 999],
            vec![255, 256, 257, 232],
            vec![7; 143],
        ] {
            let mut r = Rand::new(77);
            let mut got = Vec::new();
            for c in chunks {
                let mut part = vec![0.0; c];
                r.fill_gaussian(&mut part);
                got.extend_from_slice(&part);
            }
            got.truncate(1000);
            let whole_bits: Vec<u64> = whole.iter().map(|x| x.to_bits()).collect();
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(whole_bits, got_bits);
        }
    }

    #[test]
    fn fill_gaussian_moments() {
        let mut r = Rand::new(321);
        let mut v = vec![0.0; 400_000];
        r.fill_gaussian(&mut v);
        assert!(mean(&v).abs() < 0.01, "mean {}", mean(&v));
        assert!((variance(&v) - 1.0).abs() < 0.02, "var {}", variance(&v));
        // Tail sanity: |z| > 3 should appear at ~0.27%.
        let tail = v.iter().filter(|x| x.abs() > 3.0).count() as f64 / v.len() as f64;
        assert!((0.001..0.006).contains(&tail), "3-sigma tail {tail}");
        // And the samples must be finite — the (0, 1] radius uniform rules
        // out ln(0) without a rejection loop.
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn fill_gaussian_is_a_distinct_stream_from_scalar() {
        // Documented contract: the block stream shares the seed, not the
        // draws. It must differ from the scalar stream and leave it intact.
        let mut r = Rand::new(55);
        let mut block = vec![0.0; 8];
        r.fill_gaussian(&mut block);
        let scalar: Vec<f64> = {
            let mut s = Rand::new(55);
            (0..8).map(|_| s.gaussian()).collect()
        };
        assert_ne!(block, scalar);
        // Drawing from the block stream must not perturb the main stream.
        let mut clean = Rand::new(55);
        for _ in 0..8 {
            let a = r.gaussian();
            let b = clean.gaussian();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rand::new(11);
        let rate = 4.0;
        let v: Vec<f64> = (0..100_000).map(|_| r.exponential(rate)).collect();
        assert!((mean(&v) - 1.0 / rate).abs() < 0.01);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rand::new(19);
        for _ in 0..1000 {
            let x = r.uniform_in(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
            let k = r.below(7);
            assert!(k < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rand::new(29);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.below(5)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Rand::new(31);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // 13 bytes from a 64-bit generator: all-zero tail is astronomically
        // unlikely; equality with a fresh fill from the same seed must hold.
        let mut r2 = Rand::new(31);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rand::new(23);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rand::new(0).below(0);
    }
}
