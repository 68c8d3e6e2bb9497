//! Streaming (block-based) forms of the channel/impairment models.
//!
//! These operators implement [`uwb_dsp::stream::BlockProcessor`] so the
//! TX→RX chain runs at a fixed block size with memory independent of
//! record length (paper §1/§3: the receiver is a continuously running
//! chain, not a batch processor). Every link trial synthesizes its record
//! through them.
//!
//! All three operators are *chunk-size invariant* (see
//! `uwb_dsp::stream`): any partition of the record into blocks yields
//! bit-identical concatenated output, because every per-output-sample
//! summation order is fixed and all cross-boundary history (channel tail,
//! oscillator phase, RNG position) is carried in state.
//!
//! They are the only multipath, interferer and complex-noise code.
//! [`ChannelRealization::apply`] and [`Interferer::add_to`] /
//! [`Interferer::generate`] run the channel and interferer over the whole
//! record as one block, and [`crate::awgn::add_awgn_complex`] runs
//! [`StreamingAwgn`]'s noise loop, so a record composed from the batch
//! helpers equals a streamed trial's bit for bit.
//!
//! [`StreamingChannel`] is a direct-form convolution with a fixed summation
//! contract: per output, ascending k from a `+0.0` accumulator; outputs are
//! computed a tile at a time, and tiling never reorders a sum. Two kernels
//! honour that contract. When every sample of `[history | block]` has a
//! zero imaginary part (the transmitted burst is real baseband BPSK), a
//! real-input kernel adds `h.re·x` and `h.im·x` into two `f64`
//! accumulators; otherwise the complex kernel adds `h·x`. For finite taps
//! and inputs they agree bit for bit: the products the real kernel drops
//! (`h.im·x.im`, `h.re·x.im`) are ±0, a round-to-nearest sum that starts at
//! `+0.0` never becomes `−0.0` (exact cancellation gives `+0.0`), so adding
//! ±0 never changes it, and every nonzero term is the same product either
//! way. A single-tap channel (AWGN scenarios) is a plain scaling.
//!
//! [`StreamingInterferer`] draws its starting phase from the caller's RNG;
//! the modulated kind also forks a private symbol RNG, because a stream of
//! unknown length cannot leave the shared RNG in a record-independent
//! state.

use crate::awgn::{add_complex_noise, complex_sigma};
use crate::interference::{Interferer, InterfererKind};
use crate::rng::Rand;
use crate::sv_channel::ChannelRealization;
use crate::time::SampleRate;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Complex, DspScratch, Nco};

/// Outputs per pass of the complex multi-tap kernel over the taps: each
/// tile keeps this many complex accumulators live. Sixteen fill eight
/// 256-bit registers; on a 2-vCPU AVX-512 host `dspbench`'s
/// `stream_channel_cm1_4096` row ran level with 8 and ahead of 32 (which
/// spills), at about twice the speed of one output at a time. The width
/// only sets how many sums run side by side, never the order within one,
/// so changing it cannot change a bit of output.
const TILE: usize = 16;

/// Outputs per pass of the real-input kernel: 32 `re` and 32 `im` `f64`
/// accumulators. Picked by measurement on the same host, over one
/// 23,820-sample CM1 burst streamed in 4,096-sample blocks (median of 300
/// runs, three rounds): 8, 16 and 24 ran 1.4–2× slower than 32, 64 lost
/// and 48 ran level; in the `link_ber_cm1` trial 32 beat 16 in 4 of 5
/// alternating pairs. As with [`TILE`], the width cannot change a bit of
/// output.
const REAL_TILE: usize = 32;

/// Whether every imaginary part in `xs` is ±0 (a branch-free sweep, no
/// early exit, so it vectorizes).
fn all_real(xs: &[Complex]) -> bool {
    xs.iter().fold(true, |real, z| real & (z.im == 0.0))
}

/// One tile of the real-input kernel: `out[w] = Σ_k h[k]·x[L-1+w-k]` for
/// `w < REAL_TILE`, summed in ascending `k` from `+0.0`. As in the complex
/// kernel, one pass over the taps serves the whole tile, but the w-th
/// output's re and im sums live in two `f64` arrays: two real
/// multiply-adds per tap and output, no re/im shuffles. Kept out of line
/// so the accumulators stay in registers whatever the caller's shape:
/// inlined into the block loop, one variant of the caller spilled them
/// and ran about 4× slower.
#[inline(never)]
fn real_tile(h: &[Complex], x: &[f64], out: &mut [Complex]) {
    let l = h.len();
    let mut re = [0.0f64; REAL_TILE];
    let mut im = [0.0f64; REAL_TILE];
    for (k, hk) in h.iter().enumerate() {
        let xs = &x[l - 1 - k..][..REAL_TILE];
        for w in 0..REAL_TILE {
            re[w] += hk.re * xs[w];
            im[w] += hk.im * xs[w];
        }
    }
    for (o, (&r, &i)) in out.iter_mut().zip(re.iter().zip(&im)) {
        *o = Complex::new(r, i);
    }
}

/// Blocks a [`StreamingChannel`] has run on each kernel since it was
/// built: a deterministic record of which path the data took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Blocks on a single-tap channel (plain scaling).
    pub single_tap: u64,
    /// Multi-tap blocks whose `[history | block]` was all real.
    pub real: u64,
    /// Multi-tap blocks with a nonzero imaginary part somewhere.
    pub complex: u64,
}

/// Stateful direct-form channel convolver: carries the multipath tail
/// across block boundaries and emits it on flush.
///
/// For an `L`-tap discretized impulse response the carried state is the
/// last `L-1` input samples — the peak footprint is O(block + channel
/// tail), independent of record length. Output sample `y[n]` is
/// `Σ_{k=0..L} h[k]·x[n-k]` accumulated in ascending `k`, so the block
/// partition never changes the arithmetic. The flushed tail is the same
/// kernel run over `L-1` zero inputs. Each block picks the real-input or
/// the complex kernel from its own samples (module docs); both give the
/// same bits.
#[derive(Debug, Clone, Default)]
pub struct StreamingChannel {
    /// Discretized impulse response.
    h: Vec<Complex>,
    /// Last `h.len()-1` input samples, oldest first.
    history: Vec<Complex>,
    /// The real-input kernel's `[history | block]` real parts.
    real_ext: Vec<f64>,
    counts: KernelCounts,
}

impl StreamingChannel {
    /// An unconfigured (identity, zero-tap-history) convolver.
    pub fn new() -> Self {
        StreamingChannel {
            h: vec![Complex::ONE],
            ..StreamingChannel::default()
        }
    }

    /// Builds a convolver for one channel realization at sample rate `fs`.
    pub fn from_realization(ch: &ChannelRealization, fs: SampleRate) -> Self {
        let mut s = StreamingChannel::new();
        s.configure(ch, fs);
        s
    }

    /// Re-discretizes `ch` into this convolver, reusing storage and
    /// clearing the carried history (allocation-free once capacities have
    /// reached their high-water marks). The per-trial entry point.
    pub fn configure(&mut self, ch: &ChannelRealization, fs: SampleRate) {
        ch.discretize_into(fs, &mut self.h);
        self.history.clear();
        self.history.resize(self.h.len() - 1, Complex::ZERO);
    }

    /// Length of the carried tail (`L-1` for an `L`-tap response) — the
    /// number of samples `flush_into` will emit.
    pub fn tail_len(&self) -> usize {
        self.history.len()
    }

    /// Blocks run on each kernel since construction (flushes included).
    pub fn kernel_counts(&self) -> KernelCounts {
        self.counts
    }

    /// The complex kernel: `acc += h[k]·x` over a complex
    /// `[history | block]` copy.
    fn convolve_complex(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
        let l = self.h.len();
        let n = block.len();
        // ext = [history | block input]: every x[n-k] an output needs.
        let mut ext = scratch.take_complex(l - 1 + n);
        ext[..l - 1].copy_from_slice(&self.history);
        ext[l - 1..].copy_from_slice(block);
        let tiled = n - n % TILE;
        let mut tiles = block.chunks_exact_mut(TILE);
        for (t, out) in (&mut tiles).enumerate() {
            // Outputs j0..j0+TILE: one pass over the taps, each step adding
            // h[k]·x[j0+w-k] to the w-th accumulator. Every output still
            // sums its terms in ascending k; the TILE accumulators are
            // independent chains the vectorizer can run side by side.
            let j0 = t * TILE;
            let mut acc = [Complex::ZERO; TILE];
            for (k, &hk) in self.h.iter().enumerate() {
                let x = &ext[l - 1 + j0 - k..][..TILE];
                for (a, &xw) in acc.iter_mut().zip(x) {
                    *a += hk * xw;
                }
            }
            out.copy_from_slice(&acc);
        }
        // The last `n mod TILE` outputs, one serial sum each.
        for (j, out) in tiles.into_remainder().iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (k, &hk) in self.h.iter().enumerate() {
                acc += hk * ext[l - 1 + tiled + j - k];
            }
            *out = acc;
        }
        self.history.copy_from_slice(&ext[n..]);
        scratch.put_complex(ext);
    }

    /// The real-input kernel, for a `[history | block]` whose imaginary
    /// parts are all ±0: `re += h[k].re·x` and `im += h[k].im·x` over the
    /// real parts, in the complex kernel's tiles and tap order.
    fn convolve_real(&mut self, block: &mut [Complex]) {
        let l = self.h.len();
        let n = block.len();
        self.real_ext.clear();
        self.real_ext.extend(self.history.iter().map(|z| z.re));
        self.real_ext.extend(block.iter().map(|z| z.re));
        let (x, h) = (&self.real_ext[..], &self.h[..]);
        // The carried history is the last L-1 complex inputs (their zero
        // imaginary parts keep their signs); take it before the block is
        // overwritten with outputs.
        if n >= l - 1 {
            self.history.copy_from_slice(&block[n - (l - 1)..]);
        } else {
            self.history.copy_within(n.., 0);
            self.history[l - 1 - n..].copy_from_slice(block);
        }
        let tiled = n - n % REAL_TILE;
        let mut tiles = block.chunks_exact_mut(REAL_TILE);
        for (t, out) in (&mut tiles).enumerate() {
            real_tile(h, &x[t * REAL_TILE..], out);
        }
        // The last `n mod REAL_TILE` outputs, one serial sum each.
        for (j, out) in tiles.into_remainder().iter_mut().enumerate() {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (k, hk) in h.iter().enumerate() {
                let xv = x[l - 1 + tiled + j - k];
                re += hk.re * xv;
                im += hk.im * xv;
            }
            *out = Complex::new(re, im);
        }
    }
}

impl BlockProcessor for StreamingChannel {
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
        if self.h.len() == 1 {
            // Single-tap channel: plain scaling (`z * g`, no accumulator —
            // `MulAssign` expands to exactly `*z = *z * g`).
            self.counts.single_tap += 1;
            let g = self.h[0];
            for z in block.iter_mut() {
                *z *= g;
            }
            return;
        }
        if all_real(&self.history) && all_real(block) {
            self.counts.real += 1;
            self.convolve_real(block);
        } else {
            self.counts.complex += 1;
            self.convolve_complex(block, scratch);
        }
    }

    fn flush_into(&mut self, out: &mut Vec<Complex>, scratch: &mut DspScratch) {
        // Tail outputs y[N+t], t in 0..L-1, are the response to L-1 zero
        // inputs: the same kernel, fed zeros. The zero terms h[k]·0 come
        // first in each sum and leave the +0.0 accumulator at +0.0, so the
        // tail is bit-identical to summing only the history terms.
        let start = out.len();
        out.resize(start + self.history.len(), Complex::ZERO);
        self.process_block(&mut out[start..], scratch);
        for z in self.history.iter_mut() {
            *z = Complex::ZERO;
        }
    }

    fn reset(&mut self) {
        for z in self.history.iter_mut() {
            *z = Complex::ZERO;
        }
    }
}

/// Streaming AWGN source: adds circularly-symmetric complex noise of total
/// power `noise_power`, drawing I then Q per sample in record order from an
/// owned RNG.
///
/// Seeded with the RNG state the batch path would hold when calling
/// [`crate::awgn::add_awgn_complex_in_place`], the streamed record is
/// bit-identical to the batch record for any block partition: both run the
/// same noise loop.
#[derive(Debug, Clone)]
pub struct StreamingAwgn {
    sigma: f64,
    rng: Rand,
    initial: Rand,
}

impl StreamingAwgn {
    /// A noise source of total power `noise_power`, consuming `rng` as its
    /// private draw stream. Negative `noise_power` is a caller bug: panics
    /// in debug builds, clamps to zero in release builds.
    pub fn new(noise_power: f64, rng: Rand) -> Self {
        StreamingAwgn {
            sigma: complex_sigma(noise_power),
            initial: rng.clone(),
            rng,
        }
    }

    /// Re-arms the source for a new record: new noise power, new RNG state.
    /// Negative `noise_power` is a caller bug: panics in debug builds,
    /// clamps to zero in release builds.
    pub fn configure(&mut self, noise_power: f64, rng: Rand) {
        self.sigma = complex_sigma(noise_power);
        self.initial = rng.clone();
        self.rng = rng;
    }

    /// Adds this source's noise to a record held as `re` and `im` planes
    /// and writes the complex result to `out`, replacing its contents:
    /// sample `i` becomes `(re[i] + σ·g0, im[i] + σ·g1)`, where `im[i]` is
    /// `+0.0` when `im` is `None`. The draws and their order are those of
    /// [`BlockProcessor::process_block`] over the interleaved record, so
    /// the output is bit-identical to interleaving the planes and running
    /// it. The `+0.0` is added, not dropped: at `σ = 0` a negative draw
    /// makes `σ·g1` a `−0.0` that `+0.0 + σ·g1` rounds back to `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `im` is present and its length differs from `re`'s.
    pub fn add_to_planes(&mut self, re: &[f64], im: Option<&[f64]>, out: &mut Vec<Complex>) {
        if let Some(im) = im {
            assert_eq!(im.len(), re.len(), "re and im planes must be equally long");
        }
        out.clear();
        out.reserve(re.len());
        let sigma = self.sigma;
        let mut buf = [0.0f64; 256];
        for (k, re) in re.chunks(128).enumerate() {
            let g = &mut buf[..2 * re.len()];
            self.rng.fill_gaussian(g);
            let noisy = |(&r, &i, g): (&f64, &f64, &[f64])| {
                Complex::new(r + sigma * g[0], i + sigma * g[1])
            };
            match im {
                Some(im) => {
                    let im = &im[128 * k..][..re.len()];
                    out.extend(
                        re.iter()
                            .zip(im)
                            .zip(g.chunks_exact(2))
                            .map(|((r, i), g)| noisy((r, i, g))),
                    );
                }
                None => out.extend(
                    re.iter()
                        .zip(g.chunks_exact(2))
                        .map(|(r, g)| noisy((r, &0.0, g))),
                ),
            }
        }
    }
}

impl BlockProcessor for StreamingAwgn {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        // The carry buffer inside the RNG makes the block partition
        // unobservable (chunk-size invariance).
        add_complex_noise(block, self.sigma, &mut self.rng);
    }

    fn reset(&mut self) {
        self.rng = self.initial.clone();
    }
}

/// Carried state of a [`StreamingInterferer`], per interferer kind.
#[derive(Debug, Clone)]
enum InterfererState {
    /// CW tone: phase-continuous oscillator.
    Cw { nco: Nco },
    /// BPSK-modulated tone: oscillator + symbol clock + private symbol RNG.
    /// The RNGs are boxed: `Rand` carries its block-Gaussian carry buffer
    /// inline (~2.5 KB), which would otherwise balloon every variant of this
    /// enum. Both boxes are allocated at construction; `reset` refills the
    /// existing allocation via `clone_from`.
    Modulated {
        nco: Nco,
        sps: usize,
        idx: usize,
        symbol: f64,
        rng: Box<Rand>,
        initial_rng: Box<Rand>,
    },
}

/// Streaming narrowband interferer: adds the tone to each block with all
/// oscillator/symbol state carried across boundaries.
///
/// Construction draws the starting phase from the caller's RNG; the
/// modulated kind additionally forks `rng` for its per-symbol draws (see
/// module docs).
#[derive(Debug, Clone)]
pub struct StreamingInterferer {
    amp: f64,
    offset_hz: f64,
    fs_hz: f64,
    phase0: f64,
    state: InterfererState,
}

impl StreamingInterferer {
    /// Builds the streaming form of `intf` at sample rate `fs_hz`, drawing
    /// the starting phase (and, for the modulated kind, a forked symbol
    /// stream) from `rng`.
    pub fn new(intf: &Interferer, fs_hz: f64, rng: &mut Rand) -> Self {
        let phase0 = rng.uniform_in(0.0, std::f64::consts::TAU);
        let state = match &intf.kind {
            InterfererKind::ContinuousWave => InterfererState::Cw {
                nco: Nco::with_phase(intf.offset_hz, fs_hz, phase0),
            },
            InterfererKind::Modulated { symbol_rate_hz } => {
                let symbol_rng = rng.fork(0x7354_5245_414d); // "STREAM"
                InterfererState::Modulated {
                    nco: Nco::with_phase(intf.offset_hz, fs_hz, phase0),
                    sps: (fs_hz / symbol_rate_hz).max(1.0) as usize,
                    idx: 0,
                    symbol: 1.0,
                    initial_rng: Box::new(symbol_rng.clone()),
                    rng: Box::new(symbol_rng),
                }
            }
        };
        StreamingInterferer {
            amp: intf.power.sqrt(),
            offset_hz: intf.offset_hz,
            fs_hz,
            phase0,
            state,
        }
    }
}

impl BlockProcessor for StreamingInterferer {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        let amp = self.amp;
        match &mut self.state {
            InterfererState::Cw { nco } => {
                for z in block.iter_mut() {
                    *z += nco.next_complex() * amp;
                }
            }
            InterfererState::Modulated {
                nco,
                sps,
                idx,
                symbol,
                rng,
                ..
            } => {
                for z in block.iter_mut() {
                    if *idx % *sps == 0 {
                        *symbol = if rng.bit() { 1.0 } else { -1.0 };
                    }
                    *z += nco.next_complex() * (amp * *symbol);
                    *idx += 1;
                }
            }
        }
    }

    fn reset(&mut self) {
        match &mut self.state {
            InterfererState::Cw { nco } => {
                *nco = Nco::with_phase(self.offset_hz, self.fs_hz, self.phase0);
            }
            InterfererState::Modulated {
                nco,
                idx,
                symbol,
                rng,
                initial_rng,
                ..
            } => {
                *nco = Nco::with_phase(self.offset_hz, self.fs_hz, self.phase0);
                *idx = 0;
                *symbol = 1.0;
                // clone_from reuses the box's existing allocation, keeping
                // reset allocation-free on the warm path.
                rng.clone_from(initial_rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awgn::add_awgn_complex_in_place;
    use crate::sv_channel::ChannelModel;
    use uwb_dsp::stream::{assert_chunk_invariant, process_record};

    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((0.11 * i as f64).sin(), (0.07 * i as f64).cos()))
            .collect()
    }

    /// The one-output-at-a-time convolver the tiled kernel replaced, kept
    /// as the bit-parity oracle: each output is one serial ascending-k
    /// sum, and the tail is summed over the carried history alone.
    struct ReferenceChannel {
        h: Vec<Complex>,
        history: Vec<Complex>,
    }

    impl ReferenceChannel {
        fn new(ch: &ChannelRealization, fs: SampleRate) -> Self {
            let h = ch.discretize(fs);
            let history = vec![Complex::ZERO; h.len() - 1];
            ReferenceChannel { h, history }
        }
    }

    impl BlockProcessor for ReferenceChannel {
        fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
            let l = self.h.len();
            let n = block.len();
            let mut ext = self.history.clone();
            ext.extend_from_slice(block);
            for (j, out) in block.iter_mut().enumerate() {
                let mut acc = Complex::ZERO;
                for (k, &hk) in self.h.iter().enumerate() {
                    acc += hk * ext[l - 1 + j - k];
                }
                *out = acc;
            }
            self.history.copy_from_slice(&ext[n..]);
        }

        fn flush_into(&mut self, out: &mut Vec<Complex>, _scratch: &mut DspScratch) {
            let l = self.h.len();
            for t in 0..l - 1 {
                let mut acc = Complex::ZERO;
                for k in (t + 1)..l {
                    acc += self.h[k] * self.history[l - 1 - (k - t)];
                }
                out.push(acc);
            }
            self.history.fill(Complex::ZERO);
        }

        fn reset(&mut self) {
            self.history.fill(Complex::ZERO);
        }
    }

    /// Bit-for-bit equality (`==` on `Complex` would let `-0.0` pass for
    /// `+0.0`).
    fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}: sample {i}: {g:?} vs {w:?}"
            );
        }
    }

    const MULTIPATH: [ChannelModel; 4] = [
        ChannelModel::Cm1,
        ChannelModel::Cm2,
        ChannelModel::Cm3,
        ChannelModel::Cm4,
    ];

    #[test]
    fn channel_is_chunk_invariant_and_matches_apply_bitwise() {
        let mut rng = Rand::new(77);
        let fs = SampleRate::from_gsps(1.0);
        let sig = test_signal(700);
        for ch in [
            ChannelRealization::identity(),
            ChannelRealization::generate(ChannelModel::Cm2, &mut rng),
        ] {
            assert_chunk_invariant(
                &sig,
                &[1, 13, TILE - 1, TILE, TILE + 1, 64, 255, 700, 2000],
                || StreamingChannel::from_realization(&ch, fs),
            );
            let mut streamed = sig.clone();
            let mut scratch = DspScratch::new();
            let mut conv = StreamingChannel::from_realization(&ch, fs);
            process_record(&mut conv, &mut streamed, 128, &mut scratch);
            assert_bits_eq(
                &streamed,
                &ch.apply(&sig, fs),
                &format!("{} taps", conv.tail_len() + 1),
            );
        }
    }

    #[test]
    fn tiled_channel_matches_reference_bitwise() {
        let fs = SampleRate::from_gsps(1.0);
        let mut rng = Rand::new(1414);
        let mut scratch = DspScratch::new();
        for model in MULTIPATH {
            for _ in 0..2 {
                let ch = ChannelRealization::generate(model, &mut rng);
                // Record lengths off the tile grid, one longer than the
                // largest block so that block splits mid-record.
                for len in [TILE - 3, 5 * TILE + 7, 4096 + 9] {
                    let sig = test_signal(len);
                    let mut want = sig.clone();
                    let mut oracle = ReferenceChannel::new(&ch, fs);
                    process_record(&mut oracle, &mut want, 64, &mut scratch);
                    for bl in [1, 3, TILE - 1, TILE, TILE + 1, 255, 4096] {
                        let mut got = sig.clone();
                        let mut conv = StreamingChannel::from_realization(&ch, fs);
                        process_record(&mut conv, &mut got, bl, &mut scratch);
                        assert_bits_eq(&got, &want, &format!("{model:?} len {len} block {bl}"));
                    }
                }
            }
        }
    }

    /// A [`StreamingChannel`] held on the complex kernel for every block,
    /// flush included: the oracle the real-input kernel must match.
    struct ComplexKernel(StreamingChannel);

    impl BlockProcessor for ComplexKernel {
        fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
            self.0.convolve_complex(block, scratch);
        }

        fn flush_into(&mut self, out: &mut Vec<Complex>, scratch: &mut DspScratch) {
            let start = out.len();
            out.resize(start + self.0.history.len(), Complex::ZERO);
            self.0.convolve_complex(&mut out[start..], scratch);
            self.0.history.fill(Complex::ZERO);
        }

        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// A real burst as the transmitter emits it: pulses of both signs,
    /// runs of exact zeros (guard samples, some `-0.0`), and imaginary
    /// parts that alternate between `+0.0` and `-0.0`.
    fn real_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let re = match (i / 29) % 4 {
                    3 if i % 2 == 0 => 0.0,
                    3 => -0.0,
                    _ => (0.37 * i as f64).sin() * 1.5,
                };
                Complex::new(re, if i % 3 == 0 { -0.0 } else { 0.0 })
            })
            .collect()
    }

    #[test]
    fn real_kernel_matches_complex_kernel_and_reference_bitwise() {
        let fs = SampleRate::from_gsps(1.0);
        let mut rng = Rand::new(2020);
        let mut scratch = DspScratch::new();
        for model in MULTIPATH {
            for _ in 0..2 {
                let ch = ChannelRealization::generate(model, &mut rng);
                for len in [13, 87, 4105] {
                    let sig = real_signal(len);
                    let mut want = sig.clone();
                    let mut oracle = ReferenceChannel::new(&ch, fs);
                    process_record(&mut oracle, &mut want, 64, &mut scratch);
                    for bl in [1, 15, 16, 17, 31, 32, 33, 255, 4096] {
                        let what = format!("{model:?} len {len} block {bl}");
                        let mut got = sig.clone();
                        let mut conv = StreamingChannel::from_realization(&ch, fs);
                        process_record(&mut conv, &mut got, bl, &mut scratch);
                        assert_bits_eq(&got, &want, &what);
                        // Every block and the flush ran the real kernel.
                        let blocks = len.div_ceil(bl) as u64 + 1;
                        let counts = conv.kernel_counts();
                        assert_eq!(counts.real, blocks, "{what}: {counts:?}");
                        assert_eq!(counts.complex, 0, "{what}: {counts:?}");

                        let mut complex = sig.clone();
                        let mut forced = ComplexKernel(StreamingChannel::from_realization(&ch, fs));
                        process_record(&mut forced, &mut complex, bl, &mut scratch);
                        assert_bits_eq(&got, &complex, &format!("{what} vs complex kernel"));
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_switch_checks_the_history_with_the_block() {
        let fs = SampleRate::from_gsps(1.0);
        let mut rng = Rand::new(31);
        let mut scratch = DspScratch::new();
        // One complex sample at index `hot` in an otherwise real record:
        // every block whose [history | block] window still holds it must
        // take the complex kernel, or its imaginary part would be lost.
        let len = 1500;
        let hot = 20;
        let mut sig = real_signal(len);
        sig[hot].im = 0.75;
        for model in MULTIPATH {
            let ch = ChannelRealization::generate(model, &mut rng);
            let mut want = sig.clone();
            let mut oracle = ReferenceChannel::new(&ch, fs);
            process_record(&mut oracle, &mut want, 64, &mut scratch);
            for bl in [1, 15, 16, 17, 33, 255] {
                let what = format!("{model:?} block {bl}");
                let mut got = sig.clone();
                let mut conv = StreamingChannel::from_realization(&ch, fs);
                let tail = conv.tail_len();
                assert!(tail + hot < len, "{what}: record too short for the test");
                process_record(&mut conv, &mut got, bl, &mut scratch);
                assert_bits_eq(&got, &want, &what);
                // Block b covers inputs [b·bl, b·bl + bl) and sees history
                // back to b·bl − tail.
                let complex = (0..len.div_ceil(bl))
                    .filter(|b| b * bl <= hot + tail && hot < (b + 1) * bl)
                    .count() as u64;
                let counts = conv.kernel_counts();
                assert_eq!(counts.complex, complex, "{what}: {counts:?}");
                assert_eq!(
                    counts.real,
                    len.div_ceil(bl) as u64 + 1 - complex,
                    "{what}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn flush_through_kernel_matches_history_only_tail_bitwise() {
        let fs = SampleRate::from_gsps(1.0);
        let mut rng = Rand::new(2005);
        let mut scratch = DspScratch::new();
        // Negative, zero and sign-alternating inputs, so the zero-input
        // terms of the tail multiply taps of both signs.
        let sig: Vec<Complex> = (0..300)
            .map(|i| Complex::new(-(0.13 * i as f64).cos(), (0.29 * i as f64).sin()))
            .collect();
        for model in MULTIPATH {
            for _ in 0..50 {
                let ch = ChannelRealization::generate(model, &mut rng);
                let mut conv = StreamingChannel::from_realization(&ch, fs);
                let mut oracle = ReferenceChannel::new(&ch, fs);
                let mut a = sig.clone();
                let mut b = sig.clone();
                conv.process_block(&mut a, &mut scratch);
                oracle.process_block(&mut b, &mut scratch);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                conv.flush_into(&mut got, &mut scratch);
                oracle.flush_into(&mut want, &mut scratch);
                assert_bits_eq(&got, &want, &format!("{model:?} tail"));
                assert!(conv.history.iter().all(|z| *z == Complex::ZERO));
            }
        }
    }

    #[test]
    fn channel_tail_footprint_is_record_length_independent() {
        let mut rng = Rand::new(5);
        let ch = ChannelRealization::generate(ChannelModel::Cm3, &mut rng);
        let fs = SampleRate::from_gsps(1.0);
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        let tail = conv.tail_len();
        let mut scratch = DspScratch::new();
        for len in [100usize, 10_000] {
            let mut rec = test_signal(len);
            process_record(&mut conv, &mut rec, 256, &mut scratch);
            assert_eq!(conv.tail_len(), tail, "tail grew with record length");
            conv.configure(&ch, fs);
        }
    }

    #[test]
    fn awgn_matches_batch_bitwise() {
        let sig = test_signal(333);
        let p = 0.7;
        let mut batch = sig.clone();
        add_awgn_complex_in_place(&mut batch, p, &mut Rand::new(42));

        for bl in [1usize, 10, 64, 333, 500] {
            let mut streamed = sig.clone();
            let mut src = StreamingAwgn::new(p, Rand::new(42));
            let mut scratch = DspScratch::new();
            process_record(&mut src, &mut streamed, bl, &mut scratch);
            assert_eq!(streamed, batch, "block {bl}");
        }
    }

    #[test]
    fn awgn_plane_pass_matches_process_block_bitwise() {
        // Planes holding ±0 and ordinary values, at lengths around the
        // 128-sample draw chunk, with and without an `im` plane, at σ > 0
        // and at σ = 0, where a dropped `+0.0` would keep `−0.0` draws.
        for len in [0usize, 1, 127, 128, 129, 300] {
            let sig = test_signal(len);
            let re: Vec<f64> = sig.iter().map(|z| z.re).collect();
            let im: Vec<f64> = (0..len).map(|i| [sig[i].im, -0.0, 0.0][i % 3]).collect();
            for (p, with_im) in [(0.7, true), (0.7, false), (0.0, true), (0.0, false)] {
                let interleaved: Vec<Complex> = (0..len)
                    .map(|i| Complex::new(re[i], if with_im { im[i] } else { 0.0 }))
                    .collect();
                let mut want = interleaved.clone();
                let mut scratch = DspScratch::new();
                StreamingAwgn::new(p, Rand::new(17)).process_block(&mut want, &mut scratch);
                let mut got = vec![Complex::ONE; 3];
                StreamingAwgn::new(p, Rand::new(17)).add_to_planes(
                    &re,
                    with_im.then_some(im.as_slice()),
                    &mut got,
                );
                assert_eq!(got.len(), len);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (w.re.to_bits(), w.im.to_bits()),
                        "len {len}, n0 {p}, im plane {with_im}: sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn awgn_reset_replays_stream() {
        let mut src = StreamingAwgn::new(0.5, Rand::new(9));
        let mut scratch = DspScratch::new();
        let mut a = test_signal(50);
        src.process_block(&mut a, &mut scratch);
        src.reset();
        let mut b = test_signal(50);
        src.process_block(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn interferer_is_chunk_invariant() {
        let sig = test_signal(350);
        for kind in [
            InterfererKind::ContinuousWave,
            InterfererKind::Modulated {
                symbol_rate_hz: 20e6,
            },
        ] {
            let intf = Interferer {
                offset_hz: -80e6,
                power: 1.5,
                kind,
            };
            assert_chunk_invariant(&sig, &[1, 17, 50, 350, 999], || {
                StreamingInterferer::new(&intf, 1e9, &mut Rand::new(21))
            });
            let mut streamed = sig.clone();
            let mut src = StreamingInterferer::new(&intf, 1e9, &mut Rand::new(21));
            process_record(&mut src, &mut streamed, 64, &mut DspScratch::new());
            let batch = intf.add_to(&sig, 1e9, &mut Rand::new(21));
            assert_bits_eq(&streamed, &batch, &format!("{:?}", intf.kind));
            // Power is calibrated.
            let p = uwb_dsp::complex::mean_power(&intf.generate(20_000, 1e9, &mut Rand::new(3)));
            assert!((p - 1.5).abs() / 1.5 < 0.02, "{:?}: {p}", intf.kind);
        }
    }

    #[test]
    fn interferer_reset_replays() {
        let intf = Interferer {
            offset_hz: 60e6,
            power: 2.0,
            kind: InterfererKind::Modulated {
                symbol_rate_hz: 25e6,
            },
        };
        let mut rng = Rand::new(8);
        let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
        let mut scratch = DspScratch::new();
        let mut a = test_signal(90);
        src.process_block(&mut a, &mut scratch);
        src.reset();
        let mut b = test_signal(90);
        src.process_block(&mut b, &mut scratch);
        assert_eq!(a, b);
    }
}
