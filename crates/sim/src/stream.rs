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
//! Parity with the batch path:
//!
//! * [`StreamingChannel`] on a **single-tap** channel (AWGN scenarios) is
//!   bit-identical to [`ChannelRealization::apply_into`]. Multi-tap
//!   channels use a direct-form convolution with a fixed summation
//!   contract: per output, ascending k; outputs are computed `TILE` (16)
//!   at a time, and tiling never reorders a sum. The batch path uses FFT
//!   convolution, so the two agree to numerical precision (≲1e-12
//!   relative) but not bitwise — the chunk-invariance gates therefore
//!   compare streamed-vs-streamed and assert equality of *decisions* vs
//!   batch.
//! * [`StreamingAwgn`] seeded with the RNG state at the point the batch
//!   path would call `add_awgn_complex_in_place` is bit-identical to it.
//! * [`StreamingInterferer`] for CW and swept kinds draws only the initial
//!   phase and is bit-identical to [`Interferer::add_to_in_place`]; the
//!   modulated kind forks its symbol RNG (documented deviation — the batch
//!   path interleaves symbol draws with nothing else, but a stream of
//!   unknown length cannot leave the shared RNG in a record-independent
//!   state).

use crate::interference::{Interferer, InterfererKind};
use crate::rng::Rand;
use crate::sv_channel::ChannelRealization;
use crate::time::SampleRate;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Complex, DspScratch, Nco};

/// Outputs per pass of the multi-tap convolution over the taps: each tile
/// keeps this many complex accumulators live. Sixteen fill eight 256-bit
/// registers; on a 2-vCPU AVX-512 host `dspbench`'s
/// `stream_channel_cm1_4096` row ran level with 8 and ahead of 32 (which
/// spills), at about twice the speed of one output at a time. The width
/// only sets how many sums run side by side, never the order within one,
/// so changing it cannot change a bit of output.
const TILE: usize = 16;

/// Stateful direct-form channel convolver: carries the multipath tail
/// across block boundaries and emits it on flush.
///
/// For an `L`-tap discretized impulse response the carried state is the
/// last `L-1` input samples — the peak footprint is O(block + channel
/// tail), independent of record length. Output sample `y[n]` is
/// `Σ_{k=0..L} h[k]·x[n-k]` accumulated in ascending `k`, so the block
/// partition never changes the arithmetic. The flushed tail is the same
/// kernel run over `L-1` zero inputs.
#[derive(Debug, Clone, Default)]
pub struct StreamingChannel {
    /// Discretized impulse response.
    h: Vec<Complex>,
    /// Last `h.len()-1` input samples, oldest first.
    history: Vec<Complex>,
}

impl StreamingChannel {
    /// An unconfigured (identity, zero-tap-history) convolver.
    pub fn new() -> Self {
        StreamingChannel {
            h: vec![Complex::ONE],
            history: Vec::new(),
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
}

impl BlockProcessor for StreamingChannel {
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
        let l = self.h.len();
        if l == 1 {
            // Single-tap channel: plain scaling, bit-identical to the batch
            // `apply_into` fast path (`z * g`, no accumulator —
            // `MulAssign` expands to exactly `*z = *z * g`).
            let g = self.h[0];
            for z in block.iter_mut() {
                *z *= g;
            }
            return;
        }
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

    fn name(&self) -> &'static str {
        "channel"
    }
}

/// Streaming AWGN source: adds circularly-symmetric complex noise of total
/// power `noise_power`, drawing I then Q per sample in record order from an
/// owned RNG.
///
/// Seeded with the RNG state the batch path would hold when calling
/// [`crate::awgn::add_awgn_complex_in_place`], the streamed record is
/// bit-identical to the batch record for any block partition.
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
        debug_assert!(
            noise_power >= 0.0,
            "negative noise_power ({noise_power}): a mis-signed SNR runs noiseless"
        );
        StreamingAwgn {
            sigma: (noise_power.max(0.0) / 2.0).sqrt(),
            initial: rng.clone(),
            rng,
        }
    }

    /// Re-arms the source for a new record: new noise power, new RNG state.
    /// Negative `noise_power` is a caller bug: panics in debug builds,
    /// clamps to zero in release builds.
    pub fn configure(&mut self, noise_power: f64, rng: Rand) {
        debug_assert!(
            noise_power >= 0.0,
            "negative noise_power ({noise_power}): a mis-signed SNR runs noiseless"
        );
        self.sigma = (noise_power.max(0.0) / 2.0).sqrt();
        self.initial = rng.clone();
        self.rng = rng;
    }
}

impl BlockProcessor for StreamingAwgn {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        // Same block stream, I then Q in ascending sample order, as
        // `add_awgn_complex_in_place`; the carry buffer inside the RNG makes
        // the block partition unobservable (chunk-size invariance).
        let mut buf = [0.0f64; 256];
        for chunk in block.chunks_mut(128) {
            self.rng.fill_gaussian(&mut buf[..2 * chunk.len()]);
            for (z, g) in chunk.iter_mut().zip(buf.chunks_exact(2)) {
                *z += Complex::new(self.sigma * g[0], self.sigma * g[1]);
            }
        }
    }

    fn reset(&mut self) {
        self.rng = self.initial.clone();
    }

    fn name(&self) -> &'static str {
        "awgn"
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
    /// Swept tone: explicit phase recurrence with the absolute sample index.
    Swept {
        offset_hz: f64,
        sweep_hz_per_s: f64,
        dt: f64,
        phase: f64,
        idx: usize,
    },
}

/// Streaming narrowband interferer: adds the tone to each block with all
/// oscillator/symbol state carried across boundaries.
///
/// Construction draws the starting phase from the caller's RNG — the same
/// single draw, at the same position, as [`Interferer::add_to_in_place`] —
/// so CW and swept kinds are bit-identical to the batch path. The
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
            InterfererKind::Swept { sweep_hz_per_s } => InterfererState::Swept {
                offset_hz: intf.offset_hz,
                sweep_hz_per_s: *sweep_hz_per_s,
                dt: 1.0 / fs_hz,
                phase: phase0,
                idx: 0,
            },
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
            InterfererState::Swept {
                offset_hz,
                sweep_hz_per_s,
                dt,
                phase,
                idx,
            } => {
                // Same recurrence as the batch path, with the absolute
                // sample index carried across blocks.
                for z in block.iter_mut() {
                    let f = *offset_hz + *sweep_hz_per_s * (*idx as f64 * *dt);
                    *phase += std::f64::consts::TAU * f * *dt;
                    *z += Complex::from_polar(amp, *phase);
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
            InterfererState::Swept { phase, idx, .. } => {
                *phase = self.phase0;
                *idx = 0;
            }
        }
    }

    fn name(&self) -> &'static str {
        "interferer"
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

        fn name(&self) -> &'static str {
            "reference-channel"
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
    fn channel_single_tap_matches_batch_bitwise() {
        let ch = ChannelRealization::identity();
        let fs = SampleRate::from_gsps(1.0);
        let sig = test_signal(500);
        let mut scratch = DspScratch::new();
        let mut batch = Vec::new();
        ch.apply_into(&sig, fs, &mut scratch, &mut batch);

        let mut streamed = sig.clone();
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        process_record(&mut conv, &mut streamed, 64, &mut scratch);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn channel_multipath_is_chunk_invariant_and_near_batch() {
        let mut rng = Rand::new(77);
        let ch = ChannelRealization::generate(ChannelModel::Cm2, &mut rng);
        let fs = SampleRate::from_gsps(1.0);
        let sig = test_signal(700);

        assert_chunk_invariant(
            &sig,
            &[1, 13, TILE - 1, TILE, TILE + 1, 64, 255, 700, 2000],
            || StreamingChannel::from_realization(&ch, fs),
        );

        // Against the FFT batch path: equal to numerical precision.
        let batch = ch.apply(&sig, fs);
        let mut streamed = sig.clone();
        let mut scratch = DspScratch::new();
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        process_record(&mut conv, &mut streamed, 128, &mut scratch);
        assert_eq!(streamed.len(), batch.len());
        let scale: f64 = batch.iter().map(|z| z.norm()).fold(1e-9, f64::max);
        for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
            assert!(
                (*s - *b).norm() <= 1e-9 * scale,
                "sample {i}: {s:?} vs {b:?}"
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
    fn cw_and_swept_interferer_match_batch_bitwise() {
        let sig = test_signal(400);
        for kind in [
            InterfererKind::ContinuousWave,
            InterfererKind::Swept {
                sweep_hz_per_s: 2e14,
            },
        ] {
            let intf = Interferer {
                offset_hz: 120e6,
                power: 3.0,
                kind,
            };
            let mut batch = sig.clone();
            intf.add_to_in_place(&mut batch, 1e9, &mut Rand::new(13));

            for bl in [7usize, 100, 400] {
                let mut rng = Rand::new(13);
                let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
                let mut streamed = sig.clone();
                let mut scratch = DspScratch::new();
                process_record(&mut src, &mut streamed, bl, &mut scratch);
                assert_eq!(streamed, batch, "block {bl}");
            }
        }
    }

    #[test]
    fn modulated_interferer_is_chunk_invariant() {
        let intf = Interferer {
            offset_hz: -80e6,
            power: 1.5,
            kind: InterfererKind::Modulated {
                symbol_rate_hz: 20e6,
            },
        };
        let sig = test_signal(350);
        assert_chunk_invariant(&sig, &[1, 17, 50, 350, 999], || {
            StreamingInterferer::new(&intf, 1e9, &mut Rand::new(21))
        });
        // And its power is calibrated like the batch form.
        let mut rng = Rand::new(3);
        let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
        let mut buf = vec![Complex::ZERO; 20_000];
        let mut scratch = DspScratch::new();
        src.process_block(&mut buf, &mut scratch);
        let p = uwb_dsp::complex::mean_power(&buf);
        assert!((p - 1.5).abs() / 1.5 < 0.02, "{p}");
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
