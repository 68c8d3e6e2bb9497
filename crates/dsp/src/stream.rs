//! Streaming block abstraction for the sample-rate signal chain.
//!
//! The paper's receiver is a continuously running direct-conversion chain:
//! samples flow through AGC/ADC into a parallelized digital back end that
//! acquires, tracks and decodes packets on the fly (§1, §3). Batch
//! processing of one whole-record `Vec<Complex>` per trial makes peak
//! memory and first-decode latency scale with record length; this module is
//! the substrate that removes that coupling.
//!
//! A [`BlockProcessor`] is a *stateful, length-preserving, in-place*
//! operator on contiguous blocks of equivalent-baseband samples. Operators
//! that are intrinsically tail-extending (e.g. channel convolution with an
//! L-tap impulse response produces `n + L - 1` output samples for `n`
//! inputs) keep the pending tail in internal carried state and emit it on
//! [`BlockProcessor::flush_into`]. This keeps the hot path free of length
//! negotiation: every stage reads and writes the same `&mut [Complex]`.
//!
//! # The chunk-size invariance contract
//!
//! The defining property of a correct streaming operator is that the
//! *partition of the record into blocks is unobservable*: feeding one
//! whole-record block, or blocks of 64, or any random split, must produce
//! **bit-identical** output once the per-block outputs are concatenated
//! (plus the flushed tail). Operators therefore must not let block length
//! influence arithmetic — summation orders are fixed per output sample, and
//! any history needed across a boundary is carried in state rather than
//! recomputed from a window whose size depends on the split. The
//! [`assert_chunk_invariant`] helper enforces this in tests, and the
//! repo-level `tests/stream_parity.rs` gate proptests it end-to-end.
//!
//! # Composition
//!
//! [`Chain`] composes boxed processors in order. Flushing a chain drains
//! stage tails upstream-first, pushing each stage's tail through every
//! *downstream* stage so the concatenated output equals what the batch
//! pipeline would have produced on the full record.
//!
//! ```
//! use uwb_dsp::stream::{BlockProcessor, Chain, GainStage};
//! use uwb_dsp::{Complex, DspScratch};
//!
//! let mut chain = Chain::new();
//! chain.push(Box::new(GainStage::new(2.0)));
//! chain.push(Box::new(GainStage::new(0.5)));
//! let mut scratch = DspScratch::new();
//! let mut block = vec![Complex::ONE; 8];
//! chain.process_block(&mut block, &mut scratch);
//! assert_eq!(block, vec![Complex::ONE; 8]);
//! ```

use crate::complex::Complex;
use crate::scratch::DspScratch;

/// A stateful, in-place operator over contiguous sample blocks.
///
/// Implementations must satisfy the chunk-size invariance contract (module
/// docs): any partition of a record into blocks yields bit-identical
/// concatenated output. State carried across calls (filter history, channel
/// tails, oscillator phase) belongs to the processor; per-call workspace
/// comes from the caller's [`DspScratch`] so warm steady-state processing
/// allocates nothing.
pub trait BlockProcessor {
    /// Processes one block of samples in place.
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch);

    /// Appends any pending tail samples (beyond the input length) to `out`.
    ///
    /// Length-preserving operators keep the default no-op. Tail-extending
    /// operators (convolution) emit the carried `L - 1` tail here and reset
    /// it. After `flush_into` the processor is ready for a fresh record.
    fn flush_into(&mut self, _out: &mut Vec<Complex>, _scratch: &mut DspScratch) {}

    /// Resets all carried state, as if freshly constructed. Retains
    /// internal buffer capacities so a reset-and-rerun stays allocation
    /// free.
    fn reset(&mut self);

    /// Stable short name for telemetry spans and diagnostics.
    fn name(&self) -> &'static str;
}

/// A composable pipeline of boxed [`BlockProcessor`] stages.
///
/// `process_block` runs every stage over the same block in order.
/// `flush_into` drains tails upstream-first: stage `i`'s tail is processed
/// through stages `i+1..` before stage `i+1` flushes, so the concatenation
/// `processed blocks ++ flushed tail` equals the batch pipeline output.
#[derive(Default)]
pub struct Chain {
    stages: Vec<Box<dyn BlockProcessor>>,
}

impl Chain {
    /// An empty chain (identity operator).
    pub fn new() -> Self {
        Chain { stages: Vec::new() }
    }

    /// Appends a stage to the end of the chain.
    pub fn push(&mut self, stage: Box<dyn BlockProcessor>) {
        self.stages.push(stage);
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names in order (diagnostics / telemetry).
    pub fn stage_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.stages.iter().map(|s| s.name())
    }
}

impl BlockProcessor for Chain {
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
        for stage in &mut self.stages {
            stage.process_block(block, scratch);
        }
    }

    fn flush_into(&mut self, out: &mut Vec<Complex>, scratch: &mut DspScratch) {
        // Drain upstream-first. Stage i's tail must still pass through the
        // downstream stages, which happens *before* those stages flush their
        // own tails — exactly the order the batch pipeline would have
        // produced on the concatenated record.
        let n = self.stages.len();
        for i in 0..n {
            let mut tail = scratch.take_complex(0);
            self.stages[i].flush_into(&mut tail, scratch);
            if !tail.is_empty() {
                for stage in &mut self.stages[i + 1..] {
                    stage.process_block(&mut tail, scratch);
                }
                out.extend_from_slice(&tail);
            }
            scratch.put_complex(tail);
        }
    }

    fn reset(&mut self) {
        for stage in &mut self.stages {
            stage.reset();
        }
    }

    fn name(&self) -> &'static str {
        "chain"
    }
}

/// Runs `proc` over `record` split into `block_len`-sized blocks (the final
/// block may be shorter), then flushes, appending the tail to `record`.
///
/// This is the reference way to apply a streaming operator to a finite
/// record; with `block_len >= record.len()` it degenerates to one batch
/// call. Used heavily by the parity gates.
pub fn process_record(
    proc: &mut dyn BlockProcessor,
    record: &mut Vec<Complex>,
    block_len: usize,
    scratch: &mut DspScratch,
) {
    let block_len = block_len.max(1);
    let mut start = 0;
    while start < record.len() {
        let end = (start + block_len).min(record.len());
        proc.process_block(&mut record[start..end], scratch);
        start = end;
    }
    let mut tail = scratch.take_complex(0);
    proc.flush_into(&mut tail, scratch);
    record.extend_from_slice(&tail);
    scratch.put_complex(tail);
}

/// Asserts that processing `input` through fresh copies of a processor with
/// each of the given block lengths yields bit-identical output (including
/// the flushed tail). `make` must return an identically-seeded processor
/// each call.
///
/// Panics with the offending block length and sample index on mismatch —
/// the unit-level form of the chunk-size invariance contract.
pub fn assert_chunk_invariant<P, F>(input: &[Complex], block_lens: &[usize], mut make: F)
where
    P: BlockProcessor,
    F: FnMut() -> P,
{
    let mut scratch = DspScratch::new();
    let mut reference = input.to_vec();
    let mut proc = make();
    process_record(&mut proc, &mut reference, input.len().max(1), &mut scratch);
    for &bl in block_lens {
        let mut streamed = input.to_vec();
        let mut proc = make();
        process_record(&mut proc, &mut streamed, bl, &mut scratch);
        assert_eq!(
            streamed.len(),
            reference.len(),
            "block_len {bl}: streamed length {} != reference {}",
            streamed.len(),
            reference.len()
        );
        for (i, (s, r)) in streamed.iter().zip(reference.iter()).enumerate() {
            assert!(
                s.re.to_bits() == r.re.to_bits() && s.im.to_bits() == r.im.to_bits(),
                "block_len {bl}: sample {i} differs: streamed {s:?} != reference {r:?}"
            );
        }
    }
}

/// Multiplies every sample by a fixed complex gain. Stateless; exists as
/// the minimal [`BlockProcessor`] for chain plumbing and tests.
#[derive(Debug, Clone)]
pub struct GainStage {
    gain: Complex,
}

impl GainStage {
    /// A real-gain stage.
    pub fn new(gain: f64) -> Self {
        GainStage {
            gain: Complex::new(gain, 0.0),
        }
    }

    /// A complex-gain stage (gain and phase rotation).
    pub fn complex(gain: Complex) -> Self {
        GainStage { gain }
    }
}

impl BlockProcessor for GainStage {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        for z in block.iter_mut() {
            // `MulAssign` is defined as `*self = *self * rhs`, so this is
            // bit-identical to the batch `z * g` form.
            *z *= self.gain;
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "gain"
    }
}

/// Delays the stream by `delay` samples, zero-padding the head and emitting
/// the last `delay` samples on flush. The simplest *stateful*,
/// tail-carrying processor — used by tests to exercise `Chain::flush_into`
/// ordering.
#[derive(Debug, Clone)]
pub struct DelayStage {
    delay: usize,
    history: Vec<Complex>,
}

impl DelayStage {
    /// A `delay`-sample delay line (initially zero-filled).
    pub fn new(delay: usize) -> Self {
        DelayStage {
            delay,
            history: vec![Complex::ZERO; delay],
        }
    }
}

impl BlockProcessor for DelayStage {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        // Swap sample-by-sample through the circular history. Order of
        // operations per sample is fixed, so any block partition yields the
        // same output.
        if self.delay == 0 {
            return;
        }
        for z in block.iter_mut() {
            self.history.rotate_left(1);
            let idx = self.delay - 1;
            std::mem::swap(&mut self.history[idx], z);
        }
    }

    fn flush_into(&mut self, out: &mut Vec<Complex>, _scratch: &mut DspScratch) {
        out.extend_from_slice(&self.history);
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
        "delay"
    }
}

/// Accumulates `gain * src` into `dst` over the overlapping prefix
/// (`min(dst.len(), src.len())` samples), leaving any `dst` tail untouched.
///
/// This is the primitive of the multi-source block mixer: a receiver's
/// input record is its own signal plus scaled foreign records. The
/// per-sample operation is a single fused `dst += gain * src` with a fixed
/// source order chosen by the caller, so mixing whole records or mixing the
/// same records block-by-block produces **bit-identical** results (the
/// summation order per output sample never depends on the partition).
pub fn accumulate_scaled(dst: &mut [Complex], src: &[Complex], gain: f64) {
    let n = dst.len().min(src.len());
    for (d, s) in dst[..n].iter_mut().zip(&src[..n]) {
        d.re += gain * s.re;
        d.im += gain * s.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.25, -(i as f64) * 0.125))
            .collect()
    }

    #[test]
    fn gain_stage_scales() {
        let mut g = GainStage::new(3.0);
        let mut scratch = DspScratch::new();
        let mut block = vec![Complex::ONE; 4];
        g.process_block(&mut block, &mut scratch);
        assert_eq!(block, vec![Complex::new(3.0, 0.0); 4]);
    }

    #[test]
    fn delay_stage_is_chunk_invariant() {
        let input = ramp(97);
        assert_chunk_invariant(&input, &[1, 3, 7, 32, 64, 97, 200], || DelayStage::new(5));
    }

    #[test]
    fn delay_stage_output_is_shifted_input() {
        let input = ramp(20);
        let mut proc = DelayStage::new(4);
        let mut scratch = DspScratch::new();
        let mut rec = input.clone();
        process_record(&mut proc, &mut rec, 6, &mut scratch);
        assert_eq!(rec.len(), 24);
        assert!(rec[..4].iter().all(|z| *z == Complex::ZERO));
        assert_eq!(&rec[4..], &input[..]);
    }

    #[test]
    fn chain_flush_order_matches_batch() {
        // delay(3) → gain(2): the delayed tail must still be scaled by the
        // downstream gain when the chain flushes.
        let input = ramp(33);
        let make = || {
            let mut c = Chain::new();
            c.push(Box::new(DelayStage::new(3)));
            c.push(Box::new(GainStage::new(2.0)));
            c
        };
        let mut scratch = DspScratch::new();

        let mut batch: Vec<Complex> = vec![Complex::ZERO; 3];
        batch.extend_from_slice(&input);
        for z in batch.iter_mut() {
            *z *= Complex::new(2.0, 0.0);
        }

        let mut streamed = input.clone();
        let mut chain = make();
        process_record(&mut chain, &mut streamed, 8, &mut scratch);
        assert_eq!(streamed, batch);

        // And the chain itself is chunk invariant.
        assert_chunk_invariant(&input, &[1, 2, 5, 16, 33, 100], make);
    }

    #[test]
    fn chain_reset_clears_state() {
        let mut chain = Chain::new();
        chain.push(Box::new(DelayStage::new(2)));
        let mut scratch = DspScratch::new();
        let mut block = vec![Complex::ONE; 4];
        chain.process_block(&mut block, &mut scratch);
        chain.reset();
        let mut block2 = vec![Complex::ONE; 4];
        chain.process_block(&mut block2, &mut scratch);
        assert_eq!(block, block2, "reset must restore initial state");
    }

    #[test]
    fn stage_names_are_exposed() {
        let mut chain = Chain::new();
        chain.push(Box::new(GainStage::new(1.0)));
        chain.push(Box::new(DelayStage::new(1)));
        let names: Vec<_> = chain.stage_names().collect();
        assert_eq!(names, vec!["gain", "delay"]);
    }

    #[test]
    fn accumulate_scaled_overlapping_prefix() {
        let mut dst = ramp(6);
        let src = ramp(4);
        let before = dst.clone();
        accumulate_scaled(&mut dst, &src, 0.5);
        for i in 0..4 {
            assert_eq!(dst[i].re, before[i].re + 0.5 * src[i].re);
            assert_eq!(dst[i].im, before[i].im + 0.5 * src[i].im);
        }
        // Tail beyond the source untouched.
        assert_eq!(dst[4], before[4]);
        assert_eq!(dst[5], before[5]);
    }

    #[test]
    fn mixing_is_block_partition_invariant() {
        // Mixing the whole record at once vs. mixing block-by-block must be
        // bit-identical: per-sample summation order is source order either
        // way.
        let own = ramp(64);
        let a = ramp(64);
        let b = ramp(64);
        let mut whole = own.clone();
        accumulate_scaled(&mut whole, &a, 0.3);
        accumulate_scaled(&mut whole, &b, 0.7);

        let mut blocked = own.clone();
        for start in (0..64).step_by(7) {
            let end = (start + 7).min(64);
            accumulate_scaled(&mut blocked[start..end], &a[start..end], 0.3);
            accumulate_scaled(&mut blocked[start..end], &b[start..end], 0.7);
        }
        for (w, bl) in whole.iter().zip(blocked.iter()) {
            assert_eq!(w.re.to_bits(), bl.re.to_bits());
            assert_eq!(w.im.to_bits(), bl.im.to_bits());
        }
    }

    #[test]
    fn process_record_zero_block_len_is_clamped() {
        let input = ramp(5);
        let mut proc = GainStage::new(2.0);
        let mut scratch = DspScratch::new();
        let mut rec = input.clone();
        process_record(&mut proc, &mut rec, 0, &mut scratch);
        for (r, i) in rec.iter().zip(input.iter()) {
            assert_eq!(*r, *i * Complex::new(2.0, 0.0));
        }
    }
}
