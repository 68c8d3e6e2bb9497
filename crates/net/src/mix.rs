//! Plane-stored waveform records and the one victim decode that the
//! network round and the MAC share.
//!
//! The gen2 transmitter sends a real baseband BPSK pulse burst; only the
//! receiver's I/Q noise makes the signal complex. On an AWGN channel every
//! imaginary part of a clean record is `+0.0`, yet a complex record stores,
//! copies and accumulates both halves. A [`WaveRecord`] therefore holds a
//! shared record as two `f64` planes, `re` and `im`, and leaves `im` empty
//! when every imaginary part is `+0.0` bitwise (a multipath channel or an
//! interferer fills it).
//!
//! A [`TxRecord`] is one transmission as every layer shares it: the
//! planes, the payload they carry, the synthesis metadata and the mean
//! power. [`TxRecord::synthesize`] is the one way to fill it from a
//! pooled worker; the network arena and the MAC's record pool hold it.
//!
//! [`VictimMixer::decode_victim`] is the one victim decode of
//! `NetWorker::round` and the MAC's decode lanes. It builds the victim's
//! superposition in planes — a copy of its own record, then each source's
//! `re` axpy at the source's sample offset, with an `im` plane only when
//! some record needs one — then one fused noise pass writes the complex
//! record the receiver digitizes, and the known-timing decode counts its
//! errors. A victim without sources skips the copy: the noise pass reads
//! its own record directly.
//!
//! # Why the planes are bit-identical to the complex mix
//!
//! * The `re` arithmetic is unchanged: `gain * s.re`, then `+=`, per
//!   source in the caller's order.
//! * An `im` sum that starts at `+0.0` stays `+0.0` when `gain * (+0.0)`
//!   terms are added, for any finite gain, because `+0.0 + ±0.0 = +0.0`
//!   under round-to-nearest. An absent plane therefore stands for exactly
//!   the values the complex sum held, and a plane created part-way through
//!   the sources starts at `+0.0`.
//! * Where the mix does hold an `im` plane, a real source still adds its
//!   `gain * (+0.0)`: that turns a `−0.0` own sample into `+0.0`, as the
//!   complex sum did.
//! * Non-finite gains would make `gain * 0.0` a NaN; they are rejected.
//! * The noise pass ([`StreamingAwgn::add_to_planes`]) adds
//!   `im_or_+0.0 + σ·g1` with the draws and draw order of the complex pass.

use uwb_dsp::Complex;
use uwb_obs::StageTimer;
use uwb_platform::link::{CleanSynthesis, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb_platform::metrics::ErrorCounter;
use uwb_sim::stream::StreamingAwgn;
use uwb_sim::Rand;

/// One waveform record as `re` and `im` planes; `im` is empty when every
/// imaginary part of the record is `+0.0` bitwise.
#[derive(Debug, Clone, Default)]
pub struct WaveRecord {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl WaveRecord {
    /// An empty record whose `re` plane holds `n` samples without
    /// reallocating (the `im` plane grows on first use).
    pub fn with_capacity(n: usize) -> WaveRecord {
        WaveRecord {
            re: Vec::with_capacity(n),
            im: Vec::new(),
        }
    }

    /// Replaces the record with `samples`, split into planes, and returns
    /// their mean power ([`uwb_dsp::simd::mean_power`], taken in the pass
    /// that decides the `im` plane). The `im` plane is kept only if some
    /// imaginary part is not `+0.0` bitwise (`−0.0` keeps it).
    pub fn set_from(&mut self, samples: &[Complex]) -> f64 {
        let (power, im_bits) = uwb_dsp::simd::mean_power_and_im_bits(samples);
        self.re.clear();
        self.re.extend(samples.iter().map(|z| z.re));
        self.im.clear();
        if im_bits != 0 {
            self.im.extend(samples.iter().map(|z| z.im));
        }
        power
    }

    /// Samples in the record.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// `true` when the record holds no samples.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The real parts.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary parts, or `None` when every one is `+0.0`.
    pub fn im(&self) -> Option<&[f64]> {
        (!self.im.is_empty()).then_some(self.im.as_slice())
    }

    /// Mean power `Σ|z|²/N`, summed serially in sample order
    /// (bit-identical to `uwb_dsp::complex::mean_power` of the complex
    /// record).
    pub(crate) fn mean_power(&self) -> f64 {
        plane_mean_power(&self.re, self.im())
    }

    /// The record as complex samples (`+0.0` imaginary parts when the
    /// `im` plane is absent).
    #[cfg(test)]
    pub(crate) fn to_complex(&self) -> Vec<Complex> {
        match self.im() {
            Some(im) => self
                .re
                .iter()
                .zip(im)
                .map(|(&r, &i)| Complex::new(r, i))
                .collect(),
            None => self.re.iter().map(|&r| Complex::new(r, 0.0)).collect(),
        }
    }
}

/// One transmission's shared record: its clean waveform as planes, the
/// payload it carries, its synthesis metadata and its mean power. Every
/// victim that mixes or decodes it reads it in place.
#[derive(Debug, Default)]
pub struct TxRecord {
    /// The clean waveform.
    pub wave: WaveRecord,
    /// The payload the waveform carries, snapshot at synthesis: the
    /// pooled worker has synthesized other links' records by decode time.
    pub payload: Vec<u8>,
    /// Slot-0 start, calibrated `n0`, and the AWGN RNG at the state the
    /// single-link path starts its noise from; `None` until synthesized.
    pub clean: Option<CleanSynthesis>,
    /// Mean power of the clean record (`uwb_dsp::simd::mean_power`).
    pub power: f64,
}

impl TxRecord {
    /// Synthesizes `scenario`'s clean record for `payload_len` payload
    /// bytes on the pooled `worker`, drawing from `rng`, and replaces this
    /// record with it: planes, payload snapshot, metadata and power.
    /// `synth` is the caller's scratch for the complex record: one buffer
    /// serves every worker of a pool, so it stays in cache.
    pub fn synthesize(
        &mut self,
        worker: &mut LinkWorker,
        scenario: &LinkScenario,
        payload_len: usize,
        rng: &mut Rand,
        synth: &mut Vec<Complex>,
    ) {
        let clean = worker.synthesize_clean_streamed_record(
            scenario,
            payload_len,
            DEFAULT_STREAM_BLOCK,
            rng,
            synth,
        );
        self.power = self.wave.set_from(synth);
        self.payload.clear();
        self.payload.extend_from_slice(worker.payload_bytes());
        self.clean = Some(clean);
    }

    /// The synthesis metadata.
    ///
    /// # Panics
    ///
    /// Panics if the record was never synthesized.
    pub(crate) fn synthesis(&self) -> &CleanSynthesis {
        self.clean.as_ref().expect("record synthesized")
    }
}

/// One mixing source: a record, the sample of the victim's record its
/// first sample lands on (negative: it started earlier), and its amplitude
/// gain.
pub type Source<'a> = (&'a WaveRecord, isize, f64);

/// The layer a victim decode runs for; it names the decode's telemetry
/// spans (`net_mix` / `net_rx` or `mac_mix` / `mac_rx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A network round's victim.
    Net,
    /// A MAC frame's receiver.
    Mac,
}

impl Layer {
    fn mix_span(self) -> StageTimer {
        match self {
            Layer::Net => uwb_obs::span!("net_mix"),
            Layer::Mac => uwb_obs::span!("mac_mix"),
        }
    }

    fn rx_span(self) -> StageTimer {
        match self {
            Layer::Net => uwb_obs::span!("net_rx"),
            Layer::Mac => uwb_obs::span!("mac_rx"),
        }
    }
}

/// Deterministic work counts of a [`VictimMixer`]: how many sources it
/// mixed into the `re` plane alone and how many also touched an `im`
/// plane (a complex source, or any source once the mix holds an `im`
/// plane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixCounts {
    /// Sources mixed into the `re` plane only.
    pub re_only: u64,
    /// Sources that also touched an `im` plane.
    pub with_im: u64,
}

/// The reusable buffers of the victim decode: the `re` / `im` mix planes
/// and the complex record the receiver digitizes. Allocation-free once
/// its buffers have reached the longest record's length.
#[derive(Debug, Default)]
pub struct VictimMixer {
    re: Vec<f64>,
    /// Empty while every imaginary part of the mix is `+0.0`.
    im: Vec<f64>,
    noisy: Vec<Complex>,
    counts: MixCounts,
}

impl VictimMixer {
    /// A mixer whose buffers hold `n`-sample real records without
    /// reallocating.
    pub fn with_capacity(n: usize) -> VictimMixer {
        VictimMixer {
            re: Vec::with_capacity(n),
            im: Vec::new(),
            noisy: Vec::with_capacity(n),
            counts: MixCounts::default(),
        }
    }

    /// The sources this mixer has mixed so far, by path.
    pub fn counts(&self) -> MixCounts {
        self.counts
    }

    /// Mixes, adds noise to and decodes one victim: its own record plus
    /// every source scaled by its gain at its offset, in the order given
    /// (the summation order is part of the bit-exactness contract), then
    /// the victim's receiver noise, then `rx`'s known-timing decode at
    /// `slot0_start` against the victim's payload, counted into `counter`.
    /// Returns `true` when the payload decoded error-free.
    ///
    /// # Panics
    ///
    /// Panics if `victim` was never synthesized or a source's gain is not
    /// finite.
    pub fn decode_victim<'a>(
        &mut self,
        layer: Layer,
        victim: &TxRecord,
        sources: impl IntoIterator<Item = Source<'a>>,
        rx: &mut LinkWorker,
        counter: &mut ErrorCounter,
    ) -> bool {
        {
            let _t = layer.mix_span();
            self.mix_noisy(victim, sources);
        }
        let _t = layer.rx_span();
        rx.count_errors_in_record(
            &self.noisy,
            victim.synthesis().slot0_start,
            &victim.payload,
            counter,
        )
    }

    /// The mix and noise half of [`decode_victim`](Self::decode_victim):
    /// leaves the noisy complex record in `self.noisy`.
    fn mix_noisy<'a>(&mut self, victim: &TxRecord, sources: impl IntoIterator<Item = Source<'a>>) {
        let own = &victim.wave;
        let clean = victim.synthesis();
        let mut noise = StreamingAwgn::new(clean.n0, clean.awgn_rng.clone());
        let mut sources = sources.into_iter();
        match sources.next() {
            None => noise.add_to_planes(own.re(), own.im(), &mut self.noisy),
            Some(first) => {
                self.start_copy(own);
                for (src, offset, gain) in std::iter::once(first).chain(sources) {
                    self.add(src, offset, gain);
                }
                let im = (!self.im.is_empty()).then_some(self.im.as_slice());
                noise.add_to_planes(&self.re, im, &mut self.noisy);
            }
        }
    }

    /// Starts the mix as a copy of `own`.
    fn start_copy(&mut self, own: &WaveRecord) {
        self.re.clear();
        self.re.extend_from_slice(own.re());
        self.im.clear();
        if let Some(im) = own.im() {
            self.im.extend_from_slice(im);
        }
    }

    /// Starts the mix as `len` samples of `+0.0`.
    pub(crate) fn start_zeros(&mut self, len: usize) {
        self.re.clear();
        self.re.resize(len, 0.0);
        self.im.clear();
    }

    /// Adds `gain · src`, `src`'s sample `i` landing on mix sample
    /// `i + offset`; samples outside the overlap are clipped on both sides.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not finite.
    pub(crate) fn add(&mut self, src: &WaveRecord, offset: isize, gain: f64) {
        assert!(gain.is_finite(), "mixing gain {gain} is not finite");
        if src.im().is_some() || !self.im.is_empty() {
            self.counts.with_im += 1;
        } else {
            self.counts.re_only += 1;
        }
        let (d0, s0) = if offset >= 0 {
            (offset as usize, 0usize)
        } else {
            (0usize, offset.unsigned_abs())
        };
        if d0 >= self.re.len() || s0 >= src.len() {
            return;
        }
        let n = (self.re.len() - d0).min(src.len() - s0);
        axpy(&mut self.re[d0..d0 + n], &src.re()[s0..s0 + n], gain);
        match src.im() {
            Some(im) => {
                if self.im.is_empty() {
                    self.im.resize(self.re.len(), 0.0);
                }
                axpy(&mut self.im[d0..d0 + n], &im[s0..s0 + n], gain);
            }
            None if !self.im.is_empty() => {
                let zero = gain * 0.0;
                for d in &mut self.im[d0..d0 + n] {
                    *d += zero;
                }
            }
            None => {}
        }
    }

    /// Mean power `Σ|z|²/N` of the mix, summed serially in sample order
    /// (bit-identical to `uwb_dsp::complex::mean_power` of the complex mix).
    pub(crate) fn mean_power(&self) -> f64 {
        plane_mean_power(&self.re, (!self.im.is_empty()).then_some(&self.im))
    }

    /// Writes the mix to `out` as complex samples, replacing its contents.
    pub(crate) fn complex_into(&self, out: &mut Vec<Complex>) {
        out.clear();
        if self.im.is_empty() {
            out.extend(self.re.iter().map(|&r| Complex::new(r, 0.0)));
        } else {
            out.extend(
                self.re
                    .iter()
                    .zip(&self.im)
                    .map(|(&r, &i)| Complex::new(r, i)),
            );
        }
    }
}

/// Mean power `Σ(re² + im²)/N` of planes, summed serially in sample order:
/// bit-identical to `uwb_dsp::complex::mean_power` of the complex samples.
fn plane_mean_power(re: &[f64], im: Option<&[f64]>) -> f64 {
    match im {
        // `r·r + (+0.0)·(+0.0)` is `r·r`: a square is never `−0.0`.
        None => uwb_dsp::complex::mean_power_real(re),
        // A present `im` plane is never empty.
        Some(im) => re.iter().zip(im).map(|(r, i)| r * r + i * i).sum::<f64>() / re.len() as f64,
    }
}

/// `dst += gain · src`, elementwise.
fn axpy(dst: &mut [f64], src: &[f64], gain: f64) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += gain * s;
    }
}

/// The complex (array-of-structures) mix the planes replaced, kept as the
/// bit-parity oracle of the plane path and of the network round.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use uwb_dsp::scratch::DspScratch;
    use uwb_dsp::stream::BlockProcessor;

    /// `dst[i + offset] += gain · src[i]` over the overlap, on complex
    /// samples.
    pub(crate) fn accumulate_scaled_offset(
        dst: &mut [Complex],
        src: &[Complex],
        offset: isize,
        gain: f64,
    ) {
        let (d0, s0) = if offset >= 0 {
            (offset as usize, 0usize)
        } else {
            (0usize, offset.unsigned_abs())
        };
        if d0 >= dst.len() || s0 >= src.len() {
            return;
        }
        let n = (dst.len() - d0).min(src.len() - s0);
        for (d, s) in dst[d0..d0 + n].iter_mut().zip(&src[s0..s0 + n]) {
            d.re += gain * s.re;
            d.im += gain * s.im;
        }
    }

    /// The noiseless complex mix: a copy of `own`, then every source.
    pub(crate) fn mix(own: &WaveRecord, sources: &[Source<'_>]) -> Vec<Complex> {
        let mut mixed = own.to_complex();
        for &(src, offset, gain) in sources {
            accumulate_scaled_offset(&mut mixed, &src.to_complex(), offset, gain);
        }
        mixed
    }

    /// The complex mix plus the victim's noise, added in place.
    pub(crate) fn mix_noisy(victim: &TxRecord, sources: &[Source<'_>]) -> Vec<Complex> {
        let mut mixed = mix(&victim.wave, sources);
        let clean = victim.synthesis();
        let mut awgn = StreamingAwgn::new(clean.n0, clean.awgn_rng.clone());
        awgn.process_block(&mut mixed, &mut DspScratch::new());
        mixed
    }

    /// [`VictimMixer::decode_victim`] on the complex oracle, with the same
    /// telemetry spans.
    pub(crate) fn decode_victim(
        layer: Layer,
        victim: &TxRecord,
        sources: &[Source<'_>],
        rx: &mut LinkWorker,
        counter: &mut ErrorCounter,
    ) -> bool {
        let mixed = {
            let _t = layer.mix_span();
            mix_noisy(victim, sources)
        };
        let _t = layer.rx_span();
        rx.count_errors_in_record(&mixed, victim.synthesis().slot0_start, &victim.payload, counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_phy::Gen2Config;
    use uwb_sim::sv_channel::ChannelModel;

    fn bits(z: &[Complex]) -> Vec<(u64, u64)> {
        z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    fn scenario(channel: ChannelModel, ebn0_db: f64, seed: u64) -> LinkScenario {
        LinkScenario {
            config: Gen2Config::default(),
            channel,
            ebn0_db,
            interferer: None,
            notch_enabled: false,
            seed,
        }
    }

    /// A clean 16-byte record of `scenario`'s trial `trial`.
    fn synth(worker: &mut LinkWorker, sc: &LinkScenario, trial: u64) -> TxRecord {
        let mut record = TxRecord::default();
        let mut synth = Vec::new();
        record.synthesize(worker, sc, 16, &mut Rand::for_trial(sc.seed, trial), &mut synth);
        assert_eq!(
            bits(&record.wave.to_complex()),
            bits(&synth),
            "the split must be lossless"
        );
        assert_eq!(record.payload, worker.payload_bytes());
        assert_eq!(
            record.power.to_bits(),
            uwb_dsp::simd::mean_power(&synth).to_bits()
        );
        assert_eq!(
            record.wave.mean_power().to_bits(),
            uwb_dsp::complex::mean_power(&synth).to_bits()
        );
        record
    }

    /// Runs the plane mix and the oracle on one victim, compares the
    /// noiseless mixes and the noisy records on `to_bits`, then decodes
    /// both and compares the counters.
    fn assert_parity(victim: &TxRecord, sources: &[Source<'_>], rx: &mut LinkWorker) {
        let mut mixer = VictimMixer::default();
        if !sources.is_empty() {
            mixer.start_copy(&victim.wave);
            for &(src, offset, gain) in sources {
                mixer.add(src, offset, gain);
            }
            let mut planes = Vec::new();
            mixer.complex_into(&mut planes);
            assert_eq!(
                bits(&planes),
                bits(&oracle::mix(&victim.wave, sources)),
                "noiseless mix"
            );
        }
        mixer.mix_noisy(victim, sources.iter().copied());
        let want = oracle::mix_noisy(victim, sources);
        assert_eq!(bits(&mixer.noisy), bits(&want), "noisy record");

        let (mut a, mut b) = (ErrorCounter::default(), ErrorCounter::default());
        let ok_a = mixer.decode_victim(Layer::Net, victim, sources.iter().copied(), rx, &mut a);
        let ok_b = oracle::decode_victim(Layer::Net, victim, sources, rx, &mut b);
        assert_eq!((ok_a, a), (ok_b, b), "decode");
    }

    #[test]
    fn plane_mix_matches_the_complex_oracle_on_awgn_and_multipath_records() {
        for (k, channel) in [
            ChannelModel::Awgn,
            ChannelModel::Cm1,
            ChannelModel::Cm2,
            ChannelModel::Cm3,
            ChannelModel::Cm4,
        ]
        .into_iter()
        .enumerate()
        {
            let sc = scenario(channel, 8.0, 0xC0DE + k as u64);
            let mut w = LinkWorker::new(&sc);
            let own = synth(&mut w, &sc, 0);
            let a = synth(&mut w, &sc, 1).wave;
            let b = synth(&mut w, &sc, 2).wave;
            assert_eq!(own.wave.im().is_none(), channel == ChannelModel::Awgn);
            let len = own.wave.len() as isize;
            // Offsets: zero, positive, negative, and past either end.
            let sources: Vec<Source<'_>> = vec![
                (&a, 0, 0.5),
                (&b, 37, 0.25),
                (&a, -101, 0.125),
                (&b, len, 2.0),
                (&a, -(a.len() as isize) - 3, 3.0),
                (&b, 0, -0.75),
            ];
            assert_parity(&own, &sources, &mut w);
            assert_parity(&own, &[], &mut w);
        }
    }

    #[test]
    fn a_real_source_turns_negative_zero_own_samples_positive() {
        // Own record: a real pulse with every imaginary part −0.0, so the
        // split keeps its `im` plane. The real source must still add
        // `gain · (+0.0)`, which turns each −0.0 into +0.0.
        let sc = scenario(ChannelModel::Awgn, 8.0, 77);
        let mut w = LinkWorker::new(&sc);
        let mut own = synth(&mut w, &sc, 0);
        let negative: Vec<Complex> = own.wave.re().iter().map(|&r| Complex::new(r, -0.0)).collect();
        own.wave.set_from(&negative);
        assert!(own.wave.im().is_some(), "−0.0 keeps the im plane");
        let src = synth(&mut w, &sc, 1).wave;
        assert!(src.im().is_none());

        let mut mixer = VictimMixer::default();
        mixer.start_copy(&own.wave);
        mixer.add(&src, 5, 0.5);
        assert_eq!(
            mixer.counts(),
            MixCounts {
                re_only: 0,
                with_im: 1
            }
        );
        assert!(mixer.im[..5]
            .iter()
            .all(|i| i.to_bits() == (-0.0f64).to_bits()));
        assert!(mixer.im[5..].iter().all(|i| i.to_bits() == 0));
        assert_parity(&own, &[(&src, 5, 0.5)], &mut w);
    }

    #[test]
    fn noiseless_decode_keeps_the_signed_zero_a_1_bit_adc_reads() {
        // n0 = 0: the noise pass adds σ·g1 = ±0.0, and `+0.0 + (−0.0)`
        // must stay +0.0. A 1-bit ADC reads the sign bit, so keeping a
        // −0.0 would flip decisions; the oracle pins the complex result.
        let sc = LinkScenario {
            config: Gen2Config {
                adc_bits: 1,
                ..Gen2Config::default()
            },
            ..scenario(ChannelModel::Awgn, 8.0, 91)
        };
        let mut w = LinkWorker::new(&sc);
        let mut own = synth(&mut w, &sc, 0);
        let src = synth(&mut w, &sc, 1).wave;
        let clean = own.clean.as_mut().expect("synthesized");
        clean.n0 = 0.0;
        // Some Q draw is negative, so a dropped `+0.0` would show.
        let mut g = vec![0.0; 2 * own.wave.len()];
        clean.awgn_rng.clone().fill_gaussian(&mut g);
        assert!(g
            .iter()
            .skip(1)
            .step_by(2)
            .any(|&q| (0.0 * q).is_sign_negative()));
        assert_parity(&own, &[], &mut w);
        assert_parity(&own, &[(&src, 0, 0.5)], &mut w);
        let mut mixer = VictimMixer::default();
        mixer.mix_noisy(&own, [(&src, 0, 0.5)]);
        assert!(
            mixer.noisy.iter().all(|z| z.im.to_bits() == 0),
            "Q rail must be +0.0"
        );
    }

    #[test]
    fn counts_split_real_and_complex_sources() {
        let real = {
            let mut r = WaveRecord::default();
            r.set_from(&[Complex::new(1.0, 0.0); 8]);
            r
        };
        let complex = {
            let mut r = WaveRecord::default();
            r.set_from(&[Complex::new(1.0, 0.5); 8]);
            r
        };
        let mut mixer = VictimMixer::default();
        mixer.start_copy(&real);
        mixer.add(&real, 0, 1.0);
        mixer.add(&real, 100, 1.0); // no overlap: still counted
        assert_eq!(
            mixer.counts(),
            MixCounts {
                re_only: 2,
                with_im: 0
            }
        );
        mixer.add(&complex, 2, 1.0);
        mixer.add(&real, 0, 1.0);
        assert_eq!(
            mixer.counts(),
            MixCounts {
                re_only: 2,
                with_im: 2
            }
        );
        assert_eq!(mixer.im[..2], [0.0, 0.0]);
        assert_eq!(mixer.im[2..], [0.5; 6]);
    }

    #[test]
    fn add_clips_both_sides() {
        let record = |xs: &[f64]| {
            let mut r = WaveRecord::default();
            r.set_from(&xs.iter().map(|&x| Complex::new(x, 0.0)).collect::<Vec<_>>());
            r
        };
        let src = record(&[1.0, 2.0, 3.0, 4.0]);
        let own = record(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let mut mixer = VictimMixer::default();
        let mut mixed = |offset| {
            mixer.start_copy(&own);
            mixer.add(&src, offset, 1.0);
            mixer.re.clone()
        };
        // Positive offset: src[0] lands on mix[2]; the head is untouched.
        assert_eq!(mixed(2), [10.0, 20.0, 31.0, 42.0, 53.0, 64.0]);
        // Negative offset: only src's tail overlaps the head.
        assert_eq!(mixed(-3), [14.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        // Fully out of range either way: no-op.
        assert_eq!(mixed(6), own.re());
        assert_eq!(mixed(-4), own.re());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn nan_gain_is_rejected() {
        let mut mixer = VictimMixer::default();
        mixer.start_zeros(4);
        mixer.add(&WaveRecord::with_capacity(4), 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn infinite_gain_is_rejected() {
        let mut mixer = VictimMixer::default();
        mixer.start_zeros(4);
        mixer.add(&WaveRecord::with_capacity(4), 0, f64::NEG_INFINITY);
    }

    #[test]
    fn mean_power_matches_the_complex_mean_power() {
        for samples in [
            vec![],
            vec![Complex::new(0.5, 0.0), Complex::new(-1.25, 0.0)],
            vec![
                Complex::new(0.5, -0.0),
                Complex::new(-1.25, 0.75),
                Complex::new(0.1, 0.2),
            ],
        ] {
            let mut r = WaveRecord::default();
            r.set_from(&samples);
            let mut mixer = VictimMixer::default();
            mixer.start_zeros(samples.len());
            mixer.add(&r, 0, 0.3);
            let mut complex = vec![Complex::ZERO; samples.len()];
            oracle::accumulate_scaled_offset(&mut complex, &samples, 0, 0.3);
            assert_eq!(
                mixer.mean_power().to_bits(),
                uwb_dsp::complex::mean_power(&complex).to_bits()
            );
            assert_eq!(
                r.mean_power().to_bits(),
                uwb_dsp::complex::mean_power(&samples).to_bits()
            );
        }
    }
}
