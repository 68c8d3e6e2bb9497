//! dspbench — tracked micro-benchmarks for the zero-allocation DSP kernel
//! layer (the perf anchor for `scripts/check.sh bench`).
//!
//! Times the FFT/correlation kernels that dominate the Monte-Carlo link
//! trials (gated), single-threaded end-to-end trial throughput
//! (informational), the FFT-plan count of the link path and the op counts
//! of one gen2 acquisition and one gen1 sync search (exact pins), and the
//! paper §1 digital-back-end blocks the power model is built from
//! (informational; EXPERIMENTS.md "Back-end block timings"):
//!
//! ```text
//! cargo run -p uwb-bench --release --bin dspbench -- --out BENCH_dsp.json
//! cargo run -p uwb-bench --release --bin dspbench -- --check BENCH_dsp.json --tol 15
//! ```
//!
//! The command line, report schema and check are `uwb_bench::tracked`'s;
//! the stage profile is that of the full-path throughput loop.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use uwb_adc::{InterleaveMismatch, InterleavedAdc, SarAdc};
use uwb_bench::tracked::{self, noise_complex, time_us, Metric, MetricPolicy::*, Suite};
use uwb_bench::EXPERIMENT_SEED;
use uwb_dsp::correlation::cross_correlate;
use uwb_dsp::fft::{cached_plan, fft_plans_built, Fft};
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Complex, DspScratch, Window};
use uwb_gen1::{Gen1Config, Gen1Transmitter};
use uwb_phy::chanest::{estimate_cir, ChannelEstimate};
use uwb_phy::mlse::{apply_symbol_channel, MlseEqualizer};
use uwb_phy::{
    AcquisitionConfig, CoarseAcquisition, ConvCode, CorrelatorBank, Gen2Config, Gen2Receiver,
    Gen2Transmitter, PulseShape, RakeReceiver,
};
use uwb_platform::link::{LinkOutcome, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb_platform::ErrorCounter;
use uwb_sim::{ChannelModel, ChannelRealization, Rand, SampleRate, StreamingChannel};

/// Trials of each throughput loop.
const TRIALS: u64 = 400;

fn main() -> ExitCode {
    tracked::main("dspbench", suite)
}

/// Throughput first, on a cold plan cache, so `fft_plans_built` reports
/// exactly how many distinct transform sizes the link path planned (each
/// once). The kernel timings would otherwise pre-populate the cache.
fn suite() -> Suite {
    let (throughput, telemetry) = run_throughput();
    let mut metrics = run_kernels();
    metrics.extend(throughput);
    metrics.extend(backend_blocks());
    Suite {
        metrics,
        telemetry,
        trials: TRIALS,
    }
}

fn run_kernels() -> Vec<Metric> {
    let mut out = Vec::new();

    // 1. 4096-point forward FFT through the thread-local plan cache,
    //    in place: the radix-2 kernel itself, which serves only spectra
    //    (Welch PSD) and test oracles (no receiver search or channel runs
    //    on it).
    {
        let plan = cached_plan(4096);
        let mut buf = noise_complex(4096, 1);
        out.push(Metric::us(
            "fft4096_planned_fwd",
            time_us(100, 15, || {
                plan.forward_in_place(&mut buf);
            }),
            Gate,
        ));
    }

    // 2. The same transform with the plan rebuilt per call — what every
    //    FFT cost before the plan cache (kept as a reference point).
    {
        let mut buf = noise_complex(4096, 2);
        out.push(Metric::us(
            "fft4096_unplanned_fwd",
            time_us(50, 15, || {
                let plan = Fft::new(4096);
                plan.forward_in_place(&mut buf);
            }),
            Gate,
        ));
    }

    // 2c. Block Gaussian generation at the AWGN per-trial shape (4096
    //     draws ≈ one complex noise burst over a short record).
    {
        let mut rng = Rand::new(22);
        let mut buf = vec![0.0f64; 4096];
        out.push(Metric::us(
            "fill_gaussian_4096",
            time_us(200, 15, || {
                rng.fill_gaussian(&mut buf);
            }),
            Gate,
        ));
    }

    // 2d. Fused AGC scale + ADC quantization at the digitizer shape
    //     (2560 samples through a 5-bit converter).
    {
        let q = uwb_adc::Quantizer::new(5, 1.0);
        let input = noise_complex(2560, 23);
        let mut out_buf = Vec::new();
        out.push(Metric::us(
            "quantize_scaled_2560x5b",
            time_us(200, 15, || {
                q.quantize_scaled_into(&input, 1.7, &mut out_buf);
            }),
            Gate,
        ));
    }

    // 3. Eight coarse acquisitions, one per noise record in turn (the
    //    row keeps its batch-era name), against the gen2 preamble code,
    //    over the receiver's search: one preamble period plus its 8-sample
    //    channel-estimate margin. The exact row beside it counts the
    //    chip-domain kernel's real adds and MACs for one such acquisition;
    //    the gen1 row counts them for one sync search of the demonstrated
    //    receiver over one preamble period of phases.
    {
        let cfg = Gen2Config::nominal_100mbps();
        let code = Gen2Transmitter::new(cfg.clone())
            .expect("nominal config is valid")
            .spread_code();
        let search = cfg.preamble_length() * cfg.samples_per_slot() + 8;
        let len = 2555;
        let ops = CorrelatorBank::new(code.clone(), 32).kernel_ops(len, search);
        let acq = CoarseAcquisition::new(code, AcquisitionConfig::with_clock(2e9));
        let records: Vec<Vec<Complex>> = (0..8).map(|i| noise_complex(len, 9 + i)).collect();
        let mut scratch = DspScratch::new();
        out.push(Metric::us(
            "batched_acquisition_B8",
            time_us(10, 15, || {
                for rec in &records {
                    let _ = acq.acquire_with(rec, search, &mut scratch);
                }
            }),
            Gate,
        ));
        out.push(Metric::new(
            "acq_kernel_ops_gen2",
            ops as f64,
            "ops",
            0,
            Exact,
        ));
        let cfg = Gen1Config::demonstrated_193kbps();
        let code = Gen1Transmitter::new(cfg.clone()).preamble_code(cfg.sync_periods());
        let phases = cfg.preamble_period_samples();
        let region = phases + code.template_len() - 1;
        let ops = CorrelatorBank::new(code, cfg.sync_parallelism).kernel_ops(region, phases);
        out.push(Metric::new(
            "acq_kernel_ops_gen1",
            ops as f64,
            "ops",
            0,
            Exact,
        ));
    }

    // 4. Streamed multipath convolution at the link block shape: one
    //    fixed-seed CM1 realization, configured once, over a 4096-sample
    //    block. Complex noise runs the complex kernel (taps × 4096 complex
    //    multiply-adds); the real parts of a 256-byte gen2 burst from its
    //    payload start, as the link feeds the channel, run the real-input
    //    kernel (two real multiply-adds per tap and output). Each call
    //    restarts from the same input so the data never drifts.
    {
        let fs = SampleRate::from_gsps(1.0);
        let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut Rand::new(24));
        let cfg = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let mut payload = vec![0u8; 256];
        Rand::new(26).fill_bytes(&mut payload);
        let burst = Gen2Transmitter::new(cfg)
            .expect("nominal config is valid")
            .transmit_packet(&payload)
            .expect("256-byte payload fits");
        let real: Vec<Complex> = burst.samples[burst.slot0_center..][..4096]
            .iter()
            .map(|z| Complex::new(z.re, 0.0))
            .collect();
        for (name, input, policy) in [
            ("stream_channel_cm1_4096", noise_complex(4096, 25), Gate),
            ("stream_channel_cm1_4096_real", real, InfoLowerBetter),
        ] {
            let mut conv = StreamingChannel::from_realization(&ch, fs);
            let mut block = input.clone();
            let mut scratch = DspScratch::new();
            let us = time_us(50, 15, || {
                block.copy_from_slice(&input);
                conv.process_block(&mut block, &mut scratch);
            });
            out.push(Metric::us(name, us, policy));
        }
    }

    out
}

/// Single-threaded end-to-end trial throughput on the smoke scenario
/// (AWGN, preamble_repeats = 2, Eb/N0 = 6 dB, 24-byte payload) — one
/// worker driven directly, exactly what each Monte-Carlo thread executes.
///
/// Two loops, one per trial kernel: the full path, then the known-timing
/// BER path. Returns the two trials/s rows, the `fft_plans_built` row, and
/// the per-stage profile of the timed full-path loop (empty when the `obs`
/// feature is off).
/// `fft_plans_built` counts the FFT plans constructed over the whole
/// section *including* warm-up — in the steady state this must equal the
/// number of distinct transform sizes the link path touches (each size
/// planned exactly once, never per trial), so it stays O(1) no matter how
/// many trials run.
fn run_throughput() -> (Vec<Metric>, uwb_obs::Telemetry) {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, EXPERIMENT_SEED);
    let mut worker = LinkWorker::new(&scenario);
    let plans_before = fft_plans_built();

    // Full path (acquisition + packet decode + BER).
    let mut outcome = LinkOutcome::default();
    // Warm the buffers so the measurement sees the steady state.
    let mut rng = Rand::for_trial(scenario.seed, 0);
    worker.trial_full(&scenario, 24, &mut rng, &mut outcome);
    // Drop the warm-up's stage timers so the profile covers exactly the
    // timed loop below.
    let _ = uwb_obs::take_thread_telemetry();
    let t0 = Instant::now();
    for t in 0..TRIALS {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_full(&scenario, 24, &mut rng, &mut outcome);
    }
    let full_tps = TRIALS as f64 / t0.elapsed().as_secs_f64();
    let telemetry = uwb_obs::take_thread_telemetry();

    // Known-timing BER path: the per-trial body each Monte-Carlo worker of
    // `run_ber_fast` executes.
    let mut counter = ErrorCounter::default();
    let mut ber_trial = |t| {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_ber(&scenario, 24, DEFAULT_STREAM_BLOCK, &mut rng, &mut counter);
    };
    ber_trial(0);
    let t0 = Instant::now();
    for t in 0..TRIALS {
        ber_trial(t);
    }
    let fast_tps = TRIALS as f64 / t0.elapsed().as_secs_f64();
    let plans_built = (fft_plans_built() - plans_before) as f64;

    let rows = vec![
        Metric::new("full_path", full_tps, "trials/s", 1, InfoHigherBetter),
        Metric::new("fast_path", fast_tps, "trials/s", 1, InfoHigherBetter),
        Metric::new("fft_plans_built", plans_built, "count", 0, Exact),
    ];
    (rows, telemetry)
}

/// The paper §1 digital-back-end blocks (Fig. 3: acquisition, channel
/// estimate, RAKE, Viterbi, MLSE), the DSP substrate under them, the S-V
/// channel generator, whole gen2 packets and the ADC models at line rate:
/// the timings EXPERIMENTS.md's back-end table records and the power model
/// (E10) scales from. Informational: they track trends, not a gate.
fn backend_blocks() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut row = |name, us| out.push(Metric::us(name, us, InfoLowerBetter));

    // Substrate: an allocating 1024-point FFT through a prebuilt plan,
    // direct correlation, and a Welch PSD.
    let fft = Fft::new(1024);
    let x: Vec<Complex> = (0..1024).map(|i| Complex::cis(0.1 * i as f64)).collect();
    row(
        "fft1024_fwd",
        time_us(200, 15, || {
            black_box(fft.forward(black_box(&x)));
        }),
    );
    let sig: Vec<Complex> = (0..8192).map(|i| Complex::cis(0.03 * i as f64)).collect();
    let tpl = sig[100..356].to_vec();
    row(
        "correlate_direct_8192x256",
        time_us(2, 5, || {
            black_box(cross_correlate(black_box(&sig), &tpl));
        }),
    );
    let sig: Vec<Complex> = (0..16_384).map(|i| Complex::cis(0.01 * i as f64)).collect();
    row(
        "welch_psd_16k_1024seg",
        time_us(10, 5, || {
            black_box(uwb_dsp::psd::welch(
                black_box(&sig),
                1e9,
                1024,
                Window::Hann,
            ));
        }),
    );

    // Acquisition over one full preamble period and a 64-tap, 3-period
    // channel estimate, on a clean 16-byte gen2 burst.
    let cfg = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg.clone()).expect("nominal config is valid");
    let burst = tx
        .transmit_packet(&[0u8; 16])
        .expect("16-byte payload fits");
    let period = cfg.preamble_length() * cfg.samples_per_slot();
    let engine = CoarseAcquisition::new(
        tx.spread_code(),
        AcquisitionConfig::with_clock(cfg.sample_rate.as_hz()),
    );
    row(
        "acquisition_full_period",
        time_us(2, 5, || {
            black_box(engine.acquire(black_box(&burst.samples), period));
        }),
    );
    let cfg = Gen2Config::nominal_100mbps();
    let tx = Gen2Transmitter::new(cfg.clone()).expect("nominal config is valid");
    let burst = tx
        .transmit_packet(&[0u8; 16])
        .expect("16-byte payload fits");
    let template = tx.preamble_template();
    let period = cfg.preamble_length() * cfg.samples_per_slot();
    row(
        "chanest_64tap_3periods",
        time_us(10, 5, || {
            black_box(estimate_cir(
                black_box(&burst.samples),
                &template,
                burst.slot0_center,
                64,
                3,
                period,
            ));
        }),
    );

    // RAKE combining of 1000 slots per finger count, the way every receiver
    // path runs it: the pulse correlated from a sample record at the finger
    // delays (10 samples per slot, the gen2 pulse at 1 GS/s).
    let mut rng = Rand::new(1);
    let taps: Vec<Complex> = (0..64)
        .map(|_| Complex::new(rng.gaussian(), rng.gaussian()) * 0.2)
        .collect();
    let est = ChannelEstimate::new(taps);
    let pulse = PulseShape::gen2_default().generate(SampleRate::from_gsps(1.0));
    let record: Vec<Complex> = (0..1000 * 10 + 64 + pulse.len())
        .map(|i| Complex::cis(0.001 * i as f64))
        .collect();
    let mut stats = Vec::new();
    for (name, fingers) in [
        ("rake_1000sym_1finger", 1),
        ("rake_1000sym_4finger", 4),
        ("rake_1000sym_8finger", 8),
        ("rake_1000sym_16finger", 16),
    ] {
        let rake = RakeReceiver::from_estimate(&est, fingers);
        row(
            name,
            time_us(100, 15, || {
                rake.combine_slots_into(black_box(&record), &pulse, 0, 10, 1000, &mut stats);
                black_box(&stats);
            }),
        );
    }

    // Soft Viterbi over 1000 bits: cost exponential in constraint length.
    let mut rng = Rand::new(2);
    let bits: Vec<bool> = (0..1000).map(|_| rng.bit()).collect();
    for (name, code) in [
        ("viterbi_1000bit_k3", ConvCode::k3()),
        ("viterbi_1000bit_k7", ConvCode::k7()),
    ] {
        let soft: Vec<f64> = code
            .encode(&bits)
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 } + 0.3 * rng.gaussian())
            .collect();
        row(
            name,
            time_us(5, 5, || {
                black_box(code.decode_soft(black_box(&soft)));
            }),
        );
    }

    // 3-tap MLSE over 1000 symbols.
    let h = vec![
        Complex::new(1.0, 0.0),
        Complex::new(0.5, 0.1),
        Complex::new(-0.2, 0.2),
    ];
    let eq = MlseEqualizer::new(h.clone());
    let mut rng = Rand::new(3);
    let symbols: Vec<bool> = (0..1000).map(|_| rng.bit()).collect();
    let rx = apply_symbol_channel(&symbols, &h);
    row(
        "mlse_3tap_1000sym",
        time_us(20, 10, || {
            black_box(eq.equalize(black_box(&rx)));
        }),
    );

    // Saleh–Valenzuela realizations (a fresh one per call).
    for (name, model) in [
        ("sv_generate_cm1", ChannelModel::Cm1),
        ("sv_generate_cm4", ChannelModel::Cm4),
    ] {
        let mut rng = Rand::new(4);
        row(
            name,
            time_us(10, 10, || {
                black_box(ChannelRealization::generate(model, &mut rng));
            }),
        );
    }

    // Whole gen2 packets: TX of 32 bytes, and RX of the same packet after
    // one CM1 realization.
    let cfg = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg.clone()).expect("nominal config is valid");
    let rx = Gen2Receiver::new(cfg.clone()).expect("nominal config is valid");
    let payload = vec![0x5Au8; 32];
    row(
        "gen2_tx_32byte",
        time_us(50, 10, || {
            black_box(tx.transmit_packet(black_box(&payload)).ok());
        }),
    );
    let burst = tx.transmit_packet(&payload).expect("32-byte payload fits");
    let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut Rand::new(1));
    let through = ch.apply(&burst.samples, cfg.sample_rate);
    row(
        "gen2_rx_32byte_cm1",
        time_us(2, 5, || {
            black_box(rx.receive_packet(black_box(&through)).ok());
        }),
    );

    // ADC models over 100k samples: a 5-bit SAR with 1 % capacitor
    // mismatch and the gen1 4-way interleaved flash.
    let x: Vec<f64> = (0..100_000)
        .map(|i| (i as f64 * 0.01).sin() * 0.9)
        .collect();
    let mut rng = Rand::new(3);
    let sar = SarAdc::with_mismatch(5, 1.0, 0.01, 0.0, &mut rng);
    let mut noise = Rand::new(4);
    row(
        "sar_5bit_100k",
        time_us(3, 5, || {
            black_box(sar.convert_block(black_box(&x), &mut noise));
        }),
    );
    let flash = InterleavedAdc::gen1(4, InterleaveMismatch::typical(), &mut rng);
    row(
        "flash_4way_100k",
        time_us(5, 5, || {
            black_box(flash.convert_block(black_box(&x)));
        }),
    );

    out
}
