//! Property-based tests for environment-model invariants.

use proptest::prelude::*;
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization, SvParams, Tap};
use uwb_sim::time::{Hertz, Picoseconds, SampleRate};
use uwb_sim::Rand;
use uwb_dsp::Complex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated channel realization has unit energy and sorted taps.
    #[test]
    fn channel_invariants(seed in any::<u64>()) {
        for model in [ChannelModel::Cm1, ChannelModel::Cm2, ChannelModel::Cm3, ChannelModel::Cm4] {
            let ch = ChannelRealization::generate(model, &mut Rand::new(seed));
            prop_assert!((ch.energy() - 1.0).abs() < 1e-9);
            for w in ch.taps().windows(2) {
                prop_assert!(w[0].delay_ns <= w[1].delay_ns);
            }
            prop_assert!(ch.rms_delay_spread_ns() >= 0.0);
            prop_assert!(ch.mean_excess_delay_ns() >= 0.0);
            prop_assert!(ch.max_excess_delay_ns() >= ch.mean_excess_delay_ns());
        }
    }

    /// Energy capture is monotone in finger count and reaches 1.
    #[test]
    fn energy_capture_monotone(seed in any::<u64>()) {
        let ch = ChannelRealization::generate(ChannelModel::Cm3, &mut Rand::new(seed));
        let mut prev = 0.0;
        for n in [1usize, 2, 4, 8, 16, 64, 100_000] {
            let e = ch.energy_capture(n);
            prop_assert!(e + 1e-12 >= prev);
            prop_assert!(e <= 1.0 + 1e-9);
            prev = e;
        }
        prop_assert!((ch.energy_capture(usize::MAX) - 1.0).abs() < 1e-9);
    }

    /// Custom SV parameters always yield valid realizations.
    #[test]
    fn custom_sv_params(
        cluster_rate in 0.01f64..1.0,
        ray_rate in 0.1f64..5.0,
        cluster_decay in 1.0f64..40.0,
        ray_decay in 0.5f64..20.0,
        seed in any::<u64>(),
    ) {
        let p = SvParams {
            cluster_rate,
            ray_rate,
            cluster_decay,
            ray_decay,
            fading_sigma_db: 3.4,
        };
        let ch = ChannelRealization::generate_sv(&p, &mut Rand::new(seed));
        prop_assert!((ch.energy() - 1.0).abs() < 1e-9);
        prop_assert!(!ch.taps().is_empty());
        prop_assert!(ch.taps().iter().all(|t| t.gain.is_finite()));
    }

    /// from_taps normalizes any non-degenerate tap set.
    #[test]
    fn from_taps_normalizes(gains in prop::collection::vec((0.01f64..10.0, -3.1f64..3.1, 0.0f64..100.0), 1..40)) {
        let taps: Vec<Tap> = gains
            .iter()
            .map(|&(r, phi, d)| Tap { delay_ns: d, gain: Complex::from_polar(r, phi) })
            .collect();
        let ch = ChannelRealization::from_taps(taps);
        prop_assert!((ch.energy() - 1.0).abs() < 1e-9);
    }

    /// AWGN power calibration holds for any requested power.
    #[test]
    fn awgn_power(power in 0.001f64..100.0, seed in any::<u64>()) {
        let mut rng = Rand::new(seed);
        let noise = uwb_sim::awgn::complex_noise(20_000, power, &mut rng);
        let p = uwb_dsp::complex::mean_power(&noise);
        prop_assert!((p - power).abs() / power < 0.1, "{p} vs {power}");
    }

    /// Time/frequency conversions are consistent.
    #[test]
    fn time_units(ns in 0.001f64..1e6) {
        let t = Picoseconds::from_nanos(ns);
        prop_assert!((t.as_ns() - ns).abs() / ns < 1e-12);
        prop_assert!((t.as_secs() * 1e12 - t.as_ps()).abs() < 1e-6 * t.as_ps().abs().max(1.0));
    }

    /// Frequency period inverse relationship.
    #[test]
    fn frequency_period(ghz in 0.001f64..100.0) {
        let f = Hertz::from_ghz(ghz);
        let t = f.period();
        prop_assert!((t.as_secs() * f.as_hz() - 1.0).abs() < 1e-9);
    }

    /// Sample-rate normalization round trip.
    #[test]
    fn normalization_round_trip(gsps in 0.1f64..100.0, frac in -0.5f64..0.5) {
        let fs = SampleRate::from_gsps(gsps);
        let f = fs.to_hz(frac);
        prop_assert!((fs.normalize(f) - frac).abs() < 1e-12);
    }

    /// Free-space path loss grows monotonically with distance and frequency.
    #[test]
    fn fspl_monotone(d1 in 0.1f64..100.0, scale in 1.01f64..10.0, ghz in 1.0f64..11.0) {
        use uwb_sim::pathloss::free_space_path_loss_db;
        let f = Hertz::from_ghz(ghz);
        prop_assert!(free_space_path_loss_db(d1 * scale, f) > free_space_path_loss_db(d1, f));
        let f2 = Hertz::from_ghz(ghz * scale);
        prop_assert!(free_space_path_loss_db(d1, f2) > free_space_path_loss_db(d1, f));
    }

    /// Interferer generators honour their power parameter.
    #[test]
    fn interferer_power(p in 0.01f64..50.0, f_mhz in -400.0f64..400.0, seed in any::<u64>()) {
        let intf = uwb_sim::Interferer::cw(f_mhz * 1e6, p);
        let sig = intf.generate(4096, 1e9, &mut Rand::new(seed));
        let measured = uwb_dsp::complex::mean_power(&sig);
        prop_assert!((measured - p).abs() / p < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block Gaussian generation is bitwise invariant to how a request is
    /// partitioned into chunks — the carry buffer refills on fixed
    /// boundaries regardless of the caller's chunking.
    #[test]
    fn fill_gaussian_chunk_invariant(
        seed in any::<u64>(),
        cuts in prop::collection::vec(1usize..64, 0..24),
    ) {
        let total = 600usize;
        let mut whole = vec![0.0f64; total];
        Rand::new(seed).fill_gaussian(&mut whole);

        let mut chunked = Rand::new(seed);
        let mut got = Vec::with_capacity(total);
        let mut remaining = total;
        for c in cuts {
            if remaining == 0 {
                break;
            }
            let take = c.min(remaining);
            let mut part = vec![0.0f64; take];
            chunked.fill_gaussian(&mut part);
            got.extend_from_slice(&part);
            remaining -= take;
        }
        if remaining > 0 {
            let mut part = vec![0.0f64; remaining];
            chunked.fill_gaussian(&mut part);
            got.extend_from_slice(&part);
        }
        for (a, b) in whole.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert!(whole.iter().all(|x| x.is_finite()));
    }
}

/// The block stream must never perturb the scalar stream (they draw from
/// independent generator state).
mod block_stream_independence {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fill_gaussian_leaves_scalar_stream_untouched(
            seed in any::<u64>(),
            n in 1usize..400,
        ) {
            let mut plain = Rand::new(seed);
            let want: Vec<u64> = (0..8).map(|_| plain.gaussian().to_bits()).collect();

            let mut mixed = Rand::new(seed);
            let mut buf = vec![0.0f64; n];
            mixed.fill_gaussian(&mut buf);
            let got: Vec<u64> = (0..8).map(|_| mixed.gaussian().to_bits()).collect();
            prop_assert_eq!(want, got);
        }
    }
}
