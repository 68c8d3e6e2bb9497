//! Ranging demo: measure the distance between two UWB nodes with a two-way
//! exchange (the "precise locationing" of the paper's abstract).
//!
//! Run with: `cargo run --release --example ranging_demo`

use uwb::dsp::resample::fractional_delay;
use uwb::dsp::Complex;
use uwb::phy::pulse::PulseShape;
use uwb::phy::ranging::{distance_to_delay_ns, solve_two_way, ToaEstimator};
use uwb::phy::SpreadCode;
use uwb::sim::awgn::add_awgn_complex;
use uwb::sim::{ChannelModel, ChannelRealization, Rand, SampleRate};

fn main() {
    let fs = SampleRate::from_gsps(1.0);
    let mut rng = Rand::new(5);

    // A short ranging preamble: 31 BPSK pulses, 10 samples apart.
    let code = SpreadCode {
        chips: uwb::phy::pn::msequence_chips(5),
        samples_per_chip: 10,
        pulse: PulseShape::gen2_default().generate(fs),
    };

    let true_distance_m = 3.7;
    println!("true distance: {true_distance_m} m");

    // Node A transmits; the signal crosses a CM1 room and arrives delayed by
    // the time of flight.
    let delay_samples = distance_to_delay_ns(true_distance_m) * fs.as_hz() / 1e9;
    let channel = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
    let mut sig = vec![Complex::ZERO; 50];
    sig.extend(code.template());
    sig.extend(vec![Complex::ZERO; 100]);
    let through = channel.apply(&sig, fs);
    let arrived = fractional_delay(&through, delay_samples, 8);
    let p = uwb_dsp::complex::mean_power(&arrived);
    let noisy = add_awgn_complex(&arrived, p / 50.0, &mut rng);

    // Node B timestamps the leading edge. A slightly lower edge threshold
    // than the default catches weak-but-real first paths.
    let est = ToaEstimator {
        edge_fraction: 0.15,
        ..ToaEstimator::new()
    };
    let toa = est.estimate(&noisy, &code, fs).expect("no signal");
    println!(
        "leading-edge TOA: {:.2} ns (edge {:.0} % of strongest path)",
        toa.ns,
        100.0 * toa.edge_magnitude / toa.peak_magnitude
    );

    // Two-way solve: B replies after a fixed 1 µs turnaround; A measures the
    // same one-way delay on the return (symmetric channel assumed).
    let oneway_ns = toa.ns - 50.0; // template was inserted at sample 50
    let result = solve_two_way(0.0, 2.0 * oneway_ns + 1000.0, 1000.0);
    println!(
        "estimated distance: {:.2} m (error {:.0} cm)",
        result.distance_m,
        (result.distance_m - true_distance_m).abs() * 100.0
    );
}
