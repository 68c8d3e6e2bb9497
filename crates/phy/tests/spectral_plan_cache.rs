//! The spectral monitor's Welch PSD runs on this thread's cached FFT plans.
//!
//! This binary holds one test, so the process-wide `fft_plans_built`
//! counter moves only with it.

use uwb_dsp::fft::fft_plans_built;
use uwb_dsp::Nco;
use uwb_phy::SpectralMonitor;

#[test]
fn repeated_analysis_builds_no_fft_plan() {
    let fs = 1.0e9;
    let monitor = SpectralMonitor::new();
    // A tone over a whole number of segments, and a block shorter than
    // one segment (the single-periodogram fallback).
    let long = Nco::new(120.0e6, fs).generate_complex(8192);
    let short = Nco::new(-40.0e6, fs).generate_complex(300);
    let first = [monitor.analyze(&long, fs), monitor.analyze(&short, fs)];
    assert!(first[0].detected && first[1].detected);
    let built = fft_plans_built();
    for _ in 0..4 {
        assert_eq!(monitor.analyze(&long, fs), first[0]);
        assert_eq!(monitor.analyze(&short, fs), first[1]);
    }
    assert_eq!(fft_plans_built(), built, "a warm analysis built a plan");
}
