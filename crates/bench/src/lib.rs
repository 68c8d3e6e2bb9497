//! # uwb-bench — experiment harnesses
//!
//! One binary per experiment of `DESIGN.md` §5 (run with
//! `cargo run -p uwb-bench --release --bin <name>`), plus the tracked
//! benchmark binaries `dspbench`, `netbench` and `macbench`: suites of
//! timed kernels and determinism pins, run and checked against the
//! committed `BENCH_*.json` baselines by one driver, [`tracked`].
//!
//! | Binary | Experiment | Paper source |
//! |---|---|---|
//! | `fig4_pulse` | E1 | Fig. 4 waveform + spectrum |
//! | `fcc_mask` | E2 | §1 −41.3 dBm/MHz mask |
//! | `gen1_link` | E3 | §2 193 kbps link |
//! | `gen1_sync` | E3 | §2 sync < 70 µs |
//! | `adc_resolution` | E4 | §1 1-bit vs 4-bit claim |
//! | `gen2_link` | E5 | §3 100 Mbps over CM1–CM4 |
//! | `chanest_bits` | E6 | §3 4-bit channel estimate |
//! | `acquisition_time` | E7 | §1/§3 parallelized search |
//! | `interferer_notch` | E8 | §3 spectral monitor + notch |
//! | `bandplan` | E9 | §3 14 channels |
//! | `power_breakdown` | E10 | §1 back end + ADC > half |
//! | `modulation_compare` | E11 | §3 discrete platform study |
//! | `adaptation` | E12 | §3 power/QoS/rate trade |
//! | `ranging` | E13 | abstract: "precise locationing" |
//! | `rake_fingers` | A1 | ablation: the programmable finger count |
//! | `tracking_loops` | A2 | ablation: DLL S-curve + PLL vs CFO |
//! | `channel_profiles` | A3 | S-V channel statistics vs published profiles |
//! | `interleave_mismatch` | A4 | interleaved-ADC lane mismatch severity |
//! | `acquisition_roc` | A5 | acquisition threshold operating characteristic |
//! | `frame_efficiency` | A6 | goodput vs preamble length and payload size |

#![warn(missing_docs)]

pub mod tracked;

/// Common seed used by experiment binaries so published numbers reproduce.
pub const EXPERIMENT_SEED: u64 = 20050307; // DATE 2005, Munich, 7 March

/// Standard experiment banner.
pub fn banner(id: &str, title: &str, source: &str) -> String {
    format!(
        "==============================================================\n\
         {id}: {title}\n\
         paper source: {source}\n\
         =============================================================="
    )
}

/// Extracts the value of a `--trace <path>` flag from an argument list.
pub fn trace_arg(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Writes a run's span timeline as Chrome Trace Event JSON (viewable in
/// Perfetto / `chrome://tracing`). Warns instead of writing an empty file
/// when the build records no spans (`obs-trace` feature off).
pub fn write_trace(path: &str, telemetry: &uwb_obs::Telemetry) -> std::io::Result<()> {
    if !uwb_obs::trace::enabled() {
        eprintln!(
            "warning: --trace {path}: this build records no spans; \
             rebuild with `--features obs-trace`"
        );
        return Ok(());
    }
    std::fs::write(path, uwb_obs::trace::export_chrome(&telemetry.spans))?;
    println!(
        "trace: {} span(s) ({} dropped) -> {path}",
        telemetry.spans.len(),
        telemetry.spans_dropped
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_contains_fields() {
        let b = banner("E1", "pulse", "Fig. 4");
        assert!(b.contains("E1"));
        assert!(b.contains("Fig. 4"));
    }
}
