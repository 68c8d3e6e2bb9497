//! Every metric the benchmark reports, with its unit and direction. The
//! names, units and directions here and in the repository's
//! `BENCHMARK.json` must agree; a unit test checks that they do. The run
//! length and the end-to-end bounds are read from that file, compiled in,
//! so they have one source.

use uwb_obs::json::{parse, Json};

/// The repository's `BENCHMARK.json`.
fn benchmark_json() -> Json {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `run_seconds` of `BENCHMARK.json`: how long a run measures by default.
pub fn run_seconds() -> f64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_num)
        .expect("BENCHMARK.json has run_seconds")
}

/// The bound of each end-to-end metric, in `END_TO_END` order: the share of
/// the parent's median by which it may get worse.
pub fn bounds() -> Vec<f64> {
    let doc = benchmark_json();
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has end_to_end");
    END_TO_END
        .iter()
        .map(|m| {
            listed
                .iter()
                .find(|j| j.get("name").and_then(Json::as_str) == Some(m.name))
                .and_then(|j| j.get("bound"))
                .and_then(Json::as_num)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no bound for {}", m.name))
        })
        .collect()
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name in results and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: [Metric; 2] = [
    // Packets synthesized, impaired and decoded per wall second: link
    // trials, network links × rounds, or MAC data frames on air.
    m("packets_per_s", "1/s", true),
    // Wall time of one set-up call.
    m("setup_s", "s", false),
];

/// Measured by the traced run. Every workload reports every one; a count
/// of a layer the workload does not use reads 0.
pub const PER_LAYER: [Metric; 29] = [
    m("sim.engine.overhead_frac", "frac", false),
    m("sim.engine.parallel_eff", "frac", true),
    m("sim.channel.us_per_packet", "us", false),
    m("sim.awgn.us_per_packet", "us", false),
    m("phy.tx.us_per_packet", "us", false),
    m("phy.digitize.us_per_packet", "us", false),
    m("phy.known_timing.us_per_packet", "us", false),
    m("phy.decode_bits.us_per_packet", "us", false),
    m("phy.acquire.us_per_packet", "us", false),
    m("phy.frame_decode.us_per_packet", "us", false),
    m("phy.acq_detect_frac", "frac", true),
    m("phy.crc_ok_frac", "frac", true),
    m("unit.us_p50", "us", false),
    m("unit.us_tail", "us", false),
    m("unit.us_per_packet", "us", false),
    m("unit.unattributed_frac", "frac", false),
    m("dsp.mix.us_per_call", "us", false),
    m("dsp.fft_plans_built", "count", false),
    m("net.edges_per_link", "count", false),
    m("net.arena.max_live", "count", false),
    m("net.bad_packet_frac", "frac", false),
    m("mac.defers_per_frame", "count", false),
    m("mac.retry_frac", "frac", false),
    m("mac.decode_fail_frac", "frac", false),
    m("mac.delivered_frac", "frac", true),
    m("mac.queue_drop_frac", "frac", false),
    m("alloc.per_packet", "count", false),
    m("alloc.bytes_per_packet", "B", false),
    m("alloc.heap_peak_mb", "MB", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn check(table: &[Metric], listed: &[Json]) {
        assert_eq!(table.len(), listed.len(), "metric count");
        for (m, j) in table.iter().zip(listed) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        check(&END_TO_END, entries(&doc, "end_to_end"));
        assert!(bounds().iter().all(|b| (0.0..=0.25).contains(b)));
        assert!(run_seconds() >= 1.0);
        check(&PER_LAYER, entries(&doc, "per_layer"));
        let names: Vec<_> = entries(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| Some(w.name))
            .collect();
        assert_eq!(names, ours);
    }
}
