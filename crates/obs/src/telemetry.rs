//! [`Telemetry`] — a mergeable snapshot of stage timers, event counts, and
//! percentile digests.
//!
//! Snapshots are drained per Monte-Carlo chunk by
//! [`crate::take_thread_telemetry`] and merged in deterministic chunk order
//! (the same ordered-prefix reduction the engine applies to trial results).
//! Entries are kept **sorted by name** as a struct invariant so merge is a
//! linear merge-join and rendered output never depends on registration
//! order (which can race across threads).

/// Sub-bucket precision bits of the log-linear digest binning: each power-of
/// -two decade above 2^4 splits into `2^DIGEST_SUB_BITS` linear sub-buckets,
/// bounding the relative quantile error at `2^-DIGEST_SUB_BITS` (6.25%).
const DIGEST_SUB_BITS: u32 = 4;

/// Number of bins per percentile digest: values `0..16` get exact bins,
/// then each of the 60 power-of-two decades `2^4..=2^63` gets 16 linear
/// sub-buckets (HDR-histogram style), covering the full `u64` range.
pub const DIGEST_BINS: usize = 16 + (64 - DIGEST_SUB_BITS as usize) * 16;

/// Returns the log-linear digest bin index for a sample. Exact below 16;
/// above, bin = decade base + linear sub-bucket within the decade.
#[inline]
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn digest_bin(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // 4..=63
    let sub = ((v >> (e - DIGEST_SUB_BITS)) & 15) as usize;
    16 + ((e - DIGEST_SUB_BITS) as usize) * 16 + sub
}

/// The largest value that lands in digest bin `bin` (inclusive upper edge;
/// saturates at `u64::MAX` for the top bins). Quantile extraction reports
/// this edge, so reported quantiles never *under*-state the true value by
/// more than the bin width (≤ 6.25% relative).
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn digest_bin_high(bin: usize) -> u64 {
    if bin < 16 {
        return bin as u64;
    }
    let e = (bin - 16) as u32 / 16 + DIGEST_SUB_BITS; // 4..=63
    let sub = ((bin - 16) % 16) as u64;
    let low = (1u64 << e) + (sub << (e - DIGEST_SUB_BITS));
    low.saturating_add((1u64 << (e - DIGEST_SUB_BITS)) - 1)
}

/// Accumulated time and call count for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Stage name (a registered static string).
    pub name: &'static str,
    /// Number of completed spans.
    pub calls: u64,
    /// Total nanoseconds across those spans (wall-clock: **excluded** from
    /// the determinism contract).
    pub ns: u64,
}

/// Count of one event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStat {
    /// Event name (a registered static string).
    pub name: &'static str,
    /// Occurrences.
    pub count: u64,
}

/// A sparse log-linear (HDR-style) percentile digest: enough bin resolution
/// (≤ 6.25% relative error) to extract deterministic p50/p95/p99, plus the
/// exact sum (hence the mean) and maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestStat {
    /// Digest name (a registered static string).
    pub name: &'static str,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Non-empty `(bin, count)` pairs, sorted by bin index
    /// (see [`DIGEST_BINS`]).
    pub bins: Vec<(u16, u64)>,
}

impl DigestStat {
    /// The deterministic `q`-quantile (0 < q ≤ 1): the inclusive upper edge
    /// of the bin containing the rank-`ceil(q·count)` sample, clamped to the
    /// exact observed maximum. Returns 0 for an empty digest.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bin, n) in &self.bins {
            seen += n;
            if seen >= rank {
                return digest_bin_high(bin as usize).min(self.max);
            }
        }
        self.max
    }
}

/// A mergeable telemetry snapshot: per-stage time/calls, event counts,
/// percentile digests, plus (when enabled) span-timeline records
/// and the worst-trial flight-recorder ring — the "where did the time go /
/// why did it fail" record that rides on `uwb_sim::montecarlo::RunStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Stage statistics, sorted by name.
    pub stages: Vec<StageStat>,
    /// Event counts, sorted by name.
    pub events: Vec<EventStat>,
    /// Percentile digests, sorted by name.
    pub digests: Vec<DigestStat>,
    /// Span-timeline records in execution order (only populated with the
    /// `obs-trace` feature). Wall-clock fields are excluded from the
    /// determinism contract; record count and order are not.
    pub spans: Vec<crate::trace::SpanRecord>,
    /// Span records dropped because a per-thread trace ring filled up
    /// between drains.
    pub spans_dropped: u64,
    /// The K worst trials by `(bit_errors desc, acq_metric asc, trial asc)`
    /// with forensic snapshots, merged across threads
    /// (see [`crate::recorder`]).
    pub worst: Vec<crate::recorder::TrialForensics>,
}

/// Merge-joins two name-sorted vectors with `combine` on name collisions.
fn merge_by_name<T: Clone>(
    dst: &mut Vec<T>,
    src: &[T],
    name: impl Fn(&T) -> &'static str,
    combine: impl Fn(&mut T, &T),
) {
    if src.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < dst.len() && j < src.len() {
        match name(&dst[i]).cmp(name(&src[j])) {
            std::cmp::Ordering::Less => {
                out.push(dst[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(src[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut merged = dst[i].clone();
                combine(&mut merged, &src[j]);
                out.push(merged);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&dst[i..]);
    out.extend_from_slice(&src[j..]);
    *dst = out;
}

impl Telemetry {
    /// `true` when nothing was recorded (always true with `obs` off).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
            && self.events.is_empty()
            && self.digests.is_empty()
            && self.spans.is_empty()
            && self.spans_dropped == 0
            && self.worst.is_empty()
    }

    /// Folds `other` into `self` (adds calls/ns/counts/bins by name).
    /// Associative; the Monte-Carlo engine only applies it in ascending
    /// chunk order, matching the trial-result merge contract.
    pub fn merge(&mut self, other: &Telemetry) {
        merge_by_name(
            &mut self.stages,
            &other.stages,
            |s| s.name,
            |a, b| {
                a.calls += b.calls;
                a.ns += b.ns;
            },
        );
        merge_by_name(
            &mut self.events,
            &other.events,
            |e| e.name,
            |a, b| a.count += b.count,
        );
        merge_by_name(
            &mut self.digests,
            &other.digests,
            |d| d.name,
            |a, b| {
                a.count += b.count;
                a.sum = a.sum.wrapping_add(b.sum);
                a.max = a.max.max(b.max);
                let mut bins = Vec::with_capacity(a.bins.len() + b.bins.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.bins.len() && j < b.bins.len() {
                    match a.bins[i].0.cmp(&b.bins[j].0) {
                        std::cmp::Ordering::Less => {
                            bins.push(a.bins[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            bins.push(b.bins[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            bins.push((a.bins[i].0, a.bins[i].1 + b.bins[j].1));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                bins.extend_from_slice(&a.bins[i..]);
                bins.extend_from_slice(&b.bins[j..]);
                a.bins = bins;
            },
        );
        // Spans concatenate: the engine merges chunks in ascending chunk
        // order and each chunk's spans are in serial execution order, so the
        // merged sequence is thread-count invariant.
        self.spans.extend_from_slice(&other.spans);
        self.spans_dropped += other.spans_dropped;
        // Worst-trial ring: keep the K globally worst by the pure key.
        if !other.worst.is_empty() {
            self.worst.extend_from_slice(&other.worst);
            self.worst.sort_unstable_by_key(|f| f.sort_key());
            self.worst.truncate(crate::recorder::WORST_K);
        }
    }

    /// Total nanoseconds across all stages.
    pub fn total_stage_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }

    /// Count for a named event (0 when never recorded).
    pub fn event_count(&self, name: &str) -> u64 {
        self.events
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.count)
    }

    /// Stage statistics for a named stage, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders the snapshot as hand-rolled JSON (no serde), **including**
    /// the wall-clock `ns` fields. Shape:
    ///
    /// ```json
    /// {"stages":[{"name":"tx","calls":8,"ns":12345}],
    ///  "events":[{"name":"crc_fail","count":2}],
    ///  "quantiles":[{"name":"trial_bit_errors","count":8,"sum":3,
    ///                "p50":1,"p95":3,"p99":3,"max":3}]}
    /// ```
    ///
    /// Span-timeline records and the flight-recorder ring are **not** part
    /// of this report; see [`crate::trace::export_chrome`] and
    /// [`crate::recorder::render_report`].
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// [`Telemetry::to_json`] with every wall-clock field omitted: the
    /// result is **bit-identical across thread counts** for a deterministic
    /// Monte-Carlo run (the determinism-gate form).
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, with_timing: bool) -> String {
        let mut s = String::from("{\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            if with_timing {
                s.push_str(&format!(
                    "{{\"name\":{},\"calls\":{},\"ns\":{}}}",
                    crate::json::escape(st.name),
                    st.calls,
                    st.ns
                ));
            } else {
                s.push_str(&format!(
                    "{{\"name\":{},\"calls\":{}}}",
                    crate::json::escape(st.name),
                    st.calls
                ));
            }
        }
        s.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"count\":{}}}",
                crate::json::escape(e.name),
                e.count
            ));
        }
        s.push_str("],\"quantiles\":[");
        for (i, d) in self.digests.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                crate::json::escape(d.name),
                d.count,
                d.sum,
                d.quantile(0.50),
                d.quantile(0.95),
                d.quantile(0.99),
                d.max
            ));
        }
        s.push_str("]}");
        s
    }

    /// FNV-1a hash over the deterministic content (names, call counts,
    /// event counts, digest bins — **not** nanoseconds): two runs with
    /// the same contributing trials produce the same fingerprint regardless
    /// of thread count.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for s in &self.stages {
            eat(s.name.as_bytes());
            eat(&s.calls.to_le_bytes());
        }
        for e in &self.events {
            eat(e.name.as_bytes());
            eat(&e.count.to_le_bytes());
        }
        for d in &self.digests {
            eat(d.name.as_bytes());
            eat(&d.count.to_le_bytes());
            eat(&d.sum.to_le_bytes());
            eat(&d.max.to_le_bytes());
            for (bin, n) in &d.bins {
                eat(&bin.to_le_bytes());
                eat(&n.to_le_bytes());
            }
        }
        h
    }

    /// FNV-1a hash over the span-timeline's deterministic content — the
    /// ordered `(stage name, trial)` sequence plus the drop count, **not**
    /// the wall-clock timestamps or thread ids. Bit-identical for any
    /// `UWB_THREADS` on a deterministic run.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for sp in &self.spans {
            eat(sp.name.as_bytes());
            eat(&sp.trial.to_le_bytes());
        }
        eat(&self.spans_dropped.to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        Telemetry {
            stages: vec![
                StageStat {
                    name: "acq",
                    calls: 2,
                    ns: 100,
                },
                StageStat {
                    name: "tx",
                    calls: 4,
                    ns: 50,
                },
            ],
            events: vec![EventStat {
                name: "crc_fail",
                count: 1,
            }],
            // Samples 0, 2, 3.
            digests: vec![DigestStat {
                name: "errs",
                count: 3,
                sum: 5,
                max: 3,
                bins: vec![(0, 1), (2, 1), (3, 1)],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn digest_binning_is_log_linear_and_exhaustive() {
        // Exact bins below 16.
        for v in 0u64..16 {
            assert_eq!(digest_bin(v), v as usize);
        }
        // Every bin's inclusive upper edge maps back into that bin, and
        // edges are strictly increasing until saturation.
        let mut prev_high = 0u64;
        for bin in 0..DIGEST_BINS {
            let high = digest_bin_high(bin);
            assert_eq!(
                digest_bin(high),
                bin,
                "bin {bin} upper edge {high} maps elsewhere"
            );
            if bin > 0 && high != u64::MAX {
                assert!(high > prev_high, "bin {bin} edge not increasing");
            }
            prev_high = high;
        }
        // Extremes.
        assert_eq!(digest_bin(u64::MAX), DIGEST_BINS - 1);
        assert_eq!(digest_bin_high(DIGEST_BINS - 1), u64::MAX);
        // Relative bin width stays within the advertised 6.25% above 16.
        for v in [17u64, 100, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let b = digest_bin(v);
            let high = digest_bin_high(b);
            assert!(high >= v);
            assert!(
                (high - v) as f64 <= v as f64 / 16.0 + 1.0,
                "bin width too coarse at {v}: high {high}"
            );
        }
    }

    #[test]
    fn digest_quantiles_are_deterministic_and_ordered() {
        let mut bins: Vec<(u16, u64)> = Vec::new();
        let mut max = 0u64;
        let mut add = |bins: &mut Vec<(u16, u64)>, v: u64| {
            let b = digest_bin(v) as u16;
            match bins.binary_search_by_key(&b, |&(bin, _)| bin) {
                Ok(i) => bins[i].1 += 1,
                Err(i) => bins.insert(i, (b, 1)),
            }
            max = max.max(v);
        };
        // 100 samples: 0..=89 are small, ten large outliers of 1000.
        let mut sum = 0u64;
        for v in 0..90u64 {
            add(&mut bins, v % 8);
            sum += v % 8;
        }
        for _ in 0..10 {
            add(&mut bins, 1000);
            sum += 1000;
        }
        let d = DigestStat {
            name: "q",
            count: 100,
            sum,
            max,
            bins,
        };
        let p50 = d.quantile(0.50);
        let p95 = d.quantile(0.95);
        let p99 = d.quantile(0.99);
        assert!(p50 <= 7, "p50 {p50} should sit in the small mass");
        assert!((937..=1000).contains(&p95), "p95 {p95} should hit the outliers");
        assert_eq!(p99, 1000, "p99 clamps to the exact max's bin edge");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= d.max);
        // Empty digest yields zeros, not panics.
        let empty = DigestStat {
            name: "e",
            count: 0,
            sum: 0,
            max: 0,
            bins: vec![],
        };
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn digest_merge_adds_bins_and_maxes() {
        let a0 = DigestStat {
            name: "d",
            count: 2,
            sum: 18,
            max: 17,
            bins: vec![(digest_bin(1) as u16, 1), (digest_bin(17) as u16, 1)],
        };
        let b0 = DigestStat {
            name: "d",
            count: 1,
            sum: 1000,
            max: 1000,
            bins: vec![(digest_bin(1000) as u16, 1)],
        };
        let mut a = Telemetry {
            digests: vec![a0],
            ..Default::default()
        };
        let b = Telemetry {
            digests: vec![b0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.digests.len(), 1);
        assert_eq!(a.digests[0].count, 3);
        assert_eq!(a.digests[0].max, 1000);
        assert_eq!(a.digests[0].bins.len(), 3);
        let total: u64 = a.digests[0].bins.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn merge_adds_and_interleaves() {
        let mut a = sample();
        let b = Telemetry {
            stages: vec![
                StageStat {
                    name: "rake",
                    calls: 1,
                    ns: 7,
                },
                StageStat {
                    name: "tx",
                    calls: 1,
                    ns: 3,
                },
            ],
            events: vec![
                EventStat {
                    name: "acq_miss",
                    count: 2,
                },
                EventStat {
                    name: "crc_fail",
                    count: 4,
                },
            ],
            // Samples 3 and 40.
            digests: vec![DigestStat {
                name: "errs",
                count: 2,
                sum: 43,
                max: 40,
                bins: vec![(3, 1), (digest_bin(40) as u16, 1)],
            }],
            ..Default::default()
        };
        a.merge(&b);
        let names: Vec<_> = a.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["acq", "rake", "tx"]);
        assert_eq!(a.stage("tx").unwrap().calls, 5);
        assert_eq!(a.stage("tx").unwrap().ns, 53);
        assert_eq!(a.event_count("crc_fail"), 5);
        assert_eq!(a.event_count("acq_miss"), 2);
        assert_eq!(a.event_count("nonexistent"), 0);
        let d = &a.digests[0];
        assert_eq!((d.count, d.sum, d.max), (5, 48, 40));
        assert_eq!(
            d.bins,
            vec![(0, 1), (2, 1), (3, 2), (digest_bin(40) as u16, 1)]
        );
    }

    #[test]
    fn merge_is_associative_on_counts() {
        let (a, b, c) = (sample(), sample(), sample());
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn json_shapes() {
        let t = sample();
        let full = t.to_json();
        assert!(full.contains("\"ns\":100"), "{full}");
        assert!(
            full.contains(
                "\"quantiles\":[{\"name\":\"errs\",\"count\":3,\"sum\":5,\"p50\":2,\"p95\":3,\"p99\":3,\"max\":3}]"
            ),
            "{full}"
        );
        let det = t.to_json_deterministic();
        assert!(!det.contains("\"ns\""), "{det}");
        // Both parse with the in-repo checker.
        crate::json::parse(&full).unwrap();
        crate::json::parse(&det).unwrap();
        // Empty snapshot still renders valid JSON.
        crate::json::parse(&Telemetry::default().to_json()).unwrap();
    }

    #[test]
    fn fingerprint_ignores_timing_only() {
        let a = sample();
        let mut b = sample();
        b.stages[0].ns = 999_999;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.events[0].count += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
