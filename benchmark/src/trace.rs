//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer, kept in a preallocated `Vec` and written out at exit.

use std::time::Instant;
use uwb_obs::trace::{export_chrome, SpanRecord};

/// One completed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Unit of work (trial, round, replication, probed packet) it served.
    pub unit: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Span recorder. Never grows past its initial capacity: spans beyond it
/// are counted as dropped, so recording never allocates.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A recorder holding up to `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let full =
            self.spans.len() == self.spans.capacity() || self.open.len() == self.open.capacity();
        if full {
            self.dropped += 1;
            return f(self);
        }
        let i = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(i);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            unit,
            start_ns,
            dur_ns: 0,
        });
        let r = f(self);
        self.spans[i].dur_ns = self.now_ns() - start_ns;
        self.open.pop();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (ns) of the spans named `name` directly inside a span
    /// named `parent`.
    pub fn durations(&self, name: &str, parent: &str) -> Vec<f64> {
        let inside = |s: &Span| s.parent.is_some_and(|p| self.spans[p].name == parent);
        let hits = self.spans.iter().filter(|s| s.name == name && inside(s));
        hits.map(|s| s.dur_ns as f64).collect()
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Per span name, in first-seen order: calls, total and self time (ns).
    /// Self time is a span's duration minus what its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let self_ns = s.dur_ns.saturating_sub(c);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns;
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.dur_ns, self_ns)),
            }
        }
        rows
    }

    /// The spans as a Chrome Trace Event document (Perfetto,
    /// `chrome://tracing`); the unit index rides in `args.trial` and every
    /// span of one workload shares the track `tid`, where nesting shows.
    pub fn chrome_json(&self, tid: u32) -> String {
        let records: Vec<SpanRecord> = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name,
                trial: s.unit,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                thread: tid,
            })
            .collect();
        export_chrome(&records)
    }
}

/// Measured cost of recording one span, in nanoseconds: the tracing
/// overhead a traced run adds per span.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut tr = Tracer::new(N as usize);
    let t0 = Instant::now();
    for i in 0..N {
        tr.span("calibrate", i, |_| std::hint::black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_capacity() {
        let mut tr = Tracer::new(3);
        tr.span("outer", 0, |tr| {
            tr.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", 1, |_| ());
        });
        tr.span("dropped", 0, |_| ());
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.spans()[1].parent, Some(0));
        let rows = tr.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!(inner.1, 2);
        assert_eq!(outer.2, outer.3 + inner.2, "self + children = total");
        assert_eq!(tr.durations("inner", "outer").len(), 2);
        assert!(tr.durations("inner", "dropped").is_empty());
        let doc = uwb_obs::json::parse(&tr.chrome_json(7)).expect("valid trace JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }
}
