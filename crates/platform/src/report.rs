//! ASCII reporting for experiment binaries: aligned tables and log-scale
//! series, so every figure/table of the paper can be regenerated as text.

/// A simple aligned ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders a [`uwb_obs::Telemetry`] snapshot as a per-stage profile table:
/// one row per pipeline stage (`stage | calls | total ms | ns/call | %`),
/// stages sorted by descending total time, followed by one row per event
/// count. Returns an empty table when the snapshot is empty (telemetry off).
pub fn stage_table(telemetry: &uwb_obs::Telemetry) -> Table {
    let mut t = Table::new(vec!["stage", "calls", "total ms", "ns/call", "%"]);
    let total_ns: u64 = telemetry.total_stage_ns().max(1);
    let mut stages: Vec<_> = telemetry.stages.iter().collect();
    stages.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.name.cmp(b.name)));
    for s in stages {
        let per_call = s.ns.checked_div(s.calls).unwrap_or(0);
        t.row(vec![
            s.name.to_string(),
            s.calls.to_string(),
            format!("{:.2}", s.ns as f64 / 1e6),
            per_call.to_string(),
            format!("{:.1}", 100.0 * s.ns as f64 / total_ns as f64),
        ]);
    }
    for e in &telemetry.events {
        t.row(vec![
            format!("event:{}", e.name),
            e.count.to_string(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// Formats a BER (or any small probability) compactly: `1.2e-4` or `<1e-7`
/// when zero errors were seen over `total` observations.
pub fn format_rate(errors: u64, total: u64) -> String {
    if total == 0 {
        return "n/a".into();
    }
    if errors == 0 {
        return format!("<{:.0e}", 1.0 / total as f64);
    }
    format!("{:.2e}", errors as f64 / total as f64)
}

/// Renders an (x, y) series as a log-y ASCII strip chart, one row per point:
/// `x | bar | y`. `y` values ≤ 0 render as an empty bar.
pub fn log_strip_chart(series: &[(f64, f64)], x_label: &str, y_label: &str) -> String {
    if series.is_empty() {
        return String::new();
    }
    let y_min_pos = series
        .iter()
        .filter(|(_, y)| *y > 0.0)
        .map(|(_, y)| *y)
        .fold(f64::INFINITY, f64::min);
    let y_max = series.iter().map(|(_, y)| *y).fold(0.0f64, f64::max);
    let mut out = format!("{x_label:>10} | {y_label}\n");
    if y_max <= 0.0 || !y_min_pos.is_finite() {
        for (x, _) in series {
            out.push_str(&format!("{x:>10.2} | (zero)\n"));
        }
        return out;
    }
    let lo = y_min_pos.log10().floor();
    let hi = y_max.log10().ceil().max(lo + 1.0);
    let width = 50.0;
    for (x, y) in series {
        let bar = if *y > 0.0 {
            let frac = ((y.log10() - lo) / (hi - lo)).clamp(0.0, 1.0);
            "#".repeat((frac * width).round() as usize)
        } else {
            String::new()
        };
        out.push_str(&format!("{x:>10.2} | {bar:<50} {y:.3e}\n"));
    }
    out
}

/// Renders a real waveform as a rough ASCII oscillogram (the Fig. 4 view):
/// `rows` lines of `cols` characters, amplitude mapped vertically.
pub fn oscillogram(samples: &[f64], rows: usize, cols: usize) -> String {
    if samples.is_empty() || rows < 3 || cols < 3 {
        return String::new();
    }
    let max = samples
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(1e-30);
    let mut grid = vec![vec![' '; cols]; rows];
    for (c, _) in (0..cols).enumerate() {
        let idx = c * (samples.len() - 1) / (cols - 1);
        let v = samples[idx] / max; // -1..1
        let r = ((1.0 - v) / 2.0 * (rows - 1) as f64).round() as usize;
        grid[r.min(rows - 1)][c] = '*';
    }
    // Zero axis.
    let zero_row = (rows - 1) / 2;
    for cell in grid[zero_row].iter_mut() {
        if *cell == ' ' {
            *cell = '-';
        }
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders complex decision statistics as an ASCII constellation scatter:
/// I on the horizontal axis, Q vertical, axes drawn through zero, density
/// shown as `.`, `:`, `*`, `#`.
pub fn constellation(points: &[uwb_dsp::Complex], rows: usize, cols: usize) -> String {
    if points.is_empty() || rows < 5 || cols < 5 {
        return String::new();
    }
    let max = points
        .iter()
        .fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()))
        .max(1e-30)
        * 1.1;
    let mut counts = vec![vec![0usize; cols]; rows];
    for z in points {
        let c = (((z.re / max) + 1.0) / 2.0 * (cols - 1) as f64).round() as usize;
        let r = ((1.0 - z.im / max) / 2.0 * (rows - 1) as f64).round() as usize;
        counts[r.min(rows - 1)][c.min(cols - 1)] += 1;
    }
    let peak = counts
        .iter()
        .flat_map(|row| row.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let glyph = |n: usize| -> char {
        if n == 0 {
            ' '
        } else if n * 8 <= peak {
            '.'
        } else if n * 3 <= peak {
            ':'
        } else if n * 3 <= 2 * peak {
            '*'
        } else {
            '#'
        }
    };
    let (mid_r, mid_c) = ((rows - 1) / 2, (cols - 1) / 2);
    let mut out = String::new();
    for (r, row) in counts.iter().enumerate() {
        for (c, &n) in row.iter().enumerate() {
            let ch = if n > 0 {
                glyph(n)
            } else if r == mid_r && c == mid_c {
                '+'
            } else if r == mid_r {
                '-'
            } else if c == mid_c {
                '|'
            } else {
                ' '
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["Eb/N0", "BER"]);
        t.row(vec!["0", "1.2e-1"]);
        t.row(vec!["10", "3.4e-6"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
        assert!(s.contains("Eb/N0"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ragged_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn stage_table_sorts_by_time_and_lists_events() {
        use uwb_obs::{EventStat, StageStat, Telemetry};
        let telemetry = Telemetry {
            stages: vec![
                StageStat {
                    name: "cheap",
                    calls: 10,
                    ns: 1_000,
                },
                StageStat {
                    name: "hot",
                    calls: 10,
                    ns: 9_000_000,
                },
            ],
            events: vec![EventStat {
                name: "acq_miss",
                count: 3,
            }],
            ..Default::default()
        };
        let t = stage_table(&telemetry);
        let s = t.render();
        let hot_line = s.lines().position(|l| l.contains("hot")).unwrap();
        let cheap_line = s.lines().position(|l| l.contains("cheap")).unwrap();
        assert!(hot_line < cheap_line, "{s}");
        assert!(s.contains("event:acq_miss"), "{s}");
        assert_eq!(t.len(), 3);
        // Empty snapshot -> header-only table.
        assert!(stage_table(&Telemetry::default()).is_empty());
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(format_rate(0, 0), "n/a");
        assert_eq!(format_rate(0, 100_000), "<1e-5");
        assert_eq!(format_rate(5, 1000), "5.00e-3");
    }

    #[test]
    fn strip_chart_shape() {
        let series = vec![(0.0, 1e-1), (5.0, 1e-3), (10.0, 1e-5)];
        let s = log_strip_chart(&series, "Eb/N0", "BER");
        assert_eq!(s.lines().count(), 4);
        // Bars shrink as BER falls.
        let bars: Vec<usize> = s
            .lines()
            .skip(1)
            .map(|l| l.chars().filter(|&c| c == '#').count())
            .collect();
        assert!(bars[0] > bars[1] && bars[1] > bars[2], "{bars:?}");
        assert!(log_strip_chart(&[], "x", "y").is_empty());
    }

    #[test]
    fn strip_chart_all_zero() {
        let s = log_strip_chart(&[(1.0, 0.0)], "x", "y");
        assert!(s.contains("(zero)"));
    }

    #[test]
    fn constellation_renders_bpsk_clusters() {
        use uwb_dsp::Complex;
        // Two tight clusters at ±1.
        let mut points = Vec::new();
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.01;
            points.push(Complex::new(1.0 + jitter, jitter - 0.03));
            points.push(Complex::new(-1.0 - jitter, 0.03 - jitter));
        }
        let s = constellation(&points, 15, 41);
        assert_eq!(s.lines().count(), 15);
        // Dense marks on both sides of the vertical axis, axes drawn.
        assert!(s.contains('#'));
        assert!(s.contains('|'));
        assert!(s.contains('-'));
        // Empty input renders nothing.
        assert!(constellation(&[], 15, 41).is_empty());
    }

    #[test]
    fn oscillogram_renders() {
        let wave: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
        let s = oscillogram(&wave, 11, 60);
        assert_eq!(s.lines().count(), 11);
        assert!(s.contains('*'));
        assert!(s.contains('-'));
        assert!(oscillogram(&[], 11, 60).is_empty());
    }
}
