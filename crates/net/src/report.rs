//! Network measurement reports: per-link BER/PER/throughput and the
//! aggregate network throughput.

use crate::controller::{NetLinkPlan, NetPlan};
use crate::runner::LinkRoundStats;
use uwb_phy::bandplan::Channel;
use uwb_platform::metrics::ErrorCounter;
use uwb_platform::report::Table;
use uwb_sim::montecarlo::RunStats;

/// One link's measured outcome.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// The link's assigned band-plan channel.
    pub channel: Channel,
    /// Bit-level error counter over all measurement rounds.
    pub counter: ErrorCounter,
    /// Packets attempted (one per round).
    pub packets: u64,
    /// Packets with at least one bit error or a decode failure.
    pub packets_bad: u64,
    /// The link's configured physical bit rate (bit/s).
    pub bit_rate: f64,
    /// Goodput proxy: `bit_rate × (1 − PER)` (bit/s).
    pub throughput_bps: f64,
    /// Probe-measured interference power relative to the link's own signal
    /// (dB; `-inf` when nothing couples, NaN when the plan was not probed).
    pub interference_rel_db: f64,
}

impl LinkReport {
    /// Assembles a link report from its plan entry and round statistics.
    pub fn new(plan: &NetLinkPlan, stats: &LinkRoundStats) -> LinkReport {
        let bit_rate = plan.scenario.config.bit_rate();
        // An unmeasured link (zero packets, PER = NaN) delivered nothing:
        // its goodput is 0, not NaN — a NaN here would poison the aggregate
        // network throughput sum.
        let throughput_bps = if stats.packets == 0 {
            0.0
        } else {
            bit_rate * (1.0 - stats.per())
        };
        LinkReport {
            channel: plan.channel,
            counter: stats.ber,
            packets: stats.packets,
            packets_bad: stats.packets_bad,
            bit_rate,
            throughput_bps,
            interference_rel_db: plan.interference_rel_db,
        }
    }

    /// Measured bit error rate (`NaN` when no bits were counted).
    pub fn ber(&self) -> f64 {
        self.counter.rate()
    }

    /// Measured packet error rate.
    ///
    /// `NaN` when no packets were attempted — the same no-data contract as
    /// [`ErrorCounter::rate`] and [`LinkRoundStats::per`]: an unmeasured
    /// link must stay distinguishable from a link measured error-free.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            f64::NAN
        } else {
            self.packets_bad as f64 / self.packets as f64
        }
    }
}

/// The complete network measurement report.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Per-link reports, indexed by link id.
    pub links: Vec<LinkReport>,
    /// Sum of all links' goodput (bit/s).
    pub aggregate_throughput_bps: f64,
    /// Engine execution statistics (trials = rounds; includes the
    /// deterministic telemetry snapshot when `obs` is enabled).
    pub stats: RunStats,
    /// The frozen plan the measurement replayed (channels, coupling,
    /// adaptation decisions).
    pub plan: NetPlan,
}

impl NetReport {
    /// Assembles the report and computes the aggregate throughput.
    pub fn new(links: Vec<LinkReport>, stats: RunStats, plan: NetPlan) -> NetReport {
        let aggregate_throughput_bps = links.iter().map(|l| l.throughput_bps).sum();
        NetReport {
            links,
            aggregate_throughput_bps,
            stats,
            plan,
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when the report covers no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Renders the per-link table (`link / ch / BER / PER / I/S dB /
    /// throughput`) used by the experiment binaries. An unprobed link's
    /// I/S reads `n/a`, one that nothing couples into `-inf`.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "link", "ch", "bits", "errors", "BER", "PER", "I/S dB", "Mbit/s",
        ]);
        for (l, r) in self.links.iter().enumerate() {
            let isr = if r.interference_rel_db.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:.1}", r.interference_rel_db)
            };
            let per = r.per();
            t.row(vec![
                l.to_string(),
                r.channel.index().to_string(),
                r.counter.total.to_string(),
                r.counter.errors.to_string(),
                format!("{:.2e}", r.ber()),
                if per.is_nan() {
                    "n/a".to_string()
                } else {
                    format!("{per:.3}")
                },
                isr,
                format!("{:.1}", r.throughput_bps / 1e6),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_per() {
        let plan = crate::controller::plan_network(&crate::scenario::NetScenario::ring(
            1, 8.0, 9,
        ));
        let stats = LinkRoundStats {
            packets: 4,
            packets_bad: 1,
            ..Default::default()
        };
        let r = LinkReport::new(&plan.links[0], &stats);
        assert!((r.throughput_bps - r.bit_rate * 0.75).abs() < 1e-6);
        assert_eq!(r.per(), 0.25);
    }

    #[test]
    fn unmeasured_link_reports_nan_per_and_zero_goodput() {
        let plan = crate::controller::plan_network(&crate::scenario::NetScenario::ring(
            1, 8.0, 9,
        ));
        let r = LinkReport::new(&plan.links[0], &LinkRoundStats::default());
        assert!(r.per().is_nan(), "no packets must read as no-data");
        assert_eq!(r.throughput_bps, 0.0, "no data delivered -> zero goodput");
        // The aggregate (a plain sum over links) stays finite even with
        // unmeasured links in the mix.
        let aggregate: f64 = [&r].iter().map(|l| l.throughput_bps).sum();
        assert!(aggregate.is_finite());
    }

    #[test]
    fn zero_round_run_renders_na_per() {
        // End-to-end no-data path: a zero-round measurement must report
        // NaN PER, zero goodput, and render "n/a" in the table.
        let mut sc = crate::scenario::NetScenario::ring(1, 8.0, 9);
        sc.rounds = 0;
        sc.probe_spectral = false;
        let report = crate::runner::run_network(&sc);
        assert!(report.links[0].per().is_nan());
        assert_eq!(report.aggregate_throughput_bps, 0.0);
        assert!(report.table().to_string().contains("n/a"));
    }

    #[test]
    fn unprobed_plan_renders_na_interference() {
        // An unprobed plan measures like a probed one, but its I/S column
        // reads n/a: not -inf, which says that nothing couples.
        use crate::controller::{assign_network, plan_network};
        use crate::runner::run_plan_threads;
        let mut sc = crate::scenario::NetScenario::ring(2, 8.0, 9);
        sc.rounds = 1;
        sc.probe_spectral = false;
        let probed = run_plan_threads(plan_network(&sc), 1);
        let unprobed = run_plan_threads(assign_network(&sc), 1);
        for (p, u) in probed.links.iter().zip(&unprobed.links) {
            assert!(!p.interference_rel_db.is_nan());
            assert!(u.interference_rel_db.is_nan());
            assert_eq!(p.counter, u.counter, "the plans measure alike");
            assert_eq!(u.packets, 1);
        }
        let na = |r: &NetReport| r.table().to_string().matches("n/a").count();
        assert_eq!(na(&probed), 0);
        assert_eq!(na(&unprobed), 2);
    }
}
