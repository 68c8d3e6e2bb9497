//! MAC measurement reports: per-link offered/delivered/dropped counters,
//! latency, and goodput, plus network aggregates and the latency
//! percentile digests.

use crate::plan::MacPlan;
use crate::runner::{MacAccumulator, MacLinkStats};
use uwb_phy::bandplan::Channel;
use uwb_platform::report::Table;
use uwb_sim::montecarlo::RunStats;

/// One link's MAC outcome over all replications.
#[derive(Debug, Clone)]
pub struct MacLinkReport {
    /// The link's assigned band-plan channel.
    pub channel: Channel,
    /// Raw merged counters.
    pub stats: MacLinkStats,
    /// Nominal data-frame airtime in sense slots.
    pub airtime_slots: u64,
    /// Offered load in packets (arrivals across all replications).
    pub offered: u64,
    /// Delivered (ACKed) packets.
    pub delivered: u64,
    /// Packets dropped at the full queue plus packets dropped by ARQ.
    pub dropped: u64,
    /// Delivered fraction (`NaN` when nothing was offered — same no-data
    /// contract as `ErrorCounter::rate`).
    pub delivery_ratio: f64,
    /// Mean arrival→ACK latency over delivered packets, in slots (`NaN`
    /// when nothing was delivered).
    pub mean_latency_slots: f64,
    /// Worst delivered-packet latency, in slots.
    pub max_latency_slots: u64,
    /// Mean arrival→first-transmission queueing delay, in slots (`NaN`
    /// when nothing was transmitted).
    pub mean_queue_delay_slots: f64,
    /// Retransmitted frames per delivered packet.
    pub retries_per_delivery: f64,
    /// Information goodput in bit/s, averaged over the arrival horizon.
    pub goodput_bps: f64,
}

impl MacLinkReport {
    fn new(plan: &MacPlan, l: usize, stats: &MacLinkStats) -> MacLinkReport {
        let dropped = stats.dropped_queue + stats.dropped_retry;
        let delivery_ratio = if stats.offered == 0 {
            f64::NAN
        } else {
            stats.delivered as f64 / stats.offered as f64
        };
        let mean_latency_slots = if stats.delivered == 0 {
            f64::NAN
        } else {
            stats.latency_slots_sum as f64 / stats.delivered as f64
        };
        let serviced = stats.delivered + stats.dropped_retry;
        let mean_queue_delay_slots = if serviced == 0 {
            f64::NAN
        } else {
            stats.queue_delay_slots_sum as f64 / serviced as f64
        };
        let retries_per_delivery = if stats.delivered == 0 {
            f64::NAN
        } else {
            stats.retries as f64 / stats.delivered as f64
        };
        // Wall time simulated per replication: the arrival horizon, in
        // seconds (slot = slot_samples / sample_rate).
        let slot_secs =
            plan.params.slot_samples as f64 / plan.net.links[l].scenario.config.sample_rate.as_hz();
        let sim_secs =
            plan.params.horizon_slots as f64 * plan.params.replications as f64 * slot_secs;
        let goodput_bps = if sim_secs > 0.0 {
            stats.delivered_info_bits as f64 / sim_secs
        } else {
            0.0
        };
        MacLinkReport {
            channel: plan.net.links[l].channel,
            stats: stats.clone(),
            airtime_slots: plan.airtime_slots[l],
            offered: stats.offered,
            delivered: stats.delivered,
            dropped,
            delivery_ratio,
            mean_latency_slots,
            max_latency_slots: stats.latency_slots_max,
            mean_queue_delay_slots,
            retries_per_delivery,
            goodput_bps,
        }
    }
}

/// The complete MAC measurement report.
#[derive(Debug)]
pub struct MacReport {
    /// Per-link reports, indexed by link id.
    pub links: Vec<MacLinkReport>,
    /// Total packets offered across all links and replications.
    pub offered_total: u64,
    /// Total packets delivered.
    pub delivered_total: u64,
    /// Total packets dropped (queue + retry).
    pub dropped_total: u64,
    /// Sum of all links' information goodput (bit/s).
    pub aggregate_goodput_bps: f64,
    /// Engine execution statistics (trials = replications; includes the
    /// merged telemetry snapshot when `obs` is enabled).
    pub stats: RunStats,
    /// The frozen plan the measurement replayed.
    pub plan: MacPlan,
}

impl MacReport {
    /// Assembles the report from the frozen plan, the merged accumulator,
    /// and the engine statistics.
    pub fn new(plan: MacPlan, acc: MacAccumulator, stats: RunStats) -> MacReport {
        let links: Vec<MacLinkReport> = acc
            .links
            .iter()
            .enumerate()
            .map(|(l, s)| MacLinkReport::new(&plan, l, s))
            .collect();
        let offered_total = links.iter().map(|l| l.offered).sum();
        let delivered_total = links.iter().map(|l| l.delivered).sum();
        let dropped_total = links.iter().map(|l| l.dropped).sum();
        let aggregate_goodput_bps = links.iter().map(|l| l.goodput_bps).sum();
        MacReport {
            links,
            offered_total,
            delivered_total,
            dropped_total,
            aggregate_goodput_bps,
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

    /// Network delivered fraction (`NaN` when nothing was offered).
    pub fn delivered_fraction(&self) -> f64 {
        if self.offered_total == 0 {
            f64::NAN
        } else {
            self.delivered_total as f64 / self.offered_total as f64
        }
    }

    /// A latency-digest quantile in slots (`None` when the digest is
    /// absent — `obs` off or nothing delivered). `name` is one of the MAC
    /// digests: `"mac_latency_slots"` or `"mac_queue_delay_slots"`.
    pub fn digest_quantile(&self, name: &str, q: f64) -> Option<u64> {
        self.stats
            .telemetry
            .digests
            .iter()
            .find(|d| d.name == name && d.count > 0)
            .map(|d| d.quantile(q))
    }

    /// Renders the per-link table used by the experiment binaries.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "link", "ch", "offered", "dlvd", "drop", "retx", "dlvd%", "lat", "kbit/s",
        ]);
        for (l, r) in self.links.iter().enumerate() {
            t.row(vec![
                l.to_string(),
                r.channel.index().to_string(),
                r.offered.to_string(),
                r.delivered.to_string(),
                r.dropped.to_string(),
                r.stats.retries.to_string(),
                if r.delivery_ratio.is_nan() {
                    "n/a".to_string()
                } else {
                    format!("{:.1}", 100.0 * r.delivery_ratio)
                },
                if r.mean_latency_slots.is_nan() {
                    "n/a".to_string()
                } else {
                    format!("{:.1}", r.mean_latency_slots)
                },
                format!("{:.0}", r.goodput_bps / 1e3),
            ]);
        }
        t
    }
}
