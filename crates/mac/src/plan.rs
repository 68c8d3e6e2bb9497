//! The frozen MAC plan: everything the event loop needs, precomputed.
//!
//! [`plan_mac`] takes its network plan from [`uwb_net::plan_network`]
//! (channel allocation, coupling graph, and each link's config: the base
//! config with its channel written in, or the adapter's when adaptation is
//! on). Then it derives the MAC-specific statics:
//!
//! * **Airtimes** — each link's burst length in closed form
//!   ([`uwb_phy::FrameLayout::burst_len`] of its config and the payload
//!   length), quantized up to sense slots. Under multipath models the
//!   channel's delay spread adds a short tail to each record; the airtime
//!   is the burst's and the mixer clips any excess at buffer bounds.
//! * **Sense sets** — the symmetrized subgraph of the coupling graph at
//!   or above the carrier-sense threshold ([`uwb_net::sense_sets`]).
//!   Coupling edges *below* the threshold are the hidden terminals: they
//!   still mix into the victim's record but never cause a defer.
//! * **Arrival rates** — the scenario's Erlang load divided by each
//!   link's nominal service cycle (`airtime + ack`).

use crate::scenario::MacScenario;
use crate::traffic::TrafficModel;
use uwb_net::{plan_network, sense_sets, NetPlan};
use uwb_phy::Gen2Transmitter;

/// The MAC knobs copied verbatim from the scenario (everything except the
/// wrapped [`uwb_net::NetScenario`]).
#[derive(Debug, Clone, Copy)]
pub struct MacParams {
    /// Per-link arrival process.
    pub traffic: TrafficModel,
    /// Bounded FIFO depth.
    pub queue_cap: usize,
    /// Sense-slot granularity in samples.
    pub slot_samples: usize,
    /// Carrier-sense coupling threshold in dB.
    pub sense_threshold_db: f64,
    /// Base contention window in slots.
    pub cw0: u64,
    /// Backoff-exponent cap.
    pub bexp_max: u32,
    /// ARQ retry limit.
    pub max_retries: u32,
    /// ACK airtime in slots.
    pub ack_slots: u64,
    /// ACK-timeout delay after data-frame end, in slots.
    pub ack_timeout_slots: u64,
    /// Forward-delivered-but-ACK-lost probability.
    pub ack_loss: f64,
    /// Arrival horizon in slots.
    pub horizon_slots: u64,
    /// Monte-Carlo replications.
    pub replications: u64,
}

/// The frozen, immutable input to the measurement phase.
#[derive(Debug)]
pub struct MacPlan {
    /// The underlying frozen network plan (links, configs, coupling).
    pub net: NetPlan,
    /// MAC parameters.
    pub params: MacParams,
    /// Nominal data-frame airtime per link, in sense slots (≥ 1).
    pub airtime_slots: Vec<u64>,
    /// Maximum airtime over all links — the record-retention window.
    pub max_airtime_slots: u64,
    /// Burst length per link, in samples (before any multipath tail).
    pub record_len: Vec<usize>,
    /// Maximum burst length — pre-sizing bound for record buffers.
    pub max_record_len: usize,
    /// Per-link sensable-neighbor sets (symmetrized, ascending, deduped).
    pub sense: Vec<Vec<usize>>,
    /// Out-degree of each link in the coupling graph: how many victims'
    /// rows reference this transmitter. Zero means nobody ever mixes this
    /// link's waveform, so its records recycle immediately after its own
    /// decode.
    pub out_deg: Vec<u32>,
    /// Per-link arrival rate in packets per sense slot.
    pub rate_pps: Vec<f64>,
}

impl MacPlan {
    /// Number of links.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// `true` when the plan has no links.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Master seed (the network master).
    pub fn seed(&self) -> u64 {
        self.net.seed
    }

    /// Nominal service cycle of link `l` in slots: data airtime plus ACK.
    pub fn cycle_slots(&self, l: usize) -> u64 {
        self.airtime_slots[l] + self.params.ack_slots
    }
}

/// Freezes a scenario into a [`MacPlan`]: the network plan
/// ([`plan_network`]'s, bit-identical for any thread count), then the MAC
/// statics on the calling thread. Allocation here is fine — the
/// measurement phase reuses everything.
pub fn plan_mac(sc: &MacScenario) -> MacPlan {
    assert!(sc.queue_cap >= 1, "queue_cap must be at least 1");
    assert!(sc.slot_samples >= 1, "slot_samples must be at least 1");
    assert!(sc.cw0 >= 1, "cw0 must be at least 1");
    assert!(
        sc.ack_timeout_slots >= sc.ack_slots,
        "ack_timeout_slots must be >= ack_slots"
    );
    assert!(
        (0.0..=1.0).contains(&sc.ack_loss),
        "ack_loss must be a probability"
    );

    let net = plan_network(&sc.net);
    let n = net.len();

    let record_len: Vec<usize> = net
        .links
        .iter()
        .map(|l| {
            let tx = Gen2Transmitter::new(l.scenario.config.clone()).expect("planned config");
            tx.layout(net.payload_len).burst_len
        })
        .collect();
    let max_record_len = record_len.iter().copied().max().unwrap_or(1);
    let airtime_slots: Vec<u64> = record_len
        .iter()
        .map(|&len| (len.div_ceil(sc.slot_samples)).max(1) as u64)
        .collect();
    let max_airtime_slots = airtime_slots.iter().copied().max().unwrap_or(1);

    let sense = sense_sets(&net.coupling, sc.sense_threshold_db);
    let mut out_deg = vec![0u32; n];
    for row in &net.coupling {
        for &(u, _) in row {
            out_deg[u] += 1;
        }
    }

    let load = sc.traffic.load();
    let rate_pps: Vec<f64> = airtime_slots
        .iter()
        .map(|&a| load / (a + sc.ack_slots) as f64)
        .collect();

    MacPlan {
        net,
        params: MacParams {
            traffic: sc.traffic,
            queue_cap: sc.queue_cap,
            slot_samples: sc.slot_samples,
            sense_threshold_db: sc.sense_threshold_db,
            cw0: sc.cw0,
            bexp_max: sc.bexp_max,
            max_retries: sc.max_retries,
            ack_slots: sc.ack_slots,
            ack_timeout_slots: sc.ack_timeout_slots,
            ack_loss: sc.ack_loss,
            horizon_slots: sc.horizon_slots,
            replications: sc.replications,
        },
        airtime_slots,
        max_airtime_slots,
        record_len,
        max_record_len,
        sense,
        out_deg,
        rate_pps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MacScenario;

    #[test]
    fn plan_derives_airtime_sense_and_rates() {
        let sc = MacScenario::ring(4, 9.0, 0.8, 11);
        let plan = plan_mac(&sc);
        assert_eq!(plan.len(), 4);
        assert!(plan.max_airtime_slots >= 1);
        for l in 0..4 {
            let tx = Gen2Transmitter::new(plan.net.links[l].scenario.config.clone()).unwrap();
            let burst_len = tx.layout(plan.net.payload_len).burst_len;
            assert_eq!(plan.record_len[l], burst_len);
            assert_eq!(
                plan.airtime_slots[l],
                burst_len.div_ceil(sc.slot_samples) as u64
            );
            let expect = 0.8 / plan.cycle_slots(l) as f64;
            assert!((plan.rate_pps[l] - expect).abs() < 1e-12);
            // Sense sets are symmetric.
            for &u in &plan.sense[l] {
                assert!(plan.sense[u].contains(&l), "sense graph must be symmetric");
            }
        }
    }

    #[test]
    fn same_config_links_share_airtime() {
        // 2-user ring on round-robin channels: different channels, but the
        // burst length depends only on the frame shape, so both links get
        // the same record length and airtime.
        let sc = MacScenario::ring(2, 8.0, 0.5, 3);
        let plan = plan_mac(&sc);
        assert_ne!(plan.net.links[0].channel, plan.net.links[1].channel);
        assert_eq!(plan.record_len[0], plan.record_len[1]);
        assert_eq!(plan.airtime_slots[0], plan.airtime_slots[1]);
    }
}
