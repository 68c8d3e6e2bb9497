//! Network scenario specification.
//!
//! A [`NetScenario`] describes a piconet: N transmitter→receiver pairs on a
//! floor plan, a channel-allocation policy over the 14-channel band plan, a
//! shared impairment environment, and the measurement schedule (rounds). It
//! is the *input* to [`crate::controller::plan_network`]; everything the
//! measurement phase touches lives in the derived, static
//! [`crate::controller::NetPlan`].

use crate::coupling::CouplingParams;
use uwb_phy::bandplan::Channel;
use uwb_phy::Gen2Config;
use uwb_rf::ChannelSelectivity;
use uwb_sim::sv_channel::ChannelModel;
use uwb_sim::topology::Topology;

/// How links are placed onto band-plan channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelPolicy {
    /// Explicit assignment: link `l` gets `channels[l % channels.len()]`.
    Static(Vec<Channel>),
    /// Cycle through the candidate list in link order — the simplest
    /// load-spreading policy.
    RoundRobin(Vec<Channel>),
    /// Greedy measured-interference assignment: links are assigned in index
    /// order; each link probes every candidate channel by *mixing the
    /// already-assigned co-/adjacent-channel transmitters' clean waveforms
    /// at its receiver* and picks the channel with the least measured
    /// interference power (ties break toward the lower channel index). The
    /// winning superposition is also analyzed with
    /// `uwb_phy::spectral::SpectralMonitor`, and the report feeds the link
    /// adapter's `interferer_present` flag.
    InterferenceAware(Vec<Channel>),
}

impl ChannelPolicy {
    /// Round-robin over the full 14-channel grid.
    pub fn round_robin_all() -> ChannelPolicy {
        ChannelPolicy::RoundRobin(Channel::all().collect())
    }
}

/// A complete multi-link network scenario.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Base PHY configuration shared by every link (the controller may
    /// adapt per-link copies; the assigned channel is always written into
    /// each link's config).
    pub base_config: Gen2Config,
    /// Floor-plan geometry: one [`uwb_sim::topology::LinkGeometry`] per
    /// link. The topology's length is the network size.
    pub topology: Topology,
    /// Multipath environment shared by all links (fresh realization per
    /// link per round).
    pub channel_model: ChannelModel,
    /// Per-link Eb/N0 in dB (receiver noise calibration, identical for all
    /// links — interference asymmetry comes from geometry + channels).
    pub ebn0_db: f64,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Measurement rounds. Each round, every link transmits one packet
    /// simultaneously; round `r` is Monte-Carlo trial `r`.
    pub rounds: u64,
    /// Master seed. Link `l` derives its own decorrelated seed; round `r`
    /// of link `l` runs on `Rand::for_trial(link_seed(l), r)`.
    pub seed: u64,
    /// Channel-allocation policy.
    pub policy: ChannelPolicy,
    /// Run the closed-loop [`uwb_phy::LinkAdapter`] per link during
    /// planning (probe-measured SINR → config). The adapted configs are the
    /// probe sweep's only decision, so planning synthesizes probes only
    /// with this on (apart from the interference-aware policy's
    /// allocation probes).
    pub adapt: bool,
    /// Front-end adjacent-channel selectivity model.
    pub selectivity: ChannelSelectivity,
    /// Sparse interference-graph parameters: the total-coupling floor,
    /// optional per-receiver edge cap, and spatial-grid cell size. The
    /// default ([`CouplingParams::default`]) reproduces the classic dense
    /// semantics bit-for-bit — only the front end's spectral floor drops
    /// edges.
    pub coupling: CouplingParams,
    /// With [`NetScenario::adapt`] on, run the Welch
    /// [`uwb_phy::SpectralMonitor`] over each receiver's probe
    /// superposition: its detection sets the adapter's
    /// `interferer_present` flag, along with a non-empty coupling row.
    /// Without adaptation no probe runs and this has no effect. On by
    /// default; large networks turn it off because the per-link PSD
    /// dominates an adaptive plan's time.
    pub probe_spectral: bool,
}

impl NetScenario {
    /// An `n`-user piconet on the default ring layout (4 m ring, 1 m
    /// links), AWGN multipath, round-robin over all 14 channels, gen2
    /// selectivity, adaptation off. `preamble_repeats` is reduced to 2
    /// (the repo's fast-test configuration).
    pub fn ring(n: usize, ebn0_db: f64, seed: u64) -> NetScenario {
        NetScenario {
            base_config: Gen2Config {
                preamble_repeats: 2,
                ..Gen2Config::nominal_100mbps()
            },
            topology: Topology::ring(n, 4.0, 1.0),
            channel_model: ChannelModel::Awgn,
            ebn0_db,
            payload_len: 32,
            rounds: 25,
            seed,
            policy: ChannelPolicy::round_robin_all(),
            adapt: false,
            selectivity: ChannelSelectivity::gen2(),
            coupling: CouplingParams::default(),
            probe_spectral: true,
        }
    }

    /// A clustered "city" piconet: `clusters × per_cluster` links on the
    /// [`Topology::clustered`] floor plan (20 m cluster pitch, 3 m cluster
    /// radius, 1 m links), round-robin channels, and a finite coupling
    /// floor so the interference graph stays sparse. Spectral probing is
    /// off (it only matters with adaptation on) — this is the constructor
    /// for large-N scaling runs.
    pub fn clustered_city(
        clusters: usize,
        per_cluster: usize,
        ebn0_db: f64,
        seed: u64,
    ) -> NetScenario {
        let mut sc = NetScenario::ring(1, ebn0_db, seed);
        sc.topology = Topology::clustered(clusters, per_cluster, 20.0, 3.0, 1.0, seed);
        sc.coupling.floor_db = -40.0;
        sc.probe_spectral = false;
        sc
    }

    /// Number of links (the topology's length).
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// `true` when the scenario has no links.
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_halves_bit_rate_and_runs_end_to_end() {
        let uncoded_rate = NetScenario::ring(2, 10.0, 77).base_config.bit_rate();
        let mut sc = NetScenario::ring(2, 10.0, 77);
        sc.base_config.fec = Some(uwb_phy::fec::ConvCode::k7());
        assert_eq!(
            sc.base_config.bit_rate(),
            uncoded_rate / 2.0,
            "rate-1/2 FEC halves the information bit rate"
        );
        // A coded network round runs the full encode -> superpose -> soft
        // Viterbi decode chain without error.
        sc.rounds = 1;
        sc.probe_spectral = false;
        let report = crate::runner::run_network(&sc);
        assert_eq!(report.len(), 2);
        assert!(report.links.iter().all(|l| l.packets == 1));
        assert!(report.links.iter().all(|l| l.counter.total > 0));
    }

    #[test]
    fn ring_scenario_defaults() {
        let sc = NetScenario::ring(8, 8.0, 42);
        assert_eq!(sc.len(), 8);
        assert!(!sc.is_empty());
        assert_eq!(sc.base_config.preamble_repeats, 2);
        match &sc.policy {
            ChannelPolicy::RoundRobin(chs) => assert_eq!(chs.len(), 14),
            other => panic!("unexpected policy {other:?}"),
        }
    }
}
