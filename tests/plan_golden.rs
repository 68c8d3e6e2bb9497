//! Golden network and MAC plans.
//!
//! `plan_network` is a pure function of its scenario: the channel
//! assignment, the coupling rows, every probe measurement and every
//! adapted operating point. Each test here plans one scenario and pins two
//! FNV-64 digests of the result: one over the plan's `Debug` string (which
//! prints every `f64` in its shortest round-trip form, so equal strings
//! mean equal values) and one over its coupling rows with each gain taken
//! `to_bits`.
//!
//! `plan_mac` is pinned the same way, except that its `Debug` digest
//! blanks every `interference_rel_db` value: the MAC reads the channels,
//! the coupling rows and the configs of its network plan, never the probe
//! measurement.
//!
//! The network pins were taken from the planner whose probe sweep ran on
//! its own synthesizer, the MAC pins from the planner that probed every
//! MAC plan. A moved digest means the planner's arithmetic changed: fix
//! the planner, never re-pin.

use uwb::mac::{plan_mac, MacScenario};
use uwb::net::{plan_network, ChannelPolicy, NetPlan, NetScenario};
use uwb::phy::bandplan::Channel;
use uwb::sim::sv_channel::ChannelModel;
use uwb::sim::topology::Topology;

/// FNV-1a, 64 bits.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The coupling digest of `plan`. Every row contributes its length, then
/// each `(transmitter, gain bits)` pair.
fn coupling_digest(plan: &NetPlan) -> u64 {
    fnv64(plan.coupling.iter().flat_map(|row| {
        let entries = row.iter().flat_map(|&(u, g)| {
            (u as u64)
                .to_le_bytes()
                .into_iter()
                .chain(g.to_bits().to_le_bytes())
        });
        (row.len() as u64).to_le_bytes().into_iter().chain(entries)
    }))
}

/// `(Debug digest, coupling digest)` of `plan`.
fn digests(plan: &NetPlan) -> (u64, u64) {
    (
        fnv64(format!("{plan:?}").into_bytes()),
        coupling_digest(plan),
    )
}

/// Checks `got` against `pinned`.
fn assert_digests(got: (u64, u64), pinned: (u64, u64)) {
    assert_eq!(
        got, pinned,
        "plan digests moved: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// Plans `sc` and checks its digests against `pinned`.
fn assert_plan(sc: &NetScenario, pinned: (u64, u64)) {
    let plan = plan_network(sc);
    assert_eq!(plan.len(), sc.len());
    assert_digests(digests(&plan), pinned);
}

/// `debug` with the value after every `interference_rel_db: ` removed.
fn blank_interference(debug: &str) -> String {
    const KEY: &str = "interference_rel_db: ";
    let mut out = String::with_capacity(debug.len());
    let mut rest = debug;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        rest = &rest[rest.find(',').unwrap_or(rest.len())..];
    }
    out.push_str(rest);
    out
}

/// Plans `sc` with `plan_mac` and checks its digests against `pinned`:
/// the `Debug` digest with every `interference_rel_db` blanked, and the
/// network plan's coupling digest.
fn assert_mac_plan(sc: &MacScenario, pinned: (u64, u64)) {
    let plan = plan_mac(sc);
    assert_eq!(plan.len(), sc.len());
    let debug = blank_interference(&format!("{plan:?}"));
    assert_eq!(
        debug.matches("interference_rel_db: ,").count(),
        sc.len(),
        "one blanked value per link"
    );
    let got = (fnv64(debug.into_bytes()), coupling_digest(&plan.net));
    assert_digests(got, pinned);
}

fn ch(i: usize) -> Channel {
    Channel::new(i).unwrap()
}

/// Four tightly packed links choosing between two adjacent channels by
/// measured interference.
fn interference_aware_ring(channel: ChannelModel) -> NetScenario {
    let mut sc = NetScenario::ring(4, 8.0, 5);
    sc.topology = Topology::ring(4, 0.5, 1.0);
    sc.channel_model = channel;
    sc.adapt = true;
    sc.policy = ChannelPolicy::InterferenceAware(vec![ch(3), ch(4)]);
    sc
}

#[test]
fn ring8_with_the_spectral_probe() {
    let sc = NetScenario::ring(8, 9.0, 77);
    assert!(sc.probe_spectral);
    assert_plan(&sc, (0x4e61_0a54_57d0_8f0b, 0xfbd6_5e71_83ec_3a62));
}

#[test]
fn adapted_ring6() {
    let mut sc = NetScenario::ring(6, 6.0, 4);
    sc.adapt = true;
    sc.policy = ChannelPolicy::RoundRobin((3..6).map(ch).collect());
    assert_plan(&sc, (0xa4ca_569c_6c52_929f, 0xc068_2e55_cc4e_327d));
}

#[test]
fn adapted_city_200_with_the_spectral_probe() {
    let mut sc = NetScenario::clustered_city(20, 10, 7.0, 20050307);
    sc.adapt = true;
    sc.probe_spectral = true;
    assert_plan(&sc, (0xe006_8af7_841a_8f6b, 0x4baf_c834_0163_cbfe));
}

#[test]
fn interference_aware_ring4_awgn() {
    assert_plan(
        &interference_aware_ring(ChannelModel::Awgn),
        (0x072e_a2c0_024b_6478, 0xcf9e_4759_2877_dfb9),
    );
}

#[test]
fn interference_aware_ring4_cm1() {
    assert_plan(
        &interference_aware_ring(ChannelModel::Cm1),
        (0xd47c_a7d4_b5cb_8e2d, 0xcf9e_4759_2877_dfb9),
    );
}

#[test]
fn adapted_cm1_city() {
    let mut sc = NetScenario::clustered_city(6, 4, 9.0, 20050308);
    sc.channel_model = ChannelModel::Cm1;
    sc.adapt = true;
    assert_plan(&sc, (0x136f_f24a_a50b_8c41, 0x1cb6_f993_2ed9_1947));
}

/// Release-scale gate (run via `scripts/check.sh net`): the `net_city_1k`
/// benchmark workload's floor plan and seed.
#[test]
#[ignore = "release-scale gate: scripts/check.sh net runs it with --release"]
fn net_city_1k() {
    let sc = NetScenario::clustered_city(100, 10, 9.0, 20050307);
    assert_plan(&sc, (0x0010_d593_4124_caae, 0x55f5_e102_415a_eed0));
}

/// `mac_ring8_saturated`'s scenario: eight users on four channels, so
/// every link has one co-channel contender.
#[test]
fn mac_ring8_saturated() {
    let mut sc = MacScenario::ring(8, 9.0, 1.2, 20050307);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(ch).collect());
    sc.horizon_slots = 400;
    sc.replications = 32;
    assert_mac_plan(&sc, (0x4f49_acb4_7582_f112, 0x1aac_7c22_3567_da40));
}

#[test]
fn mac_ring4_defaults() {
    assert_mac_plan(
        &MacScenario::ring(4, 9.0, 0.8, 11),
        (0x6571_f6fc_49fa_d091, 0x5f61_4099_64cb_987e),
    );
}

/// The allocation gate's saturated co-channel pair.
#[test]
fn mac_co_channel_pair() {
    let mut sc = MacScenario::ring(2, 6.0, 1.5, 20050316);
    sc.net.policy = ChannelPolicy::Static(vec![ch(3)]);
    sc.horizon_slots = 200;
    assert_mac_plan(&sc, (0xc0df_0074_bb55_6aa3, 0x626b_7195_e693_f60c));
}

/// Release-scale gate (run via `scripts/check.sh mac`): the `mac_city_1k`
/// benchmark workload's floor plan and seed.
#[test]
#[ignore = "release-scale gate: scripts/check.sh mac runs it with --release"]
fn mac_city_1k() {
    let mut sc = MacScenario::clustered_city(125, 8, 9.0, 1.5, 20050307);
    sc.horizon_slots = 120;
    assert_mac_plan(&sc, (0x14a7_7a1d_386f_4201, 0x0a55_bc5e_ad4f_9c13));
}
