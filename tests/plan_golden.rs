//! Golden network plans.
//!
//! `plan_network` is a pure function of its scenario: the channel
//! assignment, the coupling rows, every probe measurement and every
//! adapted operating point. Each test here plans one scenario and pins two
//! FNV-64 digests of the result: one over the plan's `Debug` string (which
//! prints every `f64` in its shortest round-trip form, so equal strings
//! mean equal values) and one over its coupling rows with each gain taken
//! `to_bits`.
//!
//! The pins were taken from the planner whose probe sweep ran on its own
//! synthesizer. A moved digest means the planner's arithmetic changed:
//! fix the planner, never re-pin.

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

/// `(Debug digest, coupling digest)` of `plan`. Every row contributes its
/// length, then each `(transmitter, gain bits)` pair.
fn digests(plan: &NetPlan) -> (u64, u64) {
    let debug = fnv64(format!("{plan:?}").into_bytes());
    let coupling = fnv64(plan.coupling.iter().flat_map(|row| {
        let entries = row.iter().flat_map(|&(u, g)| {
            (u as u64)
                .to_le_bytes()
                .into_iter()
                .chain(g.to_bits().to_le_bytes())
        });
        (row.len() as u64).to_le_bytes().into_iter().chain(entries)
    }));
    (debug, coupling)
}

/// Plans `sc` and checks its digests against `pinned`.
fn assert_plan(sc: &NetScenario, pinned: (u64, u64)) {
    let plan = plan_network(sc);
    assert_eq!(plan.len(), sc.len());
    let got = digests(&plan);
    assert_eq!(
        got, pinned,
        "plan digests moved: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
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
