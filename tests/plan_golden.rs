//! Golden network and MAC plans.
//!
//! `plan_network` is a pure function of its scenario. Each test here plans
//! one scenario and pins two FNV-64 digests of its decisions, the fields
//! the rounds, the MAC and the benchmark read:
//!
//! * the decision digest, over each link's `scenario` (`Debug`, which
//!   prints every `f64` in its shortest round-trip form, so equal strings
//!   mean equal values) and `channel`, then the plan's scalars
//!   (`payload_len`, `block_len`, `rounds`, `seed`); a `plan_mac` plan
//!   adds its MAC statics (parameters, airtimes, record lengths, sense
//!   sets, out-degrees and arrival rates);
//! * the coupling digest, over the coupling rows with each gain taken
//!   `to_bits`.
//!
//! A moved digest means the planner's arithmetic changed: fix the
//! planner, never re-pin.

use std::fmt::Write;
use uwb::mac::{plan_mac, MacPlan, MacScenario};
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

/// The decisions of `plan`, by name: per link its scenario and channel,
/// then the plan's scalars.
fn net_decisions(plan: &NetPlan) -> String {
    let mut s = String::new();
    for link in &plan.links {
        writeln!(s, "{:?} {:?}", link.scenario, link.channel).unwrap();
    }
    let NetPlan {
        payload_len,
        block_len,
        rounds,
        seed,
        ..
    } = plan;
    writeln!(s, "{payload_len} {block_len} {rounds} {seed}").unwrap();
    s
}

/// `(decision digest, coupling digest)` of a network plan.
fn digests(plan: &NetPlan) -> (u64, u64) {
    (
        fnv64(net_decisions(plan).into_bytes()),
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

/// Plans `sc` with `plan_mac` and checks its digests against `pinned`:
/// the network plan's decisions followed by the MAC statics, and the
/// network plan's coupling digest.
fn assert_mac_plan(sc: &MacScenario, pinned: (u64, u64)) {
    let plan = plan_mac(sc);
    assert_eq!(plan.len(), sc.len());
    let MacPlan {
        net,
        params,
        airtime_slots,
        max_airtime_slots,
        record_len,
        max_record_len,
        sense,
        out_deg,
        rate_pps,
    } = &plan;
    let mut s = net_decisions(net);
    writeln!(
        s,
        "{params:?} {airtime_slots:?} {max_airtime_slots} {record_len:?} {max_record_len} \
         {sense:?} {out_deg:?} {rate_pps:?}"
    )
    .unwrap();
    assert_digests((fnv64(s.into_bytes()), coupling_digest(net)), pinned);
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
    assert_plan(&sc, (0xb3f3_ae19_f1df_f288, 0xfbd6_5e71_83ec_3a62));
}

#[test]
fn adapted_ring6() {
    let mut sc = NetScenario::ring(6, 6.0, 4);
    sc.adapt = true;
    sc.policy = ChannelPolicy::RoundRobin((3..6).map(ch).collect());
    assert_plan(&sc, (0x2a54_36f7_065a_3559, 0xc068_2e55_cc4e_327d));
}

#[test]
fn adapted_city_200_with_the_spectral_probe() {
    let mut sc = NetScenario::clustered_city(20, 10, 7.0, 20050307);
    sc.adapt = true;
    sc.probe_spectral = true;
    assert_plan(&sc, (0x2fc2_7efa_b196_3383, 0x4baf_c834_0163_cbfe));
}

#[test]
fn interference_aware_ring4_awgn() {
    assert_plan(
        &interference_aware_ring(ChannelModel::Awgn),
        (0x8037_88f8_0b1f_07b7, 0xcf9e_4759_2877_dfb9),
    );
}

#[test]
fn interference_aware_ring4_cm1() {
    assert_plan(
        &interference_aware_ring(ChannelModel::Cm1),
        (0x4b1b_6785_98d1_a173, 0xcf9e_4759_2877_dfb9),
    );
}

#[test]
fn adapted_cm1_city() {
    let mut sc = NetScenario::clustered_city(6, 4, 9.0, 20050308);
    sc.channel_model = ChannelModel::Cm1;
    sc.adapt = true;
    assert_plan(&sc, (0x9325_a52e_16fc_4c05, 0x1cb6_f993_2ed9_1947));
}

/// The `net_city_1k` benchmark workload's floor plan and seed.
#[test]
fn net_city_1k() {
    let sc = NetScenario::clustered_city(100, 10, 9.0, 20050307);
    assert_plan(&sc, (0x8804_fbed_cee7_44a5, 0x55f5_e102_415a_eed0));
}

/// `mac_ring8_saturated`'s scenario: eight users on four channels, so
/// every link has one co-channel contender.
#[test]
fn mac_ring8_saturated() {
    let mut sc = MacScenario::ring(8, 9.0, 1.2, 20050307);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(ch).collect());
    sc.horizon_slots = 400;
    sc.replications = 32;
    assert_mac_plan(&sc, (0x5fe5_7972_87fc_12b5, 0x1aac_7c22_3567_da40));
}

#[test]
fn mac_ring4_defaults() {
    assert_mac_plan(
        &MacScenario::ring(4, 9.0, 0.8, 11),
        (0xfdb8_3c4c_767e_e35a, 0x5f61_4099_64cb_987e),
    );
}

/// The allocation gate's saturated co-channel pair.
#[test]
fn mac_co_channel_pair() {
    let mut sc = MacScenario::ring(2, 6.0, 1.5, 20050316);
    sc.net.policy = ChannelPolicy::Static(vec![ch(3)]);
    sc.horizon_slots = 200;
    assert_mac_plan(&sc, (0x78d8_7916_9782_bf23, 0x626b_7195_e693_f60c));
}

/// The `mac_city_1k` benchmark workload's floor plan and seed.
#[test]
fn mac_city_1k() {
    let mut sc = MacScenario::clustered_city(125, 8, 9.0, 1.5, 20050307);
    sc.horizon_slots = 120;
    assert_mac_plan(&sc, (0xcf5f_8404_92ae_0bc8, 0x0a55_bc5e_ad4f_9c13));
}
