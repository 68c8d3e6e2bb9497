//! The planner's two stages agree wherever the MAC reads them.
//!
//! `assign_network` allocates channels, builds the coupling graph and
//! writes each link's channel into the base config without synthesizing a
//! probe; `plan_network` runs it, then the probe sweep. Without adaptation
//! the sweep changes no channel, coupling row or config, so `plan_mac`
//! skips it unless adaptation or the spectral probe is on. These tests
//! hold `plan_mac`'s network plan to `plan_network`'s: equal in every
//! field except the unprobed `interference_rel_db` (NaN) without
//! adaptation, and equal bit for bit with it.

use uwb::mac::{plan_mac, MacScenario};
use uwb::net::{plan_network, ChannelPolicy, CouplingRow, NetPlan};
use uwb::phy::bandplan::Channel;
use uwb::phy::Gen2Transmitter;
use uwb::sim::sv_channel::ChannelModel;

/// Equal coupling rows, gains compared on `to_bits`.
fn assert_same_coupling(a: &NetPlan, b: &NetPlan, what: &str) {
    let bits = |r: &CouplingRow| r.iter().map(|&(u, g)| (u, g.to_bits())).collect::<Vec<_>>();
    assert_eq!(a.coupling.len(), b.coupling.len());
    for (v, (ra, rb)) in a.coupling.iter().zip(&b.coupling).enumerate() {
        assert_eq!(bits(ra), bits(rb), "{what}: coupling row {v}");
    }
}

/// `unprobed` equals `probed` in every field but `interference_rel_db`,
/// which `unprobed` leaves NaN. `Debug` prints every `f64` in its shortest
/// round-trip form, so equal strings mean equal values.
fn assert_equal_but_unprobed(unprobed: &NetPlan, probed: &NetPlan, what: &str) {
    assert_same_coupling(unprobed, probed, what);
    let mut filled = unprobed.clone();
    for (l, (x, y)) in filled.links.iter_mut().zip(&probed.links).enumerate() {
        assert!(
            x.interference_rel_db.is_nan(),
            "{what}: link {l} was probed"
        );
        assert!(
            !y.interference_rel_db.is_nan(),
            "{what}: link {l} was not probed"
        );
        x.interference_rel_db = y.interference_rel_db;
    }
    assert_eq!(format!("{filled:?}"), format!("{probed:?}"), "{what}");
}

#[test]
fn unadapted_mac_plans_skip_only_the_probe() {
    let mut scenarios = Vec::new();
    for model in [ChannelModel::Awgn, ChannelModel::Cm1] {
        for n in [2, 4, 8] {
            let mut sc = MacScenario::ring(n, 9.0, 0.8, 40 + n as u64);
            sc.net.channel_model = model;
            scenarios.push((format!("{model:?} {n}-ring"), sc));
        }
    }
    scenarios.push((
        "200-link MAC city".to_string(),
        MacScenario::clustered_city(20, 10, 9.0, 1.5, 20050307),
    ));
    for (what, sc) in &scenarios {
        assert!(!sc.net.adapt && !sc.net.probe_spectral, "{what}");
        let plan = plan_mac(sc);
        assert_equal_but_unprobed(&plan.net, &plan_network(&sc.net), what);
    }
    let city = &scenarios.last().unwrap().1;
    assert!(
        plan_network(&city.net)
            .coupling
            .iter()
            .any(|r| !r.is_empty()),
        "the city must couple"
    );
}

/// `a` equals `b` bit for bit: coupling gains and `interference_rel_db` on
/// `to_bits`, every other field on `Debug`.
fn assert_same_plan(a: &NetPlan, b: &NetPlan, what: &str) {
    assert_same_coupling(a, b, what);
    for (l, (x, y)) in a.links.iter().zip(&b.links).enumerate() {
        assert_eq!(
            x.interference_rel_db.to_bits(),
            y.interference_rel_db.to_bits(),
            "{what}: link {l}"
        );
    }
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

#[test]
fn probed_mac_plans_are_the_network_plan() {
    // Adaptation chooses each link's config from its probe.
    let mut adapted = MacScenario::ring(6, 6.0, 0.8, 4);
    adapted.net.adapt = true;
    adapted.net.policy =
        ChannelPolicy::RoundRobin((3..6).map(|i| Channel::new(i).unwrap()).collect());
    let plan = plan_mac(&adapted);
    let net = plan_network(&adapted.net);
    assert_same_plan(&plan.net, &net, "adapted 6-ring");
    assert!(net.links.iter().all(|l| l.operating.is_some()));
    assert!(
        net.links.iter().any(|l| {
            let mut base = adapted.net.base_config.clone();
            base.channel = l.channel;
            l.scenario.config != base
        }),
        "adaptation must move a config"
    );
    // The airtimes follow the adapted configs.
    for (l, link) in net.links.iter().enumerate() {
        let tx = Gen2Transmitter::new(link.scenario.config.clone()).unwrap();
        let burst_len = tx.layout(net.payload_len).burst_len;
        assert_eq!(plan.record_len[l], burst_len, "link {l}");
        assert_eq!(
            plan.airtime_slots[l],
            burst_len.div_ceil(adapted.slot_samples).max(1) as u64,
            "link {l}"
        );
    }

    // The spectral probe's reports are the caller's to read.
    let mut spectral = MacScenario::ring(4, 9.0, 0.8, 11);
    spectral.net.probe_spectral = true;
    assert_same_plan(
        &plan_mac(&spectral).net,
        &plan_network(&spectral.net),
        "4-ring with the spectral probe",
    );
}
