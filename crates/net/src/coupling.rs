//! The coupling model: how much of transmitter `u`'s waveform lands in
//! receiver `v`'s baseband, relative to `v`'s own signal.
//!
//! Three multiplicative (additive-in-dB) terms:
//!
//! 1. **Geometry** — `Topology::relative_gain_db(u, v, f)`: the path-loss
//!    difference between the interfering path and the victim's own path
//!    (the near–far term).
//! 2. **Spectral overlap** — `Channel::overlap_attenuation_db`: 0 dB
//!    co-channel; `-inf` for disjoint occupied bands (all distinct channel
//!    pairs on the 528 MHz grid).
//! 3. **Front-end selectivity** — `ChannelSelectivity::rejection_db` keyed
//!    on the occupied-band gap: the *finite* leakage through real filters
//!    that makes adjacent channels couple even though their occupied bands
//!    are disjoint. Below the selectivity floor the coupling is dropped
//!    entirely (`None`), which is what makes a link on a far channel
//!    **bit-identical** to an isolated link rather than merely close.

use uwb_phy::bandplan::Channel;
use uwb_rf::ChannelSelectivity;
use uwb_sim::pathloss::log_distance_path_loss_db;
use uwb_sim::topology::{SpatialGrid, Topology};

/// The spectral term of a coupling: in-band overlap attenuation for
/// co-channel pairs, front-end stop-band leakage for disjoint occupied
/// bands. `None` once the leakage falls below the selectivity floor — a
/// function of the **channel pair only**, and symmetric in its arguments,
/// which is why graph builders evaluate it once per unordered pair (or once
/// per channel pair) instead of once per directed edge.
fn spectral_term(selectivity: &ChannelSelectivity, ch_u: Channel, ch_v: Channel) -> Option<f64> {
    let spectral_db = if ch_u == ch_v {
        // Co-channel: full occupied-band overlap, 0 dB.
        ch_v.overlap_attenuation_db(ch_u)
    } else {
        // Disjoint occupied bands: only the front end's finite stop-band
        // leakage couples. Below the floor the term vanishes outright.
        selectivity.rejection_db(ch_v.gap_hz(ch_u))?
    };
    if spectral_db == f64::NEG_INFINITY {
        None
    } else {
        Some(spectral_db)
    }
}

/// Relative power gain (dB) of transmitter `u` into receiver `v`, or
/// `None` when the coupling falls below the front end's selectivity floor
/// and is dropped from the simulation.
///
/// `ch_u`/`ch_v` are the links' assigned channels; geometry is evaluated at
/// the victim's carrier.
pub fn coupling_db(
    topology: &Topology,
    selectivity: &ChannelSelectivity,
    u: usize,
    ch_u: Channel,
    v: usize,
    ch_v: Channel,
) -> Option<f64> {
    let spectral_db = spectral_term(selectivity, ch_u, ch_v)?;
    let spatial_db = topology.relative_gain_db(u, v, ch_v.center());
    Some(spatial_db + spectral_db)
}

/// One victim's interference sources: `(tx_link, linear_amplitude_gain)`
/// pairs in ascending `tx_link` order — the fixed mixing order that keeps
/// the superposition bit-identical for any thread count and block split.
pub type CouplingRow = Vec<(usize, f64)>;

/// Parameters of the sparse interference-graph build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingParams {
    /// Total-coupling floor, in dB relative to the victim's own signal: a
    /// directed coupling whose combined spatial + spectral gain is **at or
    /// below** this is dropped from the graph entirely (the interferer is
    /// unresolvable against the victim's noise). `NEG_INFINITY` disables
    /// geometric pruning — only the front end's spectral floor drops edges,
    /// exactly the classic dense semantics.
    pub floor_db: f64,
    /// Optional cap: keep only the `k` strongest couplings per receiver
    /// (ties break toward the lower transmitter index). `None` = unbounded.
    pub max_per_rx: Option<usize>,
    /// Spatial-grid cell size override in metres; `None` picks
    /// `sqrt(bounding-box area / N)` — about one transmitter per cell.
    pub grid_cell_m: Option<f64>,
}

impl Default for CouplingParams {
    fn default() -> CouplingParams {
        CouplingParams {
            floor_db: f64::NEG_INFINITY,
            max_per_rx: None,
            grid_cell_m: None,
        }
    }
}

/// Per-link own-path loss at each link's own carrier — the shared term of
/// every coupling into that receiver, computed once per link instead of
/// once per directed edge.
fn own_path_losses(topology: &Topology, channels: &[Channel]) -> Vec<f64> {
    (0..topology.len())
        .map(|v| topology.path_loss_db(v, v, channels[v].center()))
        .collect()
}

/// Builds the full coupling table for an assignment of links to channels
/// by brute-force pair enumeration — the O(N²) reference the sparse build
/// is tested against, and the default for small networks.
///
/// Row `v` lists every foreign transmitter that couples into receiver `v`
/// above the selectivity floor, with its **amplitude** gain
/// (`10^(dB/20)`, since records are mixed in amplitude).
///
/// Edge work is deduplicated per **unordered pair**: the spectral term
/// (symmetric in the channel pair) is evaluated once and both directed
/// edges are materialized from it, with the per-victim own-path loss
/// hoisted out of the pair loop entirely.
pub fn build_coupling(
    topology: &Topology,
    selectivity: &ChannelSelectivity,
    channels: &[Channel],
) -> Vec<CouplingRow> {
    let n = topology.len();
    assert_eq!(channels.len(), n, "one channel per link");
    let own_pl = own_path_losses(topology, channels);
    let mut rows: Vec<CouplingRow> = vec![Vec::new(); n];
    for v in 0..n {
        for u in (v + 1)..n {
            // One spectral evaluation serves both directions: the occupied-
            // band gap and the overlap attenuation are symmetric.
            let Some(s) = spectral_term(selectivity, channels[u], channels[v]) else {
                continue;
            };
            // u → v. Pushed ascending: row v first receives partners < v
            // from earlier outer iterations, then u > v in inner order.
            let db_uv = own_pl[v] - topology.path_loss_db(u, v, channels[v].center()) + s;
            rows[v].push((u, 10f64.powf(db_uv / 20.0)));
            // v → u.
            let db_vu = own_pl[u] - topology.path_loss_db(v, u, channels[u].center()) + s;
            rows[u].push((v, 10f64.powf(db_vu / 20.0)));
        }
    }
    rows
}

/// Builds the coupling table through per-channel spatial grids, enumerating
/// ~O(k) candidates per receiver instead of all N transmitters: for victim
/// `v`, only the channels whose spectral term is above the selectivity
/// floor are visited, and within each, only transmitters inside the radius
/// where the combined coupling can still clear `params.floor_db`. Couplings
/// below the floor are **never enumerated**.
///
/// For every edge that both builds keep, the stored gain is **bit-identical**
/// to [`build_coupling`]'s (same float operations in the same order), so on
/// a scenario where no coupling falls below `params.floor_db` the sparse
/// graph is a pure no-op relative to the dense one.
pub fn build_coupling_sparse(
    topology: &Topology,
    selectivity: &ChannelSelectivity,
    channels: &[Channel],
    params: &CouplingParams,
) -> Vec<CouplingRow> {
    let n = topology.len();
    assert_eq!(channels.len(), n, "one channel per link");
    let nch = Channel::all().count();
    let own_pl = own_path_losses(topology, channels);
    let exponent = topology.path_loss_exponent;

    // Group transmitters by assigned channel and grid each group.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nch];
    for (l, ch) in channels.iter().enumerate() {
        members[ch.index()].push(l);
    }
    let cell = params.grid_cell_m.unwrap_or_else(|| auto_cell_m(topology));
    let grids: Vec<Option<SpatialGrid>> = members
        .iter()
        .map(|m| {
            if m.is_empty() {
                None
            } else {
                Some(SpatialGrid::from_points(
                    m.iter().map(|&l| (l, topology.links[l].tx)),
                    cell,
                ))
            }
        })
        .collect();

    // Spectral term per (tx-channel, victim-channel) pair — 14×14, not N².
    let spectral: Vec<Vec<Option<f64>>> = (0..nch)
        .map(|cu| {
            (0..nch)
                .map(|cv| {
                    spectral_term(
                        selectivity,
                        Channel::new(cu).expect("band-plan channel"),
                        Channel::new(cv).expect("band-plan channel"),
                    )
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<CouplingRow> = Vec::with_capacity(n);
    let mut cand: Vec<u32> = Vec::new();
    for v in 0..n {
        let cv = channels[v].index();
        let f = channels[v].center();
        let mut row: CouplingRow = Vec::new();
        for (cu, grid) in grids.iter().enumerate() {
            let Some(grid) = grid else { continue };
            let Some(s) = spectral[cu][cv] else { continue };
            let radius =
                interference_radius_m(topology, own_pl[v], s, params.floor_db, f, exponent);
            grid.within_radius_into(topology.links[v].rx, radius, &mut cand);
            for &u in &cand {
                let u = u as usize;
                if u == v {
                    continue;
                }
                // Same float-op order as the dense build — bit-identical
                // gains for every edge both builds keep.
                let db = own_pl[v] - topology.path_loss_db(u, v, f) + s;
                if db > params.floor_db {
                    row.push((u, 10f64.powf(db / 20.0)));
                }
            }
        }
        // Candidates arrive grouped by channel; restore the ascending-tx
        // mixing order the measurement phase's bit-exactness contract needs.
        row.sort_unstable_by_key(|&(u, _)| u);
        if let Some(k) = params.max_per_rx {
            if row.len() > k {
                // Keep the k strongest (ties toward the lower tx index),
                // then restore ascending-tx order.
                row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                row.truncate(k);
                row.sort_unstable_by_key(|&(u, _)| u);
            }
        }
        rows.push(row);
    }
    rows
}

/// Carrier-sense neighbor sets derived from the directed coupling graph.
///
/// Link `l` *senses* link `u` when either directed coupling between the
/// pair has a relative power gain at or above `sense_threshold_db` (rows
/// store linear **amplitude** gains, so the comparison threshold is
/// `10^(dB/20)`). The relation is symmetrized — carrier sense is a
/// listen-before-talk energy measurement, approximately reciprocal even
/// though interference coupling (whose reference is each victim's own
/// signal) is not.
///
/// Edges *in the coupling graph but below the sense threshold* are exactly
/// the hidden-terminal pairs: a MAC layer deferring on these sets will
/// still collide on those edges, and the collision energy genuinely lands
/// in the victim's mixed record. Each set is ascending and deduplicated.
pub fn sense_sets(rows: &[CouplingRow], sense_threshold_db: f64) -> Vec<Vec<usize>> {
    let thr = 10f64.powf(sense_threshold_db / 20.0);
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (v, row) in rows.iter().enumerate() {
        for &(u, gain) in row {
            if gain >= thr {
                sets[v].push(u);
                sets[u].push(v);
            }
        }
    }
    for s in &mut sets {
        s.sort_unstable();
        s.dedup();
    }
    sets
}

/// Default grid cell: about one transmitter per cell over the bounding box.
fn auto_cell_m(topology: &Topology) -> f64 {
    let xs = topology.links.iter().map(|l| l.tx.x);
    let ys = topology.links.iter().map(|l| l.tx.y);
    let (min_x, max_x) = (
        xs.clone().fold(f64::INFINITY, f64::min),
        xs.fold(f64::NEG_INFINITY, f64::max),
    );
    let (min_y, max_y) = (
        ys.clone().fold(f64::INFINITY, f64::min),
        ys.fold(f64::NEG_INFINITY, f64::max),
    );
    let area = (max_x - min_x) * (max_y - min_y);
    let cell = (area / topology.len().max(1) as f64).sqrt();
    if cell.is_finite() && cell > 0.0 {
        cell
    } else {
        1.0
    }
}

/// The distance beyond which a transmitter with spectral term `s` cannot
/// clear the coupling floor at this victim: solves
/// `own_pl + s − PL(d) = floor` for `d` under the log-distance model, with
/// a relative margin and the near-field clamp added so floating-point
/// round-off in the closed form can never exclude an edge the exact
/// per-edge check would keep (the query is a superset; every candidate is
/// re-checked exactly).
fn interference_radius_m(
    topology: &Topology,
    own_pl_db: f64,
    spectral_db: f64,
    floor_db: f64,
    f: uwb_sim::time::Hertz,
    exponent: f64,
) -> f64 {
    if floor_db == f64::NEG_INFINITY {
        return f64::INFINITY;
    }
    let pl_at_1m = log_distance_path_loss_db(1.0, f, exponent);
    let budget_db = own_pl_db + spectral_db - floor_db - pl_at_1m;
    let d = 10f64.powf(budget_db / (10.0 * exponent));
    d * (1.0 + 1e-9) + topology.min_distance_m
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_sim::topology::{LinkGeometry, Position};

    fn ring2() -> Topology {
        Topology::ring(2, 2.0, 1.0)
    }

    fn ch(i: usize) -> Channel {
        Channel::new(i).unwrap()
    }

    #[test]
    fn sense_sets_symmetrize_and_threshold() {
        // 3 links; directed rows: 0 hears 1 loudly (0 dB), 1 hears 2
        // faintly (-60 dB), 2 hears nobody.
        let rows: Vec<CouplingRow> = vec![vec![(1, 1.0)], vec![(2, 1e-3)], vec![]];
        // Threshold between the two edge strengths: only the 0<->1 pair is
        // mutually sensed; the 1<-2 edge stays a hidden terminal.
        let sets = sense_sets(&rows, -40.0);
        assert_eq!(sets[0], vec![1], "0 senses 1");
        assert_eq!(sets[1], vec![0], "sensing is symmetrized");
        assert!(sets[2].is_empty(), "below-threshold edge is hidden");
        // A permissive threshold picks up the faint edge too.
        let sets = sense_sets(&rows, -80.0);
        assert_eq!(sets[1], vec![0, 2]);
        assert_eq!(sets[2], vec![1]);
    }

    #[test]
    fn co_channel_couples_at_spatial_gain() {
        let topo = ring2();
        let sel = ChannelSelectivity::gen2();
        let ch = Channel::new(3).unwrap();
        let db = coupling_db(&topo, &sel, 1, ch, 0, ch).unwrap();
        let spatial = topo.relative_gain_db(1, 0, ch.center());
        assert!((db - spatial).abs() < 1e-12, "{db} vs {spatial}");
    }

    #[test]
    fn adjacent_channel_attenuated_by_selectivity() {
        let topo = ring2();
        let sel = ChannelSelectivity::gen2();
        let a = Channel::new(3).unwrap();
        let b = Channel::new(4).unwrap();
        let co = coupling_db(&topo, &sel, 1, a, 0, a).unwrap();
        let adj = coupling_db(&topo, &sel, 1, b, 0, a).unwrap();
        assert!((co - adj - 30.0).abs() < 1e-9, "co {co} adj {adj}");
    }

    #[test]
    fn far_channel_coupling_dropped() {
        let topo = ring2();
        let sel = ChannelSelectivity::gen2();
        let a = Channel::new(0).unwrap();
        let b = Channel::new(13).unwrap();
        assert_eq!(coupling_db(&topo, &sel, 1, b, 0, a), None);
        // Three channels away already falls below the gen2 floor.
        let c = Channel::new(3).unwrap();
        assert_eq!(coupling_db(&topo, &sel, 1, c, 0, a), None);
    }

    #[test]
    fn brick_wall_drops_everything_off_channel() {
        let topo = ring2();
        let sel = ChannelSelectivity::brick_wall();
        let a = Channel::new(3).unwrap();
        let b = Channel::new(4).unwrap();
        assert!(coupling_db(&topo, &sel, 1, a, 0, a).is_some());
        assert_eq!(coupling_db(&topo, &sel, 1, b, 0, a), None);
    }

    #[test]
    fn coupling_table_shape_and_order() {
        let topo = Topology::ring(4, 3.0, 1.0);
        let sel = ChannelSelectivity::gen2();
        let ch3 = Channel::new(3).unwrap();
        let rows = build_coupling(&topo, &sel, &[ch3; 4]);
        assert_eq!(rows.len(), 4);
        for (v, row) in rows.iter().enumerate() {
            // All-co-channel: everyone couples into everyone.
            assert_eq!(row.len(), 3, "victim {v}");
            // Ascending tx order (the deterministic mixing order).
            for w in row.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            for &(u, g) in row {
                assert_ne!(u, v);
                assert!(g > 0.0 && g.is_finite());
            }
        }
    }

    /// A mixed-channel layout where the sparse build must reproduce the
    /// dense table exactly — same edges, bitwise-equal gains.
    fn assert_sparse_matches_dense(topo: &Topology, channels: &[Channel], params: &CouplingParams) {
        let sel = ChannelSelectivity::gen2();
        let dense = build_coupling(topo, &sel, channels);
        let sparse = build_coupling_sparse(topo, &sel, channels, params);
        assert_eq!(dense.len(), sparse.len());
        for (v, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            assert_eq!(d.len(), s.len(), "victim {v}: {d:?} vs {s:?}");
            for ((du, dg), (su, sg)) in d.iter().zip(s) {
                assert_eq!(du, su, "victim {v} edge set differs");
                assert_eq!(
                    dg.to_bits(),
                    sg.to_bits(),
                    "victim {v} tx {du} gain differs"
                );
            }
        }
    }

    #[test]
    fn sparse_build_is_noop_without_floor() {
        let topo = Topology::ring(24, 6.0, 1.0);
        let channels: Vec<Channel> = (0..24).map(|l| ch(l % 14)).collect();
        assert_sparse_matches_dense(&topo, &channels, &CouplingParams::default());
    }

    #[test]
    fn sparse_build_is_noop_when_floor_below_every_coupling() {
        // Tight ring: every coupling is way above a −200 dB floor, so the
        // geometric pruning must be a pure no-op — and the radius pass is
        // still exercised (finite floor ⇒ finite query radii).
        let topo = Topology::ring(16, 3.0, 1.0);
        let channels: Vec<Channel> = (0..16).map(|l| ch(l % 3)).collect();
        let params = CouplingParams {
            floor_db: -200.0,
            ..CouplingParams::default()
        };
        assert_sparse_matches_dense(&topo, &channels, &params);
    }

    #[test]
    fn coupling_floor_drops_far_co_channel_interferers() {
        // Two co-channel links 500 m apart with 1 m own paths: relative
        // gain ≈ −54 dB. A −40 dB floor must cut the edge both ways; the
        // spectral-only dense build keeps it.
        let topo = Topology::new(vec![
            LinkGeometry::new(Position::new(0.0, 0.0), Position::new(1.0, 0.0)),
            LinkGeometry::new(Position::new(500.0, 0.0), Position::new(501.0, 0.0)),
        ]);
        let sel = ChannelSelectivity::gen2();
        let channels = [ch(3), ch(3)];
        let dense = build_coupling(&topo, &sel, &channels);
        assert!(dense.iter().all(|r| r.len() == 1), "{dense:?}");
        let params = CouplingParams {
            floor_db: -40.0,
            ..CouplingParams::default()
        };
        let sparse = build_coupling_sparse(&topo, &sel, &channels, &params);
        assert!(sparse.iter().all(|r| r.is_empty()), "{sparse:?}");
    }

    #[test]
    fn max_per_rx_keeps_strongest_in_ascending_order() {
        let topo = Topology::ring(10, 2.0, 1.0);
        let channels = [ch(5); 10];
        let sel = ChannelSelectivity::gen2();
        let full = build_coupling_sparse(&topo, &sel, &channels, &CouplingParams::default());
        let params = CouplingParams {
            max_per_rx: Some(3),
            ..CouplingParams::default()
        };
        let capped = build_coupling_sparse(&topo, &sel, &channels, &params);
        for (v, row) in capped.iter().enumerate() {
            assert_eq!(row.len(), 3, "victim {v}");
            for w in row.windows(2) {
                assert!(w[0].0 < w[1].0, "ascending tx order");
            }
            // Every kept gain is ≥ every dropped gain.
            let kept_min = row.iter().map(|&(_, g)| g).fold(f64::INFINITY, f64::min);
            for &(u, g) in &full[v] {
                if !row.iter().any(|&(ku, _)| ku == u) {
                    assert!(g <= kept_min, "victim {v} dropped a stronger edge");
                }
            }
        }
    }

    #[test]
    fn spread_channels_decouple_table() {
        let topo = Topology::ring(3, 3.0, 1.0);
        let sel = ChannelSelectivity::gen2();
        let chans = [
            Channel::new(0).unwrap(),
            Channel::new(6).unwrap(),
            Channel::new(12).unwrap(),
        ];
        let rows = build_coupling(&topo, &sel, &chans);
        assert!(rows.iter().all(|r| r.is_empty()), "{rows:?}");
    }
}
