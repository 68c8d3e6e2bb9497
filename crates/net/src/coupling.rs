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
//!
//! [`build_coupling`] is the O(N²) reference; [`build_coupling_sparse`] is
//! the build planning runs. It grids each channel's transmitters on their
//! own (cells sized for about one transmitter each), asks each grid only
//! for transmitters inside the radius where a coupling can still clear
//! the floor, and checks each candidate once, at the distance the grid
//! hands over. Its cost follows the edges it keeps, not N², and its kept
//! gains equal the reference's bit for bit.

use uwb_phy::bandplan::Channel;
use uwb_rf::ChannelSelectivity;
use uwb_sim::pathloss::free_space_path_loss_db;
use uwb_sim::topology::{Position, SpatialGrid, Topology};

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
}

impl Default for CouplingParams {
    fn default() -> CouplingParams {
        CouplingParams {
            floor_db: f64::NEG_INFINITY,
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
/// Each channel's grid is sized from that channel's own transmitters
/// (about one per cell over their bounding box), so a query walks cells
/// in proportion to the co-channel transmitters it can meet, not to the
/// whole network. Each candidate is handled in one pass: the grid hands
/// over its distance, and the victim-constant terms (free-space loss at
/// 1 m, `10 · exponent`) are computed once per victim.
///
/// For every edge that both builds keep, the stored gain is **bit-identical**
/// to [`build_coupling`]'s (same float operations in the same order), so on
/// a scenario where no coupling falls below `params.floor_db` the sparse
/// graph is a pure no-op relative to the dense one.
///
/// Telemetry: per victim, the `net_coupling_cells` digest records the grid
/// cells walked and `net_coupling_candidates` the transmitters the grids
/// hand over (the victim's own included) to be checked against the floor.
pub fn build_coupling_sparse(
    topology: &Topology,
    selectivity: &ChannelSelectivity,
    channels: &[Channel],
    params: &CouplingParams,
) -> Vec<CouplingRow> {
    let n = topology.len();
    assert_eq!(channels.len(), n, "one channel per link");
    let all: Vec<Channel> = Channel::all().collect();
    let own_pl = own_path_losses(topology, channels);
    let ten_n = 10.0 * topology.path_loss_exponent;
    let min_d = topology.min_distance_m;

    // Group transmitters by assigned channel and grid each group.
    let mut members: Vec<Vec<(usize, Position)>> = vec![Vec::new(); all.len()];
    for (l, ch) in channels.iter().enumerate() {
        members[ch.index()].push((l, topology.links[l].tx));
    }
    let grids: Vec<Option<SpatialGrid>> = members
        .iter()
        .map(|m| {
            (!m.is_empty()).then(|| SpatialGrid::from_points(m.iter().copied(), one_per_cell_m(m)))
        })
        .collect();

    // Spectral term per (tx-channel, victim-channel) pair — 14×14, not N².
    let spectral: Vec<Vec<Option<f64>>> = all
        .iter()
        .map(|&cu| {
            all.iter()
                .map(|&cv| spectral_term(selectivity, cu, cv))
                .collect()
        })
        .collect();

    let mut rows: Vec<CouplingRow> = Vec::with_capacity(n);
    let mut row: CouplingRow = Vec::new();
    for v in 0..n {
        let cv = channels[v].index();
        let fspl_1m = free_space_path_loss_db(1.0, channels[v].center());
        let rx = topology.links[v].rx;
        let (mut cells, mut candidates) = (0usize, 0usize);
        row.clear();
        for (cu, grid) in grids.iter().enumerate() {
            let Some(grid) = grid else { continue };
            let Some(s) = spectral[cu][cv] else { continue };
            // Beyond this distance a transmitter cannot clear the floor:
            // `own_pl + s − PL(d) = floor` solved for `d`, plus a relative
            // margin and the near-field clamp, so round-off in the closed
            // form never excludes an edge the exact check below would keep.
            let radius = if params.floor_db == f64::NEG_INFINITY {
                f64::INFINITY
            } else {
                let budget_db = own_pl[v] + s - params.floor_db - fspl_1m;
                10f64.powf(budget_db / ten_n) * (1.0 + 1e-9) + min_d
            };
            cells += grid.for_each_within(rx, radius, |u, d| {
                candidates += 1;
                let u = u as usize;
                if u == v {
                    return;
                }
                // `log_distance_path_loss_db` at `Topology::distance_m`,
                // operation for operation: gains bit-identical to the dense
                // build's for every edge both builds keep.
                let pl = fspl_1m + ten_n * d.max(min_d).log10();
                let db = own_pl[v] - pl + s;
                if db > params.floor_db {
                    row.push((u, 10f64.powf(db / 20.0)));
                }
            });
        }
        uwb_obs::digest!("net_coupling_cells", cells as u64);
        uwb_obs::digest!("net_coupling_candidates", candidates as u64);
        // Candidates arrive grouped by channel and cell; restore the
        // ascending-tx mixing order the bit-exactness contract needs, then
        // copy the row out at its exact size.
        row.sort_unstable_by_key(|&(u, _)| u);
        rows.push(row.clone());
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

/// Grid cell for one channel's transmitters: about one per cell over
/// their bounding box. The cell is at least the box's longer side over the
/// transmitter count, so a thin box (two transmitters on opposite sides of
/// a ring, a line) still gets about as many cells as transmitters rather
/// than one per `sqrt(area / n)` along its length: the grid never has more
/// than `3n + 1` cells. 1 m when every transmitter sits at one point.
fn one_per_cell_m(points: &[(usize, Position)]) -> f64 {
    let xs = points.iter().map(|(_, p)| p.x);
    let ys = points.iter().map(|(_, p)| p.y);
    let width = xs.clone().fold(f64::NEG_INFINITY, f64::max) - xs.fold(f64::INFINITY, f64::min);
    let height = ys.clone().fold(f64::NEG_INFINITY, f64::max) - ys.fold(f64::INFINITY, f64::min);
    let n = points.len().max(1) as f64;
    let cell = (width * height / n).sqrt().max(width.max(height) / n);
    if cell.is_finite() && cell > 0.0 {
        cell
    } else {
        1.0
    }
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

    /// The sparse build must equal the every-ordered-pair reference
    /// exactly — same edges, bitwise-equal gains: for each victim, every
    /// other transmitter whose `coupling_db` clears `params.floor_db`, with
    /// gain `10^(db/20)`, in ascending order. Without a floor the dense
    /// `build_coupling` must equal it too. Returns the edge count.
    fn assert_sparse_matches_dense(
        topo: &Topology,
        channels: &[Channel],
        params: &CouplingParams,
    ) -> usize {
        let sel = ChannelSelectivity::gen2();
        let n = topo.len();
        let reference: Vec<CouplingRow> = (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&u| u != v)
                    .filter_map(|u| {
                        let db = coupling_db(topo, &sel, u, channels[u], v, channels[v])?;
                        (db > params.floor_db).then(|| (u, 10f64.powf(db / 20.0)))
                    })
                    .collect()
            })
            .collect();
        let sparse = build_coupling_sparse(topo, &sel, channels, params);
        let mut builds = vec![("sparse", sparse)];
        if params.floor_db == f64::NEG_INFINITY {
            builds.push(("dense", build_coupling(topo, &sel, channels)));
        }
        for (name, rows) in &builds {
            assert_eq!(reference.len(), rows.len(), "{name}");
            for (v, (r, s)) in reference.iter().zip(rows).enumerate() {
                assert_eq!(r.len(), s.len(), "{name} victim {v}: {r:?} vs {s:?}");
                for ((ru, rg), (su, sg)) in r.iter().zip(s) {
                    assert_eq!(ru, su, "{name} victim {v} edge set differs");
                    assert_eq!(
                        rg.to_bits(),
                        sg.to_bits(),
                        "{name} victim {v} tx {ru} gain differs"
                    );
                }
            }
        }
        reference.iter().map(Vec::len).sum()
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
        let params = CouplingParams { floor_db: -200.0 };
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
        let params = CouplingParams { floor_db: -40.0 };
        let sparse = build_coupling_sparse(&topo, &sel, &channels, &params);
        assert!(sparse.iter().all(|r| r.is_empty()), "{sparse:?}");
    }

    #[test]
    fn sparse_build_matches_the_reference_under_a_finite_floor() {
        // A 288-link city, 150 m on a side: at -40 dB the floor cuts
        // co-channel edges beyond ~100 m and most adjacent-channel ones.
        let topo = Topology::clustered(36, 8, 30.0, 3.0, 1.0, 20050307);
        let n = topo.len();
        let floor = CouplingParams { floor_db: -40.0 };
        for channels in [
            (0..n).map(|l| ch(l % 14)).collect::<Vec<_>>(),
            vec![ch(5); n],
            (0..n).map(|l| ch(3 + l % 3)).collect(),
        ] {
            let kept = assert_sparse_matches_dense(&topo, &channels, &floor);
            let all = assert_sparse_matches_dense(&topo, &channels, &CouplingParams::default());
            assert!(
                0 < kept && kept < all,
                "the floor must prune: {kept} of {all}"
            );
        }
    }

    #[test]
    fn channel_grids_have_about_one_cell_per_transmitter() {
        let cells = |pts: &[(f64, f64)]| {
            let pts: Vec<(usize, Position)> = pts
                .iter()
                .enumerate()
                .map(|(l, &(x, y))| (l, Position::new(x, y)))
                .collect();
            let c = one_per_cell_m(&pts);
            let span = |f: fn(&Position) -> f64| {
                let v = pts.iter().map(|(_, p)| f(p));
                v.clone().fold(f64::NEG_INFINITY, f64::max) - v.fold(f64::INFINITY, f64::min)
            };
            let nx = (span(|p| p.x) / c).floor() + 1.0;
            let ny = (span(|p| p.y) / c).floor() + 1.0;
            (c, nx * ny)
        };
        // Diametric ring pair: a box 18 m long and ~1e-15 m high.
        let (_, n) = cells(&[(9.0, 0.0), (-9.0, 9.0 * std::f64::consts::PI.sin())]);
        assert!(n <= 7.0, "{n} cells for 2 transmitters");
        // A line, a square and a single point.
        let line: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 3.0, 0.0)).collect();
        assert!(cells(&line).1 <= 31.0);
        let square: Vec<(f64, f64)> = (0..100)
            .map(|i| ((i % 10) as f64, (i / 10) as f64))
            .collect();
        assert!(cells(&square).1 <= 301.0);
        assert_eq!(cells(&[(4.0, 4.0), (4.0, 4.0)]), (1.0, 1.0));
    }

    #[test]
    fn sparse_build_handles_degenerate_channel_grids() {
        // Channel 3: four transmitters on a line (a zero-area box, so the
        // 1 m fallback cell). Channel 4: three coincident transmitters.
        // Channel 5: a single transmitter. Channel 6: a vertical line.
        // Channel 7: a diametric ring pair, a box ~1e-15 m high.
        let link = |x: f64, y: f64, dx: f64, dy: f64| {
            LinkGeometry::new(Position::new(x, y), Position::new(x + dx, y + dy))
        };
        let topo = Topology::new(vec![
            link(0.0, 0.0, 0.0, 1.0),
            link(7.0, 0.0, 0.0, -1.0),
            link(2.0, 0.0, 1.0, 0.0),
            link(40.0, 0.0, 0.0, 2.0),
            link(10.0, 10.0, 1.0, 0.0),
            link(10.0, 10.0, -1.0, 0.0),
            link(10.0, 10.0, 0.0, 3.0),
            link(5.0, 5.0, 1.0, 1.0),
            link(-3.0, 1.0, 1.0, 0.0),
            link(-3.0, 9.0, 0.0, 1.0),
            link(-3.0, 30.0, -1.0, 0.0),
            link(9.0, 0.0, 1.0, 0.0),
            link(-9.0, 9.0 * std::f64::consts::PI.sin(), -1.0, 0.0),
        ]);
        let channels: Vec<Channel> = [3, 3, 3, 3, 4, 4, 4, 5, 6, 6, 6, 7, 7]
            .into_iter()
            .map(ch)
            .collect();
        for floor_db in [f64::NEG_INFINITY, -40.0, -20.0, 0.0] {
            assert_sparse_matches_dense(&topo, &channels, &CouplingParams { floor_db });
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
