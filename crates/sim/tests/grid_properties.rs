//! Property-based tests for the spatial grid index: every query must agree
//! exactly with the brute-force O(N²) scan it replaces, for any point set,
//! cell size, query center and radius.

use proptest::prelude::*;
use uwb_sim::topology::{Position, SpatialGrid, Topology};

/// Brute-force radius query: ids of all points within `r` of `c`,
/// ascending — the reference the grid must reproduce.
fn brute_within(points: &[Position], c: Position, r: f64) -> Vec<u32> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_m(&c) <= r)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The grid's radius query, collected through `for_each_within` and
/// sorted by id. Each visited point's distance must be the one
/// `Position::distance_m` gives, bit for bit.
fn grid_within(grid: &SpatialGrid, points: &[Position], c: Position, r: f64) -> Vec<u32> {
    let mut got = Vec::new();
    grid.for_each_within(c, r, |id, d| {
        assert_eq!(
            d.to_bits(),
            points[id as usize].distance_m(&c).to_bits(),
            "point {id}"
        );
        got.push(id);
    });
    got.sort_unstable();
    got
}

fn positions(max_len: usize) -> impl Strategy<Value = Vec<Position>> {
    prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Position::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Radius queries agree with the brute-force scan, including the
    /// inclusive boundary, for any cell size.
    #[test]
    fn radius_query_matches_brute_force(
        pts in positions(60),
        cell in 0.3f64..30.0,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        r in 0.0f64..120.0,
    ) {
        let grid = SpatialGrid::from_points(pts.iter().copied().enumerate(), cell);
        let c = Position::new(cx, cy);
        prop_assert_eq!(grid_within(&grid, &pts, c, r), brute_within(&pts, c, r));
    }

    /// An infinite radius returns every indexed point.
    #[test]
    fn infinite_radius_returns_all(pts in positions(40), cell in 0.5f64..10.0) {
        let grid = SpatialGrid::from_points(pts.iter().copied().enumerate(), cell);
        let got = grid_within(&grid, &pts, Position::new(3.0, -7.0), f64::INFINITY);
        let all: Vec<u32> = (0..pts.len() as u32).collect();
        prop_assert_eq!(got, all);
    }

    /// Build order never changes query results: a reversed-insertion grid
    /// answers identically.
    #[test]
    fn build_order_invariant(
        pts in positions(40),
        cell in 0.4f64..15.0,
        r in 0.0f64..80.0,
    ) {
        let fwd = SpatialGrid::from_points(pts.iter().copied().enumerate(), cell);
        let rev = SpatialGrid::from_points(pts.iter().copied().enumerate().rev(), cell);
        let c = Position::new(-2.5, 4.0);
        prop_assert_eq!(grid_within(&fwd, &pts, c, r), grid_within(&rev, &pts, c, r));
    }

    /// The clustered city layout is deterministic in its seed and respects
    /// the requested link distance and cluster count.
    #[test]
    fn clustered_layout_is_deterministic(seed in any::<u64>()) {
        let a = Topology::clustered(4, 5, 30.0, 6.0, 2.0, seed);
        let b = Topology::clustered(4, 5, 30.0, 6.0, 2.0, seed);
        prop_assert_eq!(a.len(), 20);
        for (x, y) in a.links.iter().zip(&b.links) {
            prop_assert_eq!(x, y);
        }
        for l in &a.links {
            prop_assert!((l.distance_m() - 2.0).abs() < 1e-9);
        }
    }
}

/// The `Topology::grid` convenience indexes transmitter positions.
#[test]
fn topology_grid_indexes_transmitters() {
    let topo = Topology::ring(12, 5.0, 1.0);
    let grid = topo.grid(2.0);
    assert_eq!(grid.len(), 12);
    let tx_positions: Vec<Position> = topo.links.iter().map(|l| l.tx).collect();
    // Query around link 0's transmitter: it must be in its own neighborhood.
    let got = grid_within(&grid, &tx_positions, topo.links[0].tx, 0.5);
    assert!(got.contains(&0));
    let got = grid_within(&grid, &tx_positions, Position::new(0.0, 0.0), f64::INFINITY);
    assert_eq!(got.len(), tx_positions.len());
}
