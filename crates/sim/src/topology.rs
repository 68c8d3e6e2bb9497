//! Piconet geometry: node positions and pairwise path gains.
//!
//! The network simulator places transmitter/receiver pairs on a floor plan
//! and needs, for every (victim receiver, foreign transmitter) pair, the
//! *relative* path gain of the interfering path against the victim's own
//! signal path. This module provides the geometry and the pairwise loss
//! table; spectral (channel-separation) attenuation is layered on top by
//! the network crate.

use crate::pathloss::log_distance_path_loss_db;
use crate::rng::Rand;
use crate::time::Hertz;

/// A node position on the floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance_m(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// One transmitter→receiver pair placed on the floor plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkGeometry {
    /// Transmitter position.
    pub tx: Position,
    /// Receiver position.
    pub rx: Position,
}

impl LinkGeometry {
    /// Creates a link between `tx` and `rx`.
    pub fn new(tx: Position, rx: Position) -> LinkGeometry {
        LinkGeometry { tx, rx }
    }

    /// Own-link distance, in metres.
    pub fn distance_m(&self) -> f64 {
        self.tx.distance_m(&self.rx)
    }
}

/// The full floor plan: a set of links plus the propagation exponent.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// The links, indexed by link id.
    pub links: Vec<LinkGeometry>,
    /// Log-distance path-loss exponent (1.7 LOS … 3.5 NLOS indoor).
    pub path_loss_exponent: f64,
    /// Minimum separation clamp (m) applied to every distance to keep the
    /// far-field path-loss model out of its near-field singularity.
    pub min_distance_m: f64,
}

impl Topology {
    /// Creates a topology from explicit link geometries with the default
    /// indoor-LOS-ish exponent of 2.0 and a 0.1 m near-field clamp.
    pub fn new(links: Vec<LinkGeometry>) -> Topology {
        Topology {
            links,
            path_loss_exponent: 2.0,
            min_distance_m: 0.1,
        }
    }

    /// A deterministic ring layout: `n` links whose transmitters sit on a
    /// circle of radius `ring_radius_m` and whose receivers sit
    /// `link_distance_m` radially outward from their transmitter. Adjacent
    /// pairs are therefore geometric neighbours — a worst-ish case for
    /// co-channel interference without any randomness.
    pub fn ring(n: usize, ring_radius_m: f64, link_distance_m: f64) -> Topology {
        let links = (0..n)
            .map(|i| {
                let theta = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
                let (s, c) = theta.sin_cos();
                let tx = Position::new(ring_radius_m * c, ring_radius_m * s);
                let rx = Position::new(
                    (ring_radius_m + link_distance_m) * c,
                    (ring_radius_m + link_distance_m) * s,
                );
                LinkGeometry::new(tx, rx)
            })
            .collect();
        Topology::new(links)
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` if the topology has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Distance (m) from link `tx_link`'s transmitter to link `rx_link`'s
    /// receiver, clamped to `min_distance_m`.
    pub fn distance_m(&self, tx_link: usize, rx_link: usize) -> f64 {
        self.links[tx_link]
            .tx
            .distance_m(&self.links[rx_link].rx)
            .max(self.min_distance_m)
    }

    /// Path loss (dB) from link `tx_link`'s transmitter to link `rx_link`'s
    /// receiver at carrier frequency `f`.
    pub fn path_loss_db(&self, tx_link: usize, rx_link: usize, f: Hertz) -> f64 {
        log_distance_path_loss_db(
            self.distance_m(tx_link, rx_link),
            f,
            self.path_loss_exponent,
        )
    }

    /// Relative gain (dB, usually ≤ 0) of the interfering path from link
    /// `tx_link`'s transmitter into link `rx_link`'s receiver, *referenced
    /// to the victim's own signal path*:
    ///
    /// `rel = PL(own tx → own rx) − PL(foreign tx → own rx)`
    ///
    /// evaluated at the victim's carrier `f` (path loss varies slowly over a
    /// channel separation compared to the selectivity terms layered on top).
    /// A foreign transmitter closer to the victim receiver than the victim's
    /// own transmitter yields a *positive* relative gain — the near–far
    /// problem of multi-user impulse radio.
    pub fn relative_gain_db(&self, tx_link: usize, rx_link: usize, f: Hertz) -> f64 {
        self.path_loss_db(rx_link, rx_link, f) - self.path_loss_db(tx_link, rx_link, f)
    }

    /// A clustered floor plan — the "city" layout: `clusters` piconet
    /// clusters arranged on a square grid with `cluster_spacing_m` pitch,
    /// each holding `per_cluster` links whose transmitters are placed
    /// uniformly inside a disc of `cluster_radius_m` and whose receivers sit
    /// `link_distance_m` away at a uniform angle. Deterministic: the layout
    /// is a pure function of `seed`.
    pub fn clustered(
        clusters: usize,
        per_cluster: usize,
        cluster_spacing_m: f64,
        cluster_radius_m: f64,
        link_distance_m: f64,
        seed: u64,
    ) -> Topology {
        let mut rng = Rand::new(seed ^ 0x70_70_6f_6c_6f_67_79); // "topology"
        let side = (clusters as f64).sqrt().ceil() as usize;
        let mut links = Vec::with_capacity(clusters * per_cluster);
        for c in 0..clusters {
            let cx = (c % side.max(1)) as f64 * cluster_spacing_m;
            let cy = (c / side.max(1)) as f64 * cluster_spacing_m;
            for _ in 0..per_cluster {
                // Uniform in the disc: sqrt-radius × uniform angle.
                let r = cluster_radius_m * rng.uniform().sqrt();
                let phi = rng.uniform_in(0.0, 2.0 * std::f64::consts::PI);
                let tx = Position::new(cx + r * phi.cos(), cy + r * phi.sin());
                let psi = rng.uniform_in(0.0, 2.0 * std::f64::consts::PI);
                let rx = Position::new(
                    tx.x + link_distance_m * psi.cos(),
                    tx.y + link_distance_m * psi.sin(),
                );
                links.push(LinkGeometry::new(tx, rx));
            }
        }
        Topology::new(links)
    }

    /// Builds a uniform [`SpatialGrid`] over all **transmitter** positions
    /// with the given cell size (metres).
    pub fn grid(&self, cell_size_m: f64) -> SpatialGrid {
        SpatialGrid::from_points(self.links.iter().map(|l| l.tx).enumerate(), cell_size_m)
    }
}

/// A uniform spatial hash over a set of indexed points, built once and
/// queried many times: the plan-time structure that lets the network
/// simulator enumerate candidate interferers in ~O(k) per receiver instead
/// of scanning all N transmitters.
///
/// Queries are **deterministic and build-order independent**: each cell
/// holds its ids ascending, so `for_each_within` visits the same points in
/// the same order however the grid was built.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size_m: f64,
    origin: Position,
    nx: usize,
    ny: usize,
    /// CSR layout: ids of cell `c` are `items[cell_start[c]..cell_start[c+1]]`,
    /// ascending within each cell.
    cell_start: Vec<u32>,
    items: Vec<(u32, Position)>,
}

impl SpatialGrid {
    /// Builds the grid from `(id, position)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size_m` is not a positive finite number or any
    /// position is non-finite.
    pub fn from_points(
        points: impl IntoIterator<Item = (usize, Position)>,
        cell_size_m: f64,
    ) -> SpatialGrid {
        assert!(
            cell_size_m.is_finite() && cell_size_m > 0.0,
            "cell size must be positive and finite"
        );
        let pts: Vec<(u32, Position)> = points
            .into_iter()
            .map(|(id, p)| {
                assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position");
                (id as u32, p)
            })
            .collect();
        if pts.is_empty() {
            return SpatialGrid {
                cell_size_m,
                origin: Position::new(0.0, 0.0),
                nx: 0,
                ny: 0,
                cell_start: vec![0],
                items: Vec::new(),
            };
        }
        let min_x = pts.iter().map(|(_, p)| p.x).fold(f64::INFINITY, f64::min);
        let min_y = pts.iter().map(|(_, p)| p.y).fold(f64::INFINITY, f64::min);
        let max_x = pts
            .iter()
            .map(|(_, p)| p.x)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_y = pts
            .iter()
            .map(|(_, p)| p.y)
            .fold(f64::NEG_INFINITY, f64::max);
        let origin = Position::new(min_x, min_y);
        let nx = ((max_x - min_x) / cell_size_m).floor() as usize + 1;
        let ny = ((max_y - min_y) / cell_size_m).floor() as usize + 1;

        // Counting sort into CSR, stable in id order: sorting the points by
        // id first makes every cell's slice ascending regardless of the
        // caller's iteration order.
        let mut sorted = pts;
        sorted.sort_unstable_by_key(|&(id, _)| id);
        let cell_of = |p: &Position| -> usize {
            let cx = (((p.x - origin.x) / cell_size_m).floor() as usize).min(nx - 1);
            let cy = (((p.y - origin.y) / cell_size_m).floor() as usize).min(ny - 1);
            cy * nx + cx
        };
        let mut counts = vec![0u32; nx * ny + 1];
        for (_, p) in &sorted {
            counts[cell_of(p) + 1] += 1;
        }
        for c in 0..nx * ny {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut items = vec![(0u32, Position::new(0.0, 0.0)); sorted.len()];
        for (id, p) in sorted {
            let c = cell_of(&p);
            items[cursor[c] as usize] = (id, p);
            cursor[c] += 1;
        }
        SpatialGrid {
            cell_size_m,
            origin,
            nx,
            ny,
            cell_start,
            items,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cell-index range `[lo, hi]` covered by `[c - r, c + r]` along one
    /// axis, clamped to the grid. `r = inf` covers the whole axis.
    fn axis_range(&self, c: f64, o: f64, n: usize, r: f64) -> (usize, usize) {
        if n == 0 {
            return (1, 0); // empty range
        }
        let lo = ((c - r - o) / self.cell_size_m).floor().max(0.0);
        let hi = ((c + r - o) / self.cell_size_m).floor().min((n - 1) as f64);
        if hi < lo {
            return (1, 0);
        }
        (lo as usize, hi as usize)
    }

    /// Calls `visit(id, d)` for every indexed point within `radius_m`
    /// (inclusive) of `center`, with `d` its distance from `center`
    /// (`Position::distance_m`, bit for bit), and returns the number of
    /// cells walked. Points come row by row in storage order, not in id
    /// order; an infinite radius visits every point.
    pub fn for_each_within(
        &self,
        center: Position,
        radius_m: f64,
        mut visit: impl FnMut(u32, f64),
    ) -> usize {
        if radius_m < 0.0 || self.items.is_empty() {
            return 0;
        }
        let (x0, x1) = self.axis_range(center.x, self.origin.x, self.nx, radius_m);
        let (y0, y1) = self.axis_range(center.y, self.origin.y, self.ny, radius_m);
        if x1 < x0 || y1 < y0 {
            return 0;
        }
        for cy in y0..=y1 {
            // A row's cells `x0..=x1` are one contiguous CSR slice.
            let row = cy * self.nx;
            let lo = self.cell_start[row + x0] as usize;
            let hi = self.cell_start[row + x1 + 1] as usize;
            for &(id, p) in &self.items[lo..hi] {
                let d = p.distance_m(&center);
                if d <= radius_m {
                    visit(id, d);
                }
            }
        }
        (x1 - x0 + 1) * (y1 - y0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_m(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_m(&a), 0.0);
    }

    #[test]
    fn ring_layout_geometry() {
        let topo = Topology::ring(8, 4.0, 1.0);
        assert_eq!(topo.len(), 8);
        for link in &topo.links {
            assert!((link.distance_m() - 1.0).abs() < 1e-9);
        }
        // Own-link distance equals diag of the pair table.
        for i in 0..8 {
            assert!((topo.distance_m(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn own_path_relative_gain_is_zero() {
        let topo = Topology::ring(4, 3.0, 1.0);
        let f = Hertz::from_ghz(3.432);
        for i in 0..4 {
            assert!((topo.relative_gain_db(i, i, f)).abs() < 1e-12);
        }
    }

    #[test]
    fn farther_interferer_is_weaker() {
        let topo = Topology::ring(8, 4.0, 1.0);
        let f = Hertz::from_ghz(3.432);
        // Neighbour TX (1 step around the ring) is closer to RX 0 than the
        // TX 4 on the opposite side, so its relative gain is higher.
        let near = topo.relative_gain_db(1, 0, f);
        let far = topo.relative_gain_db(4, 0, f);
        assert!(near > far, "{near} vs {far}");
        // Both interferers are farther from rx0 than its own 1 m tx.
        assert!(near < 0.0);
    }

    #[test]
    fn near_far_problem_visible() {
        // Foreign TX right next to the victim RX → positive relative gain.
        let links = vec![
            LinkGeometry::new(Position::new(0.0, 0.0), Position::new(5.0, 0.0)),
            LinkGeometry::new(Position::new(5.2, 0.0), Position::new(9.0, 0.0)),
        ];
        let topo = Topology::new(links);
        let f = Hertz::from_ghz(5.016);
        assert!(topo.relative_gain_db(1, 0, f) > 0.0);
    }

    #[test]
    fn min_distance_clamp() {
        let links = vec![
            LinkGeometry::new(Position::new(0.0, 0.0), Position::new(1.0, 0.0)),
            LinkGeometry::new(Position::new(1.0, 0.0), Position::new(2.0, 0.0)),
        ];
        let topo = Topology::new(links);
        // TX 1 sits exactly on RX 0; the clamp keeps path loss finite.
        assert_eq!(topo.distance_m(1, 0), 0.1);
        assert!(topo.path_loss_db(1, 0, Hertz::from_ghz(4.0)).is_finite());
    }
}
