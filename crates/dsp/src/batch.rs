//! Flat structure-of-arrays storage for batched trial processing.
//!
//! The batched stage-sweep runtime pushes B Monte-Carlo trials through each
//! DSP stage in lockstep: stage k runs over all B waveforms before stage
//! k+1 starts. [`BatchArena`] is the storage layout that makes the sweep
//! cheap — one flat `Vec<Complex>` holding B back-to-back *lanes* (one per
//! trial), so a stage walks contiguous memory instead of hopping between B
//! separately allocated records, and the whole batch's working set is a
//! single capacity-ratcheting allocation.
//!
//! Lanes are variable-length (packet records differ only when scenario
//! parameters differ, but the layout does not assume otherwise) and are
//! rebuilt every batch: [`BatchArena::clear`] keeps the flat buffer's
//! capacity, so after the first batch warms the arena, appending lanes of
//! the same total size performs **zero heap allocation** — the property the
//! `alloc_regression` gate pins for the warm batched trial.
//!
//! # Example
//!
//! ```
//! use uwb_dsp::batch::BatchArena;
//! use uwb_dsp::Complex;
//!
//! let mut arena = BatchArena::new();
//! for t in 0..4u64 {
//!     let lane = arena.push_lane_with(|buf, base| {
//!         buf.resize(base + 8, Complex::new(t as f64, 0.0));
//!     });
//!     assert_eq!(arena.lane(lane).len(), 8);
//! }
//! assert_eq!(arena.lanes(), 4);
//! arena.clear(); // next batch reuses the same 32-element allocation
//! assert_eq!(arena.lanes(), 0);
//! ```

use crate::complex::Complex;
use std::ops::Range;

/// A flat SoA arena of per-trial complex lanes (see the module docs).
#[derive(Debug, Default)]
pub struct BatchArena {
    buf: Vec<Complex>,
    lanes: Vec<Range<usize>>,
}

impl BatchArena {
    /// An empty arena; storage grows on first use and is retained across
    /// [`BatchArena::clear`].
    pub fn new() -> Self {
        BatchArena::default()
    }

    /// Drops every lane, keeping the flat buffer's capacity for the next
    /// batch (the warm path's zero-allocation contract).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.lanes.clear();
    }

    /// Pre-grows the flat buffer to at least `total` elements of capacity
    /// and the lane table to `lanes` entries, so a cold first batch can
    /// front-load its allocations.
    pub fn reserve(&mut self, lanes: usize, total: usize) {
        if self.buf.capacity() < total {
            self.buf.reserve(total - self.buf.len());
        }
        if self.lanes.capacity() < lanes {
            self.lanes.reserve(lanes - self.lanes.len());
        }
    }

    /// Appends a new lane by handing the builder the flat buffer and the
    /// lane's base offset; everything the builder appends past `base`
    /// becomes the lane. Returns the lane index.
    ///
    /// This inversion lets streaming producers (packet synthesis, channel
    /// application) write *directly* into the arena instead of filling a
    /// private record that would then be copied in.
    pub fn push_lane_with<F>(&mut self, build: F) -> usize
    where
        F: FnOnce(&mut Vec<Complex>, usize),
    {
        let base = self.buf.len();
        build(&mut self.buf, base);
        debug_assert!(self.buf.len() >= base, "lane builder shrank the arena");
        self.lanes.push(base..self.buf.len());
        self.lanes.len() - 1
    }

    /// Number of lanes currently in the arena.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `i` as a shared slice.
    pub fn lane(&self, i: usize) -> &[Complex] {
        &self.buf[self.lanes[i].clone()]
    }

    /// Lane `i` as a mutable slice.
    pub fn lane_mut(&mut self, i: usize) -> &mut [Complex] {
        &mut self.buf[self.lanes[i].clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_zeroed(a: &mut BatchArena, len: usize) -> usize {
        a.push_lane_with(|buf, base| buf.resize(base + len, Complex::ZERO))
    }

    #[test]
    fn lanes_are_contiguous_and_indexable() {
        let mut a = BatchArena::new();
        let l0 = a.push_lane_with(|buf, base| {
            assert_eq!(base, 0);
            buf.extend_from_slice(&[Complex::ONE; 3]);
        });
        let l1 = push_zeroed(&mut a, 5);
        let l2 = a.push_lane_with(|buf, _| buf.extend_from_slice(&[Complex::new(2.0, -1.0); 2]));
        assert_eq!((l0, l1, l2), (0, 1, 2));
        assert_eq!(a.lanes(), 3);
        assert_eq!(a.buf.len(), 10);
        assert_eq!(a.lane(0), &[Complex::ONE; 3]);
        assert!(a.lane(1).iter().all(|&z| z == Complex::ZERO));
        assert_eq!(a.lane(2)[1], Complex::new(2.0, -1.0));
        a.lane_mut(1)[4] = Complex::ONE;
        assert_eq!(a.lane(1)[4], Complex::ONE);
        // Lane 0 untouched by writes to lane 1.
        assert_eq!(a.lane(0), &[Complex::ONE; 3]);
    }

    #[test]
    fn clear_retains_capacity_for_zero_alloc_reuse() {
        let mut a = BatchArena::new();
        for _ in 0..4 {
            push_zeroed(&mut a, 100);
        }
        let cap = 400;
        let ptr = a.lane(0).as_ptr();
        a.clear();
        assert_eq!(a.lanes(), 0);
        assert_eq!(a.buf.len(), 0);
        // Refill to the same total: same storage, no reallocation.
        for _ in 0..4 {
            push_zeroed(&mut a, 100);
        }
        assert_eq!(a.lane(0).as_ptr(), ptr);
        assert_eq!(a.buf.len(), cap);
    }

    #[test]
    fn reserve_front_loads_capacity() {
        let mut a = BatchArena::new();
        a.reserve(8, 1000);
        let ptr = {
            let l = push_zeroed(&mut a, 125);
            a.lane(l).as_ptr()
        };
        for _ in 1..8 {
            push_zeroed(&mut a, 125);
        }
        // No reallocation happened while filling within the reservation.
        assert_eq!(a.lane(0).as_ptr(), ptr);
    }
}
