//! The shared-waveform arena and its plan-time liveness schedule.
//!
//! Both the planning probe sweep and every measurement round walk victims
//! in ascending order, and each needs transmitter `u`'s clean record from
//! the first victim that reads it (which may be `u` itself) until the last.
//! [`RecordSchedule`] derives that live range from the coupling rows once,
//! and [`RecordArena`] provides exactly `max_live` interchangeable record
//! buffers: a record is synthesized **once** per (transmitter, round) into
//! an acquired slot, shared read-only by every coupled receiver, and the
//! slot is recycled the moment its last reader has been processed. Memory
//! therefore scales with the interference graph's *overlap width*, not with
//! the network size — the property that lets a 10 000-node round run in a
//! few dozen record buffers.
//!
//! Everything here is allocation-free once warm: the slot buffers ratchet
//! to their high-water capacity during the first round (the acquisition
//! sequence is identical every round, so each slot sees the same demand),
//! and the free list / residency map are sized at construction.

use crate::coupling::CouplingRow;
use uwb_dsp::Complex;

/// Sentinel residency: the link's record is not in the arena.
const NO_SLOT: u32 = u32::MAX;

/// Plan-time liveness of per-transmitter records over the ascending-victim
/// sweep: when each record is first needed, when it dies, and the maximum
/// number simultaneously alive (= the arena size).
#[derive(Debug, Clone)]
pub struct RecordSchedule {
    /// Per victim `v`: the transmitters whose records are dead once `v`
    /// has been processed (each transmitter appears exactly once).
    expire_at: Vec<Vec<u32>>,
    /// Per transmitter: the last victim index that reads its record.
    last_use: Vec<u32>,
    /// Maximum simultaneously-live records over the sweep.
    max_live: usize,
}

impl RecordSchedule {
    /// Derives the schedule from the coupling rows of an `n`-link network.
    /// Transmitter `u`'s record is read by victim `u` (its own signal) and
    /// by every victim whose row contains `u`.
    pub fn build(n: usize, rows: &[CouplingRow]) -> RecordSchedule {
        assert_eq!(rows.len(), n, "one coupling row per link");
        let mut first: Vec<u32> = (0..n as u32).collect();
        let mut last: Vec<u32> = (0..n as u32).collect();
        for (v, row) in rows.iter().enumerate() {
            for &(u, _) in row {
                first[u] = first[u].min(v as u32);
                last[u] = last[u].max(v as u32);
            }
        }
        let mut expire_at: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, &l) in last.iter().enumerate() {
            expire_at[l as usize].push(u as u32);
        }
        let mut acquires = vec![0u32; n];
        for &f in &first {
            acquires[f as usize] += 1;
        }
        let mut live = 0usize;
        let mut max_live = 0usize;
        for v in 0..n {
            live += acquires[v] as usize;
            max_live = max_live.max(live);
            live -= expire_at[v].len();
        }
        debug_assert_eq!(live, 0, "every record must die by the end of the sweep");
        RecordSchedule {
            expire_at,
            last_use: last,
            max_live,
        }
    }

    /// The arena size this schedule needs.
    pub fn max_live(&self) -> usize {
        self.max_live
    }

    /// The last victim index that reads transmitter `u`'s record. A link
    /// whose record has no reader beyond itself (`last_use(u) == u` with an
    /// empty row) is *isolated* — the event-driven round applies its noise
    /// in place instead of copying into a mix buffer.
    pub fn last_use(&self, u: usize) -> usize {
        self.last_use[u] as usize
    }

    /// The transmitters whose records die once victim `v` is processed.
    fn expiring_after(&self, v: usize) -> &[u32] {
        &self.expire_at[v]
    }
}

/// `max_live` interchangeable waveform buffers plus the link → slot
/// residency map. Slot identity is meaningless — buffers only carry a
/// round's record between its synthesis and its last reader.
#[derive(Debug)]
pub struct RecordArena {
    slots: Vec<Vec<Complex>>,
    free: Vec<u32>,
    slot_of: Vec<u32>,
}

impl RecordArena {
    /// An arena of `max_live` slots covering `n_links` links.
    pub fn new(n_links: usize, max_live: usize) -> RecordArena {
        RecordArena {
            slots: (0..max_live).map(|_| Vec::new()).collect(),
            free: (0..max_live as u32).rev().collect(),
            slot_of: vec![NO_SLOT; n_links],
        }
    }

    /// `true` when link `u`'s record is currently resident.
    pub fn is_resident(&self, u: usize) -> bool {
        self.slot_of[u] != NO_SLOT
    }

    /// Acquires a slot for link `u`'s record and returns its buffer for the
    /// synthesis call to fill.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already resident or the schedule's `max_live` bound
    /// is violated (both are plan-construction bugs, not runtime states).
    pub fn acquire(&mut self, u: usize) -> &mut Vec<Complex> {
        assert_eq!(self.slot_of[u], NO_SLOT, "link {u} already resident");
        let slot = self
            .free
            .pop()
            .expect("record arena exhausted: schedule bound violated");
        self.slot_of[u] = slot;
        &mut self.slots[slot as usize]
    }

    /// Read-only view of link `u`'s resident record.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not resident.
    pub fn record(&self, u: usize) -> &[Complex] {
        let slot = self.slot_of[u];
        assert_ne!(slot, NO_SLOT, "link {u} not resident");
        &self.slots[slot as usize]
    }

    /// Mutable view of link `u`'s resident record — the isolated-victim
    /// fast path applies receiver noise directly in the slot instead of
    /// copying into a mix buffer (valid only when no later victim reads
    /// the record).
    pub fn record_mut(&mut self, u: usize) -> &mut [Complex] {
        let slot = self.slot_of[u];
        assert_ne!(slot, NO_SLOT, "link {u} not resident");
        &mut self.slots[slot as usize]
    }

    /// Recycles every record whose last reader was victim `v`.
    pub fn release_expired(&mut self, schedule: &RecordSchedule, v: usize) {
        for &u in schedule.expiring_after(v) {
            let slot = self.slot_of[u as usize];
            debug_assert_ne!(slot, NO_SLOT, "expiring a non-resident record");
            self.slot_of[u as usize] = NO_SLOT;
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_bounds_live_records() {
        // 4 links; victim 0 reads tx 2, victim 3 reads tx 1.
        let rows: Vec<CouplingRow> =
            vec![vec![(2, 0.5)], vec![], vec![], vec![(1, 0.25)]];
        let s = RecordSchedule::build(4, &rows);
        // Sweep: v0 acquires {0, 2}, frees 0; v1 acquires 1 (live {1,2}),
        // v2 frees 2 after its own decode; v3 acquires 3, frees 1 and 3.
        assert_eq!(s.max_live(), 2);
        assert_eq!(s.last_use(0), 0);
        assert_eq!(s.last_use(1), 3);
        assert_eq!(s.last_use(2), 2);
        assert_eq!(s.expiring_after(0), &[0]);
        assert_eq!(s.expiring_after(2), &[2]);
        assert_eq!(s.expiring_after(3), &[1, 3]);
    }

    #[test]
    fn dense_rows_keep_everything_live() {
        let rows: Vec<CouplingRow> = (0..3)
            .map(|v| (0..3).filter(|&u| u != v).map(|u| (u, 1.0)).collect())
            .collect();
        let s = RecordSchedule::build(3, &rows);
        assert_eq!(s.max_live(), 3);
        assert!(s.expiring_after(0).is_empty());
        assert!(s.expiring_after(1).is_empty());
        assert_eq!(s.expiring_after(2), &[0, 1, 2]);
    }

    #[test]
    fn arena_recycles_slots() {
        let rows: Vec<CouplingRow> = vec![vec![], vec![], vec![]];
        let s = RecordSchedule::build(3, &rows);
        assert_eq!(s.max_live(), 1);
        let mut arena = RecordArena::new(3, s.max_live());
        for v in 0..3 {
            assert!(!arena.is_resident(v));
            let buf = arena.acquire(v);
            buf.clear();
            buf.push(Complex::ONE);
            assert!(arena.is_resident(v));
            assert_eq!(arena.record(v).len(), 1);
            arena.record_mut(v)[0] = Complex::ZERO;
            arena.release_expired(&s, v);
            assert!(!arena.is_resident(v));
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn arena_panics_past_its_bound() {
        let mut arena = RecordArena::new(2, 1);
        arena.acquire(0);
        arena.acquire(1);
    }
}
