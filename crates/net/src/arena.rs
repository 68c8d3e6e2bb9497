//! The shared-waveform arena and its plan-time liveness schedule.
//!
//! `NetWorker`'s one victim sweep, which runs both the planning probe pass
//! and every measurement round, walks victims in **channel-major** order:
//! link ids stably sorted by their assigned channel, then by id. Coupling is strongest between links on the same
//! channel, so consecutive victims share most of their interferers and
//! the records they read stay hot in cache, where an ascending-id sweep
//! would interleave all 14 channels and keep most of a city's records
//! live at once. Each victim needs transmitter `u`'s clean record from the
//! first sweep position that reads it (which may be `u` itself) until the
//! last. [`RecordSchedule`] derives that live range from the coupling rows
//! once, and [`RecordArena`] provides exactly `max_live` interchangeable
//! record buffers: a record is synthesized **once** per (transmitter,
//! round) into an acquired slot, shared read-only by every coupled
//! receiver, and the slot is recycled the moment its last reader has been
//! processed. A slot holds a [`TxRecord`]: the waveform as `re` / `im`
//! planes, the payload snapshot, the synthesis metadata and the mean
//! power; on AWGN every `im` plane stays empty, so a record costs 8 bytes
//! per sample, not 16. No victim writes a slot: the victim decode reads
//! its own record and its sources and writes its own mix buffers. Memory
//! therefore scales with the interference graph's *overlap width* along
//! the sweep, not with the network size — the
//! property that lets a 10 000-node round run in a bounded set of record
//! buffers.
//!
//! The sweep order only decides *when* each victim's sum is computed,
//! never its value: every record is a pure function of its link seed and
//! the round, and every victim mixes its own record, then its coupling row
//! in ascending-transmitter order, then its own noise.
//!
//! A schedule may cover any list of distinct victims, not only the whole
//! network, so a sweep cut into contiguous spans (`RecordSchedule::split`)
//! gives each span a schedule of its own: a record lives in a span's arena
//! from its first reader in that span to its last, and a record read on
//! both sides of a cut is synthesized once by each span that reads it.
//!
//! Everything here is allocation-free once warm: the slot buffers ratchet
//! to their high-water capacity during the first round (the acquisition
//! sequence is identical every round, so each slot sees the same demand),
//! and the free list / residency map are sized at construction.

use crate::coupling::CouplingRow;
use crate::mix::TxRecord;
use uwb_phy::bandplan::Channel;

/// Sentinel residency: the link's record is not in the arena.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel sweep position: no victim of the sweep reads the record.
const UNREAD: u32 = u32::MAX;

/// The channel-major victim sweep: link ids stably sorted by assigned
/// channel index, then by id. The runner derives `channels` from its plan
/// and the planner from its allocation, so both walk the same order.
pub(crate) fn channel_major_order(channels: &[Channel]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..channels.len() as u32).collect();
    order.sort_by_key(|&v| channels[v as usize].index());
    order
}

/// Plan-time liveness of per-transmitter records over a victim sweep: the
/// order victims are processed in, when each record dies, and the maximum
/// number simultaneously alive (= the arena size). The sweep may be any
/// list of distinct victims, such as one span of a longer sweep.
#[derive(Debug, Clone)]
pub struct RecordSchedule {
    /// Link ids in sweep order: position `p` processes victim `order[p]`.
    order: Vec<u32>,
    /// Per sweep position: the transmitters whose records are dead once
    /// that position's victim has been processed (each transmitter
    /// appears exactly once).
    expire_at: Vec<Vec<u32>>,
    /// Maximum simultaneously-live records over the sweep.
    max_live: usize,
}

impl RecordSchedule {
    /// The identity-order (ascending link id) schedule of an `n`-link
    /// network. Transmitter `u`'s record is read by victim `u` (its own
    /// signal) and by every victim whose row contains `u`.
    pub fn build(n: usize, rows: &[CouplingRow]) -> RecordSchedule {
        RecordSchedule::ordered((0..n as u32).collect(), rows)
    }

    /// The channel-major schedule the planner and the runner sweep, where
    /// `channels[v]` is link `v`'s assigned channel.
    pub fn channel_major(channels: &[Channel], rows: &[CouplingRow]) -> RecordSchedule {
        RecordSchedule::ordered(channel_major_order(channels), rows)
    }

    /// The schedule of the sweep that processes victim `order[p]` at
    /// position `p`, where `rows` holds one coupling row per link of the
    /// network: each record a victim reads (its own and its row's) lives
    /// from its first reader's position to its last reader's.
    ///
    /// # Panics
    ///
    /// Panics unless the ids in `order` are distinct links of `rows`.
    pub(crate) fn ordered(order: Vec<u32>, rows: &[CouplingRow]) -> RecordSchedule {
        let n = rows.len();
        let mut swept = vec![false; n];
        let mut first = vec![UNREAD; n];
        let mut last = vec![UNREAD; n];
        for (p, &v) in order.iter().enumerate() {
            let v = v as usize;
            assert!(!swept[v], "sweep order must list distinct links");
            swept[v] = true;
            for u in std::iter::once(v).chain(rows[v].iter().map(|&(u, _)| u)) {
                if first[u] == UNREAD {
                    first[u] = p as u32;
                }
                last[u] = p as u32;
            }
        }
        let mut expire_at: Vec<Vec<u32>> = vec![Vec::new(); order.len()];
        let mut acquires = vec![0usize; order.len()];
        for (u, (&f, &l)) in first.iter().zip(&last).enumerate() {
            if f != UNREAD {
                acquires[f as usize] += 1;
                expire_at[l as usize].push(u as u32);
            }
        }
        let mut live = 0usize;
        let mut max_live = 0usize;
        for (a, e) in acquires.iter().zip(&expire_at) {
            live += a;
            max_live = max_live.max(live);
            live -= e.len();
        }
        RecordSchedule {
            order,
            expire_at,
            max_live,
        }
    }

    /// This sweep cut into `t` contiguous spans of near-equal victim
    /// counts, each with its own schedule over `rows`.
    pub(crate) fn split(&self, rows: &[CouplingRow], t: usize) -> Vec<RecordSchedule> {
        let n = self.order.len();
        (0..t)
            .map(|s| RecordSchedule::ordered(self.order[s * n / t..(s + 1) * n / t].to_vec(), rows))
            .collect()
    }

    /// The records this sweep synthesizes: every record its victims read,
    /// once each.
    pub(crate) fn records(&self) -> usize {
        self.expire_at.iter().map(Vec::len).sum()
    }

    /// The link ids in sweep order.
    pub fn order(&self) -> &[u32] {
        self.order.as_slice()
    }

    /// The arena size this schedule needs.
    pub fn max_live(&self) -> usize {
        self.max_live
    }

    /// The transmitters whose records die once the victim at sweep
    /// position `p` is processed.
    fn expiring_after(&self, p: usize) -> &[u32] {
        &self.expire_at[p]
    }
}

/// `max_live` interchangeable transmission records plus the link → slot
/// residency map. Slot identity is meaningless — buffers only carry a
/// round's record between its synthesis and its last reader.
#[derive(Debug)]
pub struct RecordArena {
    slots: Vec<TxRecord>,
    free: Vec<u32>,
    slot_of: Vec<u32>,
}

impl RecordArena {
    /// An arena of `max_live` slots covering `n_links` links.
    pub fn new(n_links: usize, max_live: usize) -> RecordArena {
        RecordArena {
            slots: (0..max_live).map(|_| TxRecord::default()).collect(),
            free: (0..max_live as u32).rev().collect(),
            slot_of: vec![NO_SLOT; n_links],
        }
    }

    /// `true` when link `u`'s record is currently resident.
    pub fn is_resident(&self, u: usize) -> bool {
        self.slot_of[u] != NO_SLOT
    }

    /// Acquires a slot for link `u`'s record and returns it for the caller
    /// to fill with the synthesized record.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already resident or the schedule's `max_live` bound
    /// is violated (both are plan-construction bugs, not runtime states).
    pub fn acquire(&mut self, u: usize) -> &mut TxRecord {
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
    pub fn record(&self, u: usize) -> &TxRecord {
        let slot = self.slot_of[u];
        assert_ne!(slot, NO_SLOT, "link {u} not resident");
        &self.slots[slot as usize]
    }

    /// Recycles every record whose last reader was the victim at sweep
    /// position `p`.
    pub fn release_expired(&mut self, schedule: &RecordSchedule, p: usize) {
        for &u in schedule.expiring_after(p) {
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
    use proptest::prelude::*;
    use uwb_dsp::Complex;

    #[test]
    fn schedule_bounds_live_records() {
        // 4 links; victim 0 reads tx 2, victim 3 reads tx 1.
        let rows: Vec<CouplingRow> =
            vec![vec![(2, 0.5)], vec![], vec![], vec![(1, 0.25)]];
        let s = RecordSchedule::build(4, &rows);
        // Sweep: v0 acquires {0, 2}, frees 0; v1 acquires 1 (live {1,2}),
        // v2 frees 2 after its own decode; v3 acquires 3, frees 1 and 3.
        assert_eq!(s.max_live(), 2);
        assert_eq!(s.order(), &[0, 1, 2, 3]);
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
            arena.acquire(v).wave.set_from(&[Complex::ONE]);
            assert!(arena.is_resident(v));
            assert_eq!(arena.record(v).wave.re(), &[1.0]);
            assert!(arena.record(v).wave.im().is_none());
            arena.release_expired(&s, v);
            assert!(!arena.is_resident(v));
        }
    }

    #[test]
    fn channel_major_order_is_stable_by_channel() {
        let ch = |i| Channel::new(i).unwrap();
        let channels = [ch(2), ch(0), ch(2), ch(1), ch(0), ch(13), ch(1)];
        assert_eq!(channel_major_order(&channels), vec![1, 4, 3, 6, 0, 2, 5]);
        let rows: Vec<CouplingRow> = vec![Vec::new(); channels.len()];
        let s = RecordSchedule::channel_major(&channels, &rows);
        assert_eq!(s.order(), &[1, 4, 3, 6, 0, 2, 5]);
        assert_eq!(s.max_live(), 1);
    }

    #[test]
    fn liveness_is_over_sweep_positions() {
        // Victim 0 reads tx 1; tx 1's row is empty. Sweeping 1 then 0 keeps
        // both records live at position 1: tx 1's record outlives its own
        // victim because a later victim reads it.
        let rows: Vec<CouplingRow> = vec![vec![(1, 0.5)], vec![]];
        let s = RecordSchedule::ordered(vec![1, 0], &rows);
        assert_eq!(s.order(), &[1, 0]);
        assert!(s.expiring_after(0).is_empty());
        assert_eq!(s.expiring_after(1), &[0, 1]);
        assert_eq!(s.max_live(), 2);
    }

    #[test]
    fn a_partial_sweep_schedules_only_what_it_reads() {
        // Victims 2 and 0 of a 4-link network: victim 2 reads tx 3, victim
        // 0 reads tx 3 and tx 1. Tx 3 lives across both positions; tx 2
        // dies after its own victim, before tx 0 and tx 1 arrive.
        let rows: Vec<CouplingRow> =
            vec![vec![(1, 0.5), (3, 0.5)], vec![], vec![(3, 0.5)], vec![]];
        let s = RecordSchedule::ordered(vec![2, 0], &rows);
        assert_eq!(s.order(), &[2, 0]);
        assert_eq!(s.expiring_after(0), &[2]);
        assert_eq!(s.expiring_after(1), &[0, 1, 3]);
        assert_eq!(s.max_live(), 3);
        assert_eq!(s.records(), 4);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn order_must_list_distinct_links() {
        let rows: Vec<CouplingRow> = vec![vec![], vec![]];
        RecordSchedule::ordered(vec![1, 1], &rows);
    }

    /// `n` random coupling rows (up to 7 distinct foreign transmitters
    /// each) and a random sweep permutation, drawn from `seed`.
    fn rows_and_order(n: usize, seed: u64) -> (Vec<CouplingRow>, Vec<u32>) {
        let mut rng = uwb_sim::Rand::new(seed);
        let rows = (0..n)
            .map(|v| {
                let mut us: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(n)).collect();
                us.sort_unstable();
                us.dedup();
                us.retain(|&u| u != v);
                us.into_iter().map(|u| (u, 0.5)).collect()
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        (rows, order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Driving one arena per span through any cut of any sweep: each
        /// span's arena holds every record its victims read from its first
        /// reader in the span to its last, acquiring it exactly once; a
        /// record is acquired once per span that reads it; no span arena
        /// passes its bound, which its sweep reaches and which is at most
        /// the whole sweep's; each cut costs at most `max_live` extra
        /// acquisitions. With no inner cut, the one span is the whole
        /// sweep.
        #[test]
        fn any_sweep_keeps_readers_resident(
            n in 1usize..48,
            seed in any::<u64>(),
            t in 1usize..6,
        ) {
            let (rows, order) = rows_and_order(n, seed);
            let whole = RecordSchedule::ordered(order.clone(), &rows);
            prop_assert_eq!(whole.order(), order.as_slice());
            let spans = whole.split(&rows, t);
            prop_assert_eq!(spans.len(), t);
            if t == 1 {
                prop_assert_eq!(spans[0].order(), whole.order());
                prop_assert_eq!(&spans[0].expire_at, &whole.expire_at);
                prop_assert_eq!(spans[0].max_live(), whole.max_live());
            }

            // Every reader of each record: its own victim and every row
            // holding it.
            let readers = |v: usize| std::iter::once(v).chain(rows[v].iter().map(|&(u, _)| u));
            let mut swept = 0;
            let mut reading_spans = vec![0u32; n];
            let mut acquired = vec![0u32; n];
            for span in &spans {
                let victims = span.order();
                prop_assert_eq!(victims, &order[swept..swept + victims.len()]);
                swept += victims.len();

                // Brute force: the span's first and last reader of each
                // record.
                let mut first = vec![usize::MAX; n];
                let mut last = vec![0usize; n];
                for (p, &v) in victims.iter().enumerate() {
                    for u in readers(v as usize) {
                        first[u] = first[u].min(p);
                        last[u] = p;
                    }
                }
                let read: Vec<usize> = (0..n).filter(|&u| first[u] != usize::MAX).collect();
                prop_assert_eq!(span.records(), read.len());
                for &u in &read {
                    reading_spans[u] += 1;
                }

                let mut arena = RecordArena::new(n, span.max_live());
                let mut peak = 0usize;
                for (p, &v) in victims.iter().enumerate() {
                    for u in readers(v as usize) {
                        if !arena.is_resident(u) {
                            prop_assert_eq!(first[u], p, "record {} acquired late", u);
                            arena.acquire(u);
                            acquired[u] += 1;
                        }
                    }
                    let live = (0..n).filter(|&u| arena.is_resident(u)).count();
                    peak = peak.max(live);
                    for u in 0..n {
                        let should = first[u] <= p && p <= last[u];
                        prop_assert_eq!(arena.is_resident(u), should, "record {} at {}", u, p);
                    }
                    arena.release_expired(span, p);
                    for u in 0..n {
                        prop_assert_eq!(
                            arena.is_resident(u),
                            first[u] <= p && p < last[u],
                            "record {} after {}", u, p
                        );
                    }
                }
                prop_assert_eq!(peak, span.max_live());
                prop_assert!(span.max_live() <= whole.max_live());
            }
            prop_assert_eq!(swept, n);
            prop_assert_eq!(&acquired, &reading_spans, "one acquisition per reading span");
            prop_assert!((0..n).all(|u| reading_spans[u] >= 1));
            // Each cut re-synthesizes at most the records live across it.
            let total: u32 = acquired.iter().sum();
            prop_assert!(total as usize <= n + (t - 1) * whole.max_live());
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
