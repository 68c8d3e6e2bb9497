//! The shared-waveform arena and its plan-time liveness schedule.
//!
//! Both the planning probe sweep and every measurement round walk victims
//! in **channel-major** order: link ids stably sorted by their assigned
//! channel, then by id. Coupling is strongest between links on the same
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
//! processed. A slot holds its record as `re` / `im` planes
//! ([`WaveRecord`]); on AWGN every `im` plane stays empty, so a record
//! costs 8 bytes per sample, not 16. No victim writes a slot: the victim
//! decode reads its own record and its sources and writes its own mix
//! buffers. Memory therefore scales with the interference graph's
//! *overlap width* along the sweep, not with the network size — the
//! property that lets a 10 000-node round run in a bounded set of record
//! buffers.
//!
//! The sweep order only decides *when* each victim's sum is computed,
//! never its value: every record is a pure function of its link seed and
//! the round, and every victim mixes its own record, then its coupling row
//! in ascending-transmitter order, then its own noise.
//!
//! Everything here is allocation-free once warm: the slot buffers ratchet
//! to their high-water capacity during the first round (the acquisition
//! sequence is identical every round, so each slot sees the same demand),
//! and the free list / residency map are sized at construction.

use crate::coupling::CouplingRow;
use crate::mix::WaveRecord;
use uwb_phy::bandplan::Channel;

/// Sentinel residency: the link's record is not in the arena.
const NO_SLOT: u32 = u32::MAX;

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
/// number simultaneously alive (= the arena size). A span of a
/// `SpanSchedule` is one too, over its slice of the sweep and the
/// records only it reads.
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
    /// position `p`; first and last use are sweep positions.
    ///
    /// # Panics
    ///
    /// Panics unless there is one row per link and `order` is a
    /// permutation of the link ids.
    pub(crate) fn ordered(order: Vec<u32>, rows: &[CouplingRow]) -> RecordSchedule {
        let n = order.len();
        let mut one = SpanSchedule::cut(&order, rows, &[0, n]);
        one.spans.pop().expect("one span")
    }

    /// This sweep cut into `t` contiguous spans of near-equal victim
    /// counts.
    pub(crate) fn split(&self, rows: &[CouplingRow], t: usize) -> SpanSchedule {
        let n = self.order.len();
        let cuts: Vec<usize> = (0..=t).map(|s| s * n / t).collect();
        SpanSchedule::cut(&self.order, rows, &cuts)
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

/// A sweep cut into contiguous spans that can run concurrently. A record
/// whose first and last reader fall in different spans — exactly the
/// records live across some cut — is *shared*: it is synthesized once,
/// before any span starts, and read in place by every span. Each span's
/// [`RecordSchedule`] covers only the victims in its span (its `order` is
/// that slice of the sweep) and only the records no other span reads, so
/// every record is synthesized exactly once for any cut.
#[derive(Debug, Clone)]
pub(crate) struct SpanSchedule {
    /// The spans' schedules, in sweep order.
    pub(crate) spans: Vec<RecordSchedule>,
    /// The shared records' link ids, ascending.
    pub(crate) shared: Vec<u32>,
}

impl SpanSchedule {
    /// The sweep that processes victim `order[p]` at position `p`, cut at
    /// the ascending positions `cuts` (first `0`, last `order.len()`): span
    /// `s` runs positions `cuts[s]..cuts[s + 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one row per link and `order` is a
    /// permutation of the link ids.
    fn cut(order: &[u32], rows: &[CouplingRow], cuts: &[usize]) -> SpanSchedule {
        let n = order.len();
        assert_eq!(rows.len(), n, "one coupling row per link");
        let mut pos = vec![u32::MAX; n];
        for (p, &v) in order.iter().enumerate() {
            assert_eq!(
                pos[v as usize],
                u32::MAX,
                "sweep order must be a permutation"
            );
            pos[v as usize] = p as u32;
        }
        let mut first = pos.clone();
        let mut last = pos.clone();
        for (row, &p) in rows.iter().zip(&pos) {
            for &(u, _) in row {
                first[u] = first[u].min(p);
                last[u] = last[u].max(p);
            }
        }
        // Span of sweep position `p`: the number of inner cuts at or
        // before it.
        let inner = &cuts[1..cuts.len() - 1];
        let span_of = |p: u32| inner.partition_point(|&c| c <= p as usize);
        let mut shared = Vec::new();
        let mut expire_at: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut acquires = vec![0u32; n];
        for (u, (&f, &l)) in first.iter().zip(&last).enumerate() {
            if span_of(f) == span_of(l) {
                acquires[f as usize] += 1;
                expire_at[l as usize].push(u as u32);
            } else {
                shared.push(u as u32);
            }
        }
        let mut expiring = expire_at.into_iter();
        let spans = cuts
            .windows(2)
            .map(|w| {
                let expire_at: Vec<Vec<u32>> = expiring.by_ref().take(w[1] - w[0]).collect();
                let mut live = 0usize;
                let mut max_live = 0usize;
                for (a, e) in acquires[w[0]..w[1]].iter().zip(&expire_at) {
                    live += *a as usize;
                    max_live = max_live.max(live);
                    live -= e.len();
                }
                debug_assert_eq!(live, 0, "every span record must die in its span");
                RecordSchedule {
                    order: order[w[0]..w[1]].to_vec(),
                    expire_at,
                    max_live,
                }
            })
            .collect();
        SpanSchedule { spans, shared }
    }
}

/// `max_live` interchangeable plane records plus the link → slot
/// residency map. Slot identity is meaningless — buffers only carry a
/// round's record between its synthesis and its last reader.
#[derive(Debug)]
pub struct RecordArena {
    slots: Vec<WaveRecord>,
    free: Vec<u32>,
    slot_of: Vec<u32>,
}

impl RecordArena {
    /// An arena of `max_live` slots covering `n_links` links.
    pub fn new(n_links: usize, max_live: usize) -> RecordArena {
        RecordArena {
            slots: (0..max_live).map(|_| WaveRecord::default()).collect(),
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
    pub fn acquire(&mut self, u: usize) -> &mut WaveRecord {
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
    pub fn record(&self, u: usize) -> &WaveRecord {
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
            arena.acquire(v).set_from(&[Complex::ONE]);
            assert!(arena.is_resident(v));
            assert_eq!(arena.record(v).re(), &[1.0]);
            assert!(arena.record(v).im().is_none());
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
    #[should_panic(expected = "permutation")]
    fn order_must_be_a_permutation() {
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

        /// Driving one arena per span through any cut of any sweep: the
        /// shared set is exactly the records live across a cut (at most
        /// `max_live` per cut); every other record a span reads is
        /// resident in that span's arena from its first reader to its last
        /// (acquired and released exactly once, by one span); and no span
        /// arena passes its bound, which its sweep reaches. With no inner
        /// cut, the one span is the whole sweep.
        #[test]
        fn any_sweep_keeps_readers_resident(
            n in 1usize..48,
            seed in any::<u64>(),
            inner in 0usize..5,
        ) {
            let (rows, order) = rows_and_order(n, seed);
            let whole = RecordSchedule::ordered(order.clone(), &rows);
            prop_assert_eq!(whole.order(), order.as_slice());
            let mut rng = uwb_sim::Rand::new(!seed);
            let mut cuts: Vec<usize> = (0..inner).map(|_| rng.below(n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let split = SpanSchedule::cut(&order, &rows, &cuts);
            prop_assert_eq!(split.spans.len(), cuts.len() - 1);

            // Every reader of each record: its own victim and every row
            // holding it.
            let readers = |v: usize| std::iter::once(v).chain(rows[v].iter().map(|&(u, _)| u));
            let mut first = vec![usize::MAX; n];
            let mut last = vec![0usize; n];
            for (p, &v) in order.iter().enumerate() {
                for u in readers(v as usize) {
                    first[u] = first[u].min(p);
                    last[u] = last[u].max(p);
                }
            }
            let across = |u: usize, c: usize| first[u] < c && c <= last[u];
            let inner_cuts = &cuts[1..cuts.len() - 1];
            let shared: Vec<u32> = (0..n as u32)
                .filter(|&u| inner_cuts.iter().any(|&c| across(u as usize, c)))
                .collect();
            prop_assert_eq!(&split.shared, &shared);
            for &c in inner_cuts {
                prop_assert!((0..n).filter(|&u| across(u, c)).count() <= whole.max_live());
            }

            let is_shared = |u: usize| shared.binary_search(&(u as u32)).is_ok();
            let mut acquired = vec![0u32; n];
            let mut released = vec![0u32; n];
            for (span, w) in split.spans.iter().zip(cuts.windows(2)) {
                prop_assert_eq!(span.order(), &order[w[0]..w[1]]);
                let mut arena = RecordArena::new(n, span.max_live());
                let mut live = 0usize;
                let mut peak = 0usize;
                for (p, &v) in span.order().iter().enumerate() {
                    for u in readers(v as usize) {
                        if is_shared(u) {
                            prop_assert!(!arena.is_resident(u));
                        } else if !arena.is_resident(u) {
                            arena.acquire(u);
                            acquired[u] += 1;
                            live += 1;
                        }
                    }
                    peak = peak.max(live);
                    for &u in span.expiring_after(p) {
                        released[u as usize] += 1;
                        live -= 1;
                    }
                    arena.release_expired(span, p);
                }
                prop_assert_eq!(peak, span.max_live());
                prop_assert!((0..n).all(|u| !arena.is_resident(u)));
            }
            for u in 0..n {
                let once = u32::from(!is_shared(u));
                prop_assert_eq!(acquired[u], once, "record {} synthesized {} times", u, acquired[u]);
                prop_assert_eq!(released[u], once);
            }
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
