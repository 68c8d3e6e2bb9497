//! Worst-trial flight recorder: a bounded deterministic ring keeping the K
//! worst Monte-Carlo trials with full forensic snapshots.
//!
//! Each trial is scored by the pure key `(bit_errors desc, acq_metric asc,
//! trial asc)` — no wall-clock anywhere — so the per-thread worst-K lists
//! merge (via [`crate::Telemetry`]) into a report that is **byte-identical
//! for any `UWB_THREADS`**. A snapshot carries the trial's derived RNG seed
//! (so `smoke --replay-seed <seed>` can re-run exactly that trial), named
//! forensic notes written during the trial (SNR, AGC gain, acquisition
//! offset/metric, CRC/header outcome — see [`crate::note!`]), and a
//! breadcrumb ring of the most recent [`crate::event!`] occurrences.
//!
//! Everything lives in fixed-capacity per-thread storage ([`WORST_K`],
//! `NOTE_SLOTS`, `CRUMB_SLOTS`, [`INFLIGHT_SLOTS`]): recording a note,
//! a breadcrumb, or an observation never allocates. With the `obs` feature
//! off every function here is a no-op.
//!
//! Up to [`INFLIGHT_SLOTS`] trials may be armed concurrently on one thread:
//! the batched stage-sweep runtime arms a whole sub-batch, sweeps each DSP
//! stage across it (re-tagging [`crate::set_trial`] per trial), and
//! observes each trial at the end. Writes attribute to the armed slot whose
//! trial matches the thread's current trial tag, falling back to the only
//! armed slot when exactly one is armed (the legacy single-trial contract).

/// How many worst trials each report keeps.
pub const WORST_K: usize = 8;
/// Forensic note slots per trial (distinct note names; latest value wins).
const NOTE_SLOTS: usize = 12;
/// Breadcrumb slots per trial (most recent events win).
const CRUMB_SLOTS: usize = 10;
/// In-flight trial slots per thread. The batched stage-sweep runtime arms
/// one slot per trial in the sub-batch before sweeping stages across them,
/// so this bounds the engine's batch width (`resolve_batch` clamps to it).
/// Arming more concurrent trials evicts the oldest-armed slot, mirroring
/// the legacy single-slot recorder's overwrite-on-rearm behaviour.
pub const INFLIGHT_SLOTS: usize = 16;

/// Forensic snapshot of one Monte-Carlo trial, captured by the flight
/// recorder. All fields are trial-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialForensics {
    /// Monte-Carlo trial (or network round) index.
    pub trial: u64,
    /// The trial's derived RNG seed (`derive_trial_seed(master, trial)`);
    /// feed it to `smoke --replay-seed` to re-run exactly this trial.
    pub seed: u64,
    /// Bit errors the trial produced (the primary badness key).
    pub bit_errors: u64,
    /// `f64::to_bits` of the acquisition metric (0 when the run's path does
    /// not acquire). For the positive metrics produced by the correlator,
    /// bit order equals numeric order, so *lower* is worse.
    pub acq_metric_bits: u64,
    /// Total events seen during the trial (the breadcrumb ring keeps only
    /// the last `CRUMB_SLOTS` of them).
    pub events_seen: u32,
    n_notes: u8,
    n_crumbs: u8,
    crumb_head: u8,
    notes: [(u16, u64); NOTE_SLOTS],
    crumbs: [(u16, u64); CRUMB_SLOTS],
}

impl TrialForensics {
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    const EMPTY: TrialForensics = TrialForensics {
        trial: 0,
        seed: 0,
        bit_errors: 0,
        acq_metric_bits: 0,
        events_seen: 0,
        n_notes: 0,
        n_crumbs: 0,
        crumb_head: 0,
        notes: [(0, 0); NOTE_SLOTS],
        crumbs: [(0, 0); CRUMB_SLOTS],
    };

    /// Worst-first sort key: most bit errors, then weakest acquisition
    /// metric, then lowest trial index. Pure — no wall-clock — so ordering
    /// is thread-count invariant.
    pub fn sort_key(&self) -> (std::cmp::Reverse<u64>, u64, u64) {
        (
            std::cmp::Reverse(self.bit_errors),
            self.acq_metric_bits,
            self.trial,
        )
    }

    /// The trial's forensic notes as `(name, value)` rows in recording
    /// order. Values are raw `u64` payloads; signed quantities (e.g.
    /// milli-dB) are stored two's-complement and should be read back via
    /// `as i64`.
    pub fn notes(&self) -> Vec<(&'static str, u64)> {
        let names = crate::registry::note_names();
        self.notes[..self.n_notes as usize]
            .iter()
            .map(|&(id, v)| (names.get(id as usize).copied().unwrap_or("?"), v))
            .collect()
    }

    /// The trial's most recent event breadcrumbs as `(name, value)` rows in
    /// chronological order (oldest kept first).
    fn crumbs(&self) -> Vec<(&'static str, u64)> {
        let names = crate::registry::event_names();
        let n = self.n_crumbs as usize;
        (0..n)
            .map(|i| {
                // When the ring wrapped, `crumb_head` is the oldest slot.
                let idx = if n < CRUMB_SLOTS {
                    i
                } else {
                    (self.crumb_head as usize + i) % CRUMB_SLOTS
                };
                let (id, v) = self.crumbs[idx];
                (names.get(id as usize).copied().unwrap_or("?"), v)
            })
            .collect()
    }
}

#[cfg(feature = "obs")]
mod imp {
    use super::{TrialForensics, CRUMB_SLOTS, INFLIGHT_SLOTS, NOTE_SLOTS, WORST_K};
    use crate::registry::NoteId;
    use std::cell::RefCell;

    struct RecState {
        /// Fixed pool of in-flight trial snapshots. The batched stage-sweep
        /// runtime keeps a whole sub-batch armed at once; the unbatched
        /// engine uses exactly one slot at a time.
        inflight: [TrialForensics; INFLIGHT_SLOTS],
        armed: [bool; INFLIGHT_SLOTS],
        /// Arm-order stamps; the oldest-armed slot is evicted when a
        /// `begin_trial` finds no free slot (legacy overwrite semantics).
        armed_at: [u64; INFLIGHT_SLOTS],
        next_arm: u64,
        worst: [TrialForensics; WORST_K],
        n_worst: usize,
    }

    impl RecState {
        /// The slot an in-flight write lands in: the armed slot whose trial
        /// matches the thread's current trial tag ([`crate::set_trial`]);
        /// otherwise — preserving the single-trial behaviour of standalone
        /// harnesses that arm without tagging — the only armed slot, if
        /// exactly one is armed; otherwise none (the write is dropped, as
        /// it cannot be attributed deterministically).
        fn attribute(&self) -> Option<usize> {
            let tag = crate::current_trial();
            let mut only = None;
            let mut n_armed = 0usize;
            for i in 0..INFLIGHT_SLOTS {
                if self.armed[i] {
                    if self.inflight[i].trial == tag {
                        return Some(i);
                    }
                    n_armed += 1;
                    only = Some(i);
                }
            }
            if n_armed == 1 {
                only
            } else {
                None
            }
        }
    }

    thread_local! {
        static REC: RefCell<RecState> = const {
            RefCell::new(RecState {
                inflight: [TrialForensics::EMPTY; INFLIGHT_SLOTS],
                armed: [false; INFLIGHT_SLOTS],
                armed_at: [0; INFLIGHT_SLOTS],
                next_arm: 0,
                worst: [TrialForensics::EMPTY; WORST_K],
                n_worst: 0,
            })
        };
    }

    /// Arms a recorder slot for a new trial: resets its in-flight snapshot.
    /// Called by the Monte-Carlo engine next to `set_trial`. Re-arming a
    /// trial that is already in flight resets that slot; with every slot
    /// armed, the oldest-armed one is evicted.
    #[inline]
    pub fn begin_trial(trial: u64, seed: u64) {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let mut slot = None;
            for i in 0..INFLIGHT_SLOTS {
                if r.armed[i] && r.inflight[i].trial == trial {
                    slot = Some(i);
                    break;
                }
            }
            if slot.is_none() {
                slot = (0..INFLIGHT_SLOTS).find(|&i| !r.armed[i]);
            }
            let i = slot.unwrap_or_else(|| {
                (0..INFLIGHT_SLOTS)
                    .min_by_key(|&i| r.armed_at[i])
                    .expect("INFLIGHT_SLOTS > 0")
            });
            r.inflight[i] = TrialForensics::EMPTY;
            r.inflight[i].trial = trial;
            r.inflight[i].seed = seed;
            r.armed[i] = true;
            r.armed_at[i] = r.next_arm;
            r.next_arm += 1;
        });
    }

    /// Writes a forensic note onto the attributed in-flight trial (latest
    /// value wins per name; silently dropped when no trial is attributable
    /// or the note slots are full). Called by [`crate::note!`]; not public
    /// API.
    #[doc(hidden)]
    #[inline]
    pub fn record_note(id: NoteId, value: u64) {
        if id == NoteId::NONE {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(i) = r.attribute() else {
                return;
            };
            let c = &mut r.inflight[i];
            let n = c.n_notes as usize;
            if let Some(slot) = c.notes[..n].iter_mut().find(|(i, _)| *i == id.0) {
                slot.1 = value;
            } else if n < NOTE_SLOTS {
                c.notes[n] = (id.0, value);
                c.n_notes += 1;
            }
        });
    }

    /// Appends an event breadcrumb to the attributed in-flight trial's ring
    /// (called from `record_event`).
    #[inline]
    pub(crate) fn crumb(event: u16, value: u64) {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(i) = r.attribute() else {
                return;
            };
            let c = &mut r.inflight[i];
            c.events_seen = c.events_seen.saturating_add(1);
            if (c.n_crumbs as usize) < CRUMB_SLOTS {
                c.crumbs[c.n_crumbs as usize] = (event, value);
                c.n_crumbs += 1;
            } else {
                // Overwrite the oldest slot; head advances.
                c.crumbs[c.crumb_head as usize] = (event, value);
                c.crumb_head = (c.crumb_head + 1) % CRUMB_SLOTS as u8;
            }
        });
    }

    /// Finalizes the attributed in-flight trial with its outcome and inserts
    /// it into this thread's worst-K list if it ranks. Disarms that slot
    /// until the next `begin_trial`.
    ///
    /// Because [`TrialForensics::sort_key`] is a strict total order (trial
    /// index breaks every tie), the worst-K list is identical no matter the
    /// order in which a batch's trials are observed.
    #[inline]
    pub fn observe(bit_errors: u64, acq_metric_bits: u64) {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(i) = r.attribute() else {
                return;
            };
            r.armed[i] = false;
            r.inflight[i].bit_errors = bit_errors;
            r.inflight[i].acq_metric_bits = acq_metric_bits;
            let cand = r.inflight[i];
            let key = cand.sort_key();
            let n = r.n_worst;
            // Insertion sort into the fixed worst-first array.
            let pos = r.worst[..n]
                .iter()
                .position(|w| key < w.sort_key())
                .unwrap_or(n);
            if pos >= WORST_K {
                return;
            }
            let end = (n + 1).min(WORST_K);
            r.worst.copy_within(pos..end - 1, pos + 1);
            r.worst[pos] = cand;
            r.n_worst = end;
        });
    }

    /// Drains this thread's worst-K list (take semantics), worst first.
    /// Also disarms any leftover in-flight slots, so abandoned trials from
    /// one run can never be attributed writes from a later one.
    pub(crate) fn drain() -> Vec<TrialForensics> {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let out = r.worst[..r.n_worst].to_vec();
            r.n_worst = 0;
            r.armed = [false; INFLIGHT_SLOTS];
            out
        })
    }
}

#[cfg(feature = "obs")]
pub use imp::{begin_trial, observe, record_note};

#[cfg(feature = "obs")]
pub(crate) use imp::{crumb, drain};

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn begin_trial(_trial: u64, _seed: u64) {}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn observe(_bit_errors: u64, _acq_metric_bits: u64) {}

/// No-op (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[doc(hidden)]
#[inline(always)]
pub fn record_note(_id: crate::registry::NoteId, _value: u64) {}

/// Empty drain (`obs` feature off; kept for cfg symmetry).
#[cfg(not(feature = "obs"))]
#[inline(always)]
#[allow(dead_code)]
pub(crate) fn drain() -> Vec<TrialForensics> {
    Vec::new()
}

/// Renders the worst-K report as a fixed-width text table. Contains no
/// wall-clock fields, so for a deterministic run the rendered report is
/// **byte-identical across thread counts**.
pub fn render_report(worst: &[TrialForensics]) -> String {
    if worst.is_empty() {
        return String::from("flight recorder: no observed trials\n");
    }
    let mut s = format!(
        "flight recorder: {} worst trial(s) by (bit_errors, acq_metric, trial)\n",
        worst.len()
    );
    s.push_str(&format!(
        "{:<8} {:<18} {:>10} {:>12}  notes / breadcrumbs\n",
        "trial", "seed", "bit_errs", "acq_metric"
    ));
    for f in worst {
        let acq = f64::from_bits(f.acq_metric_bits);
        let acq_str = if f.acq_metric_bits == 0 {
            String::from("-")
        } else {
            format!("{acq:.4}")
        };
        s.push_str(&format!(
            "{:<8} {:<#18x} {:>10} {:>12}  ",
            f.trial, f.seed, f.bit_errors, acq_str
        ));
        let notes = f.notes();
        for (i, (name, v)) in notes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{name}={}", *v as i64));
        }
        let crumbs = f.crumbs();
        if !crumbs.is_empty() {
            if !notes.is_empty() {
                s.push_str("; ");
            }
            s.push_str(&format!("events[{}]: ", f.events_seen));
            for (i, (name, v)) in crumbs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                if *v == 0 {
                    s.push_str(name);
                } else {
                    s.push_str(&format!("{name}({v})"));
                }
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_k_keeps_the_k_worst_in_pure_key_order() {
        let _ = crate::take_thread_telemetry(); // clear residue
        for trial in 0..20u64 {
            begin_trial(trial, 0x1000 + trial);
            // Badness profile: trial t produces (t * 7) % 13 errors.
            observe((trial * 7) % 13, 0);
        }
        let snap = crate::take_thread_telemetry();
        if !crate::enabled() {
            assert!(snap.worst.is_empty());
            return;
        }
        assert_eq!(snap.worst.len(), WORST_K);
        // Worst first, keys strictly descending-badness (ties by trial).
        for w in snap.worst.windows(2) {
            assert!(w[0].sort_key() <= w[1].sort_key());
        }
        assert_eq!(snap.worst[0].bit_errors, 12);
        // Seeds ride along for replay.
        assert_eq!(snap.worst[0].seed, 0x1000 + snap.worst[0].trial);
        // Second drain is empty.
        assert!(crate::take_thread_telemetry().worst.is_empty());
    }

    #[test]
    fn notes_and_crumbs_are_captured_and_bounded() {
        let _ = crate::take_thread_telemetry();
        begin_trial(7, 0xABCD);
        crate::note!("rec_test_snr_mdb", (-3500i64) as u64);
        crate::note!("rec_test_gain", 12u64);
        crate::note!("rec_test_gain", 15u64); // latest wins
        for i in 0..(CRUMB_SLOTS as u64 + 4) {
            crate::event!("rec_test_evt", i);
        }
        observe(42, 1.5f64.to_bits());
        let snap = crate::take_thread_telemetry();
        if !crate::enabled() {
            assert!(snap.worst.is_empty());
            return;
        }
        let f = &snap.worst[0];
        assert_eq!(f.trial, 7);
        assert_eq!(f.bit_errors, 42);
        let notes = f.notes();
        assert!(notes.contains(&("rec_test_snr_mdb", (-3500i64) as u64)));
        assert!(notes.contains(&("rec_test_gain", 15)));
        // The crumb ring keeps the most recent CRUMB_SLOTS events.
        let crumbs = f.crumbs();
        assert_eq!(crumbs.len(), CRUMB_SLOTS);
        assert_eq!(f.events_seen as usize, CRUMB_SLOTS + 4);
        assert_eq!(crumbs[0], ("rec_test_evt", 4));
        assert_eq!(crumbs[CRUMB_SLOTS - 1], ("rec_test_evt", CRUMB_SLOTS as u64 + 3));
        // The report renders every captured trial and parses as text.
        let report = render_report(&snap.worst);
        assert!(report.contains("rec_test_gain=15"), "{report}");
        assert!(report.contains("rec_test_snr_mdb=-3500"), "{report}");
    }

    #[test]
    fn merge_across_snapshots_is_worst_k_of_the_union() {
        let _ = crate::take_thread_telemetry();
        if !crate::enabled() {
            return;
        }
        begin_trial(1, 0);
        observe(100, 0);
        let mut a = crate::take_thread_telemetry();
        begin_trial(2, 0);
        observe(200, 0);
        let b = crate::take_thread_telemetry();
        a.merge(&b);
        assert_eq!(a.worst.len(), 2);
        assert_eq!(a.worst[0].bit_errors, 200);
        assert_eq!(a.worst[1].bit_errors, 100);
    }

    #[test]
    fn unarmed_observations_are_ignored() {
        let _ = crate::take_thread_telemetry();
        observe(9999, 0); // no begin_trial: must not record
        let snap = crate::take_thread_telemetry();
        assert!(snap.worst.is_empty());
    }

    #[test]
    fn concurrent_inflight_trials_attribute_by_trial_tag() {
        let _ = crate::take_thread_telemetry();
        if !crate::enabled() {
            return;
        }
        // Arm a whole batch, then sweep "stages" across it out of order,
        // re-tagging the thread's current trial before each write — the
        // shape of the batched stage-sweep runtime.
        let batch: [u64; 4] = [40, 41, 42, 43];
        for &t in &batch {
            crate::set_trial(t);
            begin_trial(t, 0x9000 + t);
        }
        for &t in batch.iter().rev() {
            crate::set_trial(t);
            crate::note!("rec_test_gain", t);
        }
        for &t in &batch {
            crate::set_trial(t);
            crate::event!("rec_test_evt", t);
            observe(t, 0);
        }
        crate::set_trial(0);
        let snap = crate::take_thread_telemetry();
        assert_eq!(snap.worst.len(), batch.len());
        // Worst-first by bit_errors: 43, 42, 41, 40 — and each snapshot
        // carries exactly its own trial's note, crumb, and seed.
        for (i, f) in snap.worst.iter().enumerate() {
            let t = batch[batch.len() - 1 - i];
            assert_eq!(f.trial, t);
            assert_eq!(f.seed, 0x9000 + t);
            assert_eq!(f.bit_errors, t);
            assert_eq!(f.notes(), vec![("rec_test_gain", t)]);
            assert_eq!(f.crumbs(), vec![("rec_test_evt", t)]);
            assert_eq!(f.events_seen, 1);
        }
    }

    #[test]
    fn arming_past_capacity_evicts_the_oldest_slot() {
        let _ = crate::take_thread_telemetry();
        if !crate::enabled() {
            return;
        }
        // Arm INFLIGHT_SLOTS + 2 trials without observing: the first two
        // must be evicted, the rest still observable by tag.
        let n = INFLIGHT_SLOTS as u64 + 2;
        for t in 0..n {
            crate::set_trial(t);
            begin_trial(t, t);
        }
        for t in 0..n {
            crate::set_trial(t);
            observe(1000 + t, 0);
        }
        crate::set_trial(0);
        let snap = crate::take_thread_telemetry();
        // Evicted trials 0 and 1 cannot be observed; the worst-K list holds
        // the K worst of the surviving INFLIGHT_SLOTS trials.
        assert_eq!(snap.worst.len(), WORST_K);
        assert_eq!(snap.worst[0].bit_errors, 1000 + n - 1);
        assert!(snap.worst.iter().all(|f| f.trial >= 2));
    }
}
