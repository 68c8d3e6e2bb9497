//! A counting global allocator: allocation calls, bytes requested, live
//! bytes and the live-bytes high-water mark, process-wide.
//!
//! Same wrapping pattern as the repository's allocation-regression test,
//! extended with byte accounting so the benchmark can report peak heap and
//! allocation volume per packet. Counters are `Relaxed` atomics: they are
//! statistics and publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with counters.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        BYTES.fetch_add(new.saturating_sub(old), Relaxed);
        if new >= old {
            grow(new - old);
        } else {
            LIVE.fetch_sub(old - new, Relaxed);
        }
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub calls: u64,
    /// Bytes requested so far (a growing `realloc` counts its growth).
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Restarts the high-water mark from the current live bytes and returns
/// that starting level.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Live-bytes high-water mark since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
