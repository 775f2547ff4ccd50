//! The benchmark's global allocator: the system allocator, plus a count of
//! the bytes the program holds live and their peak while counting is on.
//! Counting is on only in the process that measures memory; elsewhere each
//! call pays one relaxed load of the switch.
//!
//! Live heap bytes, unlike RSS, do not depend on which freed pages the C
//! allocator happened to keep: on `study`, over seeds 1–12, one run's peak
//! RSS moved between 106 and 134 MiB while its peak live heap moved between
//! 120 and 124 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static BASE: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call goes to `System` unchanged; the counters only watch.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Start counting. Call it before the process allocates what it measures:
/// bytes allocated earlier and freed later count below zero.
pub fn start() {
    ON.store(true, Relaxed);
}

/// Restart the peak, and take the bytes live now as the base it is
/// measured from.
pub fn reset_peak() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

/// Peak live heap since the last [`reset_peak`], above the base, in MiB.
pub fn peak_mib() -> f64 {
    (PEAK.load(Relaxed) - BASE.load(Relaxed)) as f64 / (1024.0 * 1024.0)
}
