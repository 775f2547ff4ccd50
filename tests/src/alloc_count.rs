//! Per-thread allocation counting for the allocation-pin tests.
//!
//! A test binary installs [`CountingAlloc`] as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: ent_integration::alloc_count::CountingAlloc =
//!     ent_integration::alloc_count::CountingAlloc;
//! ```
//!
//! A counting window ([`start`] … [`stop`], or [`count`]) then tallies the
//! allocations made *by the calling thread* and nothing else. The flag and
//! the tallies are const-initialised `thread_local!` cells: creating them
//! needs no allocation, so the allocator may read them from inside
//! `alloc`, and set-up work a sibling test runs on another harness thread
//! can never land inside the window. The pins therefore hold at any
//! `--test-threads` count.
//!
//! `GlobalAlloc` has no safe form, so this module is the one place in the
//! test crate that allows `unsafe`; the allocator defers entirely to
//! [`System`] and only bumps thread-local counters.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// What one counting window saw on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Heap allocations (a `realloc` counts as one: the default
    /// `GlobalAlloc::realloc` routes through `alloc`).
    pub allocs: u64,
    /// Bytes allocated less bytes freed.
    pub net_bytes: i64,
}

/// A global allocator that counts the calling thread's heap traffic while
/// its counting window is open; see the module docs.
pub struct CountingAlloc;

fn record(allocs: u64, bytes: i64) {
    // `try_with` rather than `with`: an allocation made while the thread
    // tears down its locals must still be served, just not counted.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
        let _ = NET_BYTES.try_with(|c| c.set(c.get() + bytes));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

/// Zero this thread's tallies and open its counting window.
pub fn start() {
    ALLOCS.with(|c| c.set(0));
    NET_BYTES.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
}

/// This thread's tallies so far, window left open.
pub fn peek() -> Tally {
    Tally {
        allocs: ALLOCS.with(Cell::get),
        net_bytes: NET_BYTES.with(Cell::get),
    }
}

/// Close this thread's counting window and return what it saw.
pub fn stop() -> Tally {
    COUNTING.with(|c| c.set(false));
    peek()
}

/// Run `f` inside a counting window on this thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    start();
    let out = f();
    (out, stop())
}
