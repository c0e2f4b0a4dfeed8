//! Counting global allocator built on `sim_core::allocmeter`.
//!
//! Every allocation bumps the calling thread's allocmeter counters (so
//! measurement scopes, and the shard workers that adopt them, see it) plus
//! a private per-thread tally used to split a scope's total into "this
//! thread" and "adopted workers". The wire workload additionally needs
//! allocations made on server threads it did not spawn; for that a
//! process-wide tally can be switched on.

use sim_core::allocmeter::{self, AllocStats, Scope};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static PROCESS_WIDE: AtomicBool = AtomicBool::new(false);
static PROCESS_COUNT: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static OWN_COUNT: Cell<u64> = const { Cell::new(0) };
    static OWN_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note(bytes: u64) {
    allocmeter::note_alloc(bytes);
    let _ = OWN_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = OWN_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    if PROCESS_WIDE.load(Ordering::Relaxed) {
        PROCESS_COUNT.fetch_add(1, Ordering::Relaxed);
        PROCESS_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters never
// allocate and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted like the `scale` bench does: one call, growth bytes only.
        note(new_size.saturating_sub(layout.size()) as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn own() -> AllocStats {
    AllocStats {
        count: OWN_COUNT.try_with(Cell::get).unwrap_or(0),
        bytes: OWN_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Starts (or stops) counting allocations of every thread in the process.
pub fn set_process_wide(on: bool) {
    PROCESS_WIDE.store(on, Ordering::SeqCst);
}

/// Process-wide totals since the first [`set_process_wide`]`(true)`.
pub fn process_totals() -> AllocStats {
    AllocStats {
        count: PROCESS_COUNT.load(Ordering::SeqCst),
        bytes: PROCESS_BYTES.load(Ordering::SeqCst),
    }
}

/// An allocmeter scope that also remembers the opening thread's own tally,
/// so [`Metered::finish`] can tell how much adopted workers contributed.
pub struct Metered {
    scope: Scope,
    own_base: AllocStats,
}

/// What a [`Metered`] region allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metering {
    /// Everything: the opening thread plus adopted workers.
    pub total: AllocStats,
    /// The part folded in by worker threads that adopted this scope.
    pub workers: AllocStats,
}

impl Metered {
    /// Opens a scope on the calling thread.
    pub fn begin() -> Metered {
        let own_base = own();
        Metered {
            scope: Scope::begin(),
            own_base,
        }
    }

    /// Closes the scope.
    pub fn finish(self) -> Metering {
        let total = self.scope.finish();
        let now = own();
        let mine = AllocStats {
            count: now.count.wrapping_sub(self.own_base.count),
            bytes: now.bytes.wrapping_sub(self.own_base.bytes),
        };
        Metering {
            total,
            workers: AllocStats {
                count: total.count.saturating_sub(mine.count),
                bytes: total.bytes.saturating_sub(mine.bytes),
            },
        }
    }
}
