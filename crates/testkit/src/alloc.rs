//! The counting global allocator of the allocation proofs.
//!
//! [`CountingAllocator`] delegates every operation to [`System`] and keeps
//! per-thread books: `alloc` calls, `realloc` calls, the bytes allocated and
//! not yet freed, and the size of the newest `alloc`.  Per thread, so a
//! proof counts what its own code does and not what the test harness's other
//! threads do.  A test binary installs it itself:
//!
//! ```text
//! #[global_allocator]
//! static ALLOCATOR: teemon_testkit::alloc::CountingAllocator =
//!     teemon_testkit::alloc::CountingAllocator;
//! ```
//!
//! Without that line every count reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`]-backed allocator that counts per thread.
pub struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LAST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + layout.size() as i64));
        ALLOCS.with(|c| c.set(c.get() + 1));
        LAST_ALLOC.with(|c| c.set(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        REALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations and reallocations so far on this thread.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get) + REALLOCS.with(Cell::get)
}

/// Heap allocations (and reallocations) `f` performs on this thread.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// `(alloc calls, realloc calls)` so far on this thread.
pub fn events() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// Bytes this thread has allocated and not yet freed (negative when it
/// freed what another thread allocated).
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The size of this thread's newest `alloc` call.
pub fn last_alloc_size() -> usize {
    LAST_ALLOC.with(Cell::get)
}
