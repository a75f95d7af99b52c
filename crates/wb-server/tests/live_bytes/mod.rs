//! The live-bytes counter the gates in this directory share: the system
//! allocator, counting this thread's live bytes in a thread-local, so
//! the test harness's other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s contract is the caller's; the count is a
// thread-local `Cell` updated through `try_with`, which neither
// allocates nor panics, even while the thread's locals are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap bytes `f`'s result holds on this thread once `f`'s own
/// scratch is freed, and the result.
pub(crate) fn live<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}
