//! A counting global allocator: the binary installs [`Counting`] so
//! every run can state allocations and allocated bytes per operation.
//! The counters are process-wide and count every thread.
//!
//! Each thread counts into its own cache-line-sized shard, and a
//! snapshot sums the shards. One shared counter would bounce its cache
//! line between the `fleet_day` workers on every allocation, which
//! slows them by an amount that depends on where the host placed them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards; threads beyond this many share them, still counting exactly.
const SHARDS: usize = 16;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard, picked on its first allocation.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Forwards to the system allocator, counting calls and bytes.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// relaxed atomics that publish no other data, and the thread-local
// shard index is a const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note(n);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
}

fn note(bytes: usize) {
    let index = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    let shard = &COUNTS[index];
    shard.allocs.fetch_add(1, Ordering::Relaxed);
    shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocation counters at one instant, summed over every thread:
/// `(allocations, bytes)`. Both stay zero unless the running binary
/// installed [`Counting`].
pub fn snapshot() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
