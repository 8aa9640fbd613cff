//! Peak live heap of the benchmark process.
//!
//! A counting wrapper around the system allocator: every allocation adds
//! its size to the live total and raises the peak, every free takes its
//! size off. Unlike the resident set, the figure does not depend on how
//! the allocator lays out and returns memory, or on whether the kernel
//! backs the program text with huge pages, so it reads the same for the
//! same inputs. The serving workload's daemon is another program; its
//! memory is read from `/proc` instead (`host::peak_rss_mb`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting allocator; `main.rs` installs it as the global one.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's pointer
// and layout unchanged; the counters are plain atomics and never touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Highest live heap so far, MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_live_bytes() {
        // The test binary runs under the counting allocator too.
        let block = std::hint::black_box(vec![0u8; 64 << 20]);
        let peak = peak_mb();
        assert!(peak >= 64.0, "peak {peak} MiB with 64 MiB live");
        drop(block);
        assert!(peak_mb() >= peak, "the peak never falls");
    }
}
