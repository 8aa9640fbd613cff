//! Snapshot cells: `Arc` swapping for torn-free reads.
//!
//! The serving layer ([`crate::shard`]) publishes each shard as an
//! immutable snapshot behind an `Arc`; writers replace the whole `Arc`
//! rather than mutating in place, so readers never see a half-updated
//! shard. [`ArcCell`] is that slot: a reader clones the current `Arc`
//! under a read lock held only for the clone, then evaluates on its own
//! snapshot without any lock, while a swap is visible to every later
//! [`load`](ArcCell::load). Swaps are rare (archive upserts) and the read
//! lock is never held across a query, so readers do not contend on it.
//!
//! The stress test for the serving layer
//! (`crates/archive/tests/swap_stress.rs`) drives readers through this
//! cell while a writer swaps mid-stream and asserts every observed
//! snapshot is exactly one of the published generations — never torn.

use std::sync::{Arc, RwLock};

/// A swappable `Arc<T>` slot.
#[derive(Debug)]
pub struct ArcCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> ArcCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcCell {
            slot: RwLock::new(value),
        }
    }

    /// Clones the current `Arc`.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read().expect("ArcCell lock poisoned"))
    }

    /// Publishes `value`; every later [`load`](Self::load) returns it.
    pub fn store(&self, value: Arc<T>) {
        *self.slot.write().expect("ArcCell lock poisoned") = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_swaps_value() {
        let cell = ArcCell::new(Arc::new(1));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn swap_is_visible_across_threads() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for gen in 1..=100u64 {
                    cell.store(Arc::new(gen));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let seen = *cell.load();
                        assert!(seen <= 100, "only published generations are visible");
                        assert!(seen >= last, "generations never go backwards");
                        last = seen;
                    }
                    last
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 100, "final generation wins");
    }
}
