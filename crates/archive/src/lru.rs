//! A bounded least-recently-used map with O(log n) touch and eviction.
//!
//! The query engine keeps one result cache *per shard* and a
//! resident-job cache besides, and inserts on every cache miss, so
//! eviction sits directly on the miss path of every shard. A scan of
//! every entry for the minimum use tick would cost O(capacity) per
//! insert; this map pairs the entry map with an ordered tick index, so
//! finding the LRU victim is a `BTreeMap::pop_first` instead.
//!
//! Invariant: `entries` and `order` describe the same set — every entry
//! holds the tick under which `order` lists its key, and ticks are unique
//! (a single monotone counter stamps every touch).

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Bounded LRU map. Capacity is clamped to at least 1.
#[derive(Debug)]
pub struct LruMap<K, V> {
    /// Key → (use tick, value).
    entries: HashMap<K, (u64, V)>,
    /// Use tick → key; the first entry is the least recently used.
    order: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map evicting beyond `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some((t, v)) => {
                let old = std::mem::replace(t, tick);
                let k = self.order.remove(&old).expect("order tracks every entry");
                self.order.insert(tick, k);
                Some(v)
            }
            None => None,
        }
    }

    /// Looks up `key` without disturbing the LRU order.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, marking it most recently used.
    /// Returns `true` when a *different* entry was evicted to stay within
    /// capacity — replacing an existing key never evicts.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (t, v) = e.get_mut();
                let old = std::mem::replace(t, tick);
                *v = value;
                self.order.remove(&old).expect("order tracks every entry");
                self.order.insert(tick, key);
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((tick, value));
                self.order.insert(tick, key);
                if self.entries.len() > self.capacity {
                    let (_, victim) = self
                        .order
                        .pop_first()
                        .expect("over-capacity map is nonempty");
                    self.entries
                        .remove(&victim)
                        .expect("order tracks every entry");
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (tick, value) = self.entries.remove(key)?;
        self.order.remove(&tick).expect("order tracks every entry");
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns true; returns how
    /// many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        let mut dropped_ticks = Vec::new();
        self.entries.retain(|k, (t, v)| {
            let kept = keep(k, v);
            if !kept {
                dropped_ticks.push(*t);
            }
            kept
        });
        for t in dropped_ticks {
            self.order.remove(&t).expect("order tracks every entry");
        }
        before - self.entries.len()
    }

    /// Iterates over `(key, value)` in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut m = LruMap::new(2);
        assert!(!m.insert("a", 1));
        assert!(!m.insert("b", 2));
        // Touch `a` so `b` is the victim.
        assert_eq!(m.get(&"a"), Some(&1));
        assert!(m.insert("c", 3), "third insert must evict");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(&"b"), None);
        assert_eq!(m.peek(&"a"), Some(&1));
        assert_eq!(m.peek(&"c"), Some(&3));
    }

    #[test]
    fn replacing_a_key_never_evicts() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert!(!m.insert("a", 10), "replacement stays within capacity");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(&"a"), Some(&10));
        // The replacement also refreshed `a`: `b` is now the victim.
        assert!(m.insert("c", 3));
        assert_eq!(m.peek(&"b"), None);
    }

    #[test]
    fn remove_and_retain_keep_order_consistent() {
        let mut m = LruMap::new(8);
        for i in 0..6 {
            m.insert(i, i * 10);
        }
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.retain(|k, _| k % 2 == 0), 2); // drops 1, 5
        assert_eq!(m.len(), 3);
        // The survivors still evict in LRU order once over capacity.
        let mut small = LruMap::new(3);
        for (k, v) in m.iter() {
            small.insert(*k, *v);
        }
        small.get(&0);
        small.insert(9, 90);
        assert_eq!(small.peek(&0), Some(&0), "recently touched key survives");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut m = LruMap::new(0);
        m.insert("a", 1);
        assert_eq!(m.len(), 1);
        assert!(m.insert("b", 2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.peek(&"b"), Some(&2));
    }

    #[test]
    fn get_miss_does_not_grow_or_reorder() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get(&"zzz"), None);
        assert_eq!(m.len(), 2);
        // `a` is still the LRU victim despite the missed lookup.
        m.insert("c", 3);
        assert_eq!(m.peek(&"a"), None);
    }
}
