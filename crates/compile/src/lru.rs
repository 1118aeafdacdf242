//! A bounded map with least-recently-used eviction — the one recency
//! policy behind the artifact store's memory tier and the service's
//! context pool.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map holding at most `capacity` entries; inserting past the bound
/// evicts the least-recently-used entry. A lookup hit counts as a use,
/// so a hot key survives any amount of one-off traffic.
///
/// # Example
///
/// ```
/// use qods_compile::Lru;
///
/// let mut lru = Lru::new(2);
/// lru.get_or_insert_with(1, || "one");
/// lru.get_or_insert_with(2, || "two");
/// assert!(lru.get(&1).is_some()); // 2 is now the LRU entry
/// lru.get_or_insert_with(3, || "three");
/// assert!(lru.get(&2).is_none());
/// assert_eq!(lru.len(), 2);
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    map: HashMap<K, V>,
    /// Least-recently-used first — the eviction order.
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries the map holds.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry at `key`, marked most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            self.order.push_back(*key);
        }
        self.map.get(key)
    }

    /// The entry at `key`, inserting `make()` (after evicting
    /// least-recently-used entries down to the bound) when absent. An
    /// existing entry is kept, not replaced.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &V {
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(lru) => {
                        self.map.remove(&lru);
                    }
                    // Unreachable unless a poisoned lock holder unwound
                    // mid-update and desynced the order; drop the whole
                    // map rather than loop forever.
                    None => self.map.clear(),
                }
            }
            self.order.push_back(key);
        }
        self.map.entry(key).or_insert_with(make)
    }
}
