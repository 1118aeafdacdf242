//! A map bounded by bytes with least-recently-used eviction — the one
//! recency policy behind the artifact store's memory tier and the
//! service's output cache.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map whose entries each carry a charge in bytes, holding at most
/// `budget` bytes in all. An insert that takes the total past the
/// budget evicts least-recently-used entries, never the one just
/// inserted, until the total fits or that entry is alone — so one entry larger than the whole budget is still kept,
/// by itself. A lookup hit counts as a use, so a hot key survives any
/// amount of one-off traffic.
///
/// # Example
///
/// ```
/// use qods_compile::Lru;
///
/// let mut lru = Lru::new(100);
/// lru.insert(1, "one", 40);
/// lru.insert(2, "two", 40);
/// assert!(lru.get(&1).is_some()); // 2 is now the LRU entry
/// assert_eq!(lru.insert(3, "three", 40), 1); // one eviction
/// assert!(lru.get(&2).is_none());
/// assert_eq!((lru.len(), lru.bytes()), (2, 80));
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    budget: usize,
    bytes: usize,
    /// The next recency stamp; stamps only grow.
    clock: u64,
    map: HashMap<K, Slot<V>>,
    /// Keys by recency stamp, least recently used first — the
    /// eviction order.
    order: BTreeMap<u64, K>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    charge: usize,
    stamp: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map bounded to `budget` bytes.
    pub fn new(budget: usize) -> Self {
        Lru {
            budget,
            bytes: 0,
            clock: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// The sum of the retained entries' charges.
    pub fn bytes(&self) -> usize {
        self.bytes
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
        let slot = self.map.get_mut(key)?;
        self.order.remove(&slot.stamp);
        slot.stamp = self.clock;
        self.order.insert(self.clock, *key);
        self.clock += 1;
        Some(&slot.value)
    }

    /// Inserts `value` at `key` charged `charge` bytes, as the most
    /// recently used entry (replacing any entry already there), then
    /// evicts down to the budget. Returns how many entries it evicted.
    pub fn insert(&mut self, key: K, value: V, charge: usize) -> usize {
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.stamp);
            self.bytes -= old.charge;
        }
        self.map.insert(
            key,
            Slot {
                value,
                charge,
                stamp: self.clock,
            },
        );
        self.order.insert(self.clock, key);
        self.clock += 1;
        self.bytes += charge;
        self.evict_for(&key)
    }

    /// Evicts least-recently-used entries other than `keep` until the
    /// total fits the budget or `keep` is alone.
    fn evict_for(&mut self, keep: &K) -> usize {
        let mut evicted = 0;
        while self.bytes > self.budget {
            let Some((&stamp, &victim)) = self.order.iter().find(|&(_, k)| k != keep) else {
                break;
            };
            self.order.remove(&stamp);
            if let Some(slot) = self.map.remove(&victim) {
                self.bytes -= slot.charge;
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive model: `(key, charge)` pairs, least recently used
    /// first, evicting by a linear scan.
    #[derive(Default)]
    struct Model(Vec<(u8, usize)>);

    impl Model {
        fn total(&self) -> usize {
            self.0.iter().map(|&(_, c)| c).sum()
        }

        fn touch(&mut self, key: u8) -> bool {
            let Some(i) = self.0.iter().position(|&(k, _)| k == key) else {
                return false;
            };
            let entry = self.0.remove(i);
            self.0.push(entry);
            true
        }

        /// Evicts from the front, skipping `keep`; returns how many
        /// entries it evicted.
        fn evict_for(&mut self, keep: u8, budget: usize) -> usize {
            let mut evicted = 0;
            while self.total() > budget {
                let Some(i) = self.0.iter().position(|&(k, _)| k != keep) else {
                    break;
                };
                self.0.remove(i);
                evicted += 1;
            }
            evicted
        }
    }

    /// SplitMix64, so every case replays from its seed.
    fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn matches_a_naive_model_under_random_traffic() {
        let mut evictions = 0;
        for seed in 0..200u64 {
            let mut next = rng(seed);
            let budget = next(200) as usize;
            let mut lru: Lru<u8, usize> = Lru::new(budget);
            let mut model = Model::default();
            for step in 0..300 {
                let key = next(12) as u8;
                // Now and then one entry larger than the whole budget.
                let scale = if next(10) == 0 { 400 } else { 60 };
                let charge = next(scale) as usize;
                let evicted = match next(2) {
                    0 => {
                        // A hit refreshes recency; a miss changes nothing.
                        let hit = lru.get(&key).copied();
                        assert_eq!(hit.is_some(), model.touch(key), "seed {seed} step {step}");
                        assert!(hit.is_none_or(|v| v == usize::from(key)));
                        0
                    }
                    _ => {
                        model.0.retain(|&(k, _)| k != key);
                        model.0.push((key, charge));
                        let n = lru.insert(key, usize::from(key), charge);
                        assert_eq!(n, model.evict_for(key, budget), "seed {seed} step {step}");
                        n
                    }
                };
                evictions += evicted;
                assert_eq!(lru.len(), model.0.len(), "seed {seed} step {step}");
                assert_eq!(lru.bytes(), model.total(), "seed {seed} step {step}");
                assert!(
                    lru.bytes() <= budget || lru.len() == 1,
                    "over budget with {} entries (seed {seed} step {step})",
                    lru.len()
                );
                // Same entries in the same recency order, so the victims
                // were the model's: the least recently used, in turn.
                let order: Vec<u8> = lru.order.values().copied().collect();
                let expected: Vec<u8> = model.0.iter().map(|&(k, _)| k).collect();
                assert_eq!(order, expected, "seed {seed} step {step}");
            }
        }
        assert!(evictions > 1000, "the traffic evicts: {evictions}");
    }
}
