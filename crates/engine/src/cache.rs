//! A small LRU cache for served job results.
//!
//! Serving traffic repeats itself: the same recent windows get queried
//! by several downstream consumers (classifier ensembles, dashboards,
//! alerting), and sliding-window re-analysis revisits whole stretches of
//! signal. Keyed by [`crate::BettiJob::fingerprint`], a hit returns the
//! exact result a recompute would produce (seeds are content-derived,
//! see [`crate::seed`]), so caching is observable only through latency
//! and the hit counters.
//!
//! The implementation favours being obviously correct over asymptotics:
//! a `HashMap` plus a monotone recency stamp, with an `O(len)` scan on
//! eviction. Serving caches hold hundreds of entries, not millions; the
//! scan is noise next to one Laplacian estimate.

use std::collections::HashMap;

/// A least-recently-used map from `u64` fingerprints to values.
#[derive(Clone, Debug)]
pub struct LruCache<V> {
    capacity: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<u64, Entry<V>>,
}

#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries, admitting every
    /// insert; `0` disables caching (every `get` misses, every `insert`
    /// is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, tick: 0, evictions: 0, map: HashMap::new() }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted under capacity pressure since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a fingerprint, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one if the cache is full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&key) {
            e.value = value;
            e.last_used = tick;
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, Entry { value, last_used: tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = LruCache::new(4);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some("a"));
        assert_eq!(c.get(3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some("a"), "refresh 1 so 2 becomes the LRU entry");
        c.insert(3, "c");
        assert_eq!(c.get(2), None, "2 was evicted");
        assert_eq!(c.get(1), Some("a"));
        assert_eq!(c.get(3), Some("c"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2");
        assert_eq!(c.len(), 2, "refresh must not trigger eviction");
        assert_eq!(c.get(1), Some("a2"));
        assert_eq!(c.get(2), Some("b"));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(1, "a");
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 0);
    }

    /// Interleaved get/insert traffic against a brute-force recency
    /// model: the entry evicted must always be the true least recently
    /// *used* (gets refresh, not just inserts).
    #[test]
    fn eviction_matches_reference_model_under_interleaved_traffic() {
        const CAPACITY: usize = 4;
        let mut cache: LruCache<u64> = LruCache::new(CAPACITY);
        // Model: (key, value), front = most recently used.
        let mut model: Vec<(u64, u64)> = Vec::new();
        // Deterministic op stream (SplitMix-ish) over a key space larger
        // than the capacity, mixing gets and inserts 50/50.
        let mut state = 0x9E37u64;
        for step in 0..4000u64 {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x14057B7E);
            let key = (state >> 33) % 9;
            let touch = |model: &mut Vec<(u64, u64)>, key: u64| {
                if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                    let entry = model.remove(pos);
                    model.insert(0, entry);
                    true
                } else {
                    false
                }
            };
            if state & 1 == 0 {
                let got = cache.get(key);
                let hit = touch(&mut model, key);
                assert_eq!(got.is_some(), hit, "step {step}: hit/miss diverged on key {key}");
                if let Some(v) = got {
                    assert_eq!(v, model[0].1, "step {step}: stale value for key {key}");
                }
            } else {
                cache.insert(key, step);
                if touch(&mut model, key) {
                    model[0].1 = step;
                } else {
                    if model.len() == CAPACITY {
                        model.pop();
                    }
                    model.insert(0, (key, step));
                }
            }
            assert_eq!(cache.len(), model.len(), "step {step}: occupancy diverged");
        }
        // Final state: exactly the model's keys survive.
        for (key, value) in model {
            assert_eq!(cache.get(key), Some(value), "surviving key {key}");
        }
    }
}
