//! The stamp-scan LRU that `exec::tilecache` and `exec::sharedscan`
//! each carried before `storage::lru` (commit 7f10e78), kept as the
//! differential oracle: every lookup and publication takes the next
//! tick of a clock, eviction scans the whole map for the smallest
//! stamp, sparing the entry just published unless it alone exceeds the
//! budget. `lookup`, `publish` and `evict_to_budget` are the originals'
//! bodies with the metrics calls replaced by a victim log.

use std::collections::HashMap;
use std::hash::Hash;

struct CacheEntry {
    bytes: usize,
    /// Monotonic stamp for LRU ordering.
    stamp: u64,
}

pub(crate) struct StampScanLru<K> {
    map: HashMap<K, CacheEntry>,
    pub(crate) bytes: usize,
    budget: usize,
    clock: u64,
    /// Every key evicted, in eviction order.
    pub(crate) victims: Vec<K>,
}

impl<K: Hash + Eq + Clone> StampScanLru<K> {
    pub(crate) fn new(budget: usize) -> StampScanLru<K> {
        StampScanLru {
            map: HashMap::new(),
            bytes: 0,
            budget,
            clock: 0,
            victims: Vec::new(),
        }
    }

    fn evict_to_budget(&mut self, protect: &K) {
        while self.bytes > self.budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| *k != protect)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                self.victims.push(victim);
            }
        }
        if self.bytes > self.budget {
            if let Some(e) = self.map.remove(protect) {
                self.bytes -= e.bytes;
                self.victims.push(protect.clone());
            }
        }
    }

    /// Whether `key` is resident, touching it if so.
    pub(crate) fn lookup(&mut self, key: &K) -> bool {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| e.stamp = clock).is_some()
    }

    pub(crate) fn publish(&mut self, key: K, bytes: usize) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.map.insert(
            key.clone(),
            CacheEntry {
                bytes,
                stamp: clock,
            },
        );
        self.evict_to_budget(&key);
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
