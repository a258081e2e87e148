//! One byte-budgeted, single-flight LRU for caches of computed values.
//!
//! The buffer pool's GOP cache, the encoded-tile cache, the shared
//! decoded-GOP cache and the engine's plan cache are the same machine:
//! look a key up; on a miss let exactly one request compute the value
//! while the rest wait; keep the result under a byte budget, least
//! recently used out first. A [`SingleFlightLru`] is that machine once.
//!
//! ## Protocol
//!
//! Keys are spread over a fixed number of shards, each one mutex over
//! its map, recency list, in-flight table, byte total and budget share.
//! A request hashes its key **once**; the hash picks the shard and
//! probes that shard's map.
//!
//! * **Hit** — one lock: find, move to the front of the recency list,
//!   clone the value out. No allocation, no key clone.
//! * **Miss** — two locks. The first finds nothing and either joins the
//!   key's flight or registers one and leads (one atomic step, so two
//!   leaders for one key cannot exist). The leader computes outside the
//!   lock; the second lock publishes the value, evicts down to the
//!   shard's budget, takes the flight off the table and wakes its
//!   followers (one atomic step, so a woken follower finds the entry).
//! * **Follower** — waits outside the lock on the pool's timed
//!   `Flight` (the workspace's one sanctioned condvar wait, lint rule
//!   R6), polling its abort condition every step, then looks again. If
//!   the leader failed, or the value was evicted or never kept, the
//!   follower may lead. A leader that fails or unwinds retires its
//!   flight on the way out, so nobody is stranded.
//!
//! ## Eviction
//!
//! Exact LRU per shard: the recency list is index-linked through a slab
//! of nodes, eviction pops its tail. The entry just published goes
//! last — only when everything else is gone and it alone still exceeds
//! the shard's budget is it dropped too, so an oversized value is
//! served to its requesters and never stays resident. Every shard owns
//! `budget / shards` bytes, so the sum of resident bytes never exceeds
//! the budget and "oversized" means larger than one shard's share.
//! Victims leave the critical section with the publisher and are
//! dropped after the lock is released: freeing a large value can block
//! in the allocator, and must not do so holding the shard. A caller
//! that would rather reuse them than free them takes them there instead
//! ([`SingleFlightLru::get_or_compute_with_victims`]).
//!
//! ## Warming
//!
//! [`SingleFlightLru::warm`] computes a value ahead of demand (the
//! buffer pool's readahead). It leaves a resident or in-flight key
//! alone and otherwise leads an ordinary flight, which a demand request
//! for the key joins; it is never counted as a hit, coalesced or miss,
//! so the demand counters describe demand alone.

use crate::bufferpool::{Flight, WAIT_POLL};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::Arc;

/// "No slot": list ends and empty chains.
const NIL: usize = usize::MAX;

/// How a request got its value. Every successful request is exactly
/// one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Resident on the first look.
    Hit,
    /// Waited on another request's computation, then found its result.
    Coalesced,
    /// Computed here, as the key's leader.
    Miss,
}

/// A served value and what serving it did to the cache.
#[derive(Debug)]
pub struct Served<V> {
    pub value: V,
    pub source: Source,
    /// Entries this request's publication evicted (0 unless `Miss`).
    pub evicted: u64,
}

/// Cache-wide totals since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    pub hits: u64,
    pub coalesced: u64,
    /// Computations that succeeded and were published.
    pub misses: u64,
    pub evictions: u64,
}

/// The map's keys are hashes already; hashing them again is the
/// identity.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Node<K, V> {
    /// `None` while the slot is on the free list.
    entry: Option<(K, V)>,
    weight: usize,
    hash: u64,
    /// Neighbour towards the most recently used end.
    prev: usize,
    /// Neighbour towards the least recently used end; on the free
    /// list, the next free slot.
    next: usize,
    /// Next node whose key has the same hash.
    chain: usize,
}

#[derive(Debug)]
struct Shard<K, V> {
    /// Hash → first node of that hash's chain.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    nodes: Vec<Node<K, V>>,
    free: usize,
    /// Most recently used.
    head: usize,
    /// Least recently used: the next victim.
    tail: usize,
    /// Computations in progress. A handful at most (one per thread), so
    /// a scan beats a second map.
    flights: Vec<(u64, K, Arc<Flight>)>,
    len: usize,
    bytes: usize,
    budget: usize,
    stats: LruStats,
}

impl<K: Eq, V: Clone> Shard<K, V> {
    fn new(budget: usize) -> Shard<K, V> {
        Shard {
            index: HashMap::default(),
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            flights: Vec::new(),
            len: 0,
            bytes: 0,
            budget,
            stats: LruStats::default(),
        }
    }

    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let mut i = *self.index.get(&hash)?;
        while i != NIL {
            let node = &self.nodes[i];
            if matches!(&node.entry, Some((k, _)) if k == key) {
                return Some(i);
            }
            i = node.chain;
        }
        None
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// The flight computing `key` right now, if any.
    fn flight(&self, hash: u64, key: &K) -> Option<&Arc<Flight>> {
        self.flights
            .iter()
            .find(|f| f.0 == hash && f.1 == *key)
            .map(|f| &f.2)
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Finds `key`, makes it the most recently used, clones its value
    /// out.
    fn hit(&mut self, hash: u64, key: &K) -> Option<V> {
        let i = self.find(hash, key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.nodes[i].entry.as_ref().map(|(_, value)| value.clone())
    }

    /// Files a new entry as the most recently used.
    fn insert(&mut self, hash: u64, key: K, value: V, weight: usize) {
        let chain = self.index.get(&hash).copied().unwrap_or(NIL);
        let node = Node {
            entry: Some((key, value)),
            weight,
            hash,
            prev: NIL,
            next: NIL,
            chain,
        };
        let i = match self.free {
            NIL => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
            slot => {
                self.free = self.nodes[slot].next;
                self.nodes[slot] = node;
                slot
            }
        };
        self.index.insert(hash, i);
        self.push_front(i);
        self.len += 1;
        self.bytes += weight;
    }

    /// Takes slot `i` out of the shard and hands back what it held.
    fn remove(&mut self, i: usize) -> Option<(K, V)> {
        self.unlink(i);
        let (hash, chain) = (self.nodes[i].hash, self.nodes[i].chain);
        match self.index.get(&hash).copied() {
            Some(first) if first == i => {
                if chain == NIL {
                    self.index.remove(&hash);
                } else {
                    self.index.insert(hash, chain);
                }
            }
            Some(mut before) => {
                while self.nodes[before].chain != i {
                    before = self.nodes[before].chain;
                }
                self.nodes[before].chain = chain;
            }
            None => {}
        }
        self.len -= 1;
        self.bytes -= self.nodes[i].weight;
        self.nodes[i].next = self.free;
        self.free = i;
        self.nodes[i].entry.take()
    }

    /// Pops least recently used entries until the shard is within its
    /// budget and returns them, for the caller to drop once it has let
    /// go of the lock. The entry just published is the head, so it goes
    /// last, and only if it alone exceeds the budget.
    fn evict_to_budget(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.bytes > self.budget && self.tail != NIL {
            evicted.extend(self.remove(self.tail));
        }
        self.stats.evictions += evicted.len() as u64;
        evicted
    }
}

/// A leader's claim on its key's flight. Retires the flight when
/// dropped, so an error or unwind out of the computation still wakes
/// the followers; the publishing path retires it itself, inside the
/// lock it already holds.
struct Lead<'a, K, V> {
    shard: &'a Mutex<Shard<K, V>>,
    flight: Arc<Flight>,
    retired: bool,
}

impl<K, V> Lead<'_, K, V> {
    /// Takes the flight off `shard`'s table (handing back the key it
    /// was filed under) and wakes its waiters.
    fn retire(&mut self, shard: &mut Shard<K, V>) -> Option<K> {
        self.retired = true;
        let at = shard
            .flights
            .iter()
            .position(|f| Arc::ptr_eq(&f.2, &self.flight));
        let key = at.map(|at| shard.flights.swap_remove(at).1);
        self.flight.finish();
        key
    }
}

impl<'a, K: Eq + Clone, V: Clone> Lead<'a, K, V> {
    /// Files a flight for `key` in `s`, the locked contents of `shard`,
    /// with the caller as its leader.
    fn register(shard: &'a Mutex<Shard<K, V>>, s: &mut Shard<K, V>, hash: u64, key: &K) -> Self {
        let flight = Arc::new(Flight::new());
        s.flights.push((hash, key.clone(), flight.clone()));
        Lead {
            shard,
            flight,
            retired: false,
        }
    }

    /// Files the computed value as the most recently used entry, evicts
    /// down to the budget and retires the flight: one critical section.
    /// The victims are handed back to be dropped once the lock is
    /// released.
    fn publish(mut self, hash: u64, key: &K, value: V, weight: usize, miss: bool) -> Vec<(K, V)> {
        let mut s = self.shard.lock();
        let key = self.retire(&mut s).unwrap_or_else(|| key.clone());
        s.stats.misses += u64::from(miss);
        s.insert(hash, key, value, weight);
        s.evict_to_budget()
    }
}

impl<K, V> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        if !self.retired {
            let shard = self.shard;
            self.retire(&mut shard.lock());
        }
    }
}

/// A sharded, byte-budgeted LRU whose misses are single-flight. See
/// the module documentation for the protocol.
pub struct SingleFlightLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    hasher: RandomState,
    budget: usize,
}

impl<K, V> std::fmt::Debug for SingleFlightLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never locks: safe to call mid-critical-section.
        f.debug_struct("SingleFlightLru")
            .field("shards", &self.shards.len())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlightLru<K, V> {
    /// A cache of `budget_bytes` split evenly over `shards` shards
    /// (rounded down to a power of two, at least one).
    pub fn new(budget_bytes: usize, shards: usize) -> SingleFlightLru<K, V> {
        let shards = 1usize << shards.max(1).ilog2();
        SingleFlightLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(budget_bytes / shards)))
                .collect(),
            hasher: RandomState::new(),
            budget: budget_bytes,
        }
    }

    /// The shard `hash` belongs to. Taken from the hash's middle: the
    /// map below spends the low bits on its bucket and the top bits on
    /// its control bytes.
    fn shard_of(&self, hash: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(hash >> 32) as usize & (self.shards.len() - 1)]
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Number of shards the budget is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes currently resident, shard by shard.
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().bytes).collect()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Computations in progress right now.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().flights.len()).sum()
    }

    /// Totals since construction, summed over the shards.
    pub fn stats(&self) -> LruStats {
        let mut total = LruStats::default();
        for shard in self.shards.iter() {
            let s = shard.lock().stats;
            total.hits += s.hits;
            total.coalesced += s.coalesced;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Whether `key` is resident right now (no recency touch).
    pub fn contains(&self, key: &K) -> bool {
        let hash = self.hasher.hash_one(key);
        self.shard_of(hash).lock().find(hash, key).is_some()
    }

    /// Serves `key` from the cache, or runs `compute` as the key's one
    /// leader and publishes its `(value, weight in bytes)`.
    ///
    /// `compute` must be a pure function of the key. It runs at most
    /// once per call, and across concurrent calls for one key once at
    /// a time. Its error is returned to this caller alone and publishes
    /// nothing; a waiting request then leads. While waiting on another
    /// request's computation `abort` is polled every wait step and its
    /// error, if any, ends the wait.
    pub fn get_or_compute<E>(
        &self,
        key: &K,
        abort: &dyn Fn() -> Option<E>,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<Served<V>, E> {
        self.get_or_compute_with_victims(key, abort, compute, drop)
    }

    /// [`get_or_compute`](Self::get_or_compute), handing the entries its
    /// publication evicted to `victims`, least recently used first, once
    /// the shard's lock is released, instead of dropping them. `victims`
    /// runs only after a successful computation, evictions or not; a hit
    /// or a coalesced request never calls it.
    pub fn get_or_compute_with_victims<E>(
        &self,
        key: &K,
        abort: &dyn Fn() -> Option<E>,
        compute: impl FnOnce() -> Result<(V, usize), E>,
        victims: impl FnOnce(Vec<(K, V)>),
    ) -> Result<Served<V>, E> {
        let hash = self.hasher.hash_one(key);
        let shard = self.shard_of(hash);
        let mut waited = false;
        let lead = loop {
            let theirs = {
                let mut s = shard.lock();
                if let Some(value) = s.hit(hash, key) {
                    let source = if waited {
                        s.stats.coalesced += 1;
                        Source::Coalesced
                    } else {
                        s.stats.hits += 1;
                        Source::Hit
                    };
                    return Ok(Served {
                        value,
                        source,
                        evicted: 0,
                    });
                }
                match s.flight(hash, key) {
                    Some(flight) => flight.clone(),
                    None => break Lead::register(shard, &mut s, hash, key),
                }
            };
            while !theirs.wait_done(WAIT_POLL) {
                if let Some(e) = abort() {
                    return Err(e);
                }
            }
            waited = true;
        };
        let (value, weight) = compute()?;
        let evicted = lead.publish(hash, key, value.clone(), weight, true);
        let served = Served {
            value,
            source: Source::Miss,
            evicted: evicted.len() as u64,
        };
        victims(evicted);
        Ok(served)
    }

    /// Computes `key` ahead of demand (see the module documentation).
    ///
    /// Returns `Ok(false)` without touching anything when `key` is
    /// resident or being computed. Otherwise leads the key's flight —
    /// a demand request for it meanwhile waits for this computation —
    /// publishes the value and returns `Ok(true)`. The publication's
    /// evictions are counted; the warm itself is never a hit,
    /// coalesced or miss. `compute`'s error publishes nothing and is
    /// returned here.
    pub fn warm<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<bool, E> {
        let hash = self.hasher.hash_one(key);
        let shard = self.shard_of(hash);
        let lead = {
            let mut s = shard.lock();
            if s.find(hash, key).is_some() || s.flight(hash, key).is_some() {
                return Ok(false);
            }
            Lead::register(shard, &mut s, hash, key)
        };
        let (value, weight) = compute()?;
        lead.publish(hash, key, value, weight, false);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    type Cache = SingleFlightLru<u64, u32>;

    fn never() -> Option<&'static str> {
        None
    }

    fn get(cache: &Cache, key: u64, weight: usize) -> Served<u32> {
        cache
            .get_or_compute(&key, &never, || Ok((key as u32, weight)))
            .unwrap()
    }

    #[test]
    fn hit_miss_and_lru_order() {
        let cache = Cache::new(250, 1);
        assert_eq!(get(&cache, 0, 100).source, Source::Miss);
        assert_eq!(get(&cache, 1, 100).source, Source::Miss);
        assert_eq!(get(&cache, 0, 100).source, Source::Hit); // 1 is now the victim
        let third = get(&cache, 2, 100);
        assert_eq!((third.source, third.evicted), (Source::Miss, 1));
        assert!(cache.contains(&0) && !cache.contains(&1) && cache.contains(&2));
        assert_eq!((cache.len(), cache.resident_bytes()), (2, 200));
        // Larger than the budget: served, never resident, and the
        // entries it pushed out on the way are gone too.
        let big = get(&cache, 9, 1000);
        assert_eq!((big.value, big.evicted), (9, 3));
        assert!(cache.is_empty() && cache.resident_bytes() == 0);
        assert_eq!(
            cache.stats(),
            LruStats {
                hits: 1,
                coalesced: 0,
                misses: 4,
                evictions: 4
            }
        );
    }

    #[test]
    fn colliding_hashes_chain_and_unchain() {
        // Drive the shard directly with one hash for every key.
        let mut s: Shard<u64, u32> = Shard::new(1 << 20);
        for k in 0..4 {
            s.insert(7, k, k as u32 * 10, 1);
        }
        assert_eq!(s.index.len(), 1);
        for k in 0..4 {
            assert_eq!(s.hit(7, &k), Some(k as u32 * 10));
        }
        assert_eq!(s.hit(7, &4), None);
        // Remove from the middle, the front and the back of the chain.
        for k in [2, 3, 0] {
            let i = s.find(7, &k).unwrap();
            s.remove(i);
            assert_eq!(s.find(7, &k), None);
        }
        assert_eq!((s.hit(7, &1), s.len, s.bytes), (Some(10), 1, 1));
        let i = s.find(7, &1).unwrap();
        s.remove(i);
        assert!(s.index.is_empty() && s.head == NIL && s.tail == NIL);
        // Freed slots are reused.
        s.insert(7, 5, 50, 1);
        assert_eq!(s.nodes.len(), 4);
    }

    #[test]
    fn shard_count_rounds_down_to_a_power_of_two() {
        for (asked, got) in [(0, 1), (1, 1), (3, 2), (16, 16), (17, 16)] {
            assert_eq!(
                Cache::new(1 << 20, asked).shard_count(),
                got,
                "asked {asked}"
            );
        }
    }

    #[test]
    fn computes_exactly_once_per_generation() {
        const THREADS: usize = 8;
        let cache = Arc::new(Cache::new(1 << 20, 1));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, computes, barrier) = (cache.clone(), computes.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compute(&7, &never, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(20));
                            Ok((42, 4))
                        })
                        .unwrap()
                        .value
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "concurrent requests must coalesce"
        );
        assert_eq!(cache.in_flight(), 0, "publication must clear the flight");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits + s.coalesced), (1, THREADS as u64 - 1));
    }

    /// A leader that fails (publishes nothing) must not strand its
    /// followers: retiring the flight wakes them and one leads.
    #[test]
    fn failed_leader_hands_over() {
        let cache = Arc::new(Cache::new(1 << 20, 1));
        let attempts = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (cache, attempts) = (cache.clone(), attempts.clone());
                std::thread::spawn(move || {
                    cache.get_or_compute(&1, &never, || {
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(Duration::from_millis(10));
                            return Err("injected");
                        }
                        Ok((9, 4))
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            results.iter().filter(|r| r.is_err()).count(),
            1,
            "the error is the leader's alone"
        );
        assert!(results.iter().flatten().all(|s| s.value == 9));
        assert!(
            attempts.load(Ordering::SeqCst) >= 2,
            "a second leader must take over"
        );
        assert_eq!(cache.in_flight(), 0);
        assert_eq!(
            cache.stats().misses,
            1,
            "a failed computation is not a miss"
        );
    }

    #[test]
    fn panicking_leader_retires_its_flight() {
        let cache = Arc::new(Cache::new(1 << 20, 1));
        let c2 = cache.clone();
        let r = std::thread::spawn(move || {
            c2.get_or_compute(&5, &never, || -> Result<(u32, usize), &'static str> {
                panic!("leader dies")
            })
        })
        .join();
        assert!(r.is_err());
        assert_eq!(cache.in_flight(), 0);
        assert_eq!(get(&cache, 5, 4).source, Source::Miss);
    }

    /// A warm loads a cold key once and counts nothing; a demand
    /// request arriving mid-warm joins it instead of computing.
    #[test]
    fn warm_is_demand_neutral_and_leads_a_joinable_flight() {
        use std::sync::atomic::AtomicBool;
        let cache = Arc::new(Cache::new(1 << 20, 1));
        let (leading, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let warmer = {
            let (cache, leading, release) = (cache.clone(), leading.clone(), release.clone());
            std::thread::spawn(move || {
                cache.warm(&4, || -> Result<_, &str> {
                    leading.wait();
                    release.wait();
                    Ok((40, 4))
                })
            })
        };
        leading.wait();
        let cold = || -> Result<(u32, usize), &str> { unreachable!() };
        assert_eq!(cache.warm(&4, cold), Ok(false));
        // The abort condition is polled only by a request parked on the
        // warm's flight: once it has been, the warm may finish.
        let parked = Arc::new(AtomicBool::new(false));
        let demand = {
            let (cache, parked) = (cache.clone(), parked.clone());
            std::thread::spawn(move || {
                let abort = || -> Option<&str> {
                    parked.store(true, Ordering::SeqCst);
                    None
                };
                cache.get_or_compute(&4, &abort, || unreachable!()).unwrap()
            })
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        release.wait();
        assert_eq!(warmer.join().unwrap(), Ok(true));
        let served = demand.join().unwrap();
        assert_eq!((served.value, served.source), (40, Source::Coalesced));
        assert_eq!(cache.warm(&4, cold), Ok(false));
        assert_eq!(
            cache.stats(),
            LruStats {
                coalesced: 1,
                ..LruStats::default()
            }
        );
        // A failed warm publishes nothing and leaves the key cold.
        let disk = || -> Result<(u32, usize), _> { Err("disk") };
        assert_eq!(cache.warm(&5, disk), Err("disk"));
        assert!(!cache.contains(&5) && cache.in_flight() == 0);
    }

    #[test]
    fn wait_honours_abort() {
        let cache = Arc::new(Cache::new(1 << 20, 1));
        let (leading, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let leader = {
            let (cache, leading, release) = (cache.clone(), leading.clone(), release.clone());
            std::thread::spawn(move || {
                cache.get_or_compute(&3, &never, || {
                    leading.wait();
                    release.wait();
                    Ok((1, 4))
                })
            })
        };
        leading.wait();
        let t0 = Instant::now();
        let r = cache.get_or_compute(&3, &|| Some("cancelled"), || {
            panic!("a follower must not compute")
        });
        assert_eq!(r.unwrap_err(), "cancelled");
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "aborted in {:?}",
            t0.elapsed()
        );
        release.wait();
        assert_eq!(leader.join().unwrap().unwrap().source, Source::Miss);
        assert_eq!(cache.in_flight(), 0);
    }
}
