//! `storage::lru::SingleFlightLru` against the stamp-scan LRU it
//! replaced (`oracle`), and its sharded form against its own budget.
//! CI runs this file in release mode too.

mod oracle;

use lightdb_storage::lru::{SingleFlightLru, Source};
use oracle::StampScanLru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn never() -> Option<()> {
    None
}

const KEYS: u64 = 48;
const BUDGET: usize = 4096;

/// A key's weight is a function of the key (what a cache of computed
/// values sees), from empty through oversized.
fn weight_of(key: u64) -> usize {
    match key % 12 {
        0 => 0,
        1 => BUDGET + 1 + key as usize, // never resident
        2 => BUDGET,                    // resident alone
        k => 40 * k as usize + key as usize,
    }
}

/// 10 000 seeded requests on one shard — hits, first inserts, oversized
/// inserts, re-inserts of evicted keys — evict the same victims in the
/// same order as the stamp scan and leave the same resident set and
/// byte total after every step.
#[test]
fn one_shard_evicts_the_stamp_scans_victims_in_its_order() {
    let mut rng = Rng(0x1a0);
    let lru: SingleFlightLru<u64, u64> = SingleFlightLru::new(BUDGET, 1);
    let mut oracle = StampScanLru::new(BUDGET);
    let (mut hits, mut misses, mut reinserts) = (0u64, 0u64, 0u64);
    let mut ever = std::collections::HashSet::new();
    for step in 0..10_000 {
        // A drifting hot set, so hits, evictions and re-inserts all occur.
        let key = if rng.below(4) == 0 {
            rng.below(KEYS)
        } else {
            (step / 400 + rng.below(6)) % KEYS
        };
        let before: Vec<u64> = (0..KEYS).filter(|k| lru.contains(k)).collect();
        let victims_before = oracle.victims.len();

        let resident = oracle.lookup(&key);
        if !resident {
            oracle.publish(key, weight_of(key));
        }
        let served = lru
            .get_or_compute(&key, &never, || Ok((key * 3, weight_of(key))))
            .unwrap();

        assert_eq!(served.value, key * 3);
        assert_eq!(
            served.source == Source::Hit,
            resident,
            "step {step} key {key}"
        );
        if resident {
            hits += 1;
        } else {
            misses += 1;
            reinserts += u64::from(!ever.insert(key));
        }
        // The resident set shrank by exactly the oracle's new victims …
        let now: Vec<u64> = (0..KEYS).filter(|k| lru.contains(k)).collect();
        let mut gone: Vec<u64> = before
            .iter()
            .copied()
            .filter(|k| !now.contains(k))
            .collect();
        if !now.contains(&key) && !before.contains(&key) {
            gone.push(key); // served, published and dropped within the step
        }
        let mut expected = oracle.victims[victims_before..].to_vec();
        assert_eq!(served.evicted, expected.len() as u64, "step {step}");
        gone.sort_unstable();
        expected.sort_unstable();
        assert_eq!(gone, expected, "step {step} key {key}");
        // … and what is left is the oracle's set, byte for byte.
        for k in 0..KEYS {
            assert_eq!(lru.contains(&k), oracle.contains(&k), "step {step} key {k}");
        }
        assert_eq!(lru.resident_bytes(), oracle.bytes, "step {step}");
        assert_eq!(lru.len(), oracle.len(), "step {step}");
        assert!(lru.resident_bytes() <= BUDGET);
    }
    let s = lru.stats();
    assert_eq!((s.hits, s.misses, s.coalesced), (hits, misses, 0));
    assert_eq!(s.evictions, oracle.victims.len() as u64);
    // The sequence exercised what it claims to.
    assert!(
        hits > 2_000 && misses > 500 && reinserts > 300 && s.evictions > 500,
        "{s:?} {reinserts}"
    );
}

/// The order *within* a step too: one publication that evicts several
/// entries evicts them oldest first, the new entry last.
#[test]
fn a_multi_victim_publication_pops_oldest_first() {
    let lru: SingleFlightLru<u64, u64> = SingleFlightLru::new(300, 1);
    let mut oracle = StampScanLru::new(300);
    for key in [1u64, 2, 3] {
        oracle.publish(key, 100);
        lru.get_or_compute(&key, &never, || Ok((key, 100))).unwrap();
    }
    // Touch 1: the order is now 2, 3, 1.
    assert!(oracle.lookup(&1));
    lru.get_or_compute(&1, &never, || unreachable!()).unwrap();
    // 250 bytes push out 2, then 3, then 1.
    oracle.publish(4, 250);
    let served = lru.get_or_compute(&4, &never, || Ok((4, 250))).unwrap();
    assert_eq!(oracle.victims, vec![2, 3, 1]);
    assert_eq!(served.evicted, 3);
    // Each intermediate state, reproduced with a publication that
    // needs only that many victims.
    for (bytes, survivors) in [(150usize, vec![3u64, 1]), (250, vec![1])] {
        let lru: SingleFlightLru<u64, u64> = SingleFlightLru::new(400, 1);
        for key in [1u64, 2, 3] {
            lru.get_or_compute(&key, &never, || Ok((key, 100))).unwrap();
        }
        lru.get_or_compute(&1, &never, || unreachable!()).unwrap();
        lru.get_or_compute(&4, &never, || Ok((4, bytes))).unwrap();
        for k in 1..=3u64 {
            assert_eq!(
                lru.contains(&k),
                survivors.contains(&k),
                "{bytes} bytes, key {k}"
            );
        }
    }
}

/// 16 shards under 2–8 threads: at every quiescent point the shards'
/// bytes sum to `resident_bytes()`, within the budget and each within
/// its share, and every lookup was exactly one of hit / coalesced /
/// miss; no key was computed twice at once.
#[test]
fn sharded_bytes_stay_within_budget_and_counters_are_conserved() {
    const BUDGET: usize = 64 << 10;
    const ROUNDS: usize = 6;
    const PER_ROUND: u64 = 2_000;
    for threads in [2usize, 4, 8] {
        let lru: Arc<SingleFlightLru<u64, Arc<Vec<u8>>>> =
            Arc::new(SingleFlightLru::new(BUDGET, 16));
        assert_eq!(lru.shard_count(), 16);
        let computing: Arc<Vec<AtomicU64>> =
            Arc::new((0..512).map(|_| AtomicU64::new(0)).collect());
        let barrier = Arc::new(Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (lru, computing, barrier) = (lru.clone(), computing.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let mut rng = Rng(0x5a4d + t as u64);
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for _ in 0..PER_ROUND {
                            // Hot keys collide across threads; cold ones churn.
                            let key = if rng.below(3) == 0 {
                                rng.below(8)
                            } else {
                                rng.below(512)
                            };
                            let len = 64 + (key as usize * 37) % 900;
                            let served = lru
                                .get_or_compute(&key, &never, || {
                                    assert_eq!(
                                        computing[key as usize].fetch_add(1, Ordering::SeqCst),
                                        0,
                                        "two leaders for key {key}"
                                    );
                                    let v = Arc::new(vec![key as u8; len]);
                                    computing[key as usize].fetch_sub(1, Ordering::SeqCst);
                                    Ok((v, len))
                                })
                                .unwrap();
                            assert_eq!(served.value.len(), len);
                            assert!(served.value.iter().all(|&b| b == key as u8));
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for round in 1..=ROUNDS {
            barrier.wait(); // start the round
            barrier.wait(); // every thread is done: quiescent
            let shards = lru.shard_bytes();
            let total: usize = shards.iter().sum();
            assert_eq!(
                total,
                lru.resident_bytes(),
                "{threads} threads, round {round}"
            );
            assert!(total <= BUDGET, "{total} bytes over the budget");
            assert!(
                shards.iter().all(|&b| b <= BUDGET / 16),
                "a shard over its share: {shards:?}"
            );
            assert_eq!(lru.in_flight(), 0);
            let s = lru.stats();
            assert_eq!(
                s.hits + s.coalesced + s.misses,
                (round * threads) as u64 * PER_ROUND,
                "{threads} threads, round {round}: {s:?}"
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = lru.stats();
        assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0, "{s:?}");
    }
}
