//! `storage::lru::SingleFlightLru` against the stamp-scan LRU it
//! replaced (`oracle`), its sharded form against its own budget, and
//! the buffer pool built on it against the same oracle. CI runs this
//! file in release mode too.

mod oracle;

use lightdb_storage::bufferpool::{BufferPool, GopKey, PoolStats};
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
/// inserts, re-inserts of evicted keys — hand back the same victims in
/// the same order as the stamp scan evicts them and leave the same
/// resident set and byte total after every step.
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
        let victims_before = oracle.victims.len();

        let resident = oracle.lookup(&key);
        if !resident {
            oracle.publish(key, weight_of(key));
        }
        let mut victims = Vec::new();
        let served = lru
            .get_or_compute_with_victims(
                &key,
                &never,
                || Ok((key * 3, weight_of(key))),
                |evicted| victims = evicted,
            )
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
        // The victims handed back are the oracle's new ones, in its
        // eviction order (an oversized key, published and dropped within
        // the step, last), each with its value …
        let expected = &oracle.victims[victims_before..];
        let keys: Vec<u64> = victims.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, expected, "step {step} key {key}");
        assert!(victims.iter().all(|&(k, v)| v == k * 3), "step {step}");
        assert_eq!(served.evicted, expected.len() as u64, "step {step}");
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

/// FNV-1a over 64-bit words.
fn fold(digest: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(digest, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The buffer pool's GOP cache through its public surface: 10 000
/// seeded sequential `get_gop` and `prefetch_gop` calls over GOPs of
/// mixed sizes (one byte through larger than the pool), one load in
/// sixteen failing. The stamp-scan oracle says what is resident. After
/// every step the pool's `PoolStats`, `len` and `resident_bytes` are
/// the oracle's; every demand call is a hit exactly when the oracle
/// holds its key, and every readahead loads exactly when it does not.
/// The run's stats fold into the digest recorded on the pool's own
/// stamp-scan implementation, before it became a `SingleFlightLru`.
#[test]
fn buffer_pool_matches_the_stamp_scan_oracle_and_its_recorded_digest() {
    const RECORDED_DIGEST: u64 = 0xec90_9324_5c03_1786;
    let mut rng = Rng(0xb0f);
    let pool = BufferPool::new(BUDGET);
    let mut oracle = StampScanLru::new(BUDGET);
    let mut want = PoolStats::default();
    let (mut failed, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for step in 0..10_000u64 {
        let n = if rng.below(4) == 0 {
            rng.below(KEYS)
        } else {
            (step / 400 + rng.below(6)) % KEYS
        };
        let key = GopKey {
            media: format!("root/tlf/stream1_{}.lvc", n % 3),
            gop: n,
        };
        let fails = rng.below(16) == 0;
        // A stored GOP is never empty, and the pool this test's digest
        // was recorded on did not count evicting an empty one.
        let len = weight_of(n).max(1);
        let load = move || -> std::io::Result<Vec<u8>> {
            if fails {
                Err(std::io::Error::other("injected load failure"))
            } else {
                Ok(vec![n as u8; len])
            }
        };
        let resident = oracle.contains(&n);
        if rng.below(5) == 0 {
            let warmed = pool.prefetch_gop(&key, load);
            if resident {
                assert!(matches!(warmed, Ok(false)), "step {step}: {warmed:?}");
            } else {
                want.loads += 1;
                want.readaheads += 1;
                if fails {
                    assert!(warmed.is_err(), "step {step}");
                } else {
                    assert!(matches!(warmed, Ok(true)), "step {step}: {warmed:?}");
                    oracle.publish(n, len);
                }
            }
        } else {
            let got = pool.get_gop(&key, load);
            oracle.lookup(&n);
            if resident {
                want.hits += 1;
            } else {
                want.misses += 1;
                want.loads += 1;
                if !fails {
                    oracle.publish(n, len);
                }
            }
            match got {
                Ok(bytes) => assert!(bytes.len() == len && bytes.iter().all(|&b| b == n as u8)),
                Err(_) => assert!(fails && !resident, "step {step}"),
            }
        }
        failed += u64::from(fails && !resident);
        want.evictions = oracle.victims.len() as u64;
        want.bytes = oracle.bytes;
        let s = pool.stats();
        assert_eq!(s, want, "step {step} key {n}");
        assert_eq!(pool.len(), oracle.len(), "step {step}");
        assert_eq!(pool.resident_bytes(), oracle.bytes, "step {step}");
        let words = [
            s.hits,
            s.misses,
            s.evictions,
            s.bytes as u64,
            s.loads,
            s.readaheads,
        ];
        digest = fold(digest, &words);
        digest = fold(digest, &[pool.len() as u64]);
    }
    // The sequence exercised what it claims to.
    assert!(
        want.hits > 2_000
            && want.misses > 500
            && want.readaheads > 300
            && want.evictions > 500
            && failed > 100,
        "{want:?} {failed} failed loads"
    );
    assert_eq!(digest, RECORDED_DIGEST, "{digest:#x}");
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

/// A value whose `Drop` looks its own key up in the cache that held it,
/// so it locks its own shard.
#[derive(Clone)]
struct LocksOnDrop {
    cache: std::sync::Weak<SingleFlightLru<u64, LocksOnDrop>>,
    key: u64,
    dropped: Arc<AtomicU64>,
}

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        if let Some(cache) = self.cache.upgrade() {
            cache.contains(&self.key);
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Victims leave after the shard's lock is released, whether dropped
/// there or handed back: a victim whose `Drop` locks its own shard
/// finishes instead of deadlocking. The requests run on a thread of
/// their own, so a deadlock fails the test instead of hanging it.
#[test]
fn a_victim_may_lock_its_own_shard_when_it_drops() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let lru: Arc<SingleFlightLru<u64, LocksOnDrop>> = Arc::new(SingleFlightLru::new(100, 1));
        let dropped = Arc::new(AtomicU64::new(0));
        let value = |key| LocksOnDrop { cache: Arc::downgrade(&lru), key, dropped: dropped.clone() };
        // Each 60-byte value evicts the one before.
        for key in 0..3u64 {
            lru.get_or_compute(&key, &never, || Ok((value(key), 60))).unwrap();
        }
        let mut handed = Vec::new();
        lru.get_or_compute_with_victims(&3, &never, || Ok((value(3), 60)), |v| handed = v)
            .unwrap();
        assert_eq!(handed.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2]);
        drop(handed);
        // Every served clone dropped too, and the evicted values 0, 1, 2.
        let _ = done.send(dropped.load(Ordering::SeqCst));
    });
    let dropped = finished
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("a victim's drop deadlocked on its own shard");
    assert_eq!(dropped, 4 + 3, "four served clones and three victims");
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
