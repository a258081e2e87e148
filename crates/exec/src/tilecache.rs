//! Cross-user cache of *encoded* tile outputs with single-flight
//! extraction.
//!
//! The fleet-serving workload (PAPER.md §2: many headsets viewing one
//! 360° video, head orientations clustered on the action) asks for
//! the same hot tile thousands of times per second. Extraction is
//! already zero-decode (`EncodedGop::extract_tile_bytes` walks the
//! tile index of the pool's serialised GOP and copies the one tile's
//! payloads out), but under a fleet even that copy — plus the
//! buffer-pool traffic to get the GOP bytes — multiplies by the
//! viewer count. A [`TileCache`] is the serving-layer analogue of
//! [`crate::sharedscan::SharedDecode`]: both are instantiations of
//! [`lightdb_storage::lru::SingleFlightLru`], here over the serialized
//! single-tile GOPs, so concurrent requests for one hot tile extract
//! it exactly once and everyone else reuses those bytes.
//!
//! ## Shards
//!
//! The budget is split over `min(16, budget / 64 KiB)` shards (rounded
//! down to a power of two, at least one), each its own lock and its own
//! exact LRU: derived from the budget, not configured. A budget under
//! 128 KiB is one shard with cache-wide LRU order; a tile larger than
//! one shard's share is served and never kept.
//!
//! ## Keys and version safety
//!
//! Keys are **provenance-addressed**: `(tlf, catalog version, track,
//! gop start-frame, tile index, quality)`. The catalog version is the
//! load-bearing field — re-ingesting a TLF under the same name, with
//! or without a `DROP` first, mints a version the name never had in
//! this process, so a server that resolved the new snapshot builds
//! keys that can never collide with the old entries. Stale tiles age
//! out of the LRU; they are never *served*, because nothing asks for
//! the dead version's keys. (Content addressing, as the shared-decode
//! cache uses, would also be correct but would hash every GOP payload
//! on every request; the serving path is exactly the place where that
//! per-request cost matters.)
//!
//! ## Counter semantics
//!
//! Every call bumps exactly one of three counters:
//! `tile_cache.hits` (served from cache without waiting),
//! `tile_cache.coalesced` (waited on another request's in-flight
//! extraction, then reused its result), or `tile_cache.misses` (ran
//! the extraction as leader). So `hits + coalesced` is precisely
//! "extractions avoided", and `misses` equals extractions performed.

use crate::metrics::{counters, Metrics};
use crate::Result;
use lightdb_core::Quality;
use lightdb_storage::lru::{SingleFlightLru, Source};
use std::sync::Arc;

/// Default encoded-tile cache budget: 64 MiB. Encoded tiles are tiny
/// (a tile's slice of each frame at one quality), so this holds many
/// thousands of hot tiles. Engines read `LIGHTDB_TILE_CACHE_MB`.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// A shard is worth its lock only if it can hold a working set of
/// tiles: no shard gets less than this.
const MIN_SHARD_BYTES: usize = 64 << 10;
const MAX_SHARDS: usize = 16;

/// Provenance identity of one encoded tile at one quality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// TLF name in the catalog.
    pub tlf: Arc<str>,
    /// Catalog version the serving snapshot resolved. The catalog never
    /// hands a `(name, version)` out twice within a process — not even
    /// to a TLF re-created after a `DROP` — so stale entries are
    /// unreachable.
    pub version: u64,
    /// Track ordinal within the TLF.
    pub track: usize,
    /// GOP identity within the track: its start frame (matches the
    /// buffer pool's `GopKey::gop` convention).
    pub gop: u64,
    /// Tile ordinal in the track's grid (row-major).
    pub tile: usize,
    /// Quality tier of the stream the tile was cut from.
    pub quality: Quality,
}

/// Hit / miss / coalesced / eviction counts: a point-in-time copy of
/// the cache-wide totals ([`TileCache::stats`]; sessions see their own
/// share through the `tile_cache.*` counters, these see the whole
/// fleet), or one caller's running tally
/// ([`TileCache::get_or_extract_tallied`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCacheStats {
    /// Requests served from cache without waiting.
    pub hits: u64,
    /// Extractions performed (single-flight leaders).
    pub misses: u64,
    /// Requests that reused another request's in-flight extraction.
    pub coalesced: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
}

impl TileCacheStats {
    /// Requests that did not run an extraction.
    pub fn avoided(&self) -> u64 {
        self.hits + self.coalesced
    }

    /// Fraction of requests served without extraction, 0.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.avoided() as f64 / total as f64
        }
    }

    /// Field-wise `self - earlier`, for before/after deltas around a
    /// bench run against a shared cache.
    pub fn since(&self, earlier: &TileCacheStats) -> TileCacheStats {
        TileCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// The `tile_cache.*` counters these counts stand for.
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            (counters::TILE_CACHE_HITS, self.hits),
            (counters::TILE_CACHE_MISSES, self.misses),
            (counters::TILE_CACHE_COALESCED, self.coalesced),
            (counters::TILE_CACHE_EVICTIONS, self.evictions),
        ]
    }
}

/// The cross-user encoded-tile facility: single-flight extraction
/// plus a byte-bounded LRU of serialized single-tile GOPs. One per
/// engine, shared by every session's `TileServer`.
#[derive(Debug)]
pub struct TileCache {
    lru: SingleFlightLru<TileKey, Arc<Vec<u8>>>,
}

impl TileCache {
    /// A cache bounded by `budget_bytes` of serialized tile data.
    pub fn new(budget_bytes: usize) -> TileCache {
        let shards = (budget_bytes / MIN_SHARD_BYTES).min(MAX_SHARDS);
        TileCache { lru: SingleFlightLru::new(budget_bytes, shards) }
    }

    /// Encoded-tile bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lru.resident_bytes()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.lru.budget_bytes()
    }

    /// Number of cached tiles.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Cache-wide totals since construction.
    pub fn stats(&self) -> TileCacheStats {
        let s = self.lru.stats();
        TileCacheStats {
            hits: s.hits,
            misses: s.misses,
            coalesced: s.coalesced,
            evictions: s.evictions,
        }
    }

    /// Whether `key` is resident right now (no LRU touch; tests and
    /// prefetch use this to avoid redundant warming).
    pub fn contains(&self, key: &TileKey) -> bool {
        self.lru.contains(key)
    }

    /// Serves `key` from the cache, or runs `extract` under
    /// single-flight so concurrent requests for the same tile extract
    /// it exactly once.
    ///
    /// `extract` must be a pure function of the key (it produces the
    /// serialized single-tile GOP — `extract_tile(i).to_bytes()` — for
    /// the pinned catalog version in the key), so a cached entry is
    /// byte-identical to a fresh extraction by construction. It runs at
    /// most once per call — when this request leads, possibly after a
    /// leader it waited on failed — and counts as a miss only if it
    /// succeeds.
    ///
    /// Waiting on another request's in-flight extraction polls
    /// `should_abort` each step; an aborted wait returns
    /// [`ExecError::Cancelled`](crate::ExecError::Cancelled).
    ///
    /// Exactly one of `tally`'s hits / coalesced / misses grows by one
    /// per successful call, and evictions by what the publication
    /// evicted: a caller serving many tiles sums locally and adds to
    /// its [`Metrics`] once.
    pub fn get_or_extract_tallied(
        &self,
        key: &TileKey,
        tally: &mut TileCacheStats,
        should_abort: &dyn Fn() -> bool,
        extract: impl FnOnce() -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        let served = self.lru.get_or_compute(
            key,
            &|| should_abort().then_some(crate::ExecError::Cancelled),
            || {
                let tile = extract()?;
                let bytes = tile.len();
                Ok((Arc::new(tile), bytes))
            },
        )?;
        match served.source {
            Source::Hit => tally.hits += 1,
            Source::Coalesced => tally.coalesced += 1,
            Source::Miss => tally.misses += 1,
        }
        tally.evictions += served.evicted;
        Ok(served.value)
    }

    /// [`get_or_extract_tallied`](Self::get_or_extract_tallied) for one
    /// tile, counted straight into `metrics`' `tile_cache.*` counters.
    pub fn get_or_extract(
        &self,
        key: &TileKey,
        metrics: &Metrics,
        should_abort: &dyn Fn() -> bool,
        extract: &dyn Fn() -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        let mut tally = TileCacheStats::default();
        let tile = self.get_or_extract_tallied(key, &mut tally, should_abort, extract);
        metrics.add_all(tally.counters());
        tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn key(tile: usize) -> TileKey {
        TileKey {
            tlf: Arc::from("vid"),
            version: 1,
            track: 0,
            gop: 0,
            tile,
            quality: Quality::High,
        }
    }

    fn payload(tile: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tile * 31 + i) as u8).collect()
    }

    #[test]
    fn hit_returns_published_bytes() {
        let cache = TileCache::new(DEFAULT_BUDGET_BYTES);
        let m = Metrics::new();
        let a = cache
            .get_or_extract(&key(3), &m, &|| false, &|| Ok(payload(3, 100)))
            .unwrap();
        let b = cache
            .get_or_extract(&key(3), &m, &|| false, &|| panic!("must not re-extract"))
            .unwrap();
        assert_eq!(*a, payload(3, 100));
        assert_eq!(a, b);
        assert_eq!(m.counter(counters::TILE_CACHE_MISSES), 1);
        assert_eq!(m.counter(counters::TILE_CACHE_HITS), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert_eq!(s.avoided(), 1);
    }

    #[test]
    fn distinct_keys_take_distinct_entries() {
        let cache = TileCache::new(DEFAULT_BUDGET_BYTES);
        let m = Metrics::new();
        for t in 0..4 {
            cache
                .get_or_extract(&key(t), &m, &|| false, &|| Ok(payload(t, 50)))
                .unwrap();
        }
        // Same tile at a different version is a different entry.
        let mut v2 = key(0);
        v2.version = 2;
        cache
            .get_or_extract(&v2, &m, &|| false, &|| Ok(payload(9, 50)))
            .unwrap();
        assert_eq!(cache.len(), 5);
        assert_eq!(m.counter(counters::TILE_CACHE_MISSES), 5);
        assert_eq!(m.counter(counters::TILE_CACHE_HITS), 0);
    }

    #[test]
    fn concurrent_requests_for_one_tile_extract_once() {
        const THREADS: usize = 8;
        let cache = Arc::new(TileCache::new(DEFAULT_BUDGET_BYTES));
        let m = Metrics::new();
        let barrier = Arc::new(Barrier::new(THREADS));
        let extractions = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (cache, m, barrier, extractions) = (
                    cache.clone(),
                    m.clone(),
                    barrier.clone(),
                    extractions.clone(),
                );
                s.spawn(move || {
                    barrier.wait();
                    let got = cache
                        .get_or_extract(&key(7), &m, &|| false, &|| {
                            extractions.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so followers park.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok(payload(7, 64))
                        })
                        .unwrap();
                    assert_eq!(*got, payload(7, 64));
                });
            }
        });
        assert_eq!(
            extractions.load(Ordering::Relaxed),
            1,
            "exactly-once extraction"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, THREADS as u64 - 1);
        assert_eq!(
            m.counter(counters::TILE_CACHE_HITS) + m.counter(counters::TILE_CACHE_COALESCED),
            THREADS as u64 - 1
        );
    }

    #[test]
    fn budget_evicts_lru_and_bounds_bytes() {
        let cache = TileCache::new(250); // fits two 100-byte tiles
        let m = Metrics::new();
        cache
            .get_or_extract(&key(0), &m, &|| false, &|| Ok(payload(0, 100)))
            .unwrap();
        cache
            .get_or_extract(&key(1), &m, &|| false, &|| Ok(payload(1, 100)))
            .unwrap();
        // Touch 0 so 1 is the LRU victim.
        cache
            .get_or_extract(&key(0), &m, &|| false, &|| panic!("hit"))
            .unwrap();
        cache
            .get_or_extract(&key(2), &m, &|| false, &|| Ok(payload(2, 100)))
            .unwrap();
        assert_eq!(m.counter(counters::TILE_CACHE_EVICTIONS), 1);
        assert!(cache.resident_bytes() <= 250);
        assert!(cache.contains(&key(0)), "recently-touched entry survived");
        assert!(!cache.contains(&key(1)), "LRU entry evicted");
        // An entry bigger than the whole budget is served, not kept.
        cache
            .get_or_extract(&key(9), &m, &|| false, &|| Ok(payload(9, 1000)))
            .unwrap();
        assert!(!cache.contains(&key(9)));
        assert!(cache.resident_bytes() <= 250);
    }

    #[test]
    fn failed_leader_hands_over_and_error_propagates() {
        let cache = Arc::new(TileCache::new(DEFAULT_BUDGET_BYTES));
        let m = Metrics::new();
        let err = cache
            .get_or_extract(&key(5), &m, &|| false, &|| {
                Err(crate::ExecError::Other("injected".into()))
            })
            .unwrap_err();
        assert!(matches!(err, crate::ExecError::Other(_)));
        // The flight was released on the error path: a new request
        // becomes leader and succeeds.
        let got = cache
            .get_or_extract(&key(5), &m, &|| false, &|| Ok(payload(5, 10)))
            .unwrap();
        assert_eq!(*got, payload(5, 10));
        assert_eq!(
            cache.stats().misses,
            1,
            "failed extraction is not a miss-count"
        );
    }

    #[test]
    fn aborted_wait_surfaces_cancelled() {
        let cache = TileCache::new(DEFAULT_BUDGET_BYTES);
        // Park a leader on the key, then join it with an abort signal.
        let k = key(11);
        let m = Metrics::new();
        let (leading, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let extract = || {
                    leading.wait();
                    release.wait();
                    Ok(payload(11, 10))
                };
                cache.get_or_extract(&k, &m, &|| false, &extract).unwrap();
            });
            leading.wait();
            let err = cache
                .get_or_extract(&k, &m, &|| true, &|| panic!("a waiter must not extract"))
                .unwrap_err();
            assert!(matches!(err, crate::ExecError::Cancelled));
            release.wait();
        });
        assert_eq!(cache.stats().misses, 1, "the leader still published");
    }

    #[test]
    fn shard_count_follows_the_budget() {
        for (budget, shards) in [
            (250, 1),
            (64 << 10, 1),
            (128 << 10, 2),
            (1 << 20, 16),
            (DEFAULT_BUDGET_BYTES, 16),
        ] {
            assert_eq!(TileCache::new(budget).lru.shard_count(), shards, "budget {budget}");
        }
    }

    #[test]
    fn tally_counts_what_metrics_would() {
        let cache = TileCache::new(250);
        let mut tally = TileCacheStats::default();
        for t in [0, 1, 0, 2] {
            cache
                .get_or_extract_tallied(&key(t), &mut tally, &|| false, || Ok(payload(t, 100)))
                .unwrap();
        }
        assert_eq!(tally, TileCacheStats { hits: 1, misses: 3, coalesced: 0, evictions: 1 });
        assert_eq!(tally, cache.stats());
    }

    #[test]
    fn stats_since_subtracts() {
        let a = TileCacheStats {
            hits: 10,
            misses: 4,
            coalesced: 2,
            evictions: 1,
        };
        let b = TileCacheStats {
            hits: 4,
            misses: 4,
            coalesced: 0,
            evictions: 0,
        };
        let d = a.since(&b);
        assert_eq!(
            d,
            TileCacheStats {
                hits: 6,
                misses: 0,
                coalesced: 2,
                evictions: 1
            }
        );
        assert!((d.hit_rate() - 8.0 / 8.0).abs() < 1e-9);
        assert_eq!(TileCacheStats::default().hit_rate(), 0.0);
    }
}
