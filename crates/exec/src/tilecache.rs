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
//! `tile_cache.recycled` counts the misses among them that wrote into
//! a recycled buffer (below).
//!
//! ## Recycled buffers
//!
//! A miss that publishes usually evicts a tile, and tiles are a few
//! kilobytes: too large for the allocator's per-thread cache, so
//! freeing one made by another client's thread takes that thread's
//! arena lock. Instead, a publication's victims that nobody else holds
//! go into a small per-thread bin of spare buffers, and this thread's
//! next miss writes into one of them when it fits: capacity between the
//! tile's exact length `n` and `n + n/8`. Otherwise the miss allocates
//! exactly `n` bytes. In steady state no tile buffer is allocated or
//! freed, so clients stop meeting in the allocator.
//!
//! An entry weighs its buffer's capacity, so the budget bounds the
//! memory entries really hold. The bin sits outside the budget: each
//! thread keeps at most 32 buffers and at most one shard's share of the
//! budget in them.

use crate::metrics::{counters, Metrics};
use crate::Result;
use lightdb_core::Quality;
use lightdb_storage::lru::{SingleFlightLru, Source};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default encoded-tile cache budget: 64 MiB. Encoded tiles are tiny
/// (a tile's slice of each frame at one quality), so this holds many
/// thousands of hot tiles. Engines read `LIGHTDB_TILE_CACHE_MB`.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// A shard is worth its lock only if it can hold a working set of
/// tiles: no shard gets less than this.
const MIN_SHARD_BYTES: usize = 64 << 10;
const MAX_SHARDS: usize = 16;

/// Most spare buffers one thread keeps.
const SPARE_BUFFERS: usize = 32;

thread_local! {
    // Per-thread, like `frameops`' codec scratch: a buffer goes back to
    // the thread whose publication evicted it, so taking and keeping
    // spares never contends.
    static SPARES: RefCell<Spares> = const { RefCell::new(Spares { buffers: Vec::new(), bytes: 0 }) };
}

/// One thread's spare tile buffers, oldest first, and their capacity.
struct Spares {
    buffers: Vec<Vec<u8>>,
    bytes: usize,
}

impl Spares {
    /// The smallest spare whose capacity is in `n..=n + n/8`.
    fn take(&mut self, n: usize) -> Option<Vec<u8>> {
        let fits = n..=n + n / 8;
        let (at, _) = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| fits.contains(&b.capacity()))
            .min_by_key(|(_, b)| b.capacity())?;
        let buffer = self.buffers.remove(at);
        self.bytes -= buffer.capacity();
        Some(buffer)
    }

    /// Keeps `buffer`, letting the oldest spares go until at most
    /// [`SPARE_BUFFERS`] buffers of at most `limit` bytes remain. A
    /// buffer larger than `limit` is dropped.
    fn keep(&mut self, buffer: Vec<u8>, limit: usize) {
        let cap = buffer.capacity();
        if cap == 0 || cap > limit {
            return;
        }
        while self.buffers.len() >= SPARE_BUFFERS || self.bytes + cap > limit {
            let old = self.buffers.remove(0);
            self.bytes -= old.capacity();
        }
        self.bytes += cap;
        self.buffers.push(buffer);
    }
}

/// A buffer for a miss's `n`-byte tile, and whether it was recycled.
fn tile_buffer(n: usize) -> (Vec<u8>, bool) {
    match SPARES.try_with(|s| s.borrow_mut().take(n)).ok().flatten() {
        Some(buffer) => (buffer, true),
        None => (Vec::with_capacity(n), false),
    }
}

/// Bins the victims nobody else holds; the rest just drop a reference.
fn keep_spares(victims: Vec<(TileKey, Arc<Vec<u8>>)>, limit: usize) {
    let _ = SPARES.try_with(|s| {
        let mut spares = s.borrow_mut();
        for buffer in victims.into_iter().filter_map(|(_, tile)| Arc::try_unwrap(tile).ok()) {
            spares.keep(buffer, limit);
        }
    });
}

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
    /// Misses that wrote into a recycled buffer instead of a new one.
    pub recycled: u64,
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
            recycled: self.recycled.saturating_sub(earlier.recycled),
        }
    }

    /// The `tile_cache.*` counters these counts stand for.
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            (counters::TILE_CACHE_HITS, self.hits),
            (counters::TILE_CACHE_MISSES, self.misses),
            (counters::TILE_CACHE_COALESCED, self.coalesced),
            (counters::TILE_CACHE_EVICTIONS, self.evictions),
            (counters::TILE_CACHE_RECYCLED, self.recycled),
        ]
    }
}

/// A counter on a cache line of its own: both clients' misses bump it,
/// and it must not drag the fields every lookup reads along with it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded(AtomicU64);

/// The cross-user encoded-tile facility: single-flight extraction
/// plus a byte-bounded LRU of serialized single-tile GOPs. One per
/// engine, shared by every session's `TileServer`.
#[derive(Debug)]
pub struct TileCache {
    lru: SingleFlightLru<TileKey, Arc<Vec<u8>>>,
    /// Most bytes a thread keeps in spare buffers: one shard's share.
    spare_limit: usize,
    recycled: Padded,
}

impl TileCache {
    /// A cache bounded by `budget_bytes` of tile buffer capacity.
    pub fn new(budget_bytes: usize) -> TileCache {
        let shards = (budget_bytes / MIN_SHARD_BYTES).min(MAX_SHARDS);
        let lru = SingleFlightLru::new(budget_bytes, shards);
        let spare_limit = budget_bytes / lru.shard_count();
        TileCache { lru, spare_limit, recycled: Padded::default() }
    }

    /// Capacity of the resident tiles' buffers, in bytes.
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
            recycled: self.recycled.0.load(Ordering::Relaxed),
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
    /// succeeds. It is handed a source of buffers to call once it knows
    /// its output's exact length `n` (what
    /// `EncodedGop::extract_tile_bytes_with` takes): a recycled spare
    /// when one fits, else a new buffer of capacity `n`. Its result is
    /// served as returned, whatever buffer it wrote into.
    ///
    /// Waiting on another request's in-flight extraction polls
    /// `should_abort` each step; an aborted wait returns
    /// [`ExecError::Cancelled`](crate::ExecError::Cancelled).
    ///
    /// Exactly one of `tally`'s hits / coalesced / misses grows by one
    /// per successful call, evictions by what the publication evicted,
    /// and recycled by one for a miss that wrote into a spare: a caller
    /// serving many tiles sums locally and adds to its [`Metrics`] once.
    pub fn get_or_extract_tallied(
        &self,
        key: &TileKey,
        tally: &mut TileCacheStats,
        should_abort: &dyn Fn() -> bool,
        extract: impl FnOnce(&mut dyn FnMut(usize) -> Vec<u8>) -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        let mut recycled = false;
        let served = self.lru.get_or_compute_with_victims(
            key,
            &|| should_abort().then_some(crate::ExecError::Cancelled),
            || {
                let tile = extract(&mut |n| {
                    let (buffer, spare) = tile_buffer(n);
                    recycled = spare;
                    buffer
                })?;
                let weight = tile.capacity();
                Ok((Arc::new(tile), weight))
            },
            |victims| keep_spares(victims, self.spare_limit),
        )?;
        match served.source {
            Source::Hit => tally.hits += 1,
            Source::Coalesced => tally.coalesced += 1,
            Source::Miss => {
                tally.misses += 1;
                if recycled {
                    tally.recycled += 1;
                    self.recycled.0.fetch_add(1, Ordering::Relaxed);
                }
            }
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
        let tile = self.get_or_extract_tallied(key, &mut tally, should_abort, |_| extract());
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
                .get_or_extract_tallied(&key(t), &mut tally, &|| false, |_| Ok(payload(t, 100)))
                .unwrap();
        }
        assert_eq!(tally, TileCacheStats { hits: 1, misses: 3, coalesced: 0, evictions: 1, recycled: 0 });
        assert_eq!(tally, cache.stats());
    }

    /// Bytes of this thread's spare tile buffers.
    fn spare_bytes() -> usize {
        SPARES.with_borrow(|s| s.bytes)
    }

    /// A one-GOP, three-frame stream whose tile `t` is `sizes[t]` bytes
    /// a frame, serialised.
    fn gop_bytes(sizes: &[usize]) -> Vec<u8> {
        use lightdb_codec::gop::{EncodedFrame, EncodedGop, FrameType};
        let frames: Vec<EncodedFrame> = (0..3)
            .map(|f| EncodedFrame {
                frame_type: if f == 0 { FrameType::Key } else { FrameType::Predicted },
                tiles: sizes.iter().enumerate().map(|(t, &n)| payload(t * 7 + f, n)).collect(),
            })
            .collect();
        EncodedGop::from_frames(&frames).unwrap().to_bytes()
    }

    /// Serves `tile` of `gop` through the extractor the tile server uses.
    fn serve(cache: &TileCache, tally: &mut TileCacheStats, gop: &[u8], tile: usize) -> Arc<Vec<u8>> {
        use lightdb_codec::gop::EncodedGop;
        cache
            .get_or_extract_tallied(&key(tile), tally, &|| false, |buffer| {
                Ok(EncodedGop::extract_tile_bytes_with(gop, tile, buffer)?)
            })
            .unwrap()
    }

    /// Runs `f` on a thread of its own, so it starts with no spares.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| s.spawn(f).join().unwrap());
    }

    /// A tile written into the buffer a larger, different tile left
    /// behind is exactly the new tile's bytes, and the entry weighs the
    /// buffer's capacity.
    #[test]
    fn a_recycled_buffer_holds_exactly_the_new_tile() {
        on_fresh_thread(|| {
            use lightdb_codec::gop::EncodedGop;
            // Tile 0 is the largest; tile 2 is within an eighth of it.
            let gop = gop_bytes(&[400, 390, 370]);
            let want = |t| EncodedGop::extract_tile_bytes(&gop, t).unwrap();
            let (n0, n2) = (want(0).len(), want(2).len());
            assert!(n2 < n0 && n0 <= n2 + n2 / 8, "{n0} {n2}");
            // Room for one tile: each miss evicts the one before.
            let cache = TileCache::new(n0 + n0 / 2);
            let mut tally = TileCacheStats::default();
            let first = serve(&cache, &mut tally, &gop, 0);
            let (first_at, first_cap) = (first.as_ptr(), first.capacity());
            drop(first);
            // Publishing tile 1 evicts tile 0, whose buffer nobody holds.
            let _second = serve(&cache, &mut tally, &gop, 1);
            assert_eq!(spare_bytes(), first_cap);
            let third = serve(&cache, &mut tally, &gop, 2);
            assert_eq!(*third, want(2));
            assert_eq!(third.len(), n2);
            assert_eq!(third.as_ptr(), first_at, "tile 2 reuses tile 0's buffer");
            assert_eq!(third.capacity(), first_cap);
            assert_eq!(cache.resident_bytes(), first_cap, "weighed by capacity");
            assert_eq!((tally.misses, tally.recycled), (3, 1));
            assert_eq!(tally, cache.stats());
            // A hit serves the recycled entry as published.
            assert_eq!(*serve(&cache, &mut tally, &gop, 2), want(2));
            assert_eq!((tally.hits, tally.recycled), (1, 1));
        });
    }

    /// A victim that a served tile still holds is never binned: its
    /// bytes stay intact and the next miss gets a buffer of its own.
    #[test]
    fn a_victim_still_held_is_never_recycled() {
        on_fresh_thread(|| {
            use lightdb_codec::gop::EncodedGop;
            let gop = gop_bytes(&[400, 390, 370]);
            let want = |t| EncodedGop::extract_tile_bytes(&gop, t).unwrap();
            let n0 = want(0).len();
            let cache = TileCache::new(n0 + n0 / 2);
            let mut tally = TileCacheStats::default();
            let held = serve(&cache, &mut tally, &gop, 0);
            serve(&cache, &mut tally, &gop, 1);
            assert!(!cache.contains(&key(0)), "tile 0 was evicted");
            assert_eq!(spare_bytes(), 0, "a held victim is not a spare");
            let third = serve(&cache, &mut tally, &gop, 2);
            assert_ne!(third.as_ptr(), held.as_ptr());
            assert_eq!(*held, want(0), "the held tile's bytes are intact");
            assert_eq!(*third, want(2));
            assert_eq!(tally.recycled, 0);
        });
    }

    /// Over a seeded run of tiles of mixed sizes the capacity-weighted
    /// resident bytes never exceed the budget, every served tile is its
    /// own bytes, most misses recycle, and the bin keeps its bounds.
    #[test]
    fn capacity_weights_keep_resident_bytes_within_budget() {
        on_fresh_thread(|| {
            const BUDGET: usize = 16 << 10;
            let cache = TileCache::new(BUDGET);
            let mut tally = TileCacheStats::default();
            let mut state = 0x7e5u64;
            let mut next = move |n: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let len = |t: usize| 300 + (t * 733) % 1500;
            for _ in 0..4_000 {
                let t = next(48) as usize;
                let got = cache
                    .get_or_extract_tallied(&key(t), &mut tally, &|| false, |buffer| {
                        let mut out = buffer(len(t));
                        out.clear();
                        out.extend_from_slice(&payload(t, len(t)));
                        Ok(out)
                    })
                    .unwrap();
                assert_eq!(*got, payload(t, len(t)));
                assert!(cache.resident_bytes() <= BUDGET, "{}", cache.resident_bytes());
                assert!(spare_bytes() <= BUDGET);
                assert!(SPARES.with_borrow(|s| s.buffers.len()) <= SPARE_BUFFERS);
            }
            assert!(tally.evictions > 1_000, "{tally:?}");
            assert!(tally.recycled * 2 > tally.misses, "{tally:?}");
        });
    }

    #[test]
    fn stats_since_subtracts() {
        let a = TileCacheStats {
            hits: 10,
            misses: 4,
            coalesced: 2,
            evictions: 1,
            recycled: 3,
        };
        let b = TileCacheStats {
            hits: 4,
            misses: 4,
            coalesced: 0,
            evictions: 0,
            recycled: 1,
        };
        let d = a.since(&b);
        assert_eq!(
            d,
            TileCacheStats {
                hits: 6,
                misses: 0,
                coalesced: 2,
                evictions: 1,
                recycled: 2,
            }
        );
        assert!((d.hit_rate() - 8.0 / 8.0).abs() < 1e-9);
        assert_eq!(TileCacheStats::default().hit_rate(), 0.0);
    }
}
