//! Predictive tile serving: the headset-facing facade over sessions.
//!
//! The paper's serving story (VisualCloud §2): each VR viewer streams
//! the tile their predicted head orientation lands on at **high**
//! quality and the surrounding tiles at **low** quality, all cut from
//! the tiled bitstream *without decoding* (`TILESELECT`). A
//! [`TileServer`] is that story as an API: opened from a
//! [`Session`](crate::session::Session), it resolves one high-quality
//! and (optionally) one low-quality encoded stream of a TLF at a
//! pinned catalog version, and [`TileServer::serve`] answers
//! `(viewer, second, orientation)` with encoded tile bytes.
//!
//! Serving goes through the engine-wide
//! [`TileCache`] (unless disabled
//! by `LIGHTDB_TILE_CACHE_MB=0` or [`TileServerConfig::use_cache`]),
//! so a fleet of viewers staring at the same hot region costs one
//! extraction — everyone else hits cache or coalesces onto the
//! in-flight extraction. A miss costs one bounded copy of one tile:
//! [`EncodedGop::extract_tile_bytes_with`] reads the tile index straight
//! from the buffer pool's serialised GOP, which a serve fetches at most
//! once per tier, and writes the tile into a buffer the cache recycled
//! from an earlier eviction when one fits. Served bytes are
//! byte-identical to a direct
//! `EncodedGop::extract_tile(..).to_bytes()` of the pinned version by
//! construction: the cache key embeds the version and the extraction
//! closure is a pure function of it.
//!
//! [`TileServer::prefetch`] is the predictive half: from each
//! viewer's last two orientations it extrapolates the next one
//! (constant angular velocity, theta wrapping, phi clamped), warms
//! the buffer pool with the upcoming GOPs **in GOP-index order**
//! ([`lightdb_storage::BufferPool::prefetch_gop`] readahead), and
//! pre-extracts the predicted focus tile plus its low-quality
//! neighbor ring into the tile cache — so the next `serve` is a pure
//! cache hit if the head moved as predicted.
//!
//! It pre-extracts only tiles that can still be resident when their
//! viewer returns. Each serve stores the viewer's *return gap*: the
//! bytes the tile cache published since that viewer's previous serve,
//! read off the cache's clock (`exec::tilecache`, "The clock"). An
//! exact LRU evicts an entry nobody touched once a budget's worth of
//! bytes has been published after it, so when the last gap is at least
//! the cache's budget a warmed tile would be gone before the next serve
//! asked for it, and warming it would only have evicted tiles others
//! were about to hit. `prefetch` then keeps the pool readahead, skips
//! the warm and counts `tile_server.prefetch_skipped`. Per shard the
//! argument holds for the shard's `budget / shards`; cache-wide it
//! holds in expectation. The threshold is the budget the cache already
//! has and the gap comes from demand serves, so a viewer whose gap falls
//! back under the budget warms again at its next prefetch, and a
//! viewer's first prefetch, which has no gap yet, always warms.
//!
//! ## Views already warm
//!
//! A synchronised crowd predicts the same few views: on a 4×4 grid at
//! most 16 per second, for hundreds of viewers. The server keeps one
//! stamp per view, `(GOP entry, focus tile)`, allocated at open. A warm
//! whose every lookup succeeded stores `clock_before + published + 1`:
//! the clock read before its lookups, plus what its own misses
//! published. A later prefetch of the view whose stamp equals
//! `clock() + 1` skips the warm, counts `tile_server.prefetch_resident`
//! and returns 0, without a lookup or an allocation.
//!
//! The skip is exact. The LRU evicts only when a miss publishes, and
//! every publication moves the clock, so an equal stamp means nothing
//! was published since the warm but the warm's own tiles: the view is
//! as resident as the warm left it, and a second warm would be all hits
//! whose only effect is recency order. Recency matters only at the next
//! publication, and that publication moves the clock and re-enables the
//! warm. The stamp uses the clock read *before* the lookups, so a
//! publication by another client during the warm is not in it and the
//! stamp never matches; read after the warm, it would be folded in. Two
//! cases stay best-effort as all of prefetch is. A publication is on the
//! clock only once its call finishes, so a skip can pass a concurrent
//! eviction by that window, and its tile misses at the serve as it would
//! had the eviction come just after the warm. A view whose tiles
//! outgrow a shard's share (or a tile larger than a shard, which is
//! never kept) is never wholly resident, and a second warm would only
//! extract again what the first could not keep.

use crate::session::EngineShared;
use crate::Result;
use lightdb_codec::{EncodedGop, SequenceHeader, TileGrid};
use lightdb_container::{GopIndexEntry, TrackRole};
use lightdb_core::histogram::Histogram;
use lightdb_core::Quality;
use lightdb_exec::metrics::counters;
use lightdb_exec::tilecache::{TileCache, TileCacheStats, TileKey};
use lightdb_exec::{ExecError, Metrics};
use lightdb_storage::bufferpool::GopKey;
use lightdb_storage::{BufferPool, MediaStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lightdb_geom::{PHI_MAX, THETA_PERIOD};

/// A head orientation on the 360° sphere: `theta` (azimuth, wraps
/// modulo [`THETA_PERIOD`]) and `phi` (polar, clamped to
/// `[0, PHI_MAX]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Orientation {
    pub theta: f64,
    pub phi: f64,
}

impl Orientation {
    pub fn new(theta: f64, phi: f64) -> Orientation {
        Orientation { theta, phi }
    }

    /// Canonical form: theta wrapped into `[0, THETA_PERIOD)`, phi
    /// clamped into `[0, PHI_MAX]`.
    pub fn normalized(self) -> Orientation {
        Orientation {
            theta: self.theta.rem_euclid(THETA_PERIOD),
            phi: self.phi.clamp(0.0, PHI_MAX),
        }
    }

    /// The (col, row) grid cell this orientation looks at — the same
    /// equirectangular mapping as `apps::predictor::is_important`.
    pub fn cell_on(self, grid: TileGrid) -> (usize, usize) {
        let o = self.normalized();
        let (cols, rows) = (grid.cols, grid.rows);
        let col = ((o.theta / (THETA_PERIOD / cols as f64)) as usize).min(cols - 1);
        let row = ((o.phi / (PHI_MAX / rows as f64)) as usize).min(rows - 1);
        (col, row)
    }

    /// Row-major tile index of [`Orientation::cell_on`].
    pub fn tile_on(self, grid: TileGrid) -> usize {
        let (col, row) = self.cell_on(grid);
        grid.index_of(col, row)
    }

    /// The center orientation of a row-major tile — the inverse of
    /// [`Orientation::tile_on`] up to quantization (useful for
    /// driving `serve` from a tile-valued predictor).
    pub fn tile_center(tile: usize, grid: TileGrid) -> Orientation {
        let (cols, rows) = (grid.cols, grid.rows);
        let (col, row) = (tile % cols, tile / cols);
        Orientation {
            theta: (col as f64 + 0.5) * THETA_PERIOD / cols as f64,
            phi: (row as f64 + 0.5) * PHI_MAX / rows as f64,
        }
    }
}

/// Per-server serving policy.
#[derive(Debug, Clone, Copy)]
pub struct TileServerConfig {
    /// Chebyshev radius of the low-quality neighbor ring around the
    /// focus tile (`1` = the 8 surrounding tiles; `0` = focus only).
    pub neighbor_ring: usize,
    /// How many upcoming GOPs `prefetch` warms into the buffer pool,
    /// in GOP-index order.
    pub prefetch_gops: usize,
    /// Route tile requests through the engine-wide tile cache. Off,
    /// every request extracts privately — the bench's baseline.
    pub use_cache: bool,
}

impl Default for TileServerConfig {
    fn default() -> TileServerConfig {
        TileServerConfig {
            neighbor_ring: 1,
            prefetch_gops: 1,
            use_cache: true,
        }
    }
}

/// One encoded tile as served to a headset.
#[derive(Debug, Clone)]
pub struct ServedTile {
    /// Row-major tile index in the stream's grid.
    pub tile: usize,
    /// Which quality tier the bytes were cut from.
    pub quality: Quality,
    /// The serialized single-tile GOP
    /// (`EncodedGop::extract_tile(tile).to_bytes()`).
    pub bytes: Arc<Vec<u8>>,
}

/// One answered `serve` call: the high-quality focus tile plus the
/// low-quality neighbor ring for one GOP window.
#[derive(Debug, Clone)]
pub struct ServedView {
    pub viewer: u64,
    pub second: u64,
    /// Row-major focus tile (where the orientation points).
    pub focus: usize,
    pub primary: ServedTile,
    pub neighbors: Vec<ServedTile>,
}

/// One resolved quality tier: a pinned catalog version's video track
/// with its parsed header and GOP index.
#[derive(Debug)]
struct StreamState {
    name: Arc<str>,
    version: u64,
    track: usize,
    media_path: String,
    media: MediaStore,
    entries: Vec<GopIndexEntry>,
    /// Each entry's key in the buffer pool, built once at open: a serve
    /// or prefetch borrows one instead of building it.
    pool_keys: Vec<GopKey>,
    quality: Quality,
}

impl StreamState {
    fn read_gop(&self, entry: &GopIndexEntry) -> std::result::Result<Vec<u8>, ExecError> {
        self.media.read_gop_bytes(&self.media_path, entry).map_err(ExecError::Storage)
    }
}

/// One tier's side of one serve or prefetch: the GOP the call is
/// about, the tile-cache key for it (only `tile` varies), and the GOP's
/// bytes once a miss has fetched them from the pool.
struct TierGop<'a> {
    stream: &'a StreamState,
    entry: GopIndexEntry,
    pool_key: &'a GopKey,
    key: TileKey,
    gop: Option<Arc<Vec<u8>>>,
    /// Capacity of the tiles this tier's misses extracted: what they
    /// published on the tile cache's clock.
    published: u64,
}

impl<'a> TierGop<'a> {
    fn new(stream: &'a StreamState, entry_idx: usize) -> TierGop<'a> {
        let entry = stream.entries[entry_idx];
        let pool_key = &stream.pool_keys[entry_idx];
        let key = TileKey {
            tlf: stream.name.clone(),
            version: stream.version,
            track: stream.track,
            gop: entry.start_frame,
            tile: 0,
            quality: stream.quality,
        };
        TierGop { stream, entry, pool_key, key, gop: None, published: 0 }
    }

    /// The encoded bytes of `tile`, through `cache` when there is one.
    fn tile(
        &mut self,
        pool: &BufferPool,
        cache: Option<&TileCache>,
        tally: &mut TileCacheStats,
        tile: usize,
    ) -> Result<Arc<Vec<u8>>> {
        let (stream, entry, pool_key) = (self.stream, &self.entry, self.pool_key);
        let (gop, published) = (&mut self.gop, &mut self.published);
        let mut extract = |buffer: &mut dyn FnMut(usize) -> Vec<u8>| {
            let bytes = match gop {
                Some(bytes) => bytes,
                None => gop.insert(pool.get_gop::<ExecError>(pool_key, || {
                    stream.read_gop(entry)
                })?),
            };
            let tile = EncodedGop::extract_tile_bytes_with(bytes, tile, buffer)?;
            *published += tile.capacity() as u64;
            Ok(tile)
        };
        match cache {
            Some(cache) => {
                self.key.tile = tile;
                Ok(cache.get_or_extract_tallied(&self.key, tally, &|| false, extract)?)
            }
            None => Ok(Arc::new(extract(&mut Vec::with_capacity)?)),
        }
    }
}

/// One serve's or prefetch's fetches: both tiers' GOP of the call, and
/// the tile cache's counts for it, which go to the session's
/// [`Metrics`] once, at [`ViewFetch::finish`].
struct ViewFetch<'a> {
    server: &'a TileServer,
    cache: Option<&'a TileCache>,
    high: TierGop<'a>,
    /// `None` when the server has no low-quality stream: the ring then
    /// comes from `high`, GOP fetch shared.
    low: Option<TierGop<'a>>,
    tally: TileCacheStats,
}

impl<'a> ViewFetch<'a> {
    fn new(server: &'a TileServer, entry_idx: usize) -> ViewFetch<'a> {
        ViewFetch {
            server,
            cache: server.cache(),
            high: TierGop::new(&server.hq, entry_idx),
            low: server.lq.as_ref().map(|lq| TierGop::new(lq, entry_idx)),
            tally: TileCacheStats::default(),
        }
    }

    fn fetch(&mut self, low: bool, tile: usize) -> Result<ServedTile> {
        let tier = self.low.as_mut().filter(|_| low).unwrap_or(&mut self.high);
        let bytes = tier.tile(&self.server.shared.pool, self.cache, &mut self.tally, tile)?;
        Ok(ServedTile { tile, quality: tier.stream.quality, bytes })
    }

    /// The tile the viewer looks at, at high quality.
    fn focus(&mut self, tile: usize) -> Result<ServedTile> {
        self.fetch(false, tile)
    }

    /// A tile of the ring around it, at low quality.
    fn neighbor(&mut self, tile: usize) -> Result<ServedTile> {
        self.fetch(true, tile)
    }

    /// Bytes this call's misses published, both tiers together.
    fn published(&self) -> u64 {
        self.high.published + self.low.as_ref().map_or(0, |tier| tier.published)
    }

    /// Adds the call's `tile_cache.*` counts and its own `tile_server.*`
    /// count to the session's metrics, and its misses' bytes to the tile
    /// cache's clock.
    fn finish(self, served: (&'static str, u64)) {
        if let Some(cache) = self.cache {
            cache.advance_clock(self.published());
        }
        self.server.metrics.add_all(self.tally.counters().into_iter().chain([served]));
    }
}

/// Last observed orientations of one viewer, for prediction, and where
/// the tile cache's clock stood at their serves.
#[derive(Debug, Clone, Copy)]
struct ViewerTrack {
    last: (u64, Orientation),
    prev: Option<(u64, Orientation)>,
    /// The tile cache's clock at the viewer's last serve.
    clock: u64,
    /// Bytes the tile cache published between the viewer's last two
    /// serves; `None` until the viewer has been served twice.
    gap: Option<u64>,
}

/// The serving facade. Open one per session via
/// [`Session::tile_server`](crate::session::Session::tile_server);
/// the server is `Send + Sync`, so one instance can serve a whole
/// fleet from a worker pool.
pub struct TileServer {
    shared: Arc<EngineShared>,
    metrics: Metrics,
    /// The session's `tile_server.serve` histogram, resolved at open so
    /// a serve records without taking the session's latency map lock.
    serve_latency: Arc<Histogram>,
    config: TileServerConfig,
    grid: TileGrid,
    fps: u32,
    hq: StreamState,
    lq: Option<StreamState>,
    /// Viewer `v`'s track lives in table `v % VIEWER_TABLES`, so
    /// clients serving different viewers seldom meet on one mutex.
    viewers: [Mutex<HashMap<u64, ViewerTrack>>; VIEWER_TABLES],
    /// One stamp per view `prefetch` can warm, at `entry * tiles +
    /// focus`: the clock the view's last complete warm left had nobody
    /// else published, plus one; 0 until a warm completes (module docs,
    /// "Views already warm"). `Relaxed`: a stamp publishes no data, and
    /// a stale one only costs a warm.
    warm_stamps: Box<[AtomicU64]>,
}

const VIEWER_TABLES: usize = 16;

impl std::fmt::Debug for TileServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileServer")
            .field("hq", &self.hq.name)
            .field("version", &self.hq.version)
            .field("grid", &self.grid)
            .finish_non_exhaustive()
    }
}

impl TileServer {
    /// Resolves `name` (and optionally a low-quality companion) at
    /// their *latest* catalog versions and pins them for the life of
    /// the server. A re-ingest under the same name is invisible here —
    /// and visible to the next server opened — which is exactly what
    /// makes the tile-cache keys (they embed the version) stale-proof.
    pub(crate) fn open(
        shared: Arc<EngineShared>,
        metrics: Metrics,
        config: TileServerConfig,
        hq_name: &str,
        lq_name: Option<&str>,
    ) -> Result<TileServer> {
        let (hq, header) = Self::resolve(&shared, hq_name, Quality::High)?;
        let grid = header.grid;
        if grid.tile_count() == 0 || hq.entries.is_empty() {
            return Err(crate::Error::Exec(ExecError::Domain(format!(
                "TLF {hq_name} has no tiles or no GOPs to serve"
            ))));
        }
        let lq = match lq_name {
            None => None,
            Some(name) => {
                let (lq, lq_header) = Self::resolve(&shared, name, Quality::Low)?;
                // The two tiers must be cut on the same grid and GOP
                // cadence, or "the same tile at low quality" has no
                // meaning and entry indexes would not line up.
                let aligned = lq_header.grid == grid
                    && lq_header.fps == header.fps
                    && lq.entries.len() == hq.entries.len()
                    && lq
                        .entries
                        .iter()
                        .zip(hq.entries.iter())
                        .all(|(a, b)| a.start_frame == b.start_frame);
                if !aligned {
                    return Err(crate::Error::Exec(ExecError::Align(format!(
                        "low-quality stream {name} does not mirror {hq_name}'s grid/GOP cadence"
                    ))));
                }
                Some(lq)
            }
        };
        Ok(TileServer {
            shared,
            serve_latency: metrics.histogram(counters::SERVE_LATENCY),
            metrics,
            config,
            grid,
            fps: header.fps,
            warm_stamps: (0..hq.entries.len() * grid.tile_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            hq,
            lq,
            viewers: Default::default(),
        })
    }

    fn resolve(
        shared: &EngineShared,
        name: &str,
        quality: Quality,
    ) -> Result<(StreamState, SequenceHeader)> {
        let stored = shared.catalog.read(name, None)?;
        let track = stored
            .metadata
            .tracks
            .iter()
            .position(|t| t.role == TrackRole::Video)
            .ok_or_else(|| ExecError::Other(format!("TLF {name} has no video track")))?;
        let media = stored.media();
        let media_path = stored.metadata.tracks[track].media_path.clone();
        let header = media.read_stream_header(&media_path)?;
        let entries = stored.metadata.tracks[track].gop_index.clone();
        let pool_media = media.path_of(&media_path).display().to_string();
        let pool_keys =
            entries.iter().map(|e| GopKey { media: pool_media.clone(), gop: e.start_frame }).collect();
        Ok((
            StreamState {
                name: Arc::from(name),
                version: stored.version,
                track,
                media_path,
                media,
                entries,
                pool_keys,
                quality,
            },
            header,
        ))
    }

    /// The tile grid both tiers are cut on.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// The pinned catalog version of the high-quality stream.
    pub fn version(&self) -> u64 {
        self.hq.version
    }

    /// Whole seconds of video available (for trace generators that
    /// want to wrap their clocks instead of pinning the last GOP).
    pub fn duration_seconds(&self) -> u64 {
        let frames = self
            .hq
            .entries
            .last()
            .map(|e| e.start_frame + e.frame_count)
            .unwrap_or(0);
        (frames / u64::from(self.fps.max(1))).max(1)
    }

    /// Index into the GOP index for playback second `second`, clamped
    /// to the final GOP past end-of-stream.
    fn entry_index(&self, second: u64) -> usize {
        let frame = second.saturating_mul(u64::from(self.fps));
        let entries = &self.hq.entries;
        // The index is in playback order: the first GOP that ends past
        // `frame` is the only one that can hold it.
        let at = entries.partition_point(|e| e.start_frame + e.frame_count <= frame);
        match entries.get(at) {
            Some(e) if e.start_frame <= frame => at,
            _ => entries.len() - 1,
        }
    }

    /// The neighbor-ring cells around `focus` (Chebyshev radius from
    /// the config), theta-wrapping across columns and clamping rows,
    /// deduplicated, focus excluded.
    fn ring_of(&self, focus: usize) -> Vec<usize> {
        let (cols, rows) = (self.grid.cols, self.grid.rows);
        let (fc, fr) = (focus % cols, focus / cols);
        let r = self.config.neighbor_ring as isize;
        let mut out = Vec::new();
        for dr in -r..=r {
            for dc in -r..=r {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let row = fr as isize + dr;
                if row < 0 || row >= rows as isize {
                    continue; // poles do not wrap
                }
                let col = (fc as isize + dc).rem_euclid(cols as isize);
                let tile = row as usize * cols + col as usize;
                if tile != focus && !out.contains(&tile) {
                    out.push(tile);
                }
            }
        }
        out
    }

    /// Serves one viewer's view for playback second `second`: the
    /// high-quality tile their orientation points at, plus the
    /// low-quality neighbor ring (from the low-quality stream when
    /// the server has one, else from the high-quality stream).
    ///
    /// Also records the orientation as the viewer's latest, feeding
    /// [`TileServer::prefetch`]'s prediction.
    pub fn serve(&self, viewer: u64, second: u64, orientation: Orientation) -> Result<ServedView> {
        let start = Instant::now();
        let focus = orientation.tile_on(self.grid);
        let mut view = ViewFetch::new(self, self.entry_index(second));
        let tiles = view.focus(focus).and_then(|primary| {
            let ring = self.ring_of(focus).into_iter();
            let neighbors = ring.map(|tile| view.neighbor(tile)).collect::<Result<Vec<_>>>()?;
            Ok((primary, neighbors))
        });
        view.finish((counters::TILE_SERVES, u64::from(tiles.is_ok())));
        let (primary, neighbors) = tiles?;
        self.note(viewer, second, orientation);
        self.serve_latency.record(start.elapsed());
        Ok(ServedView {
            viewer,
            second,
            focus,
            primary,
            neighbors,
        })
    }

    /// The tile cache this server's tiles go through, if any.
    fn cache(&self) -> Option<&TileCache> {
        self.shared.tile_cache.as_deref().filter(|_| self.config.use_cache)
    }

    fn viewer_table(&self, viewer: u64) -> std::sync::MutexGuard<'_, HashMap<u64, ViewerTrack>> {
        let table = &self.viewers[(viewer % VIEWER_TABLES as u64) as usize];
        table.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note(&self, viewer: u64, second: u64, orientation: Orientation) {
        let mut viewers = self.viewer_table(viewer);
        // Read under the table's lock, so the serves of one viewer read
        // the clock in the order they update its track; the subtraction
        // saturates all the same.
        let clock = self.cache().map_or(0, TileCache::clock);
        let o = orientation.normalized();
        match viewers.get_mut(&viewer) {
            Some(t) => {
                if t.last.0 != second {
                    t.prev = Some(t.last);
                }
                t.last = (second, o);
                t.gap = Some(clock.saturating_sub(t.clock));
                t.clock = clock;
            }
            None => {
                viewers.insert(
                    viewer,
                    ViewerTrack {
                        last: (second, o),
                        prev: None,
                        clock,
                        gap: None,
                    },
                );
            }
        }
    }

    /// Predicts `viewer`'s orientation for the *next* second by
    /// constant-angular-velocity extrapolation of their last two
    /// observed orientations (theta wraps, phi clamps; with fewer
    /// than two observations the last orientation is reused), then
    /// warms:
    ///
    /// * the **buffer pool**, with the next [`TileServerConfig::prefetch_gops`]
    ///   GOPs of both tiers in GOP-index order
    ///   ([`lightdb_storage::BufferPool::prefetch_gop`] — demand-neutral
    ///   readahead), and
    /// * the **tile cache**, with the predicted focus tile (high
    ///   quality) and its neighbor ring (low quality) for the next
    ///   GOP — unless the tile cache published at least its budget
    ///   between the viewer's last two serves. An exact LRU would then
    ///   evict the warmed tiles before the viewer returned (module
    ///   docs), so the warm is skipped and counted in
    ///   `tile_server.prefetch_skipped`. The warm is also skipped,
    ///   and counted in `tile_server.prefetch_resident`, when the
    ///   predicted view was warmed before with every lookup succeeding
    ///   and the tile cache has published nothing since: its stamp
    ///   equals the clock plus one, every tile of it is still resident,
    ///   and a warm would only refresh recency (module docs, "Views
    ///   already warm").
    ///
    /// Best-effort: individual failures are skipped (they would
    /// resurface on the demand `serve` anyway). Returns the number of
    /// tiles warmed; unknown viewers warm nothing.
    pub fn prefetch(&self, viewer: u64) -> usize {
        let Some(track) = self.viewer_table(viewer).get(&viewer).copied() else {
            return 0;
        };
        let (second, last) = track.last;
        let predicted = match track.prev {
            Some((prev_second, prev)) if prev_second < second => {
                let dt = (second - prev_second) as f64;
                // Shortest angular difference so a wrap-around pan
                // does not read as a full-circle sprint.
                let mut dtheta = (last.theta - prev.theta) / dt;
                if dtheta > THETA_PERIOD / 2.0 {
                    dtheta -= THETA_PERIOD;
                } else if dtheta < -THETA_PERIOD / 2.0 {
                    dtheta += THETA_PERIOD;
                }
                let dphi = (last.phi - prev.phi) / dt;
                Orientation::new(last.theta + dtheta, last.phi + dphi).normalized()
            }
            _ => last,
        };
        let next_second = second + 1;
        let next_idx = self.entry_index(next_second);
        // Buffer-pool readahead: upcoming GOPs in index order.
        for stream in std::iter::once(&self.hq).chain(self.lq.as_ref()) {
            let until = (next_idx + self.config.prefetch_gops).min(stream.entries.len());
            let keys = &stream.pool_keys[next_idx..until];
            for (entry, key) in stream.entries[next_idx..until].iter().zip(keys) {
                // Best-effort: a failed readahead is retried (and
                // properly surfaced) by the demand path.
                let _loaded = self
                    .shared
                    .pool
                    .prefetch_gop::<ExecError>(key, || stream.read_gop(entry))
                    .is_ok();
            }
        }
        // Tile-cache warm for the predicted view, if it can outlive the
        // viewer's return.
        let Some(cache) = self.cache() else {
            return 0;
        };
        if track.gap.is_some_and(|gap| gap >= cache.budget_bytes() as u64) {
            self.metrics.bump(counters::TILE_PREFETCH_SKIPPED);
            return 0;
        }
        let focus = predicted.tile_on(self.grid);
        // Nothing published since this view's last complete warm: every
        // tile of it is still resident, and a warm would be all hits.
        let stamp = &self.warm_stamps[next_idx * self.grid.tile_count() + focus];
        let clock_before = cache.clock();
        if stamp.load(Ordering::Relaxed) == clock_before + 1 {
            self.metrics.bump(counters::TILE_PREFETCH_RESIDENT);
            return 0;
        }
        let mut view = ViewFetch::new(self, next_idx);
        let ring = self.ring_of(focus);
        let lookups = 1 + ring.len();
        let warmed = usize::from(view.focus(focus).is_ok())
            + ring.into_iter().filter(|&tile| view.neighbor(tile).is_ok()).count();
        let published = view.published();
        view.finish((counters::TILE_PREFETCHED, warmed as u64));
        if warmed == lookups {
            stamp.store(clock_before + published + 1, Ordering::Relaxed);
        }
        warmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::TileGrid;

    fn grid(cols: usize, rows: usize) -> TileGrid {
        TileGrid { cols, rows }
    }

    #[test]
    fn orientation_maps_to_cells_like_the_predictor() {
        let g = grid(4, 4);
        // Centers of all 16 tiles round-trip.
        for tile in 0..16 {
            let o = Orientation::tile_center(tile, g);
            assert_eq!(o.tile_on(g), tile, "tile {tile} center {o:?}");
        }
        // Wrapping theta and clamped phi stay in range.
        let o = Orientation::new(THETA_PERIOD + 0.1, -1.0);
        let (col, row) = o.cell_on(g);
        assert!(col < 4 && row < 4);
        assert_eq!(
            Orientation::new(THETA_PERIOD - 1e-9, PHI_MAX).tile_on(g),
            15
        );
    }

    #[test]
    fn tile_center_matches_raster_predictor_importance() {
        // The apps::predictor raster protocol marks tile (second %
        // count); serving its center orientation must focus the same
        // tile — the two mappings agree.
        let g = grid(4, 2);
        for second in 0..16usize {
            let target = second % 8;
            let o = Orientation::tile_center(target, g);
            assert_eq!(o.tile_on(g), target, "second {second}");
        }
    }
}
