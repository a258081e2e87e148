//! Prefetch warms the tile cache only for viewers whose tiles can
//! outlive their return.
//!
//! Each serve stores the viewer's return gap: the bytes the tile cache
//! published between that viewer's last two serves. When the gap is at
//! least the cache's budget, an exact LRU would evict a warmed tile
//! before the viewer came back for it, so `TileServer::prefetch` keeps
//! its buffer-pool readahead, skips the tile warm, returns 0 and counts
//! `tile_server.prefetch_skipped`. These tests pin that on a 1 MiB cache
//! under 7 MB of tiles:
//!
//! * a desynchronised audience of 256 viewers warms nothing after its
//!   first round, and still serves the direct extraction's bytes;
//! * a few viewers, whose gaps stay under the budget, keep warming, and
//!   a correctly predicted serve is all hits;
//! * a viewer whose gap falls back under the budget warms again;
//! * four threads replaying the same viewers second-major, whose serves
//!   of one viewer race on its track, never panic.
//!
//! Its own test binary, because `LIGHTDB_TILE_CACHE_MB` is read by every
//! engine the process opens.

use lightdb::codec::{TileGrid, VideoStream};
use lightdb::exec::metrics::counters as names;
use lightdb::exec::tilecache::TileCache;
use lightdb::ingest::{store_stream, IngestConfig};
use lightdb::prelude::*;
use lightdb_apps::fleet::{run_fleet, FleetConfig, TraceKind};
use lightdb_testsuite::tiled_stream;
use std::path::PathBuf;
use std::sync::{Arc, Once};

const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
const SECONDS: usize = 96;

/// An engine on a 1 MiB tile cache holding a high tier of ~3.3 KB tiles
/// (`wide`) and a low tier of ~1.3 KB tiles (`wide_lq`), 96 s each: 7 MB
/// of tiles, so a round of 256 scattered viewers publishes over twice
/// the budget.
struct Fixture {
    root: PathBuf,
    db: LightDb,
    tiers: [VideoStream; 2],
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        static CACHE_MB: Once = Once::new();
        // Set once and left set: every engine of this binary gets 1 MiB.
        CACHE_MB.call_once(|| std::env::set_var("LIGHTDB_TILE_CACHE_MB", "1"));
        let root =
            std::env::temp_dir().join(format!("lightdb-return-gap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let db = LightDb::open(&root).unwrap();
        let tiers = [
            tiled_stream(SECONDS, 800, 1).unwrap(),
            tiled_stream(SECONDS, 300, 2).unwrap(),
        ];
        let at = IngestConfig::default();
        for (name, stream) in ["wide", "wide_lq"].iter().zip(&tiers) {
            store_stream(&db, name, stream.clone(), at.position, at.projection).unwrap();
        }
        assert_eq!(db.tile_cache().unwrap().budget_bytes(), 1 << 20);
        Fixture { root, db, tiers }
    }

    fn cache(&self) -> Arc<TileCache> {
        self.db.tile_cache().unwrap().clone()
    }

    /// Direct zero-decode extraction: what every served tile must equal.
    fn direct(&self, tier: usize, second: u64, tile: usize) -> Vec<u8> {
        self.tiers[tier].gops[second as usize]
            .extract_tile(tile)
            .unwrap()
            .to_bytes()
    }

    /// Serves `viewer` at `second` looking at `tile`, checks every byte
    /// against direct extraction, and returns the lookups it made.
    fn serve(&self, server: &TileServer, viewer: u64, second: u64, tile: usize) -> u64 {
        let view = server
            .serve(viewer, second, Orientation::tile_center(tile, GRID))
            .unwrap();
        assert_eq!(view.focus, tile);
        assert_eq!(
            *view.primary.bytes,
            self.direct(0, second, tile),
            "viewer {viewer} second {second}"
        );
        for n in &view.neighbors {
            assert_eq!(
                *n.bytes,
                self.direct(1, second, n.tile),
                "viewer {viewer} ring tile {}",
                n.tile
            );
        }
        1 + view.neighbors.len() as u64
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Viewer `viewer`'s focus at `step`: a seeded scatter over the grid, so
/// viewers at one second seldom share a view.
fn wander(viewer: u64, step: u64) -> usize {
    let mut x =
        viewer.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ step.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x >> 33) % GRID.tile_count() as u64) as usize
}

/// A steady pan: one column a second along `row`, so constant-velocity
/// prediction is right from the third serve on.
fn pan(row: usize, step: u64) -> usize {
    row * GRID.cols + (step as usize % GRID.cols)
}

#[test]
fn a_scattered_audience_stops_warming_after_its_first_round() {
    const VIEWERS: u64 = 256;
    const STEPS: u64 = 4;
    let fx = Fixture::new("scatter");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    let skipped = || session.metrics().counter(names::TILE_PREFETCH_SKIPPED);
    let before = cache.stats();
    let mut lookups = 0;
    for step in 0..STEPS {
        let skipped_before = skipped();
        for viewer in 0..VIEWERS {
            let second = (viewer * 5 + step) % SECONDS as u64;
            lookups += fx.serve(&server, viewer, second, wander(viewer, step));
            let warmed = server.prefetch(viewer);
            if step == 0 {
                assert!(warmed > 0, "a first prefetch has no gap and warms");
            } else {
                assert_eq!(
                    warmed, 0,
                    "viewer {viewer} step {step}: its tiles would be evicted first"
                );
            }
            lookups += warmed as u64;
            assert!(cache.resident_bytes() <= cache.budget_bytes());
        }
        let expected = if step == 0 { 0 } else { VIEWERS };
        assert_eq!(skipped() - skipped_before, expected, "step {step}");
    }
    let delta = cache.stats().since(&before);
    assert_eq!(
        delta.hits + delta.coalesced + delta.misses,
        lookups,
        "{delta:?}"
    );
    assert!(delta.evictions > 0, "the budget must bind: {delta:?}");
    let m = session.metrics();
    assert_eq!(
        m.counter(names::TILE_PREFETCH_SKIPPED),
        VIEWERS * (STEPS - 1)
    );
    assert_eq!(m.counter(names::TILE_SERVES), VIEWERS * STEPS);
}

#[test]
fn viewers_whose_gap_stays_under_the_budget_keep_warming() {
    const VIEWERS: u64 = 4;
    const STEPS: u64 = 12;
    let fx = Fixture::new("few");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    for step in 0..STEPS {
        for viewer in 0..VIEWERS {
            let (row, second) = (1 + viewer as usize % 2, viewer * 5 + step);
            let before = cache.stats();
            let lookups = fx.serve(&server, viewer, second, pan(row, step));
            let served = cache.stats().since(&before);
            if step >= 2 {
                // Two serves in, the pan's prediction is right.
                assert_eq!(
                    (served.hits, served.misses, served.coalesced),
                    (lookups, 0, 0),
                    "viewer {viewer} step {step}: a predicted serve is all hits"
                );
            }
            assert_eq!(
                server.prefetch(viewer) as u64,
                lookups,
                "viewer {viewer} step {step}"
            );
        }
    }
    assert_eq!(session.metrics().counter(names::TILE_PREFETCH_SKIPPED), 0);
}

#[test]
fn a_viewer_whose_gap_falls_under_the_budget_warms_again() {
    const CROWD: u64 = 256;
    const ALONE: u64 = CROWD;
    let fx = Fixture::new("returns");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    let skipped = || session.metrics().counter(names::TILE_PREFETCH_SKIPPED);
    let row = 1;
    // In a crowd: after its first round the viewer's gap is over the
    // budget and its warm is skipped.
    for step in 0..3 {
        for viewer in 0..CROWD {
            let second = (viewer * 5 + step) % SECONDS as u64;
            fx.serve(&server, viewer, second, wander(viewer, step));
            server.prefetch(viewer);
        }
        fx.serve(&server, ALONE, step, pan(row, step));
        let (skipped_before, warmed) = (skipped(), server.prefetch(ALONE));
        if step > 0 {
            assert_eq!(
                warmed, 0,
                "step {step}: the crowd's traffic evicts what it would warm"
            );
            assert_eq!(skipped() - skipped_before, 1);
        }
    }
    // The crowd leaves. The next serve's gap holds only what the
    // viewer's own serve published, and the prefetch after it warms.
    let lookups = fx.serve(&server, ALONE, 3, pan(row, 3));
    let skipped_before = skipped();
    assert_eq!(
        server.prefetch(ALONE) as u64,
        lookups,
        "the gap fell under the budget"
    );
    assert_eq!(skipped(), skipped_before);
    // And the pan was predicted: the next serve is all hits.
    let before = cache.stats();
    let lookups = fx.serve(&server, ALONE, 4, pan(row, 4));
    let served = cache.stats().since(&before);
    assert_eq!(
        (served.hits, served.misses, served.coalesced),
        (lookups, 0, 0)
    );
}

/// `run_fleet` replays second-major over a worker pool, so two workers
/// can serve one viewer at consecutive seconds at once, and the later
/// holder of the viewer's table lock may be the serve that finished its
/// lookups first. Few viewers over four workers make that the common
/// case; the clock moves at every new second on the 1 MiB cache.
#[test]
fn four_workers_racing_on_the_same_viewers_never_panic() {
    let fx = Fixture::new("race");
    let session = fx.db.session();
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    for viewers in [3, 5] {
        let report = run_fleet(
            &server,
            &FleetConfig {
                viewers,
                seconds: 400,
                kind: TraceKind::RandomWalk,
                workers: 4,
                prefetch: true,
                ..FleetConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "{:?}", report.error_classes);
        assert_eq!(report.invariant_violations, 0);
        assert_eq!(report.serves, viewers as u64 * 400);
    }
    let cache = fx.cache();
    assert!(
        cache.clock() > cache.budget_bytes() as u64,
        "the clock moved past the budget"
    );
    assert!(cache.resident_bytes() <= cache.budget_bytes());
}
