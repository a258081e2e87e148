//! Prefetch does not warm a view again while nothing has been published
//! since it last warmed it.
//!
//! `TileServer::prefetch` stamps each view, `(GOP entry, focus tile)`,
//! that it warmed with every lookup succeeding: the tile cache's clock
//! before the warm plus what the warm itself published, plus one. The
//! LRU evicts only when a miss publishes, and every publication moves
//! the clock, so while the stamp equals the clock plus one every tile of
//! the view is still resident. A prefetch of it then skips the warm,
//! looks nothing up, returns 0 and counts
//! `tile_server.prefetch_resident`. These tests pin that on the default
//! 64 MiB cache, where every tile fits:
//!
//! * a synchronised crowd on a few hot spots warms each view once per
//!   pass, and every later prefetch of the view is skipped without a
//!   lookup, while serves stay all hits and equal direct extraction;
//! * one miss published anywhere makes the next prefetch of a stamped
//!   view warm again, and a warm's own misses do not;
//! * two clients racing on the same views count every lookup exactly
//!   once, and every prefetch that warmed nothing was a counted skip.
//!
//! Its own test binary, because `LIGHTDB_TILE_CACHE_MB` is read by every
//! engine the process opens.

use lightdb::codec::{TileGrid, VideoStream};
use lightdb::exec::metrics::counters as names;
use lightdb::exec::tilecache::TileCache;
use lightdb::ingest::{store_stream, IngestConfig};
use lightdb::prelude::*;
use lightdb_testsuite::tiled_stream;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Once};

const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
const SECONDS: usize = 16;
/// Seconds the crowd plays; the seconds after the next are left cold
/// for serves that must miss.
const PLAYED: u64 = 6;
/// Hot spots, two of them on a pole row (a ring of 5 instead of 8).
const HOT: [usize; 4] = [5, 10, 1, 14];

/// An engine on the default 64 MiB tile cache holding a high tier
/// (`wide`) and a low tier (`wide_lq`) of 16 s each.
struct Fixture {
    root: PathBuf,
    db: LightDb,
    tiers: [VideoStream; 2],
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        static DEFAULT_CACHE: Once = Once::new();
        // Every engine of this binary gets the default budget.
        DEFAULT_CACHE.call_once(|| std::env::remove_var("LIGHTDB_TILE_CACHE_MB"));
        let root =
            std::env::temp_dir().join(format!("lightdb-warm-stamps-{tag}-{}", std::process::id()));
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
        assert_eq!(db.tile_cache().unwrap().budget_bytes(), 64 << 20);
        Fixture { root, db, tiers }
    }

    fn cache(&self) -> Arc<TileCache> {
        self.db.tile_cache().unwrap().clone()
    }

    fn server(&self, session: &Session) -> TileServer {
        session
            .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
            .unwrap()
    }

    /// Serves `viewer` at `second` looking at `tile`, checks every byte
    /// against direct zero-decode extraction, and returns the lookups it
    /// made.
    fn serve(&self, server: &TileServer, viewer: u64, second: u64, tile: usize) -> u64 {
        let view = server
            .serve(viewer, second, Orientation::tile_center(tile, GRID))
            .unwrap();
        assert_eq!(view.focus, tile);
        let direct = |tier: usize, tile: usize| {
            self.tiers[tier].gops[second as usize]
                .extract_tile(tile)
                .unwrap()
                .to_bytes()
        };
        assert_eq!(
            *view.primary.bytes,
            direct(0, tile),
            "viewer {viewer} second {second}"
        );
        for n in &view.neighbors {
            assert_eq!(
                *n.bytes,
                direct(1, n.tile),
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

/// Viewer `viewer`'s fixed gaze: half the crowd on the first hot spot,
/// a quarter on the second, and so on. A still gaze predicts itself, so
/// the view a prefetch warms is `(second + 1, hot(viewer))`.
fn hot(viewer: u64) -> usize {
    HOT[(viewer.trailing_zeros() as usize).min(HOT.len() - 1)]
}

/// The lookups one view of `tile` makes: the focus plus its ring.
fn view_lookups(tile: usize) -> u64 {
    let row = tile / GRID.cols;
    if row == 0 || row == GRID.rows - 1 {
        6
    } else {
        9
    }
}

/// One pass of the crowd over the played seconds: each viewer serves,
/// then prefetches.
fn play(fx: &Fixture, server: &TileServer, viewers: u64) {
    for second in 0..PLAYED {
        for viewer in 0..viewers {
            fx.serve(server, viewer, second, hot(viewer));
            server.prefetch(viewer);
        }
    }
}

#[test]
fn a_synchronised_crowd_warms_each_view_once_while_nothing_publishes() {
    const VIEWERS: u64 = 64;
    let fx = Fixture::new("crowd");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = fx.server(&session);
    let resident = || session.metrics().counter(names::TILE_PREFETCH_RESIDENT);
    // The first pass extracts every tile the second will ask for.
    play(&fx, &server, VIEWERS);
    // A cold serve publishes, so no stamp of the first pass still holds.
    let before = cache.stats();
    fx.serve(&server, VIEWERS, SECONDS as u64 - 1, 0);
    assert!(cache.stats().since(&before).misses > 0);
    let (clock, resident_at_start) = (cache.clock(), resident());
    let mut warmed_views = HashSet::new();
    let mut skips = 0;
    for second in 0..PLAYED {
        for viewer in 0..VIEWERS {
            let before = cache.stats();
            let lookups = fx.serve(&server, viewer, second, hot(viewer));
            let served = cache.stats().since(&before);
            assert_eq!(
                (served.hits, served.misses, served.coalesced),
                (lookups, 0, 0),
                "viewer {viewer} second {second}: a serve of a warm view is all hits"
            );
            let (before, resident_before) = (cache.stats(), resident());
            let warmed = server.prefetch(viewer) as u64;
            let view = (second + 1, hot(viewer));
            if warmed_views.insert(view) {
                assert_eq!(warmed, view_lookups(view.1), "first prefetch of {view:?}");
                let delta = cache.stats().since(&before);
                assert_eq!((delta.hits, delta.misses), (warmed, 0), "{view:?}");
                assert_eq!(resident(), resident_before);
            } else {
                assert_eq!(warmed, 0, "viewer {viewer}: {view:?} is warm already");
                assert_eq!(cache.stats(), before, "a skipped warm looks nothing up");
                assert_eq!(resident(), resident_before + 1);
                skips += 1;
            }
        }
    }
    assert_eq!(cache.clock(), clock, "the second pass published nothing");
    assert_eq!(warmed_views.len(), PLAYED as usize * HOT.len());
    assert_eq!(resident() - resident_at_start, skips);
    assert_eq!(session.metrics().counter(names::TILE_PREFETCH_SKIPPED), 0);
}

#[test]
fn a_miss_published_elsewhere_makes_the_next_prefetch_warm_again() {
    const VIEWERS: u64 = 8;
    let fx = Fixture::new("republish");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = fx.server(&session);
    let resident = || session.metrics().counter(names::TILE_PREFETCH_RESIDENT);
    play(&fx, &server, VIEWERS);
    // Two passes: the first pass's warms published, so its stamps went
    // stale as it went; the second ends with every view stamped.
    play(&fx, &server, VIEWERS);
    let (viewer, other) = (1, 3);
    assert_eq!(hot(viewer), hot(other));
    let lookups = view_lookups(hot(viewer));
    let before = resident();
    assert_eq!(server.prefetch(viewer), 0);
    assert_eq!(resident(), before + 1);
    // One miss at a cold second, by a viewer of its own.
    let (stats, clock) = (cache.stats(), cache.clock());
    fx.serve(&server, VIEWERS, PLAYED + 3, 0);
    assert!(cache.stats().since(&stats).misses > 0 && cache.clock() > clock);
    // The stamped view warms again, all hits, and is stamped anew.
    let before = cache.stats();
    assert_eq!(server.prefetch(viewer) as u64, lookups);
    let delta = cache.stats().since(&before);
    assert_eq!((delta.hits, delta.misses), (lookups, 0));
    let before = (cache.stats(), resident());
    assert_eq!(
        server.prefetch(other),
        0,
        "same view, nothing published since"
    );
    assert_eq!((cache.stats(), resident()), (before.0, before.1 + 1));
    // A warm that misses stamps its own bytes: at a cold second it
    // publishes every tile of the view, and the next prefetch skips.
    let cold = PLAYED + 5;
    fx.serve(&server, VIEWERS + 1, cold, 5);
    let (before, clock) = (cache.stats(), cache.clock());
    assert_eq!(server.prefetch(VIEWERS + 1) as u64, view_lookups(5));
    let delta = cache.stats().since(&before);
    assert_eq!(
        (delta.hits, delta.misses),
        (0, view_lookups(5)),
        "the view was cold"
    );
    assert!(cache.clock() > clock);
    let before = cache.stats();
    assert_eq!(server.prefetch(VIEWERS + 1), 0);
    assert_eq!(cache.stats(), before);
    // And the next serve of the predicted view is all hits.
    let before = cache.stats();
    let lookups = fx.serve(&server, VIEWERS + 1, cold + 1, 5);
    let served = cache.stats().since(&before);
    assert_eq!(
        (served.hits, served.misses, served.coalesced),
        (lookups, 0, 0)
    );
}

/// Two clients serve disjoint halves of one crowd on the same hot
/// views, and each now and then serves a cold second, so stamps are
/// written, matched and invalidated from both threads at once.
#[test]
fn two_clients_racing_on_the_same_views_count_every_lookup_once() {
    const VIEWERS: u64 = 32;
    const PASSES: u64 = 4;
    let fx = Fixture::new("race");
    let (cache, session) = (fx.cache(), fx.db.session());
    let server = fx.server(&session);
    let before = cache.stats();
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|lane| {
                let (fx, server) = (&fx, &server);
                s.spawn(move || {
                    let (mut lookups, mut prefetches, mut idle) = (0, 0, 0);
                    for pass in 0..PASSES {
                        for second in 0..PLAYED {
                            for viewer in (lane..VIEWERS).step_by(2) {
                                lookups += fx.serve(server, viewer, second, hot(viewer));
                                let warmed = server.prefetch(viewer) as u64;
                                lookups += warmed;
                                prefetches += 1;
                                idle += u64::from(warmed == 0);
                            }
                            // A cold serve: a publication the other
                            // client's stamps must notice.
                            let (outsider, cold) =
                                (VIEWERS + lane, PLAYED + 2 + (pass + second) % 8);
                            lookups +=
                                fx.serve(server, outsider, cold, (pass * 7 + second) as usize % 16);
                        }
                    }
                    (lookups, prefetches, idle)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let lookups: u64 = tallies.iter().map(|t| t.0).sum();
    let delta = cache.stats().since(&before);
    assert_eq!(
        delta.hits + delta.coalesced + delta.misses,
        lookups,
        "{delta:?}"
    );
    assert!(cache.resident_bytes() <= cache.budget_bytes());
    let m = session.metrics();
    let prefetches: u64 = tallies.iter().map(|t| t.1).sum();
    assert_eq!(prefetches, VIEWERS * PLAYED * PASSES);
    // A prefetch that warmed nothing was one of the counted skips.
    let idle: u64 = tallies.iter().map(|t| t.2).sum();
    assert_eq!(
        idle,
        m.counter(names::TILE_PREFETCH_RESIDENT) + m.counter(names::TILE_PREFETCH_SKIPPED)
    );
    assert!(
        m.counter(names::TILE_PREFETCH_RESIDENT) > 0,
        "no view was ever skipped"
    );
    assert_eq!(m.counter(names::TILE_CACHE_HITS), delta.hits);
    assert_eq!(m.counter(names::TILE_CACHE_MISSES), delta.misses);
    assert_eq!(m.counter(names::TILE_CACHE_COALESCED), delta.coalesced);
}
