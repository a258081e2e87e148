//! Headset-fleet tile-serving integration tests: exactly-once
//! extraction under barriered concurrent sessions, byte-identity of
//! served tiles against direct zero-decode extraction, tile-cache
//! version safety across re-ingest, byte-budget enforcement under
//! fleet load, two clients on a cache a fraction of the tile volume,
//! a seeded 3-viewer chaos soak reusing the tri-state error contract,
//! and the CI fleet smoke.
//!
//! Runs honour `LIGHTDB_THREADS` (CI smokes both 1 and 8),
//! `LIGHTDB_FLEET_SECONDS` for the smoke's trace length, and
//! `LIGHTDB_CHAOS_SEEDS` for the soak round count.

use lightdb::codec::{EncodedGop, TileGrid};
use lightdb::container::TrackRole;
use lightdb::core::Quality;
use lightdb::exec::metrics::counters as names;
use lightdb::ingest::{store_stream, IngestConfig};
use lightdb::prelude::*;
use lightdb_apps::fleet::{generate_trace, install_tiled_pair, run_fleet, FleetConfig, TraceKind};
use lightdb_testsuite::chaos::Scenario;
use lightdb_testsuite::tiled_stream;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightdb-fleet-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };

/// Direct zero-decode extraction of `(second, tile)` from the stored
/// stream — the ground truth every served tile must equal.
fn direct_tile(db: &LightDb, name: &str, second: usize, tile: usize) -> Vec<u8> {
    let stored = db.catalog().read(name, None).unwrap();
    let media = stored.media();
    let track = stored
        .metadata
        .tracks
        .iter()
        .find(|t| t.role == TrackRole::Video)
        .unwrap();
    let entry = &track.gop_index[second.min(track.gop_index.len() - 1)];
    let gop =
        EncodedGop::from_bytes(&media.read_gop_bytes(&track.media_path, entry).unwrap()).unwrap();
    gop.extract_tile(tile).unwrap().to_bytes()
}

/// N barriered sessions, each with its own `TileServer`, all serving
/// the *same* hot tile at the same instant: the engine-wide cache +
/// single-flight must run `extract_tile` exactly once.
#[test]
fn hot_tile_extracted_exactly_once_across_sessions() {
    let root = temp_root("once");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    const SESSIONS: usize = 8;
    let cache = db.tile_cache().expect("tile cache on by default");
    let before = cache.stats();
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let orientation = Orientation::tile_center(5, GRID);
    let servers: Vec<_> = (0..SESSIONS)
        .map(|_| {
            db.session()
                .tile_server(
                    "clip",
                    None,
                    TileServerConfig {
                        neighbor_ring: 0,
                        ..TileServerConfig::default()
                    },
                )
                .unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        for (i, server) in servers.iter().enumerate() {
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                let view = server.serve(i as u64, 0, orientation).unwrap();
                assert_eq!(view.focus, 5);
                assert!(!view.primary.bytes.is_empty());
            });
        }
    });
    let delta = cache.stats().since(&before);
    assert_eq!(
        delta.misses, 1,
        "one extraction for one hot tile, got {delta:?}"
    );
    assert_eq!(
        delta.hits + delta.coalesced,
        SESSIONS as u64 - 1,
        "everyone else reuses it: {delta:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Every tile a server hands out — HQ focus and LQ ring, cache on and
/// off — is byte-identical to a direct `extract_tile` of the stored
/// stream.
#[test]
fn served_tiles_are_byte_identical_to_direct_extraction() {
    let root = temp_root("bytes");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    let session = db.session();
    for use_cache in [true, false] {
        let server = session
            .tile_server(
                "clip",
                Some("clip_lq"),
                TileServerConfig {
                    use_cache,
                    ..TileServerConfig::default()
                },
            )
            .unwrap();
        for second in 0..2usize {
            for tile in 0..GRID.tile_count() {
                let view = server
                    .serve(0, second as u64, Orientation::tile_center(tile, GRID))
                    .unwrap();
                assert_eq!(view.focus, tile);
                assert_eq!(
                    *view.primary.bytes,
                    direct_tile(&db, "clip", second, tile),
                    "HQ tile {tile} second {second} cache={use_cache}"
                );
                for n in &view.neighbors {
                    assert_eq!(n.quality, Quality::Low);
                    assert_eq!(
                        *n.bytes,
                        direct_tile(&db, "clip_lq", second, n.tile),
                        "LQ tile {} second {second} cache={use_cache}",
                        n.tile
                    );
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Re-ingesting a TLF under the same name must never let cached tiles
/// of the old version leak into servers opened on the new one — the
/// cache key pins the catalog version, and open servers keep serving
/// the version they resolved.
#[test]
fn tile_cache_is_version_safe_across_reingest() {
    let root = temp_root("version");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    let session = db.session();
    let cfg = TileServerConfig {
        neighbor_ring: 0,
        ..TileServerConfig::default()
    };
    let server_v1 = session.tile_server("clip", None, cfg).unwrap();
    let o = Orientation::tile_center(3, GRID);
    let v1_bytes = server_v1.serve(0, 0, o).unwrap().primary.bytes.clone();
    let v1_direct = direct_tile(&db, "clip", 0, 3);
    assert_eq!(*v1_bytes, v1_direct);

    // Re-ingest the same frames at a different quality: same name and
    // shape, different encoded bytes.
    let spec = lightdb_datasets::DatasetSpec {
        width: 256,
        height: 128,
        fps: 4,
        seconds: 2,
        qp: 22,
    };
    let frames: Vec<_> = (0..spec.frame_count())
        .map(|i| lightdb_datasets::frame(lightdb_datasets::Dataset::Venice, &spec, i))
        .collect();
    lightdb::ingest::store_frames(
        &db,
        "clip",
        &frames,
        &lightdb::ingest::IngestConfig {
            qp: Quality::Medium.qp(),
            fps: 4,
            gop_length: 4,
            grid: GRID,
            ..Default::default()
        },
    )
    .unwrap();

    let server_v2 = session.tile_server("clip", None, cfg).unwrap();
    assert!(
        server_v2.version() > server_v1.version(),
        "re-ingest bumps the pinned version"
    );
    let v2_bytes = server_v2.serve(0, 0, o).unwrap().primary.bytes.clone();
    assert_eq!(
        *v2_bytes,
        direct_tile(&db, "clip", 0, 3),
        "new server serves the new version"
    );
    assert_ne!(*v2_bytes, v1_direct, "the two versions really differ");
    // The old server still serves its pinned version, cache warm.
    assert_eq!(*server_v1.serve(0, 0, o).unwrap().primary.bytes, v1_direct);
    let _ = fs::remove_dir_all(&root);
}

/// `DROP` and a re-ingest under the same name: a server opened on the
/// new TLF serves its tiles, not the dropped one's cached under the
/// same name — the new TLF never reuses a version number, and the
/// version is part of every tile-cache key.
#[test]
fn tile_cache_is_safe_across_drop_and_reingest() {
    let root = temp_root("redrop");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    let session = db.session();
    let cfg = TileServerConfig {
        neighbor_ring: 0,
        ..TileServerConfig::default()
    };
    let o = Orientation::tile_center(3, GRID);
    let old = session.tile_server("clip", None, cfg).unwrap();
    let old_bytes = old.serve(0, 0, o).unwrap().primary.bytes.clone();
    drop(old);
    db.execute(&drop_tlf("clip")).unwrap();
    let spec = lightdb_datasets::DatasetSpec {
        width: 256,
        height: 128,
        fps: 4,
        seconds: 2,
        qp: 22,
    };
    let frames: Vec<_> = (0..spec.frame_count())
        .map(|i| lightdb_datasets::frame(lightdb_datasets::Dataset::Venice, &spec, i))
        .collect();
    lightdb::ingest::store_frames(
        &db,
        "clip",
        &frames,
        &lightdb::ingest::IngestConfig {
            qp: Quality::Medium.qp(),
            fps: 4,
            gop_length: 4,
            grid: GRID,
            ..Default::default()
        },
    )
    .unwrap();
    let new = session.tile_server("clip", None, cfg).unwrap();
    let want = direct_tile(&db, "clip", 0, 3);
    assert_ne!(*old_bytes, want, "the two TLFs really differ");
    assert_eq!(*new.serve(0, 0, o).unwrap().primary.bytes, want, "served the dropped TLF's tile");
    let _ = fs::remove_dir_all(&root);
}

/// A fleet big enough to touch every tile of both tiers keeps the
/// engine-wide cache within its byte budget (evictions do their job)
/// while serving correctly.
#[test]
fn fleet_load_respects_cache_byte_budget() {
    let root = temp_root("budget");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 4, GRID).unwrap();
    let session = db.session();
    let server = session
        .tile_server("clip", Some("clip_lq"), TileServerConfig::default())
        .unwrap();
    let report = run_fleet(
        &server,
        &FleetConfig {
            viewers: 32,
            seconds: 16,
            kind: TraceKind::RandomWalk,
            workers: 4,
            ..FleetConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "{:?}", report.error_classes);
    assert_eq!(report.invariant_violations, 0);
    let cache = db.tile_cache().unwrap();
    assert!(
        cache.resident_bytes() <= cache.budget_bytes(),
        "cache over budget: {} > {}",
        cache.resident_bytes(),
        cache.budget_bytes()
    );
    assert!(!cache.is_empty(), "fleet load should populate the cache");
    let _ = fs::remove_dir_all(&root);
}

/// Two clients, each walking its own half of a desynchronised audience
/// through 2.3 MB of tiles on a 1 MiB (16-shard) tile cache, serve and
/// prefetch: every served tile is the direct extraction's bytes, the
/// cache never exceeds its budget, and every lookup is exactly one of
/// hit / coalesced / miss — in the cache's totals and in the session's
/// counters alike.
#[test]
fn two_clients_on_a_small_cache_serve_direct_bytes_within_budget() {
    const SECONDS: usize = 32;
    const VIEWERS: u64 = 48;
    const STEPS: u64 = 24;
    let root = temp_root("twoclients");
    // Read once, at open. A neighbouring test that opens meanwhile gets
    // a smaller cache, which none of them minds.
    std::env::set_var("LIGHTDB_TILE_CACHE_MB", "1");
    let db = LightDb::open(&root).unwrap();
    std::env::remove_var("LIGHTDB_TILE_CACHE_MB");
    let tiers = [tiled_stream(SECONDS, 800, 1).unwrap(), tiled_stream(SECONDS, 300, 2).unwrap()];
    let at = IngestConfig::default();
    for (name, stream) in ["wide", "wide_lq"].iter().zip(&tiers) {
        store_stream(&db, name, stream.clone(), at.position, at.projection).unwrap();
    }
    let direct = |tier: usize, second: u64, tile: usize| {
        tiers[tier].gops[second as usize].extract_tile(tile).unwrap().to_bytes()
    };
    let cache = db.tile_cache().unwrap();
    assert_eq!(cache.budget_bytes(), 1 << 20);
    let session = db.session();
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    let before = cache.stats();
    let lookups: Vec<u64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|lane| {
                let (server, direct, cache) = (&server, &direct, &cache);
                s.spawn(move || {
                    let mut lookups = 0u64;
                    for step in 0..STEPS {
                        for viewer in (lane..VIEWERS).step_by(2) {
                            // Each viewer at its own second, drifting
                            // over the grid at its own pace.
                            let second = (viewer * 5 + step) % SECONDS as u64;
                            let tile = ((viewer * 3 + step * (1 + viewer % 3)) % 16) as usize;
                            let view = server
                                .serve(viewer, second, Orientation::tile_center(tile, GRID))
                                .unwrap();
                            assert_eq!(view.focus, tile);
                            assert_eq!(*view.primary.bytes, direct(0, second, tile));
                            for n in &view.neighbors {
                                assert_eq!(*n.bytes, direct(1, second, n.tile), "ring tile {}", n.tile);
                            }
                            lookups += 1 + view.neighbors.len() as u64;
                            lookups += server.prefetch(viewer) as u64;
                            assert!(cache.resident_bytes() <= cache.budget_bytes());
                        }
                    }
                    lookups
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let lookups: u64 = lookups.iter().sum();
    let delta = cache.stats().since(&before);
    assert_eq!(delta.hits + delta.coalesced + delta.misses, lookups, "{delta:?}");
    assert!(delta.misses > 0 && delta.hits > 0 && delta.evictions > 0, "the budget must bind: {delta:?}");
    assert!(delta.recycled > 0, "misses write into evicted buffers: {delta:?}");
    assert!(cache.resident_bytes() <= cache.budget_bytes());
    // The session's own counters saw the same traffic, batched or not.
    let m = session.metrics();
    let counter = |name: &str| m.counter(name);
    assert_eq!(counter("tile_cache.hits"), delta.hits);
    assert_eq!(counter("tile_cache.misses"), delta.misses);
    assert_eq!(counter("tile_cache.coalesced"), delta.coalesced);
    assert_eq!(counter("tile_cache.evictions"), delta.evictions);
    assert_eq!(counter("tile_cache.recycled"), delta.recycled);
    assert_eq!(counter("tile_server.serves"), VIEWERS * STEPS);
    let _ = fs::remove_dir_all(&root);
}

/// A server records every serve's latency into its session's
/// `tile_server.serve` histogram, and keeps doing so after the
/// session's metrics are reset.
#[test]
fn serve_latency_is_recorded_across_a_metrics_reset() {
    let root = temp_root("latency");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    let session = db.session();
    let server = session.tile_server("clip", Some("clip_lq"), TileServerConfig::default()).unwrap();
    let m = session.metrics();
    let latency = || m.histogram(names::SERVE_LATENCY);
    for serves in [20u64, 7] {
        for i in 0..serves {
            let tile = (i % GRID.tile_count() as u64) as usize;
            server.serve(i, i % 2, Orientation::tile_center(tile, GRID)).unwrap();
        }
        assert_eq!(latency().count(), serves);
        assert_eq!(m.counter(names::TILE_SERVES), serves);
        assert!(m.percentile(names::SERVE_LATENCY, 50.0) > std::time::Duration::ZERO);
        m.reset();
        assert_eq!(latency().count(), 0);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Trace generation is a pure function of the config — the property
/// the whole benchmark's reproducibility rests on.
#[test]
fn fleet_traces_replay_identically() {
    for kind in [TraceKind::Raster, TraceKind::RandomWalk, TraceKind::HotSpot] {
        let cfg = FleetConfig {
            viewers: 16,
            seconds: 32,
            kind,
            ..FleetConfig::default()
        };
        assert_eq!(
            generate_trace(&cfg, 4, 4),
            generate_trace(&cfg, 4, 4),
            "{kind:?}"
        );
    }
}

/// Seeded 3-viewer chaos soak: serving under injected storage faults
/// must uphold the tri-state contract — correct bytes, or a
/// classified error, and a failed extraction must never poison the
/// cache (the same request succeeds with correct bytes once the
/// fault clears).
#[test]
fn fleet_serving_chaos_soak() {
    let root = temp_root("chaos");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 2, GRID).unwrap();
    let session = db.session();
    let server = session
        .tile_server("clip", Some("clip_lq"), TileServerConfig::default())
        .unwrap();
    const VIEWERS: u64 = 3;
    let rounds = lightdb_core::envknob::read_u64("LIGHTDB_CHAOS_SEEDS")
        .unwrap_or(100)
        .min(60);
    for seed in 0..rounds {
        let sc = Scenario::from_seed(seed);
        let barrier = Arc::new(Barrier::new(VIEWERS as usize));
        sc.arm();
        std::thread::scope(|s| {
            for viewer in 0..VIEWERS {
                let barrier = barrier.clone();
                let server = &server;
                s.spawn(move || {
                    let tile = (seed as usize + viewer as usize) % GRID.tile_count();
                    let o = Orientation::tile_center(tile, GRID);
                    barrier.wait();
                    match server.serve(viewer, seed % 2, o) {
                        Ok(view) => {
                            assert_eq!(view.focus, tile, "seed {seed}");
                            assert!(!view.primary.bytes.is_empty(), "seed {seed}");
                        }
                        Err(err) => match &err {
                            lightdb::Error::Exec(e) => {
                                let _ = e.classify();
                            }
                            lightdb::Error::Storage(e) => {
                                let _ = e.classify();
                            }
                            other => panic!("seed {seed}: unclassifiable error family: {other}"),
                        },
                    }
                });
            }
        });
        Scenario::disarm();
        // Post-fault: the exact keys just attempted serve correct
        // bytes — failures were not published into the cache.
        for viewer in 0..VIEWERS {
            let tile = (seed as usize + viewer as usize) % GRID.tile_count();
            let view = server
                .serve(viewer, seed % 2, Orientation::tile_center(tile, GRID))
                .unwrap();
            assert_eq!(
                *view.primary.bytes,
                direct_tile(&db, "clip", (seed % 2) as usize, tile),
                "seed {seed}: cache served stale/corrupt bytes after fault cleared"
            );
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// The CI smoke: a scaled-down fleet (64 viewers) with prefetch on
/// must finish with zero errors, zero contract violations, real
/// cross-user reuse, and a cache within budget.
#[test]
fn fleet_smoke() {
    let root = temp_root("smoke");
    let db = LightDb::open(&root).unwrap();
    install_tiled_pair(&db, "clip", 4, GRID).unwrap();
    let session = db.session();
    let server = session
        .tile_server("clip", Some("clip_lq"), TileServerConfig::default())
        .unwrap();
    let seconds = lightdb_core::envknob::read_u64("LIGHTDB_FLEET_SECONDS")
        .unwrap_or(10)
        .clamp(1, 120);
    let workers = lightdb_core::envknob::read_u64("LIGHTDB_THREADS")
        .unwrap_or(4)
        .clamp(1, 64) as usize;
    let report = run_fleet(
        &server,
        &FleetConfig {
            viewers: 64,
            seconds,
            kind: TraceKind::HotSpot,
            workers,
            prefetch: true,
            ..FleetConfig::default()
        },
    );
    assert_eq!(
        report.errors, 0,
        "classified errors in smoke: {:?}",
        report.error_classes
    );
    assert_eq!(report.invariant_violations, 0, "serving contract violated");
    assert_eq!(report.serves, 64 * seconds);
    assert_eq!(report.latency.count(), report.serves);
    let stats = db.tile_cache().unwrap().stats();
    assert!(stats.avoided() > 0, "no cross-user reuse: {stats:?}");
    let cache = db.tile_cache().unwrap();
    assert!(cache.resident_bytes() <= cache.budget_bytes());
    // Prefetch actually warmed tiles (counter lives on the session).
    assert!(
        session.metrics().counter("tile_server.prefetched_tiles") > 0,
        "prefetch warmed nothing"
    );
    let _ = fs::remove_dir_all(&root);
}
