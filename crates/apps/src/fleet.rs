//! Trace-driven headset-fleet simulator.
//!
//! VisualCloud's load is not one query — it is *thousands of
//! concurrent headsets* pulling tiles from the same few panoramas.
//! This module turns that into a reproducible workload: a
//! [`FleetConfig`] describes a population of viewers (how many, for
//! how long, which [`ViewportPredictor`] family, one seed), a
//! [`FleetTrace`] is the fully materialized deterministic gaze
//! trace, and [`run_fleet`] replays it against a
//! [`TileServer`] from a bounded
//! worker pool, measuring per-serve latency into a
//! [`Histogram`] and classifying every
//! error.
//!
//! Traces are generated up front (predictor state never races with
//! serving) and replayed **second-major**: every viewer's second 0,
//! then every viewer's second 1, … — the order real concurrent
//! playback presents to the server, and the one that exposes
//! cross-user locality to the tile cache.

use crate::predictor::{HotSpotPredictor, RandomWalkPredictor, RasterPredictor, ViewportPredictor};
use lightdb::core::{ErrorClass, Histogram, Quality};
use lightdb::ingest::{store_frames, IngestConfig};
use lightdb::tileserver::{Orientation, TileServer};
use lightdb::LightDb;
use lightdb_codec::TileGrid;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which viewer population to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Every viewer follows the paper's raster protocol in lockstep —
    /// the best-case locality ceiling.
    Raster,
    /// Independent seeded random walks over the sphere — the
    /// worst-case scattered-attention floor.
    RandomWalk,
    /// Zipf hot-spot dwellers sharing one hot set — the realistic
    /// "everyone watches the action" middle.
    HotSpot,
}

/// One simulated fleet: the whole run is a deterministic function of
/// this struct.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Concurrent viewers.
    pub viewers: usize,
    /// Playback seconds each viewer watches (wraps over the video).
    pub seconds: u64,
    /// Scenario seed: fixes hot sets, walks, and dwell schedules.
    pub seed: u64,
    /// Viewer population model.
    pub kind: TraceKind,
    /// Worker threads replaying the trace.
    pub workers: usize,
    /// Call [`TileServer::prefetch`] after each serve (the predictive
    /// warm-up the server is named for).
    pub prefetch: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            viewers: 64,
            seconds: 30,
            seed: 1,
            kind: TraceKind::HotSpot,
            workers: 8,
            prefetch: true,
        }
    }
}

/// A materialized gaze trace: `tiles[viewer][second]` is the
/// row-major focus tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTrace {
    pub tiles: Vec<Vec<usize>>,
}

/// Generates the deterministic per-viewer trace for `cfg` on a
/// `cols × rows` grid.
pub fn generate_trace(cfg: &FleetConfig, cols: usize, rows: usize) -> FleetTrace {
    let mut tiles = Vec::with_capacity(cfg.viewers);
    for viewer in 0..cfg.viewers as u64 {
        let mut predictor: Box<dyn ViewportPredictor> = match cfg.kind {
            TraceKind::Raster => Box::new(RasterPredictor),
            TraceKind::RandomWalk => Box::new(RandomWalkPredictor::new(
                cfg.seed ^ viewer.wrapping_mul(0x2545_F491_4F6C_DD1D),
            )),
            TraceKind::HotSpot => Box::new(HotSpotPredictor::new(cfg.seed, viewer)),
        };
        tiles.push(
            (0..cfg.seconds)
                .map(|s| predictor.tile(s, cols, rows))
                .collect(),
        );
    }
    FleetTrace { tiles }
}

/// What a fleet replay measured.
#[derive(Debug)]
pub struct FleetReport {
    pub viewers: usize,
    pub seconds: u64,
    /// Successful serves (each = one HQ focus tile + LQ ring).
    pub serves: u64,
    /// Individual tiles delivered across all serves.
    pub tiles_served: u64,
    /// Failed serves (see `error_classes` for the breakdown).
    pub errors: u64,
    /// Serves whose response violated the serving contract (wrong
    /// focus tile or empty payload) — always a bug, never load.
    pub invariant_violations: u64,
    /// Error count per [`ErrorClass`] (debug-formatted name).
    pub error_classes: BTreeMap<String, u64>,
    /// Per-serve wall-clock latency.
    pub latency: Histogram,
}

fn class_of(e: &lightdb::Error) -> ErrorClass {
    match e {
        lightdb::Error::Exec(x) => x.classify(),
        lightdb::Error::Storage(x) => x.classify(),
        lightdb::Error::Codec(_) => ErrorClass::Corrupt,
        lightdb::Error::Plan(_) => ErrorClass::Fatal,
    }
}

/// Replays `cfg`'s trace against `server` from a bounded worker pool
/// and reports latency and error statistics. Playback seconds wrap
/// over the video's duration, so a long simulation loops a short
/// panorama (as looping demo content does).
pub fn run_fleet(server: &TileServer, cfg: &FleetConfig) -> FleetReport {
    let grid = server.grid();
    let trace = generate_trace(cfg, grid.cols, grid.rows);
    let duration = server.duration_seconds().max(1);
    let total = cfg.viewers * cfg.seconds as usize;
    let latency = Histogram::new();
    let serves = AtomicU64::new(0);
    let tiles_served = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let errors = Mutex::new(BTreeMap::<String, u64>::new());
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.clamp(1, total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(lightdb::storage::faults::inherit(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                // Second-major replay order (see module docs).
                let second = (i / cfg.viewers) as u64;
                let viewer = (i % cfg.viewers) as u64;
                let tile = trace.tiles[viewer as usize][second as usize];
                let orientation = Orientation::tile_center(tile, grid);
                let start = Instant::now();
                match server.serve(viewer, second % duration, orientation) {
                    Ok(view) => {
                        latency.record(start.elapsed());
                        serves.fetch_add(1, Ordering::Relaxed);
                        tiles_served.fetch_add(1 + view.neighbors.len() as u64, Ordering::Relaxed);
                        let intact = view.focus == tile
                            && !view.primary.bytes.is_empty()
                            && view.neighbors.iter().all(|n| !n.bytes.is_empty());
                        if !intact {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        if cfg.prefetch {
                            server.prefetch(viewer);
                        }
                    }
                    Err(e) => {
                        let class = format!("{:?}", class_of(&e));
                        let mut errors = errors.lock().unwrap_or_else(|e| e.into_inner());
                        *errors.entry(class).or_insert(0) += 1;
                    }
                }
            }));
        }
    });
    let error_classes = errors.into_inner().unwrap_or_else(|e| e.into_inner());
    FleetReport {
        viewers: cfg.viewers,
        seconds: cfg.seconds,
        serves: serves.into_inner(),
        tiles_served: tiles_served.into_inner(),
        errors: error_classes.values().sum(),
        invariant_violations: violations.into_inner(),
        error_classes,
        latency,
    }
}

/// Ingests a synthetic tiled panorama twice — `name` at
/// [`Quality::High`] and `name_lq` at [`Quality::Low`] — with
/// identical fps (4), GOP cadence (one GOP per second), and `grid`,
/// so the pair can back a two-tier `TileServer`. Returns the
/// low-quality TLF's name. Frames are 256×128 (a 4×4 grid of 64×32
/// macroblock-aligned tiles).
pub fn install_tiled_pair(
    db: &LightDb,
    name: &str,
    seconds: usize,
    grid: TileGrid,
) -> lightdb::Result<String> {
    let spec = lightdb_datasets::DatasetSpec {
        width: 256,
        height: 128,
        fps: 4,
        seconds,
        qp: 22,
    };
    let frames: Vec<_> = (0..spec.frame_count())
        .map(|i| lightdb_datasets::frame(lightdb_datasets::Dataset::Venice, &spec, i))
        .collect();
    let cfg = IngestConfig {
        qp: Quality::High.qp(),
        fps: spec.fps,
        gop_length: spec.fps as usize,
        grid,
        ..IngestConfig::default()
    };
    store_frames(db, name, &frames, &cfg)?;
    let lq_name = format!("{name}_lq");
    store_frames(
        db,
        &lq_name,
        &frames,
        &IngestConfig {
            qp: Quality::Low.qp(),
            ..cfg
        },
    )?;
    Ok(lq_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb::tileserver::TileServerConfig;

    fn db(tag: &str) -> LightDb {
        let root = std::env::temp_dir().join(format!("lightdb-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        LightDb::open(root).unwrap()
    }

    #[test]
    fn traces_are_deterministic_and_kind_sensitive() {
        let cfg = FleetConfig {
            viewers: 8,
            seconds: 16,
            ..FleetConfig::default()
        };
        assert_eq!(generate_trace(&cfg, 4, 4), generate_trace(&cfg, 4, 4));
        let walk = FleetConfig {
            kind: TraceKind::RandomWalk,
            ..cfg
        };
        assert_ne!(generate_trace(&cfg, 4, 4), generate_trace(&walk, 4, 4));
        let reseeded = FleetConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(generate_trace(&cfg, 4, 4), generate_trace(&reseeded, 4, 4));
        // Raster fleet is the protocol itself.
        let raster = FleetConfig {
            kind: TraceKind::Raster,
            ..cfg
        };
        let t = generate_trace(&raster, 4, 4);
        assert!(t.tiles.iter().all(|v| v[3] == 3));
    }

    #[test]
    fn small_fleet_replays_cleanly_and_hits_the_cache() {
        let db = db("replay");
        install_tiled_pair(&db, "plaza", 3, TileGrid { cols: 4, rows: 4 }).unwrap();
        let session = db.session();
        let server = session
            .tile_server("plaza", Some("plaza_lq"), TileServerConfig::default())
            .unwrap();
        let cfg = FleetConfig {
            viewers: 8,
            seconds: 6,
            workers: 4,
            kind: TraceKind::HotSpot,
            ..FleetConfig::default()
        };
        let report = run_fleet(&server, &cfg);
        assert_eq!(report.errors, 0, "classes: {:?}", report.error_classes);
        assert_eq!(report.invariant_violations, 0);
        assert_eq!(report.serves, 8 * 6);
        assert_eq!(report.latency.count(), report.serves);
        // 8 hot-spot viewers over 16 tiles must share extractions.
        let stats = db.tile_cache().unwrap().stats();
        assert!(stats.avoided() > 0, "no cross-user reuse: {stats:?}");
        std::fs::remove_dir_all(db.catalog().root()).unwrap();
    }
}
