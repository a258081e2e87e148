//! The seven workloads, and what several of them share: the 360° clip
//! set, the engine's counters by name, and the replay stages that read
//! a stored GOP the way a scan does.

pub(crate) mod cluster_scan;
pub(crate) mod decode_map;
pub(crate) mod fleet;
pub(crate) mod hop_select;
pub(crate) mod publish_rw;
pub(crate) mod tiling;

use crate::harness::{Args, Counters};
use crate::inputs::{self, Rng};
use crate::trace::Tracer;
use lightdb::codec::{EncodedGop, SequenceHeader, TileGrid, VideoStream};
use lightdb::container::{GopIndexEntry, Track, TrackRole};
use lightdb::exec::metrics::counters as names;
use lightdb::exec::Metrics;
use lightdb::frame::Frame;
use lightdb::optimizer::{Planner, PlannerOptions};
use lightdb::prelude::VrqlExpr;
use lightdb::storage::bufferpool::GopKey;
use lightdb::storage::StoredTlf;
use lightdb::LightDb;
use lightdb_datasets::Dataset;
use std::sync::Arc;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub(crate) const NAMES: [&str; 7] = [
    "tiling",
    "decode_map",
    "hop_select",
    "fleet_hot",
    "fleet_scatter",
    "publish_rw",
    "cluster_scan",
];

/// One second of one of the three 360° scenes.
#[derive(Debug)]
pub(crate) struct Clip {
    pub(crate) name: String,
    pub(crate) frames: Vec<Frame>,
    pub(crate) fps: u32,
}

/// The clip set `tiling` and `decode_map` cycle over: three one-second
/// clips of each of timelapse/venice/coaster. At 512×256×30 one decoded
/// clip is 5.9 MB, so nine are 53 MB against the 32 MiB shared-decode
/// budget, and visiting them round-robin puts eight other clips
/// (47 MB) between two visits of one: every visit decodes for real.
pub(crate) fn generate_clips(args: &Args) -> Vec<Clip> {
    let (w, h, fps, per_dataset) = if args.quick {
        (256, 128, 4, 1)
    } else {
        (512, 256, 30, 3)
    };
    let mut rng = Rng::new(args.seed, 0xc11b);
    let specs: Vec<(String, Dataset, usize)> = (0..per_dataset * 3)
        .map(|i| {
            let dataset = Dataset::ALL[i % 3];
            // Clips of one scene start a thousand frames apart: two equal
            // clips would share one content-addressed decode.
            (
                format!("{}{}", dataset.name(), i / 3),
                dataset,
                (i / 3) * 1000 + rng.below(1000) as usize,
            )
        })
        .collect();
    inputs::par_map(&specs, |(name, dataset, start)| Clip {
        name: name.clone(),
        frames: inputs::scene_frames(*dataset, w, h, fps, *start, fps as usize),
        fps,
    })
}

/// Encodes every clip (one GOP each, on `nproc` threads) and stores it.
pub(crate) fn ingest_clips(db: &LightDb, clips: &[Clip]) -> Result<Vec<SequenceHeader>, String> {
    let streams = inputs::par_map(clips, |c| {
        inputs::encode(&c.frames, c.fps, c.frames.len(), 22, TileGrid::SINGLE)
    });
    let headers = streams.iter().map(|s| s.header).collect();
    for (clip, stream) in clips.iter().zip(streams) {
        inputs::store(db, &clip.name, stream)?;
    }
    Ok(headers)
}

/// A seeded visiting order over `n` clips, repeated round-robin.
pub(crate) fn clip_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x0bde).shuffle(&mut order);
    order
}

/// The engine's public statistics under the names the output uses.
pub(crate) fn engine_counters(db: &LightDb, sessions: &[&Metrics]) -> Counters {
    let mut c = Counters::new();
    let pool = db.pool().stats();
    c.insert("pool.hits", pool.hits);
    c.insert("pool.misses", pool.misses);
    c.insert("pool.loads", pool.loads);
    c.insert("pool.evictions", pool.evictions);
    c.insert("pool.readaheads", pool.readaheads);
    if let Some(cache) = db.tile_cache() {
        let t = cache.stats();
        c.insert("tile_cache.hits", t.hits);
        c.insert("tile_cache.misses", t.misses);
        c.insert("tile_cache.coalesced", t.coalesced);
        c.insert("tile_cache.evictions", t.evictions);
    }
    for name in [
        names::PLAN_CACHE_HITS,
        names::PLAN_CACHE_MISSES,
        names::PLAN_CACHE_EVICTIONS,
        names::SHARED_SCAN_HITS,
        names::SHARED_SCAN_DECODES,
        names::SHARED_SCAN_EVICTIONS,
        names::TILE_SERVES,
        names::TILE_PREFETCHED,
    ] {
        c.insert(name, sessions.iter().map(|m| m.counter(name)).sum());
    }
    c
}

pub(crate) fn video_track(stored: &StoredTlf) -> Result<&Track, String> {
    stored
        .metadata
        .tracks
        .iter()
        .find(|t| t.role == TrackRole::Video)
        .ok_or_else(|| format!("{} has no video track", stored.name))
}

/// The latest stored stream of `name`, read back whole.
pub(crate) fn stored_stream(db: &LightDb, name: &str) -> Result<VideoStream, String> {
    let stored = db
        .catalog()
        .read(name, None)
        .map_err(|e| format!("read {name}: {e}"))?;
    let track = video_track(&stored)?;
    stored
        .media()
        .read_stream(&track.media_path)
        .map_err(|e| format!("read {name} media: {e}"))
}

/// Where a replay's spans hang: the tracer, the replay root and the
/// operation they belong to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Replay<'t> {
    pub(crate) tr: &'t Tracer,
    pub(crate) parent: Option<u32>,
    pub(crate) op: u64,
}

impl Replay<'_> {
    pub(crate) fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.call(self.parent, self.op, name, f)
    }

    /// A stage covering `units` units of work (per-unit metrics divide).
    pub(crate) fn units<T>(&self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        self.tr.span(self.parent, self.op, name, |_| (f(), units))
    }

    /// `optimizer.plan`: VRQL → logical rewrites → physical plan.
    pub(crate) fn plan(&self, db: &LightDb, query: &VrqlExpr) -> Result<(), String> {
        self.call("optimizer.plan", || {
            Planner::new(db.catalog().clone(), PlannerOptions::default())
                .plan(query.plan())
                .map(drop)
        })
        .map_err(|e| format!("replay plan: {e}"))
    }

    /// `storage.catalog_read`: resolve the latest version of `name`.
    pub(crate) fn catalog_read(&self, db: &LightDb, name: &str) -> Result<StoredTlf, String> {
        self.call("storage.catalog_read", || db.catalog().read(name, None))
            .map_err(|e| format!("replay read {name}: {e}"))
    }

    /// `storage.pool_get_gop` with `storage.media_read_gop` (file read
    /// plus CRC) nested inside it on a miss, then `codec.gop_parse`.
    pub(crate) fn read_gop(
        &self,
        db: &LightDb,
        stored: &StoredTlf,
        track: &Track,
        entry: &GopIndexEntry,
    ) -> Result<EncodedGop, String> {
        let media = stored.media();
        // The key a scan of this TLF uses, so the replay shares the
        // pool's state with the real operations.
        let key = GopKey {
            media: media.path_of(&track.media_path).display().to_string(),
            gop: entry.start_frame,
        };
        let bytes: Arc<Vec<u8>> = self
            .tr
            .span(self.parent, self.op, "storage.pool_get_gop", |me| {
                let got = db.pool().get_gop::<lightdb::exec::ExecError>(&key, || {
                    self.tr
                        .call(me, self.op, "storage.media_read_gop", || {
                            media.read_gop_bytes(&track.media_path, entry)
                        })
                        .map_err(lightdb::exec::ExecError::Storage)
                });
                (got, 1)
            })
            .map_err(|e| format!("replay get_gop: {e}"))?;
        self.call("codec.gop_parse", || EncodedGop::from_bytes(&bytes))
            .map_err(|e| format!("replay parse: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seed: u64) -> Args {
        Args {
            workload: "tiling",
            seed,
            seconds: 0.1,
            trace: false,
            quick: true,
        }
    }

    #[test]
    fn clips_follow_the_seed() {
        let (a, b, c) = (
            generate_clips(&args(1)),
            generate_clips(&args(1)),
            generate_clips(&args(2)),
        );
        let frames = |clips: &[Clip]| clips.iter().map(|c| c.frames.clone()).collect::<Vec<_>>();
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(frames(&a), frames(&c));
        assert_eq!(clip_order(5, 9), clip_order(5, 9));
        assert_ne!(clip_order(5, 9), clip_order(6, 9));
    }
}
