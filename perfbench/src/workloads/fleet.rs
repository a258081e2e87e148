//! `fleet_hot` and `fleet_scatter` — the VisualCloud serving path: a
//! `TileServer` over a high/low-quality tiled pair, each serve followed
//! by the viewer's predictive prefetch.
//!
//! * `fleet_hot`: 512 viewers of a live event (everyone at the same
//!   second) gazing at Zipf hot spots; 8 s of video under the default
//!   64 MiB tile cache; one client. High cross-user sharing, every
//!   cache fits.
//! * `fleet_scatter`: the same server code used the other way. 512
//!   viewers of an on-demand title, each at their own position in 64 s
//!   of video, random-walk gaze, `LIGHTDB_TILE_CACHE_MB=1` against
//!   ~10 MB of encoded tiles; two clients. Most lookups miss and run
//!   `extract_tile` over pool-resident GOPs.
//!
//! Both loops are closed. A real headset asks once a second, three
//! orders of magnitude below what in-process µs-scale calls saturate
//! at, so an open loop would measure the generator's jitter; these
//! workloads report service time and saturation throughput instead.

use super::{engine_counters, video_track, Replay};
use crate::harness::{timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{self, Digest, Rng};
use crate::json::J;
use crate::trace::{Breakdown, Tracer, ROOT_REPLAY};
use lightdb::codec::{TileGrid, VideoStream};
use lightdb::frame::Frame;
use lightdb::prelude::*;
use lightdb_apps::fleet::{generate_trace, FleetConfig, FleetTrace, TraceKind};
use lightdb_datasets::Dataset;
use std::path::Path;

const HQ: &str = "fleet";
const LQ: &str = "fleet_lq";
const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
const FPS: u32 = 4;
/// Luma grain amplitude: lifts a 64×32 tile GOP from ~300 B to the
/// kilobytes a real 360° tile weighs, so a byte budget means something.
const GRAIN: i32 = 40;
/// The low tier is ingested at `Medium`, not `Low`: at qp 45 the whole
/// low tier is ~60 KB and would never leave even a 1 MiB cache.
const LOW_TIER: Quality = Quality::Medium;
/// Clients of `fleet_scatter`. `fleet_hot` has one: two clients on the
/// hot path spend their time in the tile cache's and the viewer table's
/// mutexes, serve slower together (170k/s) than one alone (320k/s), and
/// the split between spinning and sleeping on those locks moves the
/// median by ±10 % (sometimes 25 %) between identical runs. A number
/// that unsteady cannot gate; README.md records it.
const SCATTER_CLIENTS: usize = 2;
/// `fleet_hot`'s one hot-spot scenario (which tiles are hot, how long a
/// viewer dwells). A serve at a pole touches five ring tiles, elsewhere
/// eight, so *which* rows are hot decides what a serve costs; the seed
/// therefore turns this scenario about the vertical axis, deals its gaze
/// paths to other viewers and shifts each in time, and leaves the rows
/// alone.
const HOT_SCENARIO: u64 = 0x5ce0;
/// (second, tile) pairs compared with direct extraction.
const CHECKED: usize = 96;

#[derive(Debug)]
pub(crate) struct Inputs {
    scatter: bool,
    frames: Vec<Frame>,
    trace: FleetTrace,
    /// Each viewer's position in the video at step 0.
    offsets: Vec<u64>,
    seed: u64,
}

#[derive(Debug)]
pub(crate) struct Fleet {
    db: LightDb,
    session: Session,
    server: TileServer,
    scatter: bool,
    trace: FleetTrace,
    offsets: Vec<u64>,
    seconds: u64,
    seed: u64,
    /// The stored tiers, for the direct-extraction reference.
    hq: VideoStream,
    lq: VideoStream,
}

impl Fleet {
    fn clients(&self) -> usize {
        if self.scatter {
            SCATTER_CLIENTS
        } else {
            1
        }
    }

    /// Viewer, video second and gaze tile of client `lane`'s `i`-th
    /// request: each client owns every `clients`-th viewer and walks
    /// them step by step (second-major, as concurrent playback does).
    fn request(&self, lane: usize, i: u64) -> (u64, u64, usize) {
        let per_client = (self.offsets.len() / self.clients()) as u64;
        let (step, slot) = (i / per_client, i % per_client);
        let viewer = slot as usize * self.clients() + lane;
        let trace = &self.trace.tiles[viewer];
        (
            viewer as u64,
            (self.offsets[viewer] + step) % self.seconds,
            trace[(step % trace.len() as u64) as usize],
        )
    }
}

impl Workload for Fleet {
    type Inputs = Inputs;

    fn generate(args: &Args) -> Inputs {
        let scatter = args.workload == "fleet_scatter";
        let (viewers, seconds) = match (args.quick, scatter) {
            (true, _) => (16, 4),
            (false, false) => (512, 8),
            (false, true) => (512, 64),
        };
        let mut rng = Rng::new(args.seed, 0xf1ee);
        let start = rng.below(3000) as usize;
        let mut frames = inputs::scene_frames(
            Dataset::Venice,
            256,
            128,
            FPS,
            start,
            seconds * FPS as usize,
        );
        inputs::add_grain(&mut frames, &mut rng, GRAIN);
        let (kind, trace_seed) = if scatter {
            (TraceKind::RandomWalk, args.seed)
        } else {
            (TraceKind::HotSpot, HOT_SCENARIO)
        };
        let mut trace = generate_trace(
            &FleetConfig {
                viewers,
                seconds: seconds as u64,
                seed: trace_seed,
                kind,
                workers: 1,
                prefetch: true,
            },
            GRID.cols,
            GRID.rows,
        );
        if !scatter {
            let turn = rng.below(GRID.cols as u64) as usize;
            for path in &mut trace.tiles {
                path.rotate_left(rng.below(seconds as u64) as usize);
                for tile in path.iter_mut() {
                    *tile =
                        GRID.index_of((*tile % GRID.cols + turn) % GRID.cols, *tile / GRID.cols);
                }
            }
            rng.shuffle(&mut trace.tiles);
        }
        let offsets = (0..viewers)
            .map(|_| {
                if scatter {
                    rng.below(seconds as u64)
                } else {
                    0
                }
            })
            .collect();
        Inputs {
            scatter,
            frames,
            trace,
            offsets,
            seed: args.seed,
        }
    }

    fn setup(inp: &Inputs, root: &Path) -> Result<Fleet, String> {
        let db = LightDb::open(root).map_err(|e| format!("open: {e}"))?;
        let mut tiers = inputs::par_map(&[Quality::High, LOW_TIER], |q| {
            inputs::encode(&inp.frames, FPS, FPS as usize, q.qp(), GRID)
        });
        let (lq, hq) = (
            tiers.pop().expect("two tiers"),
            tiers.pop().expect("two tiers"),
        );
        inputs::store(&db, HQ, hq.clone())?;
        inputs::store(&db, LQ, lq.clone())?;
        let session = db.session();
        let server = session
            .tile_server(HQ, Some(LQ), TileServerConfig::default())
            .map_err(|e| format!("open tile server: {e}"))?;
        Ok(Fleet {
            session,
            server,
            scatter: inp.scatter,
            trace: inp.trace.clone(),
            offsets: inp.offsets.clone(),
            seconds: hq.gops.len() as u64,
            seed: inp.seed,
            hq,
            lq,
            db,
        })
    }

    fn lanes(&self) -> Vec<&'static str> {
        vec!["serve"; self.clients()]
    }

    fn unit(&self) -> &'static str {
        "tiles"
    }

    fn op(&self, lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        let (viewer, second, tile) = self.request(lane, i);
        let gaze = Orientation::tile_center(tile, GRID);
        let (view, elapsed) = timed(tr, i, "op:tileserver.serve", || {
            self.server.serve(viewer, second, gaze)
        });
        let view = view.map_err(|e| format!("serve viewer {viewer} second {second}: {e}"))?;
        let intact = view.focus == tile
            && !view.primary.bytes.is_empty()
            && view.neighbors.iter().all(|n| !n.bytes.is_empty());
        if !intact {
            return Err(format!(
                "serve viewer {viewer} second {second}: malformed view"
            ));
        }
        // The prefetch is part of the loop, not of the serve latency.
        tr.span(None, i, "tileserver.prefetch", |_| {
            ((), self.server.prefetch(viewer) as u64)
        });
        Ok(Done {
            elapsed,
            units: 1 + view.neighbors.len() as u64,
        })
    }

    /// Served bytes must equal a direct `extract_tile(..).to_bytes()` of
    /// the stored tier, for a seeded sample of (second, tile) pairs.
    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let mut digest = Digest::new();
        let mut rng = Rng::new(self.seed, 0xf1c4);
        let direct = |tier: &VideoStream, second: u64, tile: usize| {
            tier.gops[second as usize]
                .extract_tile(tile)
                .map(|t| t.to_bytes())
                .map_err(|e| e.to_string())
        };
        for _ in 0..CHECKED {
            let (second, tile) = (
                rng.below(self.seconds),
                rng.below(GRID.tile_count() as u64) as usize,
            );
            // A viewer id no trace uses, so the check disturbs no
            // viewer's prediction state.
            let view = self
                .server
                .serve(u64::MAX, second, Orientation::tile_center(tile, GRID));
            match view {
                Err(e) => v.check(false, || format!("serve second {second} tile {tile}: {e}")),
                Ok(view) => {
                    v.check(direct(&self.hq, second, tile).is_ok_and(|d| d == *view.primary.bytes), || {
                        format!("second {second} tile {tile}: HQ bytes differ from direct extraction")
                    });
                    let ring_ok = view
                        .neighbors
                        .iter()
                        .all(|n| direct(&self.lq, second, n.tile).is_ok_and(|d| d == *n.bytes));
                    v.check(ring_ok, || {
                        format!(
                            "second {second} tile {tile}: LQ ring differs from direct extraction"
                        )
                    });
                    digest.add(&view.primary.bytes);
                    view.neighbors.iter().for_each(|n| digest.add(&n.bytes));
                }
            }
        }
        v.digest = digest.hex();
        v
    }

    /// The miss path of one serve: for the focus tile (HQ) and its ring
    /// (LQ), GOP from the pool, parse, extract, serialise.
    fn replay(&self, lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        let (_, second, tile) = self.request(lane, i);
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            let result = (|| -> Result<(), String> {
                let focus = (tile % GRID.cols, tile / GRID.cols);
                for (tlf, tiles) in [(HQ, vec![tile]), (LQ, ring(focus))] {
                    let stored = st.catalog_read(&self.db, tlf)?;
                    let track = video_track(&stored)?;
                    let gop =
                        st.read_gop(&self.db, &stored, track, &track.gop_index[second as usize])?;
                    for t in tiles {
                        st.call("hops.extract_tile", || {
                            gop.extract_tile(t).map(|g| g.to_bytes())
                        })
                        .map_err(|e| format!("replay extract: {e}"))?;
                    }
                }
                Ok(())
            })();
            (result, 1)
        })
    }

    fn counters(&self) -> Counters {
        engine_counters(&self.db, &[self.session.metrics()])
    }

    fn layer_extras(&self, b: &Breakdown) -> Vec<(&'static str, f64)> {
        let warmed = b
            .row("tileserver.prefetch")
            .map_or(0.0, |r| r.units as f64 / r.spans.max(1) as f64);
        vec![("tiles_warmed_per_serve", warmed)]
    }

    fn sizes(&self) -> J {
        let cache = self.db.tile_cache();
        let tile_bytes = (self.hq.payload_bytes() + self.lq.payload_bytes()) as u64;
        let budget = cache.map_or(0, |c| c.budget_bytes() as u64);
        J::obj([
            (
                "trace",
                J::str(if self.scatter {
                    "random walk, viewers desynchronised"
                } else {
                    "hot spot (Zipf), viewers synchronised"
                }),
            ),
            ("viewers", J::Int(self.offsets.len() as u64)),
            ("clients", J::Int(self.clients() as u64)),
            ("video_seconds", J::Int(self.seconds)),
            ("grid", J::str("4x4")),
            (
                "tiers_qp",
                J::str(format!("{}/{}", Quality::High.qp(), LOW_TIER.qp())),
            ),
            ("hq_tile_bytes", J::Int(self.hq.payload_bytes() as u64)),
            ("lq_tile_bytes", J::Int(self.lq.payload_bytes() as u64)),
            ("tile_cache_budget_bytes", J::Int(budget)),
            (
                "tile_bytes_over_budget",
                J::Num(tile_bytes as f64 / budget.max(1) as f64),
            ),
            (
                "tile_cache_resident_bytes",
                J::Int(cache.map_or(0, |c| c.resident_bytes() as u64)),
            ),
            (
                "buffer_pool_bytes",
                J::Int(lightdb::DEFAULT_POOL_BYTES as u64),
            ),
            (
                "buffer_pool_resident_bytes",
                J::Int(self.db.pool().resident_bytes() as u64),
            ),
            ("prefetch", J::Bool(true)),
        ])
    }
}

/// The focus tile's neighbour ring: θ wraps, φ does not.
fn ring((col, row): (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    for dr in [-1i64, 0, 1] {
        for dc in [-1i64, 0, 1] {
            let r = row as i64 + dr;
            if (dr, dc) == (0, 0) || r < 0 || r >= GRID.rows as i64 {
                continue;
            }
            let c = (col as i64 + dc).rem_euclid(GRID.cols as i64) as usize;
            out.push(GRID.index_of(c, r as usize));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &'static str, seed: u64) -> Args {
        Args {
            workload,
            seed,
            seconds: 0.1,
            trace: false,
            quick: true,
        }
    }

    #[test]
    fn traces_follow_the_seed_and_the_workload() {
        let (a, b) = (
            Fleet::generate(&args("fleet_hot", 1)),
            Fleet::generate(&args("fleet_hot", 1)),
        );
        assert_eq!(
            (&a.trace, &a.offsets, &a.frames),
            (&b.trace, &b.offsets, &b.frames)
        );
        let c = Fleet::generate(&args("fleet_hot", 2));
        assert_ne!(a.trace, c.trace);
        assert_ne!(a.frames, c.frames);
        let s = Fleet::generate(&args("fleet_scatter", 1));
        assert!(
            a.offsets.iter().all(|&o| o == 0),
            "a live event is synchronised"
        );
        assert!(
            s.offsets.iter().any(|&o| o != 0),
            "on-demand viewers are not"
        );
        assert_ne!(a.trace, s.trace);
    }

    #[test]
    fn ring_wraps_theta_and_clamps_phi() {
        assert_eq!(ring((0, 0)), vec![3, 1, 7, 4, 5]);
        assert_eq!(ring((1, 1)).len(), 8);
    }
}
