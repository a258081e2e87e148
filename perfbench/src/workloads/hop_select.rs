//! `hop_select` — zero-decode homomorphic queries, one client:
//! `GOPSELECT` time ranges, `GOPUNION` of two adjacent ranges, and
//! `TILESELECT` angular ranges on a tiled copy. Every third query
//! repeats the previous one verbatim (a plan-cache hit).
//!
//! The codec never runs, so what is left is the per-query fixed cost:
//! VRQL → plan, plan cache, `Catalog::read`, buffer pool and per-GOP
//! CRC, container, `exec::hops`. Reads alone: the baseline `publish_rw`
//! is compared with.

use super::{engine_counters, video_track, Replay};
use crate::harness::{timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{self, Digest, Rng};
use crate::json::J;
use crate::trace::{Tracer, ROOT_REPLAY};
use lightdb::codec::{EncodedGop, TileGrid, VideoStream};
use lightdb::container::MetadataFile;
use lightdb::frame::Frame;
use lightdb::prelude::*;
use lightdb_datasets::Dataset;
use std::f64::consts::PI;
use std::path::Path;

const A: &str = "hop_a";
const B: &str = "hop_b";
const TILED: &str = "hop_tiled";
const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
/// Operations in the list: 450 (query, query, repeat) triples; 450 is a
/// multiple of 5 kinds × 15 lengths or shapes.
const LIST: usize = 1350;
/// The first this-many operations are checked against direct slicing.
const CHECKED: usize = 150;
/// Longest time range a query selects, in GOPs.
const MAX_RANGE: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `SCAN(a) → SELECT t∈[lo,hi)`, in GOPs.
    GopSelect { lo: u64, hi: u64 },
    /// `UNION(SCAN(a) → SELECT t∈[lo,mid), SCAN(b) → SELECT t∈[mid,hi))`.
    GopUnion { lo: u64, mid: u64, hi: u64 },
    /// `SCAN(tiled) → SELECT θ∈cols[c0,c1), φ∈rows[r0,r1)`.
    TileSelect {
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    },
}

/// Two fresh queries, then a verbatim repeat. Of the fresh ones three
/// in five are `GOPSELECT`, one in five each `GOPUNION`/`TILESELECT`,
/// and every range length and tile-rectangle shape comes equally often:
/// the seed decides where each range starts and in which order the
/// queries come, never how much work a pass over the list is.
pub(crate) fn op_list(seed: u64, gops: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x40b5);
    let longest = MAX_RANGE.min(gops);
    let shapes: Vec<(usize, usize)> = (1..=GRID.cols)
        .flat_map(|c| (1..=GRID.rows).map(move |r| (c, r)))
        // The whole sphere is no selection at all (the planner drops
        // it); every TILESELECT here is a real one.
        .filter(|&shape| shape != (GRID.cols, GRID.rows))
        .collect();
    // Each (query, query, repeat) triple takes its first query from one
    // stratified half and its repeated query from the other, so what is
    // repeated has the same shapes whatever the seed, too.
    let half = |rng: &mut Rng| -> Vec<Op> {
        let mut ops: Vec<Op> = (0..(LIST / 3) as u64)
            .map(|n| {
                let k = n / 5;
                match n % 5 {
                    0 => {
                        let len = 2 + k % (longest - 1);
                        let lo = rng.below(gops - len + 1);
                        Op::GopUnion {
                            lo,
                            mid: lo + 1 + rng.below(len - 1),
                            hi: lo + len,
                        }
                    }
                    1 => {
                        let (w, h) = shapes[k as usize % shapes.len()];
                        let c0 = rng.below((GRID.cols - w + 1) as u64) as usize;
                        let r0 = rng.below((GRID.rows - h + 1) as u64) as usize;
                        Op::TileSelect {
                            c0,
                            c1: c0 + w,
                            r0,
                            r1: r0 + h,
                        }
                    }
                    m => {
                        let len = 1 + (3 * k + m - 2) % longest;
                        let lo = rng.below(gops - len + 1);
                        Op::GopSelect { lo, hi: lo + len }
                    }
                }
            })
            .collect();
        rng.shuffle(&mut ops);
        ops
    };
    let (first, repeated) = (half(&mut rng), half(&mut rng));
    first
        .into_iter()
        .zip(repeated)
        .flat_map(|(a, b)| [a, b, b])
        .collect()
}

#[derive(Debug)]
pub(crate) struct Inputs {
    frames: Vec<Frame>,
    fps: u32,
    gop: usize,
    seed: u64,
}

#[derive(Debug)]
pub(crate) struct HopSelect {
    db: LightDb,
    session: Session,
    ops: Vec<Op>,
    /// Seconds per GOP.
    gop_s: f64,
    /// The stored streams, for the direct-slicing reference.
    plain: VideoStream,
    tiled: VideoStream,
}

impl HopSelect {
    fn query(&self, op: &Op) -> VrqlExpr {
        let t = |tlf: &str, lo: u64, hi: u64| {
            scan(tlf) >> Select::along(Dimension::T, lo as f64 * self.gop_s, hi as f64 * self.gop_s)
        };
        match *op {
            Op::GopSelect { lo, hi } => t(A, lo, hi),
            Op::GopUnion { lo, mid, hi } => {
                union(vec![t(A, lo, mid), t(B, mid, hi)], MergeFunction::Last)
            }
            Op::TileSelect { c0, c1, r0, r1 } => {
                let (dt, dp) = (2.0 * PI / GRID.cols as f64, PI / GRID.rows as f64);
                scan(TILED)
                    >> Select::along(Dimension::Theta, c0 as f64 * dt, c1 as f64 * dt).and(
                        Dimension::Phi,
                        r0 as f64 * dp,
                        r1 as f64 * dp,
                    )
            }
        }
    }

    fn run(&self, op: &Op, i: u64, tr: &Tracer) -> Result<(Done, Vec<VideoStream>), String> {
        let q = self.query(op);
        let (out, elapsed) = timed(tr, i, "op:session.execute", || self.session.execute(&q));
        match out {
            Ok(QueryOutput::Encoded(streams)) if !streams.is_empty() => {
                let gops = streams.iter().map(|s| s.gops.len() as u64).sum();
                Ok((
                    Done {
                        elapsed,
                        units: gops,
                    },
                    streams,
                ))
            }
            Ok(other) => Err(format!(
                "hop_select {op:?}: not homomorphic ({} frames decoded)",
                other.frame_count()
            )),
            Err(e) => Err(format!("hop_select {op:?}: {e}")),
        }
    }

    fn op_at(&self, i: u64) -> &Op {
        &self.ops[(i % self.ops.len() as u64) as usize]
    }

    /// What `op` must return, by slicing the stored streams directly:
    /// the GOP bytes of each output part, in part order.
    fn reference(&self, op: &Op) -> Vec<Vec<Vec<u8>>> {
        let slice = |s: &VideoStream, lo: u64, hi: u64| -> Vec<Vec<u8>> {
            s.gops[lo as usize..hi as usize]
                .iter()
                .map(EncodedGop::to_bytes)
                .collect()
        };
        match *op {
            Op::GopSelect { lo, hi } => vec![slice(&self.plain, lo, hi)],
            Op::GopUnion { lo, mid, hi } => {
                let mut part = slice(&self.plain, lo, mid);
                part.extend(slice(&self.plain, mid, hi));
                vec![part]
            }
            Op::TileSelect { c0, c1, r0, r1 } => (r0..r1)
                .flat_map(|r| (c0..c1).map(move |c| GRID.index_of(c, r)))
                .map(|tile| {
                    self.tiled
                        .gops
                        .iter()
                        .map(|g| g.extract_tile(tile).expect("tile in grid").to_bytes())
                        .collect()
                })
                .collect(),
        }
    }
}

impl Workload for HopSelect {
    type Inputs = Inputs;

    /// 64 four-frame GOPs of the venice scene at 256×128: enough GOPs
    /// that 2016 distinct aligned ranges exist (so fresh queries miss
    /// the 64-entry plan cache), small enough to encode in set-up.
    fn generate(args: &Args) -> Inputs {
        let (gops, gop, fps) = if args.quick { (8, 2, 2) } else { (64, 4, 4) };
        let start = Rng::new(args.seed, 0x40b0).below(3000) as usize;
        Inputs {
            frames: inputs::scene_frames(Dataset::Venice, 256, 128, fps, start, gops * gop),
            fps,
            gop,
            seed: args.seed,
        }
    }

    fn setup(inp: &Inputs, root: &Path) -> Result<HopSelect, String> {
        let db = LightDb::open(root).map_err(|e| format!("open: {e}"))?;
        let mut streams = inputs::par_map(&[TileGrid::SINGLE, GRID], |&grid| {
            inputs::encode(&inp.frames, inp.fps, inp.gop, 22, grid)
        });
        let (tiled, plain) = (
            streams.pop().expect("two streams"),
            streams.pop().expect("two streams"),
        );
        inputs::store(&db, A, plain.clone())?;
        inputs::store(&db, B, plain.clone())?;
        inputs::store(&db, TILED, tiled.clone())?;
        Ok(HopSelect {
            session: db.session(),
            ops: op_list(inp.seed, plain.gops.len() as u64),
            gop_s: inp.gop as f64 / f64::from(inp.fps),
            plain,
            tiled,
            db,
        })
    }

    fn lanes(&self) -> Vec<&'static str> {
        vec!["query"]
    }

    fn unit(&self) -> &'static str {
        "gops"
    }

    fn pass_len(&self) -> u64 {
        self.ops.len() as u64
    }

    fn op(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        self.run(self.op_at(i), i, tr).map(|(done, _)| done)
    }

    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let mut digest = Digest::new();
        let off = Tracer::off();
        for (i, op) in self.ops.iter().take(CHECKED).enumerate() {
            match self.run(op, i as u64, &off) {
                Err(e) => v.check(false, || e),
                Ok((_, streams)) => {
                    let got: Vec<Vec<Vec<u8>>> = streams
                        .iter()
                        .map(|s| s.gops.iter().map(EncodedGop::to_bytes).collect())
                        .collect();
                    v.check(got == self.reference(op), || {
                        format!("{op:?}: differs from direct slicing")
                    });
                    streams.iter().for_each(|s| digest.add(&s.to_bytes()));
                }
            }
        }
        v.digest = digest.hex();
        v
    }

    fn replay(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        let op = self.op_at(i);
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            // One input of the query: resolve, pick GOPs by the index,
            // fetch them through the pool, and cut tiles if asked.
            let input =
                |tlf: &str, gops: Option<(u64, u64)>, tiles: &[usize]| -> Result<(), String> {
                    let stored = st.catalog_read(&self.db, tlf)?;
                    let meta = st.call("container.metadata_write", || stored.metadata.to_bytes());
                    st.call("container.metadata_parse", || {
                        MetadataFile::from_bytes(&meta)
                    })
                    .map_err(|e| format!("replay metadata: {e}"))?;
                    let track = video_track(&stored)?;
                    let per = track.gop_index.first().map_or(1, |e| e.frame_count);
                    let picked = st.call("hops.gop_select", || match gops {
                        Some((lo, hi)) => track.gops_for_frames(lo * per, hi * per - 1),
                        None => track.gop_index.iter().collect(),
                    });
                    for entry in picked {
                        let gop = st.read_gop(&self.db, &stored, track, entry)?;
                        for &tile in tiles {
                            st.call("hops.extract_tile", || {
                                gop.extract_tile(tile).map(|t| t.to_bytes())
                            })
                            .map_err(|e| format!("replay extract: {e}"))?;
                        }
                    }
                    Ok(())
                };
            let result = (|| -> Result<(), String> {
                st.plan(&self.db, &self.query(op))?;
                match *op {
                    Op::GopSelect { lo, hi } => input(A, Some((lo, hi)), &[]),
                    Op::GopUnion { lo, mid, hi } => {
                        input(A, Some((lo, mid)), &[])?;
                        input(B, Some((mid, hi)), &[])
                    }
                    Op::TileSelect { c0, c1, r0, r1 } => {
                        let tiles: Vec<usize> = (r0..r1)
                            .flat_map(|r| (c0..c1).map(move |c| GRID.index_of(c, r)))
                            .collect();
                        input(TILED, None, &tiles)
                    }
                }
            })();
            (result, 1)
        })
    }

    fn counters(&self) -> Counters {
        engine_counters(&self.db, &[self.session.metrics()])
    }

    fn sizes(&self) -> J {
        let h = &self.plain.header;
        J::obj([
            (
                "frame",
                J::str(format!("{}x{}@{}", h.width, h.height, h.fps)),
            ),
            ("gops", J::Int(self.plain.gops.len() as u64)),
            ("frames_per_gop", J::Int(h.gop_length as u64)),
            (
                "plain_stream_bytes",
                J::Int(self.plain.to_bytes().len() as u64),
            ),
            (
                "tiled_stream_bytes",
                J::Int(self.tiled.to_bytes().len() as u64),
            ),
            ("op_list", J::Int(self.ops.len() as u64)),
            ("checked_ops", J::Int(CHECKED.min(self.ops.len()) as u64)),
            (
                "plan_cache_entries",
                J::Int(lightdb::session::PLAN_CACHE_CAPACITY as u64),
            ),
            (
                "buffer_pool",
                J::str("fits: three streams under 2 MB in a 64 MiB pool"),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_follows_the_seed_and_every_third_repeats() {
        let a = op_list(4, 64);
        assert_eq!(a, op_list(4, 64));
        assert_ne!(a, op_list(5, 64));
        assert_eq!(a.len(), LIST);
        assert!(a.chunks(3).all(|t| t[1] == t[2]));
        // The same lengths and shapes whatever the seed: only places
        // and order differ.
        let work = |ops: &[Op]| {
            let mut w: Vec<(u64, u64)> = ops
                .iter()
                .map(|op| match *op {
                    Op::GopSelect { lo, hi } => (0, hi - lo),
                    Op::GopUnion { lo, hi, .. } => (1, hi - lo),
                    Op::TileSelect { c0, c1, r0, r1 } => (2, ((c1 - c0) * 10 + (r1 - r0)) as u64),
                })
                .collect();
            w.sort_unstable();
            w
        };
        assert_eq!(work(&a), work(&op_list(5, 64)));
        for op in &a {
            match *op {
                Op::GopSelect { lo, hi } => assert!(lo < hi && hi <= 64 && hi - lo <= MAX_RANGE),
                Op::GopUnion { lo, mid, hi } => assert!(lo < mid && mid < hi && hi <= 64),
                Op::TileSelect { c0, c1, r0, r1 } => {
                    assert!(c0 < c1 && c1 <= 4 && r0 < r1 && r1 <= 4)
                }
            }
        }
        // Small streams (the smoke scale) stay in range too.
        assert!(op_list(4, 8)
            .iter()
            .all(|op| !matches!(*op, Op::GopSelect { hi, .. } if hi > 8)));
    }
}
