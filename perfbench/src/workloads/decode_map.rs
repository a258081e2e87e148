//! `decode_map` — decode-path queries that end in frames: no ENCODE, no
//! STORE. A seeded mix of `select θ,φ → map blur`, `map grayscale` and
//! `union watermark`; every third query repeats the previous one from
//! a second session (a second viewer of the same clip), which is the
//! shared-decode hit path. An encoder change must not move it.

use super::{
    clip_order, engine_counters, generate_clips, ingest_clips, stored_stream, video_track, Clip,
    Replay,
};
use crate::harness::{timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{Digest, Rng};
use crate::json::J;
use crate::trace::{Tracer, ROOT_REPLAY};
use lightdb::codec::{Decoder, SequenceHeader};
use lightdb::exec::frameops::composite_group;
use lightdb::exec::{Chunk, ChunkPayload, Device, StreamInfo};
use lightdb::frame::kernels;
use lightdb::prelude::*;
use lightdb_datasets::DatasetSpec;
use std::f64::consts::PI;
use std::path::Path;

const WATERMARK: &str = "watermark";
/// Operations in the list: nine (query, query, repeat) triples, so the
/// 18 fresh queries are whole round-robin cycles over three or nine
/// clips and each kind of query comes six times.
const LIST: usize = 27;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `SELECT θ,φ` (a quarter of the sphere at tile `(col,row)` of a
    /// 4×4 lattice) then `MAP blur`.
    SelectBlur {
        col: usize,
        row: usize,
    },
    Gray,
    UnionWatermark,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) clip: usize,
    pub(crate) kind: Kind,
    /// Issued by the second session, repeating the previous op.
    pub(crate) repeat: bool,
}

/// The seed-determined op list: (query, query, repeat) triples. Fresh
/// queries visit clips round-robin (so each decode is real); the first
/// queries of the triples hold the three kinds in equal numbers and so
/// do the repeated ones, so the mix is the same whatever the seed.
pub(crate) fn op_list(seed: u64, clips: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0xdec0);
    let order = clip_order(seed, clips);
    let third = |rng: &mut Rng| -> Vec<Kind> {
        let mut kinds: Vec<Kind> = (0..LIST / 3)
            .map(|i| match i % 3 {
                0 => Kind::SelectBlur {
                    col: rng.below(3) as usize,
                    row: rng.below(3) as usize,
                },
                1 => Kind::Gray,
                _ => Kind::UnionWatermark,
            })
            .collect();
        rng.shuffle(&mut kinds);
        kinds
    };
    let (first, repeated) = (third(&mut rng), third(&mut rng));
    let mut ops = Vec::with_capacity(LIST);
    for (t, (a, b)) in first.into_iter().zip(repeated).enumerate() {
        ops.push(Op {
            clip: order[(2 * t) % clips],
            kind: a,
            repeat: false,
        });
        let fresh = Op {
            clip: order[(2 * t + 1) % clips],
            kind: b,
            repeat: false,
        };
        ops.extend([
            fresh,
            Op {
                repeat: true,
                ..fresh
            },
        ]);
    }
    ops
}

#[derive(Debug)]
pub(crate) struct DecodeMap {
    db: LightDb,
    first: Session,
    second: Session,
    serial: Session,
    clips: Vec<(String, SequenceHeader)>,
    watermark: SequenceHeader,
    ops: Vec<Op>,
}

impl DecodeMap {
    fn query(&self, op: &Op) -> VrqlExpr {
        let input = scan(self.clips[op.clip].0.as_str());
        match op.kind {
            Kind::SelectBlur { col, row } => {
                let (t0, p0) = (col as f64 * PI / 2.0, row as f64 * PI / 4.0);
                input
                    >> Select::along(Dimension::Theta, t0, t0 + PI).and(
                        Dimension::Phi,
                        p0,
                        p0 + PI / 2.0,
                    )
                    >> Map::builtin(BuiltinMap::Blur)
            }
            Kind::Gray => input >> Map::builtin(BuiltinMap::Grayscale),
            Kind::UnionWatermark => union(vec![input, scan(WATERMARK)], MergeFunction::Last),
        }
    }

    /// Runs `op` on `session`; returns the timing and the output frames.
    fn run(
        &self,
        session: &Session,
        op: &Op,
        i: u64,
        tr: &Tracer,
    ) -> Result<(Done, Vec<Vec<Frame>>), String> {
        let q = self.query(op);
        let (out, elapsed) = timed(tr, i, "op:session.execute", || session.execute(&q));
        let frames = self.clips[op.clip].1.gop_length;
        match out {
            Ok(QueryOutput::Frames(parts))
                if parts.iter().map(|p| p.1.len()).sum::<usize>() == frames =>
            {
                Ok((
                    Done {
                        elapsed,
                        units: frames as u64,
                    },
                    parts.into_iter().map(|p| p.1).collect(),
                ))
            }
            Ok(other) => Err(format!(
                "decode_map {op:?}: expected {frames} frames, got {}",
                other.frame_count()
            )),
            Err(e) => Err(format!("decode_map {op:?}: {e}")),
        }
    }

    fn op_at(&self, i: u64) -> &Op {
        &self.ops[(i % self.ops.len() as u64) as usize]
    }
}

fn digest_of(parts: &[Vec<Frame>]) -> String {
    let mut d = Digest::new();
    parts.iter().for_each(|p| d.add_frames(p));
    d.hex()
}

impl Workload for DecodeMap {
    type Inputs = (Vec<Clip>, u64);

    fn generate(args: &Args) -> Self::Inputs {
        (generate_clips(args), args.seed)
    }

    fn setup((clips, seed): &Self::Inputs, root: &Path) -> Result<DecodeMap, String> {
        let db = LightDb::open(root).map_err(|e| format!("open: {e}"))?;
        let headers = ingest_clips(&db, clips)?;
        let h = headers[0];
        lightdb_datasets::install_watermark(
            &db,
            &DatasetSpec {
                width: h.width,
                height: h.height,
                fps: h.fps,
                seconds: 1,
                qp: 22,
            },
        )
        .map_err(|e| format!("watermark: {e}"))?;
        let (first, second, mut serial) = (db.session(), db.session(), db.session());
        serial.set_parallelism(Parallelism::SERIAL);
        Ok(DecodeMap {
            first,
            second,
            serial,
            clips: clips.iter().map(|c| c.name.clone()).zip(headers).collect(),
            watermark: stored_stream(&db, WATERMARK)?.header,
            ops: op_list(*seed, clips.len()),
            db,
        })
    }

    fn lanes(&self) -> Vec<&'static str> {
        vec!["query"]
    }

    fn unit(&self) -> &'static str {
        "frames"
    }

    fn pass_len(&self) -> u64 {
        self.ops.len() as u64
    }

    fn op(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        let op = self.op_at(i);
        let session = if op.repeat { &self.second } else { &self.first };
        self.run(session, op, i, tr).map(|(done, _)| done)
    }

    /// One pass over the list; every output is compared with a
    /// one-thread execution of the same query.
    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let mut digest = Digest::new();
        let off = Tracer::off();
        for (i, op) in self.ops.iter().enumerate() {
            let session = if op.repeat { &self.second } else { &self.first };
            match (
                self.run(session, op, i as u64, &off),
                self.run(&self.serial, op, i as u64, &off),
            ) {
                (Ok((_, got)), Ok((_, want))) => {
                    let d = digest_of(&got);
                    v.check(d == digest_of(&want), || {
                        format!("{op:?}: differs from the serial execution")
                    });
                    digest.add(d.as_bytes());
                }
                (Err(e), _) | (_, Err(e)) => v.check(false, || e),
            }
        }
        v.digest = digest.hex();
        v
    }

    fn replay(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        let op = self.op_at(i);
        let (name, header) = &self.clips[op.clip];
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            let decode =
                |tlf: &str, header: &SequenceHeader| -> Result<(Volume, Vec<Frame>), String> {
                    let stored = st.catalog_read(&self.db, tlf)?;
                    let track = video_track(&stored)?;
                    let mut frames = Vec::new();
                    for entry in &track.gop_index {
                        let gop = st.read_gop(&self.db, &stored, track, entry)?;
                        frames.extend(
                            st.call("codec.decode_gop", || {
                                Decoder::new().decode_gop(header, &gop)
                            })
                            .map_err(|e| format!("replay decode: {e}"))?,
                        );
                    }
                    Ok((stored.metadata.tlf.volume, frames))
                };
            let result = (|| -> Result<(), String> {
                st.plan(&self.db, &self.query(op))?;
                let (volume, frames) = decode(name, header)?;
                let n = frames.len() as u64;
                match op.kind {
                    Kind::SelectBlur { col, row } => {
                        let (x0, y0) = (col * header.width / 4, row * header.height / 4);
                        let cropped: Vec<Frame> = st.units("frame.crop", n, || {
                            frames
                                .iter()
                                .map(|f| f.crop(x0, y0, header.width / 2, header.height / 2))
                                .collect()
                        });
                        st.units("frame.blur", n, || {
                            cropped.iter().map(kernels::blur).for_each(drop)
                        });
                    }
                    Kind::Gray => st.units("frame.gray", n, || {
                        frames.iter().map(kernels::grayscale).for_each(drop)
                    }),
                    Kind::UnionWatermark => {
                        let (mark_volume, mark) = decode(WATERMARK, &self.watermark)?;
                        let chunk = |volume, frames| Chunk {
                            t_index: 0,
                            part: 0,
                            volume,
                            info: StreamInfo::origin(header.fps),
                            payload: ChunkPayload::Decoded {
                                frames,
                                device: Device::Cpu,
                            },
                        };
                        st.units("frame.union", n, || {
                            composite_group(
                                vec![chunk(volume, frames), chunk(mark_volume, mark)],
                                &MergeFunction::Last,
                            )
                        })
                        .map_err(|e| format!("replay union: {e}"))?;
                    }
                }
                Ok(())
            })();
            (result, 1)
        })
    }

    fn counters(&self) -> Counters {
        engine_counters(
            &self.db,
            &[
                self.first.metrics(),
                self.second.metrics(),
                self.serial.metrics(),
            ],
        )
    }

    fn sizes(&self) -> J {
        let (_, h) = &self.clips[0];
        let decoded = self.clips.len() * h.gop_length * h.width * h.height * 3 / 2;
        J::obj([
            ("clips", J::Int(self.clips.len() as u64)),
            (
                "frame",
                J::str(format!("{}x{}@{}", h.width, h.height, h.fps)),
            ),
            ("op_list", J::Int(self.ops.len() as u64)),
            (
                "repeated_share",
                J::Num(self.ops.iter().filter(|o| o.repeat).count() as f64 / self.ops.len() as f64),
            ),
            ("decoded_working_set_bytes", J::Int(decoded as u64)),
            (
                "shared_decode_budget_bytes",
                J::Int(lightdb::DEFAULT_SHARED_DECODE_BYTES as u64),
            ),
            ("buffer_pool", J::str("fits: encoded inputs are a few MB")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_follows_the_seed_and_is_balanced() {
        let a = op_list(11, 9);
        assert_eq!(a, op_list(11, 9));
        assert_ne!(a, op_list(12, 9));
        assert_eq!(a.len(), LIST);
        assert_eq!(a.iter().filter(|o| o.repeat).count(), LIST / 3);
        // A repeat copies the op before it; fresh ops go round-robin.
        for w in a.windows(2) {
            if w[1].repeat {
                assert_eq!((w[0].clip, w[0].kind), (w[1].clip, w[1].kind));
            }
        }
        let fresh: Vec<&Op> = a.iter().filter(|o| !o.repeat).collect();
        for kind in [Kind::Gray, Kind::UnionWatermark] {
            assert_eq!(
                fresh.iter().filter(|o| o.kind == kind).count(),
                LIST / 3 * 2 / 3
            );
            assert_eq!(
                a.iter().filter(|o| o.repeat && o.kind == kind).count(),
                LIST / 9
            );
        }
        assert!(fresh.windows(9).all(|w| {
            let mut seen: Vec<usize> = w.iter().map(|o| o.clip).collect();
            seen.sort_unstable();
            seen == (0..9).collect::<Vec<_>>()
        }));
    }
}
