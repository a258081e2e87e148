//! `tiling` — the paper's Fig 11a predictive tiling query, one client.
//!
//! `SCAN → DECODE → PARTITION 4×4 → per-tile ENCODE at two qualities →
//! TILEUNION → STORE`, cycling over the nine clips so decode is real
//! every time. Encode-dominated: this is where an encoder change shows.

use super::{
    clip_order, engine_counters, generate_clips, ingest_clips, stored_stream, video_track, Clip,
    Replay,
};
use crate::harness::{timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{self, Digest};
use crate::json::J;
use crate::trace::{Tracer, ROOT_REPLAY};
use lightdb::codec::{
    CodecKind, Decoder, EncodedGop, Encoder, EncoderConfig, SequenceHeader, TileGrid, VideoStream,
};
use lightdb::container::{MetadataFile, TrackRole};
use lightdb::geom::projection::ProjectionKind;
use lightdb::prelude::*;
use lightdb::storage::TrackWrite;
use lightdb_apps::predictor::is_important;
use std::f64::consts::PI;
use std::path::Path;

const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
/// The predicted-viewport tile is encoded at this quality…
const FOCUS: Quality = Quality::Medium;
/// …and every other tile at this one.
const REST: Quality = Quality::Low;

#[derive(Debug)]
pub(crate) struct Tiling {
    db: LightDb,
    session: Session,
    /// Reference for the output check: the same engine, one thread.
    serial: Session,
    clips: Vec<(String, SequenceHeader)>,
    order: Vec<usize>,
}

pub(crate) fn query(input: &str, output: &str) -> VrqlExpr {
    scan(input)
        >> Partition::along(Dimension::T, 1.0)
            .and(Dimension::Theta, 2.0 * PI / GRID.cols as f64)
            .and(Dimension::Phi, PI / GRID.rows as f64)
        >> Subquery::new("adaptive-quality", |partition, tile| {
            let quality = if is_important(partition, GRID.cols, GRID.rows) {
                FOCUS
            } else {
                REST
            };
            tile >> Encode::quality(CodecKind::HevcSim, quality)
        })
        >> Store::named(output)
}

impl Tiling {
    fn clip(&self, i: u64) -> &(String, SequenceHeader) {
        &self.clips[self.order[(i % self.order.len() as u64) as usize]]
    }

    fn run(
        &self,
        session: &Session,
        input: &str,
        output: &str,
        i: u64,
        tr: &Tracer,
    ) -> Result<Done, String> {
        let q = query(input, output);
        let (out, elapsed) = timed(tr, i, "op:session.execute", || session.execute(&q));
        match out {
            Ok(QueryOutput::Stored { .. }) => Ok(Done { elapsed, units: 0 }),
            Ok(other) => Err(format!(
                "tiling {input}: expected a STORE, got {} frames",
                other.frame_count()
            )),
            Err(e) => Err(format!("tiling {input}: {e}")),
        }
    }
}

impl Workload for Tiling {
    type Inputs = (Vec<Clip>, u64);

    fn generate(args: &Args) -> Self::Inputs {
        (generate_clips(args), args.seed)
    }

    fn setup((clips, seed): &Self::Inputs, root: &Path) -> Result<Tiling, String> {
        let db = LightDb::open(root).map_err(|e| format!("open: {e}"))?;
        let headers = ingest_clips(&db, clips)?;
        let session = db.session();
        let mut serial = db.session();
        serial.set_parallelism(Parallelism::SERIAL);
        Ok(Tiling {
            session,
            serial,
            clips: clips.iter().map(|c| c.name.clone()).zip(headers).collect(),
            order: clip_order(*seed, clips.len()),
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
        self.order.len() as u64
    }

    fn op(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        let (name, header) = self.clip(i);
        let done = self.run(&self.session, name, &format!("{name}_tiled"), i, tr)?;
        Ok(Done {
            units: header.gop_length as u64,
            ..done
        })
    }

    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let mut digest = Digest::new();
        let off = Tracer::off();
        for (pos, &c) in self.order.iter().enumerate() {
            let (name, header) = &self.clips[c];
            let out = format!("{name}_tiled");
            let stream = self
                .run(&self.session, name, &out, pos as u64, &off)
                .and_then(|_| stored_stream(&self.db, &out));
            match stream {
                Err(e) => v.check(false, || e),
                Ok(stream) => {
                    v.check(
                        stream.frame_count() == header.gop_length && stream.header.grid == GRID,
                        || {
                            format!(
                                "{out}: {} frames on {:?}",
                                stream.frame_count(),
                                stream.header.grid
                            )
                        },
                    );
                    let bytes = stream.to_bytes();
                    digest.add(&bytes);
                    // One clip of each scene is re-run on one thread:
                    // parallel output must be byte-identical to serial.
                    if c < 3 {
                        let reference = format!("{name}_serial");
                        let serial = self
                            .run(&self.serial, name, &reference, pos as u64, &off)
                            .and_then(|_| stored_stream(&self.db, &reference));
                        v.check(serial.as_ref().is_ok_and(|s| s.to_bytes() == bytes), || {
                            format!("{out}: differs from the serial execution")
                        });
                    }
                }
            }
        }
        v.digest = digest.hex();
        v
    }

    fn replay(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        let (name, header) = self.clip(i);
        let out = format!("{name}_replay");
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            let result = (|| -> Result<(), String> {
                st.plan(&self.db, &query(name, &out))?;
                let stored = st.catalog_read(&self.db, name)?;
                let track = video_track(&stored)?;
                let mut stitched = Vec::new();
                for entry in &track.gop_index {
                    let gop = st.read_gop(&self.db, &stored, track, entry)?;
                    let frames = st
                        .call("codec.decode_gop", || {
                            Decoder::new().decode_gop(header, &gop)
                        })
                        .map_err(|e| format!("replay decode: {e}"))?;
                    let mut tiles = Vec::with_capacity(GRID.tile_count());
                    for t in 0..GRID.tile_count() {
                        let r = GRID.tile_rect(t, header.width, header.height);
                        let cropped: Vec<Frame> =
                            st.units("frame.crop", frames.len() as u64, || {
                                frames
                                    .iter()
                                    .map(|f| f.crop(r.x0, r.y0, r.w, r.h))
                                    .collect()
                            });
                        // Second 0 of a clip predicts tile 0.
                        let quality = if t == 0 { FOCUS } else { REST };
                        let encoded = st
                            .call("codec.encode_gop", || {
                                Encoder::new(EncoderConfig {
                                    codec: CodecKind::HevcSim,
                                    qp: quality.qp(),
                                    grid: TileGrid::SINGLE,
                                    gop_length: header.gop_length,
                                    fps: header.fps,
                                })
                                .and_then(|e| e.encode(&cropped))
                            })
                            .map_err(|e| format!("replay encode: {e}"))?;
                        tiles.extend(encoded.gops);
                    }
                    stitched.push(
                        st.call("hops.stitch", || EncodedGop::stitch_tiles(&tiles))
                            .map_err(|e| format!("replay stitch: {e}"))?,
                    );
                }
                let stream = VideoStream {
                    header: SequenceHeader {
                        grid: GRID,
                        ..*header
                    },
                    gops: stitched,
                };
                let tlf = stored.metadata.tlf.clone();
                st.call("storage.catalog_store", || {
                    self.db.catalog().store(
                        &out,
                        vec![TrackWrite::New {
                            role: TrackRole::Video,
                            projection: ProjectionKind::Equirectangular,
                            stream,
                        }],
                        tlf,
                    )
                })
                .map_err(|e| format!("replay store: {e}"))?;
                let meta = st.call("container.metadata_write", || stored.metadata.to_bytes());
                st.call("container.metadata_parse", || {
                    MetadataFile::from_bytes(&meta)
                })
                .map_err(|e| format!("replay metadata: {e}"))?;
                Ok(())
            })();
            (result, 1)
        })
    }

    fn counters(&self) -> Counters {
        engine_counters(&self.db, &[self.session.metrics(), self.serial.metrics()])
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
            ("frames_per_clip", J::Int(h.gop_length as u64)),
            ("grid", J::str("4x4")),
            ("qualities", J::str(format!("{FOCUS:?}/{REST:?}"))),
            (
                "root_bytes_after_run",
                J::Int(inputs::dir_bytes(self.db.catalog().root())),
            ),
            ("decoded_working_set_bytes", J::Int(decoded as u64)),
            (
                "shared_decode_budget_bytes",
                J::Int(lightdb::DEFAULT_SHARED_DECODE_BYTES as u64),
            ),
            (
                "buffer_pool_bytes",
                J::Int(lightdb::DEFAULT_POOL_BYTES as u64),
            ),
            ("buffer_pool", J::str("fits: encoded inputs are a few MB")),
        ])
    }
}
