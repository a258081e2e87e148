//! Figure 15: homomorphic and optimizer-degeneracy operators, across
//! systems (the paper plots these on a log scale — LightDB's
//! encoded-domain operators win by orders of magnitude).

use crate::setup;
use crate::timed;
use lightdb::exec::{Executor, PhysicalPlan};
use lightdb::prelude::*;
use lightdb_apps::workloads::System;
use lightdb_baselines::ffmpeg::{concat, FfmpegDecoder, FfmpegEncoder, FfmpegEncoderSettings};
use lightdb_baselines::opencv::{Mat, VideoCapture, VideoWriter};
use lightdb_baselines::scanner::ScannerPipeline;
use lightdb_codec::VideoStream;
use lightdb_datasets::Dataset;
use lightdb_frame::Frame;
use std::f64::consts::PI;

/// The Figure 15 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOp {
    /// Whole-tile angular selection on a tiled stream.
    TileSelect,
    /// GOP-aligned temporal selection.
    GopSelect,
    /// The degenerate `SELECT(L, [-∞, +∞])`.
    IdentitySelect,
    /// Stitch four single-tile streams into one tiled stream.
    TileUnion,
    /// Concatenate two streams in time.
    GopUnion,
    /// The degenerate `UNION(L, L)`.
    SelfUnion,
}

impl HopOp {
    pub const ALL: [HopOp; 6] = [
        HopOp::TileSelect,
        HopOp::GopSelect,
        HopOp::IdentitySelect,
        HopOp::TileUnion,
        HopOp::GopUnion,
        HopOp::SelfUnion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            HopOp::TileSelect => "TILESELECT",
            HopOp::GopSelect => "GOPSELECT",
            HopOp::IdentitySelect => "IDENTITY SELECT",
            HopOp::TileUnion => "TILEUNION",
            HopOp::GopUnion => "GOPUNION",
            HopOp::SelfUnion => "SELF UNION",
        }
    }
}

/// Prepares the tiled dataset and the four per-tile TLFs used by the
/// tile experiments (setup, not measured). Returns the tiled name.
pub fn prepare(db: &LightDb, spec: &lightdb_datasets::DatasetSpec) -> String {
    let tiled = setup::install_tiled(db, Dataset::Timelapse, spec, 2, 2);
    // Materialise each tile as its own TLF (TILESELECT at setup).
    for t in 0..4 {
        let name = format!("{tiled}_t{t}");
        if !db.catalog().exists(&name) {
            let exec = Executor::new(db.catalog().clone(), db.pool().clone());
            let plan = PhysicalPlan::Store {
                name: name.clone(),
                view_subgraph: None,
                input: Box::new(PhysicalPlan::TileSelect {
                    input: Box::new(PhysicalPlan::ScanTlf {
                        name: tiled.clone(),
                        version: None,
                        t_frames: None,
                        spatial: None,
                    }),
                    tiles: vec![t],
                }),
            };
            exec.run(&plan).expect("materialise tile");
        }
    }
    tiled
}

/// Runs one Figure 15 operation on LightDB; `(seconds, frames)`.
pub fn run_lightdb(db: &LightDb, op: HopOp, tiled: &str) -> Result<(f64, usize), String> {
    let frames = lightdb_apps::workloads::lightdb_q::stored_frames(db.catalog(), "timelapse")
        .map_err(|e| e.to_string())?;
    match op {
        HopOp::TileSelect => {
            let out = "hop_tilesel_out";
            let _ = db.execute(&drop_tlf(out));
            let q = scan(tiled)
                >> Select::along(Dimension::Theta, 0.0, PI)
                >> Store::named(out);
            let (secs, r) = timed(|| db.execute(&q));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames))
        }
        HopOp::GopSelect => {
            let out = "hop_gopsel_out";
            let _ = db.execute(&drop_tlf(out));
            let q = scan("timelapse")
                >> Select::along(Dimension::T, 1.0, 3.0)
                >> Store::named(out);
            let (secs, r) = timed(|| db.execute(&q));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames))
        }
        HopOp::IdentitySelect => {
            let out = "hop_idsel_out";
            let _ = db.execute(&drop_tlf(out));
            let q = scan("timelapse")
                >> Select::along(Dimension::T, f64::NEG_INFINITY, f64::INFINITY)
                >> Store::named(out);
            let (secs, r) = timed(|| db.execute(&q));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames))
        }
        HopOp::TileUnion => {
            // Stitch the four pre-materialised tiles homomorphically.
            let out = "hop_tileunion_out";
            let _ = db.execute(&drop_tlf(out));
            let exec = Executor::new(db.catalog().clone(), db.pool().clone());
            let scan_tile = |t: usize| PhysicalPlan::ScanTlf {
                name: format!("{tiled}_t{t}"),
                version: None,
                t_frames: None,
                spatial: None,
            };
            let plan = PhysicalPlan::Store {
                name: out.into(),
                view_subgraph: None,
                input: Box::new(PhysicalPlan::TileUnion {
                    inputs: (0..4).map(scan_tile).collect(),
                    cols: 2,
                    rows: 2,
                }),
            };
            let (secs, r) = timed(|| exec.run(&plan));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames))
        }
        HopOp::GopUnion => {
            let out = "hop_gopunion_out";
            let _ = db.execute(&drop_tlf(out));
            let secs_total = db
                .catalog()
                .read("timelapse", None)
                .map_err(|e| e.to_string())?
                .metadata
                .tlf
                .volume
                .t()
                .hi();
            let q = union(
                vec![scan("timelapse"), scan("timelapse") >> Translate::time(secs_total)],
                MergeFunction::Last,
            ) >> Store::named(out);
            let (secs, r) = timed(|| db.execute(&q));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames * 2))
        }
        HopOp::SelfUnion => {
            let out = "hop_selfunion_out";
            let _ = db.execute(&drop_tlf(out));
            let q = union(vec![scan("timelapse"), scan("timelapse")], MergeFunction::Last)
                >> Store::named(out);
            let (secs, r) = timed(|| db.execute(&q));
            r.map_err(|e| e.to_string())?;
            Ok((secs, frames))
        }
    }
}

/// Runs one Figure 15 operation on a baseline; `(seconds, frames)`.
pub fn run_baseline(
    db: &LightDb,
    system: System,
    op: HopOp,
    tiled: &str,
) -> Result<(f64, usize), String> {
    let input = setup::dataset_stream(db, Dataset::Timelapse);
    let frames = input.frame_count();
    let fps_v = input.header.fps;
    // Tile streams for TILEUNION (read from the pre-materialised TLFs).
    let tile_streams: Vec<VideoStream> = if op == HopOp::TileUnion {
        (0..4)
            .map(|t| {
                let stored = db.catalog().read(&format!("{tiled}_t{t}"), None).unwrap();
                stored.media().read_stream(&stored.metadata.tracks[0].media_path).unwrap()
            })
            .collect()
    } else {
        Vec::new()
    };
    // FFmpeg's concat protocol matches GOPUNION (the one baseline
    // parity case the paper calls out).
    if system == System::Ffmpeg && op == HopOp::GopUnion {
        let (secs, r) = timed(|| concat(&[&input, &input]).map(|s| s.to_bytes().len()));
        r.map_err(|e| e.to_string())?;
        return Ok((secs, frames * 2));
    }
    let transform: Box<dyn Fn(Vec<Frame>) -> Vec<Frame>> = match op {
        HopOp::TileSelect => {
            let w = input.header.width;
            let h = input.header.height;
            Box::new(move |fs| fs.into_iter().map(|f| f.crop(0, 0, w / 2, h)).collect())
        }
        HopOp::GopSelect => {
            let (lo, hi) = ((fps_v as usize), (fps_v as usize) * 3);
            Box::new(move |fs| {
                fs.into_iter()
                    .enumerate()
                    .filter(|(i, _)| *i >= lo && *i < hi)
                    .map(|(_, f)| f)
                    .collect()
            })
        }
        HopOp::IdentitySelect | HopOp::SelfUnion => Box::new(|fs| fs),
        HopOp::GopUnion => Box::new(|fs| {
            let mut out = fs.clone();
            out.extend(fs);
            out
        }),
        HopOp::TileUnion => {
            let (w, h) = (input.header.width, input.header.height);
            let tiles: Vec<Vec<Frame>> = tile_streams
                .iter()
                .map(|s| lightdb::codec::Decoder::new().decode(s).unwrap())
                .collect();
            Box::new(move |fs| {
                fs.iter()
                    .enumerate()
                    .map(|(i, _)| {
                        let mut canvas = Frame::new(w, h);
                        for (t, tf) in tiles.iter().enumerate() {
                            let (c, r) = (t % 2, t / 2);
                            canvas.blit(&tf[i], c * w / 2, r * h / 2);
                        }
                        canvas
                    })
                    .collect()
            })
        }
    };
    let (secs, r) = timed(|| -> Result<(), String> {
        match system {
            System::LightDb => unreachable!(),
            System::Ffmpeg => {
                let decoded: Vec<Frame> = FfmpegDecoder::new(&input)
                    .collect::<lightdb_baselines::Result<Vec<_>>>()
                    .map_err(|e| e.to_string())?;
                let out = transform(decoded);
                let mut enc = FfmpegEncoder::new(FfmpegEncoderSettings {
                    fps: fps_v,
                    gop_length: fps_v as usize,
                    ..Default::default()
                });
                for f in &out {
                    enc.push(f).map_err(|e| e.to_string())?;
                }
                enc.finish().map_err(|e| e.to_string())?;
                Ok(())
            }
            System::OpenCv => {
                let mut cap = VideoCapture::open(&input);
                let mut decoded = Vec::new();
                while let Some(m) = cap.read() {
                    decoded.push(m.map_err(|e| e.to_string())?.frame);
                }
                let out = transform(decoded);
                let mut w = VideoWriter::open(fps_v, 20);
                for f in &out {
                    w.write(&Mat::from_frame(f)).map_err(|e| e.to_string())?;
                }
                w.release().map_err(|e| e.to_string())?;
                Ok(())
            }
            System::Scanner => {
                let table = ScannerPipeline::ingest(&input).map_err(|e| e.to_string())?;
                let out = transform(table.frames().to_vec());
                let mut w = VideoWriter::open(fps_v, 20);
                for f in &out {
                    w.write(&Mat::from_frame(f)).map_err(|e| e.to_string())?;
                }
                w.release().map_err(|e| e.to_string())?;
                Ok(())
            }
            System::SciDb => {
                let store = setup::bench_scidb(db, &setup::bench_spec());
                let name = Dataset::Timelapse.name();
                let meta = store.meta(name).map_err(|e| e.to_string())?;
                let decoded = store.subarray(name, 0, meta.frames).map_err(|e| e.to_string())?;
                let out = transform(decoded);
                let tmp = format!("hop_{op:?}");
                store.store_frames(&tmp, &out, fps_v).map_err(|e| e.to_string())?;
                store.export_video(&tmp, 0, out.len(), 20).map_err(|e| e.to_string())?;
                let _ = store.remove(&tmp);
                Ok(())
            }
        }
    });
    r?;
    let produced = if op == HopOp::GopUnion { frames * 2 } else { frames };
    Ok((secs, produced))
}

/// Prints the Figure 15 table.
pub fn print(db: &LightDb, spec: &lightdb_datasets::DatasetSpec) {
    let tiled = prepare(db, spec);
    println!("\nFigure 15: homomorphic & optimized operators, frames per second (log-scale in the paper)");
    crate::row(
        "operator",
        &System::ALL.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
    );
    for op in HopOp::ALL {
        let mut cells = Vec::new();
        for system in System::ALL {
            let r = if system == System::LightDb {
                run_lightdb(db, op, &tiled)
            } else {
                run_baseline(db, system, op, &tiled)
            };
            cells.push(match r {
                Ok((secs, frames)) => crate::fmt_fps(crate::fps(frames, secs)),
                Err(e) => format!("err:{}", &e[..e.len().min(8)]),
            });
        }
        crate::row(op.name(), &cells);
    }
}
