//! Figure 13: 360TLF operator micro-benchmarks across the five
//! systems — SELECT (temporal / angular), MAP (blur / grayscale),
//! UNION (second video / watermark / rotated self), and PARTITION
//! (temporal / angular). Each system executes a minimal
//! `input → operator → output` pipeline.

use crate::setup;
use crate::timed;
use lightdb::prelude::*;
use lightdb_apps::workloads::System;
use lightdb_baselines::ffmpeg::{FfmpegDecoder, FfmpegEncoder, FfmpegEncoderSettings};
use lightdb_baselines::opencv::{Mat, VideoCapture, VideoWriter};
use lightdb_baselines::scanner::ScannerPipeline;
use lightdb_codec::VideoStream;
use lightdb_datasets::Dataset;
use lightdb_frame::{kernels, Frame};
use std::f64::consts::PI;

/// The micro-operators of Figure 13 (and the SlabTLF subset reused by
/// Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// `SELECT(t ∈ [1.5, 3.5])` — misaligned, exercises the GOP index.
    SelectT,
    /// `SELECT(θ ∈ [π/2, π])`.
    SelectTheta,
    /// `SELECT(θ ∈ [π/2, π], φ ∈ [π/4, π/2])`.
    SelectThetaPhi,
    MapBlur,
    MapGray,
    /// `UNION` with the Venice dataset.
    UnionVenice,
    /// `UNION` with the (mostly-null) watermark TLF.
    UnionWatermark,
    /// `UNION` with a 90°-rotated copy of the input.
    UnionRotated,
    /// `PARTITION(Δt = 1.5)`.
    PartitionT,
    /// `PARTITION(Δθ = π/2)`.
    PartitionTheta,
    /// `PARTITION(Δφ = π/4)`.
    PartitionPhi,
}

impl MicroOp {
    pub const ALL: [MicroOp; 11] = [
        MicroOp::SelectT,
        MicroOp::SelectTheta,
        MicroOp::SelectThetaPhi,
        MicroOp::MapBlur,
        MicroOp::MapGray,
        MicroOp::UnionVenice,
        MicroOp::UnionWatermark,
        MicroOp::UnionRotated,
        MicroOp::PartitionT,
        MicroOp::PartitionTheta,
        MicroOp::PartitionPhi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MicroOp::SelectT => "select t=[1.5,3.5]",
            MicroOp::SelectTheta => "select θ=[π/2,π]",
            MicroOp::SelectThetaPhi => "select θ,φ",
            MicroOp::MapBlur => "map blur",
            MicroOp::MapGray => "map grayscale",
            MicroOp::UnionVenice => "union venice",
            MicroOp::UnionWatermark => "union watermark",
            MicroOp::UnionRotated => "union rotated",
            MicroOp::PartitionT => "partition Δt=1.5",
            MicroOp::PartitionTheta => "partition Δθ=π/2",
            MicroOp::PartitionPhi => "partition Δφ=π/4",
        }
    }
}

/// Runs a micro-op on LightDB (Timelapse input), returning
/// `(seconds, source frames)`.
pub fn run_lightdb(db: &LightDb, op: MicroOp) -> Result<(f64, usize), String> {
    let out = format!("micro_out_{op:?}");
    let _ = db.execute(&drop_tlf(&out));
    let input = || scan("timelapse");
    let q = match op {
        MicroOp::SelectT => input() >> Select::along(Dimension::T, 1.5, 3.5),
        MicroOp::SelectTheta => input() >> Select::along(Dimension::Theta, PI / 2.0, PI),
        MicroOp::SelectThetaPhi => {
            input()
                >> Select::along(Dimension::Theta, PI / 2.0, PI).and(
                    Dimension::Phi,
                    PI / 4.0,
                    PI / 2.0,
                )
        }
        MicroOp::MapBlur => input() >> Map::builtin(BuiltinMap::Blur),
        MicroOp::MapGray => input() >> Map::builtin(BuiltinMap::Grayscale),
        MicroOp::UnionVenice => union(vec![input(), scan("venice")], MergeFunction::Last),
        MicroOp::UnionWatermark => union(vec![input(), scan("watermark")], MergeFunction::Last),
        MicroOp::UnionRotated => union(
            vec![input(), input() >> Rotate::new(PI / 2.0, 0.0)],
            MergeFunction::Last,
        ),
        MicroOp::PartitionT => input() >> Partition::along(Dimension::T, 1.5),
        MicroOp::PartitionTheta => input() >> Partition::along(Dimension::Theta, PI / 2.0),
        MicroOp::PartitionPhi => input() >> Partition::along(Dimension::Phi, PI / 4.0),
    };
    let frames = lightdb_apps::workloads::lightdb_q::stored_frames(db.catalog(), "timelapse")
        .map_err(|e| e.to_string())?;
    let (secs, r) = timed(|| db.execute(&(q >> Store::named(&out))));
    r.map_err(|e| e.to_string())?;
    Ok((secs, frames))
}

/// Per-frame realisations of the micro-ops for the baselines (they
/// all work on decoded 2-D frames).
fn frame_op(op: MicroOp, w: usize, h: usize) -> impl Fn(&Frame) -> Frame {
    move |f: &Frame| match op {
        MicroOp::SelectTheta => f.crop(w / 4, 0, w / 4 * 2, h),
        MicroOp::SelectThetaPhi => f.crop(w / 4, h / 4, w / 4 * 2, (h / 4) & !1),
        MicroOp::MapBlur => kernels::blur(f),
        MicroOp::MapGray => kernels::grayscale(f),
        _ => f.clone(),
    }
}

fn union_source(db: &LightDb, op: MicroOp) -> Option<VideoStream> {
    match op {
        MicroOp::UnionVenice => Some(setup::dataset_stream(db, Dataset::Venice)),
        MicroOp::UnionWatermark => {
            let stored = db.catalog().read("watermark", None).ok()?;
            stored.media().read_stream(&stored.metadata.tracks[0].media_path).ok()
        }
        MicroOp::UnionRotated => Some(setup::dataset_stream(db, Dataset::Timelapse)),
        _ => None,
    }
}

fn overlay(base: &mut Frame, other: &Frame, op: MicroOp) {
    match op {
        MicroOp::UnionRotated => {
            // Rotate the other input by 90° then take it (LAST).
            let w = other.width();
            for y in 0..other.height() {
                for x in 0..w {
                    base.set(x, y, other.get((x + w * 3 / 4) % w, y));
                }
            }
        }
        MicroOp::UnionWatermark => {
            // Composite non-null watermark pixels (scaled to a corner).
            let scaled = other.resize(base.width() / 4, (base.height() / 4) & !1);
            for y in 0..scaled.height() {
                for x in 0..scaled.width() {
                    let c = scaled.get(x, y);
                    if !lightdb::exec::chunk::is_omega(c) {
                        base.set(x, y, c);
                    }
                }
            }
        }
        _ => {
            // LAST over full overlap: the other input wins.
            base.blit(other, 0, 0);
        }
    }
}

/// The temporal range of `SELECT t=[1.5, 3.5]` in frames.
fn t_range(fps: u32) -> (usize, usize) {
    ((1.5 * fps as f64) as usize, (3.5 * fps as f64) as usize)
}

/// Runs a micro-op on a baseline, returning `(seconds, source frames)`.
pub fn run_baseline(db: &LightDb, system: System, op: MicroOp) -> Result<(f64, usize), String> {
    let input = setup::dataset_stream(db, Dataset::Timelapse);
    let frames_total = input.frame_count();
    let (w, h) = (input.header.width, input.header.height);
    let fps_v = input.header.fps;
    let fop = frame_op(op, w, h);
    let other = union_source(db, op);
    let is_union = other.is_some();
    let (secs, r) = timed(|| -> Result<(), String> {
        match system {
            System::LightDb => unreachable!("use run_lightdb"),
            System::Ffmpeg => {
                let settings = FfmpegEncoderSettings {
                    fps: fps_v,
                    gop_length: fps_v as usize,
                    ..Default::default()
                };
                let mut enc: Option<FfmpegEncoder> = None;
                let mut others = other.as_ref().map(FfmpegDecoder::new);
                let (lo, hi) = t_range(fps_v);
                let mut partitions: Vec<FfmpegEncoder> = Vec::new();
                for (i, f) in FfmpegDecoder::new(&input).enumerate() {
                    let mut f = f.map_err(|e| e.to_string())?;
                    if op == MicroOp::SelectT && (i < lo || i >= hi) {
                        continue;
                    }
                    if is_union {
                        if let Some(Some(Ok(o))) = others.as_mut().map(|d| d.next()) {
                            overlay(&mut f, &o, op);
                        }
                    }
                    let f = fop(&f);
                    match op {
                        MicroOp::PartitionT => {
                            // New encoder per 1.5 s segment.
                            let seg = (i as f64 / (1.5 * fps_v as f64)) as usize;
                            while partitions.len() <= seg {
                                partitions.push(FfmpegEncoder::new(settings));
                            }
                            partitions[seg].push(&f).map_err(|e| e.to_string())?;
                        }
                        MicroOp::PartitionTheta | MicroOp::PartitionPhi => {
                            let (cols, rows) =
                                if op == MicroOp::PartitionTheta { (4, 1) } else { (1, 4) };
                            while partitions.len() < cols * rows {
                                partitions.push(FfmpegEncoder::new(settings));
                            }
                            #[allow(clippy::needless_range_loop)]
                            for t in 0..cols * rows {
                                let (c, r) = (t % cols, t / cols);
                                partitions[t]
                                    .push(&f.crop(
                                        c * (w / cols),
                                        r * (h / rows),
                                        w / cols,
                                        h / rows,
                                    ))
                                    .map_err(|e| e.to_string())?;
                            }
                        }
                        _ => {
                            enc.get_or_insert_with(|| FfmpegEncoder::new(settings))
                                .push(&f)
                                .map_err(|e| e.to_string())?;
                        }
                    }
                }
                if let Some(e) = enc {
                    e.finish().map_err(|e| e.to_string())?;
                }
                for p in partitions {
                    p.finish().map_err(|e| e.to_string())?;
                }
                Ok(())
            }
            System::OpenCv => {
                let mut cap = VideoCapture::open(&input);
                let mut writer = VideoWriter::open(fps_v, 20);
                let mut others = other.as_ref().map(VideoCapture::open);
                let (lo, hi) = t_range(fps_v);
                let mut i = 0usize;
                while let Some(m) = cap.read() {
                    let mut m = m.map_err(|e| e.to_string())?;
                    let keep = op != MicroOp::SelectT || (i >= lo && i < hi);
                    i += 1;
                    if !keep {
                        continue;
                    }
                    if let Some(o) = others.as_mut() {
                        if let Some(Ok(om)) = o.read() {
                            overlay(&mut m.frame, &om.frame, op);
                        }
                    }
                    let outf = fop(&m.frame);
                    writer.write(&Mat::from_frame(&outf)).map_err(|e| e.to_string())?;
                }
                writer.release().map_err(|e| e.to_string())?;
                Ok(())
            }
            System::Scanner => {
                let table = ScannerPipeline::ingest(&input).map_err(|e| e.to_string())?;
                let table = if op == MicroOp::SelectT {
                    let (lo, hi) = t_range(fps_v);
                    table.slice(lo, hi)
                } else {
                    table
                };
                let table = if let Some(o) = &other {
                    let olist =
                        ScannerPipeline::ingest(o).map_err(|e| e.to_string())?;
                    let merged: Vec<Frame> = table
                        .frames()
                        .iter()
                        .enumerate()
                        .map(|(i, f)| {
                            let mut f = f.clone();
                            if i < olist.len() {
                                overlay(&mut f, &olist.frames()[i], op);
                            }
                            fop(&f)
                        })
                        .collect();
                    // Re-wrap by writing and re-ingesting (Scanner
                    // tables always originate from videos).
                    let mut wtr = VideoWriter::open(fps_v, 20);
                    for f in &merged {
                        wtr.write(&Mat::from_frame(f)).map_err(|e| e.to_string())?;
                    }
                    let s = wtr.release().map_err(|e| e.to_string())?;
                    ScannerPipeline::ingest(&s).map_err(|e| e.to_string())?
                } else {
                    table.map(&fop)
                };
                table.write(20).map_err(|e| e.to_string())?;
                Ok(())
            }
            System::SciDb => {
                let store = setup::bench_scidb(db, &setup::bench_spec());
                let name = Dataset::Timelapse.name();
                match op {
                    MicroOp::SelectT => {
                        let (lo, hi) = t_range(fps_v);
                        store.export_video(name, lo, hi, 20).map_err(|e| e.to_string())?;
                    }
                    _ => {
                        let tmp = format!("micro_{op:?}");
                        let other_frames = other
                            .as_ref()
                            .map(|o| {
                                lightdb::codec::Decoder::new()
                                    .decode(o)
                                    .map_err(|e| e.to_string())
                            })
                            .transpose()?;
                        let idx = std::sync::atomic::AtomicUsize::new(0);
                        store
                            .apply(name, &tmp, |f| {
                                let i = idx.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let mut f = f.clone();
                                if let Some(of) = &other_frames {
                                    if i < of.len() {
                                        overlay(&mut f, &of[i], op);
                                    }
                                }
                                fop(&f)
                            })
                            .map_err(|e| e.to_string())?;
                        let meta = store.meta(&tmp).map_err(|e| e.to_string())?;
                        store
                            .export_video(&tmp, 0, meta.frames, 20)
                            .map_err(|e| e.to_string())?;
                        let _ = store.remove(&tmp);
                    }
                }
                Ok(())
            }
        }
    });
    r?;
    Ok((secs, frames_total))
}

/// Prints the Figure 13 table and returns how many of its cells are
/// errors (printed as `err:…`).
pub fn print(db: &LightDb) -> usize {
    let mut failed = 0;
    println!("\nFigure 13: 360TLF operator performance (Timelapse), frames per second");
    crate::row(
        "operator",
        &System::ALL.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
    );
    for op in MicroOp::ALL {
        let mut cells = Vec::new();
        for system in System::ALL {
            let r = if system == System::LightDb {
                run_lightdb(db, op)
            } else {
                run_baseline(db, system, op)
            };
            cells.push(match r {
                Ok((secs, frames)) => crate::fmt_fps(crate::fps(frames, secs)),
                Err(e) => {
                    failed += 1;
                    eprintln!("{} on {}: {e}", op.name(), system.name());
                    format!("err:{}", &e[..e.len().min(8)])
                }
            });
        }
        crate::row(op.name(), &cells);
    }
    failed
}
