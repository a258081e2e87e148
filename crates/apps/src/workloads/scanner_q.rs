//! The workloads against the Scanner-style API.
//!
//! Scanner pipelines are concise (tables + kernels), but the
//! developer still selects tile geometry and pays the
//! materialise-everything architecture: long inputs exhaust the
//! pinned-frame budget before any work happens.

use crate::workloads::{HI_QP, LO_QP};
use crate::{detect::boxes_overlay, predictor::important_tile, Result, RunStats};
use lightdb::exec::chunk::is_omega;
use lightdb_baselines::ffmpeg::concat;
use lightdb_baselines::scanner::{self, ScannerPipeline};
use lightdb_codec::VideoStream;
use lightdb_frame::Frame;

/// Predictive 360° tiling, Scanner-style.
pub fn tiling(input: &VideoStream, cols: usize, rows: usize) -> Result<(VideoStream, RunStats)> {
    tiling_within(input, cols, rows, scanner::budget())
}

/// [`tiling`] under a pinned-frame budget of `budget` bytes.
pub fn tiling_within(
    input: &VideoStream,
    cols: usize,
    rows: usize,
    budget: usize,
) -> Result<(VideoStream, RunStats)> {
    let bytes_in = input.to_bytes().len();
    // LOC:BEGIN scanner-tiling
    let fps = input.header.fps as usize;
    let (w, h) = (input.header.width, input.header.height);
    let table = ScannerPipeline::ingest_within(input, budget)?; // pins every frame
    let seconds = table.len().div_ceil(fps);
    let mut outputs: Vec<VideoStream> = Vec::new();
    for second in 0..seconds {
        let window = table.slice(second * fps, (second + 1) * fps);
        let tiles = window.tile(cols, rows)?; // per-tile, per-frame copies
        let hot = important_tile(second, cols * rows);
        // Encode each tile (the writer's settings are fixed, so the
        // requested qualities do not differentiate the outputs).
        let mut encoded: Vec<VideoStream> = Vec::with_capacity(tiles.len());
        for (i, t) in tiles.iter().enumerate() {
            encoded.push(t.write(if i == hot { HI_QP } else { LO_QP })?);
        }
        // Recombine via decode + paste + encode.
        let mut canvases = vec![Frame::new(w, h); window.len()];
        for (i, ts) in encoded.iter().enumerate() {
            let (c, r) = (i % cols, i / cols);
            let tile_table = ScannerPipeline::ingest_within(ts, budget)?;
            for (fi, f) in tile_table.frames().iter().enumerate() {
                canvases[fi].blit(f, c * (w / cols), r * (h / rows));
            }
        }
        let recombined = ScannerPipeline::ingest_within(&{
            // Wrap the canvases as a pipeline by encoding once
            // (Scanner tables originate from videos).
            let mut tmp = lightdb_baselines::opencv::VideoWriter::open(fps as u32, HI_QP);
            for f in &canvases {
                tmp.write(&lightdb_baselines::opencv::Mat::from_frame(f))?;
            }
            tmp.release()?
        }, budget)?;
        outputs.push(recombined.write(HI_QP)?);
    }
    let refs: Vec<&VideoStream> = outputs.iter().collect();
    let output = concat(&refs)?;
    // LOC:END scanner-tiling
    let stats = RunStats {
        frames: output.frame_count(),
        bytes_in,
        bytes_out: output.to_bytes().len(),
    };
    Ok((output, stats))
}

/// Augmented reality, Scanner-style.
pub fn ar(input: &VideoStream, detect_size: usize) -> Result<(VideoStream, RunStats)> {
    let bytes_in = input.to_bytes().len();
    // LOC:BEGIN scanner-ar
    let (w, h) = (input.header.width, input.header.height);
    let table = ScannerPipeline::ingest(input)?; // pins every frame
    // Kernel 1: downscale (Scanner converts through OpenCV formats).
    let small = table.map(|f| f.resize(detect_size, detect_size));
    // Kernel 2: detect and upscale the overlay.
    let overlays = small.map(|f| boxes_overlay(f).resize(w, h));
    // Kernel 3: composite overlay onto source (bounding-box overlay
    // goes through OpenCV in the real system).
    let composed: Vec<Frame> = table
        .frames()
        .iter()
        .zip(overlays.frames())
        .map(|(src, ov)| {
            let mut out = src.clone();
            for y in 0..h {
                for x in 0..w {
                    let c = ov.get(x, y);
                    if !is_omega(c) {
                        out.set(x, y, c);
                    }
                }
            }
            out
        })
        .collect();
    let mut writer = lightdb_baselines::opencv::VideoWriter::open(input.header.fps, HI_QP);
    for f in &composed {
        writer.write(&lightdb_baselines::opencv::Mat::from_frame(f))?;
    }
    let output = writer.release()?;
    // LOC:END scanner-ar
    let stats = RunStats {
        frames: output.frame_count(),
        bytes_in,
        bytes_out: output.to_bytes().len(),
    };
    Ok((output, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_datasets::{encode_dataset, Dataset, DatasetSpec};

    fn spec() -> DatasetSpec {
        DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 22 }
    }

    #[test]
    fn tiling_runs() {
        let input = encode_dataset(Dataset::Venice, &spec());
        let (out, _) = tiling(&input, 2, 2).unwrap();
        assert_eq!(out.frame_count(), 8);
    }

    #[test]
    fn ar_runs() {
        let input = encode_dataset(Dataset::Venice, &spec());
        let (out, _) = ar(&input, 64).unwrap();
        assert_eq!(out.frame_count(), 8);
    }

    #[test]
    fn long_input_exhausts_memory() {
        let input = encode_dataset(Dataset::Venice, &spec());
        let r = tiling_within(&input, 2, 2, 50000);
        assert!(r.is_err(), "scanner must OOM under a tiny budget");
    }
}
