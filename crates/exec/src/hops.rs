//! Homomorphic operators (HOps): byte-level transformations over
//! encoded chunks that never invoke the codec.
//!
//! Because video encode/decode dominates every other cost in a video
//! DBMS, an operator that can satisfy a query by *copying byte
//! ranges* — whole GOPs via the GOP index, single tiles via the tile
//! index — outruns decode-based plans by orders of magnitude (the
//! paper measures up to 500×).
//!
//! `TILESELECT` is the one HOp not here: it runs inside the scan
//! ([`crate::sources::scan_tlf`]'s `tiles`), which walks each GOP's
//! stored bytes once for just the requested tiles instead of parsing
//! every tile and copying the chosen ones out.

use crate::chunk::{Chunk, ChunkPayload, TimeGrouped};
use crate::metrics::Metrics;
use crate::{ChunkStream, ExecError, Result};
use lightdb_codec::{EncodedGop, SequenceHeader, TileGrid};
use lightdb_geom::{Dimension, Interval, Volume, PHI_MAX, THETA_PERIOD};

/// `GOPSELECT` of one chunk: passes it only when its whole GOP
/// overlaps the frame range `[first, last]`. Valid when a temporal
/// selection falls on GOP boundaries; a passed chunk is byte-identical.
pub fn gop_select_chunk(c: Chunk, (first, last): (u64, u64), metrics: &Metrics) -> Option<Chunk> {
    let keep = metrics.time("GOPSELECT", || match &c.payload {
        ChunkPayload::Encoded { header, gop } => {
            let start = (c.t_index * header.gop_length) as u64;
            let end = start + gop.frame_count() as u64;
            start <= last && end > first
        }
        // Decoded chunks pass through untouched (the planner should
        // not have chosen GOPSELECT, but be lenient).
        ChunkPayload::Decoded { .. } => true,
    });
    keep.then_some(c)
}

/// The angular sub-volume covered by tile `index` of `grid` within a
/// full-sphere `volume` (equirectangular layout: θ left→right,
/// φ top→bottom).
pub fn tile_volume(volume: &Volume, grid: &TileGrid, index: usize) -> Volume {
    let col = index % grid.cols;
    let row = index / grid.cols;
    let th = volume.theta();
    let ph = volume.phi();
    let dt = th.length() / grid.cols as f64;
    let dp = ph.length() / grid.rows as f64;
    volume
        .with(
            Dimension::Theta,
            Interval::new(th.lo() + col as f64 * dt, (th.lo() + (col + 1) as f64 * dt).min(THETA_PERIOD)),
        )
        .with(
            Dimension::Phi,
            Interval::new(ph.lo() + row as f64 * dp, (ph.lo() + (row + 1) as f64 * dp).min(PHI_MAX)),
        )
}

/// `KEYFRAMESELECT` of one chunk (an HOp the paper lists as future
/// work): its GOP's keyframe as a one-frame GOP, byte-for-byte —
/// thumbnail or preview extraction at GOP rate without any decoding.
pub fn keyframe_select_chunk(c: Chunk, metrics: &Metrics) -> Result<Chunk> {
    metrics.time("KEYFRAMESELECT", || {
        let ChunkPayload::Encoded { header, gop } = c.payload else {
            return Err(ExecError::Domain("KEYFRAMESELECT requires encoded input".into()));
        };
        if gop.frame_count() == 0 {
            return Err(ExecError::Align("empty GOP".into()));
        }
        // The keyframe's bytes as stored, under a frame count of one.
        let gop = gop.first_frames(1);
        let header = SequenceHeader { gop_length: 1, ..header };
        let keyframe_instant = c.volume.t().lo();
        let volume = c.volume.with(
            Dimension::T,
            Interval::new(keyframe_instant, keyframe_instant + 1.0 / header.fps as f64),
        );
        Ok(Chunk {
            volume,
            payload: ChunkPayload::Encoded { header, gop },
            ..c
        })
    })
}

/// `GOPUNION`: concatenate encoded streams in time by re-basing the
/// second (and later) inputs' time indices — no decode, byte-level
/// GOP concatenation (FFmpeg's "concat protocol" is the analogue).
pub fn gop_union(inputs: Vec<ChunkStream>, metrics: Metrics) -> ChunkStream {
    let mut inputs = inputs.into_iter();
    let mut current: Option<ChunkStream> = inputs.next();
    let mut t_base = 0usize;
    let mut time_base = 0.0f64;
    let mut seen_t_max = 0usize;
    let mut seen_time_max = 0.0f64;
    let mut header_check: Option<SequenceHeader> = None;
    Box::new(std::iter::from_fn(move || loop {
        let stream = current.as_mut()?;
        match stream.next() {
            Some(Err(e)) => return Some(Err(e)),
            Some(Ok(mut c)) => {
                return metrics.time("GOPUNION", || {
                    if let ChunkPayload::Encoded { header, .. } = &c.payload {
                        match &header_check {
                            None => header_check = Some(*header),
                            Some(h) if h != header => {
                                return Some(Err(ExecError::Align(
                                    "GOPUNION inputs have incompatible headers".into(),
                                )))
                            }
                            _ => {}
                        }
                    }
                    c.t_index += t_base;
                    c.volume = c.volume.translate(0.0, 0.0, 0.0, time_base);
                    seen_t_max = seen_t_max.max(c.t_index + 1);
                    seen_time_max = seen_time_max.max(c.volume.t().hi());
                    Some(Ok(c))
                });
            }
            None => {
                // Move to the next input, re-based after this one.
                t_base = seen_t_max;
                time_base = seen_time_max;
                current = inputs.next();
                current.as_ref()?;
            }
        }
    }))
}

/// `TILEUNION`: stitch aligned single-tile encoded streams (given in
/// row-major tile order) into one tiled stream without decoding.
///
/// All inputs must yield exactly one single-tile chunk per time step,
/// with identical frame types and compatible parameters — which is
/// exactly what a tiling subquery produces. Per-tile QPs may differ.
pub fn tile_union(
    inputs: Vec<ChunkStream>,
    cols: usize,
    rows: usize,
    metrics: Metrics,
) -> ChunkStream {
    let mut grouped: Vec<TimeGrouped> = inputs.into_iter().map(TimeGrouped::new).collect();
    let expected = cols * rows;
    Box::new(std::iter::from_fn(move || {
        let mut tiles: Vec<Chunk> = Vec::with_capacity(expected);
        for (i, g) in grouped.iter_mut().enumerate() {
            match g.next() {
                None => {
                    if i == 0 {
                        return None; // all streams exhausted together
                    }
                    return Some(Err(ExecError::Align(format!(
                        "TILEUNION input {i} ended early"
                    ))));
                }
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(mut group)) => {
                    if group.len() != 1 {
                        return Some(Err(ExecError::Align(format!(
                            "TILEUNION input {i} must be single-part, got {} parts",
                            group.len()
                        ))));
                    }
                    match group.pop() {
                        Some(t) => tiles.push(t),
                        None => {
                            return Some(Err(ExecError::Align(format!(
                                "TILEUNION input {i} produced no chunk"
                            ))))
                        }
                    }
                }
            }
        }
        if tiles.len() != expected {
            return Some(Err(ExecError::Align(format!(
                "TILEUNION needs {expected} tiles, got {}",
                tiles.len()
            ))));
        }
        Some(metrics.time("TILEUNION", || stitch(&tiles, cols, rows)))
    }))
}

/// Single-input `TILEUNION` of one time step: its parts, in part
/// order, are the row-major tiles.
pub fn tile_union_group(
    mut group: Vec<Chunk>,
    cols: usize,
    rows: usize,
    metrics: &Metrics,
) -> Result<Chunk> {
    group.sort_by_key(|c| c.part);
    let expected = cols * rows;
    if group.len() != expected {
        return Err(ExecError::Align(format!(
            "TILEUNION expected {expected} tiles per time step, got {}",
            group.len()
        )));
    }
    metrics.time("TILEUNION", || stitch(&group, cols, rows))
}

/// Stitches one time step's single-tile chunks, in row-major tile
/// order, into one `cols × rows` tiled chunk without decoding.
fn stitch(tiles: &[Chunk], cols: usize, rows: usize) -> Result<Chunk> {
    let mut gops = Vec::with_capacity(tiles.len());
    let mut first_header: Option<SequenceHeader> = None;
    let mut volume: Option<Volume> = None;
    let t_index = tiles[0].t_index;
    for c in tiles {
        if c.t_index != t_index {
            return Err(ExecError::Align("TILEUNION inputs are time-misaligned".into()));
        }
        match &c.payload {
            ChunkPayload::Encoded { header, gop } => {
                if header.grid != TileGrid::SINGLE {
                    return Err(ExecError::Align("TILEUNION inputs must be single-tile".into()));
                }
                match &first_header {
                    None => first_header = Some(*header),
                    Some(h) => {
                        if (h.width, h.height, h.fps, h.codec, h.gop_length)
                            != (header.width, header.height, header.fps, header.codec, header.gop_length)
                        {
                            return Err(ExecError::Align(
                                "TILEUNION tile parameters disagree".into(),
                            ));
                        }
                    }
                }
                gops.push(gop.clone());
            }
            ChunkPayload::Decoded { .. } => {
                return Err(ExecError::Domain("TILEUNION requires encoded input".into()))
            }
        }
        volume = Some(match volume {
            None => c.volume,
            Some(v) => v.hull(&c.volume),
        });
    }
    let th = first_header
        .ok_or_else(|| ExecError::Align("TILEUNION with no input tiles".into()))?;
    let stitched = EncodedGop::stitch_tiles(&gops)?;
    let header = SequenceHeader {
        width: th.width * cols,
        height: th.height * rows,
        grid: TileGrid::new(cols, rows),
        ..th
    };
    Ok(Chunk {
        t_index,
        part: 0,
        volume: volume
            .ok_or_else(|| ExecError::Align("TILEUNION tiles carry no volume".into()))?,
        info: tiles[0].info,
        payload: ChunkPayload::Encoded { header, gop: stitched },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::StreamInfo;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_frame::{Frame, Yuv};

    fn encoded_chunks(frames_per_gop: usize, gops: usize, grid: TileGrid) -> Vec<Chunk> {
        let total = frames_per_gop * gops;
        let frames: Vec<Frame> = (0..total)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x + y + 7 * i) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        let enc = Encoder::new(EncoderConfig {
            gop_length: frames_per_gop,
            qp: 28,
            grid,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        stream
            .gops
            .iter()
            .enumerate()
            .map(|(i, g)| Chunk {
                t_index: i,
                part: 0,
                volume: Volume::sphere_at(
                    0.0,
                    0.0,
                    0.0,
                    Interval::new(i as f64, (i + 1) as f64),
                ),
                info: StreamInfo::origin(30),
                payload: ChunkPayload::Encoded { header: stream.header, gop: g.clone() },
            })
            .collect()
    }

    fn to_stream(chunks: Vec<Chunk>) -> ChunkStream {
        Box::new(chunks.into_iter().map(Ok))
    }

    #[test]
    fn gop_select_passes_only_overlapping_gops() {
        let chunks = encoded_chunks(30, 3, TileGrid::SINGLE);
        let m = Metrics::new();
        let out: Vec<Chunk> =
            chunks.into_iter().filter_map(|c| gop_select_chunk(c, (60, 89), &m)).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].t_index, 2);
        assert!(m.count("GOPSELECT") >= 1);
    }

    #[test]
    fn gop_select_range_spanning_boundary() {
        let chunks = encoded_chunks(30, 3, TileGrid::SINGLE);
        let m = Metrics::new();
        let out: Vec<Chunk> =
            chunks.into_iter().filter_map(|c| gop_select_chunk(c, (29, 31), &m)).collect();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn gop_union_rebases_time() {
        let a = encoded_chunks(30, 2, TileGrid::SINGLE);
        let b = encoded_chunks(30, 1, TileGrid::SINGLE);
        let out: Vec<Chunk> =
            gop_union(vec![to_stream(a), to_stream(b)], Metrics::new())
                .map(|c| c.unwrap())
                .collect();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].t_index, 2);
        assert!((out[2].volume.t().lo() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gop_union_rejects_mismatched_headers() {
        let a = encoded_chunks(30, 1, TileGrid::SINGLE);
        let b = encoded_chunks(15, 1, TileGrid::SINGLE); // different gop_length
        let r: Result<Vec<Chunk>> =
            gop_union(vec![to_stream(a), to_stream(b)], Metrics::new()).collect();
        assert!(r.is_err());
    }

    #[test]
    fn tile_union_detects_early_end() {
        let a = encoded_chunks(4, 2, TileGrid::SINGLE);
        let b = encoded_chunks(4, 1, TileGrid::SINGLE);
        let r: Result<Vec<Chunk>> =
            tile_union(vec![to_stream(a), to_stream(b)], 2, 1, Metrics::new()).collect();
        assert!(r.is_err());
    }

    #[test]
    fn tile_volume_partitions_the_sphere() {
        let v = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0));
        let grid = TileGrid::new(4, 4);
        let vols: Vec<Volume> = (0..16).map(|i| tile_volume(&v, &grid, i)).collect();
        // Tiles abut and cover the angular domain.
        assert!((vols[0].theta().lo()).abs() < 1e-9);
        assert!((vols[3].theta().hi() - THETA_PERIOD).abs() < 1e-9);
        assert!((vols[15].phi().hi() - PHI_MAX).abs() < 1e-9);
        assert!((vols[5].theta().lo() - THETA_PERIOD / 4.0).abs() < 1e-9);
    }
}
