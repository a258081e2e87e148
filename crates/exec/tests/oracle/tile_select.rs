//! The encoded-output path as it ran before `TILESELECT` moved into the
//! scan, kept as the differential oracle for the tile-projecting scan:
//! the scan parses every GOP whole, a chunk-domain `TILESELECT` clones
//! each requested tile out of it with `EncodedGop::extract_tile`, and
//! the sink groups chunks by a linear search over the parts and clones
//! every GOP into its output stream.
//!
//! Feed [`tile_select`] a scan without a tile list. Public API only.

use lightdb_codec::{SequenceHeader, TileGrid, VideoStream};
use lightdb_exec::hops::tile_volume;
use lightdb_exec::{Chunk, ChunkPayload, ChunkStream, ExecError, Metrics, Result};

/// `TILESELECT`: extract the given tiles from each encoded chunk as
/// independent single-tile streams, using only the tile index.
///
/// Output parts are numbered `part * tiles.len() + k` for the k-th
/// requested tile, and each carries a synthesised single-tile
/// sequence header plus the tile's angular sub-volume.
pub(crate) fn tile_select(input: ChunkStream, tiles: Vec<usize>, metrics: Metrics) -> ChunkStream {
    let mut pending: Vec<Chunk> = Vec::new();
    let mut input = input;
    Box::new(std::iter::from_fn(move || loop {
        if let Some(c) = pending.pop() {
            return Some(Ok(c));
        }
        let chunk = match input.next()? {
            Err(e) => return Some(Err(e)),
            Ok(c) => c,
        };
        let (header, gop) = match &chunk.payload {
            ChunkPayload::Encoded { header, gop } => (*header, gop),
            ChunkPayload::Decoded { .. } => {
                return Some(Err(ExecError::Domain(
                    "TILESELECT requires encoded input".into(),
                )))
            }
        };
        let r = metrics.time("TILESELECT", || -> Result<Vec<Chunk>> {
            let mut out = Vec::with_capacity(tiles.len());
            for (k, &t) in tiles.iter().enumerate() {
                if t >= header.grid.tile_count() {
                    return Err(ExecError::Domain(format!(
                        "tile {t} out of range for {}×{} grid",
                        header.grid.cols, header.grid.rows
                    )));
                }
                let sub = gop.extract_tile(t)?;
                let (tw, th) = header.grid.tile_dims(header.width, header.height);
                let sub_header = SequenceHeader {
                    width: tw,
                    height: th,
                    grid: TileGrid::SINGLE,
                    ..header
                };
                out.push(Chunk {
                    t_index: chunk.t_index,
                    part: chunk.part * tiles.len() + k,
                    volume: tile_volume(&chunk.volume, &header.grid, t),
                    info: chunk.info,
                    payload: ChunkPayload::Encoded {
                        header: sub_header,
                        gop: sub,
                    },
                });
            }
            Ok(out)
        });
        match r {
            Err(e) => return Some(Err(e)),
            Ok(mut chunks) => {
                chunks.reverse(); // popped back-to-front
                pending = chunks;
            }
        }
    }))
}

/// The encoded sink: one stream per output part in part order, each
/// GOP cloned out of its chunk.
pub(crate) fn collect_streams(stream: ChunkStream) -> Result<Vec<VideoStream>> {
    let mut parts: Vec<(usize, Vec<Chunk>)> = Vec::new();
    for c in stream {
        let c = c?;
        match parts.iter_mut().find(|(id, _)| *id == c.part) {
            Some((_, chunks)) => chunks.push(c),
            None => parts.push((c.part, vec![c])),
        }
    }
    parts.sort_by_key(|(id, _)| *id);
    parts
        .iter()
        .map(|(_, chunks)| assemble_stream(chunks))
        .collect()
}

fn assemble_stream(chunks: &[Chunk]) -> Result<VideoStream> {
    let mut header = None;
    let mut gops = Vec::with_capacity(chunks.len());
    for c in chunks {
        let ChunkPayload::Encoded { header: h, gop } = &c.payload else {
            return Err(ExecError::Domain("cannot assemble decoded chunks".into()));
        };
        match &header {
            None => header = Some(*h),
            Some(prev) => {
                if (prev.codec, prev.width, prev.height, prev.fps, prev.grid)
                    != (h.codec, h.width, h.height, h.fps, h.grid)
                {
                    return Err(ExecError::Align(
                        "output chunks have incompatible stream parameters".into(),
                    ));
                }
            }
        }
        gops.push(gop.clone());
    }
    let header = header.ok_or_else(|| ExecError::Other("empty output part".into()))?;
    Ok(VideoStream { header, gops })
}
