//! Encoded frames and groups of pictures (GOPs).
//!
//! A GOP is an independently decodable run of frames beginning with a
//! keyframe. Its byte serialisation is fully length-delimited:
//!
//! ```text
//! GOP    := frame_count:varint (frame_len:varint frame)*
//! frame  := type:u8 tile_count:varint (tile_len:varint)* tile_payload*
//! ```
//!
//! The per-frame list of tile payload lengths *is* the tile index
//! (Figure 3 of the paper): homomorphic operators use it to locate a
//! tile's bytes without decoding, and the decoder uses it to decode a
//! single tile.

use crate::bitio::{read_varint, write_varint};
use crate::{CodecError, Result};

/// Intra (key) or predicted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Compressed in isolation; decodable without reference frames.
    Key,
    /// Predicted from the previous frame within the same GOP.
    Predicted,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Key => 0,
            FrameType::Predicted => 1,
        }
    }

    fn from_byte(b: u8) -> Result<FrameType> {
        match b {
            0 => Ok(FrameType::Key),
            1 => Ok(FrameType::Predicted),
            _ => Err(CodecError::Corrupt("unknown frame type")),
        }
    }
}

/// One encoded frame: a type tag plus one independently decodable
/// payload per tile.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    pub frame_type: FrameType,
    /// Byte payloads, one per tile in row-major grid order. Each
    /// payload begins with its own QP byte, so different tiles of the
    /// same frame may be encoded at different qualities.
    pub tiles: Vec<Vec<u8>>,
}

impl EncodedFrame {
    /// Total payload bytes (excluding framing overhead).
    pub fn payload_bytes(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Serialises the frame (header + tile index + payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() + 8 + self.tiles.len() * 2);
        out.push(self.frame_type.to_byte());
        write_varint(&mut out, self.tiles.len() as u64);
        for t in &self.tiles {
            write_varint(&mut out, t.len() as u64);
        }
        for t in &self.tiles {
            out.extend_from_slice(t);
        }
        out
    }

    /// Parses a frame from `buf` starting at `*pos`.
    pub fn from_bytes(buf: &[u8], pos: &mut usize) -> Result<EncodedFrame> {
        let ty = *buf.get(*pos).ok_or(CodecError::Corrupt("missing frame type"))?;
        *pos += 1;
        let frame_type = FrameType::from_byte(ty)?;
        let count = read_varint(buf, pos)? as usize;
        if count == 0 || count > 4096 {
            return Err(CodecError::Corrupt("implausible tile count"));
        }
        // Every tile costs at least its length byte, so the bytes left
        // bound what a hostile count may reserve.
        let cap = count.min(buf.len().saturating_sub(*pos));
        let mut lens = Vec::with_capacity(cap);
        for _ in 0..count {
            lens.push(read_varint(buf, pos)? as usize);
        }
        let mut tiles = Vec::with_capacity(cap);
        for len in lens {
            let end = pos.checked_add(len).ok_or(CodecError::Corrupt("tile length overflow"))?;
            if end > buf.len() {
                return Err(CodecError::Corrupt("tile payload truncated"));
            }
            tiles.push(buf[*pos..end].to_vec());
            *pos = end;
        }
        Ok(EncodedFrame { frame_type, tiles })
    }
}

/// An encoded group of pictures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EncodedGop {
    pub frames: Vec<EncodedFrame>,
}

impl EncodedGop {
    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total payload bytes across all frames.
    pub fn payload_bytes(&self) -> usize {
        self.frames.iter().map(EncodedFrame::payload_bytes).sum()
    }

    /// Serialises the GOP.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, self.frames.len() as u64);
        for f in &self.frames {
            let fb = f.to_bytes();
            write_varint(&mut out, fb.len() as u64);
            out.extend_from_slice(&fb);
        }
        out
    }

    /// Parses a GOP from a complete byte buffer.
    pub fn from_bytes(buf: &[u8]) -> Result<EncodedGop> {
        let mut pos = 0;
        let gop = Self::read(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(CodecError::Corrupt("trailing bytes after GOP"));
        }
        Ok(gop)
    }

    /// Parses a GOP from `buf` starting at `*pos`.
    pub fn read(buf: &[u8], pos: &mut usize) -> Result<EncodedGop> {
        let count = read_varint(buf, pos)? as usize;
        if count > 1 << 20 {
            return Err(CodecError::Corrupt("implausible frame count"));
        }
        // Every frame costs at least its length byte.
        let mut frames = Vec::with_capacity(count.min(buf.len().saturating_sub(*pos)));
        for _ in 0..count {
            let len = read_varint(buf, pos)? as usize;
            let end = pos.checked_add(len).ok_or(CodecError::Corrupt("frame length overflow"))?;
            if end > buf.len() {
                return Err(CodecError::Corrupt("frame truncated"));
            }
            let mut fpos = *pos;
            let frame = EncodedFrame::from_bytes(buf, &mut fpos)?;
            if fpos != end {
                return Err(CodecError::Corrupt("frame length mismatch"));
            }
            frames.push(frame);
            *pos = end;
        }
        let gop = EncodedGop { frames };
        if let Some(first) = gop.frames.first() {
            if first.frame_type != FrameType::Key {
                return Err(CodecError::Corrupt("GOP does not begin with a keyframe"));
            }
        }
        Ok(gop)
    }

    /// Extracts tile `index` from every frame, producing a new
    /// single-tile GOP **without decoding** — the byte-level primitive
    /// behind the `TILESELECT` homomorphic operator.
    pub fn extract_tile(&self, index: usize) -> Result<EncodedGop> {
        let mut frames = Vec::with_capacity(self.frames.len());
        for f in &self.frames {
            let tile = f.tiles.get(index).ok_or_else(|| tile_out_of_range(index))?;
            frames.push(EncodedFrame { frame_type: f.frame_type, tiles: vec![tile.clone()] });
        }
        Ok(EncodedGop { frames })
    }

    /// [`from_bytes`](Self::from_bytes) → [`extract_tile`](Self::extract_tile)
    /// → [`to_bytes`](Self::to_bytes) without materialising the GOP: walks
    /// the frame-length and tile-length varints of `gop_bytes`, checks
    /// everything `from_bytes` checks, and copies tile `tile`'s payload
    /// of every frame into one exactly-sized buffer. Same bytes, and an
    /// error of the same variant on the same inputs — the serving path's
    /// `TILESELECT`, with the parsed form as its oracle.
    pub fn extract_tile_bytes(gop_bytes: &[u8], tile: usize) -> Result<Vec<u8>> {
        // One frame of the output: type, tile count 1, tile length, payload.
        let frame_len = |payload: &[u8]| 2 + varint_len(payload.len() as u64) + payload.len();
        let (mut size, mut missing) = (0usize, false);
        let frames = walk_frames(gop_bytes, Some(tile), |frame| match frame.located {
            Some(payload) => {
                let len = frame_len(payload);
                size += varint_len(len as u64) + len;
            }
            None => missing = true,
        })? as u64;
        if missing {
            return Err(tile_out_of_range(tile));
        }
        // No larger than the input: each output frame is its input
        // frame less the other tiles, under the same frame count.
        let mut out = Vec::with_capacity(varint_len(frames) + size);
        write_varint(&mut out, frames);
        walk_frames(gop_bytes, Some(tile), |frame| {
            if let Some(payload) = frame.located {
                write_varint(&mut out, frame_len(payload) as u64);
                out.push(frame.frame_type.to_byte());
                out.push(1);
                write_varint(&mut out, payload.len() as u64);
                out.extend_from_slice(payload);
            }
        })?;
        Ok(out)
    }

    /// [`from_bytes`](Self::from_bytes) → [`extract_tile`](Self::extract_tile)
    /// for each of `tiles` in one walk of `gop_bytes`, materialising only
    /// the requested tiles — the scan-side `TILESELECT`. The `k`-th GOP
    /// is tile `tiles[k]`; duplicates repeat and an empty list returns no
    /// GOPs. Errors as the oracle does: `Corrupt` wherever the parser
    /// reports it, otherwise `Incompatible` for the first requested tile,
    /// in request order, that some frame lacks.
    pub fn extract_tiles(gop_bytes: &[u8], tiles: &[usize]) -> Result<Vec<EncodedGop>> {
        // Sizes the outputs only (the walk checks the count): every frame
        // costs at least its length byte, so the bytes left bound it.
        let mut pos = 0;
        let frames = read_varint(gop_bytes, &mut pos)
            .map_or(0, |n| (n as usize).min(gop_bytes.len().saturating_sub(pos)));
        let mut out: Vec<EncodedGop> =
            tiles.iter().map(|_| EncodedGop { frames: Vec::with_capacity(frames) }).collect();
        let mut fewest = usize::MAX;
        walk_frames(gop_bytes, None, |frame| {
            fewest = fewest.min(frame.tiles);
            // One pass over the frame's tile index; a few dozen integer
            // compares per tile beat re-reading the lengths per request.
            for (i, payload) in frame.payloads().enumerate() {
                for (gop, _) in out.iter_mut().zip(tiles).filter(|(_, &t)| t == i) {
                    gop.frames.push(EncodedFrame {
                        frame_type: frame.frame_type,
                        tiles: vec![payload.to_vec()],
                    });
                }
            }
        })?;
        match tiles.iter().find(|&&t| t >= fewest) {
            Some(&t) => Err(tile_out_of_range(t)),
            None => Ok(out),
        }
    }

    /// Stitches per-tile GOPs (each single-tile, same frame count and
    /// frame types) into one multi-tile GOP **without decoding** — the
    /// byte-level primitive behind `TILEUNION`.
    pub fn stitch_tiles(parts: &[EncodedGop]) -> Result<EncodedGop> {
        let first = parts.first().ok_or(CodecError::Incompatible("no tiles to stitch".into()))?;
        let n = first.frame_count();
        for (i, p) in parts.iter().enumerate() {
            if p.frame_count() != n {
                return Err(CodecError::Incompatible(format!(
                    "tile {i} has {} frames, expected {n}",
                    p.frame_count()
                )));
            }
            if p.frames.iter().any(|f| f.tiles.len() != 1) {
                return Err(CodecError::Incompatible(format!("tile {i} is not single-tile")));
            }
        }
        let mut frames = Vec::with_capacity(n);
        for fi in 0..n {
            let ft = first.frames[fi].frame_type;
            for (i, p) in parts.iter().enumerate() {
                if p.frames[fi].frame_type != ft {
                    return Err(CodecError::Incompatible(format!(
                        "frame {fi} type mismatch at tile {i}"
                    )));
                }
            }
            let tiles = parts.iter().map(|p| p.frames[fi].tiles[0].clone()).collect();
            frames.push(EncodedFrame { frame_type: ft, tiles });
        }
        Ok(EncodedGop { frames })
    }
}

/// Bytes [`write_varint`] emits for `v`.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// [`EncodedGop::extract_tile`]'s error for a tile some frame lacks.
fn tile_out_of_range(tile: usize) -> CodecError {
    CodecError::Incompatible(format!("tile {tile} out of range"))
}

/// One frame of a serialised GOP that [`walk_frames`] has checked: its
/// type and its tile index — the tile-length varints and the payloads
/// they delimit, back to back.
#[derive(Clone, Copy)]
struct FrameIndex<'a> {
    frame_type: FrameType,
    tiles: usize,
    lens: &'a [u8],
    payloads: &'a [u8],
    /// The payload of the tile the walk was asked to locate, found as
    /// it read the lengths; `None` when the frame has no such tile.
    located: Option<&'a [u8]>,
}

impl<'a> FrameIndex<'a> {
    /// Every tile's payload, in index order.
    fn payloads(self) -> impl Iterator<Item = &'a [u8]> {
        let (mut pos, mut start) = (0, 0usize);
        std::iter::from_fn(move || {
            // The walk already read these lengths and checked their sum.
            let len = read_varint(self.lens, &mut pos).ok()? as usize;
            let payload = self.payloads.get(start..start + len)?;
            start += len;
            Some(payload)
        })
    }
}

/// Walks a serialised GOP with [`EncodedGop::read`]'s checks, in its
/// order, and hands `visit` each frame's tile index once the frame has
/// checked out, with tile `locate` already found in it. `Corrupt` as
/// soon as the parser would report it, so a caller that defers its own
/// errors (a tile some frame lacks) until the walk returns keeps the
/// parser's precedence. Returns the frame count.
fn walk_frames<'a>(
    buf: &'a [u8],
    locate: Option<usize>,
    mut visit: impl FnMut(FrameIndex<'a>),
) -> Result<usize> {
    let mut pos = 0;
    let frames = read_varint(buf, &mut pos)? as usize;
    if frames > 1 << 20 {
        return Err(CodecError::Corrupt("implausible frame count"));
    }
    for i in 0..frames {
        let len = read_varint(buf, &mut pos)? as usize;
        let end = pos.checked_add(len).ok_or(CodecError::Corrupt("frame length overflow"))?;
        if end > buf.len() {
            return Err(CodecError::Corrupt("frame truncated"));
        }
        let ty = *buf.get(pos).ok_or(CodecError::Corrupt("missing frame type"))?;
        pos += 1;
        let frame_type = FrameType::from_byte(ty)?;
        let tiles = read_varint(buf, &mut pos)? as usize;
        if tiles == 0 || tiles > 4096 {
            return Err(CodecError::Corrupt("implausible tile count"));
        }
        // The tile index: payloads follow the lengths back to back, so
        // a tile starts where the lengths before it sum to.
        let lens_start = pos;
        let (mut total, mut located) = (0usize, None);
        for t in 0..tiles {
            let len = read_varint(buf, &mut pos)? as usize;
            if Some(t) == locate {
                located = Some(total..total + len);
            }
            total = total.checked_add(len).ok_or(CodecError::Corrupt("tile length overflow"))?;
        }
        let payloads_end =
            pos.checked_add(total).ok_or(CodecError::Corrupt("tile length overflow"))?;
        if payloads_end > buf.len() {
            return Err(CodecError::Corrupt("tile payload truncated"));
        }
        if payloads_end != end {
            return Err(CodecError::Corrupt("frame length mismatch"));
        }
        if i == 0 && frame_type != FrameType::Key {
            return Err(CodecError::Corrupt("GOP does not begin with a keyframe"));
        }
        let payloads = &buf[pos..end];
        visit(FrameIndex {
            frame_type,
            tiles,
            lens: &buf[lens_start..pos],
            payloads,
            located: located.and_then(|span| payloads.get(span)),
        });
        pos = end;
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after GOP"));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gop(tiles_per_frame: usize, frames: usize) -> EncodedGop {
        let frames = (0..frames)
            .map(|i| EncodedFrame {
                frame_type: if i == 0 { FrameType::Key } else { FrameType::Predicted },
                tiles: (0..tiles_per_frame)
                    .map(|t| vec![(i * 16 + t) as u8; 3 + t])
                    .collect(),
            })
            .collect();
        EncodedGop { frames }
    }

    #[test]
    fn gop_roundtrips() {
        let gop = sample_gop(4, 5);
        let bytes = gop.to_bytes();
        assert_eq!(EncodedGop::from_bytes(&bytes).unwrap(), gop);
    }

    #[test]
    fn empty_gop_roundtrips() {
        let gop = EncodedGop::default();
        assert_eq!(EncodedGop::from_bytes(&gop.to_bytes()).unwrap(), gop);
    }

    #[test]
    fn truncated_gop_detected() {
        let gop = sample_gop(2, 3);
        let bytes = gop.to_bytes();
        assert!(EncodedGop::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn non_keyframe_start_rejected() {
        let mut gop = sample_gop(1, 2);
        gop.frames[0].frame_type = FrameType::Predicted;
        let bytes = gop.to_bytes();
        assert!(EncodedGop::from_bytes(&bytes).is_err());
    }

    #[test]
    fn extract_then_stitch_is_identity() {
        let gop = sample_gop(4, 3);
        let parts: Vec<EncodedGop> =
            (0..4).map(|i| gop.extract_tile(i).unwrap()).collect();
        let stitched = EncodedGop::stitch_tiles(&parts).unwrap();
        assert_eq!(stitched, gop);
    }

    #[test]
    fn extract_out_of_range_errors() {
        let gop = sample_gop(2, 2);
        assert!(gop.extract_tile(2).is_err());
    }

    #[test]
    fn stitch_rejects_mismatched_frame_counts() {
        let a = sample_gop(1, 3);
        let b = sample_gop(1, 4);
        assert!(EncodedGop::stitch_tiles(&[a, b]).is_err());
    }

    #[test]
    fn stitch_rejects_multi_tile_inputs() {
        let a = sample_gop(2, 3);
        let b = sample_gop(1, 3);
        assert!(EncodedGop::stitch_tiles(&[a, b]).is_err());
    }

    #[test]
    fn payload_accounting() {
        let gop = sample_gop(2, 2);
        // tiles are 3 and 4 bytes per frame → 7 per frame, 14 total.
        assert_eq!(gop.payload_bytes(), 14);
    }
}
