//! The GOP as a parsed tree, as it was before `EncodedGop` became its
//! stored bytes: a frame list whose every tile payload is its own
//! buffer, the parser and serialiser that made and unmade it, and the
//! per-tile extraction, stitching and keyframe cut that worked on the
//! tree. Kept as the differential oracle for the byte-backed GOP and
//! its one tile extractor.
//!
//! Shared by this crate's differential tests and, through `#[path]`,
//! by `lightdb-bench`'s kernel benchmark. Public API only.

// Each includer uses its own part.
#![allow(dead_code)]

use lightdb_codec::bitio::{read_varint, write_varint};
use lightdb_codec::{CodecError, FrameType, Result};

fn type_to_byte(t: FrameType) -> u8 {
    match t {
        FrameType::Key => 0,
        FrameType::Predicted => 1,
    }
}

fn type_from_byte(b: u8) -> Result<FrameType> {
    match b {
        0 => Ok(FrameType::Key),
        1 => Ok(FrameType::Predicted),
        _ => Err(CodecError::Corrupt("unknown frame type")),
    }
}

/// One parsed frame: a type tag plus one payload buffer per tile.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedFrame {
    pub(crate) frame_type: FrameType,
    pub(crate) tiles: Vec<Vec<u8>>,
}

impl ParsedFrame {
    /// Total payload bytes (excluding framing overhead).
    pub(crate) fn payload_bytes(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Serialises the frame (header + tile index + payloads).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() + 8 + self.tiles.len() * 2);
        out.push(type_to_byte(self.frame_type));
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
    pub(crate) fn from_bytes(buf: &[u8], pos: &mut usize) -> Result<ParsedFrame> {
        let ty = *buf.get(*pos).ok_or(CodecError::Corrupt("missing frame type"))?;
        *pos += 1;
        let frame_type = type_from_byte(ty)?;
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
        Ok(ParsedFrame { frame_type, tiles })
    }
}

/// One parsed GOP.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ParsedGop {
    pub(crate) frames: Vec<ParsedFrame>,
}

impl ParsedGop {
    pub(crate) fn frame_count(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn payload_bytes(&self) -> usize {
        self.frames.iter().map(ParsedFrame::payload_bytes).sum()
    }

    /// Serialises the GOP.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
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
    pub(crate) fn from_bytes(buf: &[u8]) -> Result<ParsedGop> {
        let mut pos = 0;
        let gop = Self::read(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(CodecError::Corrupt("trailing bytes after GOP"));
        }
        Ok(gop)
    }

    /// Parses a GOP from `buf` starting at `*pos`.
    pub(crate) fn read(buf: &[u8], pos: &mut usize) -> Result<ParsedGop> {
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
            let frame = ParsedFrame::from_bytes(buf, &mut fpos)?;
            if fpos != end {
                return Err(CodecError::Corrupt("frame length mismatch"));
            }
            frames.push(frame);
            *pos = end;
        }
        let gop = ParsedGop { frames };
        if let Some(first) = gop.frames.first() {
            if first.frame_type != FrameType::Key {
                return Err(CodecError::Corrupt("GOP does not begin with a keyframe"));
            }
        }
        Ok(gop)
    }

    /// Tile `index` of every frame, as a single-tile GOP.
    pub(crate) fn extract_tile(&self, index: usize) -> Result<ParsedGop> {
        let mut frames = Vec::with_capacity(self.frames.len());
        for f in &self.frames {
            let tile = f
                .tiles
                .get(index)
                .ok_or_else(|| CodecError::Incompatible(format!("tile {index} out of range")))?;
            frames.push(ParsedFrame { frame_type: f.frame_type, tiles: vec![tile.clone()] });
        }
        Ok(ParsedGop { frames })
    }

    /// Stitches single-tile GOPs into one multi-tile GOP.
    pub(crate) fn stitch_tiles(parts: &[ParsedGop]) -> Result<ParsedGop> {
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
            frames.push(ParsedFrame { frame_type: ft, tiles });
        }
        Ok(ParsedGop { frames })
    }

    /// `KEYFRAMESELECT`'s cut: the GOP truncated to its first frame.
    pub(crate) fn keyframe(&self) -> ParsedGop {
        ParsedGop { frames: self.frames.iter().take(1).cloned().collect() }
    }
}

/// The tile server's miss before the tile-index walker: parse, extract,
/// serialise.
pub(crate) fn extract_tile_bytes(bytes: &[u8], tile: usize) -> Result<Vec<u8>> {
    Ok(ParsedGop::from_bytes(bytes)?.extract_tile(tile)?.to_bytes())
}

/// The scan's `TILESELECT` before the multi-tile walker: parse the GOP,
/// then extract each requested tile in request order.
pub(crate) fn extract_tiles(bytes: &[u8], tiles: &[usize]) -> Result<Vec<ParsedGop>> {
    let gop = ParsedGop::from_bytes(bytes)?;
    tiles.iter().map(|&t| gop.extract_tile(t)).collect()
}
