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
//!
//! An [`EncodedGop`] *is* that serialisation: one immutable,
//! reference-counted buffer, checked once when the GOP is made. Readers
//! borrow frames and tiles out of it through [`FrameView`]s; a GOP read
//! through the buffer pool shares the pool's buffer instead of copying
//! it, and a GOP returned whole returns those bytes.

use crate::bitio::{read_varint, varint_len, write_varint};
use crate::{CodecError, Result};
use std::sync::Arc;

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

/// One frame as a writer hands it to [`EncodedGop::from_frames`]: a
/// type tag plus one independently decodable payload per tile.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    pub frame_type: FrameType,
    /// Byte payloads, one per tile in row-major grid order. Each
    /// payload begins with its own QP byte, so different tiles of the
    /// same frame may be encoded at different qualities.
    pub tiles: Vec<Vec<u8>>,
}

impl EncodedFrame {
    /// Serialised length: header, tile index and payloads.
    fn serialised_len(&self) -> usize {
        let index: usize = self.tiles.iter().map(|t| varint_len(t.len() as u64) + t.len()).sum();
        1 + varint_len(self.tiles.len() as u64) + index
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.frame_type.to_byte());
        write_varint(out, self.tiles.len() as u64);
        for t in &self.tiles {
            write_varint(out, t.len() as u64);
        }
        for t in &self.tiles {
            out.extend_from_slice(t);
        }
    }
}

/// An encoded group of pictures: its serialised bytes, checked when the
/// GOP is made and immutable after. Cloning shares the bytes; equality
/// is byte equality.
#[derive(Clone)]
pub struct EncodedGop {
    bytes: Arc<Vec<u8>>,
    frames: usize,
}

impl EncodedGop {
    /// Checks `buf` as a whole GOP, then copies it.
    pub fn from_bytes(buf: &[u8]) -> Result<EncodedGop> {
        let frames = walk_frames(buf, |_| {})?;
        Ok(EncodedGop { bytes: Arc::new(buf.to_vec()), frames })
    }

    /// Checks `bytes` as a whole GOP and keeps them: no copy. A GOP made
    /// from the buffer pool's bytes this way *is* the pool's buffer, for
    /// as long as anything holds it.
    pub fn from_shared(bytes: Arc<Vec<u8>>) -> Result<EncodedGop> {
        let frames = walk_frames(&bytes, |_| {})?;
        Ok(EncodedGop { bytes, frames })
    }

    /// Serialises a writer's frames into one exactly-sized buffer, which
    /// must pass [`from_bytes`](Self::from_bytes)'s checks.
    pub fn from_frames(frames: &[EncodedFrame]) -> Result<EncodedGop> {
        let framed = |f: &EncodedFrame| {
            let len = f.serialised_len();
            varint_len(len as u64) + len
        };
        let size = varint_len(frames.len() as u64) + frames.iter().map(framed).sum::<usize>();
        let mut out = Vec::with_capacity(size);
        write_varint(&mut out, frames.len() as u64);
        for f in frames {
            write_varint(&mut out, f.serialised_len() as u64);
            f.write(&mut out);
        }
        Self::from_shared(Arc::new(out))
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// The serialised GOP.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A copy of the serialised GOP.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }

    /// The frames, in order.
    pub fn frames(&self) -> impl Iterator<Item = FrameView<'_>> {
        let buf = self.as_bytes();
        let mut pos = 0;
        // Checked when the GOP was made: every read below succeeds.
        let count = read_varint(buf, &mut pos).map_or(0, |n| n as usize);
        (0..count).map_while(move |_| next_frame(buf, &mut pos).ok())
    }

    /// Total payload bytes across all frames.
    pub fn payload_bytes(&self) -> usize {
        self.frames().map(|f| f.payload_bytes()).sum()
    }

    /// The first `n` frames (all of them, if there are fewer) as a GOP of
    /// their own — the frames' bytes as stored, under a new frame count.
    pub fn first_frames(&self, n: usize) -> EncodedGop {
        let n = n.min(self.frames);
        let buf = self.as_bytes();
        let mut pos = 0;
        let _ = read_varint(buf, &mut pos);
        let start = pos;
        for _ in 0..n {
            if next_frame(buf, &mut pos).is_err() {
                break;
            }
        }
        let frames = &buf[start..pos];
        let mut out = Vec::with_capacity(varint_len(n as u64) + frames.len());
        write_varint(&mut out, n as u64);
        out.extend_from_slice(frames);
        EncodedGop { bytes: Arc::new(out), frames: n }
    }

    /// Extracts tile `index` from every frame, producing a new
    /// single-tile GOP **without decoding** — the byte-level primitive
    /// behind the `TILESELECT` homomorphic operator.
    pub fn extract_tile(&self, index: usize) -> Result<EncodedGop> {
        let mut out = None;
        extract(self.as_bytes(), &[index], Vec::with_capacity, |bytes, frames| {
            out = Some(EncodedGop { bytes: Arc::new(bytes), frames })
        })?;
        out.ok_or_else(|| tile_out_of_range(index))
    }

    /// [`from_bytes`](Self::from_bytes) → [`extract_tile`](Self::extract_tile)
    /// → [`to_bytes`](Self::to_bytes) in one walk of `gop_bytes`, into one
    /// exactly-sized buffer and nothing else.
    pub fn extract_tile_bytes(gop_bytes: &[u8], tile: usize) -> Result<Vec<u8>> {
        Self::extract_tile_bytes_with(gop_bytes, tile, Vec::with_capacity)
    }

    /// [`extract_tile_bytes`](Self::extract_tile_bytes) into a buffer
    /// from `buffer`, which is asked once, with the output's exact
    /// length, after the walk has checked `gop_bytes`. Whatever it
    /// returns is cleared and then holds exactly the output; one too
    /// small grows. The tile server's miss: its cache hands out a
    /// buffer an earlier eviction freed up.
    pub fn extract_tile_bytes_with(
        gop_bytes: &[u8],
        tile: usize,
        buffer: impl FnMut(usize) -> Vec<u8>,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        extract(gop_bytes, &[tile], buffer, |bytes, _| out = bytes)?;
        Ok(out)
    }

    /// [`from_bytes`](Self::from_bytes) → [`extract_tile`](Self::extract_tile)
    /// for each of `tiles` in one walk of `gop_bytes`, copying only the
    /// requested tiles — the scan-side `TILESELECT`. The `k`-th GOP is
    /// tile `tiles[k]`; duplicates repeat and an empty list returns no
    /// GOPs. Errors as the parser does: `Corrupt` wherever it reports
    /// it, otherwise `Incompatible` for the first requested tile, in
    /// request order, that some frame lacks.
    pub fn extract_tiles(gop_bytes: &[u8], tiles: &[usize]) -> Result<Vec<EncodedGop>> {
        let mut out = Vec::with_capacity(tiles.len());
        extract(gop_bytes, tiles, Vec::with_capacity, |bytes, frames| {
            out.push(EncodedGop { bytes: Arc::new(bytes), frames })
        })?;
        Ok(out)
    }

    /// Stitches per-tile GOPs (each single-tile, same frame count and
    /// frame types) into one multi-tile GOP **without decoding** — the
    /// byte-level primitive behind `TILEUNION`. Walks the parts' frames
    /// in lockstep into one buffer.
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
            if p.frames().any(|f| f.tile_count() != 1) {
                return Err(CodecError::Incompatible(format!("tile {i} is not single-tile")));
            }
        }
        let mut walks: Vec<_> = parts.iter().map(EncodedGop::frames).collect();
        let mut row: Vec<FrameView<'_>> = Vec::with_capacity(parts.len());
        // No larger than the parts together: each stitched frame drops
        // all but one of its parts' frame headers.
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.as_bytes().len()).sum());
        write_varint(&mut out, n as u64);
        for fi in 0..n {
            row.clear();
            row.extend(walks.iter_mut().filter_map(Iterator::next));
            let ft = row[0].frame_type;
            if let Some(i) = row.iter().position(|f| f.frame_type != ft) {
                return Err(CodecError::Incompatible(format!(
                    "frame {fi} type mismatch at tile {i}"
                )));
            }
            // Type, tile count, then every part's one tile: its length
            // and its payload (a single-tile frame's payloads).
            let index: usize =
                row.iter().map(|f| varint_len(f.payloads.len() as u64) + f.payloads.len()).sum();
            write_varint(&mut out, (1 + varint_len(row.len() as u64) + index) as u64);
            out.push(ft.to_byte());
            write_varint(&mut out, row.len() as u64);
            for f in &row {
                write_varint(&mut out, f.payloads.len() as u64);
            }
            for f in &row {
                out.extend_from_slice(f.payloads);
            }
        }
        Ok(EncodedGop { bytes: Arc::new(out), frames: n })
    }
}

impl Default for EncodedGop {
    /// The empty GOP: no frames.
    fn default() -> EncodedGop {
        EncodedGop { bytes: Arc::new(vec![0]), frames: 0 }
    }
}

impl PartialEq for EncodedGop {
    fn eq(&self, other: &EncodedGop) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes) || self.as_bytes() == other.as_bytes()
    }
}

impl Eq for EncodedGop {}

impl std::fmt::Debug for EncodedGop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedGop")
            .field("frames", &self.frames)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

/// [`EncodedGop::extract_tile`]'s error for a tile some frame lacks.
fn tile_out_of_range(tile: usize) -> CodecError {
    CodecError::Incompatible(format!("tile {tile} out of range"))
}

/// One checked frame of a serialised GOP, borrowed from its bytes: the
/// frame's type and its tile index — the tile-length varints and the
/// payloads they delimit, back to back.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    frame_type: FrameType,
    tiles: usize,
    lens: &'a [u8],
    payloads: &'a [u8],
}

impl<'a> FrameView<'a> {
    pub fn frame_type(&self) -> FrameType {
        self.frame_type
    }

    /// Number of tiles in this frame.
    pub fn tile_count(&self) -> usize {
        self.tiles
    }

    /// Every tile's payload, in index order.
    pub fn tiles(&self) -> impl Iterator<Item = &'a [u8]> {
        let (lens, payloads) = (self.lens, self.payloads);
        let (mut pos, mut start) = (0, 0usize);
        std::iter::from_fn(move || {
            // The walk already read these lengths and checked their sum.
            let len = read_varint(lens, &mut pos).ok()? as usize;
            let payload = payloads.get(start..start + len)?;
            start += len;
            Some(payload)
        })
    }

    /// Tile `index`'s payload; `None` past the frame's tile count.
    pub fn tile(&self, index: usize) -> Option<&'a [u8]> {
        self.tiles().nth(index)
    }

    /// Payload bytes across the frame's tiles.
    pub fn payload_bytes(&self) -> usize {
        self.payloads.len()
    }
}

/// Reads the frame at `*pos` with the parser's checks, in its order,
/// and moves `*pos` past it. Tile fields are read from `buf` as a
/// whole, not from the frame's own span, as the parser read them: a
/// tile index that overruns its frame fails on the length mismatch.
fn next_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<FrameView<'a>> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError::Corrupt("frame length overflow"))?;
    if end > buf.len() {
        return Err(CodecError::Corrupt("frame truncated"));
    }
    let ty = *buf.get(*pos).ok_or(CodecError::Corrupt("missing frame type"))?;
    *pos += 1;
    let frame_type = FrameType::from_byte(ty)?;
    let tiles = read_varint(buf, pos)? as usize;
    if tiles == 0 || tiles > 4096 {
        return Err(CodecError::Corrupt("implausible tile count"));
    }
    // The tile index: payloads follow the lengths back to back, so a
    // tile starts where the lengths before it sum to.
    let lens_start = *pos;
    let mut total = 0usize;
    for _ in 0..tiles {
        let len = read_varint(buf, pos)? as usize;
        total = total.checked_add(len).ok_or(CodecError::Corrupt("tile length overflow"))?;
    }
    let lens_end = *pos;
    let payloads_end =
        lens_end.checked_add(total).ok_or(CodecError::Corrupt("tile length overflow"))?;
    if payloads_end > buf.len() {
        return Err(CodecError::Corrupt("tile payload truncated"));
    }
    if payloads_end != end {
        return Err(CodecError::Corrupt("frame length mismatch"));
    }
    *pos = end;
    Ok(FrameView {
        frame_type,
        tiles,
        lens: &buf[lens_start..lens_end],
        payloads: &buf[lens_end..end],
    })
}

/// Checks a serialised GOP — every check the parser made, in its order,
/// with its `CodecError` variants — and hands `visit` each frame once it
/// has checked out. `Corrupt` as soon as the parser would report it, so
/// a caller that defers its own errors (a tile some frame lacks) until
/// the walk returns keeps the parser's precedence. Returns the frame
/// count.
fn walk_frames<'a>(buf: &'a [u8], mut visit: impl FnMut(FrameView<'a>)) -> Result<usize> {
    let mut pos = 0;
    let frames = read_varint(buf, &mut pos)? as usize;
    if frames > 1 << 20 {
        return Err(CodecError::Corrupt("implausible frame count"));
    }
    for i in 0..frames {
        let frame = next_frame(buf, &mut pos)?;
        if i == 0 && frame.frame_type != FrameType::Key {
            return Err(CodecError::Corrupt("GOP does not begin with a keyframe"));
        }
        visit(frame);
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after GOP"));
    }
    Ok(frames)
}

/// Where one requested tile of one frame lies: the frame's type byte
/// and the tile's payload.
#[derive(Clone, Copy, Default)]
struct Cut<'a> {
    frame_type: u8,
    payload: &'a [u8],
}

/// Cuts kept on the stack: the tile server's one tile of a second-long
/// GOP, or `TILESELECT`'s handful out of a short one.
const INLINE_CUTS: usize = 64;

/// The one tile extractor. Checks `buf` as [`EncodedGop::from_bytes`]
/// does and, in the same walk, records where each requested tile lies
/// in each frame — one pass over each frame's tile index for all the
/// requests. Then writes the requested tiles, in request order, as
/// serialised single-tile GOPs: each into one buffer `buffer` returns
/// for the output's exact length (cleared, and grown if it is short),
/// handed to `emit` with its frame count. Copies nothing else.
fn extract<'a>(
    buf: &'a [u8],
    tiles: &[usize],
    mut buffer: impl FnMut(usize) -> Vec<u8>,
    mut emit: impl FnMut(Vec<u8>, usize),
) -> Result<()> {
    let k = tiles.len();
    // The frame-major table of cuts, sized by the frame count. Every
    // checked frame takes at least four bytes (length, type, tile
    // count, one tile length), so a hostile count reserves no more than
    // the bytes behind it could hold.
    let mut pos = 0;
    let claimed = read_varint(buf, &mut pos).map_or(0, |n| n as usize);
    let slots = claimed.min(buf.len().saturating_sub(pos) / 4).saturating_mul(k);
    let mut inline = [Cut::default(); INLINE_CUTS];
    let mut spilled = Vec::new();
    let cuts: &mut [Cut<'a>] = match inline.get_mut(..slots) {
        Some(cuts) => cuts,
        None => {
            spilled.resize(slots, Cut::default());
            &mut spilled
        }
    };
    let through = tiles.iter().max().map_or(0, |&t| t.saturating_add(1));
    let (mut fewest, mut row) = (usize::MAX, 0);
    let frames = walk_frames(buf, |frame| {
        fewest = fewest.min(frame.tiles);
        if let Some(cuts) = cuts.get_mut(row * k..(row + 1) * k) {
            // A few integer compares per tile beat re-reading the
            // lengths once per request.
            for (i, payload) in frame.tiles().enumerate().take(through) {
                for (cut, _) in cuts.iter_mut().zip(tiles).filter(|(_, &t)| t == i) {
                    *cut = Cut { frame_type: frame.frame_type.to_byte(), payload };
                }
            }
        }
        row += 1;
    })?;
    if let Some(&t) = tiles.iter().find(|&&t| frames > 0 && t >= fewest) {
        return Err(tile_out_of_range(t));
    }
    // One frame of an output: type, tile count 1, tile length, payload.
    let frame_len = |c: &Cut<'_>| 2 + varint_len(c.payload.len() as u64) + c.payload.len();
    for j in 0..k {
        let column = || cuts.iter().skip(j).step_by(k).take(frames);
        let body: usize = column()
            .map(|c| {
                let len = frame_len(c);
                varint_len(len as u64) + len
            })
            .sum();
        let len = varint_len(frames as u64) + body;
        let mut out = buffer(len);
        out.clear();
        out.reserve_exact(len);
        write_varint(&mut out, frames as u64);
        for c in column() {
            write_varint(&mut out, frame_len(c) as u64);
            out.push(c.frame_type);
            out.push(1);
            write_varint(&mut out, c.payload.len() as u64);
            out.extend_from_slice(c.payload);
        }
        emit(out, frames);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames(tiles_per_frame: usize, frames: usize) -> Vec<EncodedFrame> {
        (0..frames)
            .map(|i| EncodedFrame {
                frame_type: if i == 0 { FrameType::Key } else { FrameType::Predicted },
                tiles: (0..tiles_per_frame).map(|t| vec![(i * 16 + t) as u8; 3 + t]).collect(),
            })
            .collect()
    }

    fn sample_gop(tiles_per_frame: usize, frames: usize) -> EncodedGop {
        EncodedGop::from_frames(&sample_frames(tiles_per_frame, frames)).unwrap()
    }

    #[test]
    fn gop_roundtrips() {
        let gop = sample_gop(4, 5);
        let bytes = gop.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
        assert_eq!(EncodedGop::from_bytes(&bytes).unwrap(), gop);
        let frames = sample_frames(4, 5);
        for (view, frame) in gop.frames().zip(&frames) {
            assert_eq!(view.frame_type(), frame.frame_type);
            assert!(view.tiles().eq(frame.tiles.iter().map(Vec::as_slice)));
        }
        assert_eq!(gop.frames().count(), 5);
    }

    #[test]
    fn empty_gop_roundtrips() {
        let gop = EncodedGop::default();
        assert_eq!(EncodedGop::from_bytes(&gop.to_bytes()).unwrap(), gop);
        assert_eq!(EncodedGop::from_frames(&[]).unwrap(), gop);
    }

    #[test]
    fn truncated_gop_detected() {
        let gop = sample_gop(2, 3);
        let bytes = gop.to_bytes();
        assert!(EncodedGop::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn non_keyframe_start_rejected() {
        let mut frames = sample_frames(1, 2);
        frames[0].frame_type = FrameType::Predicted;
        assert!(matches!(EncodedGop::from_frames(&frames), Err(CodecError::Corrupt(_))));
        // The same GOP as bytes: frame count, first frame's length, then
        // its type byte.
        let mut bytes = sample_gop(1, 2).to_bytes();
        bytes[2] = FrameType::Predicted.to_byte();
        assert!(EncodedGop::from_bytes(&bytes).is_err());
    }

    #[test]
    fn extract_then_stitch_is_identity() {
        let gop = sample_gop(4, 3);
        let parts: Vec<EncodedGop> = (0..4).map(|i| gop.extract_tile(i).unwrap()).collect();
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

    #[test]
    fn first_frames_keeps_a_prefix() {
        let gop = sample_gop(2, 3);
        let key = gop.first_frames(1);
        assert_eq!(key, EncodedGop::from_frames(&sample_frames(2, 1)).unwrap());
        assert_eq!(gop.first_frames(7), gop);
        assert_eq!(EncodedGop::default().first_frames(1), EncodedGop::default());
    }
}
