//! Video streams: a sequence header plus length-delimited GOPs.

use crate::bitio::{read_varint, varint_len, write_varint};
use crate::gop::EncodedGop;
use crate::tile::TileGrid;
use crate::{CodecError, Result};

/// Magic bytes identifying a LightDB video stream ("LightDB Video
/// Codec v1").
pub const STREAM_MAGIC: [u8; 4] = *b"LVC1";

/// Codec profile identifiers.
///
/// The two profiles share the same bitstream format; they differ in
/// encoder-side decisions (motion-search range, quantiser deadzone),
/// mirroring the cost/compression trade-off between H.264 and HEVC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Cheaper encode, larger output.
    H264Sim,
    /// More expensive encode (wider motion search), smaller output.
    HevcSim,
}

impl CodecKind {
    pub fn to_byte(self) -> u8 {
        match self {
            CodecKind::H264Sim => 0,
            CodecKind::HevcSim => 1,
        }
    }

    pub fn from_byte(b: u8) -> Result<CodecKind> {
        match b {
            0 => Ok(CodecKind::H264Sim),
            1 => Ok(CodecKind::HevcSim),
            _ => Err(CodecError::Corrupt("unknown codec kind")),
        }
    }

    /// Full-pel motion search range for the profile.
    pub fn search_range(self) -> i32 {
        match self {
            CodecKind::H264Sim => 8,
            CodecKind::HevcSim => 16,
        }
    }

    /// Whether the profile quantises with a deadzone.
    pub fn deadzone(self) -> bool {
        matches!(self, CodecKind::HevcSim)
    }

    /// Display name matching the paper's usage.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::H264Sim => "H264",
            CodecKind::HevcSim => "HEVC",
        }
    }
}

/// Stream-level parameters shared by every GOP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceHeader {
    pub codec: CodecKind,
    pub width: usize,
    pub height: usize,
    /// Frames per second (integer; the paper's datasets are 30 fps).
    pub fps: u32,
    /// Nominal GOP length in frames (the final GOP may be shorter).
    pub gop_length: usize,
    pub grid: TileGrid,
}

impl SequenceHeader {
    /// Validates geometry constraints.
    pub fn validate(&self) -> Result<()> {
        if self.fps == 0 {
            return Err(CodecError::Geometry("fps must be positive".into()));
        }
        if self.gop_length == 0 {
            return Err(CodecError::Geometry("gop length must be positive".into()));
        }
        self.grid.validate(self.width, self.height)
    }

    /// Seconds of video represented by one full GOP.
    pub fn gop_duration(&self) -> f64 {
        self.gop_length as f64 / self.fps as f64
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.codec.to_byte());
        write_varint(out, self.width as u64);
        write_varint(out, self.height as u64);
        write_varint(out, self.fps as u64);
        write_varint(out, self.gop_length as u64);
        write_varint(out, self.grid.cols as u64);
        write_varint(out, self.grid.rows as u64);
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<SequenceHeader> {
        let codec =
            CodecKind::from_byte(*buf.get(*pos).ok_or(CodecError::Corrupt("missing codec"))?)?;
        *pos += 1;
        let width = read_varint(buf, pos)? as usize;
        let height = read_varint(buf, pos)? as usize;
        let fps = read_varint(buf, pos)? as u32;
        let gop_length = read_varint(buf, pos)? as usize;
        let cols = read_varint(buf, pos)? as usize;
        let rows = read_varint(buf, pos)? as usize;
        if cols == 0 || rows == 0 {
            return Err(CodecError::Corrupt("empty tile grid"));
        }
        let header = SequenceHeader {
            codec,
            width,
            height,
            fps,
            gop_length,
            grid: TileGrid::new(cols, rows),
        };
        header.validate()?;
        Ok(header)
    }
}

/// A complete encoded video stream.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoStream {
    pub header: SequenceHeader,
    pub gops: Vec<EncodedGop>,
}

impl VideoStream {
    /// Total frames across all GOPs.
    pub fn frame_count(&self) -> usize {
        self.gops.iter().map(EncodedGop::frame_count).sum()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.frame_count() as f64 / self.header.fps as f64
    }

    /// Total encoded payload bytes (excluding framing).
    pub fn payload_bytes(&self) -> usize {
        self.gops.iter().map(EncodedGop::payload_bytes).sum()
    }

    /// Serialises the stream: magic, header, GOP count, then
    /// length-prefixed GOPs. The length prefixes are what the GOP
    /// index (the container's `stss` atom) records.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.head();
        let framed = |g: &EncodedGop| varint_len(g.as_bytes().len() as u64) + g.as_bytes().len();
        out.reserve_exact(self.gops.iter().map(framed).sum());
        for g in &self.gops {
            write_varint(&mut out, g.as_bytes().len() as u64);
            out.extend_from_slice(g.as_bytes());
        }
        out
    }

    /// What precedes the first GOP: magic, header, GOP count.
    fn head(&self) -> Vec<u8> {
        let mut head = Vec::new();
        head.extend_from_slice(&STREAM_MAGIC);
        self.header.write(&mut head);
        write_varint(&mut head, self.gops.len() as u64);
        head
    }

    /// Parses only the sequence header from a stream's leading bytes
    /// (the GOP index makes the rest reachable by byte range, so
    /// readers never need to parse the whole file).
    pub fn parse_header_prefix(buf: &[u8]) -> Result<SequenceHeader> {
        if buf.len() < 4 || buf[..4] != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad stream magic"));
        }
        let mut pos = 4;
        SequenceHeader::read(buf, &mut pos)
    }

    /// Parses a stream from bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<VideoStream> {
        if buf.len() < 4 || buf[..4] != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad stream magic"));
        }
        let mut pos = 4;
        let header = SequenceHeader::read(buf, &mut pos)?;
        let count = read_varint(buf, &mut pos)? as usize;
        if count > 1 << 24 {
            return Err(CodecError::Corrupt("implausible GOP count"));
        }
        // Every GOP costs at least its length byte, so the bytes left
        // bound what a hostile count may reserve.
        let mut gops = Vec::with_capacity(count.min(buf.len().saturating_sub(pos)));
        for _ in 0..count {
            let len = read_varint(buf, &mut pos)? as usize;
            let end = pos.checked_add(len).ok_or(CodecError::Corrupt("gop length overflow"))?;
            if end > buf.len() {
                return Err(CodecError::Corrupt("gop truncated"));
            }
            gops.push(EncodedGop::from_bytes(&buf[pos..end])?);
            pos = end;
        }
        Ok(VideoStream { header, gops })
    }

    /// Byte ranges `(offset, len)` of each serialised GOP within the
    /// output of [`VideoStream::to_bytes`] — the information a GOP
    /// index stores, enabling `GOPSELECT` to copy byte ranges without
    /// decoding.
    pub fn gop_byte_ranges(&self) -> Vec<(usize, usize)> {
        let mut pos = self.head().len();
        self.gops
            .iter()
            .map(|g| {
                let len = g.as_bytes().len();
                pos += varint_len(len as u64);
                let range = (pos, len);
                pos += len;
                range
            })
            .collect()
    }

    /// Average bit rate in bits per second of the encoded payload.
    pub fn bitrate_bps(&self) -> f64 {
        if self.frame_count() == 0 {
            return 0.0;
        }
        self.payload_bytes() as f64 * 8.0 / self.duration()
    }

    /// Checks that two streams are compatible for GOP-level
    /// concatenation (`GOPUNION`).
    pub fn compatible_for_concat(&self, other: &VideoStream) -> Result<()> {
        if self.header != other.header {
            return Err(CodecError::Incompatible(
                "sequence headers differ; cannot concatenate GOPs".into(),
            ));
        }
        Ok(())
    }

    /// Concatenates streams GOP-by-GOP without decoding (`GOPUNION`).
    pub fn concat(parts: &[&VideoStream]) -> Result<VideoStream> {
        let first = *parts.first().ok_or(CodecError::Incompatible("nothing to concat".into()))?;
        let mut gops = Vec::new();
        for p in parts {
            first.compatible_for_concat(p)?;
            gops.extend(p.gops.iter().cloned());
        }
        Ok(VideoStream { header: first.header, gops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gop::{EncodedFrame, FrameType};

    fn header() -> SequenceHeader {
        SequenceHeader {
            codec: CodecKind::H264Sim,
            width: 64,
            height: 32,
            fps: 30,
            gop_length: 30,
            grid: TileGrid::SINGLE,
        }
    }

    fn tiny_gop(seed: u8) -> EncodedGop {
        EncodedGop::from_frames(&[EncodedFrame {
            frame_type: FrameType::Key,
            tiles: vec![vec![seed; 5]],
        }])
        .unwrap()
    }

    #[test]
    fn header_prefix_parses_without_full_stream() {
        let s = VideoStream { header: header(), gops: vec![tiny_gop(1)] };
        let bytes = s.to_bytes();
        // Only the first few dozen bytes are needed.
        let h = VideoStream::parse_header_prefix(&bytes[..40.min(bytes.len())]).unwrap();
        assert_eq!(h, s.header);
    }

    #[test]
    fn stream_roundtrips() {
        let s = VideoStream { header: header(), gops: vec![tiny_gop(1), tiny_gop(2)] };
        let bytes = s.to_bytes();
        assert_eq!(VideoStream::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(VideoStream::from_bytes(b"XXXX....").is_err());
    }

    #[test]
    fn gop_byte_ranges_are_exact() {
        let s = VideoStream { header: header(), gops: vec![tiny_gop(7), tiny_gop(9)] };
        let bytes = s.to_bytes();
        for (i, (off, len)) in s.gop_byte_ranges().into_iter().enumerate() {
            let gop = EncodedGop::from_bytes(&bytes[off..off + len]).unwrap();
            assert_eq!(gop, s.gops[i], "gop {i}");
        }
    }

    #[test]
    fn concat_joins_gops() {
        let a = VideoStream { header: header(), gops: vec![tiny_gop(1)] };
        let b = VideoStream { header: header(), gops: vec![tiny_gop(2), tiny_gop(3)] };
        let c = VideoStream::concat(&[&a, &b]).unwrap();
        assert_eq!(c.gops.len(), 3);
    }

    #[test]
    fn concat_rejects_mismatched_headers() {
        let a = VideoStream { header: header(), gops: vec![tiny_gop(1)] };
        let mut h2 = header();
        h2.fps = 60;
        let b = VideoStream { header: h2, gops: vec![tiny_gop(2)] };
        assert!(VideoStream::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn duration_and_bitrate() {
        let s = VideoStream { header: header(), gops: vec![tiny_gop(1), tiny_gop(2)] };
        assert_eq!(s.frame_count(), 2);
        assert!((s.duration() - 2.0 / 30.0).abs() < 1e-12);
        assert!(s.bitrate_bps() > 0.0);
    }

    #[test]
    fn header_validation_enforced_on_read() {
        let mut s = VideoStream { header: header(), gops: vec![] };
        s.header.width = 63; // not MB-aligned
        let bytes = s.to_bytes();
        assert!(VideoStream::from_bytes(&bytes).is_err());
    }
}
