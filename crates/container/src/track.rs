//! Typed track metadata (`trak` atoms).

use crate::atom::{kinds, Atom};
use crate::{ContainerError, Result};
use lightdb_codec::bitio::{read_varint, write_varint};
use lightdb_codec::CodecKind;
use lightdb_geom::projection::ProjectionKind;

/// One entry of a GOP index (`stss` atom): where an independently
/// decodable group of pictures begins, in both time and bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopIndexEntry {
    /// Time of the GOP's keyframe, in frames since stream start.
    pub start_frame: u64,
    /// Number of frames in the GOP.
    pub frame_count: u64,
    /// Byte offset of the GOP within the media file.
    pub byte_offset: u64,
    /// Byte length of the serialised GOP.
    pub byte_len: u64,
    /// CRC-32 of the serialised GOP bytes (see [`crate::checksum`]);
    /// `0` means no checksum was recorded for this entry.
    pub crc32: u32,
}

/// The role a track plays within a TLF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackRole {
    /// Visual data for a 360° sphere or a light slab.
    Video,
    /// A depth-map stream accompanying a sphere (stereoscopic
    /// rendering from depth).
    DepthMap,
}

/// Metadata for one media stream: codec, projection, a pointer to the
/// externally stored media file, and a GOP index.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    pub role: TrackRole,
    pub codec: CodecKind,
    pub projection: ProjectionKind,
    /// File name of the externally stored encoded stream, relative to
    /// the TLF directory (`dref` atom).
    pub media_path: String,
    /// GOP index (`stss` atom).
    pub gop_index: Vec<GopIndexEntry>,
}

impl Track {
    /// Total frames covered by the GOP index.
    pub fn frame_count(&self) -> u64 {
        self.gop_index.iter().map(|e| e.frame_count).sum()
    }

    /// Finds GOP-index entries overlapping the frame range
    /// `[first, last]` (inclusive) — the temporal point/range lookup
    /// the query processor performs for `SELECT` over `t`.
    pub fn gops_for_frames(&self, first: u64, last: u64) -> Vec<&GopIndexEntry> {
        self.gop_index
            .iter()
            .filter(|e| e.start_frame <= last && e.start_frame + e.frame_count > first)
            .collect()
    }

    /// Serialises into a `trak` container atom.
    pub fn to_atom(&self) -> Atom {
        let stsd = Atom::leaf(
            kinds::STSD,
            vec![
                match self.role {
                    TrackRole::Video => 0,
                    TrackRole::DepthMap => 1,
                },
                self.codec.to_byte(),
            ],
        );
        let sv3d = Atom::leaf(
            kinds::SV3D,
            vec![match self.projection {
                ProjectionKind::Equirectangular => 0,
                ProjectionKind::CubeMap => 1,
            }],
        );
        let dref = Atom::leaf(kinds::DREF, self.media_path.as_bytes().to_vec());
        let mut stss = Vec::new();
        write_varint(&mut stss, self.gop_index.len() as u64);
        for e in &self.gop_index {
            write_varint(&mut stss, e.start_frame);
            write_varint(&mut stss, e.frame_count);
            write_varint(&mut stss, e.byte_offset);
            write_varint(&mut stss, e.byte_len);
            write_varint(&mut stss, e.crc32 as u64);
        }
        Atom::container(
            kinds::TRAK,
            vec![stsd, sv3d, dref, Atom::leaf(kinds::STSS, stss)],
        )
    }

    /// Parses a `trak` atom.
    pub fn from_atom(atom: &Atom) -> Result<Track> {
        if atom.code != kinds::TRAK {
            return Err(ContainerError::Malformed("expected trak atom"));
        }
        let stsd = atom
            .find(kinds::STSD)
            .and_then(Atom::bytes)
            .ok_or(ContainerError::MissingAtom("stsd"))?;
        if stsd.len() < 2 {
            return Err(ContainerError::Malformed("stsd too short"));
        }
        let role = match stsd[0] {
            0 => TrackRole::Video,
            1 => TrackRole::DepthMap,
            _ => return Err(ContainerError::Malformed("unknown track role")),
        };
        let codec = CodecKind::from_byte(stsd[1])
            .map_err(|_| ContainerError::Malformed("unknown codec in stsd"))?;
        let sv3d = atom
            .find(kinds::SV3D)
            .and_then(Atom::bytes)
            .ok_or(ContainerError::MissingAtom("sv3d"))?;
        let projection = match sv3d.first() {
            Some(0) => ProjectionKind::Equirectangular,
            Some(1) => ProjectionKind::CubeMap,
            _ => return Err(ContainerError::Malformed("unknown projection in sv3d")),
        };
        let dref = atom
            .find(kinds::DREF)
            .and_then(Atom::bytes)
            .ok_or(ContainerError::MissingAtom("dref"))?;
        let media_path = String::from_utf8(dref.to_vec())
            .map_err(|_| ContainerError::Malformed("dref path is not UTF-8"))?;
        let stss = atom
            .find(kinds::STSS)
            .and_then(Atom::bytes)
            .ok_or(ContainerError::MissingAtom("stss"))?;
        let mut pos = 0;
        let n = read_varint(stss, &mut pos)
            .map_err(|_| ContainerError::Malformed("stss count"))? as usize;
        if n > 1 << 24 {
            return Err(ContainerError::Malformed("implausible stss count"));
        }
        let mut gop_index = Vec::with_capacity(n);
        for _ in 0..n {
            let mut next = || {
                read_varint(stss, &mut pos).map_err(|_| ContainerError::Malformed("stss entry"))
            };
            gop_index.push(GopIndexEntry {
                start_frame: next()?,
                frame_count: next()?,
                byte_offset: next()?,
                byte_len: next()?,
                crc32: next()? as u32,
            });
        }
        Ok(Track { role, codec, projection, media_path, gop_index })
    }

    /// Builds the GOP index for an encoded stream by pairing its GOP
    /// byte ranges with frame counts.
    pub fn index_stream(stream: &lightdb_codec::VideoStream) -> Vec<GopIndexEntry> {
        let ranges = stream.gop_byte_ranges();
        let mut start_frame = 0u64;
        let mut out = Vec::with_capacity(ranges.len());
        for (gop, (off, len)) in stream.gops.iter().zip(ranges) {
            let fc = gop.frame_count() as u64;
            out.push(GopIndexEntry {
                start_frame,
                frame_count: fc,
                byte_offset: off as u64,
                byte_len: len as u64,
                crc32: crate::checksum::checksum(gop.as_bytes()),
            });
            start_frame += fc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_track() -> Track {
        Track {
            role: TrackRole::Video,
            codec: CodecKind::HevcSim,
            projection: ProjectionKind::Equirectangular,
            media_path: "stream0.lvc".into(),
            gop_index: vec![
                GopIndexEntry { start_frame: 0, frame_count: 30, byte_offset: 32, byte_len: 1000, crc32: 0x1234 },
                GopIndexEntry {
                    start_frame: 30,
                    frame_count: 30,
                    byte_offset: 1032,
                    byte_len: 900,
                    crc32: 0,
                },
                GopIndexEntry {
                    start_frame: 60,
                    frame_count: 15,
                    byte_offset: 1932,
                    byte_len: 500,
                    crc32: 0xDEAD_BEEF,
                },
            ],
        }
    }

    #[test]
    fn track_atom_roundtrip() {
        let t = sample_track();
        let atom = t.to_atom();
        assert_eq!(Track::from_atom(&atom).unwrap(), t);
    }

    #[test]
    fn depth_track_roundtrip() {
        let t = Track { role: TrackRole::DepthMap, ..sample_track() };
        assert_eq!(Track::from_atom(&t.to_atom()).unwrap().role, TrackRole::DepthMap);
    }

    #[test]
    fn frame_count_sums_gops() {
        assert_eq!(sample_track().frame_count(), 75);
    }

    #[test]
    fn gop_lookup_finds_overlaps() {
        let t = sample_track();
        // A range inside the second GOP.
        let hits = t.gops_for_frames(35, 40);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].start_frame, 30);
        // A range spanning the boundary between GOP 0 and 1.
        let hits = t.gops_for_frames(29, 31);
        assert_eq!(hits.len(), 2);
        // The entire stream.
        assert_eq!(t.gops_for_frames(0, 74).len(), 3);
        // Past the end.
        assert!(t.gops_for_frames(100, 200).is_empty());
    }

    #[test]
    fn missing_child_atoms_detected() {
        let bad = Atom::container(kinds::TRAK, vec![]);
        assert!(matches!(Track::from_atom(&bad), Err(ContainerError::MissingAtom("stsd"))));
    }

    #[test]
    fn wrong_atom_kind_rejected() {
        let not_trak = Atom::leaf(kinds::STSD, vec![]);
        assert!(Track::from_atom(&not_trak).is_err());
    }
}
