//! Chunks: the unit of data flow between physical operators.

use crate::device::Device;
use lightdb_codec::{EncodedGop, SequenceHeader};
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::projection::ProjectionKind;
use lightdb_geom::{Point3, Volume};

/// The pixel value LightDB uses as the null token ω at pixel
/// granularity: pure black with zeroed chroma never occurs in real
/// (BT.601 full-range) content produced by our pipeline, so it can
/// mark "no light ray here" in sparse TLFs such as detection overlays.
pub const OMEGA: Yuv = Yuv { y: 0, u: 0, v: 0 };

/// True when a pixel is the null token.
#[inline]
pub fn is_omega(c: Yuv) -> bool {
    c == OMEGA
}

/// Light-slab sampling information for slab-backed streams: the
/// chunk's frames are the `nu × nv` uv-plane samples of one time
/// step, in row-major raster order (each frame is one st-image).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabInfo {
    pub nu: usize,
    pub nv: usize,
    pub uv_min: Point3,
    pub uv_max: Point3,
}

impl SlabInfo {
    /// Frame index of the uv sample nearest to `(x, y)` (slab plane
    /// coordinates), clamped to the sampled grid.
    pub fn nearest_sample(&self, x: f64, y: f64) -> usize {
        let fx = if self.uv_max.x > self.uv_min.x {
            (x - self.uv_min.x) / (self.uv_max.x - self.uv_min.x)
        } else {
            0.0
        };
        let fy = if self.uv_max.y > self.uv_min.y {
            (y - self.uv_min.y) / (self.uv_max.y - self.uv_min.y)
        } else {
            0.0
        };
        let u = ((fx * self.nu as f64) as isize).clamp(0, self.nu as isize - 1) as usize;
        let v = ((fy * self.nv as f64) as isize).clamp(0, self.nv as isize - 1) as usize;
        v * self.nu + u
    }
}

/// Static per-stream information carried alongside chunk payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamInfo {
    pub projection: ProjectionKind,
    /// The spatial point the stream's sphere sits at (slabs use the
    /// uv-plane centre).
    pub position: Point3,
    pub fps: u32,
    /// Present for light-slab streams.
    pub slab: Option<SlabInfo>,
}

impl StreamInfo {
    pub fn origin(fps: u32) -> StreamInfo {
        StreamInfo {
            projection: ProjectionKind::Equirectangular,
            position: Point3::ORIGIN,
            fps,
            slab: None,
        }
    }
}

/// Chunk payload: encoded GOP bytes or device-resident frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkPayload {
    Encoded {
        /// Stream parameters needed to decode the GOP.
        header: SequenceHeader,
        gop: EncodedGop,
    },
    Decoded {
        frames: Vec<Frame>,
        device: Device,
    },
}

/// One unit of flow: a time step (GOP) of one part of a TLF.
///
/// Ordering contract: streams yield chunks with non-decreasing
/// `t_index`; within one `t_index`, all parts appear consecutively
/// ordered by `part`.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Time-step ordinal (GOP number since stream start).
    pub t_index: usize,
    /// Part ordinal within the TLF (spatial point / angular tile).
    pub part: usize,
    /// The 6-D extent this chunk covers.
    pub volume: Volume,
    pub info: StreamInfo,
    pub payload: ChunkPayload,
}

impl Chunk {
    /// Frame count regardless of payload domain.
    pub fn frame_count(&self) -> usize {
        match &self.payload {
            ChunkPayload::Encoded { gop, .. } => gop.frame_count(),
            ChunkPayload::Decoded { frames, .. } => frames.len(),
        }
    }

    /// True when the payload is encoded bytes.
    pub fn is_encoded(&self) -> bool {
        matches!(self.payload, ChunkPayload::Encoded { .. })
    }

    /// The device holding a decoded payload (`Cpu` for encoded ones —
    /// encoded bytes live in host memory).
    pub fn device(&self) -> Device {
        match &self.payload {
            ChunkPayload::Encoded { .. } => Device::Cpu,
            ChunkPayload::Decoded { device, .. } => *device,
        }
    }

    /// The decoded frames, for operator `op` to read or rewrite in
    /// place; a `Domain` error naming `op` when the payload is still
    /// encoded (the planner decodes before every frame operator).
    pub fn frames_mut(&mut self, op: &str) -> crate::Result<&mut Vec<Frame>> {
        match &mut self.payload {
            ChunkPayload::Decoded { frames, .. } => Ok(frames),
            ChunkPayload::Encoded { .. } => {
                Err(crate::ExecError::Domain(format!("{op} requires decoded input")))
            }
        }
    }

    /// Encoded payload bytes (0 for decoded chunks).
    pub fn encoded_bytes(&self) -> usize {
        match &self.payload {
            ChunkPayload::Encoded { gop, .. } => gop.payload_bytes(),
            ChunkPayload::Decoded { .. } => 0,
        }
    }
}

/// Groups a chunk stream by `t_index`, yielding one `Vec<Chunk>` per
/// time step — the alignment primitive n-ary operators use.
pub struct TimeGrouped {
    inner: crate::ChunkStream,
    pending: Option<Chunk>,
}

impl std::fmt::Debug for TimeGrouped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `inner` is an opaque boxed stream; show only what is known.
        f.debug_struct("TimeGrouped").field("pending", &self.pending).finish_non_exhaustive()
    }
}

impl TimeGrouped {
    pub fn new(inner: crate::ChunkStream) -> Self {
        TimeGrouped { inner, pending: None }
    }
}

impl Iterator for TimeGrouped {
    type Item = crate::Result<Vec<Chunk>>;

    fn next(&mut self) -> Option<Self::Item> {
        let first = match self.pending.take() {
            Some(c) => c,
            None => match self.inner.next() {
                None => return None,
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(c)) => c,
            },
        };
        let t = first.t_index;
        let mut group = vec![first];
        loop {
            match self.inner.next() {
                None => break,
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(c)) => {
                    if c.t_index == t {
                        group.push(c);
                    } else {
                        self.pending = Some(c);
                        break;
                    }
                }
            }
        }
        Some(Ok(group))
    }
}

// Chunks are the unit of work the parallel layer scatters across
// scoped worker threads (see [`crate::parallel`]); the payload types
// must stay `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Chunk>();
    assert_send_sync::<ChunkPayload>();
    assert_send_sync::<StreamInfo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_geom::Interval;

    fn chunk(t: usize, part: usize) -> Chunk {
        Chunk {
            t_index: t,
            part,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t as f64, t as f64 + 1.0)),
            info: StreamInfo::origin(30),
            payload: ChunkPayload::Decoded { frames: vec![], device: Device::Cpu },
        }
    }

    #[test]
    fn omega_detection() {
        assert!(is_omega(OMEGA));
        assert!(!is_omega(Yuv::BLACK)); // video black has neutral chroma
        assert!(!is_omega(Yuv::GREY));
    }

    #[test]
    fn time_grouping_batches_by_t_index() {
        let chunks = vec![chunk(0, 0), chunk(0, 1), chunk(1, 0), chunk(2, 0), chunk(2, 1)];
        let stream: crate::ChunkStream = Box::new(chunks.into_iter().map(Ok));
        let groups: Vec<Vec<Chunk>> =
            TimeGrouped::new(stream).map(|g| g.unwrap()).collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[2].len(), 2);
        assert_eq!(groups[2][1].part, 1);
    }

    #[test]
    fn time_grouping_empty_stream() {
        let stream: crate::ChunkStream = Box::new(std::iter::empty());
        assert_eq!(TimeGrouped::new(stream).count(), 0);
    }

    #[test]
    fn chunk_accessors() {
        let c = chunk(0, 0);
        assert!(!c.is_encoded());
        assert_eq!(c.device(), Device::Cpu);
        assert_eq!(c.frame_count(), 0);
        assert_eq!(c.encoded_bytes(), 0);
    }
}
