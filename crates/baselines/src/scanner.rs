//! Scanner-sim: table-of-frames pipelines.
//!
//! Scanner (Poms et al., SIGGRAPH 2018) ingests a video into a table
//! of decoded frames, runs kernels over the table in parallel, and
//! writes results back. Its architectural signature in the paper's
//! experiments: it **pins all uncompressed frames in memory** and
//! performs per-tile, per-frame allocations, so 4K inputs beyond
//! ~20 seconds exhaust memory; and its encode path goes through
//! OpenCV (fixed settings).

use crate::opencv::{Mat, VideoWriter};
use crate::{BaselineError, Result};
use lightdb_codec::{Decoder, VideoStream};
use lightdb_frame::Frame;

/// Default pinned-frame memory budget (bytes). Overridable with
/// `LIGHTDB_SCANNER_BUDGET` for experiments; the paper observed the
/// real system exhausting GPU/host memory at ~20 s of 4K.
pub const DEFAULT_BUDGET: usize = 1 << 30;

/// The pinned-frame budget: `LIGHTDB_SCANNER_BUDGET` if set, else
/// [`DEFAULT_BUDGET`].
pub fn budget() -> usize {
    lightdb_core::envknob::read_usize("LIGHTDB_SCANNER_BUDGET").unwrap_or(DEFAULT_BUDGET)
}

/// A Scanner pipeline over one ingested video.
#[derive(Debug)]
pub struct ScannerPipeline {
    /// Every decoded frame, pinned for the lifetime of the pipeline.
    table: Vec<Frame>,
    fps: u32,
}

impl ScannerPipeline {
    /// Ingests a video: decodes **everything** up front. Fails with
    /// [`BaselineError::OutOfMemory`] when the uncompressed size
    /// exceeds the budget.
    pub fn ingest(stream: &VideoStream) -> Result<ScannerPipeline> {
        ScannerPipeline::ingest_within(stream, budget())
    }

    /// [`ScannerPipeline::ingest`] under a pinned-frame budget of
    /// `budget` bytes.
    pub fn ingest_within(stream: &VideoStream, budget: usize) -> Result<ScannerPipeline> {
        let frame_bytes = stream.header.width * stream.header.height * 3 / 2;
        let needed = frame_bytes * stream.frame_count();
        if needed > budget {
            return Err(BaselineError::OutOfMemory { needed, budget });
        }
        let table = Decoder::new().decode(stream)?;
        Ok(ScannerPipeline { table, fps: stream.header.fps })
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub fn fps(&self) -> u32 {
        self.fps
    }

    pub fn frames(&self) -> &[Frame] {
        &self.table
    }

    /// Runs a kernel over the whole table in parallel (Scanner's
    /// strength), producing a new pinned table.
    pub fn map(&self, kernel: impl Fn(&Frame) -> Frame + Sync) -> ScannerPipeline {
        let outputs = parallel_map(&self.table, |f| kernel(f));
        ScannerPipeline { table: outputs, fps: self.fps }
    }

    /// Slices frames `[lo, hi)` — the table copy is part of the
    /// architecture (every op allocates a new table).
    pub fn slice(&self, lo: usize, hi: usize) -> ScannerPipeline {
        ScannerPipeline {
            table: self.table[lo.min(self.table.len())..hi.min(self.table.len())].to_vec(),
            fps: self.fps,
        }
    }

    /// Splits each frame into a tile grid, producing one pipeline per
    /// tile. The per-tile, per-frame allocation is what exhausted the
    /// real system's memory.
    pub fn tile(&self, cols: usize, rows: usize) -> Result<Vec<ScannerPipeline>> {
        let (w, h) = match self.table.first() {
            None => return Ok(vec![]),
            Some(f) => (f.width(), f.height()),
        };
        let frame_bytes = w * h * 3 / 2;
        // Tiling doubles the pinned footprint (original + tiles).
        let needed = frame_bytes * self.table.len() * 2;
        let b = budget();
        if needed > b {
            return Err(BaselineError::OutOfMemory { needed, budget: b });
        }
        let (tw, th) = (w / cols, h / rows);
        let mut out = Vec::with_capacity(cols * rows);
        for tile in 0..cols * rows {
            let (c, r) = (tile % cols, tile / cols);
            let table: Vec<Frame> =
                self.table.iter().map(|f| f.crop(c * tw, r * th, tw, th)).collect();
            out.push(ScannerPipeline { table, fps: self.fps });
        }
        Ok(out)
    }

    /// Writes the table out through the OpenCV-based encoder.
    pub fn write(&self, requested_qp: u8) -> Result<VideoStream> {
        let mut w = VideoWriter::open(self.fps, requested_qp);
        for f in &self.table {
            // Scanner converts frames to an OpenCV-compatible format
            // first (an extra copy per frame).
            let m = Mat::from_frame(f);
            w.write(&m)?;
        }
        w.release()
    }
}

/// Order-preserving parallel map over a slice.
fn parallel_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let results = parking_lot::Mutex::new(Vec::<(usize, U)>::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            s.spawn(|| loop {
                let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                results.lock().push((i, out));
            });
        }
    });
    let mut results = results.into_inner();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_frame::Yuv;

    fn source(n: usize) -> VideoStream {
        let frames: Vec<Frame> = (0..n)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x + y + i * 7) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        Encoder::new(EncoderConfig { gop_length: 4, fps: 4, qp: 18, ..Default::default() })
            .unwrap()
            .encode(&frames)
            .unwrap()
    }

    #[test]
    fn ingest_materializes_everything() {
        let s = source(8);
        let p = ScannerPipeline::ingest(&s).unwrap();
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn budget_enforced() {
        let s = source(8);
        let r = ScannerPipeline::ingest_within(&s, 1000);
        assert!(matches!(r, Err(BaselineError::OutOfMemory { .. })));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let s = source(6);
        let p = ScannerPipeline::ingest(&s).unwrap();
        let g = p.map(lightdb_frame::kernels::grayscale);
        assert_eq!(g.len(), 6);
        for (a, b) in p.frames().iter().zip(g.frames().iter()) {
            assert_eq!(lightdb_frame::kernels::grayscale(a), *b);
        }
    }

    #[test]
    fn tiling_splits_frames() {
        let s = source(4);
        let p = ScannerPipeline::ingest(&s).unwrap();
        let tiles = p.tile(2, 2).unwrap();
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0].frames()[0].width(), 32);
        assert_eq!(tiles[0].frames()[0].height(), 16);
    }

    #[test]
    fn write_uses_fixed_settings() {
        let s = source(4);
        let p = ScannerPipeline::ingest(&s).unwrap();
        let hi = p.write(6).unwrap();
        let lo = p.write(45).unwrap();
        assert_eq!(hi.payload_bytes(), lo.payload_bytes());
    }
}
