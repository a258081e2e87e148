//! OpenCV-sim: `VideoCapture` / `VideoWriter` / `Mat`-style API.
//!
//! OpenCV's architectural signature in the paper's experiments:
//! frame-at-a-time processing with a fresh buffer ("Mat") per frame,
//! and a `VideoWriter` whose encoder settings are essentially fixed —
//! on Linux it has no NVENC and offers no robust rate/QP control, so
//! quality-adaptive workloads can't actually vary quality (which is
//! why the baselines only reach ~20 % size reduction in Table 3).

use crate::Result;
use lightdb_codec::encoder::encode_tile_opts;
use lightdb_codec::gop::{EncodedFrame, EncodedGop, FrameType};
use lightdb_codec::{CodecKind, Decoder, SequenceHeader, TileGrid, VideoStream};
use lightdb_frame::Frame;

/// The writer's fixed quantisation: requests for other qualities are
/// ignored, as with OpenCV's limited codec-settings surface.
pub const WRITER_QP: u8 = 28;

/// The writer's software encoder uses an exhaustive wide motion
/// search (no hardware encoder available).
pub const WRITER_SEARCH_RANGE: i32 = 16;

/// A `Mat`: an owned frame buffer. Every pipeline stage clones into a
/// fresh `Mat`, as OpenCV pipelines typically do.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    pub frame: Frame,
}

impl Mat {
    pub fn from_frame(frame: &Frame) -> Mat {
        Mat { frame: frame.clone() } // the copy is the point
    }

    /// `cv::cvtColor(..., COLOR_*2GRAY)`.
    pub fn to_gray(&self) -> Mat {
        Mat { frame: lightdb_frame::kernels::grayscale(&self.frame) }
    }

    /// `cv::GaussianBlur`.
    pub fn blur(&self) -> Mat {
        Mat { frame: lightdb_frame::kernels::blur(&self.frame) }
    }

    /// `cv::filter2D` sharpen.
    pub fn sharpen(&self) -> Mat {
        Mat { frame: lightdb_frame::kernels::sharpen(&self.frame) }
    }

    /// `cv::Rect` ROI crop (copies).
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Mat {
        Mat { frame: self.frame.crop(x, y, w, h) }
    }

    /// `cv::resize` (nearest).
    pub fn resize(&self, w: usize, h: usize) -> Mat {
        Mat { frame: self.frame.resize(w, h) }
    }

    /// Paste a region (`mat.copyTo(roi)`).
    pub fn paste(&mut self, src: &Mat, x: usize, y: usize) {
        self.frame.blit(&src.frame, x, y);
    }
}

/// `cv::VideoCapture`: sequential frame reads.
#[derive(Debug)]
pub struct VideoCapture<'a> {
    stream: &'a VideoStream,
    gop: usize,
    buffered: Vec<Frame>,
    next: usize,
}

impl<'a> VideoCapture<'a> {
    pub fn open(stream: &'a VideoStream) -> Self {
        VideoCapture { stream, gop: 0, buffered: Vec::new(), next: 0 }
    }

    /// Reads the next frame into a fresh `Mat`, or `None` at EOF.
    pub fn read(&mut self) -> Option<Result<Mat>> {
        if self.next >= self.buffered.len() {
            if self.gop >= self.stream.gops.len() {
                return None;
            }
            let gop = &self.stream.gops[self.gop];
            self.gop += 1;
            match Decoder::new().decode_gop(&self.stream.header, gop) {
                Ok(frames) => {
                    self.buffered = frames;
                    self.next = 0;
                }
                Err(e) => return Some(Err(e.into())),
            }
        }
        let m = Mat::from_frame(&self.buffered[self.next]);
        self.next += 1;
        Some(Ok(m))
    }

    pub fn fps(&self) -> u32 {
        self.stream.header.fps
    }
}

/// `cv::VideoWriter`: fixed-settings software encoder.
#[derive(Debug)]
pub struct VideoWriter {
    fps: u32,
    gop_length: usize,
    reference: Option<Frame>,
    frames_in_gop: Vec<EncodedFrame>,
    gops: Vec<EncodedGop>,
    dims: Option<(usize, usize)>,
}

impl VideoWriter {
    /// `requested_qp` is accepted but ignored (fixed settings).
    pub fn open(fps: u32, _requested_qp: u8) -> VideoWriter {
        VideoWriter {
            fps,
            gop_length: fps as usize,
            reference: None,
            frames_in_gop: Vec::new(),
            gops: Vec::new(),
            dims: None,
        }
    }

    pub fn write(&mut self, mat: &Mat) -> Result<()> {
        let dims = (mat.frame.width(), mat.frame.height());
        match self.dims {
            None => self.dims = Some(dims),
            Some(d) if d != dims => {
                return Err(crate::BaselineError::Other("frame size changed".into()))
            }
            _ => {}
        }
        let is_key = self.frames_in_gop.len().is_multiple_of(self.gop_length);
        let reference = if is_key { None } else { self.reference.as_ref() };
        let (payload, recon) = encode_tile_opts(
            &mat.frame,
            reference,
            WRITER_QP,
            CodecKind::HevcSim,
            WRITER_SEARCH_RANGE,
        );
        self.reference = Some(recon);
        self.frames_in_gop.push(EncodedFrame {
            frame_type: if is_key { FrameType::Key } else { FrameType::Predicted },
            tiles: vec![payload],
        });
        if self.frames_in_gop.len() == self.gop_length {
            self.gops.push(EncodedGop::from_frames(&self.frames_in_gop)?);
            self.frames_in_gop.clear();
        }
        Ok(())
    }

    pub fn release(mut self) -> Result<VideoStream> {
        if !self.frames_in_gop.is_empty() {
            self.gops.push(EncodedGop::from_frames(&self.frames_in_gop)?);
            self.frames_in_gop.clear();
        }
        let (w, h) =
            self.dims.ok_or_else(|| crate::BaselineError::Other("no frames written".into()))?;
        Ok(VideoStream {
            header: SequenceHeader {
                codec: CodecKind::HevcSim,
                width: w,
                height: h,
                fps: self.fps,
                gop_length: self.gop_length,
                grid: TileGrid::SINGLE,
            },
            gops: self.gops,
        })
    }
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
                        f.set(x, y, Yuv::new(((x * 3 + y + i * 5) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        Encoder::new(EncoderConfig { gop_length: 4, fps: 4, qp: 16, ..Default::default() })
            .unwrap()
            .encode(&frames)
            .unwrap()
    }

    #[test]
    fn capture_reads_every_frame() {
        let s = source(8);
        let mut cap = VideoCapture::open(&s);
        let mut n = 0;
        while let Some(m) = cap.read() {
            m.unwrap();
            n += 1;
        }
        assert_eq!(n, 8);
    }

    #[test]
    fn writer_ignores_requested_qp() {
        let s = source(4);
        let write_with = |qp: u8| {
            let mut cap = VideoCapture::open(&s);
            let mut w = VideoWriter::open(4, qp);
            while let Some(m) = cap.read() {
                w.write(&m.unwrap()).unwrap();
            }
            w.release().unwrap().payload_bytes()
        };
        // "High quality" and "low quality" produce identical sizes:
        // the settings surface is fixed.
        assert_eq!(write_with(6), write_with(45));
    }

    #[test]
    fn mat_ops_compose() {
        let s = source(1);
        let mut cap = VideoCapture::open(&s);
        let m = cap.read().unwrap().unwrap();
        let g = m.to_gray().blur().crop(0, 0, 32, 16).resize(64, 32);
        assert_eq!(g.frame.width(), 64);
        assert!(g.frame.get(5, 5).is_achromatic());
    }

    #[test]
    fn roundtrip_through_writer() {
        let s = source(4);
        let mut cap = VideoCapture::open(&s);
        let mut w = VideoWriter::open(4, 20);
        while let Some(m) = cap.read() {
            w.write(&m.unwrap()).unwrap();
        }
        let out = w.release().unwrap();
        assert_eq!(out.frame_count(), 4);
        assert_eq!(out.header.codec, CodecKind::HevcSim);
    }
}
