//! FFmpeg-sim: a streaming decode → filter → encode library.
//!
//! FFmpeg is the strongest baseline: it streams (no whole-video
//! materialisation), exposes full codec settings, and its *concat
//! protocol* stitches compatible streams at the byte level (matching
//! LightDB's `GOPUNION` in Figure 15). What it lacks is everything
//! angular: no tile awareness (cropping or stitching tiles always
//! pays a decode/encode cycle) and no GOP index over stored TLFs
//! (temporal trims decode from the start of the stream).

use crate::Result;
use lightdb_codec::encoder::encode_tile_opts;
use lightdb_codec::gop::{EncodedFrame, EncodedGop, FrameType};
use lightdb_codec::{CodecKind, Decoder, SequenceHeader, TileGrid, VideoStream};
use lightdb_frame::Frame;

/// Streaming decoder: yields frames GOP-at-a-time without pinning the
/// whole video.
#[derive(Debug)]
pub struct FfmpegDecoder<'a> {
    stream: &'a VideoStream,
    gop: usize,
    buffered: Vec<Frame>,
    next: usize,
}

impl<'a> FfmpegDecoder<'a> {
    pub fn new(stream: &'a VideoStream) -> Self {
        FfmpegDecoder { stream, gop: 0, buffered: Vec::new(), next: 0 }
    }
}

impl Iterator for FfmpegDecoder<'_> {
    type Item = Result<Frame>;

    fn next(&mut self) -> Option<Self::Item> {
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
        let f = self.buffered[self.next].clone();
        self.next += 1;
        Some(Ok(f))
    }
}

/// Encoder settings — FFmpeg exposes the full surface.
#[derive(Debug, Clone, Copy)]
pub struct FfmpegEncoderSettings {
    pub codec: CodecKind,
    pub qp: u8,
    pub fps: u32,
    pub gop_length: usize,
}

impl Default for FfmpegEncoderSettings {
    fn default() -> Self {
        FfmpegEncoderSettings { codec: CodecKind::HevcSim, qp: 22, fps: 30, gop_length: 30 }
    }
}

/// Streaming encoder: push frames, take the stream at the end.
#[derive(Debug)]
pub struct FfmpegEncoder {
    settings: FfmpegEncoderSettings,
    pending: Vec<Frame>,
    reference: Option<Frame>,
    gop_frames: Vec<EncodedFrame>,
    gops: Vec<EncodedGop>,
    dims: Option<(usize, usize)>,
}

impl FfmpegEncoder {
    pub fn new(settings: FfmpegEncoderSettings) -> Self {
        FfmpegEncoder {
            settings,
            pending: Vec::new(),
            reference: None,
            gop_frames: Vec::new(),
            gops: Vec::new(),
            dims: None,
        }
    }

    /// Pushes one frame through the encoder.
    pub fn push(&mut self, frame: &Frame) -> Result<()> {
        let dims = (frame.width(), frame.height());
        match self.dims {
            None => self.dims = Some(dims),
            Some(d) if d != dims => {
                return Err(crate::BaselineError::Other("frame size changed mid-stream".into()))
            }
            _ => {}
        }
        let is_key = self.gop_frames.len().is_multiple_of(self.settings.gop_length);
        let reference = if is_key { None } else { self.reference.as_ref() };
        let (payload, recon) = encode_tile_opts(
            frame,
            reference,
            self.settings.qp,
            self.settings.codec,
            self.settings.codec.search_range(),
        );
        self.reference = Some(recon);
        self.gop_frames.push(EncodedFrame {
            frame_type: if is_key { FrameType::Key } else { FrameType::Predicted },
            tiles: vec![payload],
        });
        if self.gop_frames.len() == self.settings.gop_length {
            self.gops.push(EncodedGop::from_frames(&self.gop_frames)?);
            self.gop_frames.clear();
        }
        self.pending.clear();
        Ok(())
    }

    /// Flushes and returns the encoded stream.
    pub fn finish(mut self) -> Result<VideoStream> {
        if !self.gop_frames.is_empty() {
            self.gops.push(EncodedGop::from_frames(&self.gop_frames)?);
            self.gop_frames.clear();
        }
        let (w, h) =
            self.dims.ok_or_else(|| crate::BaselineError::Other("no frames pushed".into()))?;
        Ok(VideoStream {
            header: SequenceHeader {
                codec: self.settings.codec,
                width: w,
                height: h,
                fps: self.settings.fps,
                gop_length: self.settings.gop_length,
                grid: TileGrid::SINGLE,
            },
            gops: self.gops,
        })
    }
}

/// The concat protocol: byte-level GOP concatenation of compatible
/// streams (FFmpeg's one homomorphic trick).
pub fn concat(streams: &[&VideoStream]) -> Result<VideoStream> {
    Ok(VideoStream::concat(streams)?)
}

/// A full transcode (decode + re-encode), streaming.
pub fn transcode(input: &VideoStream, settings: FfmpegEncoderSettings) -> Result<VideoStream> {
    let mut enc = FfmpegEncoder::new(settings);
    for f in FfmpegDecoder::new(input) {
        enc.push(&f?)?;
    }
    enc.finish()
}

/// Temporal trim: FFmpeg has no index over our stored TLFs, so it
/// decodes every frame and keeps `[from, to)` seconds, re-encoding.
pub fn trim(input: &VideoStream, from: f64, to: f64, settings: FfmpegEncoderSettings) -> Result<VideoStream> {
    let fps = input.header.fps as f64;
    let lo = (from * fps).round() as usize;
    let hi = (to * fps).round() as usize;
    let mut enc = FfmpegEncoder::new(settings);
    for (i, f) in FfmpegDecoder::new(input).enumerate() {
        let f = f?;
        if i >= lo && i < hi {
            enc.push(&f)?;
        }
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_frame::stats::luma_psnr;
    use lightdb_frame::Yuv;

    fn source(n: usize) -> (Vec<Frame>, VideoStream) {
        let frames: Vec<Frame> = (0..n)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x + y * 2 + i * 4) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        let s = Encoder::new(EncoderConfig { gop_length: 4, fps: 4, qp: 14, ..Default::default() })
            .unwrap()
            .encode(&frames)
            .unwrap();
        (frames, s)
    }

    #[test]
    fn streaming_decode_matches_batch_decode() {
        let (_, s) = source(8);
        let streamed: Vec<Frame> =
            FfmpegDecoder::new(&s).map(|f| f.unwrap()).collect();
        let batch = Decoder::new().decode(&s).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn encode_roundtrip_quality() {
        let (frames, _) = source(6);
        let mut enc = FfmpegEncoder::new(FfmpegEncoderSettings {
            qp: 10,
            gop_length: 3,
            fps: 4,
            ..Default::default()
        });
        for f in &frames {
            enc.push(f).unwrap();
        }
        let stream = enc.finish().unwrap();
        assert_eq!(stream.gops.len(), 2);
        let dec = Decoder::new().decode(&stream).unwrap();
        for (a, b) in frames.iter().zip(dec.iter()) {
            assert!(luma_psnr(a, b) > 30.0);
        }
    }

    #[test]
    fn concat_is_byte_level() {
        let (_, a) = source(4);
        let (_, b) = source(4);
        let c = concat(&[&a, &b]).unwrap();
        assert_eq!(c.gops.len(), 2);
        assert_eq!(c.gops[0], a.gops[0]);
        assert_eq!(c.gops[1], b.gops[0]);
    }

    #[test]
    fn trim_keeps_the_right_seconds() {
        let (_, s) = source(8); // 2 seconds at 4 fps
        let t = trim(&s, 1.0, 2.0, FfmpegEncoderSettings { fps: 4, gop_length: 4, ..Default::default() })
            .unwrap();
        assert_eq!(t.frame_count(), 4);
    }

    #[test]
    fn transcode_changes_codec() {
        let (_, s) = source(4);
        let t = transcode(
            &s,
            FfmpegEncoderSettings { codec: CodecKind::H264Sim, fps: 4, gop_length: 4, ..Default::default() },
        )
        .unwrap();
        assert_eq!(t.header.codec, CodecKind::H264Sim);
        assert_eq!(t.frame_count(), 4);
    }
}
