//! # lightdb-codec
//!
//! A from-scratch block-transform video codec that stands in for
//! H.264/HEVC in the LightDB reproduction. It is a real (if small)
//! codec — integer DCT, quantisation, intra DC prediction,
//! motion-compensated inter prediction, Exp-Golomb entropy coding —
//! and, crucially, it reproduces the *structural* features LightDB's
//! techniques exploit:
//!
//! * **Groups of pictures (GOPs)**: independently decodable runs of
//!   frames beginning with a keyframe, length-delimited in the
//!   bitstream so byte ranges can be copied without decoding
//!   (`GOPSELECT` / `GOPUNION`).
//! * **Motion-constrained tile sets**: each frame is divided into a
//!   grid of tiles; intra prediction and motion vectors never cross a
//!   tile boundary, every tile payload is byte-aligned and
//!   self-delimiting, and a per-frame tile index records payload
//!   offsets — so single tiles can be extracted, substituted at a
//!   different quality, or stitched without re-encoding
//!   (`TILESELECT` / `TILEUNION`).
//! * **QP-controlled rate**: a quantisation parameter trades quality
//!   for bitrate, which the predictive-tiling workload uses to encode
//!   the predicted viewport at high quality and the rest at low.
//!
//! Two profiles, [`CodecKind::H264Sim`] and [`CodecKind::HevcSim`],
//! differ in motion-search range and quantisation deadzone, mirroring
//! the encode-cost/compression trade-off between the real codecs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod bitio;
pub mod decoder;
pub mod encoder;
pub mod golomb;
pub mod gop;
pub mod predict;
pub mod quant;
pub mod scratch;
pub mod stream;
pub mod tile;
pub mod transform;

// The test oracles name this crate the way their other includers do.
#[cfg(test)]
extern crate self as lightdb_codec;

/// The kernels before their overhauls, for the unit tests' differential
/// checks.
#[cfg(test)]
#[path = "../tests/oracle/kernels.rs"]
mod reference_kernels;

pub use decoder::Decoder;
pub use encoder::{Encoder, EncoderConfig};
pub use gop::{EncodedFrame, EncodedGop, FrameType, FrameView};
pub use stream::{CodecKind, SequenceHeader, VideoStream};
pub use tile::{TileGrid, TileRect};

/// Luma macroblock edge length. Frame and tile dimensions must be
/// multiples of this.
pub const MB_SIZE: usize = 16;

/// Transform block edge length (luma macroblocks contain four, chroma
/// macroblocks exactly one).
pub const BLOCK_SIZE: usize = 8;

/// Errors produced by the codec layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bitstream ended prematurely or contained invalid codes.
    Corrupt(&'static str),
    /// Frame/tile geometry is incompatible with the codec constraints.
    Geometry(String),
    /// Stream parameters of homomorphic-operation inputs disagree.
    Incompatible(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(m) => write!(f, "corrupt bitstream: {m}"),
            CodecError::Geometry(m) => write!(f, "invalid geometry: {m}"),
            CodecError::Incompatible(m) => write!(f, "incompatible streams: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

pub type Result<T> = std::result::Result<T, CodecError>;

// The parallel executor runs encode/decode on scoped worker threads;
// the codec entry points and payload types must stay `Send + Sync`
// (they hold no shared mutable state — each call owns its buffers).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Decoder>();
    assert_send_sync::<Encoder>();
    assert_send_sync::<EncoderConfig>();
    assert_send_sync::<VideoStream>();
    assert_send_sync::<EncodedGop>();
    assert_send_sync::<SequenceHeader>();
    assert_send_sync::<CodecError>();
};

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use lightdb_frame::{Frame, Yuv};

    fn textured(seed: usize) -> Vec<Frame> {
        (0..4)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(
                            x,
                            y,
                            Yuv::new(((x * 3 + y * 7 + i * 11 + seed * 17) % 256) as u8, 128, 128),
                        );
                    }
                }
                f
            })
            .collect()
    }

    /// Encode and decode concurrently from many threads; every thread
    /// must get bytes identical to a serial reference run. This is the
    /// property the chunk-parallel DECODE/ENCODE operators rely on.
    #[test]
    fn concurrent_encode_decode_matches_serial() {
        let reference: Vec<(VideoStream, Vec<Frame>)> = (0..4)
            .map(|seed| {
                let frames = textured(seed);
                let stream = Encoder::new(EncoderConfig {
                    gop_length: 2,
                    qp: 24,
                    ..Default::default()
                })
                .unwrap()
                .encode(&frames)
                .unwrap();
                let decoded = Decoder::new().decode(&stream).unwrap();
                (stream, decoded)
            })
            .collect();
        std::thread::scope(|s| {
            for seed in 0..4usize {
                let reference = &reference;
                s.spawn(move || {
                    for _ in 0..4 {
                        let frames = textured(seed);
                        let stream = Encoder::new(EncoderConfig {
                            gop_length: 2,
                            qp: 24,
                            ..Default::default()
                        })
                        .unwrap()
                        .encode(&frames)
                        .unwrap();
                        assert_eq!(
                            stream.to_bytes(),
                            reference[seed].0.to_bytes(),
                            "concurrent encode diverged from serial"
                        );
                        let decoded = Decoder::new().decode(&stream).unwrap();
                        assert_eq!(decoded, reference[seed].1);
                    }
                });
            }
        });
    }
}
