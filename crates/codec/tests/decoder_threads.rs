//! The decoder's result does not depend on its thread count.
//!
//! With more than one thread, later frames' residuals (stage A: every
//! bit read and check, dequantisation, the inverse transform) are
//! computed on helper threads while the caller reconstructs frames in
//! order (stage B). The output must be the one-thread decode's, byte
//! for byte, and so must the error: the first failing frame in frame
//! order, with the same `CodecError` variant and message. These tests
//! cut every tile payload of a GOP at every byte and flip every bit of
//! the serialised GOP, and decode each result at 1, 2 and 4 threads.
//!
//! The same sweep runs the prediction-only `decode_gop_degraded` once
//! per case, and folds each outcome — the frames, or the error's
//! variant and message — into one digest per grid, pinned below.

use lightdb_codec::scratch::DecoderScratch;
use lightdb_codec::{
    CodecError, Decoder, EncodedFrame, EncodedGop, Encoder, EncoderConfig, SequenceHeader, TileGrid,
};
use lightdb_frame::{Frame, PlaneKind, Yuv};

/// A 4-frame 96×64 GOP: three frames a helper can run ahead, and high QP
/// keeps the payloads short.
fn gop(grid: TileGrid) -> (SequenceHeader, EncodedGop) {
    let (w, h) = (96, 64);
    let frames: Vec<Frame> = (0..4)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 3 * i) as f64 / 7.0).sin() * 60.0
                        + (y as f64 / 5.0).cos() * 50.0
                        + 128.0) as u8;
                    f.set(x, y, Yuv::new(v, (x * 2 % 256) as u8, (y * 3 % 256) as u8));
                }
            }
            f
        })
        .collect();
    let stream = Encoder::new(EncoderConfig {
        qp: 45,
        gop_length: 4,
        grid,
        ..Default::default()
    })
    .unwrap()
    .encode(&frames)
    .unwrap();
    (stream.header, stream.gops[0].clone())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One scratch per thread count, reused across every case, so buffers
/// a failed decode handed back are what the next decode starts from.
struct Decoders {
    scratch: [DecoderScratch; 3],
    frames_ahead: u64,
    /// Every degraded decode's outcome so far, folded in case order.
    degraded: u64,
}

impl Decoders {
    const THREADS: [usize; 3] = [1, 2, 4];

    fn new() -> Decoders {
        Decoders {
            scratch: std::array::from_fn(|_| DecoderScratch::new()),
            frames_ahead: 0,
            degraded: FNV_OFFSET,
        }
    }

    /// Decodes `gop` at every thread count and checks the results agree,
    /// then folds its degraded decode into `degraded`.
    fn check(&mut self, header: &SequenceHeader, gop: &EncodedGop, case: &str) {
        self.degraded = match Decoder::new().decode_gop_degraded(header, gop) {
            Ok(frames) => frames.iter().fold(fnv1a(b"ok", self.degraded), |h, f| {
                [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr]
                    .iter()
                    .fold(h, |h, &p| fnv1a(f.plane(p), h))
            }),
            Err(e) => fnv1a(format!("{e:?}").as_bytes(), self.degraded),
        };
        let mut results = Self::THREADS.iter().zip(&mut self.scratch).map(|(&t, s)| {
            let r = Decoder::new().decode_gop_scratch(header, gop, s, t);
            self.frames_ahead += std::mem::take(&mut s.work).frames_ahead;
            r
        });
        let serial: Result<Vec<Frame>, CodecError> = results.next().unwrap();
        for (threads, r) in Self::THREADS[1..].iter().zip(results) {
            match (&serial, &r) {
                (Ok(a), Ok(b)) => assert!(a == b, "{case}: frames differ at {threads} threads"),
                (a, b) => assert_eq!(
                    a.as_ref().err(),
                    b.as_ref().err(),
                    "{case}: results differ at {threads} threads"
                ),
            }
        }
    }
}

/// The GOP's frames with tile `tile` of frame `frame` cut to `len` bytes.
fn with_cut_payload(gop: &EncodedGop, frame: usize, tile: usize, len: usize) -> EncodedGop {
    let frames: Vec<EncodedFrame> = gop
        .frames()
        .enumerate()
        .map(|(f, ef)| EncodedFrame {
            frame_type: ef.frame_type(),
            tiles: ef
                .tiles()
                .enumerate()
                .map(|(t, p)| {
                    if (f, t) == (frame, tile) {
                        p[..len].to_vec()
                    } else {
                        p.to_vec()
                    }
                })
                .collect(),
        })
        .collect();
    EncodedGop::from_frames(&frames).unwrap()
}

/// Runs the sweep over a GOP on `grid`; returns the degraded digest.
fn parity_under_damage(grid: TileGrid) -> u64 {
    let (header, gop) = gop(grid);
    let mut decoders = Decoders::new();
    decoders.check(&header, &gop, "clean");
    // Every tile payload cut at every byte: the GOP still frames, and
    // the decoder meets the end of a payload mid-frame.
    for (f, ef) in gop.frames().enumerate() {
        for (t, payload) in ef.tiles().enumerate() {
            for len in 0..payload.len() {
                let cut = with_cut_payload(&gop, f, t, len);
                decoders.check(&header, &cut, &format!("frame {f} tile {t} cut at {len}"));
            }
        }
    }
    // Every bit of the serialised GOP flipped: payload bits reach the
    // decoder; framing bits either fail the GOP's own checks (nothing
    // to decode) or change a frame's type or a tile's extent.
    let mut bytes = gop.to_bytes();
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(flipped) = EncodedGop::from_bytes(&bytes) {
            decoders.check(&header, &flipped, &format!("bit {bit} flipped"));
        }
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(decoders.frames_ahead > 0, "no decode fanned out");
    decoders.degraded
}

/// The degraded decode's outcomes over each grid's sweep, first
/// recorded on the decoder that rebuilt tiled keyframes through
/// tile-sized frames and a blit, and replaced once when the integer
/// transform redefined the bitstream (the GOPs swept are encoded).
const DEGRADED_SINGLE_TILE: u64 = 0xc3bb_fbd1_c35d_a89d;
const DEGRADED_2X2: u64 = 0xad19_d57e_398d_3847;

#[test]
fn single_tile_gop_decodes_alike_at_every_thread_count() {
    let degraded = parity_under_damage(TileGrid::SINGLE);
    assert_eq!(degraded, DEGRADED_SINGLE_TILE, "degraded outcomes drifted: 0x{degraded:016x}");
}

#[test]
fn tiled_gop_decodes_alike_at_every_thread_count() {
    let degraded = parity_under_damage(TileGrid::new(2, 2));
    assert_eq!(degraded, DEGRADED_2X2, "degraded outcomes drifted: 0x{degraded:016x}");
}
