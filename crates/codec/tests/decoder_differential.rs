//! The decoder's uncoded-block short-circuit against the block path it
//! replaced (`oracle`): a block whose coded flag is 0 is copied from
//! the reference or filled with the DC predictor instead of being
//! widened, dequantised, inverse-transformed, added and clamped. It
//! must change no output byte and no error; CI runs this file in
//! release mode too.

mod oracle;

use lightdb_codec::decoder::decode_tile_payload_into;
use lightdb_codec::encoder::encode_tile_opts;
use lightdb_codec::predict::dc_predictor;
use lightdb_codec::quant::{dequantize, QP_MAX};
use lightdb_codec::scratch::DecoderWork;
use lightdb_codec::transform::inverse;
use lightdb_codec::{CodecError, CodecKind, FrameType, TileRect, BLOCK_SIZE};
use lightdb_frame::{Frame, PlaneKind};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

// ------------------------------------------- what the shortcut rests on

/// An uncoded block's residual is the inverse transform of dequantised
/// zeros; both steps must keep zero at zero for every quantiser.
#[test]
fn zero_levels_reconstruct_a_zero_residual() {
    assert_eq!(inverse(&[0; 64]), [0; 64]);
    for qp in 0..=QP_MAX {
        let mut levels = [0i32; 64];
        dequantize(&mut levels, qp);
        assert_eq!(levels, [0; 64], "qp {qp}");
    }
}

/// The DC predictor is a byte: storing it needs no clamp.
#[test]
fn dc_predictor_is_a_byte() {
    let mut rng = Rng(0xdc);
    let (w, h) = (32, 32);
    let rect = TileRect { x0: 0, y0: 0, w, h };
    for fill in [None, Some(0u8), Some(255)] {
        let plane: Vec<u8> = (0..w * h)
            .map(|_| fill.unwrap_or_else(|| rng.below(256) as u8))
            .collect();
        for y in (0..h).step_by(BLOCK_SIZE) {
            for x in (0..w).step_by(BLOCK_SIZE) {
                let dc = dc_predictor(&plane, w, &rect, x, y);
                assert!((0..=255).contains(&dc), "dc {dc} at ({x}, {y})");
            }
        }
    }
}

// ----------------------------------------------------------- whole tile

/// One frame of a scene: `kind` 0 is noise, 1 flat, 2 the previous
/// frame shifted under light flicker (vectors and near-zero residuals),
/// 3 the previous frame again (all-skip), 4 a smooth ramp.
fn next_frame(kind: usize, prev: Option<&Frame>, w: usize, h: usize, rng: &mut Rng) -> Frame {
    let mut f = Frame::new(w, h);
    let (sx, sy) = (rng.below(7) as i32 - 3, rng.below(7) as i32 - 3);
    let flat = rng.pick(&[0u8, 77, 255]);
    for plane in [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr] {
        let (pw, ph) = f.plane_dims(plane);
        let before = prev.map(|p| p.plane(plane).to_vec());
        for (i, px) in f.plane_mut(plane).iter_mut().enumerate() {
            let (x, y) = ((i % pw) as i32, (i / pw) as i32);
            *px = match (kind, &before) {
                (1, _) => flat,
                (2, Some(b)) => {
                    let at = (y + sy).clamp(0, ph as i32 - 1) as usize * pw
                        + (x + sx).clamp(0, pw as i32 - 1) as usize;
                    (b[at] as i32 + rng.below(5) as i32 - 2).clamp(0, 255) as u8
                }
                (3, Some(b)) => b[i],
                (4, _) => (x * 3 + y * 2 + rng.below(2) as i32) as u8,
                _ => rng.below(256) as u8,
            };
        }
    }
    f
}

/// Shipped and oracle decoders over 2 000 seeded tile payloads from the
/// shipped encoder: key and predicted frames chained three deep, every
/// quantiser, both profiles. Each must reproduce the encoder's own
/// reconstruction. The shipped decoder reuses one output frame
/// throughout (stale samples must never show through).
#[test]
fn tile_decode_matches_oracle_over_a_seeded_sweep() {
    let mut rng = Rng(0xdec0de);
    let mut reused = Frame::empty();
    let mut work = DecoderWork::default();
    let mut tiles = 0;
    while tiles < 2000 {
        let (w, h) = rng.pick(&[(16, 16), (32, 32), (48, 32), (64, 32), (32, 64)]);
        let qp = rng.below(QP_MAX as usize + 1) as u8;
        let codec = rng.pick(&[CodecKind::H264Sim, CodecKind::HevcSim]);
        let mut src: Option<Frame> = None;
        let mut reference: Option<Frame> = None;
        for _ in 0..3 {
            let frame = next_frame(rng.below(5), src.as_ref(), w, h, &mut rng);
            let (payload, recon) = encode_tile_opts(&frame, reference.as_ref(), qp, codec, 4);
            let ftype = match reference {
                None => FrameType::Key,
                Some(_) => FrameType::Predicted,
            };
            let at = format!("tile {tiles}: {w}x{h} qp {qp} {codec:?} {ftype:?}");
            let mut old = Frame::empty();
            oracle::decode_tile_payload_into(&payload, w, h, ftype, reference.as_ref(), &mut old)
                .unwrap_or_else(|e| panic!("oracle, {at}: {e}"));
            let r = reference.as_ref();
            decode_tile_payload_into(&payload, w, h, ftype, r, &mut reused, &mut work)
                .unwrap_or_else(|e| panic!("shipped, {at}: {e}"));
            assert_eq!(reused, old, "{at}");
            assert_eq!(reused, recon, "encoder reconstruction, {at}");
            src = Some(frame);
            reference = Some(recon);
            tiles += 1;
        }
    }
    // The sweep went down both short-circuits and the coded path.
    assert!(work.uncoded_inter > 0 && work.uncoded_intra > 0);
    assert!(work.uncoded_inter + work.uncoded_intra < work.blocks);
}

// -------------------------------------------------------- hostile input

/// Shipped and oracle decoders on the same bytes: the same frame, or
/// the same error.
fn assert_same_outcome(payload: &[u8], ftype: FrameType, reference: Option<&Frame>, at: &str) {
    let (w, h) = (32, 32);
    let (mut new, mut old) = (Frame::empty(), Frame::empty());
    let got = decode_tile_payload_into(
        payload,
        w,
        h,
        ftype,
        reference,
        &mut new,
        &mut DecoderWork::default(),
    );
    let want: Result<(), CodecError> =
        oracle::decode_tile_payload_into(payload, w, h, ftype, reference, &mut old);
    assert_eq!(got, want, "{at}");
    if want.is_ok() {
        assert_eq!(new, old, "{at}");
    }
}

/// A key and a predicted payload, truncated at every byte offset and
/// with every bit of every byte flipped: motion vectors are still
/// validated before the copy, reads stay inside the payload and the
/// reference plane, and errors come out in the order they always did.
/// A predicted payload without a reference is an error, not a panic.
#[test]
fn hostile_payloads_fail_the_same_way() {
    let mut rng = Rng(0xbad);
    let key = next_frame(4, None, 32, 32, &mut rng);
    let moved = next_frame(2, Some(&key), 32, 32, &mut rng);
    let (key_payload, key_recon) = encode_tile_opts(&key, None, 20, CodecKind::H264Sim, 8);
    let (p_payload, _) = encode_tile_opts(&moved, Some(&key_recon), 20, CodecKind::H264Sim, 8);
    for (payload, ftype, reference) in [
        (&key_payload, FrameType::Key, None),
        (&p_payload, FrameType::Predicted, Some(&key_recon)),
        (&p_payload, FrameType::Predicted, None),
        // A key payload read as a predicted one: arbitrary mode bits.
        (&key_payload, FrameType::Predicted, Some(&key_recon)),
    ] {
        for cut in 0..=payload.len() {
            assert_same_outcome(
                &payload[..cut],
                ftype,
                reference,
                &format!("{ftype:?} cut at {cut}"),
            );
        }
        for i in 0..payload.len() {
            for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                let mut bytes = payload.to_vec();
                bytes[i] ^= mask;
                let at = format!("{ftype:?} byte {i} ^ {mask:#04x}");
                assert_same_outcome(&bytes, ftype, reference, &at);
            }
        }
    }
}
