//! The decoder.
//!
//! Mirrors the encoder exactly: tiles decode independently in
//! tile-local coordinates and are blitted into full frames. A
//! tile-granular entry point ([`Decoder::decode_gop_tile`]) decodes a
//! single tile of a GOP without touching the other tiles' bytes —
//! what the tile index enables for angular range queries.

use crate::bitio::BitReader;
use crate::golomb::{read_se, read_ue};
use crate::gop::{EncodedGop, FrameType};
use crate::predict::{
    copy_block, dc_predictor, extract_block, fill_block, store_block, MotionVector,
};
use crate::quant::{dequantize, QP_MAX};
use crate::scratch::{DecoderScratch, DecoderWork};
use crate::stream::{SequenceHeader, VideoStream};
use crate::tile::TileRect;
use crate::transform::{inverse, ZIGZAG};
use crate::{CodecError, Result, BLOCK_SIZE, MB_SIZE};
use lightdb_frame::{Frame, PlaneKind};

/// A video decoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl Decoder {
    pub fn new() -> Decoder {
        Decoder
    }

    /// Decodes an entire stream into frames.
    pub fn decode(&self, stream: &VideoStream) -> Result<Vec<Frame>> {
        let mut scratch = DecoderScratch::new();
        let mut out = Vec::with_capacity(stream.frame_count());
        for gop in &stream.gops {
            out.extend(self.decode_gop_scratch(&stream.header, gop, &mut scratch)?);
        }
        Ok(out)
    }

    /// Decodes one GOP into full frames.
    pub fn decode_gop(&self, header: &SequenceHeader, gop: &EncodedGop) -> Result<Vec<Frame>> {
        self.decode_gop_scratch(header, gop, &mut DecoderScratch::new())
    }

    /// Allocation-reusing form of [`Decoder::decode_gop`]: at steady
    /// state the only allocations are the returned frames. A
    /// single-tile GOP decodes straight into them, each frame against
    /// the one before it; a tiled one double-buffers its tile
    /// reconstructions through `scratch` and blits. Either way the
    /// block counts are added to `scratch.work`.
    pub fn decode_gop_scratch(
        &self,
        header: &SequenceHeader,
        gop: &EncodedGop,
        scratch: &mut DecoderScratch,
    ) -> Result<Vec<Frame>> {
        header.validate()?;
        let (w, h) = (header.width, header.height);
        let grid = header.grid;
        let tile_count = grid.tile_count();
        let DecoderScratch {
            tiles: recon_tiles,
            spare,
            work,
        } = scratch;
        let mut out: Vec<Frame> = Vec::with_capacity(gop.frame_count());
        // The GOP was checked when it was made: it begins with a
        // keyframe, and its tile index delimits every payload.
        for ef in gop.frames() {
            if ef.tile_count() != tile_count {
                return Err(CodecError::Corrupt("frame tile count disagrees with grid"));
            }
            let frame_type = ef.frame_type();
            if tile_count == 1 {
                // The one tile is the picture, and the previous output
                // frame is its reference: no staging frame, no blit.
                let reference = match frame_type {
                    FrameType::Key => None,
                    FrameType::Predicted => out.last(),
                };
                let payload = ef
                    .tile(0)
                    .ok_or(CodecError::Corrupt("frame tile count disagrees with grid"))?;
                let mut frame = Frame::empty();
                decode_tile_payload_into(
                    payload,
                    w,
                    h,
                    frame_type,
                    reference,
                    &mut frame,
                    work,
                )?;
                out.push(frame);
                continue;
            }
            // Output frame, pre-sized from the sequence header.
            let mut frame = Frame::new(w, h);
            for (t, payload) in ef.tiles().enumerate() {
                let rect = grid.tile_rect(t, w, h);
                // A predicted frame can only follow this GOP's keyframe,
                // which populated (or refreshed) every tile slot — a
                // stale frame from a previous GOP is never read.
                let reference = match frame_type {
                    FrameType::Key => None,
                    FrameType::Predicted => Some(
                        recon_tiles
                            .get(t)
                            .ok_or(CodecError::Corrupt("predicted frame without reference"))?,
                    ),
                };
                decode_tile_payload_into(
                    payload,
                    rect.w,
                    rect.h,
                    frame_type,
                    reference,
                    spare,
                    work,
                )?;
                frame.blit(spare, rect.x0, rect.y0);
                // The fresh tile becomes tile t's reference.
                if recon_tiles.len() <= t {
                    recon_tiles.push(std::mem::replace(spare, Frame::empty()));
                } else {
                    std::mem::swap(&mut recon_tiles[t], spare);
                }
            }
            out.push(frame);
        }
        Ok(out)
    }

    /// Decodes only tile `index` of a GOP, producing tile-sized
    /// frames. The bytes of all other tiles are never examined.
    pub fn decode_gop_tile(
        &self,
        header: &SequenceHeader,
        gop: &EncodedGop,
        index: usize,
    ) -> Result<Vec<Frame>> {
        header.validate()?;
        let grid = header.grid;
        if index >= grid.tile_count() {
            return Err(CodecError::Geometry(format!("tile {index} out of range")));
        }
        let rect = grid.tile_rect(index, header.width, header.height);
        let mut out: Vec<Frame> = Vec::with_capacity(gop.frame_count());
        for ef in gop.frames() {
            let payload = ef
                .tile(index)
                .ok_or(CodecError::Corrupt("frame tile count disagrees with grid"))?;
            // The previous output frame *is* the reference — no copy.
            let refer = match ef.frame_type() {
                FrameType::Key => None,
                FrameType::Predicted => Some(
                    out.last()
                        .ok_or(CodecError::Corrupt("predicted frame without reference"))?,
                ),
            };
            let tile = decode_tile_payload(payload, rect.w, rect.h, ef.frame_type(), refer)?;
            out.push(tile);
        }
        Ok(out)
    }

    /// Prediction-only decode of one GOP: keyframes are reconstructed
    /// in full, predicted frames hold (clone) the previous picture —
    /// their residual bytes are never examined. Output is well-formed
    /// (same frame count and dimensions as the full decode) at
    /// roughly one frame's decode cost per GOP; motion is lost. Used
    /// for degraded service when a query's deadline is at risk.
    pub fn decode_gop_degraded(
        &self,
        header: &SequenceHeader,
        gop: &EncodedGop,
    ) -> Result<Vec<Frame>> {
        header.validate()?;
        let (w, h) = (header.width, header.height);
        let grid = header.grid;
        let tile_count = grid.tile_count();
        let mut out: Vec<Frame> = Vec::with_capacity(gop.frame_count());
        for ef in gop.frames() {
            if ef.tile_count() != tile_count {
                return Err(CodecError::Corrupt("frame tile count disagrees with grid"));
            }
            match ef.frame_type() {
                FrameType::Key => {
                    let mut frame = Frame::new(w, h);
                    for (t, payload) in ef.tiles().enumerate() {
                        let rect = grid.tile_rect(t, w, h);
                        let tile =
                            decode_tile_payload(payload, rect.w, rect.h, FrameType::Key, None)?;
                        frame.blit(&tile, rect.x0, rect.y0);
                    }
                    out.push(frame);
                }
                FrameType::Predicted => {
                    let prev = out
                        .last()
                        .ok_or(CodecError::Corrupt("predicted frame without reference"))?;
                    out.push(prev.clone());
                }
            }
        }
        Ok(out)
    }
}

/// Decodes one tile payload into a (tile-sized) frame.
pub fn decode_tile_payload(
    payload: &[u8],
    w: usize,
    h: usize,
    frame_type: FrameType,
    reference: Option<&Frame>,
) -> Result<Frame> {
    let mut recon = Frame::empty();
    let mut work = DecoderWork::default();
    decode_tile_payload_into(payload, w, h, frame_type, reference, &mut recon, &mut work)?;
    Ok(recon)
}

/// Allocation-reusing form of [`decode_tile_payload`]: decodes into a
/// caller-provided frame (reshaped as needed), whose contents are
/// unspecified on error. No clearing is needed: every sample is stored
/// before the DC predictor can read it. Block counts are added to
/// `work`.
pub fn decode_tile_payload_into(
    payload: &[u8],
    w: usize,
    h: usize,
    frame_type: FrameType,
    reference: Option<&Frame>,
    recon: &mut Frame,
    work: &mut DecoderWork,
) -> Result<()> {
    if !w.is_multiple_of(MB_SIZE) || !h.is_multiple_of(MB_SIZE) {
        return Err(CodecError::Geometry(format!(
            "tile {w}×{h} not macroblock aligned"
        )));
    }
    let (&qp, body) = payload
        .split_first()
        .ok_or(CodecError::Corrupt("empty tile payload"))?;
    if qp > QP_MAX {
        return Err(CodecError::Corrupt("tile QP out of range"));
    }
    if let Some(r) = reference {
        if r.width() != w || r.height() != h {
            return Err(CodecError::Corrupt("reference dimensions disagree"));
        }
    }
    let rect = TileRect { x0: 0, y0: 0, w, h };
    recon.reshape(w, h);
    let mut bits = BitReader::new(body);
    let (mb_cols, mb_rows) = (w / MB_SIZE, h / MB_SIZE);
    // lint: hot-loop — zero allocations per macroblock (PR 3 contract)
    for mb_row in 0..mb_rows {
        for mb_col in 0..mb_cols {
            let mbx = mb_col * MB_SIZE;
            let mby = mb_row * MB_SIZE;
            let mode = match frame_type {
                FrameType::Key => MbMode::Intra,
                FrameType::Predicted => {
                    let is_intra = bits.read_bit()?;
                    if is_intra {
                        MbMode::Intra
                    } else {
                        let dx = read_se(&mut bits)?;
                        let dy = read_se(&mut bits)?;
                        let mv = MotionVector { dx, dy };
                        validate_mv(&mv, mbx, mby, w, h)?;
                        MbMode::Inter(mv)
                    }
                }
            };
            decode_macroblock(reference, recon, &rect, mbx, mby, &mode, qp, &mut bits, work)?;
        }
    }
    // lint: end-hot-loop
    Ok(())
}

#[derive(Debug, Clone, Copy)]
enum MbMode {
    Intra,
    Inter(MotionVector),
}

fn validate_mv(mv: &MotionVector, mbx: usize, mby: usize, w: usize, h: usize) -> Result<()> {
    let rx = mbx as i64 + mv.dx as i64;
    let ry = mby as i64 + mv.dy as i64;
    if rx < 0 || ry < 0 || rx + MB_SIZE as i64 > w as i64 || ry + MB_SIZE as i64 > h as i64 {
        return Err(CodecError::Corrupt("motion vector escapes tile"));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn decode_macroblock(
    reference: Option<&Frame>,
    recon: &mut Frame,
    rect: &TileRect,
    mbx: usize,
    mby: usize,
    mode: &MbMode,
    qp: u8,
    bits: &mut BitReader<'_>,
    work: &mut DecoderWork,
) -> Result<()> {
    let w = recon.width();
    for by in 0..2 {
        for bx in 0..2 {
            let x = mbx + bx * BLOCK_SIZE;
            let y = mby + by * BLOCK_SIZE;
            decode_block(
                reference,
                recon,
                PlaneKind::Luma,
                w,
                rect,
                x,
                y,
                mode,
                1,
                qp,
                bits,
                work,
            )?;
        }
    }
    let crect = TileRect {
        x0: rect.x0 / 2,
        y0: rect.y0 / 2,
        w: rect.w / 2,
        h: rect.h / 2,
    };
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        decode_block(
            reference,
            recon,
            plane,
            w / 2,
            &crect,
            mbx / 2,
            mby / 2,
            mode,
            2,
            qp,
            bits,
            work,
        )?;
    }
    Ok(())
}

/// Decodes one 8×8 block. The coded flag decides how much there is to
/// do: an uncoded block *is* its prediction — eight row copies from
/// the motion-compensated reference, or a fill with the DC predictor
/// (a rounded mean of bytes, so no clamp) — and only a coded block
/// pays for coefficients, dequantisation and the inverse transform.
/// The prediction source is resolved before the flag is read, so
/// hostile input fails on the same check it always has.
#[allow(clippy::too_many_arguments)]
fn decode_block(
    reference: Option<&Frame>,
    recon: &mut Frame,
    plane_kind: PlaneKind,
    stride: usize,
    rect: &TileRect,
    x: usize,
    y: usize,
    mode: &MbMode,
    mv_shift: i32,
    qp: u8,
    bits: &mut BitReader<'_>,
    work: &mut DecoderWork,
) -> Result<()> {
    work.blocks += 1;
    let pred: [i32; 64] = match mode {
        MbMode::Intra => {
            let dc = dc_predictor(recon.plane(plane_kind), stride, rect, x, y);
            if !bits.read_bit()? {
                work.uncoded_intra += 1;
                fill_block(recon.plane_mut(plane_kind), stride, x, y, dc as u8);
                return Ok(());
            }
            [dc; 64]
        }
        MbMode::Inter(mv) => {
            let rp = reference
                .ok_or(CodecError::Corrupt("inter block without reference"))?
                .plane(plane_kind);
            let rx = (x as i32 + mv.dx / mv_shift) as usize;
            let ry = (y as i32 + mv.dy / mv_shift) as usize;
            if !bits.read_bit()? {
                work.uncoded_inter += 1;
                copy_block(rp, recon.plane_mut(plane_kind), stride, (rx, ry), (x, y));
                return Ok(());
            }
            extract_block(rp, stride, rx, ry)
        }
    };
    let mut levels = read_coeffs(bits)?;
    dequantize(&mut levels, qp);
    let res = inverse(&levels);
    let mut rec = [0i32; 64];
    for i in 0..64 {
        rec[i] = pred[i] + res[i];
    }
    store_block(recon.plane_mut(plane_kind), stride, x, y, &rec);
    Ok(())
}

/// Reads the coefficients of a coded block — what follows the coded
/// flag (inverse of the encoder's `write_coeff_block`).
fn read_coeffs(bits: &mut BitReader<'_>) -> Result<[i32; 64]> {
    let mut out = [0i32; 64];
    let nnz = read_ue(bits)? as usize + 1;
    if nnz > 64 {
        return Err(CodecError::Corrupt("too many coefficients in block"));
    }
    let mut scan_pos = 0usize;
    for _ in 0..nnz {
        let run = read_ue(bits)? as usize;
        scan_pos += run;
        if scan_pos >= 64 {
            return Err(CodecError::Corrupt("coefficient run escapes block"));
        }
        let level = read_se(bits)?;
        if level == 0 {
            return Err(CodecError::Corrupt("zero level in nonzero list"));
        }
        out[ZIGZAG[scan_pos]] = level;
        scan_pos += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_tile, Encoder, EncoderConfig};
    use crate::gop::EncodedFrame;
    use crate::stream::CodecKind;
    use crate::tile::TileGrid;
    use lightdb_frame::stats::luma_psnr;
    use lightdb_frame::Yuv;

    fn moving_scene(w: usize, h: usize, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let v = (((x + 2 * i) as f64 / 11.0).sin() * 55.0
                            + (y as f64 / 5.0).cos() * 45.0
                            + 128.0) as u8;
                        f.set(x, y, Yuv::new(v, 128, 128));
                    }
                }
                // A bright square drifting right.
                for y in 8..16 {
                    for x in 8 + 3 * i..16 + 3 * i {
                        if x < w {
                            f.set(x, y, Yuv::new(250, 90, 160));
                        }
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn tile_payload_roundtrips_exactly_to_encoder_recon() {
        let frames = moving_scene(64, 32, 2);
        let (payload, enc_recon) = encode_tile(&frames[0], None, 18, CodecKind::H264Sim);
        let dec = decode_tile_payload(&payload, 64, 32, FrameType::Key, None).unwrap();
        assert_eq!(
            dec, enc_recon,
            "decoder must reproduce encoder reconstruction bit-exactly"
        );
    }

    #[test]
    fn predicted_payload_roundtrips() {
        let frames = moving_scene(64, 32, 2);
        let (_, key_recon) = encode_tile(&frames[0], None, 18, CodecKind::HevcSim);
        let (p_payload, p_recon) =
            encode_tile(&frames[1], Some(&key_recon), 18, CodecKind::HevcSim);
        let dec = decode_tile_payload(&p_payload, 64, 32, FrameType::Predicted, Some(&key_recon))
            .unwrap();
        assert_eq!(dec, p_recon);
    }

    #[test]
    fn full_stream_roundtrip_quality() {
        let frames = moving_scene(64, 64, 6);
        let enc = Encoder::new(EncoderConfig {
            qp: 10,
            gop_length: 3,
            codec: CodecKind::H264Sim,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let decoded = Decoder::new().decode(&stream).unwrap();
        assert_eq!(decoded.len(), frames.len());
        for (src, dec) in frames.iter().zip(decoded.iter()) {
            let psnr = luma_psnr(src, dec);
            assert!(psnr > 30.0, "psnr {psnr} too low at QP 10");
        }
    }

    #[test]
    fn serialized_stream_roundtrip() {
        let frames = moving_scene(32, 32, 4);
        let enc = Encoder::new(EncoderConfig {
            qp: 24,
            gop_length: 2,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let bytes = stream.to_bytes();
        let parsed = VideoStream::from_bytes(&bytes).unwrap();
        let a = Decoder::new().decode(&stream).unwrap();
        let b = Decoder::new().decode(&parsed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tiled_decode_matches_untiled_region() {
        let frames = moving_scene(64, 32, 4);
        let enc = Encoder::new(EncoderConfig {
            qp: 14,
            gop_length: 4,
            grid: TileGrid::new(2, 1),
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let full = Decoder::new().decode(&stream).unwrap();
        // Decoding tile 1 alone must equal the right half of the full decode.
        let tile_frames = Decoder::new()
            .decode_gop_tile(&stream.header, &stream.gops[0], 1)
            .unwrap();
        for (tf, ff) in tile_frames.iter().zip(full.iter()) {
            assert_eq!(tf, &ff.crop(32, 0, 32, 32));
        }
    }

    #[test]
    fn tile_extraction_decodes_standalone() {
        // extract_tile produces a single-tile GOP decodable under a
        // synthesised single-tile header — the TILESELECT guarantee.
        let frames = moving_scene(64, 32, 3);
        let enc = Encoder::new(EncoderConfig {
            qp: 20,
            gop_length: 3,
            grid: TileGrid::new(2, 1),
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let sub_gop = stream.gops[0].extract_tile(0).unwrap();
        let sub_header = SequenceHeader {
            width: 32,
            height: 32,
            grid: TileGrid::SINGLE,
            ..stream.header
        };
        let frames_sub = Decoder::new().decode_gop(&sub_header, &sub_gop).unwrap();
        let full = Decoder::new().decode(&stream).unwrap();
        for (sf, ff) in frames_sub.iter().zip(full.iter()) {
            assert_eq!(sf, &ff.crop(0, 0, 32, 32));
        }
    }

    #[test]
    fn corrupt_payload_is_an_error_not_a_panic() {
        let frames = moving_scene(32, 32, 1);
        let (payload, _) = encode_tile(&frames[0], None, 20, CodecKind::H264Sim);
        // Truncate the payload body.
        let cut = &payload[..payload.len().saturating_sub(payload.len() / 2)];
        let r = decode_tile_payload(cut, 32, 32, FrameType::Key, None);
        assert!(r.is_err() || r.is_ok()); // must not panic; error preferred
    }

    #[test]
    fn mv_escape_is_rejected() {
        // Hand-craft a predicted payload whose MV points out of bounds.
        use crate::bitio::BitWriter;
        use crate::golomb::write_se;
        let mut w = BitWriter::new();
        w.write_bit(false); // inter
        write_se(&mut w, -100);
        write_se(&mut w, 0);
        let mut payload = vec![20u8];
        payload.extend_from_slice(&w.into_bytes());
        let reference = Frame::new(32, 32);
        let r = decode_tile_payload(&payload, 32, 32, FrameType::Predicted, Some(&reference));
        assert!(matches!(r, Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn decode_gop_checks_tile_count() {
        let frames = moving_scene(32, 32, 1);
        let enc = Encoder::new(EncoderConfig {
            qp: 30,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let mut header = stream.header;
        header.grid = TileGrid::new(2, 1); // lie about the grid
        assert!(Decoder::new().decode_gop(&header, &stream.gops[0]).is_err());
    }

    #[test]
    fn degraded_decode_holds_keyframe_and_keeps_shape() {
        let frames = moving_scene(64, 32, 5);
        let enc = Encoder::new(EncoderConfig {
            gop_length: 5,
            qp: 18,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let full = Decoder::new()
            .decode_gop(&stream.header, &stream.gops[0])
            .unwrap();
        let degraded = Decoder::new()
            .decode_gop_degraded(&stream.header, &stream.gops[0])
            .unwrap();
        // Same shape as the full decode.
        assert_eq!(degraded.len(), full.len());
        assert_eq!(
            (degraded[0].width(), degraded[0].height()),
            (full[0].width(), full[0].height())
        );
        // The keyframe is the real picture...
        assert_eq!(degraded[0], full[0]);
        assert!(luma_psnr(&frames[0], &degraded[0]) > 30.0);
        // ...and every predicted frame holds it.
        for f in &degraded[1..] {
            assert_eq!(*f, degraded[0]);
        }
    }

    #[test]
    fn degraded_decode_rejects_headless_gop() {
        let frames = moving_scene(32, 32, 2);
        let enc = Encoder::new(EncoderConfig {
            gop_length: 2,
            qp: 30,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        // A headless GOP is refused when it is made, so no decoder entry
        // point ever sees one.
        let headless: Vec<EncodedFrame> = stream.gops[0]
            .frames()
            .map(|f| EncodedFrame {
                frame_type: FrameType::Predicted,
                tiles: f.tiles().map(<[u8]>::to_vec).collect(),
            })
            .collect();
        assert!(matches!(
            EncodedGop::from_frames(&headless),
            Err(CodecError::Corrupt(_))
        ));
    }
}
