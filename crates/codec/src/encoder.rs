//! The encoder.
//!
//! Each tile of each frame is encoded *in tile-local coordinates* from
//! a cropped copy of the source, and prediction state (the
//! reconstructed reference) is kept per tile. Tile independence — the
//! motion-constrained-tile-set property — therefore holds by
//! construction: nothing an encoder invocation can see crosses a tile
//! boundary.
//!
//! Tile payload syntax (bit-level, byte-aligned at the end):
//!
//! ```text
//! payload   := qp:u8 mb*                      (macroblocks in raster order)
//! mb (key)  := luma_blk{4} cb_blk cr_blk      (always intra)
//! mb (pred) := mode:1 [mv: se(dx) se(dy)] luma_blk{4} cb_blk cr_blk
//! blk       := coded:1 [nnz:ue (run:ue level:se){nnz}]
//! ```

use crate::bitio::BitWriter;
use crate::golomb::{write_se, write_ue};
use crate::gop::{EncodedFrame, EncodedGop, FrameType};
use crate::predict::{
    dc_predictor, extract_block, intra_cost_estimate, mb_sum, motion_search, store_block,
    BlockSums, MotionVector,
};
use crate::quant::{dequantize, quantize, zero_block_sad_bound, QP_MAX};
use crate::scratch::{EncoderScratch, EncoderWork};
use crate::stream::{CodecKind, SequenceHeader, VideoStream};
use crate::tile::{TileGrid, TileRect};
use crate::transform::{forward, inverse, ZIGZAG};
use crate::{CodecError, Result, BLOCK_SIZE, MB_SIZE};
use lightdb_frame::{Frame, PlaneKind};

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    pub codec: CodecKind,
    /// Base quantisation parameter, `0..=51`.
    pub qp: u8,
    pub grid: TileGrid,
    /// GOP length in frames.
    pub gop_length: usize,
    pub fps: u32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            codec: CodecKind::HevcSim,
            qp: 20,
            grid: TileGrid::SINGLE,
            gop_length: 30,
            fps: 30,
        }
    }
}

impl EncoderConfig {
    /// A "high quality" preset (the paper's 50 Mbps HEVC setting).
    pub fn high_quality() -> Self {
        EncoderConfig {
            qp: 6,
            ..Default::default()
        }
    }

    /// A "low quality" preset (the paper's 50 kbps setting).
    pub fn low_quality() -> Self {
        EncoderConfig {
            qp: 45,
            ..Default::default()
        }
    }
}

/// A video encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
}

impl Encoder {
    pub fn new(config: EncoderConfig) -> Result<Encoder> {
        if config.qp > QP_MAX {
            return Err(CodecError::Geometry(format!(
                "qp {} exceeds {QP_MAX}",
                config.qp
            )));
        }
        if config.gop_length == 0 {
            return Err(CodecError::Geometry("gop length must be positive".into()));
        }
        Ok(Encoder { config })
    }

    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Encodes a frame sequence into a stream, splitting into GOPs of
    /// the configured length. All frames must share the first frame's
    /// dimensions, which must be compatible with the tile grid.
    pub fn encode(&self, frames: &[Frame]) -> Result<VideoStream> {
        let tile_qp = vec![self.config.qp; self.config.grid.tile_count()];
        self.encode_with_tile_qp(frames, &tile_qp)
    }

    /// Like [`Encoder::encode`] but with an explicit per-tile QP
    /// (row-major grid order) — the primitive behind quality-adaptive
    /// tiling.
    pub fn encode_with_tile_qp(&self, frames: &[Frame], tile_qp: &[u8]) -> Result<VideoStream> {
        let first = frames
            .first()
            .ok_or(CodecError::Geometry("no frames to encode".into()))?;
        let (w, h) = (first.width(), first.height());
        self.config.grid.validate(w, h)?;
        if tile_qp.len() != self.config.grid.tile_count() {
            return Err(CodecError::Geometry(format!(
                "expected {} tile QPs, got {}",
                self.config.grid.tile_count(),
                tile_qp.len()
            )));
        }
        if let Some(&bad) = tile_qp.iter().find(|&&q| q > QP_MAX) {
            return Err(CodecError::Geometry(format!(
                "tile qp {bad} exceeds {QP_MAX}"
            )));
        }
        for f in frames {
            if f.width() != w || f.height() != h {
                return Err(CodecError::Geometry(
                    "frame dimensions vary within stream".into(),
                ));
            }
        }
        let header = SequenceHeader {
            codec: self.config.codec,
            width: w,
            height: h,
            fps: self.config.fps,
            gop_length: self.config.gop_length,
            grid: self.config.grid,
        };
        // One scratch arena serves every GOP: crops, reconstructions,
        // and the entropy buffer are reused across the whole encode.
        let mut scratch = EncoderScratch::new();
        let gops = frames
            .chunks(self.config.gop_length)
            .map(|chunk| self.encode_gop(chunk, w, h, tile_qp, &mut scratch))
            .collect::<Result<Vec<_>>>()?;
        Ok(VideoStream { header, gops })
    }

    /// Encodes one GOP (first frame becomes the keyframe).
    fn encode_gop(
        &self,
        frames: &[Frame],
        w: usize,
        h: usize,
        tile_qp: &[u8],
        scratch: &mut EncoderScratch,
    ) -> Result<EncodedGop> {
        let grid = self.config.grid;
        let tile_count = grid.tile_count();
        let EncoderScratch {
            src,
            spare,
            recon,
            bits,
            ref_sums,
            work,
        } = scratch;
        let mut encoded = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let frame_type = if i == 0 {
                FrameType::Key
            } else {
                FrameType::Predicted
            };
            let mut tiles = Vec::with_capacity(tile_count);
            for t in 0..tile_count {
                let rect = grid.tile_rect(t, w, h);
                frame.crop_into(rect.x0, rect.y0, rect.w, rect.h, src);
                // Keyframes never read `recon`, so stale entries from a
                // previous GOP (or encode) are harmless.
                let reference = match frame_type {
                    FrameType::Key => None,
                    FrameType::Predicted => Some(&recon[t]),
                };
                let payload = encode_tile_opts_into(
                    src,
                    reference,
                    tile_qp[t],
                    self.config.codec,
                    self.config.codec.search_range(),
                    spare,
                    bits,
                    ref_sums,
                    work,
                );
                tiles.push(payload);
                // The fresh reconstruction becomes tile t's reference.
                if recon.len() <= t {
                    recon.push(std::mem::replace(spare, Frame::empty()));
                } else {
                    std::mem::swap(&mut recon[t], spare);
                }
            }
            encoded.push(EncodedFrame { frame_type, tiles });
        }
        EncodedGop::from_frames(&encoded)
    }
}

/// Encodes one (tile-sized) frame against an optional reference,
/// returning the payload and the reconstruction the decoder will see.
///
/// Exposed for the decoder's tests and the execution layer's
/// tile-granular re-encoding.
pub fn encode_tile(
    src: &Frame,
    reference: Option<&Frame>,
    qp: u8,
    codec: CodecKind,
) -> (Vec<u8>, Frame) {
    encode_tile_opts(src, reference, qp, codec, codec.search_range())
}

/// Like [`encode_tile`] but with an explicit motion-search range.
///
/// Hardware encoders (NVENC) trade a narrower, faster search for
/// slightly larger output; the simulated-GPU encode path uses this
/// with a small range.
pub fn encode_tile_opts(
    src: &Frame,
    reference: Option<&Frame>,
    qp: u8,
    codec: CodecKind,
    search_range: i32,
) -> (Vec<u8>, Frame) {
    let mut recon = Frame::empty();
    let mut bits = BitWriter::new();
    let payload = encode_tile_opts_into(
        src,
        reference,
        qp,
        codec,
        search_range,
        &mut recon,
        &mut bits,
        &mut BlockSums::default(),
        &mut EncoderWork::default(),
    );
    (payload, recon)
}

/// Encodes the next frame of a single-tile GOP whose prediction state
/// lives in `scratch` — the execution layer's tile-granular
/// re-encoding. A `key` frame reads no reference (so a reconstruction
/// left by another GOP can never leak in); any other is predicted from
/// the frame before, whose reconstruction `scratch.recon[0]` holds.
/// This frame's reconstruction replaces it, and `scratch.work` is
/// added to, never reset.
pub fn encode_gop_frame(
    src: &Frame,
    key: bool,
    qp: u8,
    codec: CodecKind,
    search_range: i32,
    scratch: &mut EncoderScratch,
) -> Vec<u8> {
    let EncoderScratch {
        spare,
        recon,
        bits,
        ref_sums,
        work,
        ..
    } = scratch;
    let reference = if key { None } else { recon.first() };
    let payload = encode_tile_opts_into(
        src,
        reference,
        qp,
        codec,
        search_range,
        spare,
        bits,
        ref_sums,
        work,
    );
    if recon.is_empty() {
        recon.push(std::mem::replace(spare, Frame::empty()));
    } else {
        std::mem::swap(&mut recon[0], spare);
    }
    payload
}

/// Allocation-reusing form of [`encode_tile_opts`]: the reconstruction
/// is built in `recon` (reshaped as needed) and the entropy bits in
/// `bits` (cleared first); both keep their backing storage for the
/// next call, as does `ref_sums` (rebuilt here from `reference`). Only
/// the returned payload is freshly allocated. `work` is added to,
/// never reset.
#[allow(clippy::too_many_arguments)]
fn encode_tile_opts_into(
    src: &Frame,
    reference: Option<&Frame>,
    qp: u8,
    codec: CodecKind,
    search_range: i32,
    recon: &mut Frame,
    bits: &mut BitWriter,
    ref_sums: &mut BlockSums,
    work: &mut EncoderWork,
) -> Vec<u8> {
    let (w, h) = (src.width(), src.height());
    debug_assert!(w % MB_SIZE == 0 && h % MB_SIZE == 0);
    let rect = TileRect { x0: 0, y0: 0, w, h };
    // No clearing needed beyond the reshape: every sample of `recon`
    // is stored by encode_block before the DC predictor can read it.
    recon.reshape(w, h);
    bits.clear();
    let deadzone = codec.deadzone();
    if let Some(refer) = reference {
        ref_sums.rebuild(refer.plane(PlaneKind::Luma), w, h);
    }

    let (mb_cols, mb_rows) = (w / MB_SIZE, h / MB_SIZE);
    // lint: hot-loop — zero allocations per macroblock (PR 3 contract;
    // the alloc_steady_state test measures it, rule R2 enforces it)
    for mb_row in 0..mb_rows {
        for mb_col in 0..mb_cols {
            let mbx = mb_col * MB_SIZE;
            let mby = mb_row * MB_SIZE;
            let mode = match reference {
                None => MbMode::Intra,
                Some(refer) => {
                    let luma = src.plane(PlaneKind::Luma);
                    let src_sum = mb_sum(luma, w, mbx, mby);
                    let (mv, sad) = motion_search(
                        luma,
                        refer.plane(PlaneKind::Luma),
                        w,
                        &rect,
                        mbx,
                        mby,
                        search_range,
                        src_sum,
                        ref_sums,
                        work,
                    );
                    // Intra cost estimate: SAD against the macroblock mean.
                    let intra_cost = intra_cost_estimate(luma, w, mbx, mby, src_sum);
                    let mv_overhead = 2 * (mv.dx.unsigned_abs() + mv.dy.unsigned_abs()) + 16;
                    if sad + mv_overhead < intra_cost {
                        MbMode::Inter(mv)
                    } else {
                        MbMode::Intra
                    }
                }
            };
            if reference.is_some() {
                match mode {
                    MbMode::Inter(mv) => {
                        bits.write_bit(false);
                        write_se(bits, mv.dx);
                        write_se(bits, mv.dy);
                    }
                    MbMode::Intra => bits.write_bit(true),
                }
            }
            encode_macroblock(
                src, reference, recon, &rect, mbx, mby, &mode, qp, deadzone, bits, work,
            );
        }
    }
    // lint: end-hot-loop
    let body = bits.aligned_bytes();
    let mut payload = Vec::with_capacity(body.len() + 1);
    payload.push(qp);
    payload.extend_from_slice(body);
    payload
}

#[derive(Debug, Clone, Copy)]
enum MbMode {
    Intra,
    Inter(MotionVector),
}

#[allow(clippy::too_many_arguments)]
fn encode_macroblock(
    src: &Frame,
    reference: Option<&Frame>,
    recon: &mut Frame,
    rect: &TileRect,
    mbx: usize,
    mby: usize,
    mode: &MbMode,
    qp: u8,
    deadzone: bool,
    bits: &mut BitWriter,
    work: &mut EncoderWork,
) {
    let w = src.width();
    // Four luma 8×8 blocks in 2×2 raster order.
    for by in 0..2 {
        for bx in 0..2 {
            let x = mbx + bx * BLOCK_SIZE;
            let y = mby + by * BLOCK_SIZE;
            encode_block(
                src.plane(PlaneKind::Luma),
                reference.map(|r| r.plane(PlaneKind::Luma)),
                recon,
                PlaneKind::Luma,
                w,
                rect,
                x,
                y,
                mode,
                1,
                qp,
                deadzone,
                bits,
                work,
            );
        }
    }
    // One 8×8 block per chroma plane (4:2:0), at halved coordinates.
    let crect = TileRect {
        x0: rect.x0 / 2,
        y0: rect.y0 / 2,
        w: rect.w / 2,
        h: rect.h / 2,
    };
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        encode_block(
            src.plane(plane),
            reference.map(|r| r.plane(plane)),
            recon,
            plane,
            w / 2,
            &crect,
            mbx / 2,
            mby / 2,
            mode,
            2,
            qp,
            deadzone,
            bits,
            work,
        );
    }
}

/// Encodes one 8×8 block of one plane: prediction, transform,
/// quantisation, entropy coding, and reconstruction.
///
/// Most blocks quantise to all-zero levels, which the decoder
/// reconstructs as the prediction itself (`dequantize` and `inverse`
/// map 0 to 0). Those leave here with the uncoded flag and a copy of
/// `pred` — without the transform either, when [`zero_block_sad_bound`]
/// proves the outcome from the residual's SAD.
#[allow(clippy::too_many_arguments)]
fn encode_block(
    src_plane: &[u8],
    ref_plane: Option<&[u8]>,
    recon: &mut Frame,
    plane_kind: PlaneKind,
    stride: usize,
    rect: &TileRect,
    x: usize,
    y: usize,
    mode: &MbMode,
    mv_shift: i32,
    qp: u8,
    deadzone: bool,
    bits: &mut BitWriter,
    work: &mut EncoderWork,
) {
    let src_block: [i32; 64] = extract_block(src_plane, stride, x, y);
    // Build the prediction.
    let pred: [i32; 64] = match mode {
        MbMode::Intra => {
            let dc = dc_predictor(recon.plane(plane_kind), stride, rect, x, y);
            [dc; 64]
        }
        MbMode::Inter(mv) => {
            // lint: allow(R1): mode selection only yields Inter when a reference plane exists
            #[allow(clippy::expect_used)]
            let rp = ref_plane.expect("inter block without reference");
            let rx = (x as i32 + mv.dx / mv_shift) as usize;
            let ry = (y as i32 + mv.dy / mv_shift) as usize;
            extract_block(rp, stride, rx, ry)
        }
    };
    let mut residual = [0i32; 64];
    let mut sad = 0u32;
    for i in 0..64 {
        residual[i] = src_block[i] - pred[i];
        sad += residual[i].unsigned_abs();
    }
    work.blocks += 1;
    let mut coeffs = [0i32; 64];
    let nnz = if sad < zero_block_sad_bound(qp, deadzone) {
        work.blocks_sad_gated += 1;
        0
    } else {
        coeffs = forward(&residual);
        let nnz = quantize(&mut coeffs, qp, deadzone);
        work.blocks_zero_quant += (nnz == 0) as u64;
        nnz
    };
    if nnz == 0 {
        bits.write_bit(false);
        store_block(recon.plane_mut(plane_kind), stride, x, y, &pred);
        return;
    }
    write_coeff_block(bits, &coeffs, nnz);

    // Reconstruct exactly as the decoder will.
    let mut levels = coeffs;
    dequantize(&mut levels, qp);
    let rec_res = inverse(&levels);
    let mut rec = [0i32; 64];
    for i in 0..64 {
        rec[i] = pred[i] + rec_res[i];
    }
    store_block(recon.plane_mut(plane_kind), stride, x, y, &rec);
}

/// Writes one quantised coefficient block with `nnz > 0` nonzero
/// levels: the coded flag, the count, then zig-zag `(run, level)`
/// pairs, stopping at the last nonzero level.
fn write_coeff_block(bits: &mut BitWriter, coeffs: &[i32; 64], nnz: u32) {
    bits.write_bit(true);
    write_ue(bits, nnz - 1);
    let mut run = 0u32;
    let mut left = nnz;
    for &idx in ZIGZAG.iter() {
        let c = coeffs[idx];
        if c == 0 {
            run += 1;
        } else {
            write_ue(bits, run);
            write_se(bits, c);
            run = 0;
            left -= 1;
            if left == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_frame::Yuv;

    /// Mean SAD per luma sample between a source frame and its
    /// reconstruction.
    fn reconstruction_error(src: &Frame, recon: &Frame) -> f64 {
        let a = src.plane(PlaneKind::Luma);
        let b = recon.plane(PlaneKind::Luma);
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x as i32 - y as i32).abs() as f64)
            .sum::<f64>()
            / a.len() as f64
    }

    fn textured_frame(w: usize, h: usize, phase: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = (((x + phase) as f64 / 9.0).sin() * 60.0
                    + ((y + phase / 2) as f64 / 7.0).cos() * 50.0
                    + 128.0) as u8;
                f.set(
                    x,
                    y,
                    Yuv::new(v, ((x + phase) % 256) as u8, (y % 256) as u8),
                );
            }
        }
        f
    }

    #[test]
    fn intra_tile_reconstruction_is_faithful_at_low_qp() {
        let src = textured_frame(64, 32, 0);
        let (payload, recon) = encode_tile(&src, None, 4, CodecKind::H264Sim);
        assert!(!payload.is_empty());
        let err = reconstruction_error(&src, &recon);
        assert!(err < 3.0, "mean abs luma error {err} too high at QP 4");
    }

    #[test]
    fn high_qp_shrinks_payload() {
        let src = textured_frame(64, 32, 0);
        let (lo, _) = encode_tile(&src, None, 4, CodecKind::H264Sim);
        let (hi, _) = encode_tile(&src, None, 45, CodecKind::H264Sim);
        assert!(
            hi.len() * 3 < lo.len(),
            "QP 45 payload {} should be far smaller than QP 4 payload {}",
            hi.len(),
            lo.len()
        );
    }

    #[test]
    fn hevc_profile_compresses_tighter() {
        let src = textured_frame(64, 64, 3);
        let (h264, _) = encode_tile(&src, None, 24, CodecKind::H264Sim);
        let (hevc, _) = encode_tile(&src, None, 24, CodecKind::HevcSim);
        assert!(
            hevc.len() <= h264.len(),
            "hevc {} vs h264 {}",
            hevc.len(),
            h264.len()
        );
    }

    #[test]
    fn predicted_frame_of_static_scene_is_tiny() {
        let src = textured_frame(64, 32, 0);
        let (_, recon) = encode_tile(&src, None, 10, CodecKind::H264Sim);
        let (p_payload, _) = encode_tile(&src, Some(&recon), 10, CodecKind::H264Sim);
        let (i_payload, _) = encode_tile(&src, None, 10, CodecKind::H264Sim);
        assert!(
            p_payload.len() * 3 < i_payload.len(),
            "P-frame {} should be much smaller than I-frame {}",
            p_payload.len(),
            i_payload.len()
        );
    }

    #[test]
    fn encoder_rejects_bad_config() {
        assert!(Encoder::new(EncoderConfig {
            qp: 99,
            ..Default::default()
        })
        .is_err());
        assert!(Encoder::new(EncoderConfig {
            gop_length: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn encode_splits_into_gops() {
        let frames: Vec<Frame> = (0..7).map(|i| textured_frame(32, 32, i)).collect();
        let enc = Encoder::new(EncoderConfig {
            gop_length: 3,
            qp: 30,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        assert_eq!(stream.gops.len(), 3); // 3 + 3 + 1
        assert_eq!(stream.frame_count(), 7);
        let types: Vec<FrameType> = stream.gops[0].frames().map(|f| f.frame_type()).collect();
        assert_eq!(types, [FrameType::Key, FrameType::Predicted, FrameType::Predicted]);
        assert_eq!(stream.gops[2].frame_count(), 1);
    }

    #[test]
    fn tile_qp_count_must_match_grid() {
        let frames = vec![textured_frame(64, 32, 0)];
        let enc = Encoder::new(EncoderConfig {
            grid: TileGrid::new(2, 1),
            ..Default::default()
        })
        .unwrap();
        assert!(enc.encode_with_tile_qp(&frames, &[10]).is_err());
        assert!(enc.encode_with_tile_qp(&frames, &[10, 20]).is_ok());
    }

    #[test]
    fn varying_frame_dims_rejected() {
        let frames = vec![textured_frame(32, 32, 0), textured_frame(64, 32, 0)];
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        assert!(enc.encode(&frames).is_err());
    }

    #[test]
    fn per_tile_qp_affects_per_tile_size() {
        let frames = vec![textured_frame(64, 32, 1)];
        let enc = Encoder::new(EncoderConfig {
            grid: TileGrid::new(2, 1),
            gop_length: 1,
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode_with_tile_qp(&frames, &[4, 45]).unwrap();
        let f = stream.gops[0].frames().next().unwrap();
        assert!(f.tile(0).unwrap().len() > f.tile(1).unwrap().len() * 2);
    }
}
