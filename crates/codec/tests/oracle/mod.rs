//! The encoder's block and search paths as they were before the
//! zero-block short-circuits and successive elimination (commit
//! 3904a5c), kept verbatim as the differential oracle: every level is
//! divided out, every block is transformed, dequantised and inverted,
//! and every candidate in the window is measured. Likewise the
//! decoder's block path before its uncoded-block short-circuit (commit
//! d3572aa): every block, coded or not, is widened, dequantised,
//! inverted, added, clamped and stored.
//!
//! Shared by this crate's integration tests and, through `#[path]`,
//! by `lightdb-bench`'s kernel benchmark, which times the shipped
//! encoder against it. Public API only — nothing here can reach into
//! the codec.

// Each includer uses its own half (encoder or decoder side).
#![allow(dead_code)]

use lightdb_codec::bitio::{BitReader, BitWriter};
use lightdb_codec::golomb::{read_se, read_ue, write_se, write_ue};
use lightdb_codec::predict::{dc_predictor, extract_block, sad_mb, store_block, MotionVector};
use lightdb_codec::quant::{dequantize, qstep_x64, QP_MAX, WEIGHTS};
use lightdb_codec::transform::{forward, inverse, ZIGZAG};
use lightdb_codec::{CodecError, CodecKind, FrameType, TileRect};
use lightdb_frame::{Frame, PlaneKind};

const MB_SIZE: usize = lightdb_codec::MB_SIZE;
const BLOCK_SIZE: usize = lightdb_codec::BLOCK_SIZE;

/// `quant::quantize`, one `i64` division per coefficient, with `div`
/// and `offset` computed in place the way `quant`'s tables are built.
pub(crate) fn quantize(coeffs: &mut [i32; 64], qp: u8, deadzone: bool) {
    let step = qstep_x64(qp) as i64;
    let offset = if deadzone { step / 6 } else { step / 2 };
    for (c, &w) in coeffs.iter_mut().zip(WEIGHTS.iter()) {
        let d = step * w as i64 / 16;
        let v = *c as i64 * 64;
        let q = if v >= 0 {
            (v + offset) / d
        } else {
            -((-v + offset) / d)
        };
        *c = q as i32;
    }
}

/// `predict::motion_search`: every candidate goes through `sad_mb`.
/// Also returns how many candidates that was.
pub(crate) fn motion_search(
    src: &[u8],
    reference: &[u8],
    stride: usize,
    rect: &TileRect,
    mbx: usize,
    mby: usize,
    range: i32,
) -> (MotionVector, u32, u64) {
    let min_dx = rect.x0 as i32 - mbx as i32;
    let max_dx = (rect.x0 + rect.w - MB_SIZE) as i32 - mbx as i32;
    let min_dy = rect.y0 as i32 - mby as i32;
    let max_dy = (rect.y0 + rect.h - MB_SIZE) as i32 - mby as i32;
    let lo_x = (-range).max(min_dx);
    let hi_x = range.min(max_dx);
    let lo_y = (-range).max(min_dy);
    let hi_y = range.min(max_dy);

    let mut measured = 0u64;
    let mut best = MotionVector::default();
    let mut best_sad = sad_mb(src, stride, mbx, mby, reference, stride, mbx, mby, u32::MAX);

    // Stage 1: coarse scan at stride 2.
    let mut dy = lo_y;
    while dy <= hi_y {
        let mut dx = lo_x;
        while dx <= hi_x {
            if dx != 0 || dy != 0 {
                measured += 1;
                let sad = sad_mb(
                    src,
                    stride,
                    mbx,
                    mby,
                    reference,
                    stride,
                    (mbx as i32 + dx) as usize,
                    (mby as i32 + dy) as usize,
                    best_sad,
                );
                if sad < best_sad {
                    best_sad = sad;
                    best = MotionVector { dx, dy };
                }
            }
            dx += 2;
        }
        dy += 2;
    }

    // Stage 2: ±1 refinement around the coarse winner.
    for ry in -1..=1i32 {
        for rx in -1..=1i32 {
            let dx = best.dx + rx;
            let dy = best.dy + ry;
            if dx < lo_x || dx > hi_x || dy < lo_y || dy > hi_y || (rx == 0 && ry == 0) {
                continue;
            }
            measured += 1;
            let sad = sad_mb(
                src,
                stride,
                mbx,
                mby,
                reference,
                stride,
                (mbx as i32 + dx) as usize,
                (mby as i32 + dy) as usize,
                best_sad,
            );
            if sad < best_sad {
                best_sad = sad;
                best = MotionVector { dx, dy };
            }
        }
    }
    (best, best_sad, measured)
}

/// `encoder::encode_tile_opts`: payload and reconstruction of one
/// tile-sized frame.
pub(crate) fn encode_tile_opts(
    src: &Frame,
    reference: Option<&Frame>,
    qp: u8,
    codec: CodecKind,
    search_range: i32,
) -> (Vec<u8>, Frame) {
    let (w, h) = (src.width(), src.height());
    let rect = TileRect { x0: 0, y0: 0, w, h };
    let mut recon = Frame::new(w, h);
    let mut bits = BitWriter::new();
    let deadzone = codec.deadzone();
    for mby in (0..h).step_by(MB_SIZE) {
        for mbx in (0..w).step_by(MB_SIZE) {
            let mode = match reference {
                None => MbMode::Intra,
                Some(refer) => {
                    let (mv, sad, _) = motion_search(
                        src.plane(PlaneKind::Luma),
                        refer.plane(PlaneKind::Luma),
                        w,
                        &rect,
                        mbx,
                        mby,
                        search_range,
                    );
                    let intra_cost = intra_cost_estimate(src, mbx, mby);
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
                        write_se(&mut bits, mv.dx);
                        write_se(&mut bits, mv.dy);
                    }
                    MbMode::Intra => bits.write_bit(true),
                }
            }
            for (by, bx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                encode_block(
                    src.plane(PlaneKind::Luma),
                    reference.map(|r| r.plane(PlaneKind::Luma)),
                    &mut recon,
                    PlaneKind::Luma,
                    w,
                    &rect,
                    (mbx + bx * BLOCK_SIZE, mby + by * BLOCK_SIZE),
                    (&mode, 1),
                    (qp, deadzone),
                    &mut bits,
                );
            }
            let crect = TileRect {
                x0: 0,
                y0: 0,
                w: w / 2,
                h: h / 2,
            };
            for plane in [PlaneKind::Cb, PlaneKind::Cr] {
                encode_block(
                    src.plane(plane),
                    reference.map(|r| r.plane(plane)),
                    &mut recon,
                    plane,
                    w / 2,
                    &crect,
                    (mbx / 2, mby / 2),
                    (&mode, 2),
                    (qp, deadzone),
                    &mut bits,
                );
            }
        }
    }
    let mut payload = vec![qp];
    payload.extend_from_slice(bits.aligned_bytes());
    (payload, recon)
}

enum MbMode {
    Intra,
    Inter(MotionVector),
}

fn intra_cost_estimate(src: &Frame, mbx: usize, mby: usize) -> u32 {
    let plane = src.plane(PlaneKind::Luma);
    let w = src.width();
    let mut sum = 0u32;
    for row in 0..MB_SIZE {
        let base = (mby + row) * w + mbx;
        for col in 0..MB_SIZE {
            sum += plane[base + col] as u32;
        }
    }
    let mean = (sum / (MB_SIZE * MB_SIZE) as u32) as i32;
    let mut sad = 0u32;
    for row in 0..MB_SIZE {
        let base = (mby + row) * w + mbx;
        for col in 0..MB_SIZE {
            sad += (plane[base + col] as i32 - mean).unsigned_abs();
        }
    }
    sad
}

#[allow(clippy::too_many_arguments)]
fn encode_block(
    src_plane: &[u8],
    ref_plane: Option<&[u8]>,
    recon: &mut Frame,
    plane_kind: PlaneKind,
    stride: usize,
    rect: &TileRect,
    (x, y): (usize, usize),
    (mode, mv_shift): (&MbMode, i32),
    (qp, deadzone): (u8, bool),
    bits: &mut BitWriter,
) {
    let src_block: [i32; 64] = extract_block(src_plane, stride, x, y);
    let pred: [i32; 64] = match mode {
        MbMode::Intra => [dc_predictor(recon.plane(plane_kind), stride, rect, x, y); 64],
        MbMode::Inter(mv) => {
            let rp = ref_plane.expect("inter block without reference");
            let rx = (x as i32 + mv.dx / mv_shift) as usize;
            let ry = (y as i32 + mv.dy / mv_shift) as usize;
            extract_block(rp, stride, rx, ry)
        }
    };
    let mut residual = [0i32; 64];
    for i in 0..64 {
        residual[i] = src_block[i] - pred[i];
    }
    let mut coeffs = forward(&residual);
    quantize(&mut coeffs, qp, deadzone);

    write_coeff_block(bits, &coeffs);

    let mut levels = coeffs;
    dequantize(&mut levels, qp);
    let rec_res = inverse(&levels);
    let mut rec = [0i32; 64];
    for i in 0..64 {
        rec[i] = pred[i] + rec_res[i];
    }
    store_block(recon.plane_mut(plane_kind), stride, x, y, &rec);
}

/// Walks all 64 zig-zag positions, as the encoder used to.
fn write_coeff_block(bits: &mut BitWriter, coeffs: &[i32; 64]) {
    let nnz = coeffs.iter().filter(|&&c| c != 0).count() as u32;
    if nnz == 0 {
        bits.write_bit(false);
        return;
    }
    bits.write_bit(true);
    write_ue(bits, nnz - 1);
    let mut run = 0u32;
    for &idx in ZIGZAG.iter() {
        let c = coeffs[idx];
        if c == 0 {
            run += 1;
        } else {
            write_ue(bits, run);
            write_se(bits, c);
            run = 0;
        }
    }
}

/// `decoder::decode_tile_payload_into`: one tile payload into `recon`.
pub(crate) fn decode_tile_payload_into(
    payload: &[u8],
    w: usize,
    h: usize,
    frame_type: FrameType,
    reference: Option<&Frame>,
    recon: &mut Frame,
) -> Result<(), CodecError> {
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
    let crect = TileRect {
        x0: 0,
        y0: 0,
        w: w / 2,
        h: h / 2,
    };
    recon.reshape(w, h);
    let mut bits = BitReader::new(body);
    for mby in (0..h).step_by(MB_SIZE) {
        for mbx in (0..w).step_by(MB_SIZE) {
            let mode = match frame_type {
                FrameType::Key => MbMode::Intra,
                FrameType::Predicted => {
                    if bits.read_bit()? {
                        MbMode::Intra
                    } else {
                        let dx = read_se(&mut bits)?;
                        let dy = read_se(&mut bits)?;
                        let (rx, ry) = (mbx as i64 + dx as i64, mby as i64 + dy as i64);
                        if rx < 0
                            || ry < 0
                            || rx + MB_SIZE as i64 > w as i64
                            || ry + MB_SIZE as i64 > h as i64
                        {
                            return Err(CodecError::Corrupt("motion vector escapes tile"));
                        }
                        MbMode::Inter(MotionVector { dx, dy })
                    }
                }
            };
            for (by, bx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let (x, y) = (mbx + bx * BLOCK_SIZE, mby + by * BLOCK_SIZE);
                decode_block(
                    reference,
                    recon,
                    PlaneKind::Luma,
                    w,
                    &rect,
                    (x, y),
                    (&mode, 1),
                    qp,
                    &mut bits,
                )?;
            }
            for plane in [PlaneKind::Cb, PlaneKind::Cr] {
                let at = (mbx / 2, mby / 2);
                decode_block(
                    reference,
                    recon,
                    plane,
                    w / 2,
                    &crect,
                    at,
                    (&mode, 2),
                    qp,
                    &mut bits,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn decode_block(
    reference: Option<&Frame>,
    recon: &mut Frame,
    plane_kind: PlaneKind,
    stride: usize,
    rect: &TileRect,
    (x, y): (usize, usize),
    (mode, mv_shift): (&MbMode, i32),
    qp: u8,
    bits: &mut BitReader<'_>,
) -> Result<(), CodecError> {
    let pred: [i32; 64] = match mode {
        MbMode::Intra => [dc_predictor(recon.plane(plane_kind), stride, rect, x, y); 64],
        MbMode::Inter(mv) => {
            let rp = reference.ok_or(CodecError::Corrupt("inter block without reference"))?;
            let rx = (x as i32 + mv.dx / mv_shift) as usize;
            let ry = (y as i32 + mv.dy / mv_shift) as usize;
            extract_block(rp.plane(plane_kind), stride, rx, ry)
        }
    };
    let mut levels = read_coeff_block(bits)?;
    dequantize(&mut levels, qp);
    let res = inverse(&levels);
    let mut rec = [0i32; 64];
    for i in 0..64 {
        rec[i] = pred[i] + res[i];
    }
    store_block(recon.plane_mut(plane_kind), stride, x, y, &rec);
    Ok(())
}

fn read_coeff_block(bits: &mut BitReader<'_>) -> Result<[i32; 64], CodecError> {
    let mut out = [0i32; 64];
    if !bits.read_bit()? {
        return Ok(out);
    }
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
