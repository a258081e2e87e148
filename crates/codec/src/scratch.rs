//! Reusable scratch state for the encode/decode hot loops.
//!
//! The per-macroblock pipeline itself works entirely in fixed-size
//! stack arrays; what used to allocate were the per-tile/per-frame
//! staging buffers around it (cropped sources, reconstruction frames,
//! the entropy writer's byte buffer). These arenas own those buffers
//! and are threaded through the codec entry points so that, once every
//! buffer has reached its steady-state size, encoding and decoding
//! perform **zero heap allocations per macroblock** — the only
//! remaining allocations are the returned payloads/frames themselves,
//! which scale with frame count, never with macroblock count.
//!
//! Reconstruction frames are deliberately *not* cleared between uses:
//! every sample is stored before any read (macroblocks cover the tile
//! in raster order, and the DC predictor only consults pixels stored
//! by earlier blocks), so stale contents can never leak into output.
//! The corpus byte-identity tests pin that reasoning down.

use crate::bitio::BitWriter;
use crate::decoder::FrameResiduals;
use crate::predict::BlockSums;
use lightdb_frame::Frame;

/// What the encoder attempted and how much of it reached the
/// bitstream. Plain counters, bumped from the per-macroblock loop by
/// whichever thread owns the scratch; callers read them between tiles
/// and reset them with `std::mem::take`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncoderWork {
    /// 8×8 blocks encoded (six per macroblock).
    pub blocks: u64,
    /// Blocks the SAD gate proved all-zero before the transform.
    pub blocks_sad_gated: u64,
    /// Blocks the `f32` transform proved all-zero (past the SAD gate),
    /// never transformed exactly.
    pub blocks_zero_proved: u64,
    /// Blocks exactly transformed, then quantised to all-zero: what
    /// both proofs missed.
    pub blocks_zero_quant: u64,
    /// Motion candidates considered after the zero vector.
    pub mv_candidates: u64,
    /// Candidates ruled out by their block sum, never measured.
    pub mv_eliminated: u64,
    /// Searches that ended at a zero-vector SAD of 0.
    pub zero_sad_exits: u64,
}

/// Per-worker scratch for the encoder: a cropped-source staging frame,
/// a reconstruction being built (double-buffered against the caller's
/// previous reconstruction), the entropy writer, the reference
/// frame's block sums, and the work counters.
#[derive(Debug)]
pub struct EncoderScratch {
    /// Cropped tile source (tile-local coordinates).
    pub src: Frame,
    /// Reconstruction under construction; swapped with the caller's
    /// reference frame after each tile.
    pub spare: Frame,
    /// Per-tile reconstructions, reused across frames and GOPs.
    pub recon: Vec<Frame>,
    /// Reusable entropy writer (backing buffer survives `clear`).
    pub bits: BitWriter,
    /// Macroblock sums of the current reference's luma plane.
    pub ref_sums: BlockSums,
    pub work: EncoderWork,
}

impl Default for EncoderScratch {
    fn default() -> Self {
        EncoderScratch::new()
    }
}

impl EncoderScratch {
    pub fn new() -> Self {
        EncoderScratch {
            src: Frame::empty(),
            spare: Frame::empty(),
            recon: Vec::new(),
            bits: BitWriter::new(),
            ref_sums: BlockSums::default(),
            work: EncoderWork::default(),
        }
    }
}

/// What the decoder was handed and how much of it carried no
/// residual. Plain counters, bumped from the per-block loop by
/// whichever thread owns the scratch; callers read them between GOPs
/// and reset them with `std::mem::take`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecoderWork {
    /// 8×8 blocks decoded (six per macroblock).
    pub blocks: u64,
    /// Uncoded inter blocks: eight row copies from the reference.
    pub uncoded_inter: u64,
    /// Uncoded intra blocks: a fill with the DC predictor.
    pub uncoded_intra: u64,
    /// Frames whose residuals a helper thread computed ahead of the
    /// caller's reconstruction.
    pub frames_ahead: u64,
}

impl DecoderWork {
    pub(crate) fn add(&mut self, other: &DecoderWork) {
        self.blocks += other.blocks;
        self.uncoded_inter += other.uncoded_inter;
        self.uncoded_intra += other.uncoded_intra;
        self.frames_ahead += other.frames_ahead;
    }
}

/// Per-worker scratch for the decoder: the residual buffer between the
/// decode's two stages, and the work counters. Reconstruction needs no
/// buffer of its own: every tile rebuilds in place in its output frame,
/// against the output frame before it.
#[derive(Debug, Default)]
pub struct DecoderScratch {
    pub work: DecoderWork,
    /// The caller's residual buffer: a frame's stage A output, read by
    /// its stage B. A decode that fans out lends its helpers buffers of
    /// its own for the length of the call.
    pub(crate) residuals: FrameResiduals,
}

impl DecoderScratch {
    pub fn new() -> Self {
        DecoderScratch::default()
    }
}
