//! The decoder.
//!
//! Mirrors the encoder exactly. Each tile's payload describes its tile
//! in tile-local coordinates, and every tile is rebuilt in place in the
//! output frame: its blocks land at the tile's origin, its DC
//! predictor reads only samples inside the tile, and its motion vectors
//! — each checked by `validate_mv` to keep the whole macroblock inside
//! the tile — read the previous output frame at that same tile. The
//! previous output frame is therefore every tile's reference, and a
//! tiled GOP needs no per-tile frames, copies or blits. One tile of a
//! GOP decodes on its own as `EncodedGop::extract_tile` plus
//! [`Decoder::decode_gop`] under the tile's single-tile header, which
//! is what `TILESELECT` runs.
//!
//! Every payload decodes in two stages. Stage A (*residuals*) makes
//! every bit read and check, then dequantises and inverse-transforms
//! each coded block; it reads no pixels, so any frame's stage A can run
//! on any thread. Stage B (*reconstruction*) forms each block's
//! prediction — the DC predictor, a reference copy or a fill — adds the
//! residual and stores it, in frame order. A GOP given more than one
//! thread runs later frames' stage A on helper threads while the caller
//! runs stage B ([`Decoder::decode_gop_scratch`]); at one thread the two
//! stages run back to back on the caller.

use crate::bitio::BitReader;
use crate::golomb::{read_se, read_ue};
use crate::gop::{EncodedGop, FrameType, FrameView};
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
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Mutex;

/// A video decoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl Decoder {
    pub fn new() -> Decoder {
        Decoder
    }

    /// Decodes an entire stream into frames, on the calling thread.
    pub fn decode(&self, stream: &VideoStream) -> Result<Vec<Frame>> {
        let mut scratch = DecoderScratch::new();
        let mut out = Vec::with_capacity(stream.frame_count());
        for gop in &stream.gops {
            out.extend(self.decode_gop_scratch(&stream.header, gop, &mut scratch, 1)?);
        }
        Ok(out)
    }

    /// Decodes one GOP into full frames, on the calling thread.
    pub fn decode_gop(&self, header: &SequenceHeader, gop: &EncodedGop) -> Result<Vec<Frame>> {
        self.decode_gop_scratch(header, gop, &mut DecoderScratch::new(), 1)
    }

    /// Allocation-reusing form of [`Decoder::decode_gop`] on up to
    /// `threads` threads: at steady state the only allocations are the
    /// returned frames, plus a fixed cost per call when the decode fans
    /// out. Every frame decodes straight into its output frame, each
    /// tile in place against the frame before it, and the block counts
    /// are added to `scratch.work`.
    ///
    /// With more than one thread and more than one frame, up to
    /// `threads - 1` helpers (one per frame after the first) compute later
    /// frames' residuals (stage A) while the caller reconstructs frames in
    /// order (stage B). The caller computes residuals too: for the next
    /// frame when no helper has claimed it, and for the next unclaimed
    /// frame when it would otherwise wait for a helper. At most
    /// `threads × 2` frames of residuals wait ahead of reconstruction;
    /// `scratch` keeps one residual buffer, and the others live for the
    /// call. Output and errors are the one-thread decode's: the first
    /// failing frame in frame order decides the error, and helpers claim
    /// no frame after it.
    pub fn decode_gop_scratch(
        &self,
        header: &SequenceHeader,
        gop: &EncodedGop,
        scratch: &mut DecoderScratch,
        threads: usize,
    ) -> Result<Vec<Frame>> {
        header.validate()?;
        let DecoderScratch { work, residuals } = scratch;
        let mut rebuild = Rebuild::new(header, gop, work);
        // Every frame after the first is one a helper can run ahead.
        let helpers = threads.saturating_sub(1).min(gop.frame_count().saturating_sub(1));
        if helpers == 0 {
            // The GOP was checked when it was made: it begins with a
            // keyframe, and its tile index delimits every payload.
            gop.frames().try_for_each(|ef| {
                let read = read_frame(header, &ef, residuals);
                rebuild.frame(ef.frame_type(), residuals, read, false)
            })?;
        } else {
            decode_pipelined(header, gop, helpers, residuals, &mut rebuild)?;
        }
        Ok(rebuild.out)
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
        let (mut res, mut work) = (FrameResiduals::default(), DecoderWork::default());
        let mut rebuild = Rebuild::new(header, gop, &mut work);
        for ef in gop.frames() {
            if ef.tile_count() != header.grid.tile_count() {
                return Err(CodecError::Corrupt("frame tile count disagrees with grid"));
            }
            match ef.frame_type() {
                FrameType::Key => {
                    let read = read_frame(header, &ef, &mut res);
                    rebuild.frame(FrameType::Key, &res, read, false)?;
                }
                FrameType::Predicted => {
                    let prev = rebuild
                        .out
                        .last()
                        .ok_or(CodecError::Corrupt("predicted frame without reference"))?;
                    rebuild.out.push(prev.clone());
                }
            }
        }
        Ok(rebuild.out)
    }
}

/// Decodes one `w × h` tile payload into a caller-provided frame
/// (reshaped to `w × h`): both stages, the tile being the whole frame.
/// Its contents are unspecified on error. No clearing is needed: every
/// sample is stored before the DC predictor can read it. Block counts
/// are added to `work`.
pub fn decode_tile_payload_into(
    payload: &[u8],
    w: usize,
    h: usize,
    frame_type: FrameType,
    reference: Option<&Frame>,
    recon: &mut Frame,
    work: &mut DecoderWork,
) -> Result<()> {
    let mut res = FrameResiduals::default();
    let dims = reference.map(|r| (r.width(), r.height()));
    let read = read_tile(payload, w, h, frame_type, dims, &mut res);
    work.add(&res.work);
    read?;
    recon.reshape(w, h);
    let rect = TileRect { x0: 0, y0: 0, w, h };
    reconstruct_tile(&res, &mut Cursor::default(), &rect, reference, recon)
}

// ------------------------------------------------------------ stage A

/// One macroblock as stage A read it.
#[derive(Debug, Clone, Copy)]
struct MbCode {
    mode: MbMode,
    /// Bit `b` set: block `b` carries a residual (blocks 0..4 are the
    /// luma blocks in raster order, 4 is Cb, 5 is Cr).
    coded: u8,
}

/// Stage A's output for one frame (or one tile payload): every
/// macroblock's mode and coded blocks, tiles in order and raster order
/// within a tile, and the residual of each coded block in the order
/// stage B meets them. Residuals are saturated to `i16`, which is
/// exact: a prediction is in 0..=255 and the sum is clamped to 0..=255,
/// so any residual past ±32 767 stores the same sample its saturation
/// does. A buffer holds up to 128 bytes per coded block, so twice a
/// decoded frame's size when every block is coded.
#[derive(Debug, Default)]
pub(crate) struct FrameResiduals {
    mbs: Vec<MbCode>,
    blocks: Vec<[i16; 64]>,
    /// Block counts for these payloads.
    work: DecoderWork,
}

impl FrameResiduals {
    /// An empty buffer with the capacity of `like`. Sized like the
    /// caller's own buffer, which has held this stream's frames, a
    /// helper filling it does not grow it at steady state: it is
    /// allocated and freed on the caller's thread. (Not sized from the
    /// header, whose dimensions no payload has vouched for yet.)
    fn with_capacity_of(like: &FrameResiduals) -> FrameResiduals {
        FrameResiduals {
            mbs: Vec::with_capacity(like.mbs.capacity()),
            blocks: Vec::with_capacity(like.blocks.capacity()),
            work: DecoderWork::default(),
        }
    }

    fn clear(&mut self) {
        self.mbs.clear();
        self.blocks.clear();
        self.work = DecoderWork::default();
    }
}

/// Stage A for one frame: every tile's payload, in tile order, into
/// `out` (cleared first).
fn read_frame(header: &SequenceHeader, ef: &FrameView<'_>, out: &mut FrameResiduals) -> Result<()> {
    out.clear();
    let grid = header.grid;
    if ef.tile_count() != grid.tile_count() {
        return Err(CodecError::Corrupt("frame tile count disagrees with grid"));
    }
    let frame_type = ef.frame_type();
    for (t, payload) in ef.tiles().enumerate() {
        let rect = grid.tile_rect(t, header.width, header.height);
        // A predicted frame's reference is the frame (or tile) before
        // it in this GOP: the same size, since the GOP opens with a
        // keyframe that fills every tile.
        let reference = match frame_type {
            FrameType::Key => None,
            FrameType::Predicted => Some((rect.w, rect.h)),
        };
        read_tile(payload, rect.w, rect.h, frame_type, reference, out)?;
    }
    Ok(())
}

/// Stage A for one tile payload: every bit read and check of the
/// decode, in its order, and the dequantised, inverse-transformed
/// residual of every coded block, appended to `out`. `reference` is
/// the reference frame's size, if the payload has one.
fn read_tile(
    payload: &[u8],
    w: usize,
    h: usize,
    frame_type: FrameType,
    reference: Option<(usize, usize)>,
    out: &mut FrameResiduals,
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
    if reference.is_some_and(|dims| dims != (w, h)) {
        return Err(CodecError::Corrupt("reference dimensions disagree"));
    }
    let mut bits = BitReader::new(body);
    let (mb_cols, mb_rows) = (w / MB_SIZE, h / MB_SIZE);
    let work = &mut out.work;
    // lint: hot-loop — zero allocations per macroblock (PR 3 contract)
    for mb_row in 0..mb_rows {
        for mb_col in 0..mb_cols {
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
                        validate_mv(&mv, mb_col * MB_SIZE, mb_row * MB_SIZE, w, h)?;
                        MbMode::Inter(mv)
                    }
                }
            };
            if matches!(mode, MbMode::Inter(_)) && reference.is_none() {
                work.blocks += 1;
                return Err(CodecError::Corrupt("inter block without reference"));
            }
            let mut coded = 0u8;
            for b in 0..6 {
                work.blocks += 1;
                if !bits.read_bit()? {
                    match mode {
                        MbMode::Intra => work.uncoded_intra += 1,
                        MbMode::Inter(_) => work.uncoded_inter += 1,
                    }
                    continue;
                }
                let mut levels = read_coeffs(&mut bits)?;
                dequantize(&mut levels, qp);
                out.blocks.push(saturate(&inverse(&levels)));
                coded |= 1 << b;
            }
            out.mbs.push(MbCode { mode, coded });
        }
    }
    // lint: end-hot-loop
    Ok(())
}

fn saturate(res: &[i32; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for (o, &r) in out.iter_mut().zip(res) {
        *o = r.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
    }
    out
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

// ------------------------------------------------------------ stage B

/// Where stage B stands in a [`FrameResiduals`].
#[derive(Debug, Default)]
struct Cursor {
    mb: usize,
    block: usize,
}

/// Stage B's state for one GOP: the frames so far, the last of which is
/// the next predicted frame's reference.
struct Rebuild<'a> {
    header: &'a SequenceHeader,
    out: Vec<Frame>,
    work: &'a mut DecoderWork,
}

impl<'a> Rebuild<'a> {
    fn new(header: &'a SequenceHeader, gop: &EncodedGop, work: &'a mut DecoderWork) -> Self {
        Rebuild { header, out: Vec::with_capacity(gop.frame_count()), work }
    }

    /// Takes the next frame's residuals — `read` is how its stage A
    /// ended, `ahead` whether a helper ran it — and reconstructs it.
    fn frame(
        &mut self,
        frame_type: FrameType,
        res: &FrameResiduals,
        read: Result<()>,
        ahead: bool,
    ) -> Result<()> {
        self.work.add(&res.work);
        self.work.frames_ahead += u64::from(ahead);
        read?;
        let (w, h) = (self.header.width, self.header.height);
        // The GOP opens with a keyframe, so a predicted frame's
        // reference is the frame before it in this GOP.
        let reference = match frame_type {
            FrameType::Key => None,
            FrameType::Predicted => self.out.last(),
        };
        let mut frame = Frame::empty();
        frame.reshape(w, h);
        let mut at = Cursor::default();
        for t in 0..self.header.grid.tile_count() {
            let rect = self.header.grid.tile_rect(t, w, h);
            reconstruct_tile(res, &mut at, &rect, reference, &mut frame)?;
        }
        self.out.push(frame);
        Ok(())
    }
}

/// Stage B for one tile, in place: each block's prediction plus the
/// residual stage A left for it, in raster order within `rect` of
/// `recon`, reading `res` from `at` on. `reference`, when there is one,
/// has `recon`'s dimensions; `validate_mv` kept every motion vector
/// inside the tile, so the blocks read from it lie inside `rect` too.
fn reconstruct_tile(
    res: &FrameResiduals,
    at: &mut Cursor,
    rect: &TileRect,
    reference: Option<&Frame>,
    recon: &mut Frame,
) -> Result<()> {
    let w = recon.width();
    let crect = TileRect { x0: rect.x0 / 2, y0: rect.y0 / 2, w: rect.w / 2, h: rect.h / 2 };
    for mb_row in 0..rect.h / MB_SIZE {
        for mb_col in 0..rect.w / MB_SIZE {
            let (mbx, mby) = (rect.x0 + mb_col * MB_SIZE, rect.y0 + mb_row * MB_SIZE);
            let mb = res.mbs[at.mb];
            at.mb += 1;
            for b in 0..6 {
                let residual = if mb.coded & (1 << b) != 0 {
                    at.block += 1;
                    Some(&res.blocks[at.block - 1])
                } else {
                    None
                };
                let (plane, stride, rect, x, y, mv_shift) = match b {
                    0..4 => (
                        PlaneKind::Luma,
                        w,
                        rect,
                        mbx + (b & 1) * BLOCK_SIZE,
                        mby + (b >> 1) * BLOCK_SIZE,
                        1,
                    ),
                    4 => (PlaneKind::Cb, w / 2, &crect, mbx / 2, mby / 2, 2),
                    _ => (PlaneKind::Cr, w / 2, &crect, mbx / 2, mby / 2, 2),
                };
                let block = Block { plane, stride, rect, x, y, mv_shift };
                rebuild_block(reference, recon, &block, &mb.mode, residual)?;
            }
        }
    }
    Ok(())
}

/// One 8×8 block's place: its plane, that plane's stride and tile
/// rectangle, its position, and the motion-vector divisor for the plane.
struct Block<'a> {
    plane: PlaneKind,
    stride: usize,
    rect: &'a TileRect,
    x: usize,
    y: usize,
    mv_shift: i32,
}

/// Reconstructs one 8×8 block. An uncoded block *is* its prediction —
/// eight row copies from the motion-compensated reference, or a fill
/// with the DC predictor (a rounded mean of bytes, so no clamp) — and
/// only a coded block adds a residual and clamps.
fn rebuild_block(
    reference: Option<&Frame>,
    recon: &mut Frame,
    b: &Block<'_>,
    mode: &MbMode,
    residual: Option<&[i16; 64]>,
) -> Result<()> {
    let (stride, x, y) = (b.stride, b.x, b.y);
    let pred: [i32; 64] = match mode {
        MbMode::Intra => {
            let dc = dc_predictor(recon.plane(b.plane), stride, b.rect, x, y);
            if residual.is_none() {
                fill_block(recon.plane_mut(b.plane), stride, x, y, dc as u8);
                return Ok(());
            }
            [dc; 64]
        }
        MbMode::Inter(mv) => {
            let rp = reference
                .ok_or(CodecError::Corrupt("inter block without reference"))?
                .plane(b.plane);
            let rx = (x as i32 + mv.dx / b.mv_shift) as usize;
            let ry = (y as i32 + mv.dy / b.mv_shift) as usize;
            if residual.is_none() {
                copy_block(rp, recon.plane_mut(b.plane), stride, (rx, ry), (x, y));
                return Ok(());
            }
            extract_block(rp, stride, rx, ry)
        }
    };
    let Some(res) = residual else { return Ok(()) };
    let mut rec = [0i32; 64];
    for i in 0..64 {
        rec[i] = pred[i] + res[i] as i32;
    }
    store_block(recon.plane_mut(b.plane), stride, x, y, &rec);
    Ok(())
}

// ---------------------------------------------------------- fan-out

/// What a helper hands the caller.
enum Ahead {
    /// Frame `frame`'s residuals and how its stage A ended.
    Ready { frame: usize, res: FrameResiduals, read: Result<()> },
    /// The helper panicked; the caller re-raises the panic.
    Panicked(Box<dyn Any + Send>),
}

/// Why the caller's loop stopped early.
enum Halt {
    Codec(CodecError),
    Panic(Box<dyn Any + Send>),
}

impl From<CodecError> for Halt {
    fn from(e: CodecError) -> Halt {
        Halt::Codec(e)
    }
}

/// The fanned-out decode: `helpers` threads run stage A of the frames
/// they claim, each into a buffer passed around a bounded channel,
/// while the caller runs stage B in frame order. The caller runs stage
/// A itself for a frame it reaches unclaimed, and, rather than wait for
/// a helper's frame, for the next unclaimed one. Claims come from one
/// counter, so the frames claimed and not yet reconstructed are
/// consecutive, and there are never more of them than the
/// `2 × (helpers + 1)` buffers: the caller's own and the lent ones.
/// The lent buffers are made here and every one comes back to be freed
/// here, so no decode leaves more than `own` behind.
fn decode_pipelined(
    header: &SequenceHeader,
    gop: &EncodedGop,
    helpers: usize,
    own: &mut FrameResiduals,
    rebuild: &mut Rebuild<'_>,
) -> Result<()> {
    let window = 2 * (helpers + 1);
    let (free_tx, free_rx) = sync_channel::<FrameResiduals>(window);
    for _ in 1..window {
        // Never blocks or fails: the channel has room and its receiver
        // is alive.
        let _ = free_tx.send(FrameResiduals::with_capacity_of(own));
    }
    let free_rx = Mutex::new(free_rx);
    // Sends never block: each message carries one of the helpers' buffers.
    let (done_tx, done_rx) = sync_channel::<Ahead>(window);
    // The next frame nobody has claimed. `Relaxed` throughout: the
    // counter and `stop` publish no data; residuals travel through the
    // channels, which synchronise.
    let next = AtomicUsize::new(0);
    let claim = |frame: usize| {
        next.compare_exchange(frame, frame + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    };
    let stop = AtomicBool::new(false);
    let frames = gop.frame_count();
    // Helpers' frames by frame number modulo `window`: the claimed,
    // unreconstructed frames are fewer than `window` and consecutive, so
    // no two share a slot.
    let mut parked: Vec<Option<(FrameResiduals, Result<()>)>> =
        (0..window).map(|_| None).collect();
    let mut helper_panic = None;
    let halt = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                let done_tx = done_tx.clone();
                let (free_rx, next, stop) = (&free_rx, &next, &stop);
                s.spawn(move || helper(header, gop, free_rx, next, stop, done_tx))
            })
            .collect();
        drop(done_tx);
        // Owned here, so every exit — a panic too — drops it, and a
        // helper waiting for a buffer wakes and leaves.
        let free_tx = free_tx;
        let halt = (|| -> std::result::Result<(), Halt> {
            // The frame whose residuals `own` holds, claimed while the
            // caller would otherwise have waited, and how stage A ended.
            let mut stolen: Option<(usize, Result<()>)> = None;
            let mut lookahead = gop.frames().enumerate();
            for (k, ef) in gop.frames().enumerate() {
                if let Some((_, read)) = stolen.take_if(|(j, _)| *j == k) {
                    rebuild.frame(ef.frame_type(), own, read, false)?;
                    continue;
                }
                if stolen.is_none() && claim(k) {
                    let read = read_frame(header, &ef, own);
                    rebuild.frame(ef.frame_type(), own, read, false)?;
                    continue;
                }
                // A helper claimed frame k.
                let slot = k % window;
                while parked[slot].is_none() {
                    let msg = match done_rx.try_recv() {
                        Ok(msg) => msg,
                        Err(TryRecvError::Empty) => {
                            // Nothing handed over yet: compute the next
                            // unclaimed frame's residuals rather than wait.
                            let j = next.load(Ordering::Relaxed);
                            let idle = stolen.is_none() && !stop.load(Ordering::Relaxed);
                            if idle && j < frames && claim(j) {
                                let read = match lookahead.find(|&(i, _)| i == j) {
                                    Some((_, ef)) => read_frame(header, &ef, own),
                                    None => Err(CodecError::Corrupt("frame missing from GOP")),
                                };
                                if read.is_err() {
                                    stop.store(true, Ordering::Relaxed);
                                }
                                stolen = Some((j, read));
                                continue;
                            }
                            done_rx.recv().map_err(|_| helper_vanished())?
                        }
                        Err(TryRecvError::Disconnected) => return Err(helper_vanished()),
                    };
                    match msg {
                        Ahead::Ready { frame, res, read } => {
                            parked[frame % window] = Some((res, read));
                        }
                        Ahead::Panicked(p) => return Err(Halt::Panic(p)),
                    }
                }
                if let Some((res, read)) = parked[slot].take() {
                    let rebuilt = rebuild.frame(ef.frame_type(), &res, read, true);
                    // Never blocks: the buffer came out of this channel.
                    let _ = free_tx.send(res);
                    rebuilt?;
                }
            }
            Ok(())
        })()
        .err();
        stop.store(true, Ordering::Relaxed);
        drop(free_tx);
        for handle in handles {
            // A helper hands back the buffer it holds, freed here.
            if let Err(p) = handle.join() {
                helper_panic = Some(p);
            }
        }
        halt
    });
    // The rest of the lent buffers are freed as the channels and
    // `parked` drop, on this thread too.
    if let Some(p) = helper_panic {
        resume_unwind(p);
    }
    match halt {
        None => Ok(()),
        Some(Halt::Codec(e)) => Err(e),
        Some(Halt::Panic(p)) => resume_unwind(p),
    }
}

/// Every helper is gone and the frame the caller waits for never came:
/// only a helper that died outside its frame's stage A leaves this.
fn helper_vanished() -> Halt {
    Halt::Panic(Box::new("decode helper left a claimed frame unread"))
}

/// One helper: take a free buffer, claim the next frame, run its stage
/// A, hand it over; until the frames run out, the caller stops, or the
/// buffer channel closes. Returns the buffer it holds when it leaves.
fn helper(
    header: &SequenceHeader,
    gop: &EncodedGop,
    free: &Mutex<Receiver<FrameResiduals>>,
    next: &AtomicUsize,
    stop: &AtomicBool,
    done: SyncSender<Ahead>,
) -> Option<FrameResiduals> {
    let mut frames = gop.frames().enumerate();
    loop {
        let mut res = free.lock().ok()?.recv().ok()?;
        if stop.load(Ordering::Relaxed) {
            return Some(res);
        }
        // Claims only grow, so this helper's frames come in order and
        // one pass over the GOP finds them all.
        let claim = next.fetch_add(1, Ordering::Relaxed);
        let Some((_, ef)) = frames.find(|&(i, _)| i == claim) else {
            return Some(res);
        };
        match catch_unwind(AssertUnwindSafe(|| read_frame(header, &ef, &mut res))) {
            Ok(read) => {
                // Frames after a failing one are never reconstructed.
                if read.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                let _ = done.send(Ahead::Ready { frame: claim, res, read });
            }
            Err(p) => {
                let _ = done.send(Ahead::Panicked(p));
                return None;
            }
        }
    }
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

    /// One tile payload decoded into a fresh `w × h` frame.
    fn decode_payload(
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
        let dec = decode_payload(&payload, 64, 32, FrameType::Key, None).unwrap();
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
        let dec = decode_payload(&p_payload, 64, 32, FrameType::Predicted, Some(&key_recon))
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
        let tile_header = SequenceHeader {
            width: 32,
            grid: TileGrid::SINGLE,
            ..stream.header
        };
        let tile_gop = stream.gops[0].extract_tile(1).unwrap();
        let tile_frames = Decoder::new().decode_gop(&tile_header, &tile_gop).unwrap();
        assert_eq!(tile_frames.len(), full.len());
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
        let r = decode_payload(cut, 32, 32, FrameType::Key, None);
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
        let r = decode_payload(&payload, 32, 32, FrameType::Predicted, Some(&reference));
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
