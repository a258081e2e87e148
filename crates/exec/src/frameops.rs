//! Decoded-domain physical operators.
//!
//! Each operator here is a function of one chunk, or of one time
//! step's chunks; the executor drives it over a pipeline (see
//! [`crate::parallel::par_flat_map_chunks_ctx`]). UNION, which merges
//! several inputs, is the one that takes streams. The device is a cost
//! label: the GPU encoder uses a hardware-style narrow motion search,
//! and nothing else here looks at it — every device decodes every GOP,
//! tiled or not, through the one codec path. DECODE spends the thread
//! `budget` the driver hands it on one chunk's frames; MAP transforms
//! its chunk's frames on the driving thread.

use crate::chunk::{is_omega, Chunk, ChunkPayload, TimeGrouped};
use crate::device::{transfer_frames, Device};
use crate::metrics::{counters, Metrics};
use crate::parallel::Parallelism;
use crate::query_ctx::QueryCtx;
use crate::sharedscan::SharedDecode;
use crate::{ChunkStream, ExecError, Result};
use lightdb_storage::faults::{fail_point, sites};
use lightdb_codec::encoder::encode_gop_frame;
use lightdb_codec::gop::{EncodedFrame, EncodedGop, FrameType};
use lightdb_codec::scratch::{DecoderScratch, EncoderScratch};
use lightdb_codec::{CodecKind, Decoder, SequenceHeader, TileGrid};
use lightdb_core::algebra::{MergeFunction, VolumePredicate};
use lightdb_core::udf::{BuiltinInterp, InterpUdf, MapFunction, MapUdf, PointMapUdf};
use lightdb_frame::kernels::{self, KeyMask};
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::{Dimension, Interval, Volume};

/// Narrow motion-search range used by the simulated hardware (GPU)
/// encoder, mirroring NVENC's speed-over-density trade-off.
pub const GPU_SEARCH_RANGE: i32 = 4;

thread_local! {
    // Per-worker codec scratch arenas. The operator driver fans chunks
    // out across worker threads, so thread-locals give each worker its
    // own reusable buffers with no contention; scratch contents never
    // influence output bytes, so results stay identical at any thread
    // count.
    static ENC_SCRATCH: std::cell::RefCell<EncoderScratch> =
        std::cell::RefCell::new(EncoderScratch::new());
    static DEC_SCRATCH: std::cell::RefCell<DecoderScratch> =
        std::cell::RefCell::new(DecoderScratch::new());
}

// ------------------------------------------------------------------ decode

/// `DECODE` of one chunk into frames labelled `device` (a no-op when
/// already decoded), on up to `budget.threads()` threads; the bytes
/// match a serial decode, whatever the device.
///
/// When `ctx` reports its deadline at risk, the decode switches to the
/// cheap prediction-only path (one frame's decode per GOP) so the query
/// lands inside its budget instead of missing it. With a shared
/// decoded-GOP cache, concurrent queries decoding the same encoded
/// bytes coalesce into one decode and trailing queries hit the cache.
/// The `EXEC_DECODE_GOP` failpoint fires *before* any cache lookup, so
/// fault-injection observes every would-be decode whether or not it is
/// shared; and degraded decodes bypass the cache entirely — their
/// output reflects this query's time pressure, not the bytes.
pub fn decode_chunk(
    c: Chunk,
    device: Device,
    metrics: &Metrics,
    ctx: &QueryCtx,
    shared: Option<&SharedDecode>,
    budget: Parallelism,
) -> Result<Chunk> {
    fail_point(sites::EXEC_DECODE_GOP)?;
    if ctx.deadline_at_risk() {
        decode_one_degraded(c, device, metrics)
    } else if let Some(shared) = shared {
        shared.decode(c, device, metrics, ctx, budget)
    } else {
        decode_one(c, device, metrics, budget)
    }
}

/// Decodes one chunk (no-op when already decoded) on up to
/// `budget.threads()` threads, adding the decoder's counts for it to
/// `metrics` (the `decode.*` names).
pub(crate) fn decode_one(
    c: Chunk,
    device: Device,
    metrics: &Metrics,
    budget: Parallelism,
) -> Result<Chunk> {
    match c.payload {
        ChunkPayload::Decoded { .. } => Ok(c), // already decoded
        ChunkPayload::Encoded { header, ref gop } => {
            let frames = decode_frames(&header, gop, metrics, budget)?;
            Ok(Chunk {
                payload: ChunkPayload::Decoded { frames, device },
                ..c
            })
        }
    }
}

/// The frames of one encoded GOP: [`decode_one`]'s work, on borrowed
/// input (the shared-decode cache's leader decodes through this and
/// keeps its chunk). `DECODE`'s time is the caller's: helper threads
/// computing later frames' residuals run inside it.
pub(crate) fn decode_frames(
    header: &SequenceHeader,
    gop: &EncodedGop,
    metrics: &Metrics,
    budget: Parallelism,
) -> Result<Vec<Frame>> {
    metrics.time("DECODE", || {
        DEC_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            let frames = Decoder::new().decode_gop_scratch(header, gop, scratch, budget.threads());
            let work = std::mem::take(&mut scratch.work);
            let uncoded = work.uncoded_inter + work.uncoded_intra;
            metrics.add_all([
                (counters::DECODE_BLOCKS, work.blocks),
                (counters::DECODE_BLOCKS_UNCODED, uncoded),
                (counters::DECODE_FRAMES_AHEAD, work.frames_ahead),
            ]);
            Ok(frames?)
        })
    })
}

/// Prediction-only decode of one chunk: the keyframe is reconstructed
/// in full, predicted frames hold the previous picture. Roughly one
/// frame's decode cost per GOP; used when a query's deadline is at
/// risk. Each degraded GOP is counted in
/// [`counters::DEGRADED_GOPS`].
fn decode_one_degraded(c: Chunk, device: Device, metrics: &Metrics) -> Result<Chunk> {
    match c.payload {
        ChunkPayload::Decoded { .. } => Ok(c), // already decoded
        ChunkPayload::Encoded { header, ref gop } => {
            let frames = metrics.time("DECODE", || -> Result<Vec<Frame>> {
                Ok(Decoder::new().decode_gop_degraded(&header, gop)?)
            })?;
            metrics.bump(counters::DEGRADED_GOPS);
            Ok(Chunk {
                payload: ChunkPayload::Decoded { frames, device },
                ..c
            })
        }
    }
}

// ------------------------------------------------------------------ encode

/// `ENCODE` of one chunk (a no-op when already encoded). Each chunk is
/// one GOP (and, post-PARTITION, one tile), so chunks encode
/// independently, with byte-identical output on any thread. The GPU
/// variant uses the narrow hardware-style motion search.
pub fn encode_chunk(
    c: Chunk,
    device: Device,
    codec: CodecKind,
    qp: u8,
    metrics: &Metrics,
) -> Result<Chunk> {
    match c.payload {
        ChunkPayload::Encoded { .. } => Ok(c), // already encoded
        ChunkPayload::Decoded { ref frames, .. } => {
            metrics.time("ENCODE", || encode_one_gop(&c, frames, device, codec, qp, metrics))
        }
    }
}

/// Encodes one chunk's frames as a single GOP, adding the encoder's
/// work counters for it to `metrics` (the `encode.*` names).
fn encode_one_gop(
    c: &Chunk,
    frames: &[Frame],
    device: Device,
    codec: CodecKind,
    qp: u8,
    metrics: &Metrics,
) -> Result<Chunk> {
    let first = frames
        .first()
        .ok_or_else(|| ExecError::Other("encode of empty chunk".into()))?;
    let (w, h) = (first.width(), first.height());
    TileGrid::SINGLE.validate(w, h)?;
    let search = if device == Device::Gpu {
        GPU_SEARCH_RANGE
    } else {
        codec.search_range()
    };
    let mut gop_frames = Vec::with_capacity(frames.len());
    let work = ENC_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for (i, f) in frames.iter().enumerate() {
            let ftype = if i == 0 {
                FrameType::Key
            } else {
                FrameType::Predicted
            };
            let payload = encode_gop_frame(f, i == 0, qp, codec, search, scratch);
            gop_frames.push(EncodedFrame {
                frame_type: ftype,
                tiles: vec![payload],
            });
        }
        std::mem::take(&mut scratch.work)
    });
    metrics.add_all([
        (counters::ENCODE_BLOCKS, work.blocks),
        (counters::ENCODE_BLOCKS_SAD_GATED, work.blocks_sad_gated),
        (counters::ENCODE_BLOCKS_ZERO_QUANT, work.blocks_zero_quant),
        (counters::ENCODE_MV_CANDIDATES, work.mv_candidates),
        (counters::ENCODE_MV_ELIMINATED, work.mv_eliminated),
        (counters::ENCODE_ZERO_SAD_EXITS, work.zero_sad_exits),
    ]);
    let header = SequenceHeader {
        codec,
        width: w,
        height: h,
        fps: c.info.fps,
        gop_length: frames.len().max(1),
        grid: TileGrid::SINGLE,
    };
    Ok(Chunk {
        payload: ChunkPayload::Encoded {
            header,
            gop: EncodedGop::from_frames(&gop_frames)?,
        },
        ..c.clone()
    })
}

// ------------------------------------------------------------------ transfer

/// `TRANSFER` of one chunk: deep-copies decoded frames onto `to`.
pub fn transfer_chunk(mut c: Chunk, to: Device, metrics: &Metrics) -> Chunk {
    if let ChunkPayload::Decoded { frames, device } = &mut c.payload {
        if *device != to {
            *frames = metrics.time("TRANSFER", || transfer_frames(frames));
            *device = to;
        }
    }
    c
}

// ------------------------------------------------------------------ select

/// `SELECT` of one decoded chunk: temporal trim, angular crop, and
/// spatial part filtering (including light-slab uv sampling); `None`
/// when the chunk holds nothing selected.
pub fn select_chunk(
    c: Chunk,
    predicate: &VolumePredicate,
    metrics: &Metrics,
) -> Result<Option<Chunk>> {
    metrics.time("SELECT", || select_one(c, predicate))
}

fn select_one(mut c: Chunk, predicate: &VolumePredicate) -> Result<Option<Chunk>> {
    // Slab spatial sampling: a point selection on x/y picks uv samples.
    if let Some(slab) = c.info.slab {
        if let (Some(xi), yi) = (predicate.get(Dimension::X), predicate.get(Dimension::Y)) {
            if xi.is_point() {
                return slab_point_select(
                    c,
                    slab,
                    xi.lo(),
                    yi.map(|i| i.lo()).unwrap_or(0.0),
                    predicate,
                );
            }
        }
    }
    let restricted = match predicate.apply(&c.volume) {
        None => return Ok(None),
        Some(v) => v,
    };
    if restricted == c.volume {
        return Ok(Some(c));
    }
    let (th, ph, t0) = (c.volume.theta(), c.volume.phi(), c.volume.t().lo());
    let fps = c.info.fps as f64;
    let frames = c.frames_mut("frame-level SELECT")?;
    // Temporal trim at frame granularity, keeping at least one frame of
    // a chunk the selection overlaps.
    let lo_f = (((restricted.t().lo() - t0) * fps).round() as usize).min(frames.len());
    let hi_f = (((restricted.t().hi() - t0) * fps).round() as usize).clamp(lo_f, frames.len());
    frames.truncate(hi_f.max(lo_f + 1));
    frames.drain(..lo_f);
    let Some(first) = frames.first() else {
        return Ok(None);
    };
    // Angular crop (equirectangular): θ→x, φ→y.
    let (w, h) = (first.width(), first.height());
    let fx0 = (restricted.theta().lo() - th.lo()) / th.length().max(1e-12);
    let fx1 = (restricted.theta().hi() - th.lo()) / th.length().max(1e-12);
    let fy0 = (restricted.phi().lo() - ph.lo()) / ph.length().max(1e-12);
    let fy1 = (restricted.phi().hi() - ph.lo()) / ph.length().max(1e-12);
    let mut x0 = ((fx0 * w as f64) as usize) & !1;
    let mut x1 = (((fx1 * w as f64).ceil() as usize).min(w) + 1) & !1;
    let mut y0 = ((fy0 * h as f64) as usize) & !1;
    let mut y1 = (((fy1 * h as f64).ceil() as usize).min(h) + 1) & !1;
    x1 = x1.min(w);
    y1 = y1.min(h);
    if x1 <= x0 {
        x0 = 0;
        x1 = 2.min(w);
    }
    if y1 <= y0 {
        y0 = 0;
        y1 = 2.min(h);
    }
    if (x0, x1, y0, y1) != (0, w, 0, h) {
        for f in frames.iter_mut() {
            *f = f.crop(x0, y0, x1 - x0, y1 - y0);
        }
    }
    let kept = frames.len();
    // Exact pixel-aligned angular coverage.
    let theta_iv = Interval::new(
        th.lo() + th.length() * x0 as f64 / w as f64,
        th.lo() + th.length() * x1 as f64 / w as f64,
    );
    let phi_iv = Interval::new(
        ph.lo() + ph.length() * y0 as f64 / h as f64,
        ph.lo() + ph.length() * y1 as f64 / h as f64,
    );
    let t_iv = Interval::new(t0 + lo_f as f64 / fps, t0 + (lo_f + kept) as f64 / fps);
    c.volume = restricted
        .with(Dimension::Theta, theta_iv)
        .with(Dimension::Phi, phi_iv)
        .with(Dimension::T, t_iv);
    Ok(Some(c))
}

/// Light-slab monoscopic point selection: pick the uv sample nearest
/// the requested position; the chunk's frames collapse to one.
fn slab_point_select(
    mut c: Chunk,
    slab: crate::chunk::SlabInfo,
    x: f64,
    y: f64,
    predicate: &VolumePredicate,
) -> Result<Option<Chunk>> {
    // Temporal constraint still applies at chunk granularity.
    if let Some(t) = predicate.get(Dimension::T) {
        if c.volume.t().intersect(&t).is_none() {
            return Ok(None);
        }
    }
    let idx = slab.nearest_sample(x, y);
    let frames = c.frames_mut("slab SELECT")?;
    if idx >= frames.len() {
        return Err(ExecError::Other(format!("slab sample {idx} missing")));
    }
    frames.swap(0, idx);
    frames.truncate(1);
    c.volume = c
        .volume
        .with(Dimension::X, Interval::point(x))
        .with(Dimension::Y, Interval::point(y));
    c.info.slab = None; // the result is a single view, not a slab
    c.info.position = lightdb_geom::Point3::new(x, y, c.info.position.z);
    Ok(Some(c))
}

// ------------------------------------------------------------------ map

/// `MAP` of one chunk: applies the UDF to every frame on the calling
/// thread, so that each output is allocated, and its input freed, on
/// the thread that drives the chunk; MAP is parallel across chunks,
/// through the driver. A point UDF sees each pixel's 6-D coordinates.
pub fn map_chunk(mut c: Chunk, f: &MapFunction, metrics: &Metrics) -> Result<Chunk> {
    let udf: &dyn MapUdf = match f {
        MapFunction::Builtin(b) => b,
        MapFunction::Custom(u) => u.as_ref(),
        MapFunction::Point(udf) => {
            return metrics.time("MAP", || apply_point_map(c, udf.as_ref()))
        }
    };
    fail_point(sites::EXEC_CHUNK_MAP)?;
    let frames = c.frames_mut("MAP")?;
    metrics.time("MAP", || frames.iter_mut().for_each(|fr| *fr = udf.apply(fr)));
    Ok(c)
}

/// Evaluates a point-granular UDF over a chunk, supplying each
/// pixel's 6-D coordinates through the equirectangular mapping.
fn apply_point_map(mut c: Chunk, udf: &dyn PointMapUdf) -> Result<Chunk> {
    fail_point(sites::EXEC_CHUNK_MAP)?;
    let (th, ph, t0) = (c.volume.theta(), c.volume.phi(), c.volume.t().lo());
    let fps = c.info.fps as f64;
    let pos = c.info.position;
    // Each output pixel reads only its own input pixel, so the frames
    // transform in place.
    for (fi, fr) in c.frames_mut("point MAP")?.iter_mut().enumerate() {
        let (w, h) = (fr.width(), fr.height());
        let t = t0 + fi as f64 / fps;
        for y in 0..h {
            let phi = ph.lo() + ph.length() * (y as f64 + 0.5) / h as f64;
            for x in 0..w {
                let theta = th.lo() + th.length() * (x as f64 + 0.5) / w as f64;
                let p = lightdb_geom::Point6::new(pos.x, pos.y, pos.z, t, theta, phi);
                let v = udf.eval(&p, fr.get(x, y));
                fr.set(x, y, v);
            }
        }
    }
    Ok(c)
}

// ------------------------------------------------------------------ discretize

/// `DISCRETIZE` of one chunk: angular steps resample resolution; a
/// temporal step decimates frames. Every step must be finite and
/// positive: the steps arrive from queries and stored view subgraphs,
/// and a zero θ step would ask for frames of infinite width.
pub fn discretize_chunk(
    c: Chunk,
    steps: &[(Dimension, f64)],
    metrics: &Metrics,
) -> Result<Chunk> {
    metrics.time("DISCRETIZE", || discretize_one(c, steps))
}

fn discretize_one(mut c: Chunk, steps: &[(Dimension, f64)]) -> Result<Chunk> {
    if let Some((dim, step)) = steps.iter().find(|(_, s)| !(s.is_finite() && *s > 0.0)) {
        return Err(ExecError::Domain(format!(
            "DISCRETIZE step {step} along {dim} is not finite and positive"
        )));
    }
    let (theta, phi) = (c.volume.theta().length(), c.volume.phi().length());
    let mut fps = c.info.fps;
    let frames = c.frames_mut("DISCRETIZE")?;
    let mut target_w: Option<usize> = None;
    let mut target_h: Option<usize> = None;
    for (dim, step) in steps {
        match dim {
            Dimension::Theta => {
                let n = (theta / step).round().max(2.0) as usize;
                target_w = Some(n & !1);
            }
            Dimension::Phi => {
                let n = (phi / step).round().max(2.0) as usize;
                target_h = Some(n & !1);
            }
            Dimension::T => {
                let keep_every = (step * fps as f64).round().max(1.0) as usize;
                *frames = std::mem::take(frames).into_iter().step_by(keep_every).collect();
                fps = (fps as usize / keep_every).max(1) as u32;
            }
            _ => {
                return Err(ExecError::Domain(format!(
                    "DISCRETIZE along {dim} is not supported for video-backed TLFs"
                )))
            }
        }
    }
    if target_w.is_some() || target_h.is_some() {
        // A chunk of no frames has nothing to resample.
        if let Some(first) = frames.first() {
            let (w0, h0) = (first.width(), first.height());
            let w = target_w.unwrap_or(w0).max(2);
            let h = target_h.unwrap_or(h0).max(2);
            if (w, h) != (w0, h0) {
                for f in frames.iter_mut() {
                    *f = f.resize(w, h);
                }
            }
        }
    }
    c.info.fps = fps;
    Ok(c)
}

// ------------------------------------------------------------------ partition / flatten

/// `PARTITION` of one chunk: angular specs crop it into a tile grid
/// (tiles become parts); a temporal spec must align with the chunk
/// (GOP) granularity, where it is a logical no-op. Encoded chunks pass
/// through when only temporally partitioned. Every step must be finite
/// and positive, as for DISCRETIZE.
pub fn partition_chunk(
    c: Chunk,
    spec: &[(Dimension, f64)],
    metrics: &Metrics,
) -> Result<Vec<Chunk>> {
    metrics.time("PARTITION", || partition_one(c, spec))
}

fn partition_one(mut c: Chunk, spec: &[(Dimension, f64)]) -> Result<Vec<Chunk>> {
    if let Some((dim, delta)) = spec.iter().find(|(_, d)| !(d.is_finite() && *d > 0.0)) {
        return Err(ExecError::Domain(format!(
            "PARTITION step {delta} along {dim} is not finite and positive"
        )));
    }
    let mut cols = 1usize;
    let mut rows = 1usize;
    for (dim, delta) in spec {
        match dim {
            Dimension::T => {
                let d = c.volume.t().length();
                if *delta + 1e-9 < d {
                    return Err(ExecError::Domain(format!(
                        "temporal partition Δt={delta} finer than chunk duration {d}; \
                         re-encode with a shorter GOP"
                    )));
                }
                // Δt ≥ chunk duration: each chunk already is a partition.
            }
            Dimension::Theta => {
                cols = (c.volume.theta().length() / delta).round().max(1.0) as usize;
            }
            Dimension::Phi => {
                rows = (c.volume.phi().length() / delta).round().max(1.0) as usize;
            }
            _ => {
                return Err(ExecError::Domain(format!(
                    "PARTITION along {dim} is not supported for single-point TLFs"
                )))
            }
        }
    }
    if cols == 1 && rows == 1 {
        return Ok(vec![c]);
    }
    let frames = std::mem::take(c.frames_mut("angular PARTITION")?);
    // A chunk of no frames splits into tiles of no frames.
    let (w, h) = frames.first().map_or((0, 0), |f| (f.width(), f.height()));
    if w % cols != 0
        || h % rows != 0
        || !(w / cols).is_multiple_of(2)
        || !(h / rows).is_multiple_of(2)
    {
        return Err(ExecError::Domain(format!(
            "frame {w}×{h} does not partition into {cols}×{rows} even tiles"
        )));
    }
    let (tw, thh) = (w / cols, h / rows);
    let grid = TileGrid::new(cols, rows);
    let device = c.device();
    let mut out = Vec::with_capacity(cols * rows);
    for tile in 0..cols * rows {
        let (col, row) = (tile % cols, tile / cols);
        let tile_frames: Vec<Frame> = frames
            .iter()
            .map(|f| f.crop(col * tw, row * thh, tw, thh))
            .collect();
        out.push(Chunk {
            t_index: c.t_index,
            part: c.part * cols * rows + tile,
            volume: crate::hops::tile_volume(&c.volume, &grid, tile),
            info: c.info,
            payload: ChunkPayload::Decoded {
                frames: tile_frames,
                device,
            },
        });
    }
    Ok(out)
}

/// `FLATTEN` of one time step: composites its parts back into one part.
pub fn flatten_group(group: Vec<Chunk>, metrics: &Metrics) -> Result<Chunk> {
    metrics
        .time("FLATTEN", || composite_group(group, &MergeFunction::Last))
        .map(|mut parts| {
            debug_assert!(!parts.is_empty());
            parts.swap_remove(0)
        })
}

// ------------------------------------------------------------------ union

/// `UNION` over decoded chunks: a k-way merge of the inputs' time
/// steps; co-temporal parts at the same spatial point are composited
/// with the merge function (the null token ω marks transparent
/// pixels).
pub fn union_frames(
    inputs: Vec<ChunkStream>,
    merge: MergeFunction,
    metrics: Metrics,
) -> ChunkStream {
    let mut grouped: Vec<std::iter::Peekable<TimeGrouped>> = inputs
        .into_iter()
        .map(|s| TimeGrouped::new(s).peekable())
        .collect();
    let mut outbox: Vec<Chunk> = Vec::new();
    Box::new(std::iter::from_fn(move || loop {
        if let Some(c) = outbox.pop() {
            return Some(Ok(c));
        }
        // Find the smallest t_index among peeked groups.
        let mut min_t: Option<usize> = None;
        for g in grouped.iter_mut() {
            match g.peek() {
                None => {}
                Some(Err(_)) => {
                    // Surface the error.
                    return g.next().map(|r| r.map(|_| unreachable!()));
                }
                Some(Ok(group)) => {
                    let t = group[0].t_index;
                    min_t = Some(min_t.map_or(t, |m: usize| m.min(t)));
                }
            }
        }
        let t = min_t?;
        let mut merged: Vec<Chunk> = Vec::new();
        for g in grouped.iter_mut() {
            if matches!(g.peek(), Some(Ok(group)) if group[0].t_index == t) {
                match g.next() {
                    Some(Ok(group)) => merged.extend(group),
                    Some(Err(e)) => return Some(Err(e)),
                    None => {}
                }
            }
        }
        match metrics.time("UNION", || composite_group(merged, &merge)) {
            Err(e) => return Some(Err(e)),
            Ok(mut parts) => {
                // Re-number parts within the time step.
                for (i, p) in parts.iter_mut().enumerate() {
                    p.part = i;
                }
                parts.reverse();
                outbox = parts;
            }
        }
    }))
}

/// Composites a time step's chunks: parts at (approximately) the same
/// spatial position merge into the one with the widest angular
/// extent; distinct positions stay separate parts.
pub fn composite_group(group: Vec<Chunk>, merge: &MergeFunction) -> Result<Vec<Chunk>> {
    if group.is_empty() {
        return Err(ExecError::Align("empty union group".into()));
    }
    // Bucket by spatial position.
    let mut buckets: Vec<Vec<Chunk>> = Vec::new();
    'outer: for c in group {
        for b in buckets.iter_mut() {
            if b[0].info.position.distance(&c.info.position) < 1e-6 {
                b.push(c);
                continue 'outer;
            }
        }
        buckets.push(vec![c]);
    }
    let mut out = Vec::with_capacity(buckets.len());
    for mut bucket in buckets {
        if bucket.len() == 1 {
            if let Some(c) = bucket.pop() {
                out.push(c);
            }
            continue;
        }
        out.push(composite_bucket(bucket, merge)?);
    }
    Ok(out)
}

fn composite_bucket(mut bucket: Vec<Chunk>, merge: &MergeFunction) -> Result<Chunk> {
    // The densest input (pixels per radian) sets the canvas
    // resolution; the canvas covers the hull of all inputs' angular
    // extents, and inputs are blitted *in order* so merge-function
    // semantics (e.g. LAST) follow union input order.
    let hull = bucket
        .iter()
        .map(|c| c.volume)
        .reduce(|a, b| a.hull(&b))
        .ok_or_else(|| ExecError::Align("union bucket is empty".into()))?;
    let mut density_theta: f64 = 0.0;
    let mut density_phi: f64 = 0.0;
    let mut frame_count = 0usize;
    let mut device = Device::Cpu;
    for c in &mut bucket {
        device = c.device();
        let (theta, phi) = (c.volume.theta().length(), c.volume.phi().length());
        let frames = c.frames_mut("UNION compositing")?;
        if let Some(f) = frames.first() {
            density_theta = density_theta.max(f.width() as f64 / theta.max(1e-12));
            density_phi = density_phi.max(f.height() as f64 / phi.max(1e-12));
        }
        frame_count = frame_count.max(frames.len());
    }
    if frame_count == 0 {
        return Err(ExecError::Align("union of empty chunks".into()));
    }
    let canvas_w = (((density_theta * hull.theta().length()).round() as usize).max(2) + 1) & !1;
    let canvas_h = (((density_phi * hull.phi().length()).round() as usize).max(2) + 1) & !1;
    let omega_canvas = || vec![Frame::filled(canvas_w, canvas_h, crate::chunk::OMEGA); frame_count];
    // Empty until the first input lands: the canvas is still all ω.
    let mut frames: Vec<Frame> = Vec::new();
    for c in &mut bucket {
        let Some((x0, y0, tw, th)) = overlay_rect(canvas_w, canvas_h, &hull, &c.volume) else {
            continue;
        };
        let ov = c.frames_mut("UNION compositing")?;
        if ov.is_empty() {
            continue;
        }
        let on_omega = frames.is_empty();
        if on_omega {
            let fits = |f: &Frame| (f.width(), f.height()) == (canvas_w, canvas_h);
            if (tw, th) == (canvas_w, canvas_h) && ov.iter().all(fits) {
                // Every pixel lands on ω, which yields to it under any
                // merge: the first input *is* the canvas (its last
                // frame broadcast), with no fill and no copy.
                frames = std::mem::take(ov);
                if let Some(last) = frames.last().cloned() {
                    frames.resize(frame_count, last);
                }
                continue;
            }
            frames = omega_canvas();
        }
        blit_overlay(&mut frames, (x0, y0, tw, th), ov, merge, on_omega);
    }
    if frames.is_empty() {
        frames = omega_canvas();
    }
    let Some(first) = bucket.into_iter().next() else {
        return Err(ExecError::Align("union bucket is empty".into()));
    };
    Ok(Chunk {
        volume: hull,
        payload: ChunkPayload::Decoded { frames, device },
        ..first
    })
}

/// The canvas pixel rect `(x0, y0, w, h)` an input at `ov_vol` covers
/// on a `w × h` canvas spanning `base_vol` (2-aligned, clipped), or
/// `None` when it covers less than one chroma block.
fn overlay_rect(
    w: usize,
    h: usize,
    base_vol: &Volume,
    ov_vol: &Volume,
) -> Option<(usize, usize, usize, usize)> {
    let bth = base_vol.theta();
    let bph = base_vol.phi();
    let fx0 = ((ov_vol.theta().lo() - bth.lo()) / bth.length().max(1e-12)).clamp(0.0, 1.0);
    let fx1 = ((ov_vol.theta().hi() - bth.lo()) / bth.length().max(1e-12)).clamp(0.0, 1.0);
    let fy0 = ((ov_vol.phi().lo() - bph.lo()) / bph.length().max(1e-12)).clamp(0.0, 1.0);
    let fy1 = ((ov_vol.phi().hi() - bph.lo()) / bph.length().max(1e-12)).clamp(0.0, 1.0);
    let x0 = ((fx0 * w as f64) as usize) & !1;
    let y0 = ((fy0 * h as f64) as usize) & !1;
    let x1 = ((((fx1 * w as f64).ceil() as usize).min(w)) + 1) & !1;
    let y1 = ((((fy1 * h as f64).ceil() as usize).min(h)) + 1) & !1;
    let (x1, y1) = (x1.min(w), y1.min(h));
    (x1 > x0 + 1 && y1 > y0 + 1).then(|| (x0, y0, x1 - x0, y1 - y0))
}

/// Blits overlay frames into base frames at pixel rect
/// `(x0, y0, tw, th)`, resizing to it, skipping ω pixels, and resolving
/// overlaps with the merge function. Overlay frame `i` pairs with base
/// frame `i` (the last overlay frame broadcasts when the overlay is
/// shorter — static watermarks). `on_omega` says the base is still all
/// ω, where — as under `LAST` — what is there cannot matter and the
/// blit is a keyed copy through the source's ω mask. An overlay frame
/// reuses the resize and mask of the one before it when it has the
/// same index, or — where there is a resize or a mask with samples to
/// reuse — equal samples.
fn blit_overlay(
    base: &mut [Frame],
    (x0, y0, tw, th): (usize, usize, usize, usize),
    overlay: &[Frame],
    merge: &MergeFunction,
    on_omega: bool,
) {
    let keyed = on_omega || matches!(merge, MergeFunction::Last);
    // The overlay frame `scaled` and `mask` were built from.
    let mut built: Option<usize> = None;
    let (mut scaled, mut mask) = (None, None);
    for (i, bf) in base.iter_mut().enumerate() {
        let j = i.min(overlay.len() - 1);
        let ov = &overlay[j];
        // A mask of row copies costs less to rebuild than a comparison.
        let reusable = scaled.is_some() || mask.as_ref().is_some_and(|m: &KeyMask| !m.is_copy());
        if !matches!(built, Some(k) if k == j || (reusable && overlay[k] == *ov)) {
            (built, scaled, mask) = (Some(j), None, None);
        }
        let src = if ov.width() == tw && ov.height() == th {
            ov
        } else {
            scaled.get_or_insert_with(|| ov.resize(tw, th))
        };
        if keyed {
            let mask = mask.get_or_insert_with(|| KeyMask::new(src, crate::chunk::OMEGA));
            kernels::blit_masked(bf, src, x0, y0, mask);
        } else {
            // A null ray leaves the base alone.
            kernels::merge_blocks(bf, src, x0, y0, |d, s| {
                (!is_omega(s)).then(|| merge_pixels(merge, d, s))
            });
        }
    }
}

fn merge_pixels(merge: &MergeFunction, first: Yuv, second: Yuv) -> Yuv {
    if is_omega(first) {
        return second;
    }
    match merge {
        MergeFunction::Last => second,
        MergeFunction::First => first,
        MergeFunction::Mean => Yuv::new(
            ((first.y as u16 + second.y as u16) / 2) as u8,
            ((first.u as u16 + second.u as u16) / 2) as u8,
            ((first.v as u16 + second.v as u16) / 2) as u8,
        ),
        MergeFunction::Custom(u) => u.merge(first, second),
    }
}

// ------------------------------------------------------------------ interpolate

/// Built-in `INTERPOLATE` of one chunk: fills ω pixels from their
/// neighbours.
pub fn interpolate_chunk(mut c: Chunk, kind: BuiltinInterp, metrics: &Metrics) -> Result<Chunk> {
    let frames = c.frames_mut("INTERPOLATE")?;
    let filled =
        metrics.time("INTERPOLATE", || frames.iter().map(|fr| fill_nulls(fr, kind)).collect());
    *frames = filled;
    Ok(c)
}

/// UDF `INTERPOLATE` of one time step: synthesises one part from the
/// step's co-temporal parts (e.g. a depth map from a stereo pair).
pub fn synthesize_group(
    mut group: Vec<Chunk>,
    udf: &dyn InterpUdf,
    device: Device,
    metrics: &Metrics,
) -> Result<Chunk> {
    if group.len() < 2 {
        return Err(ExecError::Align(format!(
            "{} synthesis needs ≥2 co-temporal parts, got {}",
            udf.name(),
            group.len()
        )));
    }
    let op: &'static str = if device == Device::Fpga {
        "INTERPOLATE[FPGA]"
    } else {
        "INTERPOLATE"
    };
    let frame_sets = group
        .iter_mut()
        .map(|c| c.frames_mut("INTERPOLATE").map(|frames| &*frames))
        .collect::<Result<Vec<&Vec<Frame>>>>()?;
    let n = frame_sets.iter().map(|f| f.len()).min().unwrap_or(0);
    let out: Vec<Frame> = metrics.time(op, || {
        (0..n)
            .map(|i| {
                let inputs: Vec<&Frame> = frame_sets.iter().map(|fs| &fs[i]).collect();
                udf.synthesize(&inputs)
            })
            .collect()
    });
    let volume = group
        .iter()
        .map(|c| c.volume)
        .reduce(|a, b| a.hull(&b))
        .ok_or_else(|| ExecError::Align("empty interpolation group".into()))?;
    Ok(Chunk {
        t_index: group[0].t_index,
        part: 0,
        volume,
        info: group[0].info,
        payload: ChunkPayload::Decoded {
            frames: out,
            device: group[0].device(),
        },
    })
}

/// Fills ω pixels from the nearest non-ω pixel on the same row
/// (then column for rows that are entirely null).
fn fill_nulls(f: &Frame, kind: BuiltinInterp) -> Frame {
    let (w, h) = (f.width(), f.height());
    let mut out = f.clone();
    for y in 0..h {
        // Forward then backward scan over the row.
        let mut last: Option<Yuv> = None;
        let mut gaps: Vec<usize> = Vec::new();
        for x in 0..w {
            let c = f.get(x, y);
            if is_omega(c) {
                gaps.push(x);
            } else {
                if let Some(prev) = last {
                    for &gx in &gaps {
                        let v = match kind {
                            BuiltinInterp::NearestNeighbor => {
                                // nearer endpoint wins
                                let left_dist = gx - gaps[0];
                                let right_dist = gaps[gaps.len() - 1] - gx;
                                if left_dist <= right_dist {
                                    prev
                                } else {
                                    c
                                }
                            }
                            BuiltinInterp::Linear => {
                                let span = (gaps.len() + 1) as f32;
                                let t = (gx - gaps[0] + 1) as f32 / span;
                                lerp(prev, c, t)
                            }
                        };
                        out.set(gx, y, v);
                    }
                } else {
                    for &gx in &gaps {
                        out.set(gx, y, c);
                    }
                }
                gaps.clear();
                last = Some(c);
            }
        }
        if let Some(prev) = last {
            for &gx in &gaps {
                out.set(gx, y, prev);
            }
        }
    }
    out
}

fn lerp(a: Yuv, b: Yuv, t: f32) -> Yuv {
    let m = |x: u8, y: u8| (x as f32 * (1.0 - t) + y as f32 * t).round() as u8;
    Yuv::new(m(a.y, b.y), m(a.u, b.u), m(a.v, b.v))
}

// ------------------------------------------------------------------ translate / rotate

/// `TRANSLATE` of one chunk: shifts its spatiotemporal extent by
/// `(dx, dy, dz, dt)`.
pub fn translate_chunk(
    mut c: Chunk,
    (dx, dy, dz, dt): (f64, f64, f64, f64),
    metrics: &Metrics,
) -> Chunk {
    metrics.time("TRANSLATE", || {
        let dur = c.volume.t().length().max(1e-9);
        let steps = (dt / dur).round() as isize;
        c.t_index = (c.t_index as isize + steps).max(0) as usize;
        c.volume = c.volume.translate(dx, dy, dz, dt);
        c.info.position = c.info.position.translate(dx, dy, dz);
    });
    c
}

/// `ROTATE` of one chunk: rotates ray directions — an azimuthal pixel
/// roll plus a clamped polar shift on equirectangular frames.
pub fn rotate_chunk(mut c: Chunk, dtheta: f64, dphi: f64, metrics: &Metrics) -> Result<Chunk> {
    let frames = c.frames_mut("ROTATE")?;
    let rotated = metrics.time("ROTATE", || {
        frames.iter().map(|f| rotate_equirect(f, dtheta, dphi)).collect()
    });
    *frames = rotated;
    c.volume = lightdb_geom::Rotation::new(dtheta, dphi).rotate_volume(&c.volume);
    Ok(c)
}

fn rotate_equirect(f: &Frame, dtheta: f64, dphi: f64) -> Frame {
    let (w, h) = (f.width(), f.height());
    let shift_x = ((dtheta / lightdb_geom::THETA_PERIOD * w as f64).round() as isize)
        .rem_euclid(w as isize) as usize;
    let shift_y = (dphi / lightdb_geom::PHI_MAX * h as f64).round() as isize;
    let mut out = f.clone();
    for y in 0..h {
        let sy = (y as isize - shift_y).clamp(0, h as isize - 1) as usize;
        for x in 0..w {
            let sx = (x + w - shift_x) % w;
            out.set(x, y, f.get(sx, sy));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{StreamInfo, OMEGA};
    use lightdb_core::udf::BuiltinMap;
    use lightdb_frame::stats::luma_psnr;
    use std::f64::consts::PI;

    fn textured(w: usize, h: usize, seed: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                f.set(
                    x,
                    y,
                    Yuv::new(
                        (((x * 7 + y * 13 + seed * 29) % 200) + 30) as u8,
                        ((x + seed) % 256) as u8,
                        (y % 256) as u8,
                    ),
                );
            }
        }
        f
    }

    fn decoded_chunk(t: usize, frames: Vec<Frame>) -> Chunk {
        Chunk {
            t_index: t,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t as f64, t as f64 + 1.0)),
            info: StreamInfo::origin(frames.len().max(1) as u32),
            payload: ChunkPayload::Decoded {
                frames,
                device: Device::Cpu,
            },
        }
    }

    fn stream_of(chunks: Vec<Chunk>) -> ChunkStream {
        Box::new(chunks.into_iter().map(Ok))
    }

    fn collect(s: ChunkStream) -> Vec<Chunk> {
        s.map(|c| c.unwrap()).collect()
    }

    fn decode(c: Chunk, device: Device, metrics: &Metrics, budget: Parallelism) -> Chunk {
        decode_chunk(c, device, metrics, &QueryCtx::unbounded(), None, budget).unwrap()
    }

    fn frames_of(c: &Chunk) -> &[Frame] {
        let ChunkPayload::Decoded { frames, .. } = &c.payload else {
            panic!("decoded chunk expected")
        };
        frames
    }

    #[test]
    fn degenerate_union_groups_error_instead_of_panicking() {
        // An empty time-step group must surface as an ExecError, not
        // unwind through the pipeline.
        match composite_group(vec![], &MergeFunction::Last) {
            Err(ExecError::Align(_)) => {}
            other => panic!("expected Align error, got {other:?}"),
        }
        // Co-located *encoded* chunks (wrong domain for compositing)
        // must also report a typed error.
        let frames: Vec<Frame> = (0..2).map(|i| textured(32, 32, i)).collect();
        let enc = lightdb_codec::Encoder::new(lightdb_codec::EncoderConfig {
            gop_length: 2,
            qp: 30,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let mk = || Chunk {
            t_index: 0,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0)),
            info: StreamInfo::origin(2),
            payload: ChunkPayload::Encoded {
                header: enc.header,
                gop: enc.gops[0].clone(),
            },
        };
        match composite_group(vec![mk(), mk()], &MergeFunction::Last) {
            Err(ExecError::Domain(_)) => {}
            other => panic!("expected Domain error, got {other:?}"),
        }
        // A union over one erroring and one healthy stream propagates
        // the error as a stream item rather than panicking.
        let bad: ChunkStream = Box::new(std::iter::once(Err(ExecError::Other(
            "broken input".into(),
        ))));
        let good = stream_of(vec![decoded_chunk(0, vec![textured(32, 32, 0)])]);
        let results: Vec<_> =
            union_frames(vec![bad, good], MergeFunction::Last, Metrics::new()).collect();
        assert!(results.iter().any(|r| r.is_err()));
    }

    /// A GOP alone in its batch spends the query's threads on its own
    /// frames: helpers compute later frames' residuals, counted in
    /// `decode.frames_ahead`. Serially none are, and the frames match.
    #[test]
    fn a_lone_gop_decodes_frames_ahead_on_its_budget() {
        let frames: Vec<Frame> = (0..30).map(|i| textured(128, 64, i)).collect();
        let m = Metrics::new();
        let chunk = decoded_chunk(0, frames);
        let encoded = encode_chunk(chunk, Device::Cpu, CodecKind::H264Sim, 20, &m).unwrap();
        let run = |par: Parallelism| {
            let m = Metrics::new();
            let out = decode(encoded.clone(), Device::Cpu, &m, par);
            (out.payload, m.counter(counters::DECODE_FRAMES_AHEAD))
        };
        let (serial, ahead) = run(Parallelism::SERIAL);
        assert_eq!(ahead, 0);
        // The helper races the caller for frames; a scheduler that keeps
        // it off the CPU for a whole GOP is retried, not failed.
        let ahead = (0..20)
            .map(|_| {
                let (parallel, ahead) = run(Parallelism::new(2));
                assert!(parallel == serial, "the 2-thread decode differs");
                ahead
            })
            .find(|&ahead| ahead > 0);
        assert!(ahead.is_some(), "no frame was computed ahead in 20 decodes");
    }

    #[test]
    fn encode_decode_roundtrip_via_ops() {
        let frames: Vec<Frame> = (0..4).map(|i| textured(64, 32, i)).collect();
        let m = Metrics::new();
        let c = decoded_chunk(0, frames.clone());
        let enc = encode_chunk(c, Device::Cpu, CodecKind::H264Sim, 8, &m).unwrap();
        let dec = decode(enc, Device::Cpu, &m, Parallelism::SERIAL);
        let out = frames_of(&dec);
        assert_eq!(out.len(), 4);
        for (a, b) in frames.iter().zip(out.iter()) {
            assert!(luma_psnr(a, b) > 32.0);
        }
        assert_eq!(m.count("ENCODE"), 1);
        assert_eq!(m.count("DECODE"), 1);
    }

    #[test]
    fn gpu_decode_matches_cpu_decode() {
        let frames: Vec<Frame> = (0..3).map(|i| textured(64, 32, i)).collect();
        let enc = lightdb_codec::Encoder::new(lightdb_codec::EncoderConfig {
            grid: TileGrid::new(2, 1),
            gop_length: 3,
            qp: 20,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let chunk = Chunk {
            t_index: 0,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0)),
            info: StreamInfo::origin(30),
            payload: ChunkPayload::Encoded {
                header: enc.header,
                gop: enc.gops[0].clone(),
            },
        };
        let cpu = decode(chunk.clone(), Device::Cpu, &Metrics::new(), Parallelism::SERIAL);
        let gpu = decode(chunk, Device::Gpu, &Metrics::new(), Parallelism::SERIAL);
        assert_eq!(frames_of(&cpu), frames_of(&gpu));
    }

    #[test]
    fn select_trims_time_and_crops_angles() {
        let frames: Vec<Frame> = (0..10).map(|i| textured(64, 32, i)).collect();
        let c = Chunk {
            info: StreamInfo::origin(10),
            ..decoded_chunk(0, frames)
        };
        // t ∈ [0.5, 1.0], θ ∈ [π, 2π] (right half), φ ∈ [0, π/2] (top half)
        let pred = VolumePredicate::any()
            .with(Dimension::T, Interval::new(0.5, 1.0))
            .with(Dimension::Theta, Interval::new(PI, 2.0 * PI))
            .with(Dimension::Phi, Interval::new(0.0, PI / 2.0));
        let out = select_chunk(c, &pred, &Metrics::new()).unwrap().unwrap();
        let frames = frames_of(&out);
        assert_eq!(frames.len(), 5);
        assert_eq!((frames[0].width(), frames[0].height()), (32, 16));
        assert!((out.volume.theta().lo() - PI).abs() < 0.2);
    }

    #[test]
    fn select_outside_volume_drops_chunk() {
        let c = decoded_chunk(0, vec![textured(32, 32, 0)]);
        let pred = VolumePredicate::any().with(Dimension::T, Interval::new(5.0, 6.0));
        assert_eq!(select_chunk(c, &pred, &Metrics::new()).unwrap(), None);
    }

    #[test]
    fn map_gpu_matches_cpu() {
        let frames: Vec<Frame> = (0..2).map(|i| textured(64, 64, i)).collect();
        let f = MapFunction::Builtin(BuiltinMap::Blur);
        let map = |frames, device| {
            let payload = ChunkPayload::Decoded { frames, device };
            let c = Chunk { payload, ..decoded_chunk(0, vec![]) };
            map_chunk(c, &f, &Metrics::new()).unwrap()
        };
        let cpu = map(frames.clone(), Device::Cpu);
        let gpu = map(frames, Device::Gpu);
        assert_eq!(frames_of(&cpu), frames_of(&gpu));
    }

    #[test]
    fn discretize_resamples_resolution_and_rate() {
        let frames: Vec<Frame> = (0..30).map(|i| textured(64, 32, i)).collect();
        let c = Chunk {
            info: StreamInfo::origin(30),
            ..decoded_chunk(0, frames)
        };
        let steps = vec![
            (Dimension::Theta, lightdb_geom::THETA_PERIOD / 32.0),
            (Dimension::Phi, lightdb_geom::PHI_MAX / 16.0),
            (Dimension::T, 0.1), // 10 samples per second
        ];
        let out = discretize_chunk(c, &steps, &Metrics::new()).unwrap();
        let frames = frames_of(&out);
        assert_eq!(frames.len(), 10);
        assert_eq!((frames[0].width(), frames[0].height()), (32, 16));
        assert_eq!(out.info.fps, 10);
    }

    #[test]
    fn partition_into_quarters() {
        let frames: Vec<Frame> = (0..2).map(|i| textured(64, 32, i)).collect();
        let c = decoded_chunk(0, frames.clone());
        let spec = vec![
            (Dimension::T, 1.0),
            (Dimension::Theta, PI),     // 2 columns
            (Dimension::Phi, PI / 2.0), // 2 rows
        ];
        let out = partition_chunk(c, &spec, &Metrics::new()).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(frames_of(&out[0])[0], frames[0].crop(0, 0, 32, 16));
        // Tile volumes tile the angular domain.
        assert!((out[3].volume.theta().lo() - PI).abs() < 1e-9);
        assert!((out[3].volume.phi().lo() - PI / 2.0).abs() < 1e-9);
    }

    #[test]
    fn partition_then_flatten_restores_frames() {
        let frames: Vec<Frame> = (0..2).map(|i| textured(64, 32, i)).collect();
        let c = decoded_chunk(0, frames.clone());
        let spec = vec![(Dimension::Theta, PI / 2.0), (Dimension::Phi, PI / 2.0)];
        let parted = partition_chunk(c, &spec, &Metrics::new()).unwrap();
        let flat = flatten_group(parted, &Metrics::new()).unwrap();
        let out = frames_of(&flat);
        // Compositing tiles back must reconstruct the original frames.
        for (a, b) in frames.iter().zip(out.iter()) {
            assert!(luma_psnr(a, b) > 45.0, "flatten lost content");
        }
    }

    #[test]
    fn union_overlays_watermark() {
        let base = decoded_chunk(0, vec![Frame::filled(64, 32, Yuv::new(100, 128, 128))]);
        // Watermark part: small angular extent in the top-left corner.
        let wm_vol = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0))
            .with(Dimension::Theta, Interval::new(0.0, PI / 2.0))
            .with(Dimension::Phi, Interval::new(0.0, PI / 4.0));
        let wm = Chunk {
            t_index: 0,
            part: 0,
            volume: wm_vol,
            info: StreamInfo::origin(1),
            payload: ChunkPayload::Decoded {
                frames: vec![Frame::filled(16, 8, Yuv::new(250, 20, 230))],
                device: Device::Cpu,
            },
        };
        let out = collect(union_frames(
            vec![stream_of(vec![base]), stream_of(vec![wm])],
            MergeFunction::Last,
            Metrics::new(),
        ));
        assert_eq!(out.len(), 1);
        let ChunkPayload::Decoded { frames, .. } = &out[0].payload else {
            panic!()
        };
        // Top-left quadrant is watermarked, bottom-right untouched.
        assert_eq!(frames[0].get(2, 2).y, 250);
        assert_eq!(frames[0].get(60, 30).y, 100);
    }

    #[test]
    fn union_skips_omega_pixels() {
        let base = decoded_chunk(0, vec![Frame::filled(32, 32, Yuv::new(80, 128, 128))]);
        // Overlay covering everything but almost entirely ω.
        let mut ov_frame = Frame::filled(32, 32, OMEGA);
        ov_frame.set(4, 4, Yuv::new(200, 90, 90));
        let ov = decoded_chunk(0, vec![ov_frame]);
        let out = collect(union_frames(
            vec![stream_of(vec![base]), stream_of(vec![ov])],
            MergeFunction::Last,
            Metrics::new(),
        ));
        let ChunkPayload::Decoded { frames, .. } = &out[0].payload else {
            panic!()
        };
        assert_eq!(frames[0].get(4, 4).y, 200);
        assert_eq!(
            frames[0].get(20, 20).y,
            80,
            "ω pixels must not clobber the base"
        );
    }

    #[test]
    fn union_concatenates_disjoint_time_ranges() {
        let a = decoded_chunk(0, vec![textured(32, 32, 0)]);
        let mut b = decoded_chunk(5, vec![textured(32, 32, 1)]);
        b.volume = b.volume.translate(0.0, 0.0, 0.0, 0.0);
        let out = collect(union_frames(
            vec![stream_of(vec![a]), stream_of(vec![b])],
            MergeFunction::Last,
            Metrics::new(),
        ));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].t_index, 0);
        assert_eq!(out[1].t_index, 5);
    }

    #[test]
    fn interpolate_fills_nulls() {
        let mut f = Frame::filled(16, 16, OMEGA);
        for y in 0..16 {
            for x in 0..2 {
                f.set(x, y, Yuv::new(50, 128, 128));
                f.set(14 + x, y, Yuv::new(150, 128, 128));
            }
        }
        let c = decoded_chunk(0, vec![f]);
        let out = interpolate_chunk(c, BuiltinInterp::Linear, &Metrics::new()).unwrap();
        let frames = frames_of(&out);
        let mid = frames[0].get(8, 8);
        assert!(!is_omega(mid));
        assert!(
            mid.y > 50 && mid.y < 150,
            "linear fill should land between, got {}",
            mid.y
        );
    }

    #[test]
    fn custom_interpolate_synthesizes_depth() {
        use crate::fpga::DepthMapFpga;
        let left = decoded_chunk(0, vec![textured(64, 64, 0)]);
        let mut right = decoded_chunk(0, vec![textured(64, 64, 0)]);
        right.part = 1;
        right.info.position = lightdb_geom::Point3::new(0.064, 0.0, 0.0);
        let out =
            synthesize_group(vec![left, right], &DepthMapFpga, Device::Fpga, &Metrics::new())
                .unwrap();
        assert_eq!(out.frame_count(), 1);
    }

    #[test]
    fn translate_shifts_time_steps() {
        let c = decoded_chunk(0, vec![textured(32, 32, 0)]);
        let out = translate_chunk(c, (0.0, 0.0, 0.0, 5.0), &Metrics::new());
        assert_eq!(out.t_index, 5);
        assert!((out.volume.t().lo() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rotate_rolls_pixels() {
        let mut f = Frame::filled(64, 32, Yuv::new(10, 128, 128));
        f.set(0, 16, Yuv::new(200, 128, 128));
        let c = decoded_chunk(0, vec![f]);
        // Half a turn: x shifts by w/2.
        let out = rotate_chunk(c, PI, 0.0, &Metrics::new()).unwrap();
        let frames = frames_of(&out);
        assert_eq!(frames[0].get(32, 16).y, 200);
        assert_eq!(frames[0].get(0, 16).y, 10);
    }

    #[test]
    fn slab_point_select_picks_nearest_sample() {
        use crate::chunk::SlabInfo;
        // 2×2 uv grid: 4 frames with distinct luma.
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::filled(16, 16, Yuv::new(40 * (i + 1) as u8, 128, 128)))
            .collect();
        let slab = SlabInfo {
            nu: 2,
            nv: 2,
            uv_min: lightdb_geom::Point3::new(0.0, 0.0, 0.0),
            uv_max: lightdb_geom::Point3::new(1.0, 1.0, 0.0),
        };
        let mut c = decoded_chunk(0, frames);
        c.info.slab = Some(slab);
        c.volume = Volume::new(
            Interval::new(0.0, 1.0),
            Interval::new(0.0, 1.0),
            Interval::point(0.0),
            Interval::new(0.0, 1.0),
            Interval::new(0.0, lightdb_geom::THETA_PERIOD),
            Interval::new(0.0, lightdb_geom::PHI_MAX),
        );
        // Select near the top-right sample (u=1, v=0) → frame 1.
        let pred = VolumePredicate::any()
            .with(Dimension::X, Interval::point(0.9))
            .with(Dimension::Y, Interval::point(0.1));
        let out = select_chunk(c, &pred, &Metrics::new()).unwrap().unwrap();
        let frames = frames_of(&out);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get(0, 0).y, 80);
        assert!(out.info.slab.is_none());
    }

    #[test]
    fn transfer_changes_device() {
        let c = decoded_chunk(0, vec![textured(16, 16, 0)]);
        let m = Metrics::new();
        let out = transfer_chunk(c, Device::Gpu, &m);
        assert_eq!(out.device(), Device::Gpu);
        assert_eq!(m.count("TRANSFER"), 1);
        // Transferring to the same device is free.
        let out2 = transfer_chunk(out, Device::Gpu, &m);
        assert_eq!(out2.device(), Device::Gpu);
        assert_eq!(m.count("TRANSFER"), 1);
    }
}
