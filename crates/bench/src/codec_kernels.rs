//! Codec hot-kernel microbenchmarks (see DESIGN.md, "Codec kernels &
//! numeric contracts").
//!
//! Measures the overhauled kernels against the scalar/f64 kernels they
//! replaced — the pre-overhaul implementations, kept verbatim as
//! `lightdb-codec`'s test oracle (`tests/oracle/kernels.rs`, included
//! below) — plus end-to-end encode/decode throughput of the full codec:
//!
//! * entropy coding: Exp-Golomb encode/decode, Mbit/s;
//! * transform: 8×8 forward/inverse DCT, blocks/s;
//! * motion estimation: 16×16 SAD, macroblocks/s;
//! * mode decision's block sum and intra cost, macroblocks/s;
//! * end-to-end: whole-stream encode and decode, frames/s;
//! * the encoder's exact shortcuts against the block and search paths
//!   they replaced (`lightdb-codec`'s test oracle, included below):
//!   quantiser blocks/s, motion searches/s with SADs measured per
//!   macroblock, and whole tile-GOP encodes the way `ENCODE` runs
//!   them, with the encoder's own work counters;
//! * the `f32` zero-block proof against the exact transform and
//!   quantiser it spares, blocks/s over tile-GOP residuals past the SAD
//!   gate, with the share of them it proves;
//! * the read side against what it replaced: whole-GOP decodes the way
//!   `DECODE` runs them against the oracle's block path (with the
//!   share of uncoded blocks), `UNION … LAST` compositing against the
//!   per-pixel compositor (`lightdb-exec`'s test oracle), and `MAP`
//!   over one chunk at one and two threads;
//! * the serving side: `EncodedGop::extract_tile_bytes` on a serialised
//!   4×4 GOP against the parsed GOP's parse → extract → serialise
//!   (`lightdb-codec`'s GOP oracle, included below), µs and bytes
//!   copied per tile;
//! * the scan side: `EncodedGop::extract_tiles` — one walk recording
//!   each frame's tile offsets, one exactly-sized buffer per requested
//!   tile — taking k = 1, 4 and 15 tiles out of a serialised 4×4 ×
//!   4-frame GOP against the oracle's parse → `extract_tile` per tile,
//!   µs and heap allocations per GOP.
//!
//! `--smoke` shrinks every measurement window so the binary finishes
//! in well under a second while still executing every kernel pair and
//! asserting fast == reference on each workload; CI runs it in release
//! mode as a cheap "kernels still work when optimised" gate.

use lightdb_codec::bitio::{BitReader, BitWriter};
use lightdb_codec::encoder::encode_gop_frame;
use lightdb_codec::scratch::{DecoderScratch, EncoderScratch, EncoderWork};
use lightdb_codec::{
    golomb, predict, quant, transform, CodecKind, Decoder, EncodedGop, Encoder, EncoderConfig,
    FrameType, TileGrid, TileRect, VideoStream,
};
use lightdb_core::algebra::MergeFunction;
use lightdb_core::udf::{BuiltinMap, MapFunction};
use lightdb_datasets::{Dataset, DatasetSpec};
use lightdb_exec::frameops::{composite_group, map_chunk};
use lightdb_exec::{Chunk, ChunkPayload, Device, Metrics, Parallelism, StreamInfo};
use lightdb_frame::{Frame, PlaneKind, Yuv};
use lightdb_geom::{Interval, Volume};
use std::hint::black_box;
use std::time::Instant;

/// The encoder's pre-shortcut block and search paths and the decoder's
/// pre-shortcut block path, shared with `lightdb-codec`'s differential
/// tests (the only other place they exist).
#[path = "../../codec/tests/oracle/mod.rs"]
mod oracle;

/// The bit I/O, Exp-Golomb, SAD and DCT kernels before their
/// overhauls, shared with `lightdb-codec`'s unit tests (likewise).
#[path = "../../codec/tests/oracle/kernels.rs"]
mod kernels;

/// The GOP as a parsed tree, with the extraction it ran, shared with
/// `lightdb-codec`'s differential tests (likewise).
#[path = "../../codec/tests/oracle/gop.rs"]
mod gop_oracle;

use gop_oracle::ParsedGop;
use kernels::bitio::{RefBitReader, RefBitWriter};

/// The per-pixel `UNION` compositor, shared with `lightdb-exec`'s
/// identity tests (likewise).
#[path = "../../exec/tests/oracle/mod.rs"]
mod union_oracle;

/// Measures two competing passes by strictly alternating them inside
/// one window until `target_secs` elapse; each call returns the
/// number of work units it performed. Interleaving means scheduler
/// noise (this often runs on a shared single-core box) hits both
/// sides equally instead of skewing whichever ran second. Returns
/// `(units_a/sec, units_b/sec)`.
fn rate2(target_secs: f64, mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (f64, f64) {
    let (mut ua, mut ub) = (0u64, 0u64);
    let (mut ta, mut tb) = (0f64, 0f64);
    loop {
        let t = Instant::now();
        ua += a();
        ta += t.elapsed().as_secs_f64();
        let t = Instant::now();
        ub += b();
        tb += t.elapsed().as_secs_f64();
        if ta + tb >= target_secs {
            return (ua as f64 / ta, ub as f64 / tb);
        }
    }
}

fn fmt_rate(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn print_row(label: &str, fast: f64, reference: f64) {
    crate::row(
        label,
        &[
            fmt_rate(fast),
            fmt_rate(reference),
            format!("{:.2}x", fast / reference),
        ],
    );
}

/// Deterministic xorshift; no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Symbol stream shaped like real residual data: mostly small values
/// (short codewords) with an occasional large outlier.
fn symbols(n: usize) -> Vec<u32> {
    let mut rng = Rng(0x5eed_cafe_f00d_d00d);
    (0..n)
        .map(|_| {
            let r = rng.next();
            if r.is_multiple_of(31) {
                (r >> 8) as u32 % 100_000
            } else {
                (r >> 8) as u32 % 48
            }
        })
        .collect()
}

fn entropy(target: f64, n: usize) {
    let syms = symbols(n);

    // Correctness cross-check before timing anything.
    let mut fast_w = BitWriter::new();
    let mut ref_w = RefBitWriter::new();
    for &s in &syms {
        golomb::write_ue(&mut fast_w, s);
        kernels::golomb::write_ue(&mut ref_w, s);
    }
    let bytes = fast_w.into_bytes();
    assert_eq!(
        bytes,
        ref_w.into_bytes(),
        "fast and reference entropy encodings diverge"
    );
    let bits = (bytes.len() * 8) as u64;

    let mut w = BitWriter::new();
    let (enc_fast, enc_ref) = rate2(
        target,
        || {
            w.clear();
            for &s in &syms {
                golomb::write_ue(&mut w, s);
            }
            black_box(w.aligned_bytes());
            bits
        },
        || {
            let mut w = RefBitWriter::new();
            for &s in &syms {
                kernels::golomb::write_ue(&mut w, s);
            }
            black_box(w.into_bytes());
            bits
        },
    );
    print_row("entropy enc (Mbit/s)", enc_fast / 1e6, enc_ref / 1e6);

    let (dec_fast, dec_ref) = rate2(
        target,
        || {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..syms.len() {
                acc ^= golomb::read_ue(&mut r).expect("valid stream") as u64;
            }
            black_box(acc);
            bits
        },
        || {
            let mut r = RefBitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..syms.len() {
                acc ^= kernels::golomb::read_ue(&mut r).expect("valid stream") as u64;
            }
            black_box(acc);
            bits
        },
    );
    print_row("entropy dec (Mbit/s)", dec_fast / 1e6, dec_ref / 1e6);
}

/// Blocks drawn from the same synthetic scene corpus the end-to-end
/// benchmark encodes: alternating 8×8 luma tiles (what intra coding
/// transforms) and frame-difference tiles (what inter residuals look
/// like), so the transform benchmark sees the coefficient
/// distributions the codec actually processes rather than an
/// arbitrary synthetic population.
fn residual_blocks(n: usize) -> Vec<[i32; 64]> {
    let frames = scene(64, 64, 4);
    let tiles_per_row = 64 / 8;
    let tiles_per_frame = tiles_per_row * tiles_per_row;
    (0..n)
        .map(|i| {
            let t = i / 2 % tiles_per_frame;
            let (tx, ty) = (t % tiles_per_row * 8, t / tiles_per_row * 8);
            let f = &frames[i / 2 / tiles_per_frame % (frames.len() - 1)];
            let g = &frames[i / 2 / tiles_per_frame % (frames.len() - 1) + 1];
            let mut b = [0i32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    b[y * 8 + x] = if i % 2 == 0 {
                        f.luma_at(tx + x, ty + y) as i32 - 128
                    } else {
                        g.luma_at(tx + x, ty + y) as i32 - f.luma_at(tx + x, ty + y) as i32
                    };
                }
            }
            b
        })
        .collect()
}

fn dct(target: f64, n: usize) {
    let pixel_blocks = residual_blocks(n);
    // The decode-side inverse only ever sees dequantised levels;
    // benchmark it on exactly that population (qp matches the
    // end-to-end scene encode below).
    let coeff_blocks: Vec<[i32; 64]> = pixel_blocks
        .iter()
        .map(|b| {
            let mut c = transform::forward(b);
            lightdb_codec::quant::quantize(&mut c, 20, true);
            lightdb_codec::quant::dequantize(&mut c, 20);
            c
        })
        .collect();
    for (p, c) in pixel_blocks.iter().zip(coeff_blocks.iter()) {
        assert_eq!(
            kernels::transform::forward(p),
            transform::forward(p),
            "fast and reference forward DCT diverge"
        );
        assert_eq!(
            kernels::transform::inverse(c),
            transform::inverse(c),
            "fast and reference inverse DCT diverge"
        );
    }

    let units = n as u64;
    let (fwd_fast, fwd_ref) = rate2(
        target,
        || {
            for b in &pixel_blocks {
                black_box(transform::forward(black_box(b)));
            }
            units
        },
        || {
            for b in &pixel_blocks {
                black_box(kernels::transform::forward(black_box(b)));
            }
            units
        },
    );
    print_row("DCT fwd (kblocks/s)", fwd_fast / 1e3, fwd_ref / 1e3);

    let (inv_fast, inv_ref) = rate2(
        target,
        || {
            for c in &coeff_blocks {
                black_box(transform::inverse(black_box(c)));
            }
            units
        },
        || {
            for c in &coeff_blocks {
                black_box(kernels::transform::inverse(black_box(c)));
            }
            units
        },
    );
    print_row("DCT inv (kblocks/s)", inv_fast / 1e3, inv_ref / 1e3);
}

fn sad(target: f64, dim: usize) {
    let mut rng = Rng(0x5ad_5ad_5ad);
    let a: Vec<u8> = (0..dim * dim).map(|_| (rng.next() % 256) as u8).collect();
    // Correlated with `a` so early exit fires realistically often.
    let b: Vec<u8> = a
        .iter()
        .map(|&v| v.wrapping_add((rng.next() % 9) as u8).wrapping_sub(4))
        .collect();

    let positions: Vec<(usize, usize)> = (0..dim - 16)
        .step_by(4)
        .flat_map(|y| (0..dim - 16).step_by(4).map(move |x| (x, y)))
        .collect();

    for &(x, y) in &positions {
        assert_eq!(
            predict::sad_mb(&a, dim, x, y, &b, dim, x, y, u32::MAX),
            kernels::predict::sad_mb(&a, dim, x, y, &b, dim, x, y, u32::MAX),
            "fast and reference SAD diverge"
        );
    }

    let units = positions.len() as u64;
    // A motion search compares every candidate against the running
    // best; 600 is a realistic mid-search bound for 16×16 blocks.
    for (label, bound) in [
        ("SAD full (kMB/s)", u32::MAX),
        ("SAD early-exit (kMB/s)", 600),
    ] {
        let (fast, refr) = rate2(
            target,
            || {
                for &(x, y) in &positions {
                    black_box(predict::sad_mb(&a, dim, x, y, &b, dim, 0, 0, bound));
                }
                units
            },
            || {
                for &(x, y) in &positions {
                    black_box(kernels::predict::sad_mb(
                        &a, dim, x, y, &b, dim, 0, 0, bound,
                    ));
                }
                units
            },
        );
        print_row(label, fast / 1e3, refr / 1e3);
    }
}

/// The other two block kernels of mode decision: the block sum every
/// inter macroblock's search starts from, then the intra cost (SAD
/// against the block's mean), at positions on and off the macroblock
/// grid.
fn block_sum_intra(target: f64, dim: usize) {
    let mut rng = Rng(0xb10c_5a11);
    let plane: Vec<u8> = (0..dim * dim).map(|_| (rng.next() % 256) as u8).collect();
    let positions: Vec<(usize, usize)> = (0..dim - 16)
        .step_by(3)
        .flat_map(|y| (0..dim - 16).step_by(5).map(move |x| (x, y)))
        .collect();

    for &(x, y) in &positions {
        let sum = predict::mb_sum(&plane, dim, x, y);
        assert_eq!(
            sum,
            kernels::predict::mb_sum(&plane, dim, x, y),
            "fast and reference block sums diverge"
        );
        assert_eq!(
            predict::intra_cost_estimate(&plane, dim, x, y, sum),
            kernels::predict::intra_cost_estimate(&plane, dim, x, y, sum),
            "fast and reference intra costs diverge"
        );
    }

    let units = positions.len() as u64;
    let (fast, refr) = rate2(
        target,
        || {
            for &(x, y) in &positions {
                let sum = predict::mb_sum(black_box(&plane), dim, x, y);
                black_box(predict::intra_cost_estimate(&plane, dim, x, y, sum));
            }
            units
        },
        || {
            for &(x, y) in &positions {
                let sum = kernels::predict::mb_sum(black_box(&plane), dim, x, y);
                black_box(kernels::predict::intra_cost_estimate(
                    &plane, dim, x, y, sum,
                ));
            }
            units
        },
    );
    print_row("block sum + intra cost (kMB/s)", fast / 1e3, refr / 1e3);
}

/// Quantiser throughput on the transform benchmark's coefficient
/// blocks, cross-checked against the oracle.
fn quantize(target: f64, n: usize) {
    let (qp, deadzone) = (24, true);
    let blocks: Vec<[i32; 64]> = residual_blocks(n).iter().map(transform::forward).collect();
    for b in &blocks {
        let (mut fast, mut refr) = (*b, *b);
        let nnz = quant::quantize(&mut fast, qp, deadzone);
        oracle::quantize(&mut refr, qp, deadzone);
        assert_eq!(fast, refr, "fast and oracle quantisers diverge");
        assert_eq!(nnz as usize, refr.iter().filter(|&&l| l != 0).count());
    }
    let units = blocks.len() as u64;
    let (fast, refr) = rate2(
        target,
        || {
            for b in &blocks {
                let mut c = *black_box(b);
                black_box(quant::quantize(&mut c, qp, deadzone));
                black_box(c);
            }
            units
        },
        || {
            for b in &blocks {
                let mut c = *black_box(b);
                oracle::quantize(&mut c, qp, deadzone);
                black_box(c);
            }
            units
        },
    );
    print_row("quant (kblk/s)", fast / 1e3, refr / 1e3);
}

/// What `ENCODE` is handed in the tiling query: the sixteen tiles of a
/// 4×4 grid over frames that have been through the codec once already
/// (the Venice scene at 512×256, encoded at qp 22, decoded). Sky tiles
/// barely change and canal tiles never stop, so the sixteen together
/// are the mix the query pays for.
fn tile_frames(n: usize) -> Vec<Vec<Frame>> {
    let (_, decoded) = stored_gop(512, 256, n, TileGrid::SINGLE);
    (0..16)
        .map(|t| {
            let (x0, y0) = (t % 4 * 128, t / 4 * 64);
            decoded.iter().map(|f| f.crop(x0, y0, 128, 64)).collect()
        })
        .collect()
}

/// Motion search over every macroblock of a tile against the previous
/// frame: searches per second, and how many SADs each one measured.
fn search(target: f64, range: i32) {
    // A tile from the middle of the picture, where things move.
    let frames = &tile_frames(2)[5];
    let (w, h) = (frames[0].width(), frames[0].height());
    let reference = frames[0].plane(PlaneKind::Luma);
    let src = frames[1].plane(PlaneKind::Luma);
    let rect = TileRect { x0: 0, y0: 0, w, h };
    let mbs: Vec<(usize, usize)> = (0..h)
        .step_by(16)
        .flat_map(|y| (0..w).step_by(16).map(move |x| (x, y)))
        .collect();

    let mut sums = predict::BlockSums::default();
    sums.rebuild(reference, w, h);
    let mut work = EncoderWork::default();
    let mut walked = 0;
    for &(x, y) in &mbs {
        let src_sum = predict::mb_sum(src, w, x, y);
        let (mv, sad) = predict::motion_search(
            src, reference, w, &rect, x, y, range, src_sum, &sums, &mut work,
        );
        let (omv, osad, n) = oracle::motion_search(src, reference, w, &rect, x, y, range);
        assert_eq!((mv, sad), (omv, osad), "fast and oracle searches diverge");
        walked += n;
    }
    let measured = work.mv_candidates - work.mv_eliminated;

    let units = mbs.len() as u64;
    let (fast, refr) = rate2(
        target,
        || {
            // The table is per reference frame: rebuilt once a pass.
            sums.rebuild(black_box(reference), w, h);
            let mut work = EncoderWork::default();
            for &(x, y) in &mbs {
                let src_sum = predict::mb_sum(src, w, x, y);
                black_box(predict::motion_search(
                    src, reference, w, &rect, x, y, range, src_sum, &sums, &mut work,
                ));
            }
            units
        },
        || {
            for &(x, y) in &mbs {
                black_box(oracle::motion_search(src, reference, w, &rect, x, y, range));
            }
            units
        },
    );
    print_row(&format!("search r={range} (kMB/s)"), fast / 1e3, refr / 1e3);
    print_row(
        &format!("search r={range} (SADs/MB)"),
        measured as f64 / units as f64,
        walked as f64 / units as f64,
    );
}

/// Tile GOPs the way `exec::frameops::encode_one_gop` encodes them
/// (narrow search, one scratch reused throughout), against the
/// oracle's block path; then where the encoder's blocks and
/// candidates went.
fn tile_gops(target: f64, tiles: &[Vec<Frame>], qp: u8) {
    let (codec, range) = (CodecKind::HevcSim, 4);
    let mut scratch = EncoderScratch::new();
    let mut encode = move || {
        let mut payloads = Vec::new();
        for frames in tiles {
            for (i, f) in frames.iter().enumerate() {
                payloads.push(encode_gop_frame(f, i == 0, qp, codec, range, &mut scratch));
            }
        }
        (payloads, std::mem::take(&mut scratch.work))
    };
    let encode_oracle = || {
        let mut payloads = Vec::new();
        for frames in tiles {
            let mut reference: Option<Frame> = None;
            for f in frames {
                let (payload, recon) =
                    oracle::encode_tile_opts(f, reference.as_ref(), qp, codec, range);
                payloads.push(payload);
                reference = Some(recon);
            }
        }
        payloads
    };
    let (payloads, work) = encode();
    assert_eq!(
        payloads,
        encode_oracle(),
        "fast and oracle tile encodes diverge"
    );

    let units = tiles.len() as u64;
    let (fast, refr) = rate2(
        target,
        || {
            black_box(encode());
            units
        },
        || {
            black_box(encode_oracle());
            units
        },
    );
    print_row(&format!("tile GOP qp{qp} (GOPs/s)"), fast, refr);
    let pct = |part: u64, whole: u64| format!("{:.1}%", 100.0 * part as f64 / whole.max(1) as f64);
    crate::row(
        &format!("  qp{qp} zero blocks"),
        &[
            pct(
                work.blocks_sad_gated + work.blocks_zero_proved + work.blocks_zero_quant,
                work.blocks,
            ),
            pct(work.blocks_sad_gated, work.blocks),
            pct(work.blocks_zero_proved, work.blocks),
            "all/gated/proved".into(),
        ],
    );
    crate::row(
        &format!("  qp{qp} candidates"),
        &[
            pct(work.mv_eliminated, work.mv_candidates),
            work.zero_sad_exits.to_string(),
            "elim/0-SAD".into(),
        ],
    );
}

/// The residuals that reach the `f32` zero proof in tile GOPs: every
/// 8×8 block (luma and chroma) of each predicted frame against the
/// co-located block of the previous frame's reconstruction — the zero
/// vector most tile macroblocks keep — that the SAD gate lets through.
fn tile_residuals(tiles: &[Vec<Frame>], qp: u8, codec: CodecKind) -> Vec<[i32; 64]> {
    let gate = quant::zero_block_sad_bound(qp, codec.deadzone());
    let mut out = Vec::new();
    for frames in tiles {
        let mut reference: Option<Frame> = None;
        for f in frames {
            let (_, recon) = lightdb_codec::encoder::encode_tile_opts(
                f,
                reference.as_ref(),
                qp,
                codec,
                codec.search_range(),
            );
            if let Some(prev) = &reference {
                for plane in [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr] {
                    let (src, pred) = (f.plane(plane), prev.plane(plane));
                    let (w, h) = match plane {
                        PlaneKind::Luma => (f.width(), f.height()),
                        _ => (f.width() / 2, f.height() / 2),
                    };
                    for y in (0..h).step_by(8) {
                        for x in (0..w).step_by(8) {
                            let a: [i32; 64] = predict::extract_block(src, w, x, y);
                            let b: [i32; 64] = predict::extract_block(pred, w, x, y);
                            let r: [i32; 64] = std::array::from_fn(|i| a[i] - b[i]);
                            if r.iter().map(|v| v.unsigned_abs()).sum::<u32>() >= gate {
                                out.push(r);
                            }
                        }
                    }
                }
            }
            reference = Some(recon);
        }
    }
    out
}

/// The `f32` zero-block proof against the exact transform and
/// quantiser it spares, on the residuals `ENCODE` hands it: every
/// proved block must quantise to nothing, and the second row shows
/// how many of the all-zero blocks the proof catches.
fn zero_proof(target: f64, tiles: &[Vec<Frame>], qp: u8) {
    let codec = CodecKind::HevcSim;
    let deadzone = codec.deadzone();
    let blocks = tile_residuals(tiles, qp, codec);
    let edges = quant::zero_proof_edges(qp, deadzone);
    let (mut proved, mut zero) = (0u64, 0u64);
    for b in &blocks {
        let mut c = transform::forward(b);
        let nnz = quant::quantize(&mut c, qp, deadzone);
        let p = transform::proves_all_zero(b, edges);
        assert!(!p || nnz == 0, "proof and exact path diverge on {b:?}");
        proved += p as u64;
        zero += (nnz == 0) as u64;
    }
    let units = blocks.len() as u64;
    let (fast, refr) = rate2(
        target,
        || {
            for b in &blocks {
                black_box(transform::proves_all_zero(black_box(b), edges));
            }
            units
        },
        || {
            for b in &blocks {
                let mut c = transform::forward(black_box(b));
                black_box(quant::quantize(&mut c, qp, deadzone));
            }
            units
        },
    );
    print_row(
        "zero proof vs forward+quant (kblk/s)",
        fast / 1e3,
        refr / 1e3,
    );
    let pct = |part: u64, whole: u64| format!("{:.1}%", 100.0 * part as f64 / whole.max(1) as f64);
    crate::row(
        &format!("  qp{qp} past SAD gate"),
        &[pct(zero, units), pct(proved, units), "zero/proved".into()],
    );
}

/// `n` Venice frames at `w × h`, as ingest stores them (qp 22, one GOP)
/// on `grid`, and what they decode to.
fn stored_gop(w: usize, h: usize, n: usize, grid: TileGrid) -> (VideoStream, Vec<Frame>) {
    let spec = DatasetSpec {
        width: w,
        height: h,
        fps: 30,
        seconds: 1,
        qp: 22,
    };
    let frames: Vec<Frame> = (0..n)
        .map(|i| lightdb_datasets::frame(Dataset::Venice, &spec, i))
        .collect();
    let enc = Encoder::new(EncoderConfig {
        qp: spec.qp,
        gop_length: n,
        grid,
        ..Default::default()
    })
    .expect("valid config");
    let stream = enc.encode(&frames).expect("encode");
    let decoded = Decoder::new().decode(&stream).expect("decode");
    (stream, decoded)
}

/// Whole-GOP decodes the way `exec::frameops::decode_one` runs them
/// (one scratch reused throughout) against the oracle's block path,
/// how many of the blocks carried no residual, and the same decode on
/// two threads against one.
fn decode_gops(target: f64, w: usize, h: usize, n: usize, grid: TileGrid) {
    let (stream, decoded) = stored_gop(w, h, n, grid);
    let (header, gop) = (&stream.header, &stream.gops[0]);
    let scratch_decode = |threads: usize| {
        let mut scratch = DecoderScratch::new();
        move || {
            let frames = Decoder::new()
                .decode_gop_scratch(header, gop, &mut scratch, threads)
                .expect("decode");
            (frames, std::mem::take(&mut scratch.work))
        }
    };
    let mut decode = scratch_decode(1);
    let mut decode_2 = scratch_decode(2);
    let decode_oracle = || {
        let mut out: Vec<Frame> = Vec::with_capacity(gop.frame_count());
        for ef in gop.frames() {
            let mut frame = Frame::new(w, h);
            for (t, payload) in ef.tiles().enumerate() {
                let r = grid.tile_rect(t, w, h);
                let reference = match ef.frame_type() {
                    FrameType::Key => None,
                    FrameType::Predicted => out.last().map(|f| f.crop(r.x0, r.y0, r.w, r.h)),
                };
                let mut tile = Frame::empty();
                let (ft, refr) = (ef.frame_type(), reference.as_ref());
                oracle::decode_tile_payload_into(payload, r.w, r.h, ft, refr, &mut tile)
                    .expect("oracle decode");
                frame.blit(&tile, r.x0, r.y0);
            }
            out.push(frame);
        }
        out
    };
    let (frames, work) = decode();
    assert_eq!(frames, decoded, "scratch and plain decodes diverge");
    assert_eq!(frames, decode_oracle(), "fast and oracle decodes diverge");

    let (fast, refr) = rate2(
        target,
        || {
            black_box(decode());
            1
        },
        || {
            black_box(decode_oracle());
            1
        },
    );
    let (cols, rows) = (grid.cols, grid.rows);
    print_row(&format!("decode {w}x{h}x{n}, {cols}x{rows} tiles (GOPs/s)"), fast, refr);
    assert_eq!(decode_2().0, decoded, "two-thread and one-thread decodes diverge");
    let (two, one) = rate2(
        target,
        || {
            black_box(decode_2());
            1
        },
        || {
            black_box(decode());
            1
        },
    );
    print_row("  2 threads vs 1 (GOPs/s)", two, one);
    let uncoded = work.uncoded_inter + work.uncoded_intra;
    crate::row(
        "  uncoded blocks",
        &[
            format!("{:.1}%", 100.0 * uncoded as f64 / work.blocks.max(1) as f64),
            format!("{:.1}%", 100.0 * work.uncoded_intra as f64 / work.blocks.max(1) as f64),
            "all/intra".into(),
        ],
    );
}

/// One serialised GOP of `n` Venice frames at `w × h`, tiled 4×4.
fn tiled_gop_bytes(w: usize, h: usize, n: usize) -> Vec<u8> {
    let spec = DatasetSpec { width: w, height: h, fps: 30, seconds: 1, qp: 22 };
    let frames: Vec<Frame> =
        (0..n).map(|i| lightdb_datasets::frame(Dataset::Venice, &spec, i)).collect();
    let grid = TileGrid::new(4, 4);
    let enc = Encoder::new(EncoderConfig { qp: spec.qp, gop_length: n, grid, ..Default::default() })
        .expect("valid config");
    enc.encode(&frames).expect("encode").gops[0].to_bytes()
}

/// One tile out of a serialised 4×4 GOP of `n` Venice frames, every
/// tile in turn: the tile-index walker the tile server runs against
/// the parse → extract → serialise path it replaced there, and what
/// each copies to produce one tile.
fn tile_extraction(target: f64, w: usize, h: usize, n: usize) {
    let bytes = tiled_gop_bytes(w, h, n);
    let tiles = TileGrid::new(4, 4).tile_count();
    let walk = |t: usize| EncodedGop::extract_tile_bytes(&bytes, t).expect("walk");
    let parse = |t: usize| gop_oracle::extract_tile_bytes(&bytes, t).expect("parse");
    // Copied per tile: the walker writes its output and nothing else;
    // the parsed path copies every payload in, the tile's payloads out,
    // and those twice more on the way to bytes (frame, then GOP).
    let (mut walked, mut parsed) = (0usize, 0usize);
    for t in 0..tiles {
        let out = walk(t);
        assert_eq!(out, parse(t), "walker and parser disagree on tile {t}");
        let gop = ParsedGop::from_bytes(&bytes).expect("parse");
        let tile = gop.extract_tile(t).expect("extract");
        let framed: usize = tile.frames.iter().map(|f| f.to_bytes().len()).sum();
        walked += out.len();
        parsed += gop.payload_bytes() + tile.payload_bytes() + framed + out.len();
    }
    let (fast, refr) = rate2(
        target,
        || {
            (0..tiles).for_each(|t| drop(black_box(walk(black_box(t)))));
            tiles as u64
        },
        || {
            (0..tiles).for_each(|t| drop(black_box(parse(black_box(t)))));
            tiles as u64
        },
    );
    crate::row(
        &format!("tile extract 4x4x{n} (us/tile)"),
        &[
            format!("{:.3}", 1e6 / fast),
            format!("{:.3}", 1e6 / refr),
            format!("{:.2}x", fast / refr),
        ],
    );
    crate::row(
        &format!("  bytes copied, {} B GOP", bytes.len()),
        &[
            (walked / tiles).to_string(),
            (parsed / tiles).to_string(),
            format!("{:.1}x fewer", parsed as f64 / walked as f64),
        ],
    );
}

/// Heap buffers parsed GOPs own: each GOP's frame list, each frame's
/// tile list, and each non-empty payload.
fn buffers(gops: &[ParsedGop]) -> usize {
    let frame = |f: &gop_oracle::ParsedFrame| 1 + f.tiles.iter().filter(|t| !t.is_empty()).count();
    gops.iter().map(|g| 1 + g.frames.iter().map(frame).sum::<usize>()).sum()
}

/// `k` tiles out of one serialised 4×4 GOP of `n` Venice frames, the way
/// the scan's `TILESELECT` takes them (one walk recording each frame's
/// tile offsets, then one exactly-sized buffer per requested tile)
/// against the chunk-domain operator it replaced (parse every tile,
/// then `extract_tile` each requested one), with the heap allocations
/// each makes per GOP. Allocations are counted from the values: the
/// walker allocates its output list and, per tile, a buffer and the
/// reference count that shares it; the parser also one tile-length
/// list per frame and the whole parsed GOP. `lightdb-codec`'s
/// allocation test pins the walker's count with a counting allocator.
fn multi_tile_extraction(target: f64, w: usize, h: usize, n: usize) {
    let bytes = tiled_gop_bytes(w, h, n);
    for tiles in [vec![5], vec![5, 6, 9, 10], (0..15).collect::<Vec<usize>>()] {
        let walk = || EncodedGop::extract_tiles(&bytes, &tiles).expect("walk");
        let parse = || {
            let gop = ParsedGop::from_bytes(&bytes).expect("parse");
            let out: Vec<ParsedGop> =
                tiles.iter().map(|&t| gop.extract_tile(t).expect("extract")).collect();
            (gop, out)
        };
        let (parsed, extracted) = parse();
        let walked = walk();
        assert!(
            walked.iter().map(EncodedGop::as_bytes).eq(extracted.iter().map(|g| g.to_bytes())),
            "walker and parser disagree on tiles {tiles:?}"
        );
        let walk_allocs = 1 + 2 * walked.len();
        let parse_allocs = buffers(std::slice::from_ref(&parsed))
            + parsed.frames.len()
            + 1
            + buffers(&extracted);
        let (fast, refr) = rate2(
            target,
            || {
                drop(black_box(walk()));
                1
            },
            || {
                drop(black_box(parse()));
                1
            },
        );
        let k = tiles.len();
        crate::row(
            &format!("multi-tile extract k={k} (us/GOP)"),
            &[format!("{:.3}", 1e6 / fast), format!("{:.3}", 1e6 / refr), format!("{:.2}x", fast / refr)],
        );
        crate::row(
            &format!("  k={k} allocations/GOP"),
            &[
                walk_allocs.to_string(),
                parse_allocs.to_string(),
                format!("{:.1}x fewer", parse_allocs as f64 / walk_allocs as f64),
            ],
        );
    }
}

/// One row of milliseconds per unit from two rates (units/s).
fn print_ms_row(label: &str, fast: f64, reference: f64, note: &str) {
    let [fast, reference] = [fast, reference].map(|rate| format!("{:.3}", 1e3 / rate));
    crate::row(label, &[fast, reference, note.into()]);
}

fn sphere() -> Volume {
    Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0))
}

fn whole_sphere_chunk(frames: Vec<Frame>) -> Chunk {
    Chunk {
        t_index: 0,
        part: 0,
        volume: sphere(),
        info: StreamInfo::origin(30),
        payload: ChunkPayload::Decoded {
            frames,
            device: Device::Cpu,
        },
    }
}

/// The decoded-frame operators on one chunk of decoded Venice frames:
/// `UNION … LAST` with a second clip of the same size and with the
/// static 64×32 watermark (resized to the canvas), against the
/// per-pixel compositor; `MAP` grayscale and blur on one thread and on
/// two.
fn frame_ops(target: f64, n: usize) {
    let (_, base) = stored_gop(512, 256, n, TileGrid::SINGLE);
    let mut second = base.clone();
    second.rotate_left(1);
    let mark = vec![lightdb_datasets::watermark_frame(64, 32); n];
    for (what, overlay) in [("same size", second), ("watermark", mark)] {
        let inputs = [(sphere(), base.clone()), (sphere(), overlay)];
        let composite = || {
            let group = inputs.iter().map(|(_, f)| whole_sphere_chunk(f.clone())).collect();
            composite_group(group, &MergeFunction::Last).expect("composite")
        };
        let composite_oracle = || union_oracle::composite(&inputs, &MergeFunction::Last);
        let got = composite();
        let ChunkPayload::Decoded { frames, .. } = &got[0].payload else {
            unreachable!("composite_group yields decoded chunks")
        };
        assert_eq!(frames, &composite_oracle().1, "fast and oracle {what} unions diverge");
        let (fast, refr) = rate2(
            target,
            || {
                black_box(composite());
                n as u64
            },
            || {
                black_box(composite_oracle());
                n as u64
            },
        );
        print_ms_row(&format!("union {what} (ms/frame)"), fast, refr, &format!("{:.2}x", fast / refr));
    }
    for (what, b) in [("gray", BuiltinMap::Grayscale), ("blur", BuiltinMap::Blur)] {
        let f = MapFunction::Builtin(b);
        let metrics = Metrics::new();
        let map = |threads| {
            map_chunk(whole_sphere_chunk(base.clone()), &f, &metrics, Parallelism::new(threads))
                .expect("map")
        };
        assert_eq!(map(1), map(2), "MAP {what} differs between one thread and two");
        let (one, two) = rate2(
            target,
            || {
                black_box(map(1));
                1
            },
            || {
                black_box(map(2));
                1
            },
        );
        print_ms_row(&format!("MAP {what} 1t/2t (ms/chunk)"), one, two, &format!("{:.2}x", two / one));
    }
}

/// The same deterministic moving scene the codec tests use.
pub fn scene(w: usize, h: usize, n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 3 * i) as f64 / 9.0).sin() * 60.0
                        + (y as f64 / 7.0).cos() * 50.0
                        + 128.0) as u8;
                    f.set(x, y, Yuv::new(v, (x % 256) as u8, (y % 256) as u8));
                }
            }
            f
        })
        .collect()
}

fn end_to_end(target: f64, w: usize, h: usize, n: usize) {
    let frames = scene(w, h, n);
    let enc = Encoder::new(EncoderConfig {
        qp: 20,
        gop_length: 6,
        grid: TileGrid::new(2, 2),
        ..Default::default()
    })
    .expect("valid config");
    let stream = enc.encode(&frames).expect("encode");
    let dec = Decoder::new();
    assert_eq!(
        dec.decode(&stream).expect("decode").len(),
        n,
        "roundtrip frame count"
    );

    let units = n as u64;
    let (enc_rate, dec_rate) = rate2(
        target.max(0.01),
        || {
            black_box(enc.encode(black_box(&frames)).expect("encode"));
            units
        },
        || {
            black_box(dec.decode(black_box(&stream)).expect("decode"));
            units
        },
    );
    crate::row(
        "e2e (frames/s)",
        &[
            fmt_rate(enc_rate),
            fmt_rate(dec_rate),
            format!("{}x{} enc/dec", w, h),
        ],
    );
}

/// Runs every kernel benchmark and prints one table. `smoke` shrinks
/// the workloads and measurement windows to CI scale.
pub fn print(smoke: bool) {
    let target = if smoke { 0.02 } else { 0.5 };
    println!(
        "Codec kernel throughput, single thread unless a row says otherwise{} — fast vs. \
         retained reference kernels",
        if smoke { " (smoke scale)" } else { "" }
    );
    crate::row(
        "kernel",
        &["fast".into(), "reference".into(), "speedup".into()],
    );
    entropy(target, if smoke { 1 << 12 } else { 1 << 16 });
    dct(target, if smoke { 64 } else { 512 });
    sad(target, if smoke { 64 } else { 192 });
    block_sum_intra(target, if smoke { 64 } else { 192 });
    if smoke {
        end_to_end(0.0, 64, 32, 4);
    } else {
        end_to_end(1.0, 256, 128, 12);
    }
    quantize(target, if smoke { 64 } else { 512 });
    search(target, 4);
    search(target, 16);
    let tiles = tile_frames(if smoke { 3 } else { 30 });
    tile_gops(target, &tiles, 24);
    tile_gops(target, &tiles, 45);
    zero_proof(target, &tiles, 24);
    let n = if smoke { 3 } else { 30 };
    decode_gops(target, 512, 256, n, TileGrid::SINGLE);
    decode_gops(target, 512, 256, n, TileGrid::new(2, 2));
    decode_gops(target, 128, 64, n, TileGrid::SINGLE);
    frame_ops(target, n);
    let (w, h) = if smoke { (128, 64) } else { (256, 128) };
    tile_extraction(target, w, h, 4);
    tile_extraction(target, w, h, 30);
    multi_tile_extraction(target, w, h, 4);
    println!("ok: all fast/reference cross-checks passed");
}

#[cfg(test)]
mod tests {
    /// The smoke configuration must run, cross-check every kernel
    /// pair, and not panic — this is what CI executes in release mode.
    #[test]
    fn smoke_runs_and_cross_checks() {
        super::print(true);
    }
}
