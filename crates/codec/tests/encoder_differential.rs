//! The encoder's exact shortcuts against the paths they replaced
//! (`oracle`): a division-free quantiser for zero levels, the all-zero
//! block short-circuit with its SAD gate, and successive elimination
//! in the motion search. Each must change no output bit; CI runs this
//! file in release mode too, where the optimiser sees the same
//! comparisons.

mod oracle;

use lightdb_codec::encoder::encode_tile_opts;
use lightdb_codec::predict::{mb_sum, motion_search, sad_mb, BlockSums, MotionVector};
use lightdb_codec::quant::{qstep_x64, quantize, zero_block_sad_bound, QP_MAX, WEIGHTS};
use lightdb_codec::scratch::EncoderWork;
use lightdb_codec::transform::{forward, COEFF_FRAC_BITS};
use lightdb_codec::{CodecKind, TileRect, MB_SIZE};
use lightdb_frame::{Frame, PlaneKind};
use proptest::prelude::*;

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

// ------------------------------------------------------------ quantiser

/// Shipped and oracle quantiser on the same block: same levels, and
/// the shipped count is the number of nonzero ones.
fn assert_quantize_agrees(block: &[i32; 64], qp: u8, deadzone: bool) {
    let (mut new, mut old) = (*block, *block);
    let nnz = quantize(&mut new, qp, deadzone);
    oracle::quantize(&mut old, qp, deadzone);
    assert_eq!(new, old, "qp {qp} deadzone {deadzone} block {block:?}");
    assert_eq!(nnz as usize, old.iter().filter(|&&l| l != 0).count());
}

/// Every coefficient a ±255 residual can produce (|c| ≤ 32 640 at 16
/// times the orthonormal scale; the sweep covers the `i16` range), at
/// every position (a uniform block puts `c` on all 64 at once), for
/// every quantiser.
#[test]
fn quantize_matches_oracle_over_the_reachable_range() {
    for qp in 0..=QP_MAX {
        for deadzone in [false, true] {
            for c in i16::MIN as i32..=i16::MAX as i32 {
                assert_quantize_agrees(&[c; 64], qp, deadzone);
            }
        }
    }
}

/// Bin edges: level `k` starts where `|c|·64 + offset` reaches
/// `k·div`, so the coefficients either side of each edge are where a
/// compare-first quantiser could disagree with a divide-always one —
/// out to the ends of `i32`, which no residual reaches but the
/// function accepts.
#[test]
fn quantize_matches_oracle_at_bin_edges() {
    for qp in 0..=QP_MAX {
        let step = (qstep_x64(qp) as i64) << COEFF_FRAC_BITS;
        for (deadzone, offset) in [(false, step / 2), (true, step / 6)] {
            for (i, &w) in WEIGHTS.iter().enumerate() {
                let div = step * w as i64 / 16;
                let mut probes = vec![0, i32::MAX as i64, i32::MIN as i64, i32::MIN as i64 + 1];
                let mut k = 1i64;
                while (k * div - offset) / 64 <= i32::MAX as i64 {
                    let edge = (k * div - offset) / 64;
                    probes.extend([edge - 1, edge, edge + 1, k * div - 1, k * div, k * div + 1]);
                    k = k * 3 + 1;
                }
                for c in probes {
                    let Ok(c) = i32::try_from(c) else { continue };
                    for c in [c, c.wrapping_neg()] {
                        // Alone in the block, and beside neighbours
                        // that survive.
                        let mut block = [0i32; 64];
                        block[i] = c;
                        assert_quantize_agrees(&block, qp, deadzone);
                        block[(i + 1) % 64] = 2040;
                        block[(i + 9) % 64] = -2040;
                        assert_quantize_agrees(&block, qp, deadzone);
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------- SAD gate

/// Basis row `u` of the orthonormal `f64` DCT. Its signs and its peak
/// positions are those of the integer matrix's row `u`, so the worst
/// cases below are the integer transform's too.
fn basis_row(u: usize) -> [f64; 8] {
    let alpha = if u == 0 {
        (1.0f64 / 8.0).sqrt()
    } else {
        (2.0f64 / 8.0).sqrt()
    };
    std::array::from_fn(|x| {
        alpha * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos()
    })
}

/// Nonzero levels of a residual through the path the gate skips.
fn nnz_via_oracle(residual: &[i32; 64], qp: u8, deadzone: bool) -> usize {
    let mut coeffs = forward(residual);
    oracle::quantize(&mut coeffs, qp, deadzone);
    coeffs.iter().filter(|&&l| l != 0).count()
}

/// For every quantiser and every coefficient position, the two
/// residuals of a given SAD that push that coefficient furthest —
/// the sign pattern of its basis image at uniform magnitude, and all
/// the mass on the basis image's peak pixel — still quantise to
/// nothing one below the gate. And the gate is not slack: two above
/// it, some position's peak-pixel residual does survive.
#[test]
fn sad_gate_holds_against_worst_case_residuals() {
    let rows: [[f64; 8]; 8] = std::array::from_fn(basis_row);
    for qp in 0..=QP_MAX {
        for deadzone in [false, true] {
            let bound = zero_block_sad_bound(qp, deadzone);
            assert!(
                bound >= 1,
                "qp {qp}: a zero residual must pass its own gate"
            );
            let sad = (bound - 1) as i32;
            let mut tight = false;
            for v in 0..8 {
                for u in 0..8 {
                    let image = |i: usize| rows[u][i % 8] * rows[v][i / 8];
                    let spread: [i32; 64] = std::array::from_fn(|i| {
                        let magnitude = sad / 64 + ((i as i32) < sad % 64) as i32;
                        if image(i) < 0.0 {
                            -magnitude
                        } else {
                            magnitude
                        }
                    });
                    assert_eq!(spread.iter().map(|r| r.abs()).sum::<i32>(), sad);
                    assert_eq!(
                        nnz_via_oracle(&spread, qp, deadzone),
                        0,
                        "spread qp {qp} ({u},{v})"
                    );

                    let peak = (0..64)
                        .max_by(|&a, &b| image(a).abs().total_cmp(&image(b).abs()))
                        .unwrap();
                    for sign in [1, -1] {
                        let mut spike = [0i32; 64];
                        spike[peak] = sign * sad;
                        assert_eq!(
                            nnz_via_oracle(&spike, qp, deadzone),
                            0,
                            "spike qp {qp} ({u},{v})"
                        );
                        spike[peak] = sign * (sad + 2);
                        tight |= nnz_via_oracle(&spike, qp, deadzone) > 0;
                    }
                }
            }
            assert!(tight, "qp {qp} deadzone {deadzone}: gate {bound} is slack");
        }
    }
}

proptest! {
    /// Any residual under the gate quantises to nothing.
    #[test]
    fn any_residual_under_the_sad_gate_is_all_zero(
        weights in proptest::collection::vec(-255i32..=255, 64),
        qp in 0u8..=QP_MAX,
        deadzone in any::<bool>(),
        fraction in 0u32..=1000,
    ) {
        let bound = zero_block_sad_bound(qp, deadzone);
        let target = ((bound - 1) as u64 * fraction as u64 / 1000) as i64;
        let total: i64 = weights.iter().map(|w| w.abs() as i64).sum();
        let mut residual = [0i32; 64];
        if total > 0 {
            for (r, &w) in residual.iter_mut().zip(&weights) {
                *r = (w as i64 * target.min(total) / total) as i32;
            }
        }
        let sad: u32 = residual.iter().map(|r| r.unsigned_abs()).sum();
        prop_assert!(sad < bound);
        prop_assert_eq!(nnz_via_oracle(&residual, qp, deadzone), 0);
    }
}

// -------------------------------------------------------- motion search

/// Luma planes that stress the search differently.
#[derive(Debug, Clone, Copy)]
enum Scene {
    /// Independent noise: no candidate is close, sums rule most out.
    Noise,
    /// One value everywhere: every candidate ties at SAD 0.
    Flat,
    /// An 8-pixel period in both axes: exact ties between distant
    /// candidates, so visiting order decides.
    Periodic,
    /// The reference shifted by a few pixels under light flicker: a
    /// real vector to find, often off the coarse lattice.
    Translated,
    /// A faint texture, shifted and uniformly brightened: the source is
    /// above the reference at every pixel of every candidate, so each
    /// candidate's SAD *equals* its block-sum bound and neighbouring
    /// candidates differ by a few units — eliminating one candidate
    /// too many changes the winner.
    Faded,
}

const SCENES: [Scene; 5] = [
    Scene::Noise,
    Scene::Flat,
    Scene::Periodic,
    Scene::Translated,
    Scene::Faded,
];

/// `(source, reference)` planes of one scene.
fn planes(scene: Scene, w: usize, h: usize, rng: &mut Rng) -> (Vec<u8>, Vec<u8>) {
    let noise = |rng: &mut Rng| {
        (0..w * h)
            .map(|_| rng.below(256) as u8)
            .collect::<Vec<u8>>()
    };
    match scene {
        Scene::Noise => (noise(rng), noise(rng)),
        Scene::Flat => (vec![77; w * h], vec![rng.pick(&[77u8, 78, 200]); w * h]),
        Scene::Periodic => {
            let cell: Vec<u8> = (0..64).map(|_| rng.below(256) as u8).collect();
            let tile = |ox: usize, oy: usize| {
                (0..w * h)
                    .map(|i| cell[((i / w + oy) % 8) * 8 + (i % w + ox) % 8])
                    .collect::<Vec<u8>>()
            };
            (tile(0, 0), tile(rng.below(8), rng.below(8)))
        }
        Scene::Translated => {
            let reference = noise(rng);
            let (sx, sy) = (rng.below(9) as i32 - 4, rng.below(9) as i32 - 4);
            let flicker = rng.pick(&[0usize, 2, 6]);
            let src = (0..w * h)
                .map(|i| {
                    let x = ((i % w) as i32 + sx).clamp(0, w as i32 - 1) as usize;
                    let y = ((i / w) as i32 + sy).clamp(0, h as i32 - 1) as usize;
                    let n = if flicker == 0 {
                        0
                    } else {
                        rng.below(flicker + 1) as i32
                    };
                    (reference[y * w + x] as i32 + n - flicker as i32 / 2).clamp(0, 255) as u8
                })
                .collect();
            (src, reference)
        }
        Scene::Faded => {
            let reference: Vec<u8> = (0..w * h).map(|_| 100 + rng.below(5) as u8).collect();
            let (sx, sy) = (rng.below(7) as i32 - 3, rng.below(7) as i32 - 3);
            let lift = 5 + rng.below(4) as u8;
            let src = (0..w * h)
                .map(|i| {
                    let x = ((i % w) as i32 + sx).clamp(0, w as i32 - 1) as usize;
                    let y = ((i / w) as i32 + sy).clamp(0, h as i32 - 1) as usize;
                    reference[y * w + x] + lift + rng.below(2) as u8
                })
                .collect();
            (src, reference)
        }
    }
}

/// The shipped search with the block sums it expects.
fn shipped_search(
    src: &[u8],
    reference: &[u8],
    (w, h): (usize, usize),
    rect: &TileRect,
    (mbx, mby): (usize, usize),
    range: i32,
) -> (MotionVector, u32, EncoderWork) {
    let mut sums = BlockSums::default();
    sums.rebuild(reference, w, h);
    let mut work = EncoderWork::default();
    let src_sum = mb_sum(src, w, mbx, mby);
    let (mv, sad) = motion_search(
        src, reference, w, rect, mbx, mby, range, src_sum, &sums, &mut work,
    );
    (mv, sad, work)
}

/// Same vector, same SAD, and the same candidates walked (eliminated
/// or measured) as the exhaustive scan — on every macroblock of tiles
/// that sit anywhere inside a larger plane, so windows are clipped by
/// each tile edge and by none.
#[test]
fn motion_search_matches_oracle() {
    let mut rng = Rng(0x5ea2c4);
    let (w, h) = (80, 64);
    let (mut eliminated, mut zero_exits) = (0, 0);
    for round in 0..300 {
        let scene = SCENES[round % SCENES.len()];
        let (src, reference) = planes(scene, w, h, &mut rng);
        let rect = TileRect {
            x0: rng.below(3) * MB_SIZE,
            y0: rng.below(2) * MB_SIZE,
            w: (1 + rng.below(3)) * MB_SIZE,
            h: (1 + rng.below(3)) * MB_SIZE,
        };
        for range in [4, 8, 16] {
            for mby in (rect.y0..rect.y0 + rect.h).step_by(MB_SIZE) {
                for mbx in (rect.x0..rect.x0 + rect.w).step_by(MB_SIZE) {
                    let (mv, sad, work) =
                        shipped_search(&src, &reference, (w, h), &rect, (mbx, mby), range);
                    let (omv, osad, walked) =
                        oracle::motion_search(&src, &reference, w, &rect, mbx, mby, range);
                    let at = format!(
                        "{scene:?} round {round} range {range} mb ({mbx},{mby}) in {rect:?}"
                    );
                    assert_eq!((mv, sad), (omv, osad), "{at}");
                    let zero_vector_sad =
                        sad_mb(&src, w, mbx, mby, &reference, w, mbx, mby, u32::MAX);
                    if zero_vector_sad == 0 {
                        assert_eq!((work.zero_sad_exits, work.mv_candidates), (1, 0), "{at}");
                    } else {
                        assert_eq!(
                            (work.zero_sad_exits, work.mv_candidates),
                            (0, walked),
                            "{at}"
                        );
                    }
                    assert!(work.mv_eliminated <= work.mv_candidates);
                    eliminated += work.mv_eliminated;
                    zero_exits += work.zero_sad_exits;
                }
            }
        }
    }
    assert!(
        eliminated > 0 && zero_exits > 0,
        "the sweep never took a shortcut"
    );
}

/// The block-sum table is `mb_sum` at every position, including on a
/// saturated plane, where a sum is the largest a `u16` has to hold.
#[test]
fn block_sums_match_direct_sums() {
    let mut rng = Rng(0xb10c);
    let mut sums = BlockSums::default();
    for (w, h) in [(16, 16), (48, 32), (32, 80), (128, 64)] {
        for saturated in [false, true] {
            let plane: Vec<u8> = (0..w * h)
                .map(|_| if saturated { 255 } else { rng.below(256) as u8 })
                .collect();
            // Reused across geometries, as the encoder's is across tiles.
            sums.rebuild(&plane, w, h);
            for y in 0..=h - MB_SIZE {
                for x in 0..=w - MB_SIZE {
                    assert_eq!(
                        sums.at(x, y),
                        mb_sum(&plane, w, x, y),
                        "{w}x{h} at ({x},{y})"
                    );
                }
            }
        }
    }
}

/// Stage 2 as it would be if it refined around the coarse winner and
/// stayed there: the reading of "±1 refinement" the shipped search
/// must *not* implement.
fn fixed_centre_search(
    src: &[u8],
    reference: &[u8],
    w: usize,
    (mbx, mby): (usize, usize),
    range: i32,
) -> (MotionVector, u32) {
    let at = |dx: i32, dy: i32| {
        let (x, y) = ((mbx as i32 + dx) as usize, (mby as i32 + dy) as usize);
        sad_mb(src, w, mbx, mby, reference, w, x, y, u32::MAX)
    };
    let mut best = (MotionVector::default(), at(0, 0));
    for dy in (-range..=range).step_by(2) {
        for dx in (-range..=range).step_by(2) {
            if at(dx, dy) < best.1 {
                best = (MotionVector { dx, dy }, at(dx, dy));
            }
        }
    }
    let centre = best.0;
    for ry in -1..=1 {
        for rx in -1..=1 {
            let (dx, dy) = (centre.dx + rx, centre.dy + ry);
            if dx.abs() <= range && dy.abs() <= range && at(dx, dy) < best.1 {
                best = (MotionVector { dx, dy }, at(dx, dy));
            }
        }
    }
    best
}

/// Stage 2 re-reads the incumbent at every step, so a neighbour that
/// wins moves the centre for the neighbours after it. On this plane
/// that changes the answer: the drifting refinement ends outside the
/// coarse winner's own 3×3 neighbourhood, on a better vector than a
/// fixed-centre refinement can reach. The bitstream depends on it.
#[test]
fn stage_two_centre_drifts_with_the_incumbent() {
    let (w, h) = (64, 64);
    let (src, reference) = planes(Scene::Noise, w, h, &mut Rng(DRIFT_SEED));
    let rect = TileRect { x0: 0, y0: 0, w, h };
    let mb = (MB_SIZE, MB_SIZE);
    let (mv, sad, _) = shipped_search(&src, &reference, (w, h), &rect, mb, 4);
    let (omv, osad, _) = oracle::motion_search(&src, &reference, w, &rect, mb.0, mb.1, 4);
    assert_eq!((mv, sad), (omv, osad));
    let (fixed_mv, fixed_sad) = fixed_centre_search(&src, &reference, w, mb, 4);
    assert!(
        sad < fixed_sad,
        "drift found {mv:?}/{sad}, fixed centre {fixed_mv:?}/{fixed_sad}"
    );
}

/// A seed on which the interior macroblock of a 64×64 noise plane
/// separates the two refinements (found by scanning seeds upward).
const DRIFT_SEED: u64 = 55;

// ----------------------------------------------------------- whole tile

fn frame_from_luma(w: usize, h: usize, luma: &[u8], rng: &mut Rng) -> Frame {
    let mut f = Frame::new(w, h);
    f.plane_mut(PlaneKind::Luma).copy_from_slice(luma);
    // Chroma: a ramp with a little grain, so chroma blocks land on
    // both sides of the zero paths too.
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        let grain = rng.pick(&[1usize, 4, 40]);
        for (i, p) in f.plane_mut(plane).iter_mut().enumerate() {
            *p = ((i % (w / 2)) * 3 + rng.below(grain)) as u8;
        }
    }
    f
}

/// Payload and reconstruction of the shipped tile encoder against the
/// oracle's, over 2 000 seeded tiles: key frames and predicted frames
/// (chained on the shipped reconstruction), every kind of scene, every
/// quantiser, both profiles, the three search ranges in use.
#[test]
fn tile_encode_matches_oracle_over_a_seeded_sweep() {
    let mut rng = Rng(0x711e);
    let mut tiles = 0;
    while tiles < 2000 {
        let (w, h) = rng.pick(&[(16, 16), (32, 32), (48, 32), (64, 32), (32, 64)]);
        let scene = rng.pick(&SCENES);
        let qp = rng.below(QP_MAX as usize + 1) as u8;
        let codec = rng.pick(&[CodecKind::H264Sim, CodecKind::HevcSim]);
        let range = rng.pick(&[4, 8, 16]);
        let (a, b) = planes(scene, w, h, &mut rng);
        let mut reference: Option<Frame> = None;
        // `b` is `a`'s reference scene, so encode it first; the third
        // frame repeats the second (static content after motion).
        for luma in [&b, &a, &a] {
            let src = frame_from_luma(w, h, luma, &mut rng);
            let new = encode_tile_opts(&src, reference.as_ref(), qp, codec, range);
            let old = oracle::encode_tile_opts(&src, reference.as_ref(), qp, codec, range);
            let at = format!("tile {tiles}: {w}x{h} {scene:?} qp {qp} {codec:?} range {range}");
            assert_eq!(new.0, old.0, "payload, {at}");
            assert_eq!(new.1, old.1, "reconstruction, {at}");
            reference = Some(new.1);
            tiles += 1;
        }
    }
}

/// The mode decision on a block the search matched exactly
/// (`sad == 0`, zero vector) is `16 < intra_cost`. A flat macroblock
/// with `n` pixels one above the rest has intra cost exactly `n`, so
/// the decision flips between 16 and 17 — with the block's sum handed
/// over from the search instead of recomputed.
#[test]
fn intra_inter_decision_is_unchanged_on_flat_blocks() {
    for n in [0usize, 1, 15, 16, 17, 18, 255] {
        for base in [0u8, 100, 254] {
            let mut src = Frame::new(MB_SIZE, MB_SIZE);
            let luma = src.plane_mut(PlaneKind::Luma);
            luma.fill(base);
            // Spread the raised pixels out rather than filling rows.
            for k in 0..n {
                luma[(k * 37) % 256] = base + 1;
            }
            assert_eq!(luma.iter().filter(|&&p| p == base + 1).count(), n);
            let reference = src.clone();
            let new = encode_tile_opts(&src, Some(&reference), 24, CodecKind::HevcSim, 4);
            let old = oracle::encode_tile_opts(&src, Some(&reference), 24, CodecKind::HevcSim, 4);
            assert_eq!(new, old, "n {n} base {base}");
            // First payload bit after the qp byte: 1 = intra.
            assert_eq!(new.0[1] >> 7 == 1, n <= 16, "n {n} base {base}");
        }
    }
}
