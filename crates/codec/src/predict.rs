//! Prediction: intra DC predictors and motion estimation /
//! compensation, both constrained to tile boundaries.

use crate::scratch::EncoderWork;
use crate::tile::TileRect;
use crate::{BLOCK_SIZE, MB_SIZE};

/// Copies an `n × n` block out of a plane into an `i32` work block.
/// Each row is widened from one contiguous slice so the bounds check
/// happens once per row, not once per pixel.
pub fn extract_block<const SZ: usize>(
    plane: &[u8],
    stride: usize,
    x: usize,
    y: usize,
) -> [i32; SZ] {
    let n = isqrt(SZ);
    let mut out = [0i32; SZ];
    for row in 0..n {
        let base = (y + row) * stride + x;
        let src = &plane[base..base + n];
        for (dst, &px) in out[row * n..row * n + n].iter_mut().zip(src) {
            *dst = px as i32;
        }
    }
    out
}

/// Writes an `i32` work block back into a plane, clamping to `0..=255`,
/// one row slice at a time.
pub fn store_block<const SZ: usize>(
    plane: &mut [u8],
    stride: usize,
    x: usize,
    y: usize,
    block: &[i32; SZ],
) {
    let n = isqrt(SZ);
    for row in 0..n {
        let base = (y + row) * stride + x;
        let dst = &mut plane[base..base + n];
        for (px, &v) in dst.iter_mut().zip(&block[row * n..row * n + n]) {
            *px = v.clamp(0, 255) as u8;
        }
    }
}

/// Copies the `BLOCK_SIZE²` block at `(sx, sy)` of `src` to `(dx, dy)`
/// of `dst` (planes of one stride), a row slice at a time — what an
/// uncoded inter block decodes to.
pub fn copy_block(
    src: &[u8],
    dst: &mut [u8],
    stride: usize,
    (sx, sy): (usize, usize),
    (dx, dy): (usize, usize),
) {
    // lint: hot-loop — runs per uncoded inter block
    for row in 0..BLOCK_SIZE {
        let (s, d) = ((sy + row) * stride + sx, (dy + row) * stride + dx);
        dst[d..d + BLOCK_SIZE].copy_from_slice(&src[s..s + BLOCK_SIZE]);
    }
    // lint: end-hot-loop
}

/// Fills the `BLOCK_SIZE²` block at `(x, y)` with `value` — what an
/// uncoded intra block decodes to.
pub fn fill_block(plane: &mut [u8], stride: usize, x: usize, y: usize, value: u8) {
    // lint: hot-loop — runs per uncoded intra block
    for row in 0..BLOCK_SIZE {
        let base = (y + row) * stride + x;
        plane[base..base + BLOCK_SIZE].fill(value);
    }
    // lint: end-hot-loop
}

/// Integer square root of the (tiny, perfect-square) block sizes used
/// by the const-generic block helpers.
#[inline]
fn isqrt(sz: usize) -> usize {
    let mut n = 1;
    while n * n < sz {
        n += 1;
    }
    debug_assert_eq!(n * n, sz);
    n
}

/// DC intra predictor for the `BLOCK_SIZE²` block at `(x, y)`:
/// averages the reconstructed row above and column left of the block,
/// using only samples inside `rect` (the tile). Falls back to 128
/// when no neighbours are available (tile's top-left block).
pub fn dc_predictor(recon: &[u8], stride: usize, rect: &TileRect, x: usize, y: usize) -> i32 {
    let mut sum = 0u32;
    let mut count = 0u32;
    if y > rect.y0 {
        let base = (y - 1) * stride + x;
        for col in 0..BLOCK_SIZE {
            sum += recon[base + col] as u32;
        }
        count += BLOCK_SIZE as u32;
    }
    if x > rect.x0 {
        for row in 0..BLOCK_SIZE {
            sum += recon[(y + row) * stride + x - 1] as u32;
        }
        count += BLOCK_SIZE as u32;
    }
    if count == 0 {
        return 128;
    }
    ((sum + count / 2) / count) as i32
}

/// Rows between [`sad_mb`]'s early-exit checks. Of 1, 2, 4, 8 and 16,
/// eight measured fastest on tile-GOP encodes at search range 16 and
/// within 3 % of sixteen at range 4 (EXPERIMENTS.md, "Motion search on
/// the SAD instruction").
const SAD_EXIT_ROWS: usize = 8;

/// `Σ |a[i] − b[i]|` over the first `MB_SIZE` bytes of two rows. In
/// `u8` as `max − min`, LLVM lowers the row to one `psadbw` on x86-64
/// (SSE2, part of the baseline). The sum is at most `16·255`; a whole
/// block's, `256·255`, still fits a `u16`.
#[inline(always)]
fn row_sad(a: &[u8], b: &[u8]) -> u16 {
    a[..MB_SIZE]
        .iter()
        .zip(&b[..MB_SIZE])
        .map(|(&x, &y)| u16::from(x.max(y) - x.min(y)))
        .sum()
}

/// Sum of absolute differences between the `MB_SIZE²` luma block at
/// `(ax, ay)` in `a` and the one at `(bx, by)` in `b`. `early_exit`
/// aborts once the partial sum reaches the bound.
///
/// The bound is checked every [`SAD_EXIT_ROWS`] rows, not every row as
/// in the scalar reference; the caller-visible contract the motion
/// search depends on is unchanged: a completed call returns the exact
/// SAD, and an aborted call returns *some* value `≥ early_exit` — so
/// every `sad < best_sad` decision is identical to the reference.
#[allow(clippy::too_many_arguments)]
pub fn sad_mb(
    a: &[u8],
    a_stride: usize,
    ax: usize,
    ay: usize,
    b: &[u8],
    b_stride: usize,
    bx: usize,
    by: usize,
    early_exit: u32,
) -> u32 {
    let (a, b) = (&a[ay * a_stride + ax..], &b[by * b_stride + bx..]);
    let mut sum = 0u32;
    // lint: hot-loop — SAD inner loop runs per candidate motion vector
    for first in (0..MB_SIZE).step_by(SAD_EXIT_ROWS) {
        let part: u16 = (first..first + SAD_EXIT_ROWS)
            .map(|row| row_sad(&a[row * a_stride..], &b[row * b_stride..]))
            .sum();
        sum += u32::from(part);
        // `>=` matters: a candidate that merely *ties* the incumbent
        // can never win, so it must exit too — otherwise uniform
        // regions (every candidate SAD = 0) degrade to an exhaustive
        // search.
        if sum >= early_exit {
            break;
        }
    }
    // lint: end-hot-loop
    sum
}

/// SAD of the `MB_SIZE²` luma block at `(x, y)` against a flat block of
/// `level`.
fn flat_sad(plane: &[u8], stride: usize, x: usize, y: usize, level: u8) -> u32 {
    let (block, flat) = (&plane[y * stride + x..], [level; MB_SIZE]);
    let sad: u16 = (0..MB_SIZE)
        .map(|row| row_sad(&block[row * stride..], &flat))
        .sum();
    u32::from(sad)
}

/// A full-pel motion vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    pub dx: i32,
    pub dy: i32,
}

/// Sum of the `MB_SIZE²` luma block at `(x, y)`: its SAD against zero.
pub fn mb_sum(plane: &[u8], stride: usize, x: usize, y: usize) -> u32 {
    flat_sad(plane, stride, x, y, 0)
}

/// The encoder's intra cost estimate: the SAD of the luma block at
/// `(x, y)` against its own mean; `sum` is its [`mb_sum`], which the
/// motion search needed first.
pub fn intra_cost_estimate(plane: &[u8], stride: usize, x: usize, y: usize, sum: u32) -> u32 {
    // A block sum is at most 256·255, so its mean fits a byte.
    let mean = (sum / (MB_SIZE * MB_SIZE) as u32) as u8;
    flat_sad(plane, stride, x, y, mean)
}

/// [`mb_sum`] of a plane at every position a macroblock fits, built by
/// sliding windows (four adds per sample) into buffers that are reused
/// from one reference frame to the next. `u16` holds any sum:
/// `256·255 < 2^16`.
#[derive(Debug, Default)]
pub struct BlockSums {
    /// Positions per row, `width − 15`.
    cols: usize,
    sums: Vec<u16>,
    /// Sixteen-row column sums for the row of positions being built.
    column: Vec<u16>,
}

impl BlockSums {
    /// Recomputes the table for a `width × height` plane.
    pub fn rebuild(&mut self, plane: &[u8], width: usize, height: usize) {
        self.cols = width.saturating_sub(MB_SIZE - 1);
        let rows = height.saturating_sub(MB_SIZE - 1);
        self.sums.resize(self.cols * rows, 0); // every entry is overwritten below
        self.column.clear();
        self.column.resize(width, 0);
        if self.sums.is_empty() {
            return;
        }
        // lint: hot-loop — once per reference frame, inside the per-tile encode
        for row in plane[..(MB_SIZE - 1) * width].chunks_exact(width) {
            for (c, &p) in self.column.iter_mut().zip(row) {
                *c += p as u16;
            }
        }
        for (y, out) in self.sums.chunks_exact_mut(self.cols).enumerate() {
            // Slide the column window down: row y+15 enters, y−1 leaves.
            let enter = &plane[(y + MB_SIZE - 1) * width..][..width];
            for (c, &p) in self.column.iter_mut().zip(enter) {
                *c += p as u16;
            }
            if y > 0 {
                let leave = &plane[(y - 1) * width..][..width];
                for (c, &p) in self.column.iter_mut().zip(leave) {
                    *c -= p as u16;
                }
            }
            // Slide the 16-column window right.
            let mut sum: u32 = self.column[..MB_SIZE].iter().map(|&c| c as u32).sum();
            out[0] = sum as u16;
            let (leave, enter) = (&self.column, &self.column[MB_SIZE..]);
            for ((o, &l), &e) in out[1..].iter_mut().zip(leave).zip(enter) {
                sum = sum + e as u32 - l as u32;
                *o = sum as u16;
            }
        }
        // lint: end-hot-loop
    }

    /// The block sum at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u32 {
        self.sums[y * self.cols + x] as u32
    }
}

/// Full-pel motion search for the macroblock at `(mbx, mby)` (pixel
/// coordinates) against the reconstructed reference plane, whose
/// block sums are `ref_sums`; `src_sum` is the macroblock's own
/// [`mb_sum`].
///
/// The search window is clamped so the referenced block lies entirely
/// within `rect` — the motion-constrained-tile-set guarantee that
/// makes tiles independently decodable.
///
/// The result is part of the bitstream contract, and three details of
/// the scan decide it. The incumbent starts as the zero vector and is
/// replaced only by a *strictly* smaller SAD, so among equals the
/// first one visited wins. Stage 1 visits the window in raster order
/// (rows top to bottom, left to right within a row) at stride 2 from
/// its top-left corner. Stage 2 visits the eight neighbours of the
/// incumbent in raster order, re-reading the incumbent at every step:
/// a neighbour that wins moves the centre, so the neighbours after it
/// are taken around the *new* centre (and the refinement can walk
/// further than one pixel). Everything else — returning at once when
/// the zero vector already matches exactly, skipping candidates by
/// their block sums — only avoids measuring candidates that could not
/// have won.
#[allow(clippy::too_many_arguments)]
pub fn motion_search(
    src: &[u8],
    reference: &[u8],
    stride: usize,
    rect: &TileRect,
    mbx: usize,
    mby: usize,
    range: i32,
    src_sum: u32,
    ref_sums: &BlockSums,
    work: &mut EncoderWork,
) -> (MotionVector, u32) {
    let mut best = MotionVector::default();
    let mut best_sad = sad_mb(src, stride, mbx, mby, reference, stride, mbx, mby, u32::MAX);
    if best_sad == 0 {
        work.zero_sad_exits += 1;
        return (best, 0);
    }
    let min_dx = rect.x0 as i32 - mbx as i32;
    let max_dx = (rect.x0 + rect.w - MB_SIZE) as i32 - mbx as i32;
    let min_dy = rect.y0 as i32 - mby as i32;
    let max_dy = (rect.y0 + rect.h - MB_SIZE) as i32 - mby as i32;
    let lo_x = (-range).max(min_dx);
    let hi_x = range.min(max_dx);
    let lo_y = (-range).max(min_dy);
    let hi_y = range.min(max_dy);

    // The SAD of candidate `(dx, dy)`, or just "not below `bound`".
    // Successive elimination: |Σsrc − Σref| ≤ Σ|src − ref| = SAD, so a
    // candidate whose block sums already differ by the incumbent's SAD
    // cannot pass `sad < best_sad` — the only decision the search
    // makes — and is never measured.
    let mut sad_below = |dx: i32, dy: i32, bound: u32| {
        let (x, y) = ((mbx as i32 + dx) as usize, (mby as i32 + dy) as usize);
        work.mv_candidates += 1;
        if src_sum.abs_diff(ref_sums.at(x, y)) >= bound {
            work.mv_eliminated += 1;
            return bound;
        }
        sad_mb(src, stride, mbx, mby, reference, stride, x, y, bound)
    };

    // Stage 1: coarse scan at stride 2.
    // lint: hot-loop — the motion-search window scan, no per-candidate state
    let mut dy = lo_y;
    while dy <= hi_y {
        let mut dx = lo_x;
        while dx <= hi_x {
            if dx != 0 || dy != 0 {
                let sad = sad_below(dx, dy, best_sad);
                if sad < best_sad {
                    best_sad = sad;
                    best = MotionVector { dx, dy };
                }
            }
            dx += 2;
        }
        dy += 2;
    }

    // Stage 2: ±1 refinement around the (drifting) incumbent.
    for ry in -1..=1i32 {
        for rx in -1..=1i32 {
            let dx = best.dx + rx;
            let dy = best.dy + ry;
            if dx < lo_x || dx > hi_x || dy < lo_y || dy > hi_y || (rx == 0 && ry == 0) {
                continue;
            }
            let sad = sad_below(dx, dy, best_sad);
            if sad < best_sad {
                best_sad = sad;
                best = MotionVector { dx, dy };
            }
        }
    }
    // lint: end-hot-loop
    (best, best_sad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_kernels::predict as reference;

    fn plane_with_square(w: usize, h: usize, sx: usize, sy: usize) -> Vec<u8> {
        let mut p = vec![20u8; w * h];
        for y in sy..sy + 8 {
            for x in sx..sx + 8 {
                p[y * w + x] = 220;
            }
        }
        p
    }

    /// [`motion_search`] with the block sums it expects, built fresh.
    fn search(
        src: &[u8],
        reference: &[u8],
        w: usize,
        rect: &TileRect,
        (mbx, mby): (usize, usize),
        range: i32,
    ) -> (MotionVector, u32) {
        let mut sums = BlockSums::default();
        sums.rebuild(reference, w, reference.len() / w);
        let src_sum = mb_sum(src, w, mbx, mby);
        let mut work = EncoderWork::default();
        motion_search(
            src, reference, w, rect, mbx, mby, range, src_sum, &sums, &mut work,
        )
    }

    #[test]
    fn extract_store_roundtrip() {
        let mut plane = vec![0u8; 32 * 32];
        for (i, v) in plane.iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let block: [i32; 64] = extract_block(&plane, 32, 8, 8);
        let mut out = vec![0u8; 32 * 32];
        store_block(&mut out, 32, 8, 8, &block);
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(
                    out[(8 + row) * 32 + 8 + col],
                    plane[(8 + row) * 32 + 8 + col]
                );
            }
        }
    }

    #[test]
    fn store_clamps() {
        let block = [300i32; 64];
        let mut plane = vec![0u8; 16 * 16];
        store_block(&mut plane, 16, 0, 0, &block);
        assert_eq!(plane[0], 255);
        let block = [-5i32; 64];
        store_block(&mut plane, 16, 0, 0, &block);
        assert_eq!(plane[0], 0);
    }

    #[test]
    fn dc_predictor_fallback_at_tile_origin() {
        let recon = vec![99u8; 64 * 64];
        let rect = TileRect {
            x0: 0,
            y0: 0,
            w: 64,
            h: 64,
        };
        assert_eq!(dc_predictor(&recon, 64, &rect, 0, 0), 128);
    }

    #[test]
    fn dc_predictor_uses_neighbours() {
        let recon = vec![75u8; 64 * 64];
        let rect = TileRect {
            x0: 0,
            y0: 0,
            w: 64,
            h: 64,
        };
        assert_eq!(dc_predictor(&recon, 64, &rect, 8, 8), 75);
        assert_eq!(dc_predictor(&recon, 64, &rect, 8, 0), 75); // left only
        assert_eq!(dc_predictor(&recon, 64, &rect, 0, 8), 75); // top only
    }

    #[test]
    fn dc_predictor_respects_tile_boundary() {
        // Neighbours exist in the frame but lie outside the tile.
        let recon = vec![75u8; 64 * 64];
        let rect = TileRect {
            x0: 32,
            y0: 32,
            w: 32,
            h: 32,
        };
        assert_eq!(dc_predictor(&recon, 64, &rect, 32, 32), 128);
    }

    #[test]
    fn motion_search_finds_translation() {
        let (w, h) = (64, 64);
        let reference = plane_with_square(w, h, 24, 24);
        let src = plane_with_square(w, h, 28, 26); // square moved by (+4, +2)
        let rect = TileRect { x0: 0, y0: 0, w, h };
        let (mv, sad) = search(&src, &reference, w, &rect, (16, 16), 8);
        assert_eq!((mv.dx, mv.dy), (-4, -2));
        assert_eq!(sad, 0);
    }

    #[test]
    fn motion_search_stays_inside_tile() {
        let (w, h) = (64, 32);
        let reference = vec![0u8; w * h];
        let src = vec![0u8; w * h];
        // Tile is the right half; MB at its left edge.
        let rect = TileRect {
            x0: 32,
            y0: 0,
            w: 32,
            h: 32,
        };
        let (mv, _) = search(&src, &reference, w, &rect, (32, 0), 8);
        assert!(mv.dx >= 0, "vector {mv:?} escapes the tile on the left");
    }

    #[test]
    fn sad_early_exit_overestimates_only() {
        let a = vec![0u8; 32 * 32];
        let b = vec![255u8; 32 * 32];
        let full = sad_mb(&a, 32, 0, 0, &b, 32, 0, 0, u32::MAX);
        let early = sad_mb(&a, 32, 0, 0, &b, 32, 0, 0, 100);
        assert_eq!(full, 255 * 256);
        assert!(early > 100);
    }

    /// Deterministic generator for the differential sweeps.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            ((self.next() >> 33) as usize) % n
        }
    }

    /// Checks `sad_mb` on one pair of blocks against the reference: the
    /// exact SAD unbounded, and at `bound` and on and beside every
    /// partial sum the exit checks see, the same accept/reject decision
    /// and the exact SAD whenever it completes (aborted calls may return
    /// different values, but both are `≥ bound`).
    fn assert_matches_reference(
        a: &[u8],
        b: &[u8],
        w: usize,
        (ax, ay): (usize, usize),
        (bx, by): (usize, usize),
        bound: u32,
    ) {
        let exact = reference::sad_mb(a, w, ax, ay, b, w, bx, by, u32::MAX);
        assert_eq!(sad_mb(a, w, ax, ay, b, w, bx, by, u32::MAX), exact);
        let same_decision = |bound: u32| {
            let fast = sad_mb(a, w, ax, ay, b, w, bx, by, bound);
            let slow = reference::sad_mb(a, w, ax, ay, b, w, bx, by, bound);
            assert_eq!(
                fast < bound,
                slow < bound,
                "decision diverged at bound {bound}"
            );
            if fast < bound {
                assert_eq!(fast, exact, "completed SAD must be exact");
            } else {
                assert!(slow >= bound);
            }
        };
        same_decision(bound);
        let mut partial = 0;
        for row in 0..MB_SIZE {
            let ra = &a[(ay + row) * w + ax..][..MB_SIZE];
            let rb = &b[(by + row) * w + bx..][..MB_SIZE];
            partial += ra
                .iter()
                .zip(rb)
                .map(|(&x, &y)| x.abs_diff(y) as u32)
                .sum::<u32>();
            if (row + 1) % SAD_EXIT_ROWS == 0 {
                for bound in [partial.saturating_sub(1).max(1), partial, partial + 1] {
                    same_decision(bound);
                }
            }
        }
        assert_eq!(partial, exact);
    }

    /// The row-vector SAD must return the exact sum whenever it
    /// completes, and make the scalar reference's accept/reject
    /// decision under any early-exit bound: random bounds, bounds on
    /// and beside each partial sum the exit checks see, and all 0
    /// against all 255.
    #[test]
    fn sad_matches_scalar_reference() {
        let mut rng = Lcg(0xdead_beef);
        let (w, h) = (48, 40);
        for trial in 0..3_000 {
            let a: Vec<u8> = (0..w * h).map(|_| rng.below(256) as u8).collect();
            // Mix of near-identical and unrelated planes so both the
            // early-exit and full paths are exercised.
            let b: Vec<u8> = if trial % 3 == 0 {
                a.iter()
                    .map(|&v| v.wrapping_add((rng.below(4)) as u8))
                    .collect()
            } else {
                (0..w * h).map(|_| rng.below(256) as u8).collect()
            };
            let pa = (rng.below(w - MB_SIZE), rng.below(h - MB_SIZE));
            let pb = (rng.below(w - MB_SIZE), rng.below(h - MB_SIZE));
            let bound = (rng.below(4000) as u32).max(1);
            assert_matches_reference(&a, &b, w, pa, pb, bound);
        }
        // The largest SAD a block can have, 256·255, still fits the
        // `u16` accumulator.
        let (zeros, full) = (vec![0u8; w * h], vec![255u8; w * h]);
        for (a, b) in [(&zeros, &full), (&full, &zeros)] {
            assert_eq!(sad_mb(a, w, 3, 1, b, w, 1, 4, u32::MAX), 256 * 255);
            assert_matches_reference(a, b, w, (3, 1), (1, 4), 1);
        }
    }

    /// Block sums and intra costs must match the per-pixel reference
    /// on random planes of odd strides, at columns off the macroblock
    /// grid, and on constant-0 and constant-255 blocks.
    #[test]
    fn block_sum_and_intra_cost_match_reference() {
        let mut rng = Lcg(0x5eed_b10c);
        for trial in 0..2_000 {
            let (w, h) = (MB_SIZE + 1 + 2 * rng.below(24), MB_SIZE + rng.below(16));
            let mut plane: Vec<u8> = (0..w * h).map(|_| rng.below(256) as u8).collect();
            let (x, y) = (rng.below(w - MB_SIZE + 1), rng.below(h - MB_SIZE + 1));
            if trial % 4 == 1 {
                let level = [0, 255][trial / 4 % 2];
                for row in 0..MB_SIZE {
                    plane[(y + row) * w + x..][..MB_SIZE].fill(level);
                }
            }
            let sum = mb_sum(&plane, w, x, y);
            assert_eq!(sum, reference::mb_sum(&plane, w, x, y), "sum at ({x}, {y})");
            assert_eq!(
                intra_cost_estimate(&plane, w, x, y, sum),
                reference::intra_cost_estimate(&plane, w, x, y, sum),
                "intra cost at ({x}, {y}), stride {w}"
            );
        }
        for level in [0u8, 255] {
            let plane = vec![level; 19 * 17];
            let sum = mb_sum(&plane, 19, 3, 1);
            assert_eq!(sum, level as u32 * (MB_SIZE * MB_SIZE) as u32);
            assert_eq!(intra_cost_estimate(&plane, 19, 3, 1, sum), 0);
        }
    }

    /// Row-slice extract must match the per-pixel reference for both
    /// block sizes in use.
    #[test]
    fn extract_matches_reference() {
        let mut rng = Lcg(0xfeed_f00d);
        let (w, h) = (40, 40);
        let plane: Vec<u8> = (0..w * h).map(|_| rng.below(256) as u8).collect();
        for _ in 0..200 {
            let (x, y) = (rng.below(w - 16), rng.below(h - 16));
            let a: [i32; 64] = extract_block(&plane, w, x, y);
            let b: [i32; 64] = reference::extract_block(&plane, w, x, y);
            assert_eq!(a, b);
            let a: [i32; 256] = extract_block(&plane, w, x, y);
            let b: [i32; 256] = reference::extract_block(&plane, w, x, y);
            assert_eq!(a, b);
        }
    }
}
