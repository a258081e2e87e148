//! Pixel kernels backing LightDB's built-in `MAP` / `UNION` functions.
//!
//! Every `MAP` kernel builds its output planes directly from its
//! input's. Blur and sharpen share one 3×3 convolution body that each
//! calls with a constant kernel and divisor, so the compiler vectorises
//! it and turns the division into shifts.
//!
//! The `UNION` kernels ([`blit_keyed`], [`merge_blocks`]) walk 2×2
//! pixel blocks over plane slices: the four pixels of a block share
//! one chroma sample, so a block is the unit in which "this pixel's
//! colour" is well defined.

use crate::color::Yuv;
use crate::frame::{Frame, PlaneKind};

/// `src` with its luma plane replaced by `luma` and its chroma copied.
fn with_luma(src: &Frame, luma: Vec<u8>) -> Frame {
    let chroma = |kind| src.plane(kind).to_vec();
    Frame::from_planes(
        src.width(),
        src.height(),
        luma,
        chroma(PlaneKind::Cb),
        chroma(PlaneKind::Cr),
    )
}

/// Converts to grayscale by neutralising the chroma planes — the
/// paper's `GRAYSCALE` built-in "drops the chroma signal".
pub fn grayscale(src: &Frame) -> Frame {
    let n = src.plane(PlaneKind::Cb).len();
    let luma = src.plane(PlaneKind::Luma).to_vec();
    Frame::from_planes(src.width(), src.height(), luma, vec![128; n], vec![128; n])
}

/// 3×3 truncated-Gaussian blur (kernel `[1 2 1; 2 4 2; 1 2 1] / 16`),
/// the paper's `BLUR` built-in (a truncated Gaussian convolution).
pub fn blur(src: &Frame) -> Frame {
    with_luma(src, convolve3x3(src, [1, 2, 1, 2, 4, 2, 1, 2, 1], 16, 0))
}

/// Unsharp-mask sharpen (kernel `[0 -1 0; -1 8 -1; 0 -1 0] / 4`),
/// the paper's `SHARPEN` built-in.
pub fn sharpen(src: &Frame) -> Frame {
    with_luma(src, convolve3x3(src, [0, -1, 0, -1, 8, -1, 0, -1, 0], 4, 0))
}

/// The luma plane of `src` convolved with a 3×3 integer `kernel`,
/// divided by `divisor` (truncating), offset by `bias` and clamped,
/// with the frame's border samples replicated outward. Always inlined,
/// so that at each call site the kernel and divisor are constants.
#[inline(always)]
fn convolve3x3(src: &Frame, k: [i32; 9], divisor: i32, bias: i32) -> Vec<u8> {
    debug_assert!(divisor != 0);
    let (w, h) = (src.width(), src.height());
    let y = src.plane(PlaneKind::Luma);
    let mut luma = vec![0u8; w * h];
    let tap = |r: &[u8], c: usize| r[c] as i32;
    let px = |acc: i32| ((acc / divisor) + bias).clamp(0, 255) as u8;
    // lint: hot-loop — per-row convolution under BLUR and SHARPEN
    for (row, out) in luma.chunks_exact_mut(w).enumerate() {
        // Border-replicated source rows: the clamping happens once per
        // row and edge column, leaving the interior loop free of
        // branches and bounds checks.
        let r0 = &y[row.saturating_sub(1) * w..][..w];
        let r1 = &y[row * w..][..w];
        let r2 = &y[(row + 1).min(h - 1) * w..][..w];
        for col in [0, w - 1] {
            let (l, r) = (col.saturating_sub(1), (col + 1).min(w - 1));
            out[col] = px(k[0] * tap(r0, l) + k[1] * tap(r0, col) + k[2] * tap(r0, r)
                + k[3] * tap(r1, l) + k[4] * tap(r1, col) + k[5] * tap(r1, r)
                + k[6] * tap(r2, l) + k[7] * tap(r2, col) + k[8] * tap(r2, r));
        }
        let n = w - 2;
        let [a0, b0, c0] = [&r0[..n], &r0[1..][..n], &r0[2..][..n]];
        let [a1, b1, c1] = [&r1[..n], &r1[1..][..n], &r1[2..][..n]];
        let [a2, b2, c2] = [&r2[..n], &r2[1..][..n], &r2[2..][..n]];
        for (i, o) in out[1..][..n].iter_mut().enumerate() {
            *o = px(k[0] * a0[i] as i32 + k[1] * b0[i] as i32 + k[2] * c0[i] as i32
                + k[3] * a1[i] as i32 + k[4] * b1[i] as i32 + k[5] * c1[i] as i32
                + k[6] * a2[i] as i32 + k[7] * b2[i] as i32 + k[8] * c2[i] as i32);
        }
    }
    // lint: end-hot-loop
    luma
}

/// Adjusts contrast around mid-grey: `y' = (y - 128) · gain + 128`.
pub fn contrast(src: &Frame, gain: f32) -> Frame {
    let lut: [u8; 256] =
        std::array::from_fn(|y| ((y as f32 - 128.0) * gain + 128.0).clamp(0.0, 255.0) as u8);
    let luma = src.plane(PlaneKind::Luma).iter().map(|&y| lut[y as usize]).collect();
    with_luma(src, luma)
}

/// Draws an axis-aligned rectangle outline (thickness in pixels) —
/// used by the AR workload to highlight detections.
pub fn draw_rect(
    frame: &mut Frame,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    thickness: usize,
    color: Yuv,
) {
    let x1 = (x0 + w).min(frame.width());
    let y1 = (y0 + h).min(frame.height());
    for y in y0..y1 {
        for x in x0..x1 {
            let on_edge = x < x0 + thickness
                || x >= x1.saturating_sub(thickness)
                || y < y0 + thickness
                || y >= y1.saturating_sub(thickness);
            if on_edge {
                frame.set(x, y, color);
            }
        }
    }
}

/// The rows of one row of 2×2 blocks: two luma rows and the chroma
/// row they share, `(y0, y1, u, v)`.
type BlockRow<'a> = (&'a [u8], &'a [u8], &'a [u8], &'a [u8]);
type BlockRowMut<'a> = (&'a mut [u8], &'a mut [u8], &'a mut [u8], &'a mut [u8]);

/// Calls `f(by, src_rows, dst_rows)` for each row `by` of 2×2 blocks
/// of `src` and the rows of `dst` under it when `src`'s top-left corner
/// sits at `(x0, y0)` (both even; `src` must fit). Every slice is
/// `src`-wide.
fn for_block_rows(
    dst: &mut Frame,
    src: &Frame,
    x0: usize,
    y0: usize,
    mut f: impl FnMut(usize, BlockRow<'_>, BlockRowMut<'_>),
) {
    let (sw, sh, dw) = (src.width(), src.height(), dst.width());
    assert!(
        x0.is_multiple_of(2) && y0.is_multiple_of(2),
        "block blit must be 2-aligned"
    );
    assert!(
        x0 + sw <= dw && y0 + sh <= dst.height(),
        "block blit out of bounds"
    );
    let (scw, dcw) = (sw / 2, dw / 2);
    let (sy, su, sv) = (
        src.plane(PlaneKind::Luma),
        src.plane(PlaneKind::Cb),
        src.plane(PlaneKind::Cr),
    );
    let (dy, du, dv) = dst.planes_mut();
    for by in 0..sh / 2 {
        let (s0, s1) = sy[2 * by * sw..][..2 * sw].split_at(sw);
        let (d0, d1) = dy[(y0 + 2 * by) * dw..][..2 * dw].split_at_mut(dw);
        let sc = by * scw..(by + 1) * scw;
        let dc = (y0 / 2 + by) * dcw + x0 / 2..(y0 / 2 + by) * dcw + x0 / 2 + scw;
        f(
            by,
            (s0, s1, &su[sc.clone()], &sv[sc]),
            (
                &mut d0[x0..x0 + sw],
                &mut d1[x0..x0 + sw],
                &mut du[dc.clone()],
                &mut dv[dc],
            ),
        );
    }
}

/// How a keyed blit treats one row of 2×2 source blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// No block of the row carries the key's chroma: a row copy.
    Copy,
    /// Every pixel of the row is the key: nothing is written.
    Skip,
    /// As the mask says.
    Masked,
}

/// What a keyed blit of one source frame writes: `0xFF` for each luma
/// sample whose pixel is not the key and for each chroma sample whose
/// block has such a pixel, `0` elsewhere. That is what a raster walk of
/// `get`/`set` leaves behind, because the pixels of one source block
/// share their chroma. A mask depends only on the source frame's
/// samples, so equal source frames can share one.
#[derive(Debug, Clone)]
pub struct KeyMask {
    width: usize,
    luma: Vec<u8>,
    chroma: Vec<u8>,
    /// One per row of blocks. The masks of [`RowKind::Copy`] rows are
    /// left unfilled, and are empty when every row is one.
    rows: Vec<RowKind>,
}

impl KeyMask {
    /// The mask of `src` against `key`, built one row of blocks at a
    /// time in passes the compiler vectorises.
    pub fn new(src: &Frame, key: Yuv) -> KeyMask {
        let (w, cw) = (src.width(), src.width() / 2);
        let (sy, su, sv) = (
            src.plane(PlaneKind::Luma),
            src.plane(PlaneKind::Cb),
            src.plane(PlaneKind::Cr),
        );
        let eq = |a: u8, b: u8| 0u8.wrapping_sub((a == b) as u8);
        let chroma_rows = su.chunks_exact(cw).zip(sv.chunks_exact(cw));
        // A pixel can only be the key inside a block with its chroma.
        // (The reductions here are `for` loops: as `fold`s they were
        // not vectorised, and ran ten times slower.)
        let mut rows = Vec::with_capacity(src.height() / 2);
        // lint: hot-loop — per-row chroma scan under UNION
        for (u, v) in chroma_rows.clone() {
            let mut keyed = false;
            for (&u, &v) in u.iter().zip(v) {
                keyed |= (u == key.u) & (v == key.v);
            }
            rows.push(if keyed { RowKind::Masked } else { RowKind::Copy });
        }
        // lint: end-hot-loop
        // Copy rows read no mask, so a frame without the key's chroma
        // needs none.
        let len = |plane: &[u8]| if rows.contains(&RowKind::Masked) { plane.len() } else { 0 };
        let (mut luma, mut chroma) = (vec![0u8; len(sy)], vec![0u8; len(su)]);
        let luma_rows = luma.chunks_exact_mut(2 * w).zip(sy.chunks_exact(2 * w));
        let masked = rows.iter_mut().zip(luma_rows).zip(chroma.chunks_exact_mut(cw).zip(chroma_rows));
        // lint: hot-loop — per-row mask passes under UNION
        for ((kind, (m, s)), (c, (u, v))) in masked.filter(|((k, _), _)| **k == RowKind::Masked) {
            for ((c, &u), &v) in c.iter_mut().zip(u).zip(v) {
                *c = eq(u, key.u) & eq(v, key.v);
            }
            let ((m0, m1), (s0, s1)) = (m.split_at_mut(w), s.split_at(w));
            // Spread each block's flag over its two columns; a pixel is
            // kept unless its luma is the key's too.
            // (Pair copies and the `u16` reduction below are the forms
            // the compiler vectorised; `fill` and a four-way byte `|`
            // measured 3–6× slower.)
            for (m, s) in [(&mut *m0, s0), (&mut *m1, s1)] {
                for (p, &c) in m.chunks_exact_mut(2).zip(&*c) {
                    p.copy_from_slice(&[c, c]);
                }
                for (m, &s) in m.iter_mut().zip(s) {
                    *m = !(*m & eq(s, key.y));
                }
            }
            // A block's chroma is written iff any of its pixels is.
            for ((c, p0), p1) in c.iter_mut().zip(m0.chunks_exact(2)).zip(m1.chunks_exact(2)) {
                let pair = u16::from_ne_bytes([p0[0], p0[1]]) | u16::from_ne_bytes([p1[0], p1[1]]);
                *c = (pair | pair >> 8) as u8;
            }
            let mut kept = 0;
            for &c in &*c {
                kept |= c;
            }
            if kept == 0 {
                *kind = RowKind::Skip;
            }
        }
        // lint: end-hot-loop
        KeyMask { width: w, luma, chroma, rows }
    }

    /// Whether every row of the mask is a row copy: the source has no
    /// block with the key's chroma, and the mask holds no samples.
    pub fn is_copy(&self) -> bool {
        self.luma.is_empty()
    }
}

/// Copies `src` onto `dst` at even `(x0, y0)` where `mask`, built from
/// `src` (or a frame equal to it), says: three masked blends, one per
/// plane, with rows of no key pixel copied and rows of nothing but key
/// pixels skipped.
pub fn blit_masked(dst: &mut Frame, src: &Frame, x0: usize, y0: usize, mask: &KeyMask) {
    let (w, cw) = (mask.width, mask.width / 2);
    assert!(
        (src.width(), src.height() / 2) == (w, mask.rows.len()),
        "mask built from a frame of another shape"
    );
    // lint: hot-loop — per-row masked copy under UNION
    for_block_rows(dst, src, x0, y0, |by, (s0, s1, su, sv), (d0, d1, du, dv)| {
        match mask.rows[by] {
            RowKind::Copy => {
                for (d, s) in [(d0, s0), (d1, s1), (du, su), (dv, sv)] {
                    d.copy_from_slice(s);
                }
            }
            RowKind::Skip => {}
            RowKind::Masked => {
                let (m0, m1) = mask.luma[2 * by * w..][..2 * w].split_at(w);
                let mc = &mask.chroma[by * cw..][..cw];
                for (d, s, m) in [(d0, s0, m0), (d1, s1, m1), (du, su, mc), (dv, sv, mc)] {
                    for ((d, &s), &m) in d.iter_mut().zip(s).zip(m) {
                        *d = (s & m) | (*d & !m);
                    }
                }
            }
        }
    });
    // lint: end-hot-loop
}

/// Copies `src` onto `dst` at even `(x0, y0)`, skipping the pixels of
/// `src` that equal `key` (see [`KeyMask`]).
pub fn blit_keyed(dst: &mut Frame, src: &Frame, x0: usize, y0: usize, key: Yuv) {
    blit_masked(dst, src, x0, y0, &KeyMask::new(src, key));
}

/// Composites `src` onto `dst` at even `(x0, y0)` one 2×2 block at a
/// time: `merge(d, s)` gives a pixel's new colour, or `None` to leave
/// it. The four destination pixels and the chroma they share are read
/// before any is written, so every pixel is merged against what was
/// there before the blit; pixels are merged in raster order and the
/// block's chroma is the last merged pixel's.
pub fn merge_blocks(
    dst: &mut Frame,
    src: &Frame,
    x0: usize,
    y0: usize,
    merge: impl Fn(Yuv, Yuv) -> Option<Yuv>,
) {
    for_block_rows(dst, src, x0, y0, |_, (s0, s1, su, sv), (d0, d1, du, dv)| {
        // lint: hot-loop — per-block merge under UNION
        for bx in 0..su.len() {
            let x = 2 * bx;
            let (before, chroma) = ([d0[x], d0[x + 1], d1[x], d1[x + 1]], (du[bx], dv[bx]));
            let over = [s0[x], s0[x + 1], s1[x], s1[x + 1]];
            let mut out = before;
            let mut out_chroma = chroma;
            for i in 0..4 {
                let d = Yuv::new(before[i], chroma.0, chroma.1);
                if let Some(c) = merge(d, Yuv::new(over[i], su[bx], sv[bx])) {
                    (out[i], out_chroma) = (c.y, (c.u, c.v));
                }
            }
            d0[x..x + 2].copy_from_slice(&out[..2]);
            d1[x..x + 2].copy_from_slice(&out[2..]);
            (du[bx], dv[bx]) = out_chroma;
        }
        // lint: end-hot-loop
    });
}

/// Synthetic "focus" kernel for light-field rendering demos: blends
/// each pixel toward the blurred image weighted by luma gradient,
/// emulating refocusing. Deterministic and cheap.
pub fn focus(src: &Frame) -> Frame {
    let mut dst = blur(src);
    for (d, &orig) in dst.plane_mut(PlaneKind::Luma).iter_mut().zip(src.plane(PlaneKind::Luma)) {
        let (orig, soft) = (orig as i32, *d as i32);
        let gradient = (orig - soft).abs().min(32);
        // High-gradient (in-focus) pixels keep the original; flat
        // regions take the blurred value.
        let blend = 32 - gradient;
        *d = ((orig * (32 - blend) + soft * blend) / 32).clamp(0, 255) as u8;
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use crate::reference_kernels;

    fn gradient_frame(w: usize, h: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                f.set(
                    x,
                    y,
                    Yuv::new(
                        ((x * 7 + y * 13) % 256) as u8,
                        (x % 256) as u8,
                        (y % 256) as u8,
                    ),
                );
            }
        }
        f
    }

    #[test]
    fn grayscale_neutralises_chroma() {
        let f = gradient_frame(16, 16);
        let g = grayscale(&f);
        for y in 0..16 {
            for x in 0..16 {
                assert!(g.get(x, y).is_achromatic());
                assert_eq!(g.get(x, y).y, f.get(x, y).y);
            }
        }
    }

    #[test]
    fn blur_preserves_solid_frames() {
        let f = Frame::filled(16, 16, Yuv::new(77, 100, 150));
        let b = blur(&f);
        assert_eq!(b, f);
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let mut f = Frame::filled(16, 16, Yuv::BLACK);
        f.set(8, 8, Yuv::WHITE);
        let b = blur(&f);
        assert!(b.luma_at(8, 8) < 255);
        assert!(b.luma_at(7, 8) > 0);
        assert!(b.luma_at(9, 9) > 0);
    }

    #[test]
    fn sharpen_amplifies_an_edge() {
        let mut f = Frame::filled(16, 16, Yuv::new(100, 128, 128));
        for y in 0..16 {
            for x in 8..16 {
                f.set(x, y, Yuv::new(160, 128, 128));
            }
        }
        let s = sharpen(&f);
        // Just past the edge the luma overshoots the source values.
        assert!(s.luma_at(8, 8) > 160);
        assert!(s.luma_at(7, 8) < 100);
    }

    /// The constant-kernel body's sliced interior/edge paths must match
    /// the per-tap formulation with every tap clamped, for every pixel.
    #[test]
    fn convolve_matches_clamped_reference() {
        let kernels: [(&[i32; 9], i32, i32); 3] = [
            (&[1, 2, 1, 2, 4, 2, 1, 2, 1], 16, 0),
            (&[0, -1, 0, -1, 8, -1, 0, -1, 0], 4, 0),
            (&[-3, 5, 0, 5, -7, 2, 1, 0, -2], 3, 7),
        ];
        for (w, h) in [(2, 2), (4, 8), (16, 16), (32, 6)] {
            let f = gradient_frame(w, h);
            for (k, div, bias) in kernels {
                assert_eq!(
                    convolve3x3(&f, *k, div, bias),
                    reference_kernels::convolve(&f, k, div, bias),
                    "{w}x{h} kernel {k:?}"
                );
            }
        }
    }

    /// Each whole-frame `MAP` kernel, chroma included, equals its
    /// per-tap or per-sample definition.
    #[test]
    fn whole_frame_kernels_match_per_sample_references() {
        for (w, h) in [(2, 2), (4, 8), (16, 16), (32, 6), (38, 26)] {
            let f = gradient_frame(w, h);
            assert_eq!(blur(&f), reference_kernels::blur(&f), "blur {w}x{h}");
            assert_eq!(sharpen(&f), reference_kernels::sharpen(&f), "sharpen {w}x{h}");
            assert_eq!(grayscale(&f), reference_kernels::grayscale(&f), "grayscale {w}x{h}");
            for gain in [0.0, 0.5, 1.0, 1.5, 3.7, -1.0] {
                assert_eq!(
                    contrast(&f, gain),
                    reference_kernels::contrast(&f, gain),
                    "contrast {gain} {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn contrast_unity_gain_is_identity() {
        let f = gradient_frame(8, 8);
        assert_eq!(contrast(&f, 1.0), f);
    }

    #[test]
    fn contrast_zero_gain_flattens() {
        let f = gradient_frame(8, 8);
        let c = contrast(&f, 0.0);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(c.luma_at(x, y), 128);
            }
        }
    }

    #[test]
    fn draw_rect_outline_only() {
        let mut f = Frame::filled(16, 16, Yuv::BLACK);
        let red = Rgb::RED.to_yuv();
        draw_rect(&mut f, 4, 4, 8, 8, 1, red);
        assert_eq!(f.get(4, 4), red); // corner
        assert_eq!(f.get(11, 4), red); // top edge
        assert_eq!(f.luma_at(8, 8), Yuv::BLACK.y); // interior untouched
    }

    #[test]
    fn focus_is_deterministic_and_bounded() {
        let f = gradient_frame(16, 16);
        assert_eq!(focus(&f), focus(&f));
    }

    /// A frame with key-coloured pixels at every position in a block,
    /// whole key blocks, and near-key pixels (key luma under other
    /// chroma, key chroma over other luma).
    fn keyed_frame(w: usize, h: usize, key: Yuv, salt: usize) -> Frame {
        let mut f = gradient_frame(w, h);
        for by in 0..h / 2 {
            for bx in 0..w / 2 {
                let pattern = (bx * 7 + by * 5 + salt) % 24;
                if pattern < 16 {
                    // Key chroma; luma is the key wherever the bit is set.
                    for i in 0..4 {
                        let (x, y) = (2 * bx + i % 2, 2 * by + i / 2);
                        let luma = if pattern >> i & 1 == 1 { key.y } else { 200 };
                        f.set(x, y, Yuv::new(luma, key.u, key.v));
                    }
                } else if pattern < 20 {
                    f.set(2 * bx, 2 * by, Yuv::new(key.y, key.u, key.v.wrapping_add(1)));
                }
            }
        }
        f
    }

    #[test]
    fn blit_keyed_matches_a_raster_walk_of_get_and_set() {
        for key in [Yuv::new(0, 0, 0), Yuv::new(7, 130, 9)] {
            for (x0, y0, w, h) in [(0, 0, 16, 8), (2, 4, 8, 4), (6, 2, 10, 6), (0, 0, 2, 2)] {
                for salt in 0..3 {
                    let src = keyed_frame(w, h, key, salt);
                    let base = keyed_frame(16, 8, key, salt + 11);
                    let mut want = base.clone();
                    for y in 0..h {
                        for x in 0..w {
                            if src.get(x, y) != key {
                                want.set(x0 + x, y0 + y, src.get(x, y));
                            }
                        }
                    }
                    let mut got = base.clone();
                    blit_keyed(&mut got, &src, x0, y0, key);
                    assert_eq!(got, want, "key {key:?} at ({x0}, {y0}) {w}x{h} salt {salt}");
                }
            }
        }
    }

    #[test]
    fn merge_blocks_reads_a_block_before_writing_it() {
        // Mean of two uniform frames: every pixel of every block is
        // averaged against the colour that was there before the blit.
        let mut dst = Frame::filled(8, 4, Yuv::new(200, 90, 160));
        let src = Frame::filled(4, 2, Yuv::new(100, 120, 130));
        merge_blocks(&mut dst, &src, 2, 2, |d, s| {
            Some(Yuv::new(
                ((d.y as u16 + s.y as u16) / 2) as u8,
                ((d.u as u16 + s.u as u16) / 2) as u8,
                ((d.v as u16 + s.v as u16) / 2) as u8,
            ))
        });
        for y in 0..4 {
            for x in 0..8 {
                let inside = (2..6).contains(&x) && y >= 2;
                let want = if inside { Yuv::new(150, 105, 145) } else { Yuv::new(200, 90, 160) };
                assert_eq!(dst.get(x, y), want, "({x}, {y})");
            }
        }
    }

    #[test]
    fn merge_blocks_takes_chroma_from_the_last_merged_pixel() {
        let mut dst = Frame::filled(4, 2, Yuv::new(10, 20, 30));
        let mut src = Frame::filled(2, 2, Yuv::new(50, 60, 70));
        src.plane_mut(PlaneKind::Luma).copy_from_slice(&[1, 2, 3, 4]);
        // Leave the last pixel of the block alone; tag chroma with luma.
        merge_blocks(&mut dst, &src, 2, 0, |_, s| {
            (s.y != 4).then_some(Yuv::new(s.y, 100 + s.y, 200 + s.y))
        });
        assert_eq!(dst.plane(PlaneKind::Luma), &[10, 10, 1, 2, 10, 10, 3, 10]);
        assert_eq!(dst.plane(PlaneKind::Cb), &[20, 103]);
        assert_eq!(dst.plane(PlaneKind::Cr), &[30, 203]);
    }
}
