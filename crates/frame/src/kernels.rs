//! Pixel kernels backing LightDB's built-in `MAP` / `UNION` functions.
//!
//! Every `MAP` kernel comes in a whole-frame form and a row-range form
//! (`*_rows`) over `[row_lo, row_hi)` of the *luma* plane; chroma rows
//! are derived (half rate). The whole-frame form is the row-range form
//! over every row.
//!
//! The `UNION` kernels ([`blit_keyed`], [`merge_blocks`]) walk 2×2
//! pixel blocks over plane slices: the four pixels of a block share
//! one chroma sample, so a block is the unit in which "this pixel's
//! colour" is well defined.

use crate::color::Yuv;
use crate::frame::{Frame, PlaneKind};

/// Converts to grayscale by neutralising the chroma planes — the
/// paper's `GRAYSCALE` built-in "drops the chroma signal".
pub fn grayscale(src: &Frame) -> Frame {
    let mut dst = src.clone();
    grayscale_rows(src, &mut dst, 0, src.height());
    dst
}

/// Row-range form of [`grayscale`].
pub fn grayscale_rows(src: &Frame, dst: &mut Frame, row_lo: usize, row_hi: usize) {
    debug_assert_eq!(src.width(), dst.width());
    let w = src.width();
    let y_src = src.plane(PlaneKind::Luma);
    dst.plane_mut(PlaneKind::Luma)[row_lo * w..row_hi * w]
        .copy_from_slice(&y_src[row_lo * w..row_hi * w]);
    let cw = w / 2;
    let (clo, chi) = (row_lo / 2, row_hi / 2);
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        dst.plane_mut(plane)[clo * cw..chi * cw].fill(128);
    }
}

/// 3×3 truncated-Gaussian blur (kernel `[1 2 1; 2 4 2; 1 2 1] / 16`),
/// the paper's `BLUR` built-in (a truncated Gaussian convolution).
pub fn blur(src: &Frame) -> Frame {
    let mut dst = src.clone();
    blur_rows(src, &mut dst, 0, src.height());
    dst
}

/// Row-range form of [`blur`].
pub fn blur_rows(src: &Frame, dst: &mut Frame, row_lo: usize, row_hi: usize) {
    convolve3x3_rows(
        src,
        dst,
        row_lo,
        row_hi,
        &[1, 2, 1, 2, 4, 2, 1, 2, 1],
        16,
        0,
    );
}

/// Unsharp-mask sharpen (kernel `[0 -1 0; -1 8 -1; 0 -1 0] / 4`),
/// the paper's `SHARPEN` built-in.
pub fn sharpen(src: &Frame) -> Frame {
    let mut dst = src.clone();
    sharpen_rows(src, &mut dst, 0, src.height());
    dst
}

/// Row-range form of [`sharpen`].
pub fn sharpen_rows(src: &Frame, dst: &mut Frame, row_lo: usize, row_hi: usize) {
    convolve3x3_rows(
        src,
        dst,
        row_lo,
        row_hi,
        &[0, -1, 0, -1, 8, -1, 0, -1, 0],
        4,
        0,
    );
}

/// Applies a 3×3 integer convolution with divisor and bias to the luma
/// plane rows `[row_lo, row_hi)`, clamping at the frame borders.
/// Chroma planes are copied through unchanged for the matching rows.
pub fn convolve3x3_rows(
    src: &Frame,
    dst: &mut Frame,
    row_lo: usize,
    row_hi: usize,
    kernel: &[i32; 9],
    divisor: i32,
    bias: i32,
) {
    debug_assert!(divisor != 0);
    let (w, h) = (src.width(), src.height());
    let y_src = src.plane(PlaneKind::Luma);
    {
        let y_dst = dst.plane_mut(PlaneKind::Luma);
        // lint: hot-loop — per-row convolution shared by blur/sharpen bands
        for row in row_lo..row_hi {
            // Border-replicated source rows as plain slices: all the
            // clamping happens once per row / edge column, leaving the
            // interior loop free of branches and index arithmetic.
            let above = if row == 0 { 0 } else { row - 1 };
            let below = (row + 1).min(h - 1);
            let r0 = &y_src[above * w..above * w + w];
            let r1 = &y_src[row * w..row * w + w];
            let r2 = &y_src[below * w..below * w + w];
            let out = &mut y_dst[row * w..row * w + w];
            let clamped = |r: &[u8], c: isize| r[c.clamp(0, w as isize - 1) as usize] as i32;
            for col in [0, w - 1] {
                let c = col as isize;
                let acc = kernel[0] * clamped(r0, c - 1)
                    + kernel[1] * clamped(r0, c)
                    + kernel[2] * clamped(r0, c + 1)
                    + kernel[3] * clamped(r1, c - 1)
                    + kernel[4] * clamped(r1, c)
                    + kernel[5] * clamped(r1, c + 1)
                    + kernel[6] * clamped(r2, c - 1)
                    + kernel[7] * clamped(r2, c)
                    + kernel[8] * clamped(r2, c + 1);
                out[col] = ((acc / divisor) + bias).clamp(0, 255) as u8;
            }
            for col in 1..w.max(1) - 1 {
                let acc = kernel[0] * r0[col - 1] as i32
                    + kernel[1] * r0[col] as i32
                    + kernel[2] * r0[col + 1] as i32
                    + kernel[3] * r1[col - 1] as i32
                    + kernel[4] * r1[col] as i32
                    + kernel[5] * r1[col + 1] as i32
                    + kernel[6] * r2[col - 1] as i32
                    + kernel[7] * r2[col] as i32
                    + kernel[8] * r2[col + 1] as i32;
                out[col] = ((acc / divisor) + bias).clamp(0, 255) as u8;
            }
        }
        // lint: end-hot-loop
    }
    let cw = w / 2;
    let (clo, chi) = (row_lo / 2, row_hi / 2);
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        dst.plane_mut(plane)[clo * cw..chi * cw]
            .copy_from_slice(&src.plane(plane)[clo * cw..chi * cw]);
    }
}

/// Adjusts contrast around mid-grey: `y' = (y - 128) · gain + 128`.
pub fn contrast(src: &Frame, gain: f32) -> Frame {
    let mut dst = src.clone();
    contrast_rows(src, &mut dst, gain, 0, src.height());
    dst
}

/// Row-range form of [`contrast`].
pub fn contrast_rows(src: &Frame, dst: &mut Frame, gain: f32, row_lo: usize, row_hi: usize) {
    let w = src.width();
    let y_src = src.plane(PlaneKind::Luma);
    let y_dst = dst.plane_mut(PlaneKind::Luma);
    for i in row_lo * w..row_hi * w {
        y_dst[i] = ((y_src[i] as f32 - 128.0) * gain + 128.0).clamp(0.0, 255.0) as u8;
    }
    let cw = w / 2;
    let (clo, chi) = (row_lo / 2, row_hi / 2);
    for plane in [PlaneKind::Cb, PlaneKind::Cr] {
        dst.plane_mut(plane)[clo * cw..chi * cw]
            .copy_from_slice(&src.plane(plane)[clo * cw..chi * cw]);
    }
}

/// Alpha-blends `overlay` onto `base` at `(x0, y0)` with opacity
/// `alpha ∈ [0, 1]` — the watermark union in the running example.
pub fn overlay_blend(base: &mut Frame, overlay: &Frame, x0: usize, y0: usize, alpha: f32) {
    let a = alpha.clamp(0.0, 1.0);
    let w = overlay.width().min(base.width().saturating_sub(x0));
    let h = overlay.height().min(base.height().saturating_sub(y0));
    for row in 0..h {
        for col in 0..w {
            let s = overlay.get(col, row);
            let d = base.get(x0 + col, y0 + row);
            base.set(
                x0 + col,
                y0 + row,
                Yuv::new(mix(d.y, s.y, a), mix(d.u, s.u, a), mix(d.v, s.v, a)),
            );
        }
    }
}

#[inline]
fn mix(dst: u8, src: u8, a: f32) -> u8 {
    (dst as f32 * (1.0 - a) + src as f32 * a)
        .round()
        .clamp(0.0, 255.0) as u8
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

/// Calls `f(src_rows, dst_rows)` for each row of 2×2 blocks of `src`
/// and the rows of `dst` under it when `src`'s top-left corner sits at
/// `(x0, y0)` (both even; `src` must fit). Every slice is `src`-wide.
fn for_block_rows(
    dst: &mut Frame,
    src: &Frame,
    x0: usize,
    y0: usize,
    mut f: impl FnMut(BlockRow<'_>, BlockRowMut<'_>),
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

/// Copies `src` onto `dst` at even `(x0, y0)`, skipping the pixels of
/// `src` that equal `key`: luma is copied where the source pixel is
/// not the key, a block's chroma is written iff any of its four source
/// pixels is not. (What a raster walk of `get`/`set` leaves behind —
/// the pixels of one source block share their chroma — at the cost of
/// a row copy wherever no block of the row carries the key's chroma.)
pub fn blit_keyed(dst: &mut Frame, src: &Frame, x0: usize, y0: usize, key: Yuv) {
    for_block_rows(dst, src, x0, y0, |(s0, s1, su, sv), (d0, d1, du, dv)| {
        // A pixel can only be the key inside a block with its chroma.
        if !su.iter().zip(sv).any(|(&u, &v)| u == key.u && v == key.v) {
            d0.copy_from_slice(s0);
            d1.copy_from_slice(s1);
            du.copy_from_slice(su);
            dv.copy_from_slice(sv);
            return;
        }
        // lint: hot-loop — per-block keyed copy under UNION
        for bx in 0..su.len() {
            let x = 2 * bx;
            if su[bx] != key.u || sv[bx] != key.v {
                d0[x..x + 2].copy_from_slice(&s0[x..x + 2]);
                d1[x..x + 2].copy_from_slice(&s1[x..x + 2]);
            } else {
                // (One loop per row: chaining the rows into one
                // iterator measured half again as slow per UNION.)
                let mut any = false;
                for (d, &s) in d0[x..x + 2].iter_mut().zip(&s0[x..x + 2]) {
                    if s != key.y {
                        (*d, any) = (s, true);
                    }
                }
                for (d, &s) in d1[x..x + 2].iter_mut().zip(&s1[x..x + 2]) {
                    if s != key.y {
                        (*d, any) = (s, true);
                    }
                }
                if !any {
                    continue;
                }
            }
            (du[bx], dv[bx]) = (su[bx], sv[bx]);
        }
        // lint: end-hot-loop
    });
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
    for_block_rows(dst, src, x0, y0, |(s0, s1, su, sv), (d0, d1, du, dv)| {
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
    let blurred = blur(src);
    let mut dst = src.clone();
    let w = src.width();
    for row in 0..src.height() {
        for col in 0..w {
            let orig = src.luma_at(col, row) as i32;
            let soft = blurred.luma_at(col, row) as i32;
            let gradient = (orig - soft).abs().min(32);
            // High-gradient (in-focus) pixels keep the original; flat
            // regions take the blurred value.
            let blend = 32 - gradient;
            let v = (orig * (32 - blend) + soft * blend) / 32;
            dst.plane_mut(PlaneKind::Luma)[row * w + col] = v.clamp(0, 255) as u8;
        }
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;

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

    /// The sliced interior/edge fast path must match the original
    /// fully-clamped per-tap formulation exactly, for every pixel.
    #[test]
    fn convolve_matches_clamped_reference() {
        fn reference(src: &Frame, kernel: &[i32; 9], divisor: i32, bias: i32) -> Vec<u8> {
            let (w, h) = (src.width(), src.height());
            let y = src.plane(PlaneKind::Luma);
            let mut out = vec![0u8; w * h];
            for row in 0..h {
                for col in 0..w {
                    let mut acc = 0i32;
                    for (ki, (dy, dx)) in [
                        (-1i32, -1i32),
                        (-1, 0),
                        (-1, 1),
                        (0, -1),
                        (0, 0),
                        (0, 1),
                        (1, -1),
                        (1, 0),
                        (1, 1),
                    ]
                    .iter()
                    .enumerate()
                    {
                        let sy = (row as i32 + dy).clamp(0, h as i32 - 1) as usize;
                        let sx = (col as i32 + dx).clamp(0, w as i32 - 1) as usize;
                        acc += kernel[ki] * y[sy * w + sx] as i32;
                    }
                    out[row * w + col] = ((acc / divisor) + bias).clamp(0, 255) as u8;
                }
            }
            out
        }
        let kernels: [(&[i32; 9], i32, i32); 3] = [
            (&[1, 2, 1, 2, 4, 2, 1, 2, 1], 16, 0),
            (&[0, -1, 0, -1, 8, -1, 0, -1, 0], 4, 0),
            (&[-3, 5, 0, 5, -7, 2, 1, 0, -2], 3, 7),
        ];
        for (w, h) in [(2, 2), (4, 8), (16, 16), (32, 6)] {
            let f = gradient_frame(w, h);
            for (k, div, bias) in kernels {
                let mut dst = f.clone();
                convolve3x3_rows(&f, &mut dst, 0, h, k, div, bias);
                assert_eq!(
                    dst.plane(PlaneKind::Luma),
                    &reference(&f, k, div, bias)[..],
                    "{w}x{h} kernel {k:?}"
                );
            }
        }
    }

    #[test]
    fn row_range_forms_compose_to_whole_frame() {
        let f = gradient_frame(16, 16);
        let whole = blur(&f);
        let mut pieced = f.clone();
        blur_rows(&f, &mut pieced, 0, 8);
        blur_rows(&f, &mut pieced, 8, 16);
        assert_eq!(whole, pieced);
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
    fn overlay_full_alpha_replaces() {
        let mut base = Frame::filled(8, 8, Yuv::BLACK);
        let mark = Frame::filled(4, 4, Yuv::WHITE);
        overlay_blend(&mut base, &mark, 2, 2, 1.0);
        assert_eq!(base.get(3, 3), Yuv::WHITE);
        assert_eq!(base.get(0, 0), Yuv::BLACK);
    }

    #[test]
    fn overlay_half_alpha_mixes() {
        let mut base = Frame::filled(8, 8, Yuv::new(0, 128, 128));
        let mark = Frame::filled(4, 4, Yuv::new(200, 128, 128));
        overlay_blend(&mut base, &mark, 0, 0, 0.5);
        assert_eq!(base.luma_at(0, 0), 100);
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
