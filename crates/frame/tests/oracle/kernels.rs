//! The `MAP` kernels as per-tap and per-sample definitions, kept as
//! differential oracles: the 3×3 convolution with a run-time kernel and
//! divisor that clamps every tap to the frame, and the other kernels
//! one sample at a time through `Frame::get`/`Frame::set`.
//!
//! Shared by this crate's unit tests (`lib.rs` includes it under
//! `cfg(test)`) and, through `#[path]`, by `lightdb-bench`'s kernel
//! benchmark, which times the shipped kernels against it. Public API
//! only.

// Each includer uses its own part.
#![allow(dead_code)]

use lightdb_frame::{Frame, PlaneKind, Yuv};

/// The luma plane of `src` convolved with `kernel`, divided by
/// `divisor` (truncating), offset by `bias` and clamped, every tap's
/// coordinates clamped to the frame.
pub(crate) fn convolve(src: &Frame, kernel: &[i32; 9], divisor: i32, bias: i32) -> Vec<u8> {
    let (w, h) = (src.width(), src.height());
    let y = src.plane(PlaneKind::Luma);
    let mut out = vec![0u8; w * h];
    for row in 0..h {
        for col in 0..w {
            let mut acc = 0i32;
            for (ki, k) in kernel.iter().enumerate() {
                let (dy, dx) = (ki as i32 / 3 - 1, ki as i32 % 3 - 1);
                let sy = (row as i32 + dy).clamp(0, h as i32 - 1) as usize;
                let sx = (col as i32 + dx).clamp(0, w as i32 - 1) as usize;
                acc += k * y[sy * w + sx] as i32;
            }
            out[row * w + col] = ((acc / divisor) + bias).clamp(0, 255) as u8;
        }
    }
    out
}

/// `src` with each pixel's colour replaced by `f(x, y, colour)`, one
/// pixel at a time.
fn per_pixel(src: &Frame, f: impl Fn(usize, usize, Yuv) -> Yuv) -> Frame {
    let mut out = src.clone();
    for y in 0..src.height() {
        for x in 0..src.width() {
            out.set(x, y, f(x, y, src.get(x, y)));
        }
    }
    out
}

/// `src` with its luma replaced by `convolve`'s and its chroma kept.
fn convolved(src: &Frame, kernel: &[i32; 9], divisor: i32) -> Frame {
    let chroma = |kind| src.plane(kind).to_vec();
    let luma = convolve(src, kernel, divisor, 0);
    Frame::from_planes(
        src.width(),
        src.height(),
        luma,
        chroma(PlaneKind::Cb),
        chroma(PlaneKind::Cr),
    )
}

/// `BLUR`: `[1 2 1; 2 4 2; 1 2 1] / 16` on luma.
pub(crate) fn blur(src: &Frame) -> Frame {
    convolved(src, &[1, 2, 1, 2, 4, 2, 1, 2, 1], 16)
}

/// `SHARPEN`: `[0 -1 0; -1 8 -1; 0 -1 0] / 4` on luma.
pub(crate) fn sharpen(src: &Frame) -> Frame {
    convolved(src, &[0, -1, 0, -1, 8, -1, 0, -1, 0], 4)
}

/// `GRAYSCALE`: luma kept, chroma neutral.
pub(crate) fn grayscale(src: &Frame) -> Frame {
    per_pixel(src, |_, _, c| Yuv::new(c.y, 128, 128))
}

/// Contrast around mid-grey, one luma sample at a time.
pub(crate) fn contrast(src: &Frame, gain: f32) -> Frame {
    per_pixel(src, |_, _, c| {
        let y = ((c.y as f32 - 128.0) * gain + 128.0).clamp(0.0, 255.0) as u8;
        Yuv::new(y, c.u, c.v)
    })
}
