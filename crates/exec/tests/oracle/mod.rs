//! `UNION` compositing as it was before the plane-level block kernels
//! (commit d3572aa), kept as the differential oracle: an all-ω canvas,
//! every input resized per frame and moved pixel by pixel through
//! `Frame::get`/`Frame::set`, destination read back after each write.
//! For `MergeFunction::Last` that read-back is harmless and this is
//! the contract; for the other merges it is the bug the block kernel
//! fixed, so only `Last` is compared against it.
//!
//! Shared by this crate's integration tests and, through `#[path]`, by
//! `lightdb-bench`'s kernel benchmark. Public API only.

use lightdb_core::algebra::MergeFunction;
use lightdb_exec::chunk::{is_omega, OMEGA};
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::Volume;

/// `frameops::composite_bucket` for inputs at one spatial position:
/// `(volume, frames)` per input, in union order. Returns the hull and
/// the composited frames.
pub(crate) fn composite(
    inputs: &[(Volume, Vec<Frame>)],
    merge: &MergeFunction,
) -> (Volume, Vec<Frame>) {
    let hull = inputs
        .iter()
        .map(|(v, _)| *v)
        .reduce(|a, b| a.hull(&b))
        .expect("at least one input");
    let (mut density_theta, mut density_phi) = (0.0f64, 0.0f64);
    let mut frame_count = 0;
    for (volume, frames) in inputs {
        if let Some(f) = frames.first() {
            density_theta =
                density_theta.max(f.width() as f64 / volume.theta().length().max(1e-12));
            density_phi = density_phi.max(f.height() as f64 / volume.phi().length().max(1e-12));
        }
        frame_count = frame_count.max(frames.len());
    }
    let canvas_w = (((density_theta * hull.theta().length()).round() as usize).max(2) + 1) & !1;
    let canvas_h = (((density_phi * hull.phi().length()).round() as usize).max(2) + 1) & !1;
    let mut canvas = vec![Frame::filled(canvas_w, canvas_h, OMEGA); frame_count];
    for (volume, frames) in inputs {
        if !frames.is_empty() {
            blit_overlay(&mut canvas, &hull, frames, volume, merge);
        }
    }
    (hull, canvas)
}

fn blit_overlay(
    base: &mut [Frame],
    base_vol: &Volume,
    overlay: &[Frame],
    ov_vol: &Volume,
    merge: &MergeFunction,
) {
    if base.is_empty() {
        return;
    }
    let (w, h) = (base[0].width(), base[0].height());
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
    if x1 <= x0 + 1 || y1 <= y0 + 1 {
        return;
    }
    let (tw, th) = (x1 - x0, y1 - y0);
    for (i, bf) in base.iter_mut().enumerate() {
        let ov = &overlay[i.min(overlay.len() - 1)];
        let scaled;
        let src = if ov.width() == tw && ov.height() == th {
            ov
        } else {
            scaled = ov.resize(tw, th);
            &scaled
        };
        for y in 0..th {
            for x in 0..tw {
                let s = src.get(x, y);
                if is_omega(s) {
                    continue; // null ray: base wins
                }
                let d = bf.get(x0 + x, y0 + y);
                let v = merge_pixels(merge, d, s);
                bf.set(x0 + x, y0 + y, v);
            }
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
