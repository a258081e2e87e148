//! Simulated FPGA acceleration: the depth-map generation kernel.
//!
//! The paper offloads a bilateral-solver depth-map UDF to a Xilinx
//! Kintex-7. We reproduce the *system* effect — a fixed-function
//! accelerator variant of one `INTERPOLATE` UDF that the optimizer
//! can place — with two implementations of block-matching stereo
//! disparity estimation:
//!
//! * [`DepthMapCpu`] — the general implementation: per-block
//!   normalised cross-correlation in floating point;
//! * [`DepthMapFpga`] — the "hardware" implementation: fixed-point
//!   integer sum-of-absolute-differences with early exit, the kind of
//!   datapath an FPGA synthesises.
//!
//! Both produce the same qualitative output (near objects bright);
//! the FPGA variant is substantially faster, which is what Figure 12
//! measures.

use lightdb_core::udf::InterpUdf;
use lightdb_frame::{Frame, PlaneKind, Yuv};

const BLOCK: usize = 8;
const MAX_DISPARITY: usize = 16;

/// Computes a depth map (bright = near) from a stereo frame pair
/// using integer zero-mean SAD (ZSAD) block matching — the
/// DC-compensated variant real fixed-function stereo pipelines use,
/// which keeps the matcher robust to per-block codec brightness
/// noise while staying integer-only.
pub fn depth_map_sad(left: &Frame, right: &Frame) -> Frame {
    let (w, h) = (left.width(), left.height());
    let mut out = Frame::filled(w, h, Yuv::GREY);
    let lp = left.plane(PlaneKind::Luma);
    let rp = right.plane(PlaneKind::Luma);
    for by in (0..h).step_by(BLOCK) {
        for bx in (0..w).step_by(BLOCK) {
            let mut best_d = 0usize;
            let mut best = u32::MAX;
            // Uniqueness bias: a larger disparity must beat the
            // incumbent by a clear margin (suppresses flat-region
            // flicker).
            const BIAS: u32 = 2 * (BLOCK * BLOCK) as u32;
            for d in 0..MAX_DISPARITY.min(bx + 1) {
                // Pass 1: the summed difference gives the DC offset
                // between the two blocks (×64, kept in fixed point).
                let mut diff_sum = 0i32;
                for y in by..(by + BLOCK).min(h) {
                    for x in bx..(bx + BLOCK).min(w) {
                        diff_sum += lp[y * w + x] as i32 - rp[y * w + (x - d)] as i32;
                    }
                }
                let mean_diff = diff_sum / (BLOCK * BLOCK) as i32;
                // Pass 2: SAD of the DC-compensated residuals.
                let limit = best.saturating_sub(BIAS);
                let mut sad = 0u32;
                'block: for y in by..(by + BLOCK).min(h) {
                    for x in bx..(bx + BLOCK).min(w) {
                        sad += (lp[y * w + x] as i32
                            - rp[y * w + (x - d)] as i32
                            - mean_diff)
                            .unsigned_abs();
                        if sad >= limit {
                            break 'block;
                        }
                    }
                }
                if sad < limit {
                    best = sad;
                    best_d = d;
                }
            }
            let depth = (best_d * 255 / MAX_DISPARITY.max(1)) as u8;
            paint_block(&mut out, bx, by, depth);
        }
    }
    out
}

/// Computes a depth map using per-block normalised cross-correlation
/// in floating point — the general (CPU) implementation.
pub fn depth_map_ncc(left: &Frame, right: &Frame) -> Frame {
    let (w, h) = (left.width(), left.height());
    let mut out = Frame::filled(w, h, Yuv::GREY);
    let lp = left.plane(PlaneKind::Luma);
    let rp = right.plane(PlaneKind::Luma);
    let stats = |p: &[u8], bx: usize, by: usize, d: usize| -> (f64, f64) {
        let mut sum = 0.0;
        let mut sq = 0.0;
        for y in by..(by + BLOCK).min(h) {
            for x in bx..(bx + BLOCK).min(w) {
                let v = p[y * w + (x - d)] as f64;
                sum += v;
                sq += v * v;
            }
        }
        let n = (BLOCK * BLOCK) as f64;
        let mean = sum / n;
        (mean, (sq / n - mean * mean).max(1e-6).sqrt())
    };
    for by in (0..h).step_by(BLOCK) {
        for bx in (0..w).step_by(BLOCK) {
            let (lm, ls) = stats(lp, bx, by, 0);
            let mut best_d = 0usize;
            let mut best = f64::NEG_INFINITY;
            for d in 0..MAX_DISPARITY.min(bx + 1) {
                let (rm, rs) = stats(rp, bx, by, d);
                let mut corr = 0.0;
                for y in by..(by + BLOCK).min(h) {
                    for x in bx..(bx + BLOCK).min(w) {
                        corr += (lp[y * w + x] as f64 - lm) * (rp[y * w + (x - d)] as f64 - rm);
                    }
                }
                let ncc = corr / ((BLOCK * BLOCK) as f64 * ls * rs);
                if ncc > best {
                    best = ncc;
                    best_d = d;
                }
            }
            let depth = (best_d * 255 / MAX_DISPARITY.max(1)) as u8;
            paint_block(&mut out, bx, by, depth);
        }
    }
    out
}

fn paint_block(out: &mut Frame, bx: usize, by: usize, depth: u8) {
    let (w, h) = (out.width(), out.height());
    let plane = out.plane_mut(PlaneKind::Luma);
    for y in by..(by + BLOCK).min(h) {
        for x in bx..(bx + BLOCK).min(w) {
            plane[y * w + x] = depth;
        }
    }
}

/// The CPU depth-map `INTERPOLATE` UDF.
#[derive(Debug)]
pub struct DepthMapCpu;

impl InterpUdf for DepthMapCpu {
    fn name(&self) -> &str {
        "DEPTHMAP"
    }

    fn synthesize(&self, inputs: &[&Frame]) -> Frame {
        assert!(inputs.len() >= 2, "depth map needs a stereo pair");
        depth_map_ncc(inputs[0], inputs[1])
    }
}

/// The FPGA-accelerated depth-map `INTERPOLATE` UDF.
#[derive(Debug)]
pub struct DepthMapFpga;

impl InterpUdf for DepthMapFpga {
    fn name(&self) -> &str {
        "DEPTHMAP" // same logical UDF, different physical implementation
    }

    fn synthesize(&self, inputs: &[&Frame]) -> Frame {
        assert!(inputs.len() >= 2, "depth map needs a stereo pair");
        depth_map_sad(inputs[0], inputs[1])
    }

    fn fpga_accelerated(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stereo pair: a textured square at disparity `d` over a
    /// textured background at disparity 0.
    fn stereo_pair(d: usize) -> (Frame, Frame) {
        let (w, h) = (64, 64);
        let mut left = Frame::new(w, h);
        let mut right = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let bg = (((x * 13 + y * 7) % 97) + 60) as u8;
                left.set(x, y, Yuv::new(bg, 128, 128));
                right.set(x, y, Yuv::new(bg, 128, 128));
            }
        }
        // Foreground square (textured so matching locks on).
        for y in 24..40 {
            for x in 32..48 {
                let v = (((x * 31 + y * 17) % 120) + 120) as u8;
                left.set(x, y, Yuv::new(v, 128, 128));
                right.set(x - d, y, Yuv::new(v, 128, 128));
            }
        }
        (left, right)
    }

    #[test]
    fn sad_detects_foreground_disparity() {
        let (l, r) = stereo_pair(8);
        let depth = depth_map_sad(&l, &r);
        // Foreground block should be brighter (nearer) than background.
        let fg = depth.luma_at(36, 28) as i32;
        let bg = depth.luma_at(8, 8) as i32;
        assert!(fg > bg + 50, "fg {fg} vs bg {bg}");
    }

    #[test]
    fn ncc_detects_foreground_disparity() {
        let (l, r) = stereo_pair(8);
        let depth = depth_map_ncc(&l, &r);
        let fg = depth.luma_at(36, 28) as i32;
        let bg = depth.luma_at(8, 8) as i32;
        assert!(fg > bg + 50, "fg {fg} vs bg {bg}");
    }

    #[test]
    fn implementations_agree_qualitatively() {
        let (l, r) = stereo_pair(6);
        let a = depth_map_sad(&l, &r);
        let b = depth_map_ncc(&l, &r);
        // Same foreground block classification.
        let fg_a = a.luma_at(36, 28);
        let fg_b = b.luma_at(36, 28);
        assert_eq!(fg_a, fg_b, "both should lock onto the same disparity");
    }

    #[test]
    fn fpga_variant_is_faster() {
        let (l, r) = stereo_pair(8);
        // Warm up.
        let _ = depth_map_sad(&l, &r);
        let _ = depth_map_ncc(&l, &r);
        // Alternate the two kernels and keep each one's fastest of ten
        // runs, so a burst of load from concurrent work slows both arms
        // alike or lands on runs that are not kept.
        let time = |kernel: fn(&Frame, &Frame) -> Frame| {
            let t = std::time::Instant::now();
            let _ = kernel(&l, &r);
            t.elapsed()
        };
        let (mut fpga, mut cpu) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..10 {
            fpga = fpga.min(time(depth_map_sad));
            cpu = cpu.min(time(depth_map_ncc));
        }
        assert!(
            fpga < cpu,
            "fixed-point SAD ({fpga:?}) should beat float NCC ({cpu:?})"
        );
    }

    #[test]
    fn udf_metadata() {
        assert!(DepthMapFpga.fpga_accelerated());
        assert!(!DepthMapCpu.fpga_accelerated());
        assert_eq!(DepthMapCpu.name(), DepthMapFpga.name());
    }
}
