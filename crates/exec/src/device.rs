//! Execution devices.
//!
//! LightDB's physical operators come in CPU, GPU, and FPGA variants.
//! In this reproduction the GPU is simulated by a data-parallel
//! thread-pool backend (the real system used NVENC/NVDEC and CUDA)
//! and the FPGA by a fixed-function kernel (see [`crate::fpga`]).
//! `TRANSFER` operators copy buffers between devices; the copies are
//! real `memcpy`s, so the optimizer's keep-data-on-device heuristic
//! has a measurable effect.

use lightdb_frame::Frame;

/// An execution device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    Cpu,
    Gpu,
    Fpga,
}

impl Device {
    pub fn name(self) -> &'static str {
        match self {
            Device::Cpu => "CPU",
            Device::Gpu => "GPU",
            Device::Fpga => "FPGA",
        }
    }
}

/// Number of worker threads the simulated GPU uses. Overridable via
/// `LIGHTDB_GPU_WORKERS` for experiments; malformed values warn
/// loudly (via [`lightdb_core::envknob`]) and fall back to the core
/// count instead of being silently ignored.
pub fn gpu_workers() -> usize {
    match lightdb_core::envknob::read_usize("LIGHTDB_GPU_WORKERS") {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
    }
}

/// Runs `f(index, item)` over `items` on the simulated GPU — the
/// executor's one work queue ([`crate::parallel::scatter`]) sized by
/// [`gpu_workers`] — preserving output order.
pub fn gpu_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(usize, T) -> U + Sync) -> Vec<U> {
    crate::parallel::scatter(items, gpu_workers(), f)
}

/// Splits the luma rows of a frame into `gpu_workers()` bands and
/// applies `kernel(src, dst, row_lo, row_hi)` to each band in
/// parallel — the simulated-GPU path for row-parallel `MAP` kernels.
pub fn gpu_row_kernel(
    src: &Frame,
    kernel: impl Fn(&Frame, &mut Frame, usize, usize) + Sync,
) -> Frame {
    let h = src.height();
    let workers = gpu_workers().min(h / 2).max(1);
    if workers <= 1 {
        let mut dst = src.clone();
        kernel(src, &mut dst, 0, h);
        return dst;
    }
    // Bands are 2-aligned so chroma rows split cleanly.
    let bands = lightdb_frame::kernels::row_bands(h, workers);
    let outputs = gpu_map(bands, |_, (lo, hi)| {
        // A fresh (zeroed) frame per band: the kernel writes only
        // rows [lo, hi), so cloning the source would be wasted work.
        let mut dst = Frame::new(src.width(), src.height());
        kernel(src, &mut dst, lo, hi);
        (lo, hi, dst)
    });
    // Stitch the bands back together.
    let mut out = src.clone();
    for (lo, hi, piece) in outputs {
        let w = src.width();
        out.plane_mut(lightdb_frame::PlaneKind::Luma)[lo * w..hi * w]
            .copy_from_slice(&piece.plane(lightdb_frame::PlaneKind::Luma)[lo * w..hi * w]);
        let cw = w / 2;
        let (clo, chi) = (lo / 2, hi / 2);
        for plane in [lightdb_frame::PlaneKind::Cb, lightdb_frame::PlaneKind::Cr] {
            let slice = piece.plane(plane)[clo * cw..chi * cw].to_vec();
            out.plane_mut(plane)[clo * cw..chi * cw].copy_from_slice(&slice);
        }
    }
    out
}

/// Simulates a device-to-device transfer of frame buffers: a real
/// deep copy (the PCIe cost the optimizer tries to avoid).
pub fn transfer_frames(frames: &[Frame]) -> Vec<Frame> {
    frames.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_frame::{kernels, Yuv};

    #[test]
    fn gpu_map_preserves_order() {
        let out = gpu_map((0..64).collect::<Vec<i32>>(), |_, v| v * 2);
        assert_eq!(out, (0..64).map(|v| v * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn gpu_map_empty_and_single() {
        assert!(gpu_map(Vec::<u8>::new(), |_, v| v).is_empty());
        assert_eq!(gpu_map(vec![7], |_, v| v + 1), vec![8]);
    }

    #[test]
    fn gpu_row_kernel_matches_sequential() {
        let mut f = Frame::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                f.set(x, y, Yuv::new(((x * 3 + y * 5) % 256) as u8, x as u8, y as u8));
            }
        }
        let seq = kernels::blur(&f);
        let par = gpu_row_kernel(&f, kernels::blur_rows);
        assert_eq!(seq, par);
    }

    #[test]
    fn transfer_is_a_deep_copy() {
        let f = vec![Frame::filled(8, 8, Yuv::GREY)];
        let t = transfer_frames(&f);
        assert_eq!(f, t);
    }

    #[test]
    fn device_names() {
        assert_eq!(Device::Cpu.name(), "CPU");
        assert_eq!(Device::Gpu.name(), "GPU");
        assert_eq!(Device::Fpga.name(), "FPGA");
    }
}
