//! Execution devices.
//!
//! LightDB's physical operators come in CPU, GPU, and FPGA variants
//! (the real system used NVENC/NVDEC and CUDA). In this reproduction a
//! device is a *cost label* on a plan node, not a second threading
//! policy: it decides where `TRANSFER`s are needed (real `memcpy`s, so
//! the optimizer's keep-data-on-device heuristic has a measurable
//! effect), which motion-search range `ENCODE` uses, and whether a
//! *tiled* GOP decodes its tiles side by side ([`gpu_map`]); the FPGA
//! is a fixed-function kernel (see [`crate::fpga`]). How many threads
//! an operator runs on is the query's [`crate::Parallelism`] alone.

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

/// Number of workers the simulated GPU decodes the tiles of one tiled
/// GOP on (its only use). Overridable via `LIGHTDB_GPU_WORKERS` for
/// experiments; malformed values warn loudly (via
/// [`lightdb_core::envknob`]) and fall back to the core count instead
/// of being silently ignored.
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

/// Simulates a device-to-device transfer of frame buffers: a real
/// deep copy (the PCIe cost the optimizer tries to avoid).
pub fn transfer_frames(frames: &[Frame]) -> Vec<Frame> {
    frames.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_frame::Yuv;

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
