//! Execution devices.
//!
//! LightDB's physical operators come in CPU, GPU, and FPGA variants
//! (the real system used NVENC/NVDEC and CUDA). In this reproduction a
//! device is a *cost label* on a plan node, not a second code path or
//! threading policy: it decides where `TRANSFER`s are needed (real
//! `memcpy`s, so the optimizer's keep-data-on-device heuristic has a
//! measurable effect) and which motion-search range `ENCODE` uses; the
//! FPGA is a fixed-function kernel (see [`crate::fpga`]). Every device
//! decodes through the one codec path, and how many threads an
//! operator runs on is the query's [`crate::Parallelism`] alone.

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
