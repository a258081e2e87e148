//! The codec's kernels as they were before their overhauls, kept as
//! differential oracles: bit-at-a-time bit I/O and Exp-Golomb codes,
//! per-pixel SAD, block sum, intra cost and block extraction, and the
//! separable `f64` DCT (the normative transform, which `transform`
//! still runs privately as its fallback for near-tie and out-of-range
//! blocks).
//!
//! Shared by this crate's unit tests (`lib.rs` includes it under
//! `cfg(test)`) and, through `#[path]`, by `lightdb-bench`'s kernel
//! benchmark, which times the shipped kernels against it. Public API
//! only — nothing here can reach into the codec.

// Each includer uses its own part.
#![allow(dead_code)]

/// Bit-at-a-time writer and reader: the bit I/O before the word-level
/// fast paths.
pub(crate) mod bitio {
    use lightdb_codec::{CodecError, Result};

    /// MSB-first bit writer (reference, one bit per call).
    #[derive(Debug, Default)]
    pub(crate) struct RefBitWriter {
        buf: Vec<u8>,
        pending: u32,
        acc: u8,
    }

    impl RefBitWriter {
        pub(crate) fn new() -> Self {
            RefBitWriter::default()
        }

        pub(crate) fn write_bits(&mut self, value: u32, n: u32) {
            debug_assert!(n <= 32);
            for i in (0..n).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        #[inline]
        pub(crate) fn write_bit(&mut self, bit: bool) {
            self.acc = (self.acc << 1) | bit as u8;
            self.pending += 1;
            if self.pending == 8 {
                self.buf.push(self.acc);
                self.acc = 0;
                self.pending = 0;
            }
        }

        pub(crate) fn align(&mut self) {
            while self.pending != 0 {
                self.write_bit(false);
            }
        }

        pub(crate) fn into_bytes(mut self) -> Vec<u8> {
            self.align();
            self.buf
        }
    }

    /// MSB-first bit reader (reference, one bit per call).
    #[derive(Debug)]
    pub(crate) struct RefBitReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> RefBitReader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            RefBitReader { buf, pos: 0 }
        }

        #[inline]
        pub(crate) fn read_bit(&mut self) -> Result<bool> {
            let byte = self.pos / 8;
            if byte >= self.buf.len() {
                return Err(CodecError::Corrupt("bit read past end of payload"));
            }
            let bit = (self.buf[byte] >> (7 - self.pos % 8)) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        pub(crate) fn read_bits(&mut self, n: u32) -> Result<u32> {
            debug_assert!(n <= 32);
            let mut v = 0u32;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u32;
            }
            Ok(v)
        }

        pub(crate) fn bit_position(&self) -> usize {
            self.pos
        }
    }
}

/// Loop-based Exp-Golomb codes over the reference bit I/O.
pub(crate) mod golomb {
    use super::bitio::{RefBitReader, RefBitWriter};
    use lightdb_codec::{CodecError, Result};

    pub(crate) fn write_ue(w: &mut RefBitWriter, v: u32) {
        let x = v as u64 + 1;
        let bits = 64 - x.leading_zeros();
        w.write_bits(0, bits - 1);
        if bits > 32 {
            w.write_bit(true);
            w.write_bits((x & 0xffff_ffff) as u32, 32);
        } else {
            w.write_bits(x as u32, bits);
        }
    }

    pub(crate) fn read_ue(r: &mut RefBitReader<'_>) -> Result<u32> {
        let mut zeros = 0u32;
        while !r.read_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(CodecError::Corrupt("exp-golomb prefix too long"));
            }
        }
        let suffix = if zeros == 0 {
            0
        } else {
            r.read_bits(zeros)? as u64
        };
        let x = (1u64 << zeros) | suffix;
        Ok((x - 1) as u32)
    }

    pub(crate) fn write_se(w: &mut RefBitWriter, v: i32) {
        let mapped = if v > 0 {
            (v as u32) * 2 - 1
        } else {
            (-(v as i64) as u32) * 2
        };
        write_ue(w, mapped);
    }
}

/// Scalar per-pixel kernels: the SAD, block sum, intra cost and block
/// copies before vectorised rows and row slices.
pub(crate) mod predict {
    use lightdb_codec::MB_SIZE;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sad_mb(
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
        let mut sum = 0u32;
        for row in 0..MB_SIZE {
            let abase = (ay + row) * a_stride + ax;
            let bbase = (by + row) * b_stride + bx;
            for col in 0..MB_SIZE {
                sum += (a[abase + col] as i32 - b[bbase + col] as i32).unsigned_abs();
            }
            if sum >= early_exit {
                return sum;
            }
        }
        sum
    }

    pub(crate) fn mb_sum(plane: &[u8], stride: usize, x: usize, y: usize) -> u32 {
        let mut sum = 0u32;
        for row in 0..MB_SIZE {
            for col in 0..MB_SIZE {
                sum += plane[(y + row) * stride + x + col] as u32;
            }
        }
        sum
    }

    pub(crate) fn intra_cost_estimate(
        plane: &[u8],
        stride: usize,
        x: usize,
        y: usize,
        sum: u32,
    ) -> u32 {
        let mean = (sum / (MB_SIZE * MB_SIZE) as u32) as i32;
        let mut sad = 0u32;
        for row in 0..MB_SIZE {
            for col in 0..MB_SIZE {
                sad += (plane[(y + row) * stride + x + col] as i32 - mean).unsigned_abs();
            }
        }
        sad
    }

    pub(crate) fn extract_block<const SZ: usize>(
        plane: &[u8],
        stride: usize,
        x: usize,
        y: usize,
    ) -> [i32; SZ] {
        let n = (SZ as f64).sqrt() as usize;
        let mut out = [0i32; SZ];
        for row in 0..n {
            let base = (y + row) * stride + x;
            for col in 0..n {
                out[row * n + col] = plane[base + col] as i32;
            }
        }
        out
    }
}

/// The separable `f64` 8×8 DCT: the normative definition of the
/// bitstream, before the fixed-point tiers.
pub(crate) mod transform {
    const N: usize = lightdb_codec::BLOCK_SIZE;

    fn basis() -> &'static [[f64; N]; N] {
        static BASIS: std::sync::OnceLock<[[f64; N]; N]> = std::sync::OnceLock::new();
        BASIS.get_or_init(|| {
            let mut b = [[0.0; N]; N];
            for (u, row) in b.iter_mut().enumerate() {
                let alpha = if u == 0 {
                    (1.0 / N as f64).sqrt()
                } else {
                    (2.0 / N as f64).sqrt()
                };
                for (x, v) in row.iter_mut().enumerate() {
                    *v = alpha
                        * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI
                            / (2.0 * N as f64))
                            .cos();
                }
            }
            b
        })
    }

    pub(crate) fn forward(block: &[i32; N * N]) -> [i32; N * N] {
        let b = basis();
        // Rows then columns (separable).
        let mut tmp = [0.0f64; N * N];
        for y in 0..N {
            for u in 0..N {
                let mut acc = 0.0;
                for x in 0..N {
                    acc += block[y * N + x] as f64 * b[u][x];
                }
                tmp[y * N + u] = acc;
            }
        }
        let mut out = [0i32; N * N];
        for u in 0..N {
            for v in 0..N {
                let mut acc = 0.0;
                for y in 0..N {
                    acc += tmp[y * N + u] * b[v][y];
                }
                out[v * N + u] = acc.round() as i32;
            }
        }
        out
    }

    pub(crate) fn inverse(coeffs: &[i32; N * N]) -> [i32; N * N] {
        let b = basis();
        let mut tmp = [0.0f64; N * N];
        for v in 0..N {
            for x in 0..N {
                let mut acc = 0.0;
                for u in 0..N {
                    acc += coeffs[v * N + u] as f64 * b[u][x];
                }
                tmp[v * N + x] = acc;
            }
        }
        let mut out = [0i32; N * N];
        for y in 0..N {
            for x in 0..N {
                let mut acc = 0.0;
                for v in 0..N {
                    acc += tmp[v * N + x] * b[v][y];
                }
                out[y * N + x] = acc.round() as i32;
            }
        }
        out
    }
}
