//! Bit-level I/O over byte buffers.
//!
//! The entropy layer writes MSB-first into a `Vec<u8>`; tile payloads
//! are byte-aligned by flushing with zero padding, which is what makes
//! byte-range tile extraction possible.
//!
//! Both ends work a machine word at a time: the writer packs bits into
//! a `u64` accumulator and spills whole 32-bit chunks; the reader
//! refills a left-aligned `u64` window from up to eight payload bytes
//! per refill and serves `read_bits`/unary scans from it with shifts
//! and `leading_zeros` — no per-bit loops on any hot path. The
//! bit-at-a-time originals survive as this crate's test oracle
//! (`tests/oracle/kernels.rs`): both sides must produce/consume
//! *identical* bit sequences, which the property tests at the bottom of
//! this file enforce.

use crate::{CodecError, Result};

/// MSB-first bit writer with a word-level accumulator.
///
/// Invariant: `pending < 32` between calls, so a `write_bits` of up to
/// 32 bits always fits the 64-bit accumulator without loss.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits pending in the low end of `acc`, `0..32`.
    pending: u32,
    acc: u64,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// A writer that reuses `buf` (cleared) as its backing storage —
    /// the scratch-arena path that keeps steady-state encode free of
    /// per-tile allocations.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            buf,
            pending: 0,
            acc: 0,
        }
    }

    /// Writes the low `n` bits of `value`, MSB first. `n ≤ 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        if n == 0 {
            return;
        }
        let masked = (value as u64) & (u64::MAX >> (64 - n));
        self.acc = (self.acc << n) | masked;
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            let chunk = (self.acc >> self.pending) as u32;
            self.buf.extend_from_slice(&chunk.to_be_bytes());
        }
    }

    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        let pad = (8 - self.pending % 8) % 8;
        self.write_bits(0, pad);
        // Spill now-complete bytes so `byte_len` stays exact.
        while self.pending >= 8 {
            self.pending -= 8;
            self.buf.push((self.acc >> self.pending) as u8);
        }
    }

    /// Number of complete bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.buf.len() + self.pending as usize / 8
    }

    /// Resets the writer for reuse, keeping the backing allocation —
    /// the scratch path that makes steady-state encode allocation-free.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pending = 0;
        self.acc = 0;
    }

    /// Aligns to a byte boundary and exposes the bytes written so far
    /// without consuming the writer. Produces the same bytes as
    /// [`BitWriter::into_bytes`], but the writer (and its buffer) can
    /// be [`BitWriter::clear`]ed and reused afterwards.
    pub fn aligned_bytes(&mut self) -> &[u8] {
        self.align();
        &self.buf
    }

    /// Finishes the stream (aligning first) and returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.buf
    }
}

/// MSB-first bit reader with a left-aligned `u64` bit window.
///
/// `acc` holds the next `avail` unread bits in its most-significant
/// end; `ptr` counts whole payload bytes consumed into the window.
/// Refills pull up to eight bytes at once, so `read_bits` and the
/// unary scan used by Exp-Golomb decode touch memory once per ~8
/// payload bytes instead of once per bit.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next unconsumed byte offset in `buf`.
    ptr: usize,
    /// Unread bits, left-aligned (MSB-first).
    acc: u64,
    /// Number of valid bits at the top of `acc`, `0..=64`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            ptr: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Tops up the bit window from the byte buffer. After this, either
    /// `avail ≥ 57` or every remaining payload bit is in the window.
    #[inline]
    fn refill(&mut self) {
        if self.ptr + 8 <= self.buf.len() {
            // Bulk path: load a big-endian word and keep however many
            // whole bytes fit below the current window.
            // Only called with avail < 32, so the shift below is safe
            // and at least four whole bytes are absorbed.
            #[allow(clippy::expect_used)]
            let word = u64::from_be_bytes(
                self.buf[self.ptr..self.ptr + 8]
                    .try_into()
                    // lint: allow(R1): the range is exactly 8 bytes, checked by the branch above
                    .expect("8-byte slice"),
            );
            self.acc |= word >> self.avail;
            let taken = (64 - self.avail) / 8; // whole bytes absorbed
            self.ptr += taken as usize;
            self.avail += taken * 8;
        } else {
            while self.avail <= 56 && self.ptr < self.buf.len() {
                self.acc |= (self.buf[self.ptr] as u64) << (56 - self.avail);
                self.ptr += 1;
                self.avail += 8;
            }
        }
    }

    /// Reads one bit; errors at end of buffer.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `n ≤ 32` bits MSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        if self.avail < n {
            self.refill();
            if self.avail < n {
                return Err(CodecError::Corrupt("bit read past end of payload"));
            }
        }
        let v = (self.acc >> (64 - n)) as u32;
        self.acc <<= n;
        self.avail -= n;
        Ok(v)
    }

    /// Counts and consumes the run of zero bits before (and including)
    /// the next 1 bit, returning the run length — the Exp-Golomb
    /// prefix scan. Runs longer than `limit` zeros error out *before*
    /// the stream position passes them, as do runs that hit the end of
    /// the payload.
    #[inline]
    pub fn read_unary_capped(&mut self, limit: u32) -> Result<u32> {
        let mut zeros = 0u32;
        loop {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    return Err(CodecError::Corrupt("bit read past end of payload"));
                }
            }
            // Zeros visible in the current window (the window's unused
            // low end is zero-filled, so cap the count at `avail`).
            let lz = self.acc.leading_zeros().min(self.avail);
            if zeros + lz > limit {
                return Err(CodecError::Corrupt("exp-golomb prefix too long"));
            }
            zeros += lz;
            if lz < self.avail {
                // Terminating 1 bit is in the window: consume run + 1.
                self.acc <<= lz + 1;
                self.avail -= lz + 1;
                return Ok(zeros);
            }
            // Window exhausted mid-run; drop it and refill.
            self.acc = 0;
            self.avail = 0;
        }
    }

    /// Skips to the next byte boundary.
    pub fn align(&mut self) {
        let extra = self.bit_position() % 8;
        if extra != 0 {
            let n = (8 - extra) as u32;
            self.acc <<= n;
            self.avail -= n;
        }
    }

    /// Bits consumed so far.
    pub fn bit_position(&self) -> usize {
        self.ptr * 8 - self.avail as usize
    }

    /// True when fewer than one bit remains.
    pub fn is_exhausted(&self) -> bool {
        self.avail == 0 && self.ptr >= self.buf.len()
    }
}

/// Appends a LEB128-style variable-length unsigned integer to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_varint`] emits for `v`.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Reads a varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(CodecError::Corrupt("varint past end"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_kernels::bitio::{RefBitReader, RefBitWriter};
    use proptest::prelude::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xffff, 16);
        w.write_bit(false);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xffff);
        assert!(!r.read_bit().unwrap());
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.align();
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn read_past_end_errors() {
        let mut r = BitReader::new(&[0xab]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn full_width_writes_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        w.write_bits(0, 32);
        w.write_bits(0xdead_beef, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32).unwrap(), u32::MAX);
        assert_eq!(r.read_bits(32).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 0xdead_beef);
    }

    #[test]
    fn write_bits_masks_high_bits() {
        // Callers pass unmasked values; only the low n bits may land.
        let mut w = BitWriter::new();
        w.write_bits(0xffff_ffff, 3);
        w.align();
        assert_eq!(w.into_bytes(), vec![0b1110_0000]);
    }

    #[test]
    fn cleared_writer_matches_fresh_writer() {
        let mut reused = BitWriter::new();
        reused.write_bits(0xdead, 16);
        reused.write_bit(true);
        let _ = reused.aligned_bytes();
        reused.clear();
        let mut fresh = BitWriter::new();
        for w in [&mut reused, &mut fresh] {
            w.write_bits(0b101, 3);
            w.write_bits(0xbeef, 16);
        }
        assert_eq!(reused.aligned_bytes(), fresh.aligned_bytes());
        assert_eq!(reused.aligned_bytes().to_vec(), fresh.into_bytes());
    }

    #[test]
    fn byte_len_counts_accumulated_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0, 9);
        assert_eq!(w.byte_len(), 1); // one complete byte, one pending bit
        w.write_bits(0, 23);
        assert_eq!(w.byte_len(), 4);
    }

    #[test]
    fn unary_scan_matches_bit_loop_and_caps() {
        // 40 zero bits then a 1: capped scans must reject before
        // consuming the run.
        let mut bytes = vec![0u8; 5];
        bytes.push(0b1000_0000);
        let mut r = BitReader::new(&bytes);
        assert!(r.read_unary_capped(32).is_err());
        // Uncapped-equivalent: limit 64 admits the run.
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary_capped(64).unwrap(), 40);
        assert_eq!(r.bit_position(), 41);
        // All-zero payload: end of buffer, not an infinite loop.
        let zeros = [0u8; 3];
        let mut r = BitReader::new(&zeros);
        assert!(r.read_unary_capped(64).is_err());
    }

    #[test]
    fn bit_position_tracks_window_reads() {
        let bytes: Vec<u8> = (0..32).collect();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit_position(), 0);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_position(), 5);
        r.read_bits(32).unwrap();
        assert_eq!(r.bit_position(), 37);
        r.align();
        assert_eq!(r.bit_position(), 40);
    }

    #[test]
    fn varint_known_values() {
        for (v, expect) in [
            (0u64, vec![0u8]),
            (127, vec![0x7f]),
            (128, vec![0x80, 0x01]),
        ] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(out, expect);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn varint_roundtrips(v in any::<u64>()) {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn arbitrary_bit_sequences_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..256)) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.write_bit(b);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &b in &bits {
                prop_assert_eq!(r.read_bit().unwrap(), b);
            }
        }

        /// Word-level writer vs bit-at-a-time reference: identical
        /// bytes for arbitrary (value, width) sequences.
        #[test]
        fn writer_matches_reference(
            fields in proptest::collection::vec((any::<u32>(), 0u32..=32), 0..128),
        ) {
            let mut fast = BitWriter::new();
            let mut slow = RefBitWriter::new();
            for &(v, n) in &fields {
                fast.write_bits(v, n);
                slow.write_bits(v, n);
            }
            prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
        }

        /// Word-level reader vs reference over the same byte stream:
        /// identical values, positions, and error points for
        /// arbitrary read-width schedules.
        #[test]
        fn reader_matches_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            widths in proptest::collection::vec(1u32..=32, 1..64),
        ) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = RefBitReader::new(&bytes);
            for &n in &widths {
                let a = fast.read_bits(n);
                let b = slow.read_bits(n);
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        prop_assert_eq!(x, y);
                        prop_assert_eq!(fast.bit_position(), slow.bit_position());
                    }
                    (Err(_), Err(_)) => break,
                    (a, b) => prop_assert!(false, "divergent EOF: fast {a:?} vs slow {b:?}"),
                }
            }
        }

        /// The unary scanner agrees with a read_bit loop on arbitrary
        /// buffers (both the run length and the stream position).
        #[test]
        fn unary_matches_bit_loop(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = RefBitReader::new(&bytes);
            loop {
                let mut zeros = 0u32;
                let slow_run = loop {
                    match slow.read_bit() {
                        Ok(false) => zeros += 1,
                        Ok(true) => break Ok(zeros),
                        Err(e) => break Err(e),
                    }
                };
                match (fast.read_unary_capped(u32::MAX), slow_run) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(fast.bit_position(), slow.bit_position());
                    }
                    (Err(_), Err(_)) => break,
                    (a, b) => prop_assert!(false, "divergent unary: fast {a:?} vs slow {b:?}"),
                }
                if fast.is_exhausted() {
                    break;
                }
            }
        }
    }
}
