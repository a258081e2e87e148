//! Exp-Golomb entropy codes, as used by H.264/HEVC for syntax
//! elements. Order-0 unsigned (`ue`) and signed (`se`) variants.
//!
//! Encoding emits the whole codeword (zero prefix + value) through
//! one or two word-level `write_bits` calls; decoding scans the unary
//! prefix with `leading_zeros` over the reader's bit window. Both are
//! bit-identical to the loop-based forms kept as this crate's test
//! oracle (`tests/oracle/kernels.rs`).

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// Longest legal `ue` zero prefix: 32 zeros precede the 33-bit
/// codeword of `u32::MAX`.
const MAX_UE_PREFIX: u32 = 32;

/// Writes an order-0 unsigned Exp-Golomb code for `v`.
///
/// Codeword: `v+1` in binary, preceded by `floor(log2(v+1))` zero
/// bits. Small values take few bits: 0→`1`, 1→`010`, 2→`011`, …
#[inline]
pub fn write_ue(w: &mut BitWriter, v: u32) {
    let x = v as u64 + 1;
    let bits = 64 - x.leading_zeros(); // position of the MSB
    if bits > 32 {
        // v == u32::MAX: 32 zeros, the marker bit, then 32 value bits.
        w.write_bits(0, 32);
        w.write_bit(true);
        w.write_bits((x & 0xffff_ffff) as u32, 32);
    } else {
        // Prefix and codeword in one call each: `bits - 1` zeros then
        // the `bits`-bit value (whose MSB is the terminating 1).
        w.write_bits(0, bits - 1);
        w.write_bits(x as u32, bits);
    }
}

/// Reads an order-0 unsigned Exp-Golomb code.
///
/// Rejects corrupt codewords *before* consuming their suffix: a zero
/// run longer than `MAX_UE_PREFIX` errors from the prefix scan
/// itself, and a 32-zero prefix whose suffix is nonzero (a value that
/// would overflow `u32`) is likewise refused.
#[inline]
pub fn read_ue(r: &mut BitReader<'_>) -> Result<u32> {
    let zeros = r.read_unary_capped(MAX_UE_PREFIX)?;
    if zeros == 0 {
        return Ok(0);
    }
    let suffix = r.read_bits(zeros)? as u64;
    if zeros == MAX_UE_PREFIX && suffix != 0 {
        // (1<<32 | suffix) - 1 would exceed u32::MAX.
        return Err(CodecError::Corrupt("exp-golomb value overflows u32"));
    }
    let x = (1u64 << zeros) | suffix;
    Ok((x - 1) as u32)
}

/// Signed Exp-Golomb (`se`): zig-zag maps `0, 1, -1, 2, -2, …`.
#[inline]
pub fn write_se(w: &mut BitWriter, v: i32) {
    let mapped = if v > 0 {
        (v as u32) * 2 - 1
    } else {
        (-(v as i64) as u32) * 2
    };
    write_ue(w, mapped);
}

/// Reads a signed Exp-Golomb code.
#[inline]
pub fn read_se(r: &mut BitReader<'_>) -> Result<i32> {
    let u = read_ue(r)? as i64;
    Ok(if u % 2 == 1 {
        ((u + 1) / 2) as i32
    } else {
        (-(u / 2)) as i32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_kernels::bitio::{RefBitReader, RefBitWriter};
    use crate::reference_kernels::golomb as reference;
    use proptest::prelude::*;

    #[test]
    fn ue_known_codewords() {
        // v=0 encodes as a single '1' bit.
        let mut w = BitWriter::new();
        write_ue(&mut w, 0);
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);
        // v=1 encodes as '010'.
        let mut w = BitWriter::new();
        write_ue(&mut w, 1);
        assert_eq!(w.into_bytes(), vec![0b0100_0000]);
        // v=2 encodes as '011'.
        let mut w = BitWriter::new();
        write_ue(&mut w, 2);
        assert_eq!(w.into_bytes(), vec![0b0110_0000]);
    }

    #[test]
    fn small_values_are_cheap() {
        let mut w = BitWriter::new();
        for v in 0..8u32 {
            write_ue(&mut w, v);
        }
        // 1 + 3+3 + 5+5+5+5 + 7 = 34 bits → 5 bytes.
        assert_eq!(w.into_bytes().len(), 5);
    }

    #[test]
    fn se_mapping() {
        for (v, u) in [(0i32, 0u32), (1, 1), (-1, 2), (2, 3), (-2, 4)] {
            let mut w = BitWriter::new();
            write_se(&mut w, v);
            let mut w2 = BitWriter::new();
            write_ue(&mut w2, u);
            assert_eq!(w.into_bytes(), w2.into_bytes(), "v={v}");
        }
    }

    #[test]
    fn corrupt_prefix_detected() {
        // 5 zero bytes = 40 zero bits: longer than any valid prefix.
        let zeros = [0u8; 5];
        let mut r = BitReader::new(&zeros);
        assert!(read_ue(&mut r).is_err());
    }

    #[test]
    fn overlong_prefix_rejected_before_suffix() {
        // 33 zeros, a 1, then 33 readable suffix bits: the prefix
        // alone is invalid, and the error must fire without the
        // reader advancing past the run.
        let mut w = BitWriter::new();
        w.write_bits(0, 32);
        w.write_bits(0, 1);
        w.write_bit(true);
        w.write_bits(u32::MAX, 32);
        w.write_bits(u32::MAX, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(read_ue(&mut r), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn truncated_prefix_and_suffix_rejected() {
        // Prefix run hits end of payload: 16 zeros then nothing.
        let bytes = [0u8; 2];
        let mut r = BitReader::new(&bytes);
        assert!(read_ue(&mut r).is_err());
        // Valid prefix, truncated suffix: '0001' promises 3 suffix
        // bits but the payload ends after one byte (4 padding bits
        // serve as suffix start, then EOF mid-codeword for a longer
        // prefix).
        let mut w = BitWriter::new();
        w.write_bits(0, 12); // 12-zero prefix, no terminator, no suffix
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(read_ue(&mut r).is_err());
    }

    #[test]
    fn max_value_roundtrips_but_overflow_rejected() {
        // u32::MAX is the one value with a 32-zero prefix; it must
        // round-trip…
        let mut w = BitWriter::new();
        write_ue(&mut w, u32::MAX);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_ue(&mut r).unwrap(), u32::MAX);
        // …while the adjacent overlong codeword (32 zeros, marker,
        // nonzero suffix) is refused instead of wrapping to 0.
        let mut w = BitWriter::new();
        w.write_bits(0, 32);
        w.write_bit(true);
        w.write_bits(1, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(read_ue(&mut r), Err(CodecError::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn ue_roundtrips(v in any::<u32>()) {
            let mut w = BitWriter::new();
            write_ue(&mut w, v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(read_ue(&mut r).unwrap(), v);
        }

        #[test]
        fn se_roundtrips(v in any::<i32>()) {
            // i32::MIN maps outside the u32 zig-zag range; the codec
            // never emits it (coefficients are small), so test the
            // representable range.
            prop_assume!(v > i32::MIN);
            let mut w = BitWriter::new();
            write_se(&mut w, v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(read_se(&mut r).unwrap(), v);
        }

        #[test]
        fn sequences_roundtrip(vs in proptest::collection::vec(0u32..10_000, 0..64)) {
            let mut w = BitWriter::new();
            for &v in &vs {
                write_ue(&mut w, v);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &vs {
                prop_assert_eq!(read_ue(&mut r).unwrap(), v);
            }
        }

        /// Word-level `ue`/`se` encode is byte-identical to the
        /// retained bit-at-a-time reference for mixed sequences.
        #[test]
        fn codewords_match_reference(
            vs in proptest::collection::vec((any::<u32>(), any::<i32>()), 0..64),
        ) {
            let mut fast = BitWriter::new();
            let mut slow = RefBitWriter::new();
            for &(u, s) in &vs {
                let s = if s == i32::MIN { 0 } else { s };
                write_ue(&mut fast, u);
                reference::write_ue(&mut slow, u);
                write_se(&mut fast, s);
                reference::write_se(&mut slow, s);
            }
            prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
        }

        /// Word-level decode agrees with the reference decoder on
        /// arbitrary byte soup: same values, same positions, and
        /// errors at the same codeword (the fast path may reject an
        /// overlong run slightly earlier in bit position, so only
        /// error *presence* is compared there).
        #[test]
        fn decode_matches_reference(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = RefBitReader::new(&bytes);
            loop {
                match (read_ue(&mut fast), reference::read_ue(&mut slow)) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(fast.bit_position(), slow.bit_position());
                    }
                    (Err(_), Err(_)) => break,
                    // The fast path additionally rejects 32-zero
                    // prefixes with nonzero suffix (overflow); the
                    // reference silently wraps there. Accept that
                    // strictly-safer divergence alone.
                    (Err(_), Ok(b)) => {
                        prop_assert!(b == 0, "fast rejected value {b} the reference accepted");
                        break;
                    }
                    (a, b) => prop_assert!(false, "divergence: fast {a:?} vs slow {b:?}"),
                }
                if fast.is_exhausted() {
                    break;
                }
            }
        }
    }
}
