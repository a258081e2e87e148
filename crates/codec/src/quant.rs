//! Quantisation.
//!
//! The quantisation parameter (QP) follows the H.264 convention: the
//! quantiser step size doubles every six QP steps, so the full 0..=51
//! range spans roughly three orders of magnitude of rate. A JPEG-like
//! frequency-weighting matrix shapes the error toward high
//! frequencies, and an optional deadzone (used by the HEVC-sim
//! profile) biases small coefficients to zero for extra compression.
//!
//! Everything here is integer arithmetic on constant tables, built at
//! compile time: no float decides any bit of the stream.

use crate::transform::{COEFF_FRAC_BITS, FORWARD_SHIFTS, ROW_PEAKS};
use crate::BLOCK_SIZE;

const N: usize = BLOCK_SIZE;

/// Maximum supported quantisation parameter.
pub const QP_MAX: u8 = 51;

const QPS: usize = QP_MAX as usize + 1;

/// Frequency-weighting matrix (luma), loosely after the JPEG K.1
/// table, normalised so the DC weight is 1.
pub const WEIGHTS: [u16; N * N] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// The quantiser step size per QP, `0.625 · 2^(qp/6)` scaled ×64 and
/// rounded to the nearest integer: `round(40 · 2^(qp/6))`.
const QSTEP_X64: [u32; QPS] = [
    40, 45, 50, 57, 63, 71, 80, 90, 101, 113, 127, 143, 160, 180, 202, 226, 254, 285, 320, 359,
    403, 453, 508, 570, 640, 718, 806, 905, 1016, 1140, 1280, 1437, 1613, 1810, 2032, 2281, 2560,
    2874, 3225, 3620, 4064, 4561, 5120, 5747, 6451, 7241, 8127, 9123, 10240, 11494, 12902, 14482,
];

/// The quantiser step size for a QP, ×64.
#[inline]
pub fn qstep_x64(qp: u8) -> u32 {
    debug_assert!(qp <= QP_MAX);
    QSTEP_X64[qp as usize]
}

/// Per-QP quantiser tables: the weighted divisor for each coefficient
/// position, the two rounding offsets, and what follows from them
/// about zero levels. Hoisting these out of the per-block loops
/// removes a multiply and divide per coefficient from both hot paths.
///
/// Divisors and offsets are scaled by `2^COEFF_FRAC_BITS`, the
/// precision the transform's coefficients carry below the orthonormal
/// scale, so a qp's step is the same size relative to the signal.
struct QpTables {
    /// `step(qp) · WEIGHTS[i] / 16 · 2^COEFF_FRAC_BITS` per coefficient
    /// position.
    div: [[i64; N * N]; QPS],
    /// Rounding offsets, indexed by `deadzone as usize`:
    /// `[step/2, step/6] · 2^COEFF_FRAC_BITS`.
    offset: [[i64; 2]; QPS],
    /// The zero bin, `[qp][deadzone][i]`: the largest `|c|` with
    /// `|c|·64 + offset < div[i]`, i.e. `(div[i] − offset − 1) / 64`.
    zero_max: [[[u32; N * N]; 2]; QPS],
    /// See [`zero_block_sad_bound`], `[qp][deadzone]`.
    sad_gate: [[u32; 2]; QPS],
}

static TABLES: QpTables = build_tables();

const fn build_tables() -> QpTables {
    let mut t = QpTables {
        div: [[0; N * N]; QPS],
        offset: [[0; 2]; QPS],
        zero_max: [[[0; N * N]; 2]; QPS],
        sad_gate: [[u32::MAX; 2]; QPS],
    };
    let mut qp = 0;
    while qp < QPS {
        let step = (QSTEP_X64[qp] as i64) << COEFF_FRAC_BITS;
        t.offset[qp] = [step / 2, step / 6];
        let mut i = 0;
        while i < N * N {
            t.div[qp][i] = step * WEIGHTS[i] as i64 / 16; // weight normalised to DC=16
            let mut dz = 0;
            while dz < 2 {
                // Every divisor exceeds both offsets (the smallest
                // weight is 10/16 > 1/2), so the bin holds 0.
                let z = (t.div[qp][i] - t.offset[qp][dz] - 1) / 64;
                t.zero_max[qp][dz][i] = z as u32;
                let gate = sad_gate_at(z, ROW_PEAKS[i % N] as i64, ROW_PEAKS[i / N] as i64);
                if gate < t.sad_gate[qp][dz] {
                    t.sad_gate[qp][dz] = gate;
                }
                dz += 1;
            }
            i += 1;
        }
        qp += 1;
    }
    t
}

/// The SAD gate of one coefficient position with zero bin `|c| ≤ z`,
/// horizontal row peak `pu` and vertical row peak `pv`: the smallest
/// residual SAD that could move the coefficient out of its bin.
///
/// With `S_x = Σ_y |r[y][x]|`, the first pass gives `|T[v][x]| ≤
/// (pv·S_x + h1) / 2^s1` (`h1 = 2^(s1−1)`; the floor of `(s + h1) /
/// 2^s1` is at most `h1/2^s1` further from zero than `s/2^s1`), so
/// `Σ_x |T[v][x]| ≤ (pv·SAD + 8·h1) / 2^s1`, and the second pass's sum
/// is at most `pu` times that. The coefficient `(s + h2) >> s2` stays
/// in the bin while `|s| ≤ z·2^s2 + h2 − 1`. So every
/// `SAD ≤ (2^s1·(z·2^s2 + h2 − 1) − 8·h1·pu) / (pu·pv)` quantises to
/// zero at this position, and the gate is one past that.
const fn sad_gate_at(z: i64, pu: i64, pv: i64) -> u32 {
    let [s1, s2] = FORWARD_SHIFTS;
    let (h1, h2) = (1i64 << (s1 - 1), 1i64 << (s2 - 1));
    let reach = ((z << s2) + h2 - 1) << s1;
    ((reach - 8 * h1 * pu) / (pu * pv) + 1) as u32
}

/// The all-zero-block SAD gate: an 8×8 residual whose sum of absolute
/// values is **below** this bound quantises to all-zero levels at
/// `(qp, deadzone)`, so the encoder may skip transforming it.
///
/// It is the smallest of the per-position gates (`sad_gate_at`),
/// which bound each coefficient of [`crate::transform::forward`]
/// through the integer matrix's row peaks
/// ([`crate::transform::ROW_PEAKS`]) and the definition's rounding
/// shifts. Below it no position can produce a nonzero level.
pub fn zero_block_sad_bound(qp: u8, deadzone: bool) -> u32 {
    debug_assert!(qp <= QP_MAX);
    TABLES.sad_gate[qp as usize][deadzone as usize]
}

/// Quantises a coefficient block in place and returns how many levels
/// are nonzero.
///
/// A level is `sign(c) · (|c|·64 + offset) / div[i]` (integer
/// division), where `offset` is `step/2` — round to nearest — or, with
/// `deadzone`, `step/6`, which widens the zero bin so a coefficient
/// must be clearly nonzero to survive (HEVC's RDOQ in spirit: rate for
/// quality). So a level is zero **iff `|c|·64 + offset < div[i]`**,
/// i.e. `|c| ≤ zero_max[i]`, and only coefficients past their zero bin
/// are divided.
pub fn quantize(coeffs: &mut [i32; N * N], qp: u8, deadzone: bool) -> u32 {
    debug_assert!(qp <= QP_MAX);
    let zero_max = &TABLES.zero_max[qp as usize][deadzone as usize];
    let div = &TABLES.div[qp as usize];
    let offset = TABLES.offset[qp as usize][deadzone as usize];
    let mut nnz = 0;
    for ((c, &d), &z) in coeffs.iter_mut().zip(div).zip(zero_max) {
        let mag = c.unsigned_abs();
        *c = if mag <= z {
            0
        } else {
            let q = (mag as i64 * 64 + offset) / d;
            (if *c < 0 { -q } else { q }) as i32
        };
        nnz += (*c != 0) as u32;
    }
    nnz
}

/// Reconstructs coefficients from quantised levels, clipped to the
/// `i16` range the inverse transform reads. A hostile level saturates
/// instead of wrapping, and so can a real one: without the deadzone,
/// from qp 29 up, the DC of a near-flat ±255 block (±32 640) can round
/// to a level whose dequantised value passes it (qp 29: 32 775). The
/// encoder reconstructs through this function too, so its reference
/// frames stay the decoder's.
pub fn dequantize(levels: &mut [i32; N * N], qp: u8) {
    debug_assert!(qp <= QP_MAX);
    let div = &TABLES.div[qp as usize];
    for (l, &d) in levels.iter_mut().zip(div.iter()) {
        *l = ((*l as i64 * d) / 64).clamp(i16::MIN as i64, i16::MAX as i64) as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{forward, inverse};
    use proptest::prelude::*;

    #[test]
    fn tables_match_direct_computation() {
        let t = &TABLES;
        for qp in 0..=QP_MAX {
            let step = (qstep_x64(qp) as i64) << COEFF_FRAC_BITS;
            assert_eq!(t.offset[qp as usize], [step / 2, step / 6], "qp {qp}");
            for (i, &w) in WEIGHTS.iter().enumerate() {
                assert_eq!(t.div[qp as usize][i], step * w as i64 / 16, "qp {qp} i {i}");
            }
        }
    }

    /// The step table holds `round(40 · 2^(qp/6))` at every qp.
    #[test]
    fn qstep_table_is_forty_times_two_to_the_qp_over_six() {
        for qp in 0..=QP_MAX {
            let exact = 40.0 * 2f64.powf(qp as f64 / 6.0);
            assert_eq!(qstep_x64(qp), exact.round() as u32, "qp {qp}");
        }
    }

    #[test]
    fn qstep_doubles_every_six() {
        let a = qstep_x64(0);
        let b = qstep_x64(6);
        let c = qstep_x64(12);
        assert!((b as f64 / a as f64 - 2.0).abs() < 0.05);
        assert!((c as f64 / b as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn low_qp_preserves_more_coefficients() {
        let mut block = [0i32; N * N];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as i32 * 29) % 200) - 100;
        }
        let coeffs = forward(&block);
        let mut lo = coeffs;
        let mut hi = coeffs;
        quantize(&mut lo, 4, false);
        quantize(&mut hi, 40, false);
        let nz_lo = lo.iter().filter(|&&v| v != 0).count();
        let nz_hi = hi.iter().filter(|&&v| v != 0).count();
        assert!(
            nz_lo > nz_hi,
            "low QP {nz_lo} should keep more than high QP {nz_hi}"
        );
    }

    #[test]
    fn deadzone_zeroes_more() {
        let mut block = [0i32; N * N];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as i32 * 13) % 40) - 20;
        }
        let coeffs = forward(&block);
        let mut plain = coeffs;
        let mut dz = coeffs;
        quantize(&mut plain, 20, false);
        quantize(&mut dz, 20, true);
        let nz_plain = plain.iter().filter(|&&v| v != 0).count();
        let nz_dz = dz.iter().filter(|&&v| v != 0).count();
        assert!(nz_dz <= nz_plain);
    }

    #[test]
    fn quant_roundtrip_error_scales_with_qp() {
        let mut block = [0i32; N * N];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (((i * 71) % 511) as i32) - 255;
        }
        let err = |qp: u8| {
            let mut c = forward(&block);
            quantize(&mut c, qp, false);
            dequantize(&mut c, qp);
            let rec = inverse(&c);
            block
                .iter()
                .zip(rec.iter())
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum::<f64>()
                / (N * N) as f64
        };
        let e_low = err(4);
        let e_high = err(44);
        assert!(
            e_low < e_high,
            "low-QP error {e_low} must beat high-QP {e_high}"
        );
        assert!(
            e_low < 50.0,
            "low QP should be near-lossless-ish, mse={e_low}"
        );
    }

    proptest! {
        #[test]
        fn quantize_dequantize_never_flips_sign(
            vals in proptest::collection::vec(-2000i32..=2000, N * N),
            qp in 0u8..=QP_MAX,
        ) {
            let mut c = [0i32; N * N];
            c.copy_from_slice(&vals);
            let orig = c;
            quantize(&mut c, qp, false);
            dequantize(&mut c, qp);
            for (o, r) in orig.iter().zip(c.iter()) {
                prop_assert!(*o == 0 || *r == 0 || o.signum() == r.signum());
            }
        }

        #[test]
        fn zero_block_stays_zero(qp in 0u8..=QP_MAX) {
            let mut c = [0i32; N * N];
            quantize(&mut c, qp, true);
            prop_assert!(c.iter().all(|&v| v == 0));
        }
    }
}
