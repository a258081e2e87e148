//! Quantisation.
//!
//! The quantisation parameter (QP) follows the H.264 convention: the
//! quantiser step size doubles every six QP steps, so the full 0..=51
//! range spans roughly three orders of magnitude of rate. A JPEG-like
//! frequency-weighting matrix shapes the error toward high
//! frequencies, and an optional deadzone (used by the HEVC-sim
//! profile) biases small coefficients to zero for extra compression.

use crate::transform::{basis_peaks, APPROX_ERROR};
use crate::BLOCK_SIZE;
use std::sync::OnceLock;

const N: usize = BLOCK_SIZE;

/// Maximum supported quantisation parameter.
pub const QP_MAX: u8 = 51;

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

/// The quantiser step size for a QP: `0.625 · 2^(qp/6)`, scaled ×64
/// and held as an integer to keep the codec deterministic.
#[inline]
pub fn qstep_x64(qp: u8) -> u32 {
    debug_assert!(qp <= QP_MAX);
    // 0.625 * 64 = 40.
    let base = 40.0f64;
    (base * 2f64.powf(qp as f64 / 6.0)).round() as u32
}

/// Slack subtracted from a zero bin's real-valued edge before the SAD
/// gate and the `f32` proof's edges are derived from it: a million
/// times the reference DCT's `f64` rounding error (below `2^-37`), and
/// far too small to move a gate.
const GATE_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// Per-QP quantiser tables: the weighted divisor `step·w/16` for each
/// coefficient position, the two rounding offsets, and what follows
/// from them about zero levels. Hoisting these out of the per-block
/// loops removes a multiply and divide per coefficient from both hot
/// paths; the table values are the *same* integers the loops used to
/// compute, so output is unchanged.
struct QpTables {
    /// `step(qp) · WEIGHTS[i] / 16` per coefficient position.
    div: [[i64; N * N]; (QP_MAX + 1) as usize],
    /// Rounding offsets, indexed by `deadzone as usize`:
    /// `[step/2, step/6]`.
    offset: [[i64; 2]; (QP_MAX + 1) as usize],
    /// The zero bin, `[qp][deadzone][i]`: the largest `|c|` with
    /// `|c|·64 + offset < div[i]`, i.e. `(div[i] − offset − 1) / 64`.
    zero_max: [[[u32; N * N]; 2]; (QP_MAX + 1) as usize],
    /// See [`zero_block_sad_bound`], `[qp][deadzone]`.
    sad_gate: [[u32; 2]; (QP_MAX + 1) as usize],
    /// See [`zero_proof_edges`], `[qp][deadzone][u·N + v]`.
    proof_edge: [[[f32; N * N]; 2]; (QP_MAX + 1) as usize],
}

fn tables() -> &'static QpTables {
    static TABLES: OnceLock<QpTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut div = [[0i64; N * N]; (QP_MAX + 1) as usize];
        let mut offset = [[0i64; 2]; (QP_MAX + 1) as usize];
        let mut zero_max = [[[0u32; N * N]; 2]; (QP_MAX + 1) as usize];
        let mut sad_gate = [[0u32; 2]; (QP_MAX + 1) as usize];
        let mut proof_edge = [[[0f32; N * N]; 2]; (QP_MAX + 1) as usize];
        let peak = basis_peaks();
        for qp in 0..=QP_MAX as usize {
            let step = qstep_x64(qp as u8) as i64;
            offset[qp] = [step / 2, step / 6];
            for (i, d) in div[qp].iter_mut().enumerate() {
                *d = step * WEIGHTS[i] as i64 / 16; // weight normalised to DC=16
            }
            for dz in 0..2 {
                let mut gate = f64::INFINITY;
                for i in 0..N * N {
                    // Every divisor exceeds both offsets (the smallest
                    // weight is 10/16 > 1/2), so the bin holds 0.
                    let z = (div[qp][i] - offset[qp][dz] - 1) / 64;
                    zero_max[qp][dz][i] = z as u32;
                    let reach = peak[i % N] * peak[i / N];
                    gate = gate.min((z as f64 + 0.5 - GATE_MARGIN) / reach);
                }
                sad_gate[qp][dz] = gate.ceil() as u32;
                for (t, edge) in proof_edge[qp][dz].iter_mut().enumerate() {
                    // Transposed: entry u·N + v guards position v·N + u.
                    let z = zero_max[qp][dz][t % N * N + t / N] as f64;
                    let e = z + 0.5 - APPROX_ERROR - GATE_MARGIN;
                    // Rounded down, so the edge loses nothing to `f32`.
                    let f = e as f32;
                    *edge = if f as f64 > e { f.next_down() } else { f };
                }
            }
        }
        QpTables {
            div,
            offset,
            zero_max,
            sad_gate,
            proof_edge,
        }
    })
}

/// The all-zero-block SAD gate: an 8×8 residual whose sum of absolute
/// values is **below** this bound quantises to all-zero levels at
/// `(qp, deadzone)`, so the encoder may skip transforming it.
///
/// Proof. The DCT basis is orthonormal and separable, so coefficient
/// `(u, v)` of a residual `r` is `F = Σ r[x,y]·b_u[x]·b_v[y]` and
/// `|F| ≤ Σ|r| · max|b_u| · max|b_v|`. [`crate::transform::forward`]
/// returns `round(F)` as the `f64` reference computes it (error far
/// below [`GATE_MARGIN`]), which lies in position `i`'s zero bin
/// `|c| ≤ zero_max[i]` whenever `|F| < zero_max[i] + 1/2 − margin`.
/// The bound is the smallest `Σ|r|` that could break that at any
/// position; below it no position can produce a nonzero level.
pub fn zero_block_sad_bound(qp: u8, deadzone: bool) -> u32 {
    debug_assert!(qp <= QP_MAX);
    tables().sad_gate[qp as usize][deadzone as usize]
}

/// The `f32` zero-block proof's edges at `(qp, deadzone)`, in
/// [`crate::transform::forward_approx`]'s transposed layout (entry
/// `u·8 + v` guards coefficient position `v·8 + u`): each is
/// `zero_max + ½ − APPROX_ERROR − margin`, rounded down to `f32`. A
/// residual whose approximate coefficients all lie strictly inside
/// their edges ([`crate::transform::proves_all_zero`]) has every exact
/// coefficient below `zero_max + ½ − margin`, which
/// [`crate::transform::forward`] rounds into the zero bin — the same
/// argument as the SAD gate's, with the approximate transform's error
/// in place of the basis-peak bound.
pub fn zero_proof_edges(qp: u8, deadzone: bool) -> &'static [f32; N * N] {
    debug_assert!(qp <= QP_MAX);
    &tables().proof_edge[qp as usize][deadzone as usize]
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
/// are divided. Blocks that quantise to nothing seldom get here: the
/// encoder's SAD gate and `f32` proof skip them before the transform.
pub fn quantize(coeffs: &mut [i32; N * N], qp: u8, deadzone: bool) -> u32 {
    debug_assert!(qp <= QP_MAX);
    let t = tables();
    let zero_max = &t.zero_max[qp as usize][deadzone as usize];
    let div = &t.div[qp as usize];
    let offset = t.offset[qp as usize][deadzone as usize];
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

/// Reconstructs coefficients from quantised levels.
pub fn dequantize(levels: &mut [i32; N * N], qp: u8) {
    debug_assert!(qp <= QP_MAX);
    let div = &tables().div[qp as usize];
    for (l, &d) in levels.iter_mut().zip(div.iter()) {
        *l = ((*l as i64 * d) / 64) as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{forward, inverse};
    use proptest::prelude::*;

    #[test]
    fn tables_match_direct_computation() {
        let t = tables();
        for qp in 0..=QP_MAX {
            let step = qstep_x64(qp) as i64;
            assert_eq!(t.offset[qp as usize], [step / 2, step / 6], "qp {qp}");
            for (i, &w) in WEIGHTS.iter().enumerate() {
                assert_eq!(t.div[qp as usize][i], step * w as i64 / 16, "qp {qp} i {i}");
            }
        }
    }

    /// Every `f32` proof edge lies at or below its real-valued edge,
    /// within one `f32` step of it, in the transposed layout.
    #[test]
    fn proof_edges_round_down_to_their_bins() {
        let t = tables();
        for qp in 0..=QP_MAX {
            for dz in [false, true] {
                let edges = zero_proof_edges(qp, dz);
                for (i, &z) in t.zero_max[qp as usize][dz as usize].iter().enumerate() {
                    let exact = z as f64 + 0.5 - APPROX_ERROR - GATE_MARGIN;
                    let edge = edges[i % N * N + i / N];
                    assert!(edge as f64 <= exact, "qp {qp} dz {dz} i {i}");
                    assert!(edge.next_up() as f64 > exact, "qp {qp} dz {dz} i {i}");
                }
            }
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
