//! The 8×8 integer transform used for residual coding.
//!
//! The transform *is* the bitstream's definition: integer arithmetic
//! only, so encoder and decoder agree bit for bit on every platform,
//! with no reference to match and no rounding ties to replay. It is
//! HEVC's core transform (Budagavi et al., "Core transform design in
//! the HEVC standard", IEEE JSTSP 2013) at size 8:
//!
//! * **Matrix.** Row `u` of `M` is basis function `u` at `x = 0..8`,
//!   built from 64, 89, 83, 75, 50, 36 and 18. Each row's norm is
//!   within 0.1 % of `64·√8 = 2^7.5`, so `M` is close to `2^7.5` times
//!   an orthonormal DCT.
//! * **Scale.** Coefficients carry [`COEFF_FRAC_BITS`] = 4 bits below
//!   the orthonormal DCT's scale: a coefficient is 16 times its
//!   orthonormal value, which keeps the precision the quantiser would
//!   otherwise lose to rounding at low qp. The quantiser's divisors
//!   carry the same factor, so each qp keeps its step size.
//! * **Passes.** Both directions run the vertical pass, then the
//!   horizontal one, each followed by a rounding shift
//!   `(v + 2^(s−1)) >> s`: 4 then 7 forward, 7 then 12 inverse. The
//!   totals, `15 ∓ 4`, cancel the matrix's gain of `2^7.5` per pass and
//!   move the coefficients by the 4 bits.
//! * **Clipping.** The forward transform clips its input, and its
//!   first pass's output, to ±8 191 (no-ops on any residual of 8-bit
//!   samples, which stays within ±255, and on its first pass's output,
//!   within ±8 160); the inverse clips its input, and its first pass's
//!   output, to the `i16` range, as HEVC's decoder does (no-ops on
//!   what [`crate::quant::dequantize`] returns, which it saturates to
//!   that range itself).
//!
//! With `R[y][x]` a residual block and `C[v][u]` its coefficients (`u`
//! the horizontal frequency, `v` the vertical one), the forward
//! transform is
//!
//! ```text
//! T[v][x] = clip14((Σ_y M[v][y] · clip14(R[y][x]) + 8) >> 4)
//! C[v][u] = (Σ_x M[u][x] · T[v][x] + 64) >> 7
//! ```
//!
//! and the inverse
//!
//! ```text
//! T[y][u] = clip16((Σ_v M[v][y] · clip16(C[v][u]) + 64) >> 7)
//! R[y][x] = (Σ_u M[u][x] · T[y][u] + 2048) >> 12
//! ```
//!
//! (`clip14` to ±8 191, `clip16` to the `i16` range). Every
//! intermediate is bounded by construction, debug builds included, for
//! any input: a pass multiplies by at most 512 (a row's or column's
//! absolute sum), so the forward passes' sums stay within
//! `8191 · 512 < 2^23`, the inverse passes' within `2^15 · 2^9 =
//! 2^24`. The operands of every multiply fit an `i16`: the forward's
//! butterflies add at most four values within ±8 191, and the inverse
//! multiplies its clipped values directly. That is also what makes the
//! passes cheap: each is an even–odd butterfly over eight lanes (one
//! per column of the block), and a multiply of a widened `i16` by a
//! constant vectorises to 16-bit multiply-adds. An inverse output is
//! within ±3 832.
//!
//! `tests/oracle/kernels.rs` holds exactly these sums as plain matrix
//! products, and the tests hold this file's butterflies to them. The
//! separable `f64` DCT lives on there too, only as a quality oracle
//! for rate–distortion checks: it decides no bit.

use crate::BLOCK_SIZE;

const N: usize = BLOCK_SIZE;

/// Bits of precision a coefficient carries below the orthonormal
/// DCT's scale.
pub const COEFF_FRAC_BITS: u32 = 4;

/// The forward transform's operand range: its butterflies add four
/// values within it and stay in `i16`.
const OPERAND_MAX: i16 = 8191;

/// Rounding shifts after the forward transform's two passes: the
/// matrix's gain, `2^15`, less the coefficients' extra bits.
pub const FORWARD_SHIFTS: [u32; 2] = [4, 15 - 4 - COEFF_FRAC_BITS];

/// Rounding shifts after the inverse transform's two passes: the
/// matrix's gain plus the coefficients' extra bits.
const INVERSE_SHIFTS: [u32; 2] = [7, 15 + COEFF_FRAC_BITS - 7];

/// `max_x |M[u][x]|` per basis row `u`: how far one unit of residual
/// can move a coefficient along one axis. The quantiser derives its
/// all-zero-block SAD gate from these.
pub const ROW_PEAKS: [i32; N] = [64, 89, 83, 89, 64, 89, 83, 89];

/// `v` clipped to the `i16` range.
#[inline(always)]
fn clip16(v: i32) -> i16 {
    v.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// `v` clipped to ±[`OPERAND_MAX`]; through `i16` first, a saturating
/// narrow and then a 16-bit clamp, each one SSE2 instruction.
#[inline(always)]
fn clip14(v: i32) -> i16 {
    clip16(v).clamp(-OPERAND_MAX, OPERAND_MAX)
}

/// One forward 8-point pass over eight lanes:
/// `out[u][i] = (Σ_j M[u][j] · v[j][i] + 2^(s−1)) >> s`.
///
/// The butterfly's sums stay in `i16`: callers pass inputs within
/// ±8 191, so no sum of four exceeds ±32 764.
#[inline(always)]
fn forward8(v: &[[i16; N]; N], shift: u32) -> [[i32; N]; N] {
    let round = 1 << (shift - 1);
    let mut out = [[0; N]; N];
    // lint: hot-loop — one butterfly per lane, no allocation
    for i in 0..N {
        let (e0, o0) = (v[0][i] + v[7][i], v[0][i] - v[7][i]);
        let (e1, o1) = (v[1][i] + v[6][i], v[1][i] - v[6][i]);
        let (e2, o2) = (v[2][i] + v[5][i], v[2][i] - v[5][i]);
        let (e3, o3) = (v[3][i] + v[4][i], v[3][i] - v[4][i]);
        let [ee0, ee1, eo0, eo1] = [e0 + e3, e1 + e2, e0 - e3, e1 - e2].map(i32::from);
        let [o0, o1, o2, o3] = [o0, o1, o2, o3].map(i32::from);
        out[0][i] = (64 * (ee0 + ee1) + round) >> shift;
        out[4][i] = (64 * (ee0 - ee1) + round) >> shift;
        out[2][i] = (83 * eo0 + 36 * eo1 + round) >> shift;
        out[6][i] = (36 * eo0 - 83 * eo1 + round) >> shift;
        out[1][i] = (89 * o0 + 75 * o1 + 50 * o2 + 18 * o3 + round) >> shift;
        out[3][i] = (75 * o0 - 18 * o1 - 89 * o2 - 50 * o3 + round) >> shift;
        out[5][i] = (50 * o0 - 89 * o1 + 18 * o2 + 75 * o3 + round) >> shift;
        out[7][i] = (18 * o0 - 50 * o1 + 75 * o2 - 89 * o3 + round) >> shift;
    }
    // lint: end-hot-loop
    out
}

/// One inverse 8-point pass over eight lanes:
/// `out[j][i] = (Σ_u M[u][j] · c[u][i] + 2^(s−1)) >> s`.
#[inline(always)]
fn inverse8(c: &[[i16; N]; N], shift: u32) -> [[i32; N]; N] {
    let round = 1 << (shift - 1);
    let mut out = [[0; N]; N];
    // lint: hot-loop — one butterfly per lane, no allocation
    for i in 0..N {
        let [c0, c1, c2, c3, c4, c5, c6, c7] = std::array::from_fn(|u| i32::from(c[u][i]));
        let o = [
            89 * c1 + 75 * c3 + 50 * c5 + 18 * c7,
            75 * c1 - 18 * c3 - 89 * c5 - 50 * c7,
            50 * c1 - 89 * c3 + 18 * c5 + 75 * c7,
            18 * c1 - 50 * c3 + 75 * c5 - 89 * c7,
        ];
        let (eo0, eo1) = (83 * c2 + 36 * c6, 36 * c2 - 83 * c6);
        let (ee0, ee1) = (64 * (c0 + c4), 64 * (c0 - c4));
        let e = [ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0];
        for k in 0..N / 2 {
            out[k][i] = (e[k] + o[k] + round) >> shift;
            out[N - 1 - k][i] = (e[k] - o[k] + round) >> shift;
        }
    }
    // lint: end-hot-loop
    out
}

/// `m` transposed.
#[inline(always)]
fn transpose(m: &[[i16; N]; N]) -> [[i16; N]; N] {
    std::array::from_fn(|i| std::array::from_fn(|j| m[j][i]))
}

/// Forward transform of a row-major residual block `r[y·8 + x]` into
/// coefficients `C[v·8 + u]` (`u` horizontal frequency, `v` vertical).
pub fn forward(block: &[i32; N * N]) -> [i32; N * N] {
    let rows: [[i16; N]; N] =
        std::array::from_fn(|y| std::array::from_fn(|x| clip14(block[y * N + x])));
    // t[v][x]: the vertical pass, one lane per column x.
    let t = forward8(&rows, FORWARD_SHIFTS[0]).map(|row| row.map(clip14));
    // c[u][v]: the horizontal pass, one lane per vertical frequency v.
    let c = forward8(&transpose(&t), FORWARD_SHIFTS[1]);
    std::array::from_fn(|i| c[i % N][i / N])
}

/// Inverse transform of coefficients `C[v·8 + u]` back to a row-major
/// residual block.
pub fn inverse(coeffs: &[i32; N * N]) -> [i32; N * N] {
    let rows: [[i16; N]; N] =
        std::array::from_fn(|v| std::array::from_fn(|u| clip16(coeffs[v * N + u])));
    // t[y][u]: the vertical pass, one lane per horizontal frequency u.
    let t = inverse8(&rows, INVERSE_SHIFTS[0]).map(|row| row.map(clip16));
    // r[x][y]: the horizontal pass, one lane per row y.
    let r = inverse8(&transpose(&t), INVERSE_SHIFTS[1]);
    std::array::from_fn(|i| r[i % N][i / N])
}

/// Zig-zag scan order for an 8×8 block (JPEG/H.264 ordering): groups
/// low-frequency coefficients first so run-length coding of trailing
/// zeros is effective.
pub const ZIGZAG: [usize; N * N] = build_zigzag();

const fn build_zigzag() -> [usize; N * N] {
    let mut order = [0usize; N * N];
    let mut idx = 0;
    let mut s = 0;
    while s <= 2 * (N - 1) {
        // Walk each anti-diagonal, alternating direction.
        if s % 2 == 0 {
            // Up-right: start at bottom of the diagonal.
            let mut y = if s < N { s } else { N - 1 };
            loop {
                let x = s - y;
                if x < N {
                    order[idx] = y * N + x;
                    idx += 1;
                }
                if y == 0 {
                    break;
                }
                y -= 1;
            }
        } else {
            // Down-left.
            let mut x = if s < N { s } else { N - 1 };
            loop {
                let y = s - x;
                if y < N {
                    order[idx] = y * N + x;
                    idx += 1;
                }
                if x == 0 {
                    break;
                }
                x -= 1;
            }
        }
        s += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize, QP_MAX};
    use crate::reference_kernels::transform as reference;
    use proptest::prelude::*;

    /// Deterministic generator for the heavy differential sweeps.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn range(&mut self, lo: i32, hi: i32) -> i32 {
            lo + ((self.next() >> 33) as i32).rem_euclid(hi - lo + 1)
        }
    }

    /// The 128 extremal blocks at magnitude `m`: for every coefficient
    /// position, the sign pattern of its basis image at `±m`, which
    /// drives that coefficient (and the passes' sums) to its largest
    /// magnitude.
    fn sign_patterns(m: i32) -> Vec<[i32; N * N]> {
        let mut out = Vec::new();
        for v in 0..N {
            for u in 0..N {
                for sign in [m, -m] {
                    let (row_u, row_v) = (reference::MATRIX[u], reference::MATRIX[v]);
                    out.push(std::array::from_fn(|i| {
                        sign * row_u[i % N].signum() * row_v[i / N].signum()
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn dc_only_block() {
        let flat = [100i32; N * N];
        let c = forward(&flat);
        // All energy lands in the DC coefficient: 100 · 8 = 800, with
        // four bits below the orthonormal scale.
        assert_eq!(c[0], 800 << COEFF_FRAC_BITS);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert_eq!(v, 0, "AC coefficient {i} nonzero");
        }
    }

    #[test]
    fn roundtrip_is_near_lossless() {
        let mut block = [0i32; N * N];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 511) as i32 - 255;
        }
        let rec = inverse(&forward(&block));
        for (a, b) in block.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; N * N];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_prefix_matches_reference() {
        // First entries of the canonical 8×8 zig-zag.
        assert_eq!(&ZIGZAG[..10], &[0, 1, 8, 16, 9, 2, 3, 10, 17, 24]);
        assert_eq!(ZIGZAG[N * N - 1], N * N - 1);
    }

    /// Every flat block (all DC levels of the residual domain) must
    /// transform as the matrix form does.
    #[test]
    fn forward_matches_reference_all_dc_levels() {
        for level in -255..=255 {
            let block = [level; N * N];
            assert_eq!(forward(&block), reference::forward(&block), "level {level}");
        }
    }

    /// DC-only coefficient blocks over the whole `i16` range must
    /// invert as the matrix form does.
    #[test]
    fn inverse_matches_reference_all_dc_levels() {
        let mut coeffs = [0i32; N * N];
        for c0 in i16::MIN as i32..=i16::MAX as i32 {
            coeffs[0] = c0;
            assert_eq!(inverse(&coeffs), reference::inverse(&coeffs), "c0 {c0}");
        }
    }

    /// Random residual blocks with the sum forced to `4 (mod 8)`: the
    /// DC coefficient's orthonormal value `S/8` is then halfway between
    /// two integers. The butterflies must round every coefficient of
    /// such blocks as the matrix form does.
    #[test]
    fn forward_matches_reference_on_dc_ties() {
        let mut rng = Lcg(0x5eed_0001);
        for i in 0..20_000 {
            let mut block = [0i32; N * N];
            for v in block.iter_mut() {
                *v = rng.range(-255, 255);
            }
            let sum: i32 = block.iter().sum();
            block[63] += (4 - sum.rem_euclid(8)).rem_euclid(8);
            assert_eq!(forward(&block), reference::forward(&block), "tie block {i}");
        }
    }

    /// Structured residuals from a tiny palette, whose sums cancel
    /// exactly and often land on rounding boundaries of the shifts.
    #[test]
    fn forward_matches_reference_on_structured_blocks() {
        let mut rng = Lcg(0x5eed_0002);
        for i in 0..20_000 {
            let mut block = [0i32; N * N];
            for v in block.iter_mut() {
                *v = 2 * rng.range(-2, 2);
            }
            assert_eq!(
                forward(&block),
                reference::forward(&block),
                "structured block {i}"
            );
        }
    }

    /// Sparse coefficient blocks shaped like post-quantisation output
    /// (mostly zero, energy in low frequencies) must invert as the
    /// matrix form does, including blocks whose only energy sits in
    /// the `±64` basis positions `(u, v) ∈ {0, 4}²`.
    #[test]
    fn inverse_matches_reference_on_sparse_blocks() {
        let mut rng = Lcg(0x5eed_0003);
        for i in 0..20_000 {
            let mut coeffs = [0i32; N * N];
            let nnz = rng.range(0, 6);
            for _ in 0..nnz {
                let pos = ZIGZAG[rng.range(0, 15) as usize];
                coeffs[pos] = rng.range(-800, 800);
            }
            assert_eq!(
                inverse(&coeffs),
                reference::inverse(&coeffs),
                "sparse block {i}"
            );
        }
        for sum4 in [-1236i32, -4, 4, 12, 812, 2044] {
            let mut coeffs = [0i32; N * N];
            coeffs[4 * N + 4] = sum4;
            coeffs[4] = 8;
            assert_eq!(
                inverse(&coeffs),
                reference::inverse(&coeffs),
                "rational {sum4}"
            );
        }
    }

    /// Hostile magnitudes (beyond anything a valid stream produces)
    /// are clipped to `i16` by both forms alike, with no overflow.
    #[test]
    fn inverse_matches_reference_on_hostile_coeffs() {
        let mut coeffs = [0i32; N * N];
        coeffs[0] = i32::MAX;
        coeffs[9] = i32::MIN;
        coeffs[63] = 1 << 20;
        assert_eq!(inverse(&coeffs), reference::inverse(&coeffs));
        let huge = [i32::MIN; N * N];
        assert_eq!(inverse(&huge), reference::inverse(&huge));
        let big_residual = [100_000i32; N * N];
        assert_eq!(forward(&big_residual), reference::forward(&big_residual));
    }

    /// Both directions against the matrix form on 20 000 random blocks
    /// of four amplitudes, and on the extremal sign patterns: ±255 for
    /// the forward transform (every residual's range), and the `i16`
    /// limits for the inverse (every input the clip lets through).
    #[test]
    fn butterflies_match_the_matrix_form_on_random_and_extremal_blocks() {
        let mut rng = Lcg(0x5eed_0006);
        for n in 0..20_000 {
            let spread = [255, 255, 40, 3][n % 4];
            let block: [i32; N * N] = std::array::from_fn(|_| rng.range(-spread, spread));
            assert_eq!(forward(&block), reference::forward(&block), "{block:?}");
            let coeffs: [i32; N * N] =
                std::array::from_fn(|_| rng.range(-128 * spread, 128 * spread));
            assert_eq!(inverse(&coeffs), reference::inverse(&coeffs), "{coeffs:?}");
        }
        for block in sign_patterns(255) {
            assert_eq!(forward(&block), reference::forward(&block), "{block:?}");
        }
        for m in [i16::MAX as i32, -(i16::MIN as i32)] {
            for coeffs in sign_patterns(m) {
                assert_eq!(inverse(&coeffs), reference::inverse(&coeffs), "{coeffs:?}");
            }
        }
    }

    /// Extremal levels, `±i32::MAX` at every position in every basis
    /// sign pattern, go through the decoder's dequantise-and-invert
    /// path at every qp without an overflow (a panic in debug builds)
    /// and land where the matrix form does.
    #[test]
    fn extremal_levels_dequantise_and_invert_without_overflow() {
        let mut patterns = sign_patterns(i32::MAX);
        patterns.push([i32::MAX; N * N]);
        patterns.push([-i32::MAX; N * N]);
        for qp in 0..=QP_MAX {
            for levels in &patterns {
                let mut coeffs = *levels;
                dequantize(&mut coeffs, qp);
                assert!(coeffs.iter().all(|&c| i16::try_from(c).is_ok()), "qp {qp}");
                assert_eq!(inverse(&coeffs), reference::inverse(&coeffs), "qp {qp}");
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_bounded_error(vals in proptest::collection::vec(-255i32..=255, N * N)) {
            let mut block = [0i32; N * N];
            block.copy_from_slice(&vals);
            let rec = inverse(&forward(&block));
            for (a, b) in block.iter().zip(rec.iter()) {
                prop_assert!((a - b).abs() <= 2);
            }
        }

        #[test]
        fn forward_is_linear_in_dc(offset in -100i32..100, base in -100i32..100) {
            let b1 = [base; N * N];
            let b2 = [base + offset; N * N];
            let c1 = forward(&b1);
            let c2 = forward(&b2);
            prop_assert_eq!(c2[0] - c1[0], (offset * 8) << COEFF_FRAC_BITS);
        }

        #[test]
        fn forward_matches_reference(vals in proptest::collection::vec(-255i32..=255, N * N)) {
            let mut block = [0i32; N * N];
            block.copy_from_slice(&vals);
            prop_assert_eq!(forward(&block), reference::forward(&block));
        }

        #[test]
        fn inverse_matches_reference(vals in proptest::collection::vec(-4080i32..=4080, N * N)) {
            let mut coeffs = [0i32; N * N];
            coeffs.copy_from_slice(&vals);
            prop_assert_eq!(inverse(&coeffs), reference::inverse(&coeffs));
        }
    }
}
