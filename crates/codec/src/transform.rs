//! 8×8 type-II DCT used for residual coding.
//!
//! The transform operates on `i32` residual blocks (pixel differences
//! in `-255..=255`) and produces `i32` coefficient blocks after
//! rounding. The original separable `f64` implementation (kept as the
//! private `reference` fallback) defines the bitstream: every output
//! here must be bit-identical to it.
//!
//! The hot path is one fixed-point *cheap pass* with even–odd
//! butterflies. A `2^44`-scaled integer basis drives the row pass; its
//! accumulators are rounded down to scale `2^15` and multiplied by a
//! `2^31`-scaled basis in the column pass, so every product and sum
//! stays in `i64` (worst case `2^62`). Its error versus the exact real
//! value is below `2^33` at the `2^46` output scale. A block is
//! *refused* when any result lies within the `2^35` guard of a rounding
//! boundary (a few percent of random blocks) or an input exceeds the
//! `±4096` range gate, and a refused block goes straight to the `f64`
//! reference.
//!
//! Outside the guard band agreement is provable: the pass's error plus
//! the reference's own error (below `2^-37`) is smaller than the guard,
//! so both land on the same side of the boundary. Every output is
//! therefore either the fixed-point answer outside its proven guard
//! band, or the definition itself.
//!
//! Four forward coefficient positions need a mechanism of their own,
//! because their basis products are *exactly rational*
//! (`b[u][x]·b[v][y] = ±1/8` for `u,v ∈ {0,4}`): the exact coefficient
//! is `S/8` for an integer sum `S`, which lands on a `.5` boundary with
//! probability ~1/8 — and at an exact tie the reference's answer is
//! decided by its own `f64` rounding noise, which no independent
//! computation can predict. They are computed as exact integer sums,
//! and only blocks where some `|S| ≡ 4 (mod 8)` replay the reference's
//! `f64` operation order (bit-identical by construction, ~160 flops).
//! Sending those blocks to the whole reference instead measured
//! slower end to end.
//!
//! Beside the exact transform sits an approximate one that decides
//! nothing about output bits: [`forward_approx`], the same butterflies
//! in `f32` with eight lanes per step and a derived error bound
//! ([`APPROX_ERROR`]). The encoder uses it only through
//! [`proves_all_zero`], to skip the exact transform on blocks that
//! provably quantise to nothing.

use crate::BLOCK_SIZE;

const N: usize = BLOCK_SIZE;
const HALF_N: usize = N / 2;

/// Fixed-point scale (bits) of the row-pass integer basis.
const SCALE: u32 = 44;

/// Largest input magnitude the cheap pass serves in either direction
/// (real residuals stay within `±255`); larger inputs, whose `i64`
/// products could wrap, go to the reference.
const CHEAP_INPUT_MAX: i32 = 4096;
/// Shift taking first-pass accumulators from scale `2^44` to `2^15`
/// for the cheap pass (round-half-up, error ≤ 0.5 ulp).
const DOWNSHIFT: u32 = 29;
/// Fixed-point scale (bits) of the cheap pass's second-stage basis.
const SCALE2: u32 = 31;
/// Output scale of the cheap pass: `2^15 · 2^31 = 2^46`.
const OUT2_SCALE: u32 = (SCALE - DOWNSHIFT) + SCALE2;
/// Near-tie guard, `2^-11` of a unit. With inputs gated to
/// `CHEAP_INPUT_MAX` the worst-case fixed-point error is below `2^33`
/// (downshift rounding ≤ 1 ulp through the butterfly, plus basis
/// rounding ≤ 0.5 against accumulators ≤ `2^30`, times four taps) —
/// four bits inside the guard.
const CHEAP_TIE_GUARD: u64 = 1 << (OUT2_SCALE - 11);

/// Precomputed `cos((2x+1)uπ/16) · α(u)` basis, row `u`, column `x`.
fn basis() -> &'static [[f64; N]; N] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f64; N]; N]> = OnceLock::new();
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
                    * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / (2.0 * N as f64))
                        .cos();
            }
        }
        b
    })
}

/// `max_x |b[u][x]|` per basis row `u`: how far one unit of residual
/// can move a coefficient along one axis. The quantiser derives its
/// all-zero-block SAD gate from these.
pub(crate) fn basis_peaks() -> [f64; N] {
    basis().map(|row| row.iter().fold(0.0, |m, v| v.abs().max(m)))
}

/// `2^scale`-scaled left half of the basis. The right half follows
/// from the cosine symmetry `b[u][7-x] = (-1)^u · b[u][x]`, which the
/// butterfly passes exploit instead of storing it.
fn ibasis_at(scale: u32) -> [[i64; HALF_N]; N] {
    let s = (1u64 << scale) as f64;
    basis().map(|row| std::array::from_fn(|k| (row[k] * s).round() as i64))
}

/// `2^44`-scaled basis half (row pass).
fn ibasis() -> &'static [[i64; HALF_N]; N] {
    use std::sync::OnceLock;
    static IBASIS: OnceLock<[[i64; HALF_N]; N]> = OnceLock::new();
    IBASIS.get_or_init(|| ibasis_at(SCALE))
}

/// `2^31`-scaled basis half (cheap column pass).
fn ibasis2() -> &'static [[i64; HALF_N]; N] {
    use std::sync::OnceLock;
    static IBASIS2: OnceLock<[[i64; HALF_N]; N]> = OnceLock::new();
    IBASIS2.get_or_init(|| ibasis_at(SCALE2))
}

/// Combined constants for the factored odd-index 4-point section
/// (the classic Loeffler–Ligtenberg–Moshovitz decomposition used by
/// JPEG's integer DCT): 9 multiplies instead of 16 per section. With
/// `g_k = 2·b[k][0] = cos(kπ/16)` the section's outputs are exact
/// linear combinations of these sums/differences; each constant is
/// rounded once at table build, so a factored output differs from the
/// literal four-tap dot by at most a few units per operand — far
/// inside the tie-guard error budget.
struct OddFix {
    /// Per-input direct constants `k[i]` for `o_i`.
    k: [i64; 4],
    /// Pair constants for `z1 = o0+o3, z2 = o1+o2, z3 = o1+o3,
    /// z4 = o0+o2`.
    l: [i64; 4],
    /// Shared rotation `c3 = b[3][0]` applied to `z3 + z4`.
    c3: i64,
}

fn odd_fix_at(scale: u32) -> OddFix {
    let b = basis();
    let (b1, b3, b5, b7) = (b[1][0], b[3][0], b[5][0], b[7][0]);
    let s = (1u64 << scale) as f64;
    let f = |v: f64| (v * s).round() as i64;
    OddFix {
        k: [
            f(b1 + b3 - b5 - b7),
            f(b1 + b3 + b5 - b7),
            f(b1 + b3 - b5 + b7),
            f(-b1 + b3 + b5 - b7),
        ],
        l: [f(b7 - b3), f(-b1 - b3), f(-b3 - b5), f(b5 - b3)],
        c3: f(b3),
    }
}

/// `2^44`-scaled odd-section constants (first pass).
fn odd_fix() -> &'static OddFix {
    use std::sync::OnceLock;
    static ODD: OnceLock<OddFix> = OnceLock::new();
    ODD.get_or_init(|| odd_fix_at(SCALE))
}

/// `2^31`-scaled odd-section constants (cheap second pass).
fn odd_fix2() -> &'static OddFix {
    use std::sync::OnceLock;
    static ODD2: OnceLock<OddFix> = OnceLock::new();
    ODD2.get_or_init(|| odd_fix_at(SCALE2))
}

/// Factored odd-index section: maps the odd butterfly terms to the
/// four odd-frequency outputs `(d1, d3, d5, d7)` in 9 multiplies.
/// Largest intermediate is `(z3+z4)·c3 + z·l` sums; with first-pass
/// inputs gated to `2^13` and second-pass terms to `~2^30` everything
/// stays below `2^63`.
#[inline(always)]
fn odd4(o0: i64, o1: i64, o2: i64, o3: i64, f: &OddFix) -> (i64, i64, i64, i64) {
    let z1 = o0 + o3;
    let z2 = o1 + o2;
    let z3 = o1 + o3;
    let z4 = o0 + o2;
    let z5 = (z3 + z4) * f.c3;
    let p0 = o0 * f.k[0];
    let p1 = o1 * f.k[1];
    let p2 = o2 * f.k[2];
    let p3 = o3 * f.k[3];
    let w1 = z1 * f.l[0];
    let w2 = z2 * f.l[1];
    let w3 = z3 * f.l[2] + z5;
    let w4 = z4 * f.l[3] + z5;
    (p0 + w1 + w4, p1 + w2 + w3, p2 + w2 + w4, p3 + w1 + w3)
}

/// Fused round + near-tie for the cheap pass, sharing the
/// `acc + half` intermediate. The tie test works on raw low bits:
/// negating `acc` maps the fractional part `rem` to `2^S − rem` and
/// distance-to-`.5` is symmetric under that map, so no abs is needed;
/// adding `half` re-centres the boundary at 0, turning the test into
/// "`(acc+half) mod 2^S` wraps into `(−guard, guard)`".
///
/// The returned value is floor-rounded, which differs from the
/// reference's round-half-away only when `acc` sits *exactly* on a
/// `.5` boundary — inside the guard band, so every such block is
/// re-done by the reference and the shortcut is unobservable.
#[inline]
fn round_tie2(acc: i64) -> (i32, bool) {
    const MASK: u64 = (1u64 << OUT2_SCALE) - 1;
    let a = acc + (1i64 << (OUT2_SCALE - 1));
    let q = (a >> OUT2_SCALE) as i32;
    let tie = ((a as u64).wrapping_add(CHEAP_TIE_GUARD) & MASK) < 2 * CHEAP_TIE_GUARD;
    (q, tie)
}

/// Forward 8×8 DCT of a row-major residual block. Bit-identical to
/// `reference::forward` for any input.
pub fn forward(block: &[i32; N * N]) -> [i32; N * N] {
    let mut out = [0i32; N * N];
    if forward_cheap(block, &mut out) {
        out
    } else {
        reference::forward(block)
    }
}

/// The cheap forward pass into `out`. Returns `true` when `out` holds
/// the exact result, and `false` when it refuses the block: a near-tie,
/// or an input beyond [`CHEAP_INPUT_MAX`] (gated inside the row pass
/// before any multiply, so real residuals pay no separate scan).
fn forward_cheap(block: &[i32; N * N], out: &mut [i32; N * N]) -> bool {
    let mut p1 = CheapFwd {
        t2: [0; N * N],
        rs: [0; N],
        r4: [0; N],
    };
    if !(forward_pass1_cheap(block, &mut p1) && forward_pass2_cheap(&p1.t2, out)) {
        return false;
    }
    forward_rational(block, &p1.rs, &p1.r4, out);
    true
}

/// Row-pass output of the cheap forward pass: downshifted
/// accumulators plus the rational-position row sums, all gathered in
/// one sweep over the block.
struct CheapFwd {
    /// Transposed: t2[u·N + y] ≈ Σ_x block[y][x]·b[u][x], scale 2^15,
    /// so the column pass reads each `u` as one contiguous slice.
    /// `i32` on purpose: gated input keeps |t2| ≤ 2^29, and halving
    /// the struct halves its zero-init and the column pass's loads.
    t2: [i32; N * N],
    /// rs[y] = Σ_x block[y][x] (basis row 0, times 2√2).
    rs: [i64; N],
    /// r4[y] = Σ_x s4(x)·block[y][x] (basis row 4, times 2√2).
    r4: [i64; N],
}

/// Row pass of the cheap forward pass. The even/odd split is an exact
/// reassociation of the integer sum; the downshift is the only
/// integer rounding (≤ 0.5 ulp at scale 2^15).
///
/// Even-`u` rows of the basis factor further: rows 0 and 4 are a
/// single repeated constant (up to sign `[+,+,+,+]` / `[+,−,−,+]`)
/// and rows 2 and 6 are the sign-symmetric pairs `[a,b,−b,−a]`, so
/// their four-tap dots collapse to one and two multiplies on the
/// second-level butterfly terms. The collapsed form differs from the
/// literal dot only by the table's sub-ulp asymmetry (entries are
/// rounded independently, ≤ 2 units each), which is ~2^20 times
/// smaller than the downshift rounding already budgeted for.
fn forward_pass1_cheap(block: &[i32; N * N], p1: &mut CheapFwd) -> bool {
    let ib = ibasis();
    let ofix = odd_fix();
    let half1 = 1i64 << (DOWNSHIFT - 1);
    // Range gate before any multiply (i64 products of larger inputs
    // could wrap); never taken for real residuals. |v| ≤ MAX iff
    // v + MAX lands in [0, 2·MAX] as u32 (wrap-around lands high),
    // and the per-lane violations OR together vectorisably.
    let viol = block.iter().fold(0u32, |m, &v| {
        m | ((v.wrapping_add(CHEAP_INPUT_MAX) as u32 > 2 * CHEAP_INPUT_MAX as u32) as u32)
    });
    if viol != 0 {
        return false;
    }
    for y in 0..N {
        // lint: allow(R1): the range is exactly N elements by construction
        #[allow(clippy::expect_used)]
        let row: &[i32; N] = block[y * N..y * N + N].try_into().expect("row is N wide");
        let e0 = (row[0] + row[7]) as i64;
        let e1 = (row[1] + row[6]) as i64;
        let e2 = (row[2] + row[5]) as i64;
        let e3 = (row[3] + row[4]) as i64;
        let o0 = (row[0] - row[7]) as i64;
        let o1 = (row[1] - row[6]) as i64;
        let o2 = (row[2] - row[5]) as i64;
        let o3 = (row[3] - row[4]) as i64;
        let ee0 = e0 + e3;
        let ee1 = e1 + e2;
        let eo0 = e0 - e3;
        let eo1 = e1 - e2;
        // s4 is symmetric (s4(x) = s4(7−x)), so both rational row
        // sums are combinations of the even butterfly terms.
        p1.rs[y] = ee0 + ee1;
        p1.r4[y] = ee0 - ee1;
        let (d1, d3, d5, d7) = odd4(o0, o1, o2, o3, ofix);
        let t = &mut p1.t2;
        t[y] = ((ib[0][0] * (ee0 + ee1) + half1) >> DOWNSHIFT) as i32;
        t[N + y] = ((d1 + half1) >> DOWNSHIFT) as i32;
        t[2 * N + y] = (((ib[2][0] * eo0 + ib[2][1] * eo1) + half1) >> DOWNSHIFT) as i32;
        t[3 * N + y] = ((d3 + half1) >> DOWNSHIFT) as i32;
        t[4 * N + y] = ((ib[4][0] * (ee0 - ee1) + half1) >> DOWNSHIFT) as i32;
        t[5 * N + y] = ((d5 + half1) >> DOWNSHIFT) as i32;
        t[6 * N + y] = (((ib[6][0] * eo0 + ib[6][1] * eo1) + half1) >> DOWNSHIFT) as i32;
        t[7 * N + y] = ((d7 + half1) >> DOWNSHIFT) as i32;
    }
    true
}

/// Cheap all-`i64` column pass over every coefficient except the four
/// rational positions `(u,v) ∈ {0,4}²`, written into `out`. Returns
/// `false` on a near-tie. Uses the even-index butterfly collapse and
/// the factored odd section (15 multiplies per column instead of 32).
fn forward_pass2_cheap(t2: &[i32; N * N], out: &mut [i32; N * N]) -> bool {
    let ib2 = ibasis2();
    let ofix2 = odd_fix2();
    // lint: hot-loop — fixed-point DCT column pass, all-i64 butterflies
    for u in 0..N {
        // lint: allow(R1): the range is exactly N elements by construction
        #[allow(clippy::expect_used)]
        let col: &[i32; N] = t2[u * N..u * N + N].try_into().expect("column is N wide");
        let te0 = (col[0] + col[7]) as i64;
        let te1 = (col[1] + col[6]) as i64;
        let te2 = (col[2] + col[5]) as i64;
        let te3 = (col[3] + col[4]) as i64;
        let to0 = (col[0] - col[7]) as i64;
        let to1 = (col[1] - col[6]) as i64;
        let to2 = (col[2] - col[5]) as i64;
        let to3 = (col[3] - col[4]) as i64;
        let tee0 = te0 + te3;
        let tee1 = te1 + te2;
        let teo0 = te0 - te3;
        let teo1 = te1 - te2;
        let d0 = ib2[0][0] * (tee0 + tee1);
        let d2 = ib2[2][0] * teo0 + ib2[2][1] * teo1;
        let d4 = ib2[4][0] * (tee0 - tee1);
        let d6 = ib2[6][0] * teo0 + ib2[6][1] * teo1;
        let (d1, d3, d5, d7) = odd4(to0, to1, to2, to3, ofix2);
        // Ties are collected into one flag so the per-coefficient
        // work stays branch-free; the single exit branch is
        // almost-never-taken and predicts perfectly.
        let (q1, t1) = round_tie2(d1);
        let (q2, t2m) = round_tie2(d2);
        let (q3, t3) = round_tie2(d3);
        let (q5, t5) = round_tie2(d5);
        let (q6, t6) = round_tie2(d6);
        let (q7, t7) = round_tie2(d7);
        let mut tie = t1 | t2m | t3 | t5 | t6 | t7;
        out[N + u] = q1;
        out[2 * N + u] = q2;
        out[3 * N + u] = q3;
        out[5 * N + u] = q5;
        out[6 * N + u] = q6;
        out[7 * N + u] = q7;
        // (u,v) ∈ {0,4}² are the rational positions, handled exactly
        // by `forward_rational`; this branch folds away when the loop
        // unrolls (u is a constant per iteration).
        if u != 0 && u != 4 {
            let (q0, t0) = round_tie2(d0);
            let (q4, t4) = round_tie2(d4);
            tie |= t0 | t4;
            out[u] = q0;
            out[4 * N + u] = q4;
        }
        if tie {
            return false;
        }
    }
    // lint: end-hot-loop
    true
}

/// Computes the four rational-basis coefficients `(u,v) ∈ {0,4}²`.
///
/// Rows 0 and 4 of the basis are `±1/(2√2)` in every column, so each
/// of these coefficients is exactly `S/8` for an integer signed sum
/// `S` of the block — computed exactly, with exact rounding, in ~90
/// integer adds. The only inputs where that can disagree with the
/// reference are exact `.5` ties (`|S| ≡ 4 mod 8`), where the
/// reference's answer is its own rounding noise: those blocks (about
/// 40% of random ones, far fewer after prediction) replay the
/// reference's `f64` operation order verbatim. Off-tie boundaries are
/// at least `1/8` away, dwarfing the reference's `~2^-31` error, so
/// exact rounding is provably its answer.
fn forward_rational(block: &[i32; N * N], rs: &[i64; N], r4: &[i64; N], out: &mut [i32; N * N]) {
    // s4 pairs up symmetrically, so both the plain sum and the
    // s4-weighted sum share the same four pair sums (all-integer,
    // order-free).
    let both = |r: &[i64; N]| {
        let (p07, p16, p25, p34) = (r[0] + r[7], r[1] + r[6], r[2] + r[5], r[3] + r[4]);
        [(p07 + p34) + (p16 + p25), (p07 + p34) - (p16 + p25)]
    };
    // out[v·N + u] = Σ_y s_v(y) · Σ_x s_u(x) · block[y][x] / 8.
    for (u, r) in [(0usize, rs), (4, r4)] {
        let sums = both(r);
        // The reference's first-pass column for this `u`, computed
        // lazily: only a tied coefficient needs its f64 replay, and
        // both `v` positions of a `u` share the same column.
        let mut tmp: Option<[f64; N]> = None;
        for (v, s) in [(0usize, sums[0]), (4, sums[1])] {
            if s.unsigned_abs() % 8 == 4 {
                let col = tmp.get_or_insert_with(|| rational_f64_col(block, u));
                let b = basis();
                let mut acc = 0.0;
                for (y, t) in col.iter().enumerate() {
                    acc += t * b[v][y];
                }
                out[v * N + u] = acc.round() as i32;
            } else {
                let q = ((s.unsigned_abs() + 4) / 8) as i32;
                let sign = (s >> 63) as i32; // 0 or -1
                out[v * N + u] = (q ^ sign) - sign;
            }
        }
    }
}

/// First-pass column `u` of the reference transform, with its exact
/// `f64` operation order (same multiplies, same accumulation
/// sequence), so a tied rational coefficient reproduces the
/// reference's rounding noise bit-for-bit.
#[cold]
fn rational_f64_col(block: &[i32; N * N], u: usize) -> [f64; N] {
    let b = basis();
    let mut tmp = [0.0f64; N];
    for (y, t) in tmp.iter_mut().enumerate() {
        let mut acc = 0.0;
        for x in 0..N {
            acc += block[y * N + x] as f64 * b[u][x];
        }
        *t = acc;
    }
    tmp
}

/// Worst-case distance between a coefficient of [`forward_approx`] and
/// the exact real DCT coefficient, for residuals with `|r| ≤ 255`.
///
/// Derivation, with `u = 2⁻²⁴` (`f32` unit roundoff), Higham's
/// `γₙ = n·u/(1 − n·u)`, and `b̂` the `f32` basis (`|b̂ − b| ≤ 2⁻²⁶`,
/// as `|b| < ½`; `max|b̂| < 0.491`):
///
/// * **Column pass.** Inputs are integers, so the first butterfly
///   stages (`r_k ± r_{7−k}`, then `e_0 ± e_3`, `e_1 ± e_2`) are exact
///   in `f32`. Each output is then a dot of at most four exact sums
///   `s_k` with `Σ|s_k| ≤ Σ_y |r| ≤ 2040`, through at most four
///   roundings: error `ε₁ ≤ 2040 · (2⁻²⁶ + γ₄ · 0.491) < 2.7·10⁻⁴`.
/// * **Row pass.** Each leaf `T_x` (a column-pass output) reaches the
///   coefficient through at most five roundings, so the pass's own
///   error is `≤ γ₅ · 0.491 · Σ_x|T_x|` plus basis rounding
///   `2⁻²⁶ · Σ_x|T_x|`, with `Σ_x|T_x| ≤ 8 · 255 · Σ_y|b_v[y]| + 8ε₁ ≤
///   5771` (`Σ|b_v| ≤ √8`): below `9.3·10⁻⁴`. The column pass's error
///   reaches the coefficient scaled by `Σ_x|b_u[x]| ≤ √8`: below
///   `7.7·10⁻⁴`.
///
/// Sum: below `1.7·10⁻³`, rounded up to `2⁻⁸`. Rust neither fuses
/// nor reassociates `f32` arithmetic, so the evaluation order above
/// is the one that runs.
pub const APPROX_ERROR: f64 = 1.0 / 256.0;

/// One value per lane of an 8-wide `f32` vector.
type Lanes = [f32; N];

/// The left half of the basis in `f32`, for [`forward_approx`].
fn fbasis() -> &'static [[f32; HALF_N]; N] {
    use std::sync::OnceLock;
    static FBASIS: OnceLock<[[f32; HALF_N]; N]> = OnceLock::new();
    FBASIS.get_or_init(|| basis().map(|row| std::array::from_fn(|k| row[k] as f32)))
}

/// The 8-point DCT of eight lanes at once: `out[u][i] = Σ_j b[u][j] ·
/// v[j][i]`, through the even/odd butterfly (the same collapses as
/// [`forward_pass1_cheap`], with a plain four-tap odd section). One
/// loop iteration per lane, so the loop vectoriser turns each line
/// into two 4-wide SSE operations.
#[inline(always)]
fn dct8_lanes(v: &[Lanes; N], b: &[[f32; HALF_N]; N]) -> [Lanes; N] {
    let mut out = [[0f32; N]; N];
    for i in 0..N {
        let (e0, o0) = (v[0][i] + v[7][i], v[0][i] - v[7][i]);
        let (e1, o1) = (v[1][i] + v[6][i], v[1][i] - v[6][i]);
        let (e2, o2) = (v[2][i] + v[5][i], v[2][i] - v[5][i]);
        let (e3, o3) = (v[3][i] + v[4][i], v[3][i] - v[4][i]);
        let (ee0, ee1) = (e0 + e3, e1 + e2);
        let (eo0, eo1) = (e0 - e3, e1 - e2);
        out[0][i] = b[0][0] * (ee0 + ee1);
        out[4][i] = b[4][0] * (ee0 - ee1);
        out[2][i] = b[2][0] * eo0 + b[2][1] * eo1;
        out[6][i] = b[6][0] * eo0 + b[6][1] * eo1;
        for u in [1, 3, 5, 7] {
            out[u][i] = b[u][0] * o0 + b[u][1] * o1 + b[u][2] * o2 + b[u][3] * o3;
        }
    }
    out
}

/// The 8×8 DCT in `f32`, columns then rows, one lane per sample:
/// `out[u][v]` is coefficient `(u, v)`, which [`forward`] writes at
/// `v·8 + u` — the transposed layout.
#[inline(always)]
fn approx_lanes(residual: &[i32; N * N]) -> [Lanes; N] {
    let b = fbasis();
    let mut rows = [[0f32; N]; N];
    for (row, r) in rows.iter_mut().zip(residual.chunks_exact(N)) {
        for (f, &r) in row.iter_mut().zip(r) {
            *f = r as f32;
        }
    }
    // cols[v][x] = Σ_y r[y][x]·b[v][y]
    let cols = dct8_lanes(&rows, b);
    let mut t = [[0f32; N]; N];
    for (x, row) in t.iter_mut().enumerate() {
        for (v, f) in row.iter_mut().enumerate() {
            *f = cols[v][x];
        }
    }
    dct8_lanes(&t, b)
}

/// The forward DCT in `f32`, **transposed**: element `u·8 + v` is the
/// coefficient [`forward`] writes at `v·8 + u`, unrounded. For
/// residuals with `|r| ≤ 255` every element is within
/// [`APPROX_ERROR`] of the exact real coefficient.
pub fn forward_approx(residual: &[i32; N * N]) -> [f32; N * N] {
    let f = approx_lanes(residual);
    std::array::from_fn(|i| f[i / N][i % N])
}

/// True when `residual` provably quantises to all-zero levels:
/// `|r| ≤ 255` everywhere and every coefficient of [`forward_approx`]
/// lies strictly inside its `edges` entry (same transposed layout).
///
/// With edges at `zero_max + ½ − APPROX_ERROR − margin` (what
/// `quant::zero_proof_edges` holds), `|F̃| < edge` puts the exact
/// coefficient below `zero_max + ½ − margin`, so [`forward`] rounds it
/// into the zero bin. Residuals outside `±255` (never an encoder's:
/// source and prediction are bytes) break the error bound's
/// precondition and are never proved. Branch-free: the range test and
/// the 64 comparisons fold into one flag.
pub fn proves_all_zero(residual: &[i32; N * N], edges: &[f32; N * N]) -> bool {
    const MAX: i32 = 255;
    // |r| ≤ MAX iff r + MAX lands in [0, 2·MAX] as u32.
    let in_range = residual.iter().fold(true, |ok, &r| {
        ok & (r.wrapping_add(MAX) as u32 <= 2 * MAX as u32)
    });
    let f = approx_lanes(residual);
    let mut inside = in_range;
    for (row, edges) in f.iter().zip(edges.chunks_exact(N)) {
        for (c, &e) in row.iter().zip(edges) {
            inside &= c.abs() < e;
        }
    }
    inside
}

/// Inverse 8×8 DCT back to a residual block. Bit-identical to
/// `reference::inverse` for any input.
pub fn inverse(coeffs: &[i32; N * N]) -> [i32; N * N] {
    let mut out = [0i32; N * N];
    if inverse_cheap(coeffs, &mut out) {
        out
    } else {
        reference::inverse(coeffs)
    }
}

/// Cheap all-`i64` inverse, processed column-major: a residual block
/// is smooth along `x` (the prediction direction), so its quantised
/// spectrum concentrates in a few low-`u` *columns* while spreading
/// across rows — skipping zero columns skips more work than skipping
/// zero rows. One vectorisable sweep builds per-column nonzero masks,
/// the range gate (no multiply happens on oversized input), and the
/// DC-only test; each surviving column then runs the `v`-direction
/// butterfly and accumulates into even/odd-`u` planes, and the final
/// `x`-butterfly `out[·][k] = e+o, out[·][7−k] = e−o` rounds with tie
/// detection. Returns `true` when `out` holds the exact result, and
/// `false` when it refuses the block: an input beyond
/// [`CHEAP_INPUT_MAX`] (nothing was multiplied), or a near-tie (e.g.
/// sparse blocks whose only energy sits in rational-basis positions).
fn inverse_cheap(coeffs: &[i32; N * N], out: &mut [i32; N * N]) -> bool {
    let ib = ibasis();
    let ib2 = ibasis2();
    let half1 = 1i64 << (DOWNSHIFT - 1);
    // Sweep: colnz[u] ORs column u (nonzero test), hiv[u] ORs its
    // v ≥ 4 half, viol ORs per-lane range violations (|c| ≤ MAX iff
    // c + MAX lands in [0, 2·MAX] as u32 — wrap-around lands high).
    let mut colnz = [0i32; N];
    let mut viol = 0u32;
    for v in 0..N {
        let row = &coeffs[v * N..v * N + N];
        for u in 0..N {
            colnz[u] |= row[u];
            viol |=
                (row[u].wrapping_add(CHEAP_INPUT_MAX) as u32 > 2 * CHEAP_INPUT_MAX as u32) as u32;
        }
    }
    let mut hiv = [0i32; N];
    for v in HALF_N..N {
        let row = &coeffs[v * N..v * N + N];
        for u in 0..N {
            hiv[u] |= row[u];
        }
    }
    // Empty and DC-only blocks (frequent after quantisation) reduce to
    // one closed form that replays the reference's op order (zero
    // coefficients contribute exact `±0.0` terms there). Checked
    // before the range gate, as the closed form is range-independent.
    if colnz[1..].iter().fold(0i32, |m, &c| m | c) == 0
        && (1..N).fold(0i32, |m, v| m | coeffs[v * N]) == 0
    {
        let alpha = basis()[0][0];
        out.fill(((coeffs[0] as f64 * alpha) * alpha).round() as i32);
        return true;
    }
    if viol != 0 {
        return false;
    }
    // acc_e[k][y]: Σ over even u of t[u][y]·b[u][k]; acc_o likewise.
    let mut acc_e = [[0i64; N]; HALF_N];
    let mut acc_o = [[0i64; N]; HALF_N];
    for u in 0..N {
        if colnz[u] == 0 {
            continue;
        }
        // v-pass for this u: t[y] ≈ Σ_v c[v]·b[v][y], scale 2^15.
        // Dense on purpose: zero coefficients contribute exactly 0,
        // and predictable multiplies beat data-dependent branches on
        // sparsity patterns the predictor cannot learn. The one split
        // worth a branch: quantisation usually zeroes the
        // high-frequency half, and `hiv` makes it one predictable
        // test that halves the multiplies.
        let c: [i64; N] = std::array::from_fn(|v| coeffs[v * N + u] as i64);
        let mut t = [0i64; N];
        if hiv[u] == 0 {
            for j in 0..HALF_N {
                let pe = half1 + c[0] * ib[0][j] + c[2] * ib[2][j];
                let po = c[1] * ib[1][j] + c[3] * ib[3][j];
                t[j] = (pe + po) >> DOWNSHIFT;
                t[N - 1 - j] = (pe - po) >> DOWNSHIFT;
            }
        } else {
            for j in 0..HALF_N {
                let pe =
                    half1 + c[0] * ib[0][j] + c[2] * ib[2][j] + c[4] * ib[4][j] + c[6] * ib[6][j];
                let po = c[1] * ib[1][j] + c[3] * ib[3][j] + c[5] * ib[5][j] + c[7] * ib[7][j];
                t[j] = (pe + po) >> DOWNSHIFT;
                t[N - 1 - j] = (pe - po) >> DOWNSHIFT;
            }
        }
        // x-direction contribution of this u.
        let acc = if u % 2 == 0 { &mut acc_e } else { &mut acc_o };
        let bu = &ib2[u];
        if u == 0 {
            // The cos-0 basis row is four copies of one constant, so
            // the (almost always present) DC column needs one product
            // per row instead of four.
            let w = bu[0];
            for y in 0..N {
                let p = t[y] * w;
                acc[0][y] += p;
                acc[1][y] += p;
                acc[2][y] += p;
                acc[3][y] += p;
            }
        } else {
            for (k, row) in acc.iter_mut().enumerate() {
                let w = bu[k];
                for (y, &ty) in t.iter().enumerate() {
                    row[y] += ty * w;
                }
            }
        }
    }
    // y-outer so each output row's eight stores share a cache line;
    // ties are rare enough that one exit branch per row suffices.
    for y in 0..N {
        let mut tie = false;
        for k in 0..HALF_N {
            let top = acc_e[k][y] + acc_o[k][y];
            let bot = acc_e[k][y] - acc_o[k][y];
            let (qt, tt) = round_tie2(top);
            let (qb, tb) = round_tie2(bot);
            tie |= tt | tb;
            out[y * N + k] = qt;
            out[y * N + (N - 1 - k)] = qb;
        }
        if tie {
            return false;
        }
    }
    true
}

/// The original separable `f64` transform: the normative definition
/// of the bitstream, and the fallback for near-tie and out-of-range
/// blocks. Its verbatim copy in `tests/oracle/kernels.rs` is what the
/// tests and the kernel benchmark compare against.
///
/// Both stay out of line, as cold code: they run on the few percent
/// of blocks the cheap pass refuses.
mod reference {
    use super::{basis, N};

    #[cold]
    #[inline(never)]
    pub(super) fn forward(block: &[i32; N * N]) -> [i32; N * N] {
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

    #[cold]
    #[inline(never)]
    pub(super) fn inverse(coeffs: &[i32; N * N]) -> [i32; N * N] {
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

    #[test]
    fn dc_only_block() {
        let flat = [100i32; N * N];
        let c = forward(&flat);
        // All energy lands in the DC coefficient: 100 · 8 = 800.
        assert_eq!(c[0], 800);
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
    /// transform identically to the reference — the exhaustive half
    /// of the fixed-vs-f64 equivalence test.
    #[test]
    fn forward_matches_reference_all_dc_levels() {
        for level in -255..=255 {
            let block = [level; N * N];
            assert_eq!(forward(&block), reference::forward(&block), "level {level}");
        }
    }

    /// DC-only coefficient blocks over the full legitimate range must
    /// invert identically — this sweeps every `c0 ≡ 4 (mod 8)` exact
    /// rounding tie through the closed-form fast path.
    #[test]
    fn inverse_matches_reference_all_dc_levels() {
        let mut coeffs = [0i32; N * N];
        for c0 in -8192..=8192 {
            coeffs[0] = c0;
            assert_eq!(inverse(&coeffs), reference::inverse(&coeffs), "c0 {c0}");
        }
    }

    /// Random residual blocks with the sum forced to `4 (mod 8)`, so
    /// the DC coefficient lands exactly on a `.5` tie and the answer
    /// depends on the reference's own rounding noise. The f64 subpath
    /// must reproduce it bit-for-bit.
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

    /// Structured residuals from a tiny palette maximise exact
    /// cancellations of the irrational basis terms — the inputs most
    /// likely to land in the near-tie guard band and exercise the
    /// fallback.
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
        // Full-range blocks the cheap pass refuses, which only the
        // reference answers.
        let mut rng = Lcg(0x5eed_0004);
        let refused: Vec<[i32; N * N]> = (0..5_000)
            .map(|_| std::array::from_fn(|_| rng.range(-255, 255)))
            .filter(|b| !forward_cheap(b, &mut [0; N * N]))
            .collect();
        assert!(refused.len() >= 100, "{} refused blocks", refused.len());
        for b in &refused {
            assert_eq!(forward(b), reference::forward(b));
        }
    }

    /// Sparse coefficient blocks shaped like post-quantisation output
    /// (mostly zero, energy in low frequencies) must invert
    /// identically, including blocks whose only energy sits in the
    /// rational-basis positions.
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
        // All-rational-position blocks: every output is an exact tie
        // whenever the signed sum is 4 (mod 8).
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
        // Dense coefficient blocks the cheap pass refuses: near-ties
        // below its range gate, and oversized inputs above it.
        let mut rng = Lcg(0x5eed_0005);
        for hi in [2040, 8192] {
            let refused: Vec<[i32; N * N]> = (0..4_000)
                .map(|_| std::array::from_fn(|_| rng.range(-hi, hi)))
                .filter(|c| !inverse_cheap(c, &mut [0; N * N]))
                .collect();
            assert!(refused.len() >= 100, "{} refused below {hi}", refused.len());
            for c in &refused {
                assert_eq!(inverse(c), reference::inverse(c));
            }
        }
    }

    /// Hostile coefficient magnitudes (beyond anything a valid stream
    /// produces) must route through the reference unchanged — same
    /// saturating behaviour, no overflow.
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
            prop_assert_eq!(c2[0] - c1[0], offset * 8);
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
