//! Triangular solve with multiple right-hand sides (TRSM).
//!
//! The paper's Panel Update (§III-C, Algorithm 1 lines 13/22) uses two
//! variants: `TRSM_L_LOW` solves `L₁₁·X = A₁₂` for the `U` panel (left,
//! lower, unit-diagonal), and `TRSM_R_UP` solves `X·U₁₁ = A₂₁` for the `L`
//! panel (right, upper, non-unit diagonal). All eight side/uplo/diag
//! combinations are implemented so the kernel matches the full
//! `cublasStrsm`/`rocblas_strsm` contract.
//!
//! # Bitwise invariant
//!
//! Like the GEMM engine (DESIGN.md §14), every result element has one
//! fixed operation sequence, whatever the thread count, ISA level or tile
//! shape. In the unblocked base case, element `x[i, j]` of a `Side::Left`
//! solve starts from `b[i, j]`, takes `fma(−a[i, l], x[l, j], ·)` for the
//! already-solved rows `l` in **ascending** order, then is divided by
//! `a[i, i]` when `NonUnit`. The left base case computes that chain with
//! the FMA vectorised across right-hand sides: a block of columns of B is
//! transposed into a row-major tile, so one row of X is a vector of
//! independent chains, each still taking its terms in the scalar order.
//! The tile width only decides which chains share a vector, never what a
//! chain computes, so it is bit-neutral and a plain constant, not a tuned
//! parameter. The recursion cutoff `tb` is different: it decides which
//! terms go through the blocked GEMM update and which through the base
//! case, which regroups the sums, so it stays pinned at
//! [`crate::tune::TB_PINNED`].

use crate::gemm::{gemm, SendPtr, Trans};
use crate::scratch;
use mxp_precision::Real;
use rayon::prelude::*;

/// Which side the triangular matrix appears on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A)·X = α·B`.
    Left,
    /// Solve `X·op(A) = α·B`.
    Right,
}

/// Whether the triangular matrix is upper or lower triangular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uplo {
    /// Upper triangular.
    Upper,
    /// Lower triangular.
    Lower,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are read from storage.
    NonUnit,
    /// Diagonal entries are assumed to be one (storage not read).
    Unit,
}

/// The recursion cutoff (`tb`: below it the unblocked kernel runs) comes
/// from the resolved kernel parameters — pinned at
/// [`crate::tune::TB_PINNED`] = 64, which keeps the triangular tile plus a
/// B panel in L1/L2. It is bit-affecting (the blocked substitution order
/// changes with it), so every table entry pins it.
fn trsm_cutoff<R: Real>() -> usize {
    crate::tune::with_resolved::<R, _>(|v| v.params().tb)
}

/// Solves a triangular system in place: `B ← α · op(A)⁻¹ · B` (Left) or
/// `B ← α · B · op(A)⁻¹` (Right). `A` is `k × k` where `k = m` for Left and
/// `k = n` for Right; `B` is `m × n`. No transpose support — the HPL-AI data
/// flow never needs it (the `U` panel is transposed explicitly by
/// TRANS_CAST instead).
///
/// ```
/// use mxp_blas::{trsm, Side, Uplo, Diag};
/// // Solve L X = B with L = [[2,0],[1,1]] (non-unit), B = [[2],[2]].
/// let l = [2.0f64, 1.0, 0.0, 1.0];
/// let mut b = [2.0f64, 2.0];
/// trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 2, 1, 1.0, &l, 2, &mut b, 2);
/// assert_eq!(b, [1.0, 1.0]);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn trsm<R: Real>(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: R,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
) {
    let k = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert!(lda >= k.max(1), "lda {lda} < k {k}");
    if k > 0 {
        assert!(a.len() >= lda * (k - 1) + k, "A buffer too small");
    }
    assert!(ldb >= m.max(1), "ldb {ldb} < m {m}");
    if n > 0 && m > 0 {
        assert!(b.len() >= ldb * (n - 1) + m, "B buffer too small");
    }
    if m == 0 || n == 0 {
        return;
    }
    if alpha != R::ONE {
        for j in 0..n {
            for x in &mut b[j * ldb..j * ldb + m] {
                *x = if alpha == R::ZERO {
                    R::ZERO
                } else {
                    *x * alpha
                };
            }
        }
        if alpha == R::ZERO {
            return;
        }
    }
    // The k-independent dimension of B (columns for Left, rows for Right)
    // splits into blocks solved by independent rayon tasks; each block is a
    // full triangular solve against the shared read-only A, so the
    // GEMM-rich recursion below runs concurrently per block.
    let tb = trsm_cutoff::<R>();
    let tasks = trsm_task_count::<R>(side, m, n, rayon::current_num_threads());
    match side {
        Side::Left if tasks > 1 => {
            let cols = n.div_ceil(tasks);
            b[..ldb * (n - 1) + m]
                .par_chunks_mut(ldb * cols)
                .enumerate()
                .for_each(|(idx, chunk)| {
                    let jn = cols.min(n - idx * cols);
                    trsm_rec(side, uplo, diag, m, jn, a, lda, chunk, ldb, tb);
                });
        }
        Side::Right if tasks > 1 => {
            // Rows interleave in memory, so each task packs its row block
            // into a tight buffer, solves there, and writes back — disjoint
            // rows, hence the raw-pointer hand-off.
            let rows_per = m.div_ceil(tasks);
            let bptr = SendPtr(b.as_mut_ptr());
            (0..m.div_ceil(rows_per)).into_par_iter().for_each(|t| {
                let r0 = t * rows_per;
                let rows = rows_per.min(m - r0);
                // Arena scratch: every element is overwritten by the gather
                // below, and the worker's pool hands the same buffer back on
                // the next dispatch (the vendored pool keeps workers alive).
                let mut tight = scratch::take::<R>(rows * n);
                // SAFETY: tasks own disjoint row ranges [r0, r0+rows) of b,
                // which outlives the scoped worker threads.
                unsafe {
                    for j in 0..n {
                        for i in 0..rows {
                            tight[j * rows + i] = *bptr.get().add(j * ldb + r0 + i);
                        }
                    }
                }
                trsm_rec(side, uplo, diag, rows, n, a, lda, &mut tight, rows, tb);
                unsafe {
                    for j in 0..n {
                        for i in 0..rows {
                            *bptr.get().add(j * ldb + r0 + i) = tight[j * rows + i];
                        }
                    }
                }
            });
        }
        _ => trsm_rec(side, uplo, diag, m, n, a, lda, b, ldb, tb),
    }
}

/// Number of independent solve tasks worth dispatching: bounded by the
/// pool width `threads`, the per-task flop floor shared with the GEMM
/// engine, and the count of independent columns (Left) or rows (Right).
fn trsm_task_count<R: Real>(side: Side, m: usize, n: usize, threads: usize) -> usize {
    // A triangular solve does ~k² flops per independent vector (k = m for
    // Left, k = n for Right).
    let (k, indep) = match side {
        Side::Left => (m as f64, n),
        Side::Right => (n as f64, m),
    };
    let flops = k * k * indep as f64;
    let by_flops = (flops / crate::gemm::min_flops_per_task::<R>()).floor() as usize;
    threads.min(by_flops).min(indep).max(1)
}

/// Recursive blocked TRSM on the already α-scaled B.
#[allow(clippy::too_many_arguments)]
fn trsm_rec<R: Real>(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
    tb: usize,
) {
    let k = match side {
        Side::Left => m,
        Side::Right => n,
    };
    if k <= tb {
        trsm_unblocked(side, uplo, diag, m, n, a, lda, b, ldb);
        return;
    }
    let k1 = k / 2;
    let k2 = k - k1;
    // Split A into [A11 A12; A21 A22] at k1. Only one off-diagonal block is
    // populated depending on uplo.
    match (side, uplo) {
        (Side::Left, Uplo::Lower) => {
            // [L11 0; L21 L22] X = B  =>  X1 = L11^-1 B1;
            // B2 -= L21 X1; X2 = L22^-1 B2.
            trsm_rec(side, uplo, diag, k1, n, a, lda, b, ldb, tb);
            // Row blocks of B interleave in memory, so the solved X1 is
            // packed into a tight scratch buffer before the rank-k1 update
            // of the lower rows (keeps the GEMM operands non-aliasing).
            let x1 = pack_rows(b, 0, k1, n, ldb);
            let a21 = &a[k1..];
            let b2 = &mut b[k1..];
            gemm(
                Trans::No,
                Trans::No,
                k2,
                n,
                k1,
                -R::ONE,
                a21,
                lda,
                &x1,
                k1,
                R::ONE,
                b2,
                ldb,
            );
            trsm_rec(
                side,
                uplo,
                diag,
                k2,
                n,
                &a[k1 * lda + k1..],
                lda,
                b2,
                ldb,
                tb,
            );
        }
        (Side::Left, Uplo::Upper) => {
            // [U11 U12; 0 U22] X = B  =>  X2 = U22^-1 B2;
            // B1 -= U12 X2; X1 = U11^-1 B1.
            trsm_rec(
                side,
                uplo,
                diag,
                k2,
                n,
                &a[k1 * lda + k1..],
                lda,
                &mut b[k1..],
                ldb,
                tb,
            );
            let x2 = pack_rows(b, k1, k2, n, ldb);
            let a12 = &a[k1 * lda..];
            gemm(
                Trans::No,
                Trans::No,
                k1,
                n,
                k2,
                -R::ONE,
                a12,
                lda,
                &x2,
                k2,
                R::ONE,
                b,
                ldb,
            );
            trsm_rec(side, uplo, diag, k1, n, a, lda, b, ldb, tb);
        }
        (Side::Right, Uplo::Upper) => {
            // X [U11 U12; 0 U22] = B  =>  X1 = B1 U11^-1;
            // B2 -= X1 U12; X2 = B2 U22^-1.
            trsm_rec(side, uplo, diag, m, k1, a, lda, b, ldb, tb);
            let a12 = &a[k1 * lda..];
            let (b1, b2) = split_cols(b, k1, ldb);
            gemm(
                Trans::No,
                Trans::No,
                m,
                k2,
                k1,
                -R::ONE,
                b1,
                ldb,
                a12,
                lda,
                R::ONE,
                b2,
                ldb,
            );
            trsm_rec(
                side,
                uplo,
                diag,
                m,
                k2,
                &a[k1 * lda + k1..],
                lda,
                b2,
                ldb,
                tb,
            );
        }
        (Side::Right, Uplo::Lower) => {
            // X [L11 0; L21 L22] = B  =>  X2 = B2 L22^-1;
            // B1 -= X2 L21; X1 = B1 L11^-1.
            let (b1, b2) = split_cols(b, k1, ldb);
            trsm_rec(
                side,
                uplo,
                diag,
                m,
                k2,
                &a[k1 * lda + k1..],
                lda,
                b2,
                ldb,
                tb,
            );
            let a21 = &a[k1..];
            gemm(
                Trans::No,
                Trans::No,
                m,
                k1,
                k2,
                -R::ONE,
                b2,
                ldb,
                a21,
                lda,
                R::ONE,
                b1,
                ldb,
            );
            trsm_rec(side, uplo, diag, m, k1, a, lda, b1, ldb, tb);
        }
    }
}

/// Packs rows `[r0, r0+rows)` of the `ldb`-strided matrix into a tight
/// `rows × n` column-major arena buffer (fully overwritten, so the
/// unspecified contents of [`scratch::take`] are fine).
fn pack_rows<R: Real>(
    b: &[R],
    r0: usize,
    rows: usize,
    n: usize,
    ldb: usize,
) -> scratch::ScratchGuard<R> {
    let mut out = scratch::take::<R>(rows * n);
    for j in 0..n {
        out[j * rows..(j + 1) * rows].copy_from_slice(&b[j * ldb + r0..j * ldb + r0 + rows]);
    }
    out
}

/// Splits B into column blocks at column `k1` (stride ldb): safe split.
fn split_cols<R>(b: &mut [R], k1: usize, ldb: usize) -> (&mut [R], &mut [R]) {
    b.split_at_mut(k1 * ldb)
}

/// Right-hand sides per transposed tile in the `Side::Left` base case.
/// Bit-neutral (see [`trsm_left_base`]), so a plain constant rather than a
/// tuned parameter. 64 measured fastest against 32 and 128 (f32, single
/// thread, 64×3072 tight and 256×3072 at ldb 3072, AVX-512 Xeon): enough
/// independent vector chains per row to cover the FMA latency, and a
/// `tb × 64` tile of at most 32 KiB (f64) that stays in L1.
const LEFT_TILE: usize = 64;

#[allow(clippy::too_many_arguments)]
fn trsm_unblocked<R: Real>(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
) {
    match (side, uplo) {
        (Side::Left, _) => trsm_left_base(uplo, diag, m, n, a, lda, b, ldb),
        (Side::Right, Uplo::Upper) => {
            // X U = B: columns of X resolved left to right.
            for j in 0..n {
                // b[:, j] -= sum_{l<j} x[:, l] * U[l, j]; then divide.
                for l in 0..j {
                    let ulj = a[j * lda + l];
                    if ulj != R::ZERO {
                        let (done, cur) = b.split_at_mut(j * ldb);
                        let xl = &done[l * ldb..l * ldb + m];
                        let cj = &mut cur[..m];
                        for (c, &x) in cj.iter_mut().zip(xl) {
                            *c = (-ulj).mul_add(x, *c);
                        }
                    }
                }
                if diag == Diag::NonUnit {
                    let d = a[j * lda + j];
                    for c in &mut b[j * ldb..j * ldb + m] {
                        *c /= d;
                    }
                }
            }
        }
        (Side::Right, Uplo::Lower) => {
            // X L = B: columns resolved right to left.
            for j in (0..n).rev() {
                for l in j + 1..n {
                    let llj = a[j * lda + l];
                    if llj != R::ZERO {
                        let (before, after) = b.split_at_mut(l * ldb);
                        let cj = &mut before[j * ldb..j * ldb + m];
                        let xl = &after[..m];
                        for (c, &x) in cj.iter_mut().zip(xl) {
                            *c = (-llj).mul_add(x, *c);
                        }
                    }
                }
                if diag == Diag::NonUnit {
                    let d = a[j * lda + j];
                    for c in &mut b[j * ldb..j * ldb + m] {
                        *c /= d;
                    }
                }
            }
        }
    }
}

/// `Side::Left` base case: `B ← op(A)⁻¹·B` for `m ≤ tb` rows, solved
/// [`LEFT_TILE`] right-hand sides at a time through a row-major transposed
/// tile from the scratch arena.
///
/// A column-at-a-time substitution is a serial chain of up to `m − 1`
/// dependent FMAs per element with a stride-`lda` read of A for every one
/// of them. Transposing a block of columns into a tile whose rows are
/// contiguous lets one row of X be computed as a vector: the FMA runs
/// across the tile's right-hand sides, which are independent, while each
/// element keeps exactly the scalar recurrence — start from `b[i, j]`,
/// apply `fma(−a[i, l], x[l, j], ·)` for `l` ascending (`l < i` for Lower,
/// `l > i` for Upper), then divide by `a[i, i]` when `NonUnit`. Results
/// are therefore bitwise identical to the dot-form loop at any tile width.
#[allow(clippy::too_many_arguments)]
fn trsm_left_base<R: Real>(
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
) {
    // Arena scratch: `left_tile` writes every lane before reading it.
    let mut tile = scratch::take::<R>(m * LEFT_TILE);
    for j0 in (0..n).step_by(LEFT_TILE) {
        let w = (n - j0).min(LEFT_TILE);
        left_tile(uplo, diag, m, w, a, lda, &mut b[j0 * ldb..], ldb, &mut tile);
    }
}

/// Solves the `w ≤ LEFT_TILE` columns at the front of `b` through a
/// row-major `m × LEFT_TILE` tile: gather, substitute row by row, scatter.
/// Lanes `w..LEFT_TILE` are zero-filled padding that is solved alongside
/// and never written back.
#[allow(clippy::too_many_arguments)]
fn left_tile<R: Real>(
    uplo: Uplo,
    diag: Diag,
    m: usize,
    w: usize,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
    tile: &mut [R],
) {
    const W: usize = LEFT_TILE;
    let tile = &mut tile[..m * W];
    for jj in 0..W {
        if jj < w {
            for (i, &x) in b[jj * ldb..jj * ldb + m].iter().enumerate() {
                tile[i * W + jj] = x;
            }
        } else {
            for i in 0..m {
                tile[i * W + jj] = R::ZERO;
            }
        }
    }
    match uplo {
        Uplo::Lower => {
            for i in 0..m {
                left_tile_row(tile, i, 0..i, diag, a, lda);
            }
        }
        Uplo::Upper => {
            for i in (0..m).rev() {
                left_tile_row(tile, i, i + 1..m, diag, a, lda);
            }
        }
    }
    for jj in 0..w {
        for (i, x) in b[jj * ldb..jj * ldb + m].iter_mut().enumerate() {
            *x = tile[i * W + jj];
        }
    }
}

/// Finishes tile row `i` against the already-solved rows `ls` (ascending):
/// `LEFT_TILE` independent FMA chains held in a fixed-size accumulator so
/// the compiler keeps them in vector registers across the whole `l` loop.
#[inline(always)]
fn left_tile_row<R: Real>(
    tile: &mut [R],
    i: usize,
    ls: std::ops::Range<usize>,
    diag: Diag,
    a: &[R],
    lda: usize,
) {
    const W: usize = LEFT_TILE;
    let mut acc = [R::ZERO; W];
    acc.copy_from_slice(&tile[i * W..(i + 1) * W]);
    for l in ls {
        let f = -a[l * lda + i];
        let xl = &tile[l * W..(l + 1) * W];
        for jj in 0..W {
            acc[jj] = f.mul_add(xl[jj], acc[jj]);
        }
    }
    if diag == Diag::NonUnit {
        let d = a[i * lda + i];
        for v in &mut acc {
            *v /= d;
        }
    }
    tile[i * W..(i + 1) * W].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut s = seed;
        Mat::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
        })
    }

    /// Well-conditioned triangular factor: random strictly-triangular part
    /// with a dominant diagonal.
    fn tri_mat(k: usize, uplo: Uplo, diag: Diag, seed: u64) -> Mat<f64> {
        let r = rand_mat(k, k, seed);
        Mat::from_fn(k, k, |i, j| {
            let keep = match uplo {
                Uplo::Lower => i > j,
                Uplo::Upper => i < j,
            };
            if i == j {
                match diag {
                    Diag::Unit => 123.0, // junk: must never be read
                    Diag::NonUnit => 2.0 + r[(i, j)],
                }
            } else if keep {
                r[(i, j)] * 0.5 / k as f64
            } else {
                0.0
            }
        })
    }

    /// Multiplies using the mathematical triangular operator (honoring Unit).
    fn tri_apply(side: Side, uplo: Uplo, diag: Diag, a: &Mat<f64>, x: &Mat<f64>) -> Mat<f64> {
        let k = a.rows();
        let aa = Mat::from_fn(k, k, |i, j| {
            if i == j {
                match diag {
                    Diag::Unit => 1.0,
                    Diag::NonUnit => a[(i, j)],
                }
            } else {
                let keep = match uplo {
                    Uplo::Lower => i > j,
                    Uplo::Upper => i < j,
                };
                if keep {
                    a[(i, j)]
                } else {
                    0.0
                }
            }
        });
        let (m, n) = (x.rows(), x.cols());
        let mut out = Mat::<f64>::zeros(m, n);
        match side {
            Side::Left => crate::gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                m,
                1.0,
                aa.as_slice(),
                k,
                x.as_slice(),
                m,
                0.0,
                out.as_mut_slice(),
                m,
            ),
            Side::Right => crate::gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                n,
                1.0,
                x.as_slice(),
                m,
                aa.as_slice(),
                k,
                0.0,
                out.as_mut_slice(),
                m,
            ),
        }
        out
    }

    fn check_variant(side: Side, uplo: Uplo, diag: Diag, m: usize, n: usize) {
        let k = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let a = tri_mat(k, uplo, diag, 42);
        let b = rand_mat(m, n, 7);
        let mut x = b.clone();
        trsm(
            side,
            uplo,
            diag,
            m,
            n,
            1.0,
            a.as_slice(),
            k,
            x.as_mut_slice(),
            m,
        );
        let back = tri_apply(side, uplo, diag, &a, &x);
        let d = back.max_abs_diff(&b);
        assert!(d < 1e-10, "{side:?}/{uplo:?}/{diag:?} residual {d}");
    }

    #[test]
    fn all_eight_variants_small() {
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &diag in &[Diag::NonUnit, Diag::Unit] {
                    check_variant(side, uplo, diag, 13, 9);
                }
            }
        }
    }

    #[test]
    fn all_eight_variants_blocked() {
        // k > the recursion cutoff exercises the recursive splitting + GEMM updates.
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &diag in &[Diag::NonUnit, Diag::Unit] {
                    let (m, n) = match side {
                        Side::Left => (150, 40),
                        Side::Right => (40, 150),
                    };
                    check_variant(side, uplo, diag, m, n);
                }
            }
        }
    }

    #[test]
    fn alpha_scaling() {
        let a = tri_mat(4, Uplo::Lower, Diag::NonUnit, 3);
        let b = rand_mat(4, 2, 9);
        let mut x1 = b.clone();
        trsm(
            Side::Left,
            Uplo::Lower,
            Diag::NonUnit,
            4,
            2,
            2.0,
            a.as_slice(),
            4,
            x1.as_mut_slice(),
            4,
        );
        let mut x2 = b.clone();
        trsm(
            Side::Left,
            Uplo::Lower,
            Diag::NonUnit,
            4,
            2,
            1.0,
            a.as_slice(),
            4,
            x2.as_mut_slice(),
            4,
        );
        for j in 0..2 {
            for i in 0..4 {
                assert!((x1[(i, j)] - 2.0 * x2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn alpha_zero_zeroes_b() {
        let a = tri_mat(3, Uplo::Upper, Diag::NonUnit, 3);
        let mut x = rand_mat(3, 3, 1);
        trsm(
            Side::Left,
            Uplo::Upper,
            Diag::NonUnit,
            3,
            3,
            0.0,
            a.as_slice(),
            3,
            x.as_mut_slice(),
            3,
        );
        assert!(x.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        // tri_mat stores junk (123.0) on the diagonal for Unit; if the
        // kernel read it the residual check would explode.
        check_variant(Side::Left, Uplo::Lower, Diag::Unit, 20, 5);
        check_variant(Side::Right, Uplo::Upper, Diag::Unit, 5, 20);
    }

    #[test]
    fn respects_lda_ldb() {
        let k = 6;
        let a_tight = tri_mat(k, Uplo::Upper, Diag::NonUnit, 11);
        let mut a_pad = Mat::<f64>::zeros_lda(k, k, 10);
        for j in 0..k {
            for i in 0..k {
                a_pad[(i, j)] = a_tight[(i, j)];
            }
        }
        let b = rand_mat(k, 3, 2);
        let mut x1 = b.clone();
        trsm(
            Side::Left,
            Uplo::Upper,
            Diag::NonUnit,
            k,
            3,
            1.0,
            a_tight.as_slice(),
            k,
            x1.as_mut_slice(),
            k,
        );
        let mut x2_pad = Mat::<f64>::zeros_lda(k, 3, 8);
        for j in 0..3 {
            for i in 0..k {
                x2_pad[(i, j)] = b[(i, j)];
            }
        }
        let ldx = x2_pad.lda();
        trsm(
            Side::Left,
            Uplo::Upper,
            Diag::NonUnit,
            k,
            3,
            1.0,
            a_pad.as_slice(),
            a_pad.lda(),
            x2_pad.as_mut_slice(),
            ldx,
        );
        for j in 0..3 {
            for i in 0..k {
                assert_eq!(x1[(i, j)], x2_pad[(i, j)]);
            }
        }
    }

    #[test]
    fn parallel_split_matches_serial_bitwise() {
        // Force a multi-task split and check it produces exactly the same
        // result as the serial path: each column/row block runs the same
        // per-element operations in the same order.
        for &(side, m, n) in &[(Side::Left, 96, 512), (Side::Right, 512, 96)] {
            let k = match side {
                Side::Left => m,
                Side::Right => n,
            };
            let a = tri_mat(k, Uplo::Lower, Diag::NonUnit, 21);
            let b = rand_mat(m, n, 22);
            let mut serial = b.clone();
            std::env::set_var("RAYON_NUM_THREADS", "1");
            trsm(
                side,
                Uplo::Lower,
                Diag::NonUnit,
                m,
                n,
                1.0,
                a.as_slice(),
                k,
                serial.as_mut_slice(),
                m,
            );
            let mut par = b.clone();
            std::env::set_var("RAYON_NUM_THREADS", "4");
            assert!(
                super::trsm_task_count::<f64>(side, m, n, 4) > 1,
                "shape {m}x{n} must cross the task floor"
            );
            trsm(
                side,
                Uplo::Lower,
                Diag::NonUnit,
                m,
                n,
                1.0,
                a.as_slice(),
                k,
                par.as_mut_slice(),
                m,
            );
            std::env::remove_var("RAYON_NUM_THREADS");
            assert_eq!(serial, par, "{side:?} parallel split diverged");
        }
    }

    /// The scalar dot-form `Side::Left` substitution the tiled base case
    /// replaced — one column at a time, each element's FMA chain over `l`
    /// ascending, then the `NonUnit` divide. Bitwise oracle for `trsm` at
    /// `m ≤ tb`, where the base case runs alone.
    #[allow(clippy::too_many_arguments)]
    fn trsm_left_reference<R: Real>(
        uplo: Uplo,
        diag: Diag,
        m: usize,
        n: usize,
        a: &[R],
        lda: usize,
        b: &mut [R],
        ldb: usize,
    ) {
        match uplo {
            Uplo::Lower => {
                // Forward substitution down each column of B.
                for j in 0..n {
                    let col = &mut b[j * ldb..j * ldb + m];
                    for i in 0..m {
                        let mut x = col[i];
                        for l in 0..i {
                            x = (-a[l * lda + i]).mul_add(col[l], x);
                        }
                        if diag == Diag::NonUnit {
                            x /= a[i * lda + i];
                        }
                        col[i] = x;
                    }
                }
            }
            Uplo::Upper => {
                for j in 0..n {
                    let col = &mut b[j * ldb..j * ldb + m];
                    for i in (0..m).rev() {
                        let mut x = col[i];
                        for l in i + 1..m {
                            x = (-a[l * lda + i]).mul_add(col[l], x);
                        }
                        if diag == Diag::NonUnit {
                            x /= a[i * lda + i];
                        }
                        col[i] = x;
                    }
                }
            }
        }
    }

    /// `trsm` against [`trsm_left_reference`], bit for bit over the whole
    /// (padded) buffer, with `A` at a padded `lda` and `B` at `ldb`.
    fn assert_left_matches_reference<R: Real>(
        uplo: Uplo,
        diag: Diag,
        m: usize,
        n: usize,
        ldb: usize,
    ) {
        let lda = m + 5;
        let a64 = tri_mat(m, uplo, diag, 31 + m as u64);
        let mut a = vec![R::from_f64(-7.0); lda * m];
        for j in 0..m {
            for i in 0..m {
                a[j * lda + i] = R::from_f64(a64[(i, j)]);
            }
        }
        let vals = rand_mat(m, n, 17 + n as u64);
        // Padding rows carry a sentinel, so a stray write shows up too.
        let mut b0 = vec![R::from_f64(99.0); ldb * (n - 1) + m];
        for j in 0..n {
            for i in 0..m {
                b0[j * ldb + i] = R::from_f64(vals[(i, j)]);
            }
        }
        let mut want = b0.clone();
        trsm_left_reference(uplo, diag, m, n, &a, lda, &mut want, ldb);
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let mut got = b0.clone();
            trsm(Side::Left, uplo, diag, m, n, R::ONE, &a, lda, &mut got, ldb);
            std::env::remove_var("RAYON_NUM_THREADS");
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_f64().to_bits(),
                    w.to_f64().to_bits(),
                    "{uplo:?}/{diag:?} m={m} n={n} ldb={ldb} threads={threads}: \
                     element {idx} is {g} instead of {w}"
                );
            }
        }
    }

    fn left_base_case_oracle<R: Real>() {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for diag in [Diag::Unit, Diag::NonUnit] {
                for m in [1, 7, 63, 64] {
                    for n in [1, 63, 65, 200] {
                        for ldb in [m, 3072] {
                            assert_left_matches_reference::<R>(uplo, diag, m, n, ldb);
                        }
                    }
                }
                // Wide enough to split into column tasks at 4 threads, so
                // each task's chunk ends in a ragged tail tile.
                assert!(trsm_task_count::<R>(Side::Left, 64, 2055, 4) > 1);
                assert_left_matches_reference::<R>(uplo, diag, 64, 2055, 3072);
            }
        }
    }

    #[test]
    fn left_base_case_bitwise_matches_dot_form_f32() {
        left_base_case_oracle::<f32>();
    }

    #[test]
    fn left_base_case_bitwise_matches_dot_form_f64() {
        left_base_case_oracle::<f64>();
    }

    #[test]
    fn paper_variants_f32() {
        // The two variants Algorithm 1 actually uses, in the working
        // precision it uses them in.
        let k = 32;
        let a64 = tri_mat(k, Uplo::Lower, Diag::Unit, 5);
        let a: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        let b64 = rand_mat(k, 17, 6);
        let mut b: Vec<f32> = b64.as_slice().iter().map(|&v| v as f32).collect();
        trsm(
            Side::Left,
            Uplo::Lower,
            Diag::Unit,
            k,
            17,
            1.0f32,
            &a,
            k,
            &mut b,
            k,
        );
        // Verify residual in f64.
        let x = Mat::from_fn(k, 17, |i, j| b[j * k + i] as f64);
        let back = tri_apply(Side::Left, Uplo::Lower, Diag::Unit, &a64, &x);
        assert!(back.max_abs_diff(&b64) < 1e-4);
    }
}
