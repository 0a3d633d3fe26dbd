//! LU factorization (GETRF): unpivoted for HPL-AI, partially pivoted for
//! the HPL (FP64) baseline.
//!
//! HPL-AI's input matrix is diagonally dominant by construction, which is
//! exactly what licenses the unpivoted factorization (`rocsolver_sgetrf` /
//! `cusolverDnSgetrf` are called without a pivot array in the paper's shim);
//! Gaussian elimination without pivoting is backward stable for such
//! matrices. The pivoted variant implements the classic right-looking
//! partial-pivoting algorithm HPL itself uses.
//!
//! The panel factor is itself recursively blocked (split-in-half → TRSM +
//! register-blocked GEMM, scalar base case only below [`PANEL_BASE`]
//! columns), so the serial rank-1 fraction of the factorization is
//! O(n·PANEL_BASE) columns wide instead of O(n·NB) — the Amdahl cleanup
//! the packed GEMM engine exposed (DESIGN.md §10). All per-block-step pack
//! buffers come from the thread-local [`crate::scratch`] arena and are
//! reused across steps.

use crate::gemm::{gemm, Trans};
use crate::scratch;
use crate::trsm::{trsm, Diag, Side, Uplo};
use mxp_precision::Real;

/// Failure modes of the factorizations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetrfError {
    /// A pivot (diagonal entry at elimination time) was exactly zero at the
    /// reported column; the factorization cannot proceed.
    ZeroPivot(usize),
    /// A non-finite value (overflow/NaN) appeared at the reported column —
    /// the mixed-precision analogue of element growth blowing up.
    NonFinite(usize),
}

impl core::fmt::Display for GetrfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GetrfError::ZeroPivot(j) => write!(f, "zero pivot at column {j}"),
            GetrfError::NonFinite(j) => write!(f, "non-finite pivot at column {j}"),
        }
    }
}

impl std::error::Error for GetrfError {}

/// Panel width of the blocked factorization, read from the resolved kernel
/// parameters (`nb`, pinned at [`crate::tune::NB_PINNED`] = 32 in every
/// table entry, because it is bit-affecting).
///
/// The pinned value was swept when the recursive panel factor landed (the
/// `nb_sweep_report` test below regenerates this table): single-thread f32
/// at n = 768, best of 3, GFLOP/s — NB=8 → 17.7, 16 → 26.3, 24 → 27.0,
/// **32 → 28.0**, 48 → 24.5, 64 → 22.0, 96 → 23.6, 128 → 22.4. The
/// recursive panel lifts the wide-panel end (NB=96 was unusable with the
/// scalar rank-1 panel) but the optimum stays at 32: the trailing GEMM's
/// `kc`-slab packing amortizes best when the panel feeds it rank-32
/// updates, and wider panels just move flops into the lower-rate in-panel
/// GEMMs.
fn panel_width<R: Real>() -> usize {
    crate::tune::with_resolved::<R, _>(|v| v.params().nb)
}

/// Base-case width of the recursive panel factorization: below this the
/// fused scalar elimination runs. 8 keeps the base case within one
/// register-blocked GEMM micro-tile width of work while bounding the
/// scalar fraction of an `NB`-wide panel to `PANEL_BASE/NB` of its
/// columns.
const PANEL_BASE: usize = 8;

/// Unpivoted in-place LU: on return the strictly lower triangle of `A`
/// holds `L` (unit diagonal implicit) and the upper triangle holds `U`.
///
/// `A` is `n × n`, column-major with leading dimension `lda`.
///
/// ```
/// use mxp_blas::getrf_nopiv;
/// // A = [[4,3],[6,3]] -> L21 = 1.5, U = [[4,3],[0,-1.5]]
/// let mut a = [4.0f64, 6.0, 3.0, 3.0];
/// getrf_nopiv(2, &mut a, 2).unwrap();
/// assert_eq!(a, [4.0, 1.5, 3.0, -1.5]);
/// ```
pub fn getrf_nopiv<R: Real>(n: usize, a: &mut [R], lda: usize) -> Result<(), GetrfError> {
    getrf_nopiv_nb(n, a, lda, panel_width::<R>())
}

/// [`getrf_nopiv`] with an explicit panel width — the hook `kernel_bench`
/// style sweeps use to retune the pinned panel width; not part of the
/// stable API.
#[doc(hidden)]
pub fn getrf_nopiv_nb<R: Real>(
    n: usize,
    a: &mut [R],
    lda: usize,
    panel_nb: usize,
) -> Result<(), GetrfError> {
    assert!(lda >= n.max(1), "lda {lda} < n {n}");
    assert!(panel_nb > 0, "panel width must be positive");
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + n, "A buffer too small");
    }
    let mut k = 0;
    while k < n {
        let nb = panel_nb.min(n - k);
        // Factor the panel A[k.., k..k+nb] with the recursive blocked
        // factor (TRSM + GEMM down to the fused scalar base case).
        getrf_nopiv_panel(n - k, nb, &mut a[k * lda + k..], lda, k)?;
        let rest = n - k - nb;
        if rest > 0 {
            // U12 = L11^{-1} A12 (unit lower triangular solve).
            // Split so the L11/L21 panel and the trailing columns are
            // disjoint borrows.
            let (left, right) = a.split_at_mut((k + nb) * lda);
            let panel = &left[k * lda + k..]; // holds L11 (rows 0..nb) and L21
            let a12 = &mut right[k..]; // rows k.., cols k+nb..
            trsm(
                Side::Left,
                Uplo::Lower,
                Diag::Unit,
                nb,
                rest,
                R::ONE,
                panel,
                lda,
                a12,
                lda,
            );
            // A22 -= L21 * U12. U12 (rows 0..nb of the a12 view) is packed
            // into tight arena scratch so the GEMM operands don't alias the
            // rows it updates; the arena hands the same buffer back every
            // block step.
            let mut u12 = scratch::take::<R>(nb * rest);
            for c in 0..rest {
                u12[c * nb..(c + 1) * nb].copy_from_slice(&a12[c * lda..c * lda + nb]);
            }
            let l21 = &panel[nb..]; // rows k+nb.., cols k..k+nb
            let a22 = &mut a12[nb..];
            gemm(
                Trans::No,
                Trans::No,
                rest,
                rest,
                nb,
                -R::ONE,
                l21,
                lda,
                &u12,
                nb,
                R::ONE,
                a22,
                lda,
            );
        }
        k += nb;
    }
    Ok(())
}

/// Recursive unpivoted factorization of an `m × nb` panel (`m ≥ nb`; the
/// panel includes the rows below its diagonal block): split the columns in
/// half, factor the left half, solve `U₁₂ = L₁₁⁻¹·A₁₂`, rank-`nb/2` update
/// the right half with the register-blocked GEMM, recurse. Only the
/// [`PANEL_BASE`]-wide base case runs scalar code.
fn getrf_nopiv_panel<R: Real>(
    m: usize,
    nb: usize,
    a: &mut [R],
    lda: usize,
    col_offset: usize,
) -> Result<(), GetrfError> {
    if nb <= PANEL_BASE {
        return getrf_nopiv_base(m, nb, a, lda, col_offset);
    }
    let nb1 = nb / 2;
    let nb2 = nb - nb1;
    getrf_nopiv_panel(m, nb1, a, lda, col_offset)?;
    let (left, right) = a.split_at_mut(nb1 * lda);
    // U12 = L11^{-1} A12 over the top nb1 rows of the right half.
    trsm(
        Side::Left,
        Uplo::Lower,
        Diag::Unit,
        nb1,
        nb2,
        R::ONE,
        left,
        lda,
        right,
        lda,
    );
    // A22 -= L21 · U12, with U12 packed tight from arena scratch (same
    // non-aliasing requirement as the outer blocked loop).
    let mut u12 = scratch::take::<R>(nb1 * nb2);
    for c in 0..nb2 {
        u12[c * nb1..(c + 1) * nb1].copy_from_slice(&right[c * lda..c * lda + nb1]);
    }
    let l21 = &left[nb1..];
    let a22 = &mut right[nb1..];
    gemm(
        Trans::No,
        Trans::No,
        m - nb1,
        nb2,
        nb1,
        -R::ONE,
        l21,
        lda,
        &u12,
        nb1,
        R::ONE,
        a22,
        lda,
    );
    getrf_nopiv_panel(m - nb1, nb2, a22, lda, col_offset + nb1)
}

/// Scalar base case of the recursive panel: classic right-looking
/// elimination, with the rank-1 updates fused over **pairs** of trailing
/// columns so each load of `L(:,j)` feeds two FMA streams (halves the
/// panel-column read traffic and doubles the ILP of the update loop).
fn getrf_nopiv_base<R: Real>(
    m: usize,
    nb: usize,
    a: &mut [R],
    lda: usize,
    col_offset: usize,
) -> Result<(), GetrfError> {
    for j in 0..nb {
        let piv = a[j * lda + j];
        if piv == R::ZERO {
            return Err(GetrfError::ZeroPivot(col_offset + j));
        }
        if !piv.is_finite() {
            return Err(GetrfError::NonFinite(col_offset + j));
        }
        // Scale the subdiagonal of column j.
        let inv = R::ONE / piv;
        for i in j + 1..m {
            a[j * lda + i] *= inv;
        }
        // Fused rank-1 update of the trailing panel columns, two at a time.
        let mut c = j + 1;
        while c + 1 < nb {
            let ujc = a[c * lda + j];
            let ujd = a[(c + 1) * lda + j];
            let (lo, hi) = a.split_at_mut(c * lda);
            let colj = &lo[j * lda..];
            let (colc, cold) = hi.split_at_mut(lda);
            for i in j + 1..m {
                let lij = colj[i];
                colc[i] = (-lij).mul_add(ujc, colc[i]);
                cold[i] = (-lij).mul_add(ujd, cold[i]);
            }
            c += 2;
        }
        if c < nb {
            let ujc = a[c * lda + j];
            let (colj, colc) = borrow_two_cols(a, lda, j, c);
            for i in j + 1..m {
                colc[i] = (-colj[i]).mul_add(ujc, colc[i]);
            }
        }
    }
    Ok(())
}

/// Disjoint mutable borrows of two distinct columns.
fn borrow_two_cols<R>(a: &mut [R], lda: usize, j: usize, c: usize) -> (&[R], &mut [R]) {
    debug_assert!(j < c);
    let (lo, hi) = a.split_at_mut(c * lda);
    (&lo[j * lda..], hi)
}

/// Partially-pivoted in-place LU (the HPL baseline): returns the pivot
/// vector `ipiv` where row `j` was swapped with row `ipiv[j] ≥ j`.
pub fn getrf_pivoted<R: Real>(n: usize, a: &mut [R], lda: usize) -> Result<Vec<usize>, GetrfError> {
    assert!(lda >= n.max(1));
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + n, "A buffer too small");
    }
    let mut ipiv = vec![0usize; n];
    for j in 0..n {
        // Find the pivot row (IAMAX over the subdiagonal column).
        let col = &a[j * lda + j..j * lda + n];
        let p = j + crate::level1::iamax(col).expect("nonempty pivot column");
        let best = a[j * lda + p].abs();
        ipiv[j] = p;
        if best == R::ZERO {
            return Err(GetrfError::ZeroPivot(j));
        }
        if !best.is_finite() {
            return Err(GetrfError::NonFinite(j));
        }
        // Swap full rows j and p: one `slice::swap` per column chunk, so
        // the offsets are computed once per column by the chunk walk
        // instead of twice per element by `a.swap(c·lda+j, c·lda+p)`.
        if p != j {
            for col in a.chunks_mut(lda).take(n) {
                col.swap(j, p);
            }
        }
        let piv = a[j * lda + j];
        let inv = R::ONE / piv;
        for i in j + 1..n {
            a[j * lda + i] *= inv;
        }
        for c in j + 1..n {
            let ujc = a[c * lda + j];
            if ujc != R::ZERO {
                let (colj, colc) = borrow_two_cols(a, lda, j, c);
                for i in j + 1..n {
                    colc[i] = (-colj[i]).mul_add(ujc, colc[i]);
                }
            }
        }
    }
    Ok(ipiv)
}

/// Applies a pivot vector produced by [`getrf_pivoted`] to a vector, i.e.
/// permutes `b` the same way the rows of `A` were permuted.
pub fn apply_pivots<R: Real>(ipiv: &[usize], b: &mut [R]) {
    for (j, &p) in ipiv.iter().enumerate() {
        if p != j {
            b.swap(j, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn dominant_mat(n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed;
        Mat::from_fn(n, n, |i, j| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((s >> 11) as f64 / 9.007199254740992e15) - 0.5;
            if i == j {
                n as f64 / 2.0 + 1.0
            } else {
                r
            }
        })
    }

    fn reconstruct(n: usize, lu: &Mat<f64>) -> Mat<f64> {
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                lu[(i, j)]
            } else {
                0.0
            }
        });
        let u = Mat::from_fn(n, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 });
        let mut out = Mat::<f64>::zeros(n, n);
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            l.as_slice(),
            n,
            u.as_slice(),
            n,
            0.0,
            out.as_mut_slice(),
            n,
        );
        out
    }

    #[test]
    fn two_by_two_by_hand() {
        let mut a = [4.0f64, 6.0, 3.0, 3.0];
        getrf_nopiv(2, &mut a, 2).unwrap();
        assert_eq!(a, [4.0, 1.5, 3.0, -1.5]);
    }

    #[test]
    fn nopiv_reconstructs_small() {
        let n = 20;
        let a = dominant_mat(n, 1);
        let mut lu = a.clone();
        getrf_nopiv(n, lu.as_mut_slice(), n).unwrap();
        let back = reconstruct(n, &lu);
        assert!(back.max_abs_diff(&a) < 1e-12 * n as f64 * a[(0, 0)].abs());
    }

    #[test]
    fn nopiv_reconstructs_blocked() {
        // n > NB so the blocked path (TRSM + GEMM updates) runs.
        let n = 160;
        let a = dominant_mat(n, 2);
        let mut lu = a.clone();
        getrf_nopiv(n, lu.as_mut_slice(), n).unwrap();
        let back = reconstruct(n, &lu);
        assert!(back.max_abs_diff(&a) < 1e-10 * n as f64);
    }

    #[test]
    fn recursive_panel_matches_scalar_reference() {
        // The recursive panel (TRSM + GEMM splits) must agree with a plain
        // scalar right-looking elimination to rounding accuracy, including
        // ragged widths that are not powers of two.
        for &(m, nb) in &[(96usize, 48usize), (77, 29), (40, 8), (33, 9)] {
            let a = dominant_mat(m, 1234 + m as u64);
            // Take the first nb columns as the panel.
            let mut panel = vec![0.0f64; m * nb];
            for j in 0..nb {
                for i in 0..m {
                    panel[j * m + i] = a[(i, j)];
                }
            }
            let mut reference = panel.clone();
            // Scalar reference elimination.
            for j in 0..nb {
                let piv = reference[j * m + j];
                for i in j + 1..m {
                    reference[j * m + i] /= piv;
                }
                for c in j + 1..nb {
                    let ujc = reference[c * m + j];
                    for i in j + 1..m {
                        reference[c * m + i] -= reference[j * m + i] * ujc;
                    }
                }
            }
            getrf_nopiv_panel(m, nb, &mut panel, m, 0).unwrap();
            for k in 0..m * nb {
                let d = (panel[k] - reference[k]).abs();
                assert!(d < 1e-10, "panel {m}x{nb}: element {k} off by {d}");
            }
        }
    }

    #[test]
    fn block_steps_reuse_arena_scratch() {
        // Second identical factorization must acquire scratch without a
        // single fresh allocation: every pack buffer (panel U12, outer U12,
        // GEMM A/B slabs) comes back out of the thread-local arena.
        let n = 192;
        let a = dominant_mat(n, 77);
        let mut lu = a.clone();
        getrf_nopiv(n, lu.as_mut_slice(), n).unwrap(); // warm the arena
        let (acq0, miss0) = crate::scratch::stats();
        let mut lu2 = a.clone();
        getrf_nopiv(n, lu2.as_mut_slice(), n).unwrap();
        let (acq1, miss1) = crate::scratch::stats();
        assert!(
            acq1 - acq0 >= 2 * (n / crate::tune::NB_PINNED),
            "expected at least one U12 + GEMM pack acquisition per block step, saw {}",
            acq1 - acq0
        );
        assert_eq!(
            miss1 - miss0,
            0,
            "steady-state factorization must not allocate scratch"
        );
    }

    #[test]
    fn nopiv_with_lda_padding() {
        let n = 70;
        let tight = dominant_mat(n, 3);
        let mut padded = Mat::<f64>::zeros_lda(n, n, n + 13);
        for j in 0..n {
            for i in 0..n {
                padded[(i, j)] = tight[(i, j)];
            }
        }
        let mut lu_tight = tight.clone();
        getrf_nopiv(n, lu_tight.as_mut_slice(), n).unwrap();
        getrf_nopiv(n, padded.as_mut_slice(), n + 13).unwrap();
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (padded[(i, j)] - lu_tight[(i, j)]).abs() < 1e-9,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_pivot_detected() {
        let mut a = [0.0f64, 1.0, 1.0, 1.0];
        assert_eq!(getrf_nopiv(2, &mut a, 2), Err(GetrfError::ZeroPivot(0)));
    }

    #[test]
    fn nonfinite_detected() {
        let mut a = [f64::INFINITY, 1.0, 1.0, 1.0];
        assert_eq!(getrf_nopiv(2, &mut a, 2), Err(GetrfError::NonFinite(0)));
    }

    #[test]
    fn pivoted_handles_zero_leading_entry() {
        // Unpivoted fails; pivoted succeeds.
        let a = Mat::from_fn(3, 3, |i, j| match (i, j) {
            (0, 0) => 0.0,
            (i, j) => (1 + i * 3 + j) as f64,
        });
        let mut lu = a.clone();
        assert!(getrf_nopiv(3, lu.as_mut_slice(), 3).is_err());
        let mut lu2 = a.clone();
        let ipiv = getrf_pivoted(3, lu2.as_mut_slice(), 3).unwrap();
        assert_ne!(ipiv[0], 0); // a row swap happened
    }

    #[test]
    fn pivoted_solves_system() {
        // Solve A x = b through P A = L U.
        let n = 12;
        let mut s = 9u64;
        let a = Mat::from_fn(n, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let mut b = vec![0.0; n];
        for j in 0..n {
            for i in 0..n {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let mut lu = a.clone();
        let ipiv = getrf_pivoted(n, lu.as_mut_slice(), n).unwrap();
        apply_pivots(&ipiv, &mut b);
        crate::trsv(Uplo::Lower, Diag::Unit, n, lu.as_slice(), n, &mut b);
        crate::trsv(Uplo::Upper, Diag::NonUnit, n, lu.as_slice(), n, &mut b);
        for i in 0..n {
            assert!(
                (b[i] - x_true[i]).abs() < 1e-9,
                "x[{i}] = {} vs {}",
                b[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn pivoted_with_lda_padding_matches_tight() {
        // Regression for the strided row-swap rewrite: the pivoted variant
        // on an `lda > n` padded buffer must match the tight-buffer result
        // exactly — pivots and all factor entries.
        let n = 40;
        let mut s = 31u64;
        let tight = Mat::from_fn(n, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
        });
        let mut padded = Mat::<f64>::zeros_lda(n, n, n + 11);
        for j in 0..n {
            for i in 0..n {
                padded[(i, j)] = tight[(i, j)];
            }
        }
        let mut lu_tight = tight.clone();
        let ipiv_tight = getrf_pivoted(n, lu_tight.as_mut_slice(), n).unwrap();
        let ipiv_pad = getrf_pivoted(n, padded.as_mut_slice(), n + 11).unwrap();
        assert_eq!(ipiv_tight, ipiv_pad, "pivot choice diverged under padding");
        for j in 0..n {
            for i in 0..n {
                assert_eq!(
                    padded[(i, j)],
                    lu_tight[(i, j)],
                    "LU entry ({i},{j}) diverged under padding"
                );
            }
        }
    }

    #[test]
    fn uniform_matrix_growth_vs_dominant() {
        // Element growth of unpivoted LU on a *non*-dominant random matrix
        // is far worse than on the HPL-AI dominant one — the negative
        // control for the benchmark's conditioning requirement.
        let n = 64;
        let mut s = 5u64;
        let arand = Mat::from_fn(n, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
        });
        let adom = dominant_mat(n, 5);

        let growth = |a: &Mat<f64>| -> f64 {
            let mut lu = a.clone();
            if getrf_nopiv(n, lu.as_mut_slice(), n).is_err() {
                return f64::INFINITY;
            }
            let max_in: f64 = a.as_slice().iter().fold(0.0, |m, &v| m.max(v.abs()));
            let max_out: f64 = lu.as_slice().iter().fold(0.0, |m, &v| m.max(v.abs()));
            max_out / max_in
        };
        let g_rand = growth(&arand);
        let g_dom = growth(&adom);
        assert!(
            g_rand > 10.0 * g_dom,
            "expected dominant matrix to grow far less: random {g_rand} vs dominant {g_dom}"
        );
    }

    #[test]
    fn f32_factorization_accuracy() {
        // The precision the benchmark actually factors in.
        let n = 96;
        let a64 = dominant_mat(n, 8);
        let mut a32: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        getrf_nopiv(n, &mut a32, n).unwrap();
        let lu = Mat::from_fn(n, n, |i, j| a32[j * n + i] as f64);
        let back = reconstruct(n, &lu);
        // Backward error at f32 level, scaled by the dominant diagonal.
        let scale = n as f64 / 2.0 + 1.0;
        assert!(back.max_abs_diff(&a64) < 1e-4 * scale);
    }

    #[test]
    #[ignore = "manual NB sweep: cargo test -p mxp-blas --release nb_sweep -- --ignored --nocapture"]
    fn nb_sweep_report() {
        // Evidence generator for the `NB` doc comment: single-thread f32
        // factorization rate at n = 768 across panel widths.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let n = 768usize;
        let mut s = 1u64;
        let a: Vec<f32> = (0..n * n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((s >> 11) as f64 / 9.007199254740992e15) - 0.5) as f32
            })
            .collect();
        let mut a = a;
        for i in 0..n {
            a[i * n + i] = n as f32;
        }
        let flops = 2.0 / 3.0 * (n as f64).powi(3);
        for nb in [8usize, 16, 24, 32, 48, 64, 96, 128] {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let mut lu = a.clone();
                let t0 = std::time::Instant::now();
                getrf_nopiv_nb(n, &mut lu, n, nb).unwrap();
                best = best.min(t0.elapsed().as_secs_f64());
            }
            println!("NB={nb:3}  {:.3}s  {:.1} GFLOP/s", best, flops / best / 1e9);
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    #[test]
    fn nb_override_matches_default() {
        // Any panel width must give the same factorization to rounding
        // accuracy — the NB sweep relies on this hook being equivalent.
        let n = 130;
        let a = dominant_mat(n, 21);
        let mut base = a.clone();
        getrf_nopiv(n, base.as_mut_slice(), n).unwrap();
        for nb in [8usize, 16, 33, 64, 200] {
            let mut lu = a.clone();
            getrf_nopiv_nb(n, lu.as_mut_slice(), n, nb).unwrap();
            let back = reconstruct(n, &lu);
            assert!(
                back.max_abs_diff(&a) < 1e-10 * n as f64,
                "nb={nb} failed to reconstruct"
            );
        }
    }
}
