//! General matrix-vector product (GEMV).
//!
//! The residual step of iterative refinement computes `r = b − A·x̃` in FP64
//! with a parallel GEMV over regenerated matrix columns (Algorithm 1 line
//! 38); this kernel is its single-rank core.

use crate::gemm::Trans;
use mxp_precision::Real;
use rayon::prelude::*;

/// Independent tasks worth dispatching for an `m × n` GEMV: bounded by the
/// pool width `threads` and the flop floor shared with the GEMM/TRSM
/// engines (a GEMV does `2·m·n` flops).
fn gemv_task_count<R: Real>(m: usize, n: usize, threads: usize) -> usize {
    let flops = 2.0 * m as f64 * n as f64;
    let by_flops = (flops / crate::gemm::min_flops_per_task::<R>()).floor() as usize;
    threads.min(by_flops).max(1)
}

/// `y ← α·op(A)·x + β·y` with `A` an `m × n` column-major matrix.
///
/// ```
/// use mxp_blas::{gemv, Trans};
/// let a = [1.0f64, 3.0, 2.0, 4.0]; // [[1,2],[3,4]]
/// let x = [1.0f64, 1.0];
/// let mut y = [0.0f64, 0.0];
/// gemv(Trans::No, 2, 2, 1.0, &a, 2, &x, 0.0, &mut y);
/// assert_eq!(y, [3.0, 7.0]);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn gemv<R: Real>(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: R,
    a: &[R],
    lda: usize,
    x: &[R],
    beta: R,
    y: &mut [R],
) {
    assert!(lda >= m.max(1), "lda {lda} < m {m}");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "A buffer too small");
    }
    let (xs, ys) = match trans {
        Trans::No => (n, m),
        Trans::Yes => (m, n),
    };
    assert!(x.len() >= xs, "x too short");
    assert!(y.len() >= ys, "y too short");

    for v in y.iter_mut().take(ys) {
        *v = if beta == R::ZERO { R::ZERO } else { *v * beta };
    }
    if alpha == R::ZERO || m == 0 || n == 0 {
        return;
    }
    match trans {
        Trans::No => {
            // Column-sweep: y += (alpha * x[j]) * A[:, j]; contiguous reads.
            // Parallel split is over disjoint *row* chunks of y; every chunk
            // still sweeps j ascending, so each y[i] accumulates its terms
            // in exactly the serial order — bitwise identical at any thread
            // count (the residual determinism IR depends on).
            let row_sweep = |r0: usize, yc: &mut [R]| {
                let rows = yc.len();
                for j in 0..n {
                    let axj = alpha * x[j];
                    if axj != R::ZERO {
                        let col = &a[j * lda + r0..j * lda + r0 + rows];
                        for (yi, &aij) in yc.iter_mut().zip(col) {
                            *yi = aij.mul_add(axj, *yi);
                        }
                    }
                }
            };
            let tasks = gemv_task_count::<R>(m, n, rayon::current_num_threads()).min(m);
            if tasks > 1 {
                let rows_per = m.div_ceil(tasks);
                y[..m]
                    .par_chunks_mut(rows_per)
                    .enumerate()
                    .for_each(|(t, yc)| row_sweep(t * rows_per, yc));
            } else {
                row_sweep(0, &mut y[..m]);
            }
        }
        Trans::Yes => {
            // Dot products with each column; columns are independent, and
            // each dot runs i ascending regardless of the split — bitwise
            // identical at any thread count.
            let col_dots = |j0: usize, yc: &mut [R]| {
                for (dj, yj) in yc.iter_mut().enumerate() {
                    let col = &a[(j0 + dj) * lda..(j0 + dj) * lda + m];
                    let mut acc = R::ZERO;
                    for (&aij, &xi) in col.iter().zip(x) {
                        acc = aij.mul_add(xi, acc);
                    }
                    *yj = alpha.mul_add(acc, *yj);
                }
            };
            let tasks = gemv_task_count::<R>(m, n, rayon::current_num_threads()).min(n);
            if tasks > 1 {
                let cols_per = n.div_ceil(tasks);
                y[..n]
                    .par_chunks_mut(cols_per)
                    .enumerate()
                    .for_each(|(t, yc)| col_dots(t * cols_per, yc));
            } else {
                col_dots(0, &mut y[..n]);
            }
        }
    }
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

    #[test]
    fn matches_reference_no_trans() {
        let (m, n) = (17, 23);
        let a = rand_mat(m, n, 1);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 1.0).collect();
        let mut y: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut yref = y.clone();
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[(i, j)] * x[j];
            }
            yref[i] = 0.5 * yref[i] + 2.0 * acc;
        }
        gemv(Trans::No, m, n, 2.0, a.as_slice(), m, &x, 0.5, &mut y);
        for i in 0..m {
            assert!((y[i] - yref[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_reference_trans() {
        let (m, n) = (9, 14);
        let a = rand_mat(m, n, 2);
        let x: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; n];
        gemv(Trans::Yes, m, n, 1.0, a.as_slice(), m, &x, 0.0, &mut y);
        for j in 0..n {
            let mut acc = 0.0;
            for i in 0..m {
                acc += a[(i, j)] * x[i];
            }
            assert!((y[j] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Mat::<f64>::identity(2);
        let x = [1.0, 2.0];
        let mut y = [f64::NAN, f64::NAN];
        gemv(Trans::No, 2, 2, 1.0, a.as_slice(), 2, &x, 0.0, &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn residual_pattern() {
        // r = b - A x: the exact call shape IR uses (alpha = -1, beta = 1).
        let n = 8;
        let a = rand_mat(n, n, 3);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n];
        gemv(Trans::No, n, n, 1.0, a.as_slice(), n, &x, 0.0, &mut b);
        let mut r = b.clone();
        gemv(Trans::No, n, n, -1.0, a.as_slice(), n, &x, 1.0, &mut r);
        assert!(r.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Shapes big enough to cross the flop floor under 4 threads; the
        // row/column split must reproduce the serial result bit for bit.
        for &trans in &[Trans::No, Trans::Yes] {
            let (m, n) = (4096, 512);
            let a = rand_mat(m, n, 17);
            let (xs, ys) = match trans {
                Trans::No => (n, m),
                Trans::Yes => (m, n),
            };
            let x: Vec<f64> = (0..xs).map(|i| (i as f64 * 0.37).cos()).collect();
            let y0: Vec<f64> = (0..ys).map(|i| i as f64 * 0.01).collect();
            std::env::set_var("RAYON_NUM_THREADS", "1");
            let mut serial = y0.clone();
            gemv(trans, m, n, -1.0, a.as_slice(), m, &x, 1.0, &mut serial);
            std::env::set_var("RAYON_NUM_THREADS", "4");
            assert!(
                super::gemv_task_count::<f64>(m, n, 4) > 1,
                "shape must cross the task floor"
            );
            let mut par = y0.clone();
            gemv(trans, m, n, -1.0, a.as_slice(), m, &x, 1.0, &mut par);
            std::env::remove_var("RAYON_NUM_THREADS");
            assert_eq!(serial, par, "{trans:?} parallel gemv diverged");
        }
    }

    #[test]
    fn lda_padding() {
        let m = 3;
        let mut pad = Mat::<f64>::zeros_lda(m, 2, 6);
        pad[(0, 0)] = 1.0;
        pad[(1, 1)] = 2.0;
        let x = [1.0, 1.0];
        let mut y = [0.0; 3];
        gemv(Trans::No, m, 2, 1.0, pad.as_slice(), 6, &x, 0.0, &mut y);
        assert_eq!(y, [1.0, 2.0, 0.0]);
    }
}
