//! Property-based tests for the BLAS kernels.

use mxp_blas::{gemm, gemm_mixed, gemv, getrf_nopiv, trsm, trsv, Diag, Mat, Side, Trans, Uplo};
use mxp_precision::{Real, F16};
use proptest::prelude::*;

fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
    let mut s = seed | 1;
    Mat::from_fn(rows, cols, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
    })
}

/// Column-major stored matrix with `lda >= rows` padding, filled from an LCG.
fn rand_padded(rows: usize, cols: usize, lda: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let mut v = vec![f64::NAN; lda * cols.max(1)]; // NaN padding: reads of pad rows would poison C
    for j in 0..cols {
        for x in &mut v[j * lda..j * lda + rows] {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = ((s >> 11) as f64 / 9.007199254740992e15) - 0.5;
        }
    }
    v
}

/// Reference triple loop: `C ← α·op(A)·op(B) + β·C`, β = 0 overwriting.
#[allow(clippy::too_many_arguments)]
fn naive_gemm(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..k {
                let av = match ta {
                    Trans::No => a[l * lda + i],
                    Trans::Yes => a[i * lda + l],
                };
                let bv = match tb {
                    Trans::No => b[j * ldb + l],
                    Trans::Yes => b[l * ldb + j],
                };
                acc += av * bv;
            }
            let prev = c[j * ldc + i];
            c[j * ldc + i] = if beta == 0.0 {
                alpha * acc
            } else {
                alpha * acc + beta * prev
            };
        }
    }
}

fn dominant_mat(n: usize, seed: u64) -> Mat<f64> {
    let r = rand_mat(n, n, seed);
    Mat::from_fn(n, n, |i, j| {
        if i == j {
            n as f64 / 2.0 + 1.0
        } else {
            r[(i, j)]
        }
    })
}

/// Scalar dot-form `Side::Left` substitution, one column at a time: each
/// element starts from `b[i, j]`, takes `fma(−a[i, l], x[l, j], ·)` for `l`
/// ascending, then the `NonUnit` divide. `trsm` must reproduce it bit for
/// bit whenever `m` is at most the recursion cutoff (64).
#[allow(clippy::too_many_arguments)]
fn left_dot_form<R: Real>(
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    a: &[R],
    lda: usize,
    b: &mut [R],
    ldb: usize,
) {
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        for step in 0..m {
            let (i, ls) = match uplo {
                Uplo::Lower => (step, 0..step),
                Uplo::Upper => (m - 1 - step, m - step..m),
            };
            let mut x = col[i];
            for l in ls {
                x = (-a[l * lda + i]).mul_add(col[l], x);
            }
            if diag == Diag::NonUnit {
                x /= a[i * lda + i];
            }
            col[i] = x;
        }
    }
}

/// Runs `trsm` and [`left_dot_form`] on the same padded operands and
/// compares every element of B's buffer, padding included, by bits.
#[allow(clippy::too_many_arguments)]
fn left_base_case_bitwise<R: Real>(
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    lda: usize,
    ldb: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    // NaN wherever a correct solve never reads A — the other triangle,
    // the diagonal under Unit, the padding rows — so a stray read changes
    // the result bits.
    let mut a = rand_padded(m, m, lda, seed ^ 5);
    for j in 0..m {
        for i in 0..m {
            let strict = match uplo {
                Uplo::Lower => i > j,
                Uplo::Upper => i < j,
            };
            let v = &mut a[j * lda + i];
            *v = match (i == j, diag) {
                (true, Diag::Unit) => f64::NAN,
                (true, Diag::NonUnit) => 1.5 + *v,
                (false, _) if strict => *v / m as f64,
                (false, _) => f64::NAN,
            };
        }
    }
    let a: Vec<R> = a.iter().map(|&x| R::from_f64(x)).collect();
    let b0: Vec<R> = rand_padded(m, n, ldb, seed ^ 9)
        .iter()
        .map(|&x| R::from_f64(x))
        .collect();
    let mut got = b0.clone();
    let mut want = b0;
    trsm(Side::Left, uplo, diag, m, n, R::ONE, &a, lda, &mut got, ldb);
    left_dot_form(uplo, diag, m, n, &a, lda, &mut want, ldb);
    for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
        // NaN padding compares by bits like everything else.
        prop_assert_eq!(
            g.to_f64().to_bits(),
            w.to_f64().to_bits(),
            "element {} of {:?}/{:?} m={} n={} ldb={}",
            idx,
            uplo,
            diag,
            m,
            n,
            ldb
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMV is GEMM with a single column.
    #[test]
    fn gemv_equals_one_column_gemm(m in 1usize..40, n in 1usize..40, seed: u64) {
        let a = rand_mat(m, n, seed);
        let x = rand_mat(n, 1, seed ^ 1);
        let mut y1 = vec![0.5f64; m];
        let mut y2 = y1.clone();
        gemv(Trans::No, m, n, 1.5, a.as_slice(), m, x.as_slice(), 0.5, &mut y1);
        gemm(Trans::No, Trans::No, m, 1, n, 1.5, a.as_slice(), m, x.as_slice(), n, 0.5, &mut y2, m);
        for i in 0..m {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    /// The generator's streamed residual product (`MatrixGen::gemv_cols`,
    /// which iterative refinement's residual runs) is bitwise the GEMV
    /// over a filled block column it replaced: columns with `x_j == 0`
    /// (either sign) are skipped, so a `-0.0` in `y` survives an all-zero
    /// block exactly as GEMV keeps it, and two block columns accumulate in
    /// call order. `n` up to 1400 spans several 512-row segments.
    #[test]
    fn streamed_residual_bitwise_equals_fill_and_gemv(
        seed: u64,
        n in 1usize..1400,
        b_rand in 1usize..40,
        s0: u64,
        s1: u64,
        zeros: u64,
        zero_first: bool,
        uniform: bool,
    ) {
        use mxp_lcg::{MatrixGen, MatrixKind};
        let kind = if uniform { MatrixKind::Uniform } else { MatrixKind::DiagDominant };
        let g = MatrixGen::new(seed, n, kind);
        let b = b_rand.min(n);
        let blocks = [s0 as usize % (n - b + 1), s1 as usize % (n - b + 1)];
        // x: random, with +0.0 / -0.0 where the mask says so; the first
        // block all ±0 when `zero_first`.
        let xr = rand_mat(2 * b, 1, seed ^ 3);
        let x: Vec<f64> = (0..2 * b)
            .map(|j| match (zeros >> (j % 64)) & 3 {
                0 => 0.0,
                1 => -0.0,
                m if zero_first && j < b => if m == 2 { 0.0 } else { -0.0 },
                _ => xr[(j, 0)],
            })
            .collect();
        // y: random, with -0.0 and +0.0 sprinkled in.
        let yr = rand_mat(n, 1, seed ^ 4);
        let y0: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => yr[(i, 0)],
            })
            .collect();
        let mut want = y0.clone();
        let mut got = y0;
        let mut col = vec![0.0f64; n * b];
        for (t, &c0) in blocks.iter().enumerate() {
            let xt = &x[t * b..(t + 1) * b];
            g.fill_tile(0..n, c0..c0 + b, n, &mut col);
            gemv(Trans::No, n, b, 1.0, &col, n, xt, 1.0, &mut want);
            g.gemv_cols(c0..c0 + b, xt, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&got) == bits(&want), "block {t}: streamed residual diverged from fill + gemv");
        }
    }

    /// GEMM is linear in alpha.
    #[test]
    fn gemm_alpha_linearity(m in 1usize..24, n in 1usize..24, k in 1usize..24, seed: u64) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed ^ 2);
        let mut c1 = Mat::<f64>::zeros(m, n);
        let mut c2 = Mat::<f64>::zeros(m, n);
        gemm(Trans::No, Trans::No, m, n, k, 2.0, a.as_slice(), m, b.as_slice(), k, 0.0, c1.as_mut_slice(), m);
        gemm(Trans::No, Trans::No, m, n, k, 1.0, a.as_slice(), m, b.as_slice(), k, 0.0, c2.as_mut_slice(), m);
        for j in 0..n {
            for i in 0..m {
                prop_assert!((c1[(i, j)] - 2.0 * c2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// A·I == A for all sizes.
    #[test]
    fn gemm_identity(m in 1usize..32, n in 1usize..32, seed: u64) {
        let a = rand_mat(m, n, seed);
        let id = Mat::<f64>::identity(n);
        let mut c = Mat::<f64>::zeros(m, n);
        gemm(Trans::No, Trans::No, m, n, n, 1.0, a.as_slice(), m, id.as_slice(), n, 0.0, c.as_mut_slice(), m);
        prop_assert!(c.max_abs_diff(&a) == 0.0);
    }

    /// TRSM solves what it claims: op(A)·X == B for left-lower-unit (the
    /// paper's TRSM_L_LOW shape) at random sizes.
    #[test]
    fn trsm_left_lower_roundtrip(m in 1usize..90, n in 1usize..30, seed: u64) {
        let r = rand_mat(m, m, seed);
        let a = Mat::from_fn(m, m, |i, j| {
            if i > j { r[(i, j)] / m as f64 } else if i == j { f64::NAN } else { 0.0 }
        });
        // NaN on the diagonal proves Diag::Unit never reads it.
        let b = rand_mat(m, n, seed ^ 3);
        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, Diag::Unit, m, n, 1.0, a.as_slice(), m, x.as_mut_slice(), m);
        // Multiply back with explicit unit diagonal.
        let mut back = x.clone();
        for j in 0..n {
            for i in (0..m).rev() {
                let mut acc = x[(i, j)];
                for l in 0..i {
                    acc += a[(i, l)] * x[(l, j)];
                }
                back[(i, j)] = acc;
            }
        }
        prop_assert!(back.max_abs_diff(&b) < 1e-9);
    }

    /// GETRF(no-pivot) factors every diagonally dominant matrix and the
    /// factors reproduce A.
    /// The `Side::Left` base case (transposed-tile kernel) is bitwise
    /// the scalar dot-form substitution, in both precisions, both
    /// triangles, both diagonals, ragged tile widths and padded strides.
    #[test]
    fn trsm_left_base_case_bitwise_equals_dot_form(
        m in 1usize..65,
        n in 1usize..200,
        upper: bool, unit: bool, wide: bool,
        pa in 0usize..5,
        pb in prop::sample::select(vec![0usize, 1, 3072]),
        seed: u64,
    ) {
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };
        let (lda, ldb) = (m + pa, m + pb);
        if wide {
            left_base_case_bitwise::<f64>(uplo, diag, m, n, lda, ldb, seed)?;
        } else {
            left_base_case_bitwise::<f32>(uplo, diag, m, n, lda, ldb, seed)?;
        }
    }

    #[test]
    fn getrf_reconstructs(n in 2usize..70, seed: u64) {
        let a = dominant_mat(n, seed);
        let mut lu = a.clone();
        prop_assert!(getrf_nopiv(n, lu.as_mut_slice(), n).is_ok());
        let l = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else if i > j { lu[(i, j)] } else { 0.0 });
        let u = Mat::from_fn(n, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 });
        let mut back = Mat::<f64>::zeros(n, n);
        gemm(Trans::No, Trans::No, n, n, n, 1.0, l.as_slice(), n, u.as_slice(), n, 0.0, back.as_mut_slice(), n);
        prop_assert!(back.max_abs_diff(&a) < 1e-10 * n as f64);
    }

    /// LU + two TRSV solves the system to working precision.
    #[test]
    fn lu_solve_accuracy(n in 2usize..60, seed: u64) {
        let a = dominant_mat(n, seed);
        let x_true = rand_mat(n, 1, seed ^ 9);
        let mut b = vec![0.0; n];
        gemv(Trans::No, n, n, 1.0, a.as_slice(), n, x_true.as_slice(), 0.0, &mut b);
        let mut lu = a.clone();
        getrf_nopiv(n, lu.as_mut_slice(), n).unwrap();
        trsv(Uplo::Lower, Diag::Unit, n, lu.as_slice(), n, &mut b);
        trsv(Uplo::Upper, Diag::NonUnit, n, lu.as_slice(), n, &mut b);
        for i in 0..n {
            prop_assert!((b[i] - x_true[(i, 0)]).abs() < 1e-9);
        }
    }

    /// The packed register-blocked engine agrees with a naive triple loop
    /// across every edge it special-cases: dims straddling the MR/NR tile
    /// boundaries (single row/column included), `lda > m` padding, both
    /// `Trans` values per operand, and the α = 0 / β ∈ {0, 1, other}
    /// prologue branches.
    #[test]
    fn gemm_matches_naive_at_engine_edges(
        m in prop::sample::select(vec![1usize, 2, 15, 16, 17, 31, 33, 48]),
        n in prop::sample::select(vec![1usize, 3, 4, 5, 21, 37]),
        k in prop::sample::select(vec![1usize, 7, 16, 29]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..4, pb in 0usize..4, pc in 0usize..4,
        alpha in prop::sample::select(vec![0.0f64, 1.0, -0.5]),
        beta in prop::sample::select(vec![0.0f64, 1.0, 0.25]),
        seed: u64,
    ) {
        let ta = if ta_yes { Trans::Yes } else { Trans::No };
        let tb = if tb_yes { Trans::Yes } else { Trans::No };
        let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let (lda, ldb, ldc) = (ar + pa, br + pb, m + pc);
        let a = rand_padded(ar, ac, lda, seed);
        let b = rand_padded(br, bc, ldb, seed ^ 7);
        let c0 = rand_padded(m, n, ldc, seed ^ 8);
        let mut c = c0.clone();
        let mut cref = c0.clone();
        gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
        naive_gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cref, ldc);
        for j in 0..n {
            for i in 0..m {
                let (got, want) = (c[j * ldc + i], cref[j * ldc + i]);
                prop_assert!(
                    (got - want).abs() <= 1e-12 * (k as f64 + 1.0),
                    "({i},{j}) got {got} want {want} [ta={ta_yes} tb={tb_yes} α={alpha} β={beta}]"
                );
            }
        }
        // NaN padding rows of C must never be touched.
        for j in 0..n {
            for i in m..ldc {
                prop_assert!(c[j * ldc + i].is_nan());
            }
        }
    }

    /// gemm_mixed's widen-during-pack contract: on f16 operands it is
    /// bit-identical to full-precision f32 GEMM on the pre-widened data,
    /// for every transpose combination, padded lda, and ragged tile edge —
    /// the engine rewrite must never reorder the mixed-precision math.
    #[test]
    fn mixed_f16_bitwise_equals_widened_gemm(
        m in prop::sample::select(vec![1usize, 5, 16, 17, 40]),
        n in prop::sample::select(vec![1usize, 4, 9, 23]),
        k in prop::sample::select(vec![1usize, 8, 27]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..3, pb in 0usize..3,
        seed: u64,
    ) {
        let ta = if ta_yes { Trans::Yes } else { Trans::No };
        let tb = if tb_yes { Trans::Yes } else { Trans::No };
        let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let (lda, ldb) = (ar + pa, br + pb);
        let a16: Vec<F16> = rand_padded(ar, ac, lda, seed)
            .iter().map(|&v| if v.is_nan() { F16::ZERO } else { F16::from_f64(v) }).collect();
        let b16: Vec<F16> = rand_padded(br, bc, ldb, seed ^ 11)
            .iter().map(|&v| if v.is_nan() { F16::ZERO } else { F16::from_f64(v) }).collect();
        let a32: Vec<f32> = a16.iter().map(|x| x.to_f32()).collect();
        let b32: Vec<f32> = b16.iter().map(|x| x.to_f32()).collect();
        let mut c_mixed = vec![0.25f32; m * n];
        let mut c_full = c_mixed.clone();
        gemm_mixed(ta, tb, m, n, k, -1.0, &a16, lda, &b16, ldb, 1.0, &mut c_mixed, m);
        gemm(ta, tb, m, n, k, -1.0f32, &a32, lda, &b32, ldb, 1.0, &mut c_full, m);
        for i in 0..m * n {
            prop_assert_eq!(c_mixed[i].to_bits(), c_full[i].to_bits(), "element {}", i);
        }
    }

    /// Mixed GEMM with fp32 "low" inputs equals full fp32 GEMM exactly
    /// (the identity-format control).
    #[test]
    fn mixed_fp32_is_exact_control(m in 1usize..24, n in 1usize..24, k in 1usize..24, seed: u64) {
        let a64 = rand_mat(m, k, seed);
        let b64 = rand_mat(k, n, seed ^ 4);
        let a: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        let b: Vec<f32> = b64.as_slice().iter().map(|&v| v as f32).collect();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm_mixed::<f32>(Trans::No, Trans::No, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c1, m);
        gemm(Trans::No, Trans::No, m, n, k, 1.0f32, &a, m, &b, k, 0.0, &mut c2, m);
        prop_assert_eq!(c1, c2);
    }

    /// f16 GEMM error stays inside the forward bound k·u·max|a|·max|b|·growth.
    #[test]
    fn mixed_f16_error_bound(m in 1usize..16, n in 1usize..16, k in 1usize..48, seed: u64) {
        let a64 = rand_mat(m, k, seed);
        let b64 = rand_mat(k, n, seed ^ 5);
        let a16: Vec<F16> = a64.as_slice().iter().map(|&v| F16::from_f64(v)).collect();
        let b16: Vec<F16> = b64.as_slice().iter().map(|&v| F16::from_f64(v)).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_mixed(Trans::No, Trans::No, m, n, k, 1.0, &a16, m, &b16, k, 0.0, &mut c, m);
        for j in 0..n {
            for i in 0..m {
                let mut exact = 0.0f64;
                for l in 0..k {
                    exact += a64[(i, l)] * b64[(l, j)];
                }
                let bound = (k as f64 + 2.0) * mxp_precision::F16_EPS * 0.25 * 2.0 + 1e-6;
                prop_assert!((c[j * m + i] as f64 - exact).abs() <= bound);
            }
        }
    }
}
