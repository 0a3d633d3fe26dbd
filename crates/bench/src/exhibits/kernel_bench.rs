//! `kernel_bench` — wall-clock GFLOP/s trajectory of the BLAS engine.
//!
//! Unlike the simulated exhibits (which report *simulated* time), this
//! harness measures the **host kernels themselves**: `gemm` (f32/f64),
//! `gemm_mixed` (fp16/bf16), `trsm`, `getrf`, the pack/cast kernels, the
//! LCG matrix generation (`gen`, Gelem/s, including IR's streamed
//! residual product `gen_residual_f64`) and one iterative-refinement
//! sweep (`ir`), across sizes and thread counts, plus one end-to-end
//! functional `hplai` solve. The report goes to `BENCH_kernels.json` —
//! the perf trajectory every optimization is measured against.
//!
//! ```text
//! repro kernel_bench [--quick] [--threads 1,2,4] [--floor <gflops>]
//!                    [--trsm-floor <gflops>] [--gen-floor <gelems>]
//! ```
//!
//! `--threads` counts above the host's available parallelism are capped
//! to it. `--floor G` exits non-zero if single-thread f32 GEMM at 512³
//! achieves less than `G` GFLOP/s — the CI guard against accidentally
//! falling off the packed-kernel path. `--trsm-floor G` does the same for
//! the single-thread tight-`ldb` panel-solve rows (`trsm_l_low_f32`,
//! `trsm_r_up_f32`; guards the vectorised TRSM base cases), and
//! `--gen-floor G` for single-thread `gen_fill_f64` in Gelem/s (guards
//! the vectorized lane fill).

use crate::{Args, Output, Table};
use mxp_blas::{
    cast_f32_to_low, gemm, gemm_mixed, getrf_nopiv, kernel_info_f32, kernel_info_f64,
    trans_cast_f32_to_low, trsm, Diag, LowPrec, Real, Side, Trans, Uplo,
};
use mxp_precision::{B16, F16};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One measured data point.
#[derive(Clone, Debug, Serialize)]
struct Entry {
    /// Kernel name (`gemm_f32`, `gemm_mixed_fp16`, `trsm`, …).
    kernel: String,
    /// Shape as `m x n x k` (or `m x n` for 2D kernels).
    shape: String,
    /// Worker threads the kernel was allowed to use.
    threads: usize,
    /// Best-of-reps wall-clock seconds.
    secs: f64,
    /// Achieved GFLOP/s (or Gelem/s for cast kernels).
    gflops: f64,
    /// Micro-kernel the measurement dispatched to (`avx512_f32_32x8`, …);
    /// `"-"` for kernels outside the GEMM dispatch layer (LCG gen).
    dispatch: String,
}

impl Entry {
    /// An entry that did `work` flops (or elements) in `secs`.
    fn new(
        kernel: &str,
        shape: impl Into<String>,
        threads: usize,
        secs: f64,
        work: f64,
        dispatch: impl Into<String>,
    ) -> Self {
        Entry {
            kernel: kernel.into(),
            shape: shape.into(),
            threads,
            secs,
            gflops: work / secs / 1e9,
            dispatch: dispatch.into(),
        }
    }
}

/// The whole trajectory datum.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Thread counts swept.
    threads: Vec<usize>,
    /// SIMD ISA level the GEMM engine dispatched to on this host.
    simd_isa: String,
    /// Resolved f32 micro-kernel variant name.
    kernel_f32: String,
    /// Resolved f64 micro-kernel variant name.
    kernel_f64: String,
    /// Kernel measurements.
    entries: Vec<Entry>,
    /// End-to-end functional `hplai` solve wall-clock seconds.
    hplai_functional_secs: f64,
    /// Problem size of the end-to-end solve.
    hplai_n: usize,
}

fn rand_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) as f32 - 0.5
        })
        .collect()
}

/// Best-of-`reps` wall-clock timing of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn set_threads(t: usize) {
    std::env::set_var("RAYON_NUM_THREADS", t.to_string());
}

/// Best-of-`reps` seconds of `C = A·B` (`A` is `m × k`, `B` is `k × n`)
/// in precision `R`.
fn time_gemm<R: Real>(reps: usize, (m, n, k): (usize, usize, usize), a: &[R], b: &[R]) -> f64 {
    let mut c = vec![R::ZERO; m * n];
    best_of(reps, || {
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            R::ONE,
            black_box(a),
            m,
            black_box(b),
            k,
            R::ZERO,
            &mut c,
            m,
        )
    })
}

/// [`time_gemm`] with the operands rounded to `L` and an f32 accumulator.
fn time_gemm_mixed<L: LowPrec>(
    reps: usize,
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
) -> f64 {
    let a: Vec<L> = a.iter().map(|&v| L::from_f32(v)).collect();
    let b: Vec<L> = b.iter().map(|&v| L::from_f32(v)).collect();
    let mut c = vec![0.0f32; m * n];
    best_of(reps, || {
        gemm_mixed(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            black_box(&a),
            m,
            black_box(&b),
            k,
            0.0,
            &mut c,
            m,
        )
    })
}

fn bench_gemm_shapes(
    entries: &mut Vec<Entry>,
    threads: usize,
    sizes: &[(usize, usize, usize)],
    reps: usize,
) {
    for &(m, n, k) in sizes {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let a32 = rand_f32(m * k, 1);
        let b32 = rand_f32(k * n, 2);
        let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let shape = format!("{m}x{n}x{k}");
        let mnk = (m, n, k);
        for (kernel, secs, info) in [
            (
                "gemm_f32",
                time_gemm(reps, mnk, &a32, &b32),
                kernel_info_f32(),
            ),
            (
                "gemm_f64",
                time_gemm(reps, mnk, &a64, &b64),
                kernel_info_f64(),
            ),
            (
                "gemm_mixed_fp16",
                time_gemm_mixed::<F16>(reps, mnk, &a32, &b32),
                kernel_info_f32(),
            ),
            (
                "gemm_mixed_bf16",
                time_gemm_mixed::<B16>(reps, mnk, &a32, &b32),
                kernel_info_f32(),
            ),
        ] {
            entries.push(Entry::new(
                kernel,
                &shape,
                threads,
                secs,
                flops,
                info.kernel,
            ));
        }
    }
}

/// One panel-solve shape: `k × k` triangle, `m × n` right-hand side at
/// leading dimension `ldb` (`k = m` on the left, `k = n` on the right).
struct TrsmCase {
    kernel: &'static str,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    ldb: usize,
}

fn bench_trsm(entries: &mut Vec<Entry>, threads: usize, case: &TrsmCase, reps: usize) {
    let &TrsmCase {
        kernel,
        side,
        uplo,
        diag,
        m,
        n,
        ldb,
    } = case;
    let k = if side == Side::Left { m } else { n };
    // Dominant diagonal, so the NonUnit solve stays well conditioned.
    let mut tri = rand_f32(k * k, 3);
    for i in 0..k {
        tri[i * k + i] = if diag == Diag::Unit { 1.0 } else { 2.0 };
    }
    let rhs = rand_f32(ldb * n, 4);
    let flops = k as f64 * k as f64 * if side == Side::Left { n } else { m } as f64;
    // The solve runs in place, so B is reset before every rep — outside
    // the timed region: at a padded ldb the reset copies the whole
    // ldb × n buffer, far more than the m × n the solve touches.
    let mut b = rhs.clone();
    let mut secs = f64::INFINITY;
    for _ in 0..reps {
        b.copy_from_slice(&rhs);
        let t0 = Instant::now();
        trsm(
            side,
            uplo,
            diag,
            m,
            n,
            1.0f32,
            black_box(&tri),
            k,
            &mut b,
            ldb,
        );
        secs = secs.min(t0.elapsed().as_secs_f64());
    }
    let shape = if ldb == m {
        format!("{m}x{n}")
    } else {
        format!("{m}x{n} ldb={ldb}")
    };
    entries.push(Entry::new(
        kernel,
        shape,
        threads,
        secs,
        flops,
        kernel_info_f32().kernel,
    ));
}

fn bench_getrf(entries: &mut Vec<Entry>, threads: usize, n: usize, reps: usize) {
    let mut a = rand_f32(n * n, 5);
    for i in 0..n {
        a[i * n + i] = n as f32; // diagonally dominant, as in HPL-AI
    }
    let flops = 2.0 / 3.0 * (n as f64).powi(3);
    let mut lu = a.clone();
    let secs = best_of(reps, || {
        lu.copy_from_slice(&a);
        getrf_nopiv(n, black_box(&mut lu), n).expect("factorization");
    });
    entries.push(Entry::new(
        "getrf_nopiv_f32",
        format!("{n}x{n}"),
        threads,
        secs,
        flops,
        kernel_info_f32().kernel,
    ));
}

fn bench_casts(entries: &mut Vec<Entry>, threads: usize, m: usize, n: usize, reps: usize) {
    let src = rand_f32(m * n, 6);
    let (shape, elems) = (format!("{m}x{n}"), (m * n) as f64); // Gelem/s
    let isa = format!("convert:{}", mxp_blas::kernel::active_isa().name());
    let mut dst = vec![F16::ZERO; m * n];
    let secs = best_of(reps, || cast_f32_to_low(m, n, black_box(&src), m, &mut dst));
    entries.push(Entry::new(
        "cast_f32_to_fp16",
        &shape,
        threads,
        secs,
        elems,
        &isa,
    ));
    let secs = best_of(reps, || {
        trans_cast_f32_to_low(m, n, black_box(&src), m, &mut dst)
    });
    entries.push(Entry::new(
        "trans_cast_f32_to_fp16",
        shape,
        threads,
        secs,
        elems,
        isa,
    ));
}

/// LCG matrix generation: `fill_tile`/`fill_tile_f32` entry rates in
/// Gelem/s (the lane fills every rank runs at setup to build its tiles).
fn bench_gen(entries: &mut Vec<Entry>, threads: usize, n: usize, cols: usize, reps: usize) {
    use mxp_lcg::{MatrixGen, MatrixKind};
    let g = MatrixGen::new(42, n, MatrixKind::DiagDominant);
    let elems = (n * cols) as f64;

    let mut tile = vec![0.0f64; n * cols];
    let secs = best_of(reps, || g.fill_tile(0..n, 0..cols, n, black_box(&mut tile)));
    entries.push(Entry::new(
        "gen_fill_f64",
        format!("{n}x{cols}"),
        threads,
        secs,
        elems,
        "-",
    )); // Gelem/s

    let mut tile32 = vec![0.0f32; n * cols];
    let secs = best_of(reps, || {
        g.fill_tile_f32(0..n, 0..cols, n, black_box(&mut tile32))
    });
    entries.push(Entry::new(
        "gen_fill_f32",
        format!("{n}x{cols}"),
        threads,
        secs,
        elems,
        "-",
    ));
}

/// IR's residual product at its `n × b` block-column shape:
/// `MatrixGen::gemv_cols` regenerates `A(:, cols)` segment by segment and
/// folds it into `y ← y + A·x` without storing it (Gelem/s of `A`).
fn bench_gen_residual(entries: &mut Vec<Entry>, threads: usize, n: usize, b: usize, reps: usize) {
    use mxp_lcg::{MatrixGen, MatrixKind};
    let g = MatrixGen::new(42, n, MatrixKind::DiagDominant);
    let x: Vec<f64> = (0..b).map(|j| 1.0 + j as f64 / b as f64).collect();
    let mut y = vec![0.0f64; n];
    let secs = best_of(reps, || g.gemv_cols(0..b, &x, black_box(&mut y)));
    entries.push(Entry::new(
        "gen_residual_f64",
        format!("{n}x{b}"),
        threads,
        secs,
        (n * b) as f64,
        "-",
    )); // Gelem/s
}

/// One iterative-refinement sweep on a single functional rank: factor once
/// (untimed), then report `refine` wall-clock divided by sweep count — the
/// regenerate + GEMV residual + fan-in solve path this PR de-serializes.
fn bench_ir(entries: &mut Vec<Entry>, threads: usize, n: usize, b: usize, reps: usize) {
    use hplai_core::factor::factor;
    use hplai_core::grid::ProcessGrid;
    use hplai_core::ir::refine;
    use hplai_core::systems::testbed;
    use hplai_core::{run_with_backend, RunConfig};

    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let grid = ProcessGrid::col_major(1, 1, 1);
        let cfg = RunConfig::functional(testbed(1, 1), grid, n, b)
            .seed(7)
            .build_or_panic();
        let per_sweep: Vec<f64> = run_with_backend(&cfg, |ctx| {
            let out = factor(ctx, &cfg, 1.0);
            let t0 = Instant::now();
            let o = refine(ctx, &cfg, out.local.as_ref().unwrap(), 1.0);
            let secs = t0.elapsed().as_secs_f64();
            assert!(o.converged, "ir bench solve failed to converge");
            secs / o.iters.max(1) as f64
        })
        .expect("single rank fits any backend");
        best = best.min(per_sweep[0]);
    }
    // A sweep regenerates n² entries and does a 2n² flop residual GEMV;
    // report the flop view so the entry reads like the other kernels.
    entries.push(Entry::new(
        "ir_sweep_f64",
        format!("{n}x{n}"),
        threads,
        best,
        2.0 * (n as f64) * (n as f64),
        "-",
    ));
}

/// End-to-end functional solve (real BLAS under the thread-per-rank
/// runtime): the `hplai` hot path this engine serves. Best-of-5, like
/// the best-of pattern every kernel above uses — a single sample on a
/// shared box swings ±30%, larger than any change this detects.
fn bench_hplai(n: usize, b: usize) -> f64 {
    use hplai_core::solve::{run, RunConfig};
    use hplai_core::{grid::ProcessGrid, systems::testbed};
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let cfg = RunConfig::functional(testbed(1, 4), ProcessGrid::col_major(2, 2, 4), n, b)
            .build_or_panic();
        let t0 = Instant::now();
        let out = run(&cfg);
        let secs = t0.elapsed().as_secs_f64();
        assert!(out.converged, "functional solve failed to converge");
        best = best.min(secs);
    }
    best
}

pub fn run(args: &Args) -> Output {
    let quick = args.quick;
    let requested = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4]);
    // More workers than cores only measures oversubscription, so each
    // requested count is capped at the host's parallelism (duplicates
    // that the cap creates are dropped).
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut threads: Vec<usize> = Vec::new();
    for t in requested {
        let t = t.clamp(1, cores);
        if !threads.contains(&t) {
            threads.push(t);
        }
    }
    eprintln!("threads {threads:?} (capped at {cores} available cores)");

    let square: Vec<(usize, usize, usize)> = if quick {
        vec![(256, 256, 256), (512, 512, 512)]
    } else {
        vec![(256, 256, 256), (512, 512, 512), (1024, 1024, 1024)]
    };
    // The tall-skinny trailing-update shape (m ≫ n) that the old engine ran
    // serial: local trailing matrix tall, panel width narrow.
    let tall: (usize, usize, usize) = if quick {
        (2048, 128, 256)
    } else {
        (4096, 128, 4096)
    };
    let reps = if quick { 2 } else { 3 };
    // The paper's two panel solves (Algorithm 1 lines 13/22). TRSM_L_LOW
    // (unit lower, U panel) runs tight at the trajectory's historical shape
    // and at the functional driver's: B = 256 against the 3072 local
    // columns of the N = 6144 2×2 solve, inside the local matrix
    // (ldb = 3072). TRSM_R_UP (non-unit upper, L panel) runs at the
    // driver's 3072 local rows × B = 256.
    let (drv_b, drv_loc) = (256, 3072);
    let trsm_cases = [
        TrsmCase {
            kernel: "trsm_l_low_f32",
            side: Side::Left,
            uplo: Uplo::Lower,
            diag: Diag::Unit,
            m: 512,
            n: if quick { 128 } else { 512 },
            ldb: 512,
        },
        TrsmCase {
            kernel: "trsm_l_low_f32",
            side: Side::Left,
            uplo: Uplo::Lower,
            diag: Diag::Unit,
            m: drv_b,
            n: drv_loc,
            ldb: drv_loc,
        },
        TrsmCase {
            kernel: "trsm_r_up_f32",
            side: Side::Right,
            uplo: Uplo::Upper,
            diag: Diag::NonUnit,
            m: drv_loc,
            n: drv_b,
            ldb: drv_loc,
        },
    ];

    let mut entries = Vec::new();
    for &t in &threads {
        set_threads(t);
        eprintln!("== threads={t}");
        bench_gemm_shapes(&mut entries, t, &square, reps);
        bench_gemm_shapes(&mut entries, t, &[tall], reps);
        for case in &trsm_cases {
            bench_trsm(&mut entries, t, case, reps);
        }
        bench_getrf(&mut entries, t, if quick { 384 } else { 768 }, reps);
        bench_casts(&mut entries, t, 1024, if quick { 256 } else { 1024 }, reps);
        let (gn, gc) = if quick { (1024, 256) } else { (2048, 512) };
        bench_gen(&mut entries, t, gn, gc, reps);
        bench_gen_residual(&mut entries, t, 6144, 256, reps);
        bench_ir(&mut entries, t, if quick { 384 } else { 512 }, 64, reps);
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    let (hplai_n, hplai_b) = if quick { (512, 64) } else { (1024, 64) };
    let hplai_secs = bench_hplai(hplai_n, hplai_b);

    let info32 = kernel_info_f32();
    let info64 = kernel_info_f64();
    let report = Report {
        threads,
        simd_isa: info32.isa.name().into(),
        kernel_f32: info32.kernel.into(),
        kernel_f64: info64.kernel.into(),
        entries,
        hplai_functional_secs: hplai_secs,
        hplai_n,
    };

    let mut table = Table::new(
        "Kernel wall-clock trajectory",
        "BENCH_kernels",
        &["kernel", "shape", "threads", "secs", "GFLOP/s"],
    );
    for e in &report.entries {
        table.row(&[
            &e.kernel,
            &e.shape,
            &e.threads,
            &format!("{:.4}", e.secs),
            &format!("{:.2}", e.gflops),
        ]);
    }
    let mut out = Output::default();
    out.note(table.render());
    out.note(format!(
        "hplai functional solve (n={hplai_n}, b={hplai_b}, 2x2 grid): {hplai_secs:.3} s"
    ));

    // Each floor gates the single-thread rows it picks.
    let mut gate = |floor: Option<f64>, unit: &str, pick: &dyn Fn(&Entry) -> bool| {
        let Some(floor) = floor else { return };
        let rows: Vec<&Entry> = report
            .entries
            .iter()
            .filter(|e| e.threads == 1 && pick(e))
            .collect();
        assert!(!rows.is_empty(), "no single-thread row for a {unit} floor");
        for e in rows {
            let what = format!(
                "single-thread {} {} at {:.3} {unit}",
                e.kernel, e.shape, e.gflops
            );
            out.gates
                .push((e.gflops >= floor, format!("{what}, floor {floor}")));
        }
    };
    gate(args.floor, "GFLOP/s", &|e| {
        e.kernel == "gemm_f32" && e.shape == "512x512x512"
    });
    // Every tight-ldb panel-solve row must clear its floor: a fall back to
    // a latency-bound per-column substitution chain lands well under it.
    // The padded-ldb row is reported but not gated — its rate is set by
    // the cold stride-ldb gather, which swings with the runner's memory
    // system more than the kernel.
    let trsm = |e: &Entry| e.kernel.starts_with("trsm_") && !e.shape.contains("ldb=");
    gate(args.trsm_floor, "GFLOP/s", &trsm);
    gate(args.gen_floor, "Gelem/s", &|e| e.kernel == "gen_fill_f64");
    out.report = Some(Box::new(report));
    out
}
