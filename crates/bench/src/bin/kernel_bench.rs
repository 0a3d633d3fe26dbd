//! `kernel_bench` — wall-clock GFLOP/s trajectory of the BLAS engine.
//!
//! Unlike the paper-exhibit bins (which report *simulated* time), this
//! harness measures the **host kernels themselves**: `gemm` (f32/f64),
//! `gemm_mixed` (fp16/bf16), `trsm`, `getrf`, the pack/cast kernels, the
//! LCG matrix generation (`gen`, Gelem/s) and one iterative-refinement
//! sweep (`ir`), across sizes and thread counts, plus one end-to-end
//! functional `hplai` solve. Results go to `BENCH_kernels.json` at the
//! repository root — the perf trajectory every optimization PR is measured
//! against.
//!
//! ```text
//! kernel_bench [--quick] [--threads 1,2,4] [--floor <gflops>]
//!              [--trsm-floor <gflops>] [--gen-floor <gelems>] [--no-e2e]
//! ```
//!
//! `--threads` counts above the host's available parallelism are capped
//! to it. `--floor G` exits non-zero if single-thread f32 GEMM at 512³
//! achieves less than `G` GFLOP/s — the CI guard against accidentally
//! falling off the packed-kernel path. `--trsm-floor G` does the same for
//! the single-thread tight-`ldb` panel-solve rows (`trsm_l_low_f32`,
//! `trsm_r_up_f32`; guards the vectorised TRSM base cases), and
//! `--gen-floor G` for single-thread `gen_fill_f64` in Gelem/s (guards
//! the jump-ahead fill path).

use mxp_blas::{
    cast_f32_to_low, gemm, gemm_mixed, getrf_nopiv, kernel_info_f32, kernel_info_f64,
    trans_cast_f32_to_low, trsm, Diag, Side, Trans, Uplo,
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

/// The whole trajectory datum.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Schema tag for downstream tooling (v2 added per-entry `dispatch`
    /// and report-level SIMD/tuning provenance).
    schema: String,
    /// True when run with `--quick` (CI smoke sizes).
    quick: bool,
    /// Thread counts swept.
    threads: Vec<usize>,
    /// SIMD ISA level the GEMM engine dispatched to on this host.
    simd_isa: String,
    /// Resolved f32 micro-kernel variant name.
    kernel_f32: String,
    /// Resolved f64 micro-kernel variant name.
    kernel_f64: String,
    /// Where the blocking parameters came from: `"swept"`, `"file"`, or
    /// `"default"`.
    tune_source: String,
    /// The tuning file consulted or written (empty when persistence is
    /// disabled via `HPLAI_TUNE_FILE=none`).
    tune_file: String,
    /// Kernel measurements.
    entries: Vec<Entry>,
    /// End-to-end functional `hplai` solve wall-clock seconds (0 when
    /// skipped with `--no-e2e`).
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

#[allow(clippy::too_many_arguments)]
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
        let shape = format!("{m}x{n}x{k}");

        // f32
        let mut c = vec![0.0f32; m * n];
        let secs = best_of(reps, || {
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0f32,
                black_box(&a32),
                m,
                black_box(&b32),
                k,
                0.0,
                &mut c,
                m,
            )
        });
        entries.push(Entry {
            kernel: "gemm_f32".into(),
            shape: shape.clone(),
            threads,
            secs,
            gflops: flops / secs / 1e9,
            dispatch: kernel_info_f32().kernel.into(),
        });

        // f64
        let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let mut c64 = vec![0.0f64; m * n];
        let secs = best_of(reps, || {
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0f64,
                black_box(&a64),
                m,
                black_box(&b64),
                k,
                0.0,
                &mut c64,
                m,
            )
        });
        entries.push(Entry {
            kernel: "gemm_f64".into(),
            shape: shape.clone(),
            threads,
            secs,
            gflops: flops / secs / 1e9,
            dispatch: kernel_info_f64().kernel.into(),
        });

        // mixed fp16 / bf16
        let a16: Vec<F16> = a32.iter().map(|&v| F16::from_f32(v)).collect();
        let b16: Vec<F16> = b32.iter().map(|&v| F16::from_f32(v)).collect();
        let secs = best_of(reps, || {
            gemm_mixed(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0,
                black_box(&a16),
                m,
                black_box(&b16),
                k,
                0.0,
                &mut c,
                m,
            )
        });
        entries.push(Entry {
            kernel: "gemm_mixed_fp16".into(),
            shape: shape.clone(),
            threads,
            secs,
            gflops: flops / secs / 1e9,
            dispatch: kernel_info_f32().kernel.into(),
        });

        let ab: Vec<B16> = a32.iter().map(|&v| B16::from_f32(v)).collect();
        let bb: Vec<B16> = b32.iter().map(|&v| B16::from_f32(v)).collect();
        let secs = best_of(reps, || {
            gemm_mixed(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0,
                black_box(&ab),
                m,
                black_box(&bb),
                k,
                0.0,
                &mut c,
                m,
            )
        });
        entries.push(Entry {
            kernel: "gemm_mixed_bf16".into(),
            shape,
            threads,
            secs,
            gflops: flops / secs / 1e9,
            dispatch: kernel_info_f32().kernel.into(),
        });
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
    entries.push(Entry {
        kernel: kernel.into(),
        shape,
        threads,
        secs,
        gflops: flops / secs / 1e9,
        dispatch: kernel_info_f32().kernel.into(),
    });
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
    entries.push(Entry {
        kernel: "getrf_nopiv_f32".into(),
        shape: format!("{n}x{n}"),
        threads,
        secs,
        gflops: flops / secs / 1e9,
        dispatch: kernel_info_f32().kernel.into(),
    });
}

fn bench_casts(entries: &mut Vec<Entry>, threads: usize, m: usize, n: usize, reps: usize) {
    let src = rand_f32(m * n, 6);
    let elems = (m * n) as f64;
    let mut dst = vec![F16::ZERO; m * n];
    let secs = best_of(reps, || cast_f32_to_low(m, n, black_box(&src), m, &mut dst));
    entries.push(Entry {
        kernel: "cast_f32_to_fp16".into(),
        shape: format!("{m}x{n}"),
        threads,
        secs,
        gflops: elems / secs / 1e9, // Gelem/s
        dispatch: format!("convert:{}", mxp_blas::kernel::active_isa().name()),
    });
    let secs = best_of(reps, || {
        trans_cast_f32_to_low(m, n, black_box(&src), m, &mut dst)
    });
    entries.push(Entry {
        kernel: "trans_cast_f32_to_fp16".into(),
        shape: format!("{m}x{n}"),
        threads,
        secs,
        gflops: elems / secs / 1e9,
        dispatch: format!("convert:{}", mxp_blas::kernel::active_isa().name()),
    });
}

/// LCG matrix generation: `fill_tile`/`fill_tile_f32` entry rates in
/// Gelem/s (the `gen` kernel IR re-runs every sweep to rebuild `A`).
fn bench_gen(entries: &mut Vec<Entry>, threads: usize, n: usize, cols: usize, reps: usize) {
    use mxp_lcg::{MatrixGen, MatrixKind};
    let g = MatrixGen::new(42, n, MatrixKind::DiagDominant);
    let elems = (n * cols) as f64;

    let mut tile = vec![0.0f64; n * cols];
    let secs = best_of(reps, || g.fill_tile(0..n, 0..cols, n, black_box(&mut tile)));
    entries.push(Entry {
        kernel: "gen_fill_f64".into(),
        shape: format!("{n}x{cols}"),
        threads,
        secs,
        gflops: elems / secs / 1e9, // Gelem/s
        dispatch: "-".into(),
    });

    let mut tile32 = vec![0.0f32; n * cols];
    let secs = best_of(reps, || {
        g.fill_tile_f32(0..n, 0..cols, n, black_box(&mut tile32))
    });
    entries.push(Entry {
        kernel: "gen_fill_f32".into(),
        shape: format!("{n}x{cols}"),
        threads,
        secs,
        gflops: elems / secs / 1e9,
        dispatch: "-".into(),
    });
}

/// One iterative-refinement sweep on a single functional rank: factor once
/// (untimed), then report `refine` wall-clock divided by sweep count — the
/// regenerate + GEMV residual + fan-in solve path this PR de-serializes.
fn bench_ir(entries: &mut Vec<Entry>, threads: usize, n: usize, b: usize, reps: usize) {
    use hplai_core::factor::{factor, FactorConfig, Fidelity};
    use hplai_core::grid::ProcessGrid;
    use hplai_core::ir::refine;
    use hplai_core::msg::TrailingPrecision;
    use hplai_core::systems::testbed;
    use hplai_core::{run_with_backend, RunConfig};

    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let grid = ProcessGrid::col_major(1, 1, 1);
        let sys = testbed(1, 1);
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b)
            .seed(7)
            .build_or_panic();
        let cfg = FactorConfig {
            n,
            b,
            algo: mxp_msgsim::BcastAlgo::Lib,
            lookahead: true,
            fidelity: Fidelity::Functional,
            seed: 7,
            prec: TrailingPrecision::Fp16,
        };
        let per_sweep: Vec<f64> = run_with_backend(&rcfg, |ctx| {
            let out = factor(ctx, &sys, &cfg, 1.0);
            let t0 = Instant::now();
            let o = refine(ctx, &sys, &cfg, out.local.as_ref().unwrap(), 1.0);
            let secs = t0.elapsed().as_secs_f64();
            assert!(o.converged, "ir bench solve failed to converge");
            secs / o.iters.max(1) as f64
        })
        .expect("single rank fits any backend");
        best = best.min(per_sweep[0]);
    }
    // A sweep regenerates n² entries and does a 2n² flop residual GEMV;
    // report the flop view so the entry reads like the other kernels.
    entries.push(Entry {
        kernel: "ir_sweep_f64".into(),
        shape: format!("{n}x{n}"),
        threads,
        secs: best,
        gflops: 2.0 * (n as f64) * (n as f64) / best / 1e9,
        dispatch: "-".into(),
    });
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

fn repo_root() -> std::path::PathBuf {
    mxp_bench::results_dir()
        .parent()
        .expect("results dir has a parent")
        .to_path_buf()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_e2e = args.iter().any(|a| a == "--no-e2e");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .map(|i| args[i + 1].parse().expect("--floor takes a number"));
    let gen_floor: Option<f64> = args
        .iter()
        .position(|a| a == "--gen-floor")
        .map(|i| args[i + 1].parse().expect("--gen-floor takes a number"));
    let trsm_floor: Option<f64> = args
        .iter()
        .position(|a| a == "--trsm-floor")
        .map(|i| args[i + 1].parse().expect("--trsm-floor takes a number"));
    let requested: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args[i + 1]
                .split(',')
                .map(|t| t.parse().expect("--threads takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
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
        bench_ir(&mut entries, t, if quick { 384 } else { 512 }, 64, reps);
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    let (hplai_n, hplai_b) = if quick { (512, 64) } else { (1024, 64) };
    let hplai_secs = if no_e2e {
        0.0
    } else {
        bench_hplai(hplai_n, hplai_b)
    };

    let info32 = kernel_info_f32();
    let info64 = kernel_info_f64();
    let report = Report {
        schema: "kernel-bench-v2".into(),
        quick,
        threads: threads.clone(),
        simd_isa: info32.isa.name().into(),
        kernel_f32: info32.kernel.into(),
        kernel_f64: info64.kernel.into(),
        tune_source: info32.source.name().into(),
        tune_file: info32
            .tune_file
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_default(),
        entries,
        hplai_functional_secs: hplai_secs,
        hplai_n: if no_e2e { 0 } else { hplai_n },
    };

    let mut table = mxp_bench::Table::new(
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
    println!("{}", table.render());
    if !no_e2e {
        println!("hplai functional solve (n={hplai_n}, b={hplai_b}, 2x2 grid): {hplai_secs:.3} s");
    }

    let path = repo_root().join("BENCH_kernels.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_kernels.json");
    eprintln!("wrote {}", path.display());

    if let Some(floor) = floor {
        let e = report
            .entries
            .iter()
            .find(|e| e.kernel == "gemm_f32" && e.shape == "512x512x512" && e.threads == 1)
            .expect("512³ single-thread f32 entry");
        if e.gflops < floor {
            eprintln!(
                "FAIL: single-thread f32 GEMM 512³ at {:.2} GFLOP/s is below the floor {floor}",
                e.gflops
            );
            std::process::exit(1);
        }
        eprintln!(
            "floor check ok: single-thread f32 GEMM 512³ at {:.2} GFLOP/s >= {floor}",
            e.gflops
        );
    }

    if let Some(trsm_floor) = trsm_floor {
        // Every single-thread panel-solve row at a tight ldb must clear the
        // floor: a fall back to a latency-bound per-column substitution
        // chain lands well under it. The padded-ldb row is reported but
        // not gated — its rate is set by the cold stride-ldb gather, which
        // swings with the runner's memory system more than the kernel.
        let rows: Vec<&Entry> = report
            .entries
            .iter()
            .filter(|e| e.kernel.starts_with("trsm_") && e.threads == 1)
            .filter(|e| !e.shape.contains("ldb="))
            .collect();
        assert!(!rows.is_empty(), "no single-thread trsm entries");
        for e in rows {
            if e.gflops < trsm_floor {
                eprintln!(
                    "FAIL: single-thread {} {} at {:.2} GFLOP/s is below the floor {trsm_floor}",
                    e.kernel, e.shape, e.gflops
                );
                std::process::exit(1);
            }
            eprintln!(
                "trsm floor check ok: single-thread {} {} at {:.2} GFLOP/s >= {trsm_floor}",
                e.kernel, e.shape, e.gflops
            );
        }
    }

    if let Some(gen_floor) = gen_floor {
        let e = report
            .entries
            .iter()
            .find(|e| e.kernel == "gen_fill_f64" && e.threads == 1)
            .expect("single-thread gen_fill_f64 entry");
        if e.gflops < gen_floor {
            eprintln!(
                "FAIL: single-thread gen_fill_f64 at {:.4} Gelem/s is below the floor {gen_floor}",
                e.gflops
            );
            std::process::exit(1);
        }
        eprintln!(
            "gen floor check ok: single-thread gen_fill_f64 at {:.4} Gelem/s >= {gen_floor}",
            e.gflops
        );
    }
}
