//! Bitwise determinism of the functional solve across rayon thread counts.
//!
//! Every parallel path introduced for the Amdahl cleanup (LCG tile fills,
//! the GEMV residual, the GEMM/TRSM task grids) is designed so each work
//! item reproduces exactly the serial per-element operation order. This
//! test enforces the end-to-end consequence: the same seed must produce the
//! same solution — bit for bit — whether the pool runs 1 or 4 threads. CI
//! runs the whole suite under both `RAYON_NUM_THREADS` values; this test
//! crosses the boundary within one process.

use hplai_core::factor::factor;
use hplai_core::grid::ProcessGrid;
use hplai_core::ir::{refine, IrOutcome};
use hplai_core::systems::testbed;
use hplai_core::{run_with_backend, RunConfig};

fn solve(grid: ProcessGrid, n: usize, b: usize) -> Vec<IrOutcome> {
    let q = grid.gcds_per_node();
    let cfg = RunConfig::functional(testbed(grid.size() / q, q), grid, n, b)
        .seed(7)
        .build()
        .unwrap();
    run_with_backend(&cfg, |ctx| {
        let out = factor(ctx, &cfg, 1.0);
        refine(ctx, &cfg, out.local.as_ref().unwrap(), 1.0)
    })
    .unwrap()
}

#[test]
fn solve_is_bitwise_identical_across_thread_counts() {
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let outs = solve(ProcessGrid::col_major(2, 2, 4), 192, 32);
        std::env::remove_var("RAYON_NUM_THREADS");
        outs
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert!(a.converged && b.converged);
        assert_eq!(a.iters, b.iters, "sweep count diverged across threads");
        assert_eq!(
            a.residual_inf.to_bits(),
            b.residual_inf.to_bits(),
            "residual diverged across threads"
        );
        let same =
            a.x.iter()
                .zip(&b.x)
                .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "solution x diverged across thread counts");
    }
}

#[test]
fn single_rank_solve_is_bitwise_identical_across_thread_counts() {
    // The 1-rank case exercises the biggest local tiles (most likely to
    // cross the parallel-dispatch floors).
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let outs = solve(ProcessGrid::col_major(1, 1, 1), 256, 32);
        std::env::remove_var("RAYON_NUM_THREADS");
        outs
    };
    let one = run("1");
    let four = run("4");
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.iters, b.iters);
        let same =
            a.x.iter()
                .zip(&b.x)
                .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "single-rank solution diverged across thread counts");
    }
}
