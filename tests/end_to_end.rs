//! Cross-crate integration: full functional benchmark runs through the
//! generator → BLAS → shim → message runtime → driver → refinement stack.

use hplai_core::{run, testbed, ProcessGrid, RunConfig};
use mxp_lcg::{MatrixGen, MatrixKind};
use mxp_msgsim::BcastAlgo;

/// Independently verify a solution against the regenerated FP64 system.
fn residual_of(n: usize, seed: u64, x: &[f64]) -> f64 {
    let gen = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut acc = -gen.rhs(i);
        for (j, &xj) in x.iter().enumerate() {
            acc += gen.entry(i, j) * xj;
        }
        worst = worst.max(acc.abs());
    }
    worst
}

fn solve_x(grid: ProcessGrid, n: usize, b: usize, algo: BcastAlgo, lookahead: bool) -> Vec<f64> {
    let q = grid.gcds_per_node();
    let cfg = RunConfig::functional(testbed(grid.size() / q, q), grid, n, b)
        .algo(algo)
        .lookahead(lookahead)
        .seed(99)
        .build_or_panic();
    let out = run(&cfg);
    assert!(out.converged);
    out.solution.expect("functional runs return the solution")
}

#[test]
fn full_benchmark_passes_on_various_grids() {
    for (grid, n, b) in [
        (ProcessGrid::col_major(1, 1, 1), 64, 16),
        (ProcessGrid::col_major(2, 2, 4), 64, 8),
        (ProcessGrid::col_major(4, 2, 8), 96, 12),
        (ProcessGrid::node_local(2, 4, 2, 4), 64, 8),
    ] {
        let sys = testbed(grid.size() / grid.gcds_per_node(), grid.gcds_per_node());
        let out = run(&RunConfig::functional(sys, grid, n, b).build_or_panic());
        assert!(out.converged, "grid {grid:?} failed");
        assert!(
            out.scaled_residual.unwrap() < 16.0,
            "grid {grid:?} residual {:?}",
            out.scaled_residual
        );
    }
}

#[test]
fn every_broadcast_algorithm_yields_the_same_solution() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let reference = solve_x(grid, 48, 8, BcastAlgo::Lib, false);
    for algo in BcastAlgo::ALL {
        for lookahead in [false, true] {
            let x = solve_x(grid, 48, 8, algo, lookahead);
            assert_eq!(
                x, reference,
                "solution differs for {algo:?} lookahead={lookahead}"
            );
        }
    }
    // And it actually solves the system.
    assert!(residual_of(48, 99, &reference) < 1e-9);
}

#[test]
fn distributed_solution_is_grid_invariant() {
    // The math must not depend on how the matrix is partitioned.
    let a = solve_x(ProcessGrid::col_major(1, 1, 1), 64, 8, BcastAlgo::Lib, true);
    let b = solve_x(ProcessGrid::col_major(2, 2, 2), 64, 8, BcastAlgo::Lib, true);
    let c = solve_x(
        ProcessGrid::col_major(4, 4, 4),
        64,
        8,
        BcastAlgo::Ring2M,
        true,
    );
    for i in 0..64 {
        assert!((a[i] - b[i]).abs() < 1e-9, "1x1 vs 2x2 at {i}");
        assert!((a[i] - c[i]).abs() < 1e-9, "1x1 vs 4x4 at {i}");
    }
}

mod random_configs {
    use super::*;
    use hplai_core::TrailingPrecision;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The solver passes its own acceptance test for arbitrary small
        /// configurations: grid shape, block size, broadcast algorithm,
        /// look-ahead, and panel precision.
        #[test]
        fn any_small_config_converges(
            p_r in 1usize..4,
            p_c in 1usize..4,
            blocks_per in 1usize..3,
            b_exp in 2usize..5,
            algo_i in 0u8..5,
            lookahead: bool,
            prec_i in 0u8..3,
        ) {
            let b = 1usize << b_exp; // 4..16
            let n_b = p_r * p_c * blocks_per;
            let n = n_b * b;
            let q = (p_r * p_c).min(4);
            if (p_r * p_c) % q != 0 {
                return Ok(());
            }
            let grid = ProcessGrid::col_major(p_r, p_c, q);
            let sys = testbed(grid.size() / q, q);
            let cfg = RunConfig::functional(sys, grid, n, b)
                .algo(BcastAlgo::ALL[algo_i as usize % 5])
                .lookahead(lookahead)
                .prec([
                    TrailingPrecision::Fp16,
                    TrailingPrecision::Bf16,
                    TrailingPrecision::Fp32,
                ][prec_i as usize % 3])
                .build()
                .expect("generated configs are divisible by construction");
            let out = run(&cfg);
            prop_assert!(out.converged, "config failed: {n} {b} {:?}", cfg.algo);
            prop_assert!(out.scaled_residual.unwrap() < 16.0);
        }
    }
}

#[test]
fn larger_functional_run_with_variability() {
    // A bigger end-to-end run with a non-uniform fleet: correctness must
    // be unaffected by per-GCD speed (only clocks change).
    let grid = ProcessGrid::col_major(2, 2, 4);
    let sys = testbed(1, 4);
    let cfg = RunConfig::functional(sys, grid, 256, 32)
        .fleet(mxp_gpusim::GcdFleet::generate(4, 3, 0.05, 1, 0.8))
        .build_or_panic();
    let out = run(&cfg);
    assert!(out.converged);
    assert!(out.scaled_residual.unwrap() < 16.0);
}
