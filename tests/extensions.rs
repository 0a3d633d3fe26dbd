//! Integration tests for the extension features: panel-precision ablation
//! (§VIII "model for new techniques"), the energy model (§VIII outlook),
//! and the progress monitor wired to the real driver.

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::hpl::{hpl_critical_time, hpl_n_local};
use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::{run, RunConfig};
use hplai_core::{frontier, summit, testbed, ProcessGrid, TrailingPrecision};
use mxp_gpusim::GcdFleet;
use mxp_msgsim::BcastAlgo;

fn ablation_run(prec: TrailingPrecision, n: usize, b: usize) -> hplai_core::RunOutcome {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let cfg = RunConfig::functional(testbed(1, 4), grid, n, b)
        .prec(prec)
        .build_or_panic();
    run(&cfg)
}

#[test]
fn all_precisions_converge() {
    for prec in [
        TrailingPrecision::Fp16,
        TrailingPrecision::Bf16,
        TrailingPrecision::Fp32,
    ] {
        let out = ablation_run(prec, 128, 16);
        assert!(out.converged, "{prec:?} failed to converge");
        assert!(
            out.scaled_residual.unwrap() < 16.0,
            "{prec:?} residual {:?}",
            out.scaled_residual
        );
    }
}

#[test]
fn coarser_precision_needs_at_least_as_many_sweeps() {
    let fp32 = ablation_run(TrailingPrecision::Fp32, 256, 32);
    let fp16 = ablation_run(TrailingPrecision::Fp16, 256, 32);
    let bf16 = ablation_run(TrailingPrecision::Bf16, 256, 32);
    assert!(
        fp32.ir_iters <= fp16.ir_iters,
        "{} > {}",
        fp32.ir_iters,
        fp16.ir_iters
    );
    assert!(
        fp16.ir_iters <= bf16.ir_iters,
        "{} > {}",
        fp16.ir_iters,
        bf16.ir_iters
    );
}

#[test]
fn fp32_panels_cost_more_time_and_bytes() {
    // No tensor cores + double the panel traffic: the simulated clock must
    // be slower for the fp32 control at identical problem/shape.
    let grid = ProcessGrid::col_major(2, 2, 4);
    let mk = |prec| {
        let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 256)
            .prec(prec)
            .build_or_panic();
        run(&cfg).perf.factor_time
    };
    let t16 = mk(TrailingPrecision::Fp16);
    let t32 = mk(TrailingPrecision::Fp32);
    assert!(t32 > 2.0 * t16, "fp32 {t32} vs fp16 {t16}");
    // bf16 matches fp16 cost exactly (same bytes, same tensor path).
    let tb16 = mk(TrailingPrecision::Bf16);
    assert!((tb16 - t16).abs() < 1e-12);
}

#[test]
fn bf16_solution_is_less_accurate_before_refinement() {
    // One IR sweep measures the raw factorization quality: the first
    // residual is ordered by unit roundoff.
    let fp16 = ablation_run(TrailingPrecision::Fp16, 256, 32);
    let bf16 = ablation_run(TrailingPrecision::Bf16, 256, 32);
    // After convergence both pass, but bf16 must not be *more* accurate.
    assert!(bf16.scaled_residual.unwrap() >= fp16.scaled_residual.unwrap() * 0.1);
}

#[test]
fn energy_hypothesis_holds() {
    // §VIII: the mixed-precision performance advantage carries to energy.
    let sys = summit();
    let grid = ProcessGrid::node_local(54, 54, 3, 2);
    let ai = critical_time(
        &sys,
        &CriticalConfig::new(61440 * 54, 768, grid, BcastAlgo::Lib),
    );
    let hpl = hpl_critical_time(&sys, &grid, hpl_n_local(61440, 768) * 54, 768);
    assert!(
        ai.gflops_per_watt > 5.0 * hpl.gflops_per_watt,
        "HPL-AI {} GF/W vs HPL {} GF/W",
        ai.gflops_per_watt,
        hpl.gflops_per_watt
    );
    // Energy to solution is also lower despite higher average power draw.
    assert!(ai.energy.total_j() < hpl.energy.total_j());
    // Sanity: modern-accelerator efficiency range (tens to hundreds GF/W).
    assert!(ai.gflops_per_watt > 50.0 && ai.gflops_per_watt < 1000.0);
}

#[test]
fn energy_scales_with_runtime() {
    let sys = frontier();
    let short = critical_time(
        &sys,
        &CriticalConfig::new(
            29952 * 16,
            3072,
            ProcessGrid::node_local(16, 16, 2, 4),
            BcastAlgo::Ring2M,
        ),
    );
    let long = critical_time(
        &sys,
        &CriticalConfig::new(
            119808 * 16,
            3072,
            ProcessGrid::node_local(16, 16, 2, 4),
            BcastAlgo::Ring2M,
        ),
    );
    assert!(long.energy.total_j() > short.energy.total_j());
    // But the bigger problem is *more* efficient (more GEMM-bound).
    assert!(long.gflops_per_watt > short.gflops_per_watt);
}

#[test]
fn line44_criterion_implies_the_classic_hpl_gate() {
    // The paper's stopping rule (Algorithm 1 line 44) is far stricter than
    // the classic HPL-AI acceptance threshold of 16 on the scaled
    // residual: any run that satisfies line 44 sails through the gate with
    // orders of magnitude to spare.
    for n in [64usize, 128, 256] {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let out = run(&RunConfig::functional(testbed(1, 4), grid, n, n / 8).build_or_panic());
        assert!(out.converged, "line-44 convergence at N={n}");
        let scaled = out.scaled_residual.unwrap();
        assert!(
            scaled < 8.0,
            "line 44 should leave comfortable margin under the 16.0 gate; got {scaled} at N={n}"
        );
    }
}

#[test]
fn progress_monitor_clean_on_healthy_driver_run() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let sys = testbed(1, 4);
    let cfg = RunConfig::timing(sys.clone(), grid, 2048, 256).build_or_panic();
    let out = run(&cfg);
    let (alerts, terminate) = ProgressMonitor::analyze(
        out.records_rank0(),
        &sys.gcd,
        &grid,
        2048,
        256,
        grid.coord_of(0),
        true,
    );
    assert!(alerts.is_empty(), "false alerts: {alerts:?}");
    assert!(!terminate);
}

#[test]
fn progress_monitor_catches_a_slow_gcd() {
    // Rank 0 degraded to 30% speed: its own records must trip the monitor
    // (the paper's early-termination trigger).
    let grid = ProcessGrid::col_major(2, 2, 4);
    let sys = testbed(1, 4);
    let cfg = RunConfig::timing(sys.clone(), grid, 2048, 256)
        .fleet(GcdFleet::from_multipliers(vec![0.3, 1.0, 1.0, 1.0]))
        .build_or_panic();
    let out = run(&cfg);
    let (alerts, terminate) = ProgressMonitor::analyze(
        out.records_rank0(),
        &sys.gcd,
        &grid,
        2048,
        256,
        grid.coord_of(0),
        true,
    );
    assert!(!alerts.is_empty(), "slow GCD must trip the monitor");
    assert!(terminate, "enough alerts to terminate the run");
}
