//! §VI-B "Identify slow nodes": the single-GCD LU mini-benchmark fleet
//! scan, with injected slow GCDs, and the performance recovered by
//! excluding them from the big run.

use crate::{gflops, Args, Output, Table};
use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::scan::{scan_fleet, scan_report};
use hplai_core::{frontier, ProcessGrid};
use mxp_gpusim::GcdFleet;
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let sys = frontier();
    // A 1024-GCD fleet with the paper's ~5% in-family spread plus three
    // genuinely unhealthy GCDs (30% slow).
    let fleet = GcdFleet::generate(1024, 2022, 0.05, 3, 0.7);
    let outcome = scan_fleet(&sys.gcd, &fleet, 8192, 1024, 1.15);
    let mut out = Output::default();
    out.note(scan_report(&outcome, sys.gcds_per_node).trim_end());

    let mut t = Table::new(
        "Effect of excluding flagged GCDs (Frontier, 1024 GCDs)",
        "§VI-B best practice",
        &["fleet", "slowest multiplier", "GFLOPS/GCD"],
    );
    let cfg = |slowest: f64| CriticalConfig {
        slowest,
        ..CriticalConfig::new(
            119808 * 32,
            3072,
            ProcessGrid::node_local(32, 32, 2, 4),
            BcastAlgo::Ring2M,
        )
    };
    let with_slow = critical_time(&sys, &cfg(fleet.slowest()));
    let healthy = fleet.excluding(&outcome.slow);
    let without_slow = critical_time(&sys, &cfg(healthy.slowest()));
    t.row(&[
        &"as-is",
        &format!("{:.3}", fleet.slowest()),
        &gflops(with_slow.perf.gflops_per_gcd),
    ]);
    t.row(&[
        &"after exclusion",
        &format!("{:.3}", healthy.slowest()),
        &gflops(without_slow.perf.gflops_per_gcd),
    ]);
    out.table("slow_node_scan", t);
    out.note(format!(
        "a single slow GCD stalls the whole pipeline: +{:.1}% from excluding {} GCDs",
        (without_slow.perf.gflops_per_gcd / with_slow.perf.gflops_per_gcd - 1.0) * 100.0,
        outcome.slow.len()
    ));
    out
}
