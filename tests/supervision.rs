//! Integration tests for the fault-injection + supervision subsystem: the
//! full functional driver with injected faults, the supervisor's recovery
//! workflow end to end, and determinism of the typed event log.

use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::run;
use hplai_core::supervisor::{recovery_ratio, RunEvent, Supervisor};
use hplai_core::{
    testbed, CheckpointSpec, FaultPlan, ProcessGrid, RunConfig, RunConfigBuilder, TrailingPrecision,
};
use mxp_gpusim::GcdFleet;
use std::path::PathBuf;

fn functional_cfg(faults: FaultPlan) -> RunConfig {
    let grid = ProcessGrid::col_major(2, 2, 4);
    RunConfig::functional(testbed(1, 4), grid, 512, 32)
        .faults(faults)
        .build()
        .expect("valid test config")
}

#[test]
fn functional_run_with_slow_gcd_alerts_within_report_cadence() {
    // A 3x-slow GCD in a *functional* run (real math, verified solve):
    // the monitor must flag it within one report interval, and the math
    // must still be correct — faults warp clocks, never results.
    let faults = FaultPlan::new().parse_spec("slow-gcd:3x:g3", 0).unwrap();
    let sup = Supervisor::reporting();
    let out = sup.supervise(&functional_cfg(faults));
    let k = out.detection_iter.expect("3x straggler must be detected");
    assert!(
        k <= ProgressMonitor::REPORT_EVERY,
        "detected only at iteration {k}, cadence is {}",
        ProgressMonitor::REPORT_EVERY
    );
    assert!(out.outcome.converged, "injected faults must not break math");
    assert!(out.outcome.scaled_residual.unwrap() < 16.0);
}

#[test]
fn supervised_rerun_recovers_functional_throughput() {
    // The acceptance demo as a test: detect the straggler, exclude it via
    // the scan, and recover to within 5% of the fault-free baseline.
    let faults = FaultPlan::new().parse_spec("slow-gcd:3x:g3", 0).unwrap();
    let supervised = Supervisor::with_rerun(1.15, 2).supervise(&functional_cfg(faults));
    assert!(supervised.recovered, "events: {:?}", supervised.events);
    assert!(supervised
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::Excluded { gcds, .. } if gcds.contains(&3))));
    let baseline = run(&functional_cfg(FaultPlan::new()));
    let ratio = recovery_ratio(&supervised, &baseline);
    assert!(ratio > 0.95, "recovered only {ratio} of baseline");
}

#[test]
fn invalid_configs_are_errors_not_panics() {
    use hplai_core::ConfigError;
    // N not divisible by B x grid.
    let grid = ProcessGrid::col_major(2, 2, 4);
    let err = RunConfig::functional(testbed(1, 4), grid, 500, 32)
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::NotDivisible { .. }), "{err}");
    // Fault aimed at a GCD outside the grid.
    let faults = FaultPlan::new().parse_spec("slow-gcd:3x:g9", 0).unwrap();
    let err = RunConfig::functional(testbed(1, 4), grid, 512, 32)
        .faults(faults)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::FaultTargetOutOfRange { gcd: 9, .. }),
        "{err}"
    );
}

/// The 4-rank timing testbed: N 2048, B 128 on a column-major 2×2 grid.
fn timing_builder() -> RunConfigBuilder {
    RunConfig::timing(testbed(1, 4), ProcessGrid::col_major(2, 2, 4), 2048, 128)
}

/// A scratch checkpoint directory, wiped before use.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hplai-supervision-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Alert events of a supervised run, as `(rank, k, component)`.
fn alerts(events: &[RunEvent]) -> Vec<(usize, usize, &'static str)> {
    events
        .iter()
        .filter_map(|e| match e {
            RunEvent::Alert {
                rank, k, component, ..
            } => Some((*rank, *k, *component)),
            _ => None,
        })
        .collect()
}

#[test]
fn healthy_fp32_panel_run_raises_no_alert() {
    // The FP32 trailing update runs at the FP32 rate; the monitor's
    // reference is what the stepper charged, so it carries that factor.
    let cfg = timing_builder()
        .prec(TrailingPrecision::Fp32)
        .build_or_panic();
    let out = Supervisor::with_rerun(1.15, 2).supervise(&cfg);
    assert_eq!(alerts(&out.events), [], "events: {:?}", out.events);
    assert!(out.recovered);
    assert_eq!(out.attempts, 1);
}

#[test]
fn checkpoint_drains_of_a_healthy_fleet_raise_no_alert() {
    // A drain charges its GEMM to the record it amends, at the GCD's
    // speed; a ≤5% slow in-family GCD stays far under the 2x gate.
    let dir = ckpt_dir("healthy-drains");
    let cfg = timing_builder()
        .fleet(GcdFleet::generate(4, 7, 0.05, 0, 1.0))
        .checkpoint(CheckpointSpec::new(&dir, 4))
        .build_or_panic();
    let out = Supervisor::reporting().supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(alerts(&out.events), [], "events: {:?}", out.events);
    assert!(out.recovered);
}

#[test]
fn no_alert_precedes_the_fault_onset() {
    // Checkpoints every 2 panels drain at every even boundary. Before k = 8
    // every charge runs at nominal speed; the drain at boundary 8 already
    // runs degraded and amends record 7, whose own healthy GEMM keeps that
    // record under the 2x gate.
    let dir = ckpt_dir("onset");
    let cfg = timing_builder()
        .faults(FaultPlan::new().parse_spec("degrade:4x:k8:g3", 0).unwrap())
        .checkpoint(CheckpointSpec::new(&dir, 2))
        .build_or_panic();
    let out = Supervisor::reporting().supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    let k = out.detection_iter.expect("a 4x degradation is detected");
    assert!(k >= 8, "first alert at k = {k}, before the onset at 8");
}

mod determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Supervising the same seeded configuration twice produces an
        /// identical typed event sequence — injected faults and recovery
        /// are fully deterministic, so incident logs are reproducible.
        #[test]
        fn same_seed_same_event_log(
            seed in 0u64..1000,
            fault_i in 0usize..4,
            severity in 2usize..6,
        ) {
            let spec = match fault_i {
                0 => format!("slow-gcd:{severity}x:g3"),
                1 => format!("degrade:{severity}x:k4:g3"),
                2 => "thermal:0.9:k2:g3".to_string(),
                _ => "fail:k6:g3".to_string(),
            };
            let faults = FaultPlan::new().parse_spec(&spec, 0).unwrap();
            let grid = ProcessGrid::col_major(2, 2, 4);
            let cfg = RunConfig::timing(testbed(1, 4), grid, 1024, 64)
                .seed(seed)
                .faults(faults)
                .build()
                .unwrap();
            let sup = Supervisor::with_rerun(1.15, 2);
            let a = sup.supervise(&cfg);
            let b = sup.supervise(&cfg);
            prop_assert_eq!(&a.events, &b.events, "event logs diverge for {}", spec);
            prop_assert_eq!(a.total_cost, b.total_cost);
            prop_assert_eq!(a.attempts, b.attempts);
        }
    }
}
