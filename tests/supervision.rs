//! Integration tests for the fault-injection + supervision subsystem: the
//! full functional driver with injected faults, the supervisor's recovery
//! workflow end to end, and determinism of the typed event log.

use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::run;
use hplai_core::supervisor::{recovery_ratio, RunEvent, Supervisor};
use hplai_core::{testbed, FaultPlan, ProcessGrid, RunConfig};

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
