//! Pins the supervisor's recovery loop: every policy and exit of
//! `Supervisor::supervise` on small fixed incidents, recorded in one
//! golden file. For each case the file holds the typed event log (JSONL,
//! checkpoint paths reduced to their file names, since the directory is a
//! temporary path), the attempt count, the detection iteration, whether
//! the run recovered, and the exact bits of the total simulated cost.
//!
//! To regenerate deliberately:
//! `GOLDEN_REGEN=1 cargo test -p hplai-core --test supervise_pin`.

use hplai_core::checkpoint::latest_in;
use hplai_core::supervisor::{RunEvent, SupervisedOutcome, Supervisor};
use hplai_core::trace::event_log_jsonl;
use hplai_core::{
    run, testbed, Backend, CheckpointSpec, FaultPlan, ProcessGrid, RunConfig, TrailingPrecision,
};
use mxp_msgsim::BcastAlgo;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GOLDEN: &str = include_str!("golden/supervise_pin.jsonl");

/// A scratch checkpoint directory, wiped before use.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hplai-supervise-pin-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn faults(spec: &str, default_gcd: usize) -> FaultPlan {
    FaultPlan::new()
        .parse_spec(spec, default_gcd)
        .expect("valid fault spec")
}

/// The unit tests' 2×2 timing testbed: N 2048, B 128.
fn timing_cfg(spec: &str) -> RunConfig {
    RunConfig::timing(testbed(1, 4), ProcessGrid::col_major(2, 2, 4), 2048, 128)
        .faults(faults(spec, 0))
        .build_or_panic()
}

/// `hplai --inject slow-gcd:3x --supervise` with the CLI's defaults.
fn hplai_cli_cfg() -> RunConfig {
    RunConfig::functional(testbed(1, 4), ProcessGrid::node_local(2, 2, 2, 2), 256, 16)
        .algo(BcastAlgo::Lib)
        .lookahead(true)
        .seed(2022)
        .prec(TrailingPrecision::Fp16)
        .faults(faults("slow-gcd:3x", 3))
        .build_or_panic()
}

/// fault_sweep's checkpointed timing configuration (2×2 there).
fn ckpt_cfg(dir: &Path, grid: ProcessGrid, interval: usize, backend: Backend) -> RunConfig {
    RunConfig::timing(testbed(1, 4), grid, 2048, 128)
        .algo(BcastAlgo::Lib)
        .backend(backend)
        .checkpoint(CheckpointSpec::new(dir, interval))
        .faults(faults("degrade:4x:k8:g3", 0))
        .build_or_panic()
}

/// One case's record: a header line with the outcome, then its event log.
fn record(out: &mut String, name: &str, sup: &SupervisedOutcome, dir: Option<&Path>) {
    let _ = writeln!(
        out,
        "# {name}: attempts={} detection_iter={:?} recovered={} total_cost_bits={:#018x}",
        sup.attempts,
        sup.detection_iter,
        sup.recovered,
        sup.total_cost.to_bits()
    );
    let mut log = event_log_jsonl(&sup.events);
    if let Some(dir) = dir {
        log = log.replace(&format!("{}/", dir.display()), "");
    }
    out.push_str(&log);
}

/// Runs an incident in a fresh checkpoint directory and records it.
fn ckpt_case(
    out: &mut String,
    name: &str,
    sup: Supervisor,
    grid: ProcessGrid,
    interval: usize,
    backend: Backend,
) {
    let dir = scratch_dir(name);
    let s = sup.supervise(&ckpt_cfg(&dir, grid, interval, backend));
    record(out, name, &s, Some(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

fn all_cases() -> String {
    let mut out = String::new();

    let s = Supervisor::reporting().supervise(&timing_cfg("slow-gcd:3x:g3"));
    assert!(s
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::EarlyTermination { .. })));
    record(&mut out, "report", &s, None);

    let s = Supervisor::with_rerun(1.15, 2).supervise(&hplai_cli_cfg());
    record(&mut out, "rerun_hplai_cli", &s, None);

    let s = Supervisor::with_rerun(1.15, 0).supervise(&timing_cfg("slow-gcd:3x:g3"));
    record(&mut out, "rerun_budget_spent", &s, None);

    // The monitor times compute kernels only, so a link fault slows the
    // run without terminating it: the attempt completes.
    let s = Supervisor::with_rerun(1.15, 2).supervise(&timing_cfg("link-lat:5ms:all"));
    record(&mut out, "rerun_link_fault", &s, None);

    // A scan gate above the fault's 3x slowdown flags nobody: nothing to
    // exclude, so the supervisor gives up.
    let s = Supervisor::with_rerun(4.0, 2).supervise(&timing_cfg("slow-gcd:3x:g3"));
    record(&mut out, "rerun_scan_flags_nobody", &s, None);

    let grid = ProcessGrid::col_major(2, 2, 4);
    let cases = [
        ("restart_same_grid", false, grid, 2, Backend::Functional),
        ("restart_elastic", true, grid, 2, Backend::Functional),
        (
            "restart_elastic_event_host",
            true,
            grid,
            2,
            Backend::EventTimed,
        ),
        // One grid column: the elastic re-grid is infeasible, so the
        // supervisor falls back to a same-grid restart.
        (
            "restart_elastic_single_column",
            true,
            ProcessGrid::col_major(4, 1, 4),
            2,
            Backend::Functional,
        ),
        // Interval 0 writes no snapshot: a full rerun.
        ("restart_no_snapshot", false, grid, 0, Backend::Functional),
    ];
    for (name, elastic, grid, interval, backend) in cases {
        let sup = Supervisor::with_restart(1.15, 2, elastic);
        ckpt_case(&mut out, name, sup, grid, interval, backend);
    }
    let sup = Supervisor::with_restart(1.15, 0, false);
    ckpt_case(
        &mut out,
        "restart_budget_spent",
        sup,
        grid,
        2,
        Backend::Functional,
    );

    // The newest snapshot before the abort is corrupt. A plain run writes
    // valid snapshots; the supervised config then checkpoints never
    // (interval 0), so the corrupted file is what recovery finds.
    let name = "restart_corrupt_snapshot";
    let dir = scratch_dir(name);
    run(&ckpt_cfg(&dir, grid, 2, Backend::Functional));
    let cfg = ckpt_cfg(&dir, grid, 0, Backend::Functional);
    let abort_k = Supervisor::reporting()
        .supervise(&cfg)
        .events
        .iter()
        .find_map(|e| match e {
            RunEvent::EarlyTermination { k, .. } => Some(*k),
            _ => None,
        })
        .expect("the degraded run terminates early");
    let newest = latest_in(&dir, abort_k).expect("a snapshot precedes the abort");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&newest, bytes).expect("corrupt snapshot");
    let s = Supervisor::with_restart(1.15, 2, false).supervise(&cfg);
    record(&mut out, name, &s, Some(&dir));
    std::fs::remove_dir_all(&dir).ok();

    out
}

#[test]
fn supervise_matches_golden() {
    let actual = all_cases();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/supervise_pin.jsonl");
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("rewrite {path:?}: {e}"));
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "supervisor output diverged from tests/golden/supervise_pin.jsonl \
         (GOLDEN_REGEN=1 regenerates the snapshot if the change is intended)"
    );
}
