//! Golden snapshot tests: the Chrome-trace JSON (compute lanes and the
//! runtime layer's comm lanes) and the supervision event log for fixed
//! small configurations are compared byte-for-byte against checked-in
//! snapshots. The simulation is deterministic, so any diff here is a real
//! behaviour or formatting change.
//!
//! To regenerate deliberately, run with the environment variable set:
//! `GOLDEN_REGEN=1 cargo test -p hplai-core --test golden_trace` — the
//! tests then overwrite the files under `tests/golden/` with fresh output
//! instead of comparing.

use hplai_core::factor::factor;
use hplai_core::hpl_dist::hpl_dist_solve;
use hplai_core::ir::refine;
use hplai_core::supervisor::Supervisor;
use hplai_core::trace::{chrome_trace, comm_chrome_trace, event_log_jsonl};
use hplai_core::{run, run_with_backend, testbed, ProcessGrid, RunConfig};
use mxp_lcg::MatrixKind;

const GOLDEN_TRACE: &str = include_str!("golden/chrome_trace_2x2.json");
const GOLDEN_EVENTS: &str = include_str!("golden/event_log_2x2.jsonl");
const GOLDEN_HPL_COMM: &str = include_str!("golden/chrome_trace_hpl_2x2.json");
const GOLDEN_IR_COMM: &str = include_str!("golden/chrome_trace_ir_2x2.json");

/// Compares against the checked-in snapshot, or rewrites it when
/// `GOLDEN_REGEN` is set in the environment.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(name);
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("rewrite {path:?}: {e}"));
        return;
    }
    assert_eq!(
        actual, golden,
        "output diverged from tests/golden/{name} \
         (GOLDEN_REGEN=1 regenerates the snapshot if the change is intended)"
    );
}

fn fixed_config() -> RunConfig {
    let grid = ProcessGrid::col_major(2, 2, 4);
    RunConfig::timing(testbed(1, 4), grid, 2048, 256)
        .lookahead(true)
        .build()
        .expect("fixed golden config is valid")
}

#[test]
fn chrome_trace_matches_golden_snapshot() {
    let out = run(&fixed_config());
    let trace = chrome_trace(out.records_rank0(), 0);
    assert_golden(&trace, GOLDEN_TRACE, "chrome_trace_2x2.json");
}

#[test]
fn event_log_matches_golden_snapshot() {
    let sup = Supervisor::reporting().supervise(&fixed_config());
    let log = event_log_jsonl(&sup.events);
    assert_golden(&log, GOLDEN_EVENTS, "event_log_2x2.jsonl");
}

#[test]
fn hpl_comm_trace_matches_golden_snapshot() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let sys = testbed(1, 4);
    let cfg = RunConfig::functional(sys.clone(), grid, 32, 8).build_or_panic();
    let traces = run_with_backend(&cfg, |ctx| {
        hpl_dist_solve(ctx, &sys, 32, 8, 4242, MatrixKind::Uniform, 1.0);
        ctx.take_trace()
    })
    .unwrap();
    let json = comm_chrome_trace(traces[0].events(), 0);
    // The pivoted-LU path must show both collective lanes.
    assert!(json.contains(r#""name":"allreduce""#) && json.contains(r#""name":"bcast""#));
    assert_golden(&json, GOLDEN_HPL_COMM, "chrome_trace_hpl_2x2.json");
}

#[test]
fn ir_comm_trace_matches_golden_snapshot() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let cfg = RunConfig::functional(testbed(1, 4), grid, 64, 8)
        .seed(4242)
        .build_or_panic();
    let traces = run_with_backend(&cfg, |ctx| {
        let out = factor(ctx, &cfg, 1.0);
        // Keep only the refinement phase's events in the snapshot.
        let _ = ctx.take_trace();
        let ir = refine(ctx, &cfg, out.local.as_ref().unwrap(), 1.0);
        assert!(ir.converged);
        ctx.take_trace()
    })
    .unwrap();
    let json = comm_chrome_trace(traces[0].events(), 0);
    // Refinement is residual allreduces plus the fan-in solve's traffic.
    assert!(json.contains(r#""name":"allreduce""#) && json.contains(r#""cat":"world""#));
    assert_golden(&json, GOLDEN_IR_COMM, "chrome_trace_ir_2x2.json");
}

#[test]
fn golden_trace_is_valid_chrome_json() {
    // Guard the snapshots themselves: they must stay parseable by trace
    // viewers.
    for golden in [GOLDEN_TRACE, GOLDEN_HPL_COMM, GOLDEN_IR_COMM] {
        let parsed: serde_json::Value =
            serde_json::from_str(golden).expect("golden trace must be valid JSON");
        let events = parsed.as_array().expect("top-level array");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").is_some() && e.get("ph").is_some());
        }
    }
}

#[test]
fn golden_event_log_lines_are_valid_json() {
    for line in GOLDEN_EVENTS.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.get("event").is_some());
    }
}

#[test]
fn golden_trace_contains_overlap_counter() {
    // The fixed config runs with look-ahead on: the snapshot must carry
    // the hidden-overlap counter series alongside the phase spans.
    assert!(
        GOLDEN_TRACE.contains("overlap_hidden_us"),
        "lookahead run must emit the overlap counter"
    );
}

#[test]
fn golden_comm_traces_use_the_comm_lanes() {
    // Comm lanes sit above the compute lanes: tids 5-9 only.
    for golden in [GOLDEN_HPL_COMM, GOLDEN_IR_COMM] {
        let parsed: serde_json::Value = serde_json::from_str(golden).unwrap();
        for e in parsed.as_array().unwrap() {
            let tid = e["tid"].as_f64().unwrap();
            assert!((5.0..=9.0).contains(&tid), "comm event on lane {tid}");
        }
    }
}
