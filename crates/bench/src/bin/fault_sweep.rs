//! Fault-injection sweep: checkpoint interval × fault onset time.
//!
//! Every point injects the same mid-run fault into a checkpointed run and
//! lets two supervisors handle the identical incident:
//!
//! * **restart** — [`hplai_core::RecoveryPolicy::RestartFromCheckpoint`]:
//!   abort, scan, exclude, then resume from the last panel-boundary
//!   snapshot written before the abort;
//! * **rerun** — [`hplai_core::RecoveryPolicy::AbortAndRerun`]: the §VI-B
//!   workflow, which throws the aborted prefix away and restarts from
//!   scratch.
//!
//! Both campaigns are charged their full simulated cost (truncated
//! attempts, the fleet scan, checkpoint I/O, and the final attempt), so
//! `benefit = rerun_cost / restart_cost` isolates exactly what restarting
//! from a checkpoint saves. The trajectory is persisted to
//! `BENCH_fault.json` at the repository root, and `--floor R` turns the
//! sweep into a CI gate: every point that actually restarted from a
//! snapshot must beat the full-rerun baseline by more than `R`.
//!
//! ```text
//! fault_sweep [--summit] [--floor R]
//! ```
//!
//! `--summit` appends the acceptance point: the same incident at full
//! Summit extent (27,648 ranks on the event backend), where a restart
//! salvages minutes of simulated work per fault. The default sweep also
//! runs one elastic incident (the faulted grid column is dropped and the
//! run finishes on the survivors) and writes its typed event log to
//! `results/fault_events.jsonl`.

use hplai_core::solve::run;
use hplai_core::supervisor::{cost_recovery_ratio, RunEvent, Supervisor};
use hplai_core::trace::event_log_jsonl;
use hplai_core::{
    summit, testbed, Backend, CheckpointSpec, FaultPlan, ProcessGrid, RunConfig, SystemSpec,
};
use mxp_bench::{results_dir, secs, Table};
use mxp_msgsim::BcastAlgo;
use serde::Serialize;
use std::path::PathBuf;

/// One supervised incident: a fault handled by both recovery workflows.
#[derive(Clone, Debug, Serialize)]
struct FaultPoint {
    /// Sweep series the point belongs to (`"grid"`, `"elastic"`,
    /// `"summit"`).
    series: String,
    /// Process-grid shape.
    grid: String,
    /// Ranks in the grid.
    ranks: usize,
    /// Problem size.
    n: usize,
    /// Block size.
    b: usize,
    /// Checkpoint interval, panel steps.
    interval: usize,
    /// Injected fault spec (`FaultPlan::parse_spec` grammar).
    fault: String,
    /// Panel iteration the fault switches on at.
    onset_k: usize,
    /// Iteration of the first alert, if the monitor fired.
    detect_k: Option<usize>,
    /// Panel cursor the restart campaign resumed from (`None` when it
    /// fell back to a from-scratch rerun — e.g. no snapshot yet).
    restarted_from_k: Option<usize>,
    /// Ranks the final attempt ran on (smaller after an elastic re-grid).
    final_ranks: usize,
    /// Total simulated cost of the checkpoint-restart campaign, seconds.
    restart_cost: f64,
    /// Total simulated cost of the full-rerun campaign, seconds.
    rerun_cost: f64,
    /// Cost-recovery ratio of the restart campaign vs the fault-free run.
    restart_ratio: f64,
    /// Cost-recovery ratio of the full-rerun campaign vs the same run.
    rerun_ratio: f64,
    /// `rerun_cost / restart_cost`: > 1 means the checkpoint restart beat
    /// the full rerun on the identical incident.
    benefit: f64,
    /// Whether both campaigns finished without a lingering termination.
    recovered: bool,
    /// Checkpoint bytes written by the restart campaign's final attempt.
    checkpoint_bytes: u64,
    /// Simulated seconds the final attempt spent writing checkpoints.
    checkpoint_time: f64,
}

/// `BENCH_fault.json` schema.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Schema tag for downstream tooling.
    schema: String,
    /// Gate the sweep was run with (`--floor`), if any.
    floor: Option<f64>,
    /// Measured incidents: the interval × onset grid first, then the
    /// elastic demo, then (with `--summit`) the full-extent point.
    points: Vec<FaultPoint>,
}

/// A scratch checkpoint directory, wiped before use.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hplai-fault-sweep-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs one incident through both recovery workflows and measures the
/// checkpoint restart against the full rerun and the fault-free baseline.
#[allow(clippy::too_many_arguments)]
fn incident(
    series: &str,
    sys: &SystemSpec,
    grid: ProcessGrid,
    n: usize,
    b: usize,
    backend: Backend,
    interval: usize,
    spec: &str,
    onset_k: usize,
    elastic: bool,
) -> (FaultPoint, Vec<RunEvent>) {
    let dir = ckpt_dir(&format!("{series}-i{interval}-k{onset_k}"));
    let build = |faults: FaultPlan| {
        RunConfig::timing(sys.clone(), grid, n, b)
            .algo(BcastAlgo::Lib)
            .backend(backend)
            .checkpoint(CheckpointSpec::new(&dir, interval))
            .faults(faults)
            .build_or_panic()
    };
    let faults = FaultPlan::new().parse_spec(spec, 0).expect("valid spec");
    let cfg = build(faults);

    let restart = Supervisor::with_restart(1.15, 2, elastic).supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    let rerun = Supervisor::with_rerun(1.15, 2).supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    // Fault-free baseline of the same checkpointed configuration: the
    // numerator both cost-recovery ratios share.
    let baseline = run(&build(FaultPlan::new()));
    std::fs::remove_dir_all(&dir).ok();

    let restarted_from_k = restart.events.iter().find_map(|e| match e {
        RunEvent::Restarted { from_k, .. } => Some(*from_k),
        _ => None,
    });
    let point = FaultPoint {
        series: series.to_string(),
        grid: format!("{}x{}", grid.p_r, grid.p_c),
        ranks: grid.size(),
        n,
        b,
        interval,
        fault: spec.to_string(),
        onset_k,
        detect_k: restart.detection_iter,
        restarted_from_k,
        final_ranks: restart.outcome.perf.simulated_ranks,
        restart_cost: restart.total_cost,
        rerun_cost: rerun.total_cost,
        restart_ratio: cost_recovery_ratio(&restart, &baseline),
        rerun_ratio: cost_recovery_ratio(&rerun, &baseline),
        benefit: rerun.total_cost / restart.total_cost,
        recovered: restart.recovered && rerun.recovered,
        checkpoint_bytes: restart.outcome.provenance.checkpoint_bytes,
        checkpoint_time: restart.outcome.provenance.checkpoint_time,
    };
    (point, restart.events)
}

fn repo_root() -> PathBuf {
    results_dir()
        .parent()
        .expect("results dir has a parent")
        .to_path_buf()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let summit_point = args.iter().any(|a| a == "--summit");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .map(|i| args[i + 1].parse().expect("--floor takes a ratio"));

    let sys = testbed(1, 4);
    let grid = ProcessGrid::col_major(2, 2, 4);
    let (n, b) = (2048, 128);
    let mut points = Vec::new();

    // Checkpoint interval × fault onset: gcd 3 degrades 4× at panel
    // `onset_k` of the 16-iteration run. Early onsets abort before the
    // sparse intervals have written anything (the fall-back-to-scratch
    // corner); late onsets leave most of the run salvageable.
    for &interval in &[2usize, 4, 8] {
        for &onset_k in &[4usize, 8, 12] {
            let spec = format!("degrade:4x:k{onset_k}:g3");
            let (p, _) = incident(
                "grid",
                &sys,
                grid,
                n,
                b,
                Backend::Functional,
                interval,
                &spec,
                onset_k,
                false,
            );
            points.push(p);
        }
    }

    // Elastic incident: the faulted rank's grid column is dropped and the
    // run finishes on the surviving 2 ranks. Its typed event log is the
    // CI artifact documenting the abort → scan → re-grid → restart chain.
    let (elastic, events) = incident(
        "elastic",
        &sys,
        grid,
        n,
        b,
        Backend::Functional,
        4,
        "degrade:4x:k8:g2",
        8,
        true,
    );
    let log_path = results_dir().join("fault_events.jsonl");
    std::fs::write(&log_path, event_log_jsonl(&events)).expect("write fault_events.jsonl");
    eprintln!("wrote {}", log_path.display());
    points.push(elastic);

    if summit_point {
        // The acceptance point: the same incident at full Summit extent
        // (96×288 = 27,648 ranks, N = 221,184) on the sharded event
        // backend, checkpointing every 24 panels.
        let sys = summit();
        let grid = ProcessGrid::node_local(96, 288, 3, 2);
        let n = 288 * sys.paper_b;
        // At this extent every rank owns exactly one block column (288
        // columns over 288 grid columns) and is busy only while that
        // column is in the trailing matrix — a victim in grid column 200
        // is still doing GEMM work when the fault switches on at k = 96,
        // so the monitor has something to measure.
        let victim = (0..grid.size())
            .find(|&r| grid.coord_of(r).1 == 200)
            .expect("grid has column 200");
        let spec = format!("degrade:4x:k96:g{victim}");
        eprintln!(
            "summit acceptance point: {} ranks, N = {n} ({} iterations), {spec}",
            grid.size(),
            n / sys.paper_b
        );
        let (p, _) = incident(
            "summit",
            &sys,
            grid,
            n,
            sys.paper_b,
            Backend::EventTimed,
            24,
            &spec,
            96,
            false,
        );
        points.push(p);
    }

    let mut t = Table::new(
        "Checkpoint restart vs full rerun across checkpoint interval and fault onset",
        "§VI-B + ROADMAP item 5",
        &[
            "series",
            "ranks",
            "interval",
            "fault",
            "detect k",
            "resume k",
            "restart cost",
            "rerun cost",
            "benefit",
            "recovered",
        ],
    );
    for p in &points {
        t.row(&[
            &p.series,
            &p.ranks,
            &p.interval,
            &p.fault,
            &p.detect_k.map_or("-".to_string(), |k| k.to_string()),
            &p.restarted_from_k
                .map_or("-".to_string(), |k| k.to_string()),
            &secs(p.restart_cost),
            &secs(p.rerun_cost),
            &format!("{:.3}", p.benefit),
            &p.recovered,
        ]);
    }
    t.emit("fault_sweep");

    let report = Report {
        schema: "fault-recovery-v1".into(),
        floor,
        points,
    };
    let path = repo_root().join("BENCH_fault.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_fault.json");
    eprintln!("wrote {}", path.display());

    if let Some(floor) = floor {
        // CI gate: every incident that resumed from a snapshot must beat
        // the full-rerun baseline by more than the floor.
        let restarted: Vec<&FaultPoint> = report
            .points
            .iter()
            .filter(|p| p.restarted_from_k.is_some())
            .collect();
        assert!(
            !restarted.is_empty(),
            "floor gate needs at least one restarted incident"
        );
        let worst = restarted
            .iter()
            .map(|p| p.benefit)
            .fold(f64::INFINITY, f64::min);
        if worst <= floor {
            eprintln!("FAIL: worst restart benefit {worst:.3} <= floor {floor}");
            std::process::exit(1);
        }
        eprintln!("floor gate passed: worst restart benefit {worst:.3} > {floor}");
    }
}
