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
//! from a checkpoint saves. The trajectory is reported as
//! `BENCH_fault.json`, and `--floor R` turns the sweep into a CI gate:
//! every point that actually restarted from a snapshot must beat the
//! full-rerun baseline by more than `R`.
//!
//! ```text
//! repro fault_sweep [--quick] [--floor R]
//! ```
//!
//! The sweep also runs one elastic incident (the faulted grid column is
//! dropped and the run finishes on the survivors) and writes its typed
//! event log to `results/fault_events.jsonl`. A full run ends with the
//! acceptance point, which `--quick` leaves out: the same incident at
//! full Summit extent (27,648 ranks on the event backend), where a
//! restart salvages minutes of simulated work per fault.

use crate::{secs, Args, Output, Table};
use hplai_core::solve::run as run_sim;
use hplai_core::supervisor::{cost_recovery_ratio, RunEvent, Supervisor};
use hplai_core::trace::event_log_jsonl;
use hplai_core::{
    summit, testbed, Backend, CheckpointSpec, FaultPlan, ProcessGrid, RunConfig, SystemSpec,
};
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

/// The bench report.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Gate the sweep was run with (`--floor`), if any.
    floor: Option<f64>,
    /// Measured incidents: the interval × onset grid first, then the
    /// elastic demo, then (unless `--quick`) the full-extent point.
    points: Vec<FaultPoint>,
}

/// A scratch checkpoint directory, wiped before use.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hplai-fault-sweep-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The run a series of incidents faults.
struct Setup {
    sys: SystemSpec,
    grid: ProcessGrid,
    n: usize,
    b: usize,
    backend: Backend,
}

/// Runs one incident — GCD `victim` degrades 4× at panel `onset_k` —
/// through both recovery workflows and measures the checkpoint restart
/// against the full rerun and the fault-free baseline.
fn incident(
    series: &str,
    s: &Setup,
    interval: usize,
    onset_k: usize,
    victim: usize,
    elastic: bool,
) -> (FaultPoint, Vec<RunEvent>) {
    let spec = format!("degrade:4x:k{onset_k}:g{victim}");
    let dir = ckpt_dir(&format!("{series}-i{interval}-k{onset_k}"));
    let build = |faults: FaultPlan| {
        RunConfig::timing(s.sys.clone(), s.grid, s.n, s.b)
            .algo(BcastAlgo::Lib)
            .backend(s.backend)
            .checkpoint(CheckpointSpec::new(&dir, interval))
            .faults(faults)
            .build_or_panic()
    };
    let cfg = build(FaultPlan::new().parse_spec(&spec, 0).expect("valid spec"));

    let restart = Supervisor::with_restart(1.15, 2, elastic).supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    let rerun = Supervisor::with_rerun(1.15, 2).supervise(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    // Fault-free baseline of the same checkpointed configuration: the
    // numerator both cost-recovery ratios share.
    let baseline = run_sim(&build(FaultPlan::new()));
    std::fs::remove_dir_all(&dir).ok();

    let restarted_from_k = restart.events.iter().find_map(|e| match e {
        RunEvent::Restarted { from_k, .. } => Some(*from_k),
        _ => None,
    });
    let point = FaultPoint {
        series: series.to_string(),
        grid: format!("{}x{}", s.grid.p_r, s.grid.p_c),
        ranks: s.grid.size(),
        n: s.n,
        b: s.b,
        interval,
        fault: spec,
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

pub fn run(args: &Args) -> Output {
    let tb = Setup {
        sys: testbed(1, 4),
        grid: ProcessGrid::col_major(2, 2, 4),
        n: 2048,
        b: 128,
        backend: Backend::Functional,
    };
    let mut points = Vec::new();

    // Checkpoint interval × fault onset: gcd 3 degrades 4× at panel
    // `onset_k` of the 16-iteration run. Early onsets abort before the
    // sparse intervals have written anything (the fall-back-to-scratch
    // corner); late onsets leave most of the run salvageable.
    for interval in [2, 4, 8] {
        for onset_k in [4, 8, 12] {
            points.push(incident("grid", &tb, interval, onset_k, 3, false).0);
        }
    }

    // Elastic incident: the faulted rank's grid column is dropped and the
    // run finishes on the surviving 2 ranks. Its typed event log is the
    // CI artifact documenting the abort → scan → re-grid → restart chain.
    let (elastic, events) = incident("elastic", &tb, 4, 8, 2, true);
    let mut out = Output::default();
    out.files
        .push(("fault_events.jsonl".into(), event_log_jsonl(&events)));
    points.push(elastic);

    if !args.quick {
        // The acceptance point: the same incident at full Summit extent
        // (96×288 = 27,648 ranks, N = 221,184) on the sharded event
        // backend, checkpointing every 24 panels.
        let sys = summit();
        let grid = ProcessGrid::node_local(96, 288, 3, 2);
        let (n, b) = (288 * sys.paper_b, sys.paper_b);
        // At this extent every rank owns exactly one block column (288
        // columns over 288 grid columns) and is busy only while that
        // column is in the trailing matrix — a victim in grid column 200
        // is still doing GEMM work when the fault switches on at k = 96,
        // so the monitor has something to measure.
        let victim = (0..grid.size())
            .find(|&r| grid.coord_of(r).1 == 200)
            .expect("grid has column 200");
        eprintln!(
            "summit acceptance point: {} ranks, N = {n} ({} iterations), degrade:4x:k96:g{victim}",
            grid.size(),
            n / b
        );
        let backend = Backend::EventTimed;
        let full = Setup {
            sys,
            grid,
            n,
            b,
            backend,
        };
        points.push(incident("summit", &full, 24, 96, victim, false).0);
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
    out.table("fault_sweep", t);

    if let Some(floor) = args.floor {
        // CI gate: every incident that resumed from a snapshot must beat
        // the full-rerun baseline by more than the floor.
        let worst = points
            .iter()
            .filter(|p| p.restarted_from_k.is_some())
            .map(|p| p.benefit)
            .reduce(f64::min)
            .expect("floor gate needs at least one restarted incident");
        out.gates.push((
            worst > floor,
            format!("worst restart benefit {worst:.3}, floor {floor} (exclusive)"),
        ));
    }
    out.report = Some(Box::new(Report {
        floor: args.floor,
        points,
    }));
    out
}
