//! Run supervision: typed run events, detection, and automated recovery
//! (§VI-B operationalized).
//!
//! The paper's team babysat full-scale runs by watching per-component
//! progress output, terminating sick runs early, scanning the fleet for
//! slow nodes, and resubmitting with offenders excluded. [`Supervisor`]
//! automates that loop over the simulated benchmark:
//!
//! 1. execute the run, checking each record with the [`ProgressMonitor`]
//!    on every rank as it closes;
//! 2. convert anomalies into typed [`RunEvent`]s (serializable to a JSONL
//!    event log via [`crate::trace::event_log_jsonl`]);
//! 3. apply the configured [`RecoveryPolicy`]: report only, or abort,
//!    scan the fleet with the [`crate::scan`] mini-benchmark, exclude the
//!    slow GCDs and rerun — from scratch or from the last checkpoint.
//!
//! Because runs are simulated, "aborting" cuts the attempt at the
//! termination iteration after it has run and charges only the cost up to
//! it — exactly the time a real early termination would have saved. The
//! cut is the [`ProgressMonitor::MAX_ALERTS`]-th alert over all ranks,
//! known only once every rank has finished, so each rank keeps its
//! accounted cost after every record (8 bytes per iteration) rather than
//! its series (80).

use crate::checkpoint::{latest_in, Snapshot, SnapshotError};
use crate::factor::{regrid_snapshot, IterRecord, RecordObserver};
use crate::grid::ProcessGrid;
use crate::progress::{Alert, ProgressMonitor};
use crate::report::PerfReport;
use crate::scan::scan_fleet;
use crate::solve::{run_observed, RunConfig, RunOutcome};
use mxp_gpusim::GcdFleet;
use serde::{write_json_string, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;

/// What the supervisor does when the monitor demands termination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryPolicy {
    /// Log events only; never intervene (the monitoring-only baseline).
    Report,
    /// Abort, scan the fleet with the mini-benchmark, exclude GCDs slower
    /// than `scan_threshold` × median, and rerun (at most `max_reruns`
    /// times) — the paper's slow-node workflow, automated.
    AbortAndRerun {
        /// Relative-to-median gate of the post-incident scan (e.g. 1.15).
        scan_threshold: f64,
        /// Maximum rerun attempts before giving up.
        max_reruns: usize,
    },
    /// Abort, scan and exclude slow GCDs as in
    /// [`RecoveryPolicy::AbortAndRerun`], but resume the rerun from the
    /// last panel-boundary checkpoint written before the abort instead of
    /// restarting from scratch. Requires the run to be configured with
    /// [`crate::solve::RunConfigBuilder::checkpoint`]; when no loadable
    /// snapshot exists (none written yet, or the file is corrupt) the
    /// rerun falls back to a full restart and says so in the event log.
    RestartFromCheckpoint {
        /// Relative-to-median gate of the post-incident scan (e.g. 1.15).
        scan_threshold: f64,
        /// Maximum restart attempts before giving up.
        max_restarts: usize,
        /// Re-grid the survivors instead of swapping in spares: the
        /// faulted rank's process-grid column is dropped, the checkpointed
        /// tiles are re-dealt block-cyclically onto the shrunken grid
        /// ([`regrid_snapshot`]), and the run finishes on what is left.
        /// Falls back to a same-grid restart when the new grid cannot hold
        /// the matrix (block-divisibility) or the grid has a single
        /// column.
        elastic: bool,
    },
}

/// One typed entry of the supervision event log.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// An attempt started.
    RunStarted {
        /// 1-based attempt number.
        attempt: usize,
        /// Problem size of the attempt.
        n: usize,
        /// Ranks in the grid.
        ranks: usize,
    },
    /// The monitor flagged a component running slower than the model.
    Alert {
        /// Attempt the alert belongs to.
        attempt: usize,
        /// Rank the anomaly was observed on.
        rank: usize,
        /// Iteration of the anomaly.
        k: usize,
        /// Component name ("getrf", "gemm").
        component: &'static str,
        /// Measured / expected ratio.
        slowdown: f64,
    },
    /// Alert count crossed the monitor's limit: the run was terminated.
    EarlyTermination {
        /// Attempt that was terminated.
        attempt: usize,
        /// Iteration the termination took effect at.
        k: usize,
        /// Alerts accumulated by then.
        alerts: usize,
    },
    /// The post-incident fleet scan finished.
    ScanCompleted {
        /// Attempt the scan followed.
        attempt: usize,
        /// GCDs flagged slower than the gate.
        flagged: Vec<usize>,
    },
    /// Flagged GCDs were swapped for healthy spares before the rerun.
    Excluded {
        /// Attempt the exclusion precedes.
        attempt: usize,
        /// The excluded GCD indices.
        gcds: Vec<usize>,
    },
    /// A panel-boundary checkpoint was located and validated for restart.
    CheckpointLoaded {
        /// Attempt the load follows (the aborted one).
        attempt: usize,
        /// Panel cursor the snapshot was taken at.
        k: usize,
        /// Path of the snapshot file.
        path: String,
    },
    /// No usable checkpoint: none on disk, the file failed validation
    /// (corrupt, truncated), or an elastic re-grid was infeasible — the
    /// rerun starts from scratch.
    CheckpointRejected {
        /// Attempt the rejection follows.
        attempt: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// The rerun resumes mid-factorization from a checkpoint.
    Restarted {
        /// The new attempt number.
        attempt: usize,
        /// Panel cursor the attempt resumes at.
        from_k: usize,
        /// Ranks of the resumed grid (smaller than the original after an
        /// elastic re-grid).
        ranks: usize,
    },
    /// An attempt ran to completion.
    RunCompleted {
        /// The completed attempt.
        attempt: usize,
        /// Headline numbers of the attempt.
        perf: PerfReport,
        /// Whether the solve converged.
        converged: bool,
    },
    /// Recovery was abandoned after exhausting the policy's budget.
    GaveUp {
        /// Attempts consumed.
        attempts: usize,
    },
}

impl RunEvent {
    /// Machine-readable event tag (the `"event"` JSON field).
    pub fn tag(&self) -> &'static str {
        match self {
            RunEvent::RunStarted { .. } => "run_started",
            RunEvent::Alert { .. } => "alert",
            RunEvent::EarlyTermination { .. } => "early_termination",
            RunEvent::ScanCompleted { .. } => "scan_completed",
            RunEvent::Excluded { .. } => "excluded",
            RunEvent::CheckpointLoaded { .. } => "checkpoint_loaded",
            RunEvent::CheckpointRejected { .. } => "checkpoint_rejected",
            RunEvent::Restarted { .. } => "restarted",
            RunEvent::RunCompleted { .. } => "run_completed",
            RunEvent::GaveUp { .. } => "gave_up",
        }
    }
}

impl Serialize for RunEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"event\":");
        write_json_string(self.tag(), out);
        match self {
            RunEvent::RunStarted { attempt, n, ranks } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"n\":{n},\"ranks\":{ranks}");
            }
            RunEvent::Alert {
                attempt,
                rank,
                k,
                component,
                slowdown,
            } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"rank\":{rank},\"k\":{k},\"component\":\"{component}\",\"slowdown\":{slowdown}"
                );
            }
            RunEvent::EarlyTermination { attempt, k, alerts } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"k\":{k},\"alerts\":{alerts}");
            }
            RunEvent::ScanCompleted { attempt, flagged } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"flagged\":{flagged:?}");
            }
            RunEvent::Excluded { attempt, gcds } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"gcds\":{gcds:?}");
            }
            RunEvent::CheckpointLoaded { attempt, k, path } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"k\":{k},\"path\":");
                write_json_string(path, out);
            }
            RunEvent::CheckpointRejected { attempt, reason } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"reason\":");
                write_json_string(reason, out);
            }
            RunEvent::Restarted {
                attempt,
                from_k,
                ranks,
            } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"from_k\":{from_k},\"ranks\":{ranks}"
                );
            }
            RunEvent::RunCompleted {
                attempt,
                perf,
                converged,
            } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"perf\":");
                perf.serialize_json(out);
                let _ = write!(out, ",\"converged\":{converged}");
            }
            RunEvent::GaveUp { attempts } => {
                let _ = write!(out, ",\"attempts\":{attempts}");
            }
        }
        out.push('}');
    }
}

/// Result of a supervised run (possibly after recovery).
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The full event log, in order.
    pub events: Vec<RunEvent>,
    /// Outcome of the final attempt.
    pub outcome: RunOutcome,
    /// Attempts executed (1 = no recovery needed).
    pub attempts: usize,
    /// Iteration of the first alert of the first attempt, if any — the
    /// detection latency input of the fault sweep.
    pub detection_iter: Option<usize>,
    /// Total simulated cost across attempts, seconds: terminated attempts
    /// charge only their truncated prefix plus the post-incident scan.
    pub total_cost: f64,
    /// `true` if the final attempt finished without an early termination.
    pub recovered: bool,
}

/// Drives supervised benchmark runs: monitoring, typed events, recovery.
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// The recovery policy applied on termination.
    pub policy: RecoveryPolicy,
}

/// One rank's supervision, fed each record as it closes.
struct Watch {
    /// The monitor's alerts, in record order.
    alerts: Vec<Alert>,
    /// Iteration of the first record.
    first_k: usize,
    /// `cost[i]`: the accounted seconds of the first `i + 1` records.
    cost: Vec<f64>,
    /// Rank 0's series (`--trace`/`--progress` read it); `None` elsewhere.
    series: Option<Vec<IterRecord>>,
}

impl Watch {
    fn new(cfg: &RunConfig, rank: usize) -> Self {
        // A resumed attempt's records start at its snapshot's cursor.
        let first_k = cfg
            .restart
            .as_ref()
            .map_or(0, |snap| snap.header.k as usize);
        let records = cfg.n / cfg.b - first_k;
        Watch {
            alerts: Vec::new(),
            first_k,
            cost: Vec::with_capacity(records),
            series: (rank == 0).then(|| Vec::with_capacity(records)),
        }
    }

    /// Accounted seconds of this rank's records up to iteration `k`, one
    /// of the iterations it closed.
    fn cost_through(&self, k: usize) -> f64 {
        self.cost[k - self.first_k]
    }
}

impl RecordObserver for Watch {
    fn observe(&mut self, rec: &IterRecord) {
        debug_assert_eq!(rec.k, self.first_k + self.cost.len());
        self.alerts.extend(ProgressMonitor::check(rec));
        // The left fold from `-0.0`, `f64::sum`'s seed: each entry is
        // bitwise the `sum()` of its prefix.
        let before = self.cost.last().copied().unwrap_or(-0.0);
        self.cost
            .push(before + (rec.getrf + rec.trsm + rec.cast + rec.gemm + rec.wait));
        if let Some(series) = &mut self.series {
            series.push(*rec);
        }
    }
}

/// Alerts of one attempt, merged across ranks and sorted by iteration.
struct Analysis {
    alerts: Vec<RunEvent>,
    terminate: bool,
    /// Iteration the run would have been terminated at.
    abort_k: usize,
}

impl Analysis {
    fn new(watches: &[Watch], n_b: usize, attempt: usize) -> Self {
        let mut alerts: Vec<(usize, RunEvent)> = Vec::new();
        let mut terminate = false;
        for (rank, watch) in watches.iter().enumerate() {
            terminate |= watch.alerts.len() >= ProgressMonitor::MAX_ALERTS;
            alerts.extend(watch.alerts.iter().map(|a| {
                let event = RunEvent::Alert {
                    attempt,
                    rank,
                    k: a.k,
                    component: a.component,
                    slowdown: a.slowdown,
                };
                (a.k, event)
            }));
        }
        alerts.sort_by_key(|(k, _)| *k);
        // The run is cut at the iteration the alert budget was exhausted.
        let abort_k = if terminate {
            alerts[ProgressMonitor::MAX_ALERTS - 1].0
        } else {
            n_b
        };
        Analysis {
            alerts: alerts.into_iter().map(|(_, e)| e).collect(),
            terminate,
            abort_k,
        }
    }
}

impl Supervisor {
    /// A monitoring-only supervisor.
    pub fn reporting() -> Self {
        Supervisor {
            policy: RecoveryPolicy::Report,
        }
    }

    /// A supervisor with the paper's operational workflow: early
    /// termination, fleet scan, exclusion, rerun.
    pub fn with_rerun(scan_threshold: f64, max_reruns: usize) -> Self {
        Supervisor {
            policy: RecoveryPolicy::AbortAndRerun {
                scan_threshold,
                max_reruns,
            },
        }
    }

    /// A supervisor that recovers by resuming from the last panel-boundary
    /// checkpoint (the resilience workflow; set `elastic` to finish on the
    /// surviving ranks instead of swapping in spares).
    pub fn with_restart(scan_threshold: f64, max_restarts: usize, elastic: bool) -> Self {
        Supervisor {
            policy: RecoveryPolicy::RestartFromCheckpoint {
                scan_threshold,
                max_restarts,
                elastic,
            },
        }
    }

    /// Runs `cfg` under supervision, applying the recovery policy on
    /// termination. Every attempt is deterministic, so the event log is
    /// reproducible for a given configuration.
    pub fn supervise(&self, cfg: &RunConfig) -> SupervisedOutcome {
        let mut events = Vec::new();
        let mut cfg = cfg.clone();
        let mut attempt = 1;
        let mut total_cost = 0.0;
        let mut detection_iter = None;
        // Simulated clock a restarted attempt resumes at: its completed
        // runtime *includes* the restored pre-checkpoint clock, which the
        // aborted attempt already paid for, so only the tail is charged.
        let mut restart_offset = 0.0;
        // Every exit breaks with the final attempt's outcome, whether it
        // ran unterminated, and whether recovery was abandoned.
        let (out, recovered, gave_up) = loop {
            events.push(RunEvent::RunStarted {
                attempt,
                n: cfg.n,
                ranks: cfg.grid.size(),
            });
            let (mut out, watches) = run_observed(&cfg, |rank| Some(Watch::new(&cfg, rank)));
            let mut watches: Vec<Watch> = watches.into_iter().flatten().collect();
            out.records = watches
                .iter_mut()
                .map(|w| w.series.take().unwrap_or_default())
                .collect();
            let analysis = Analysis::new(&watches, cfg.n / cfg.b, attempt);
            if let (None, Some(RunEvent::Alert { k, .. })) =
                (detection_iter, analysis.alerts.first())
            {
                detection_iter = Some(*k);
            }
            events.extend(analysis.alerts);
            if !analysis.terminate {
                total_cost += out.perf.runtime - restart_offset;
                break (out, true, false);
            }

            // Early termination: charge only the slowest rank's cost up to
            // the cut.
            let abort_k = analysis.abort_k;
            total_cost += watches
                .iter()
                .map(|w| w.cost_through(abort_k))
                .fold(0.0, f64::max);
            events.push(RunEvent::EarlyTermination {
                attempt,
                k: abort_k,
                alerts: events
                    .iter()
                    .filter(|e| matches!(e, RunEvent::Alert { .. }))
                    .count(),
            });
            let (scan_threshold, budget, restart) = match self.policy {
                // No intervention: report the degraded run as final.
                RecoveryPolicy::Report => break (out, false, false),
                RecoveryPolicy::AbortAndRerun {
                    scan_threshold,
                    max_reruns,
                } => (scan_threshold, max_reruns, None),
                RecoveryPolicy::RestartFromCheckpoint {
                    scan_threshold,
                    max_restarts,
                    elastic,
                } => (scan_threshold, max_restarts, Some(elastic)),
            };
            if attempt > budget {
                break (out, false, true);
            }

            // Post-incident scan on the *effective* fleet: base multipliers
            // with fault factors as of the abort.
            let effective =
                cfg.faults
                    .effective_fleet(cfg.fleet.as_ref(), cfg.grid.size(), abort_k);
            let scan = scan_fleet(&cfg.sys.gcd, &effective, 8 * cfg.b, cfg.b, scan_threshold);
            total_cost += scan.median_time;
            events.push(RunEvent::ScanCompleted {
                attempt,
                flagged: scan.slow.clone(),
            });
            if scan.slow.is_empty() {
                // Nothing to exclude: rerunning the same job cannot help.
                break (out, false, true);
            }

            // The snapshot to resume from, and the shrunken grid with the
            // ranks it drops when the survivors were re-gridded.
            let mut resume = None;
            let mut regrid = None;
            if let Some(elastic) = restart {
                restart_offset = 0.0;
                cfg.restart = None;
                resume = Self::locate_snapshot(&cfg, abort_k, attempt, &mut events);
                if let (true, Some(snap)) = (elastic, &resume) {
                    match drop_grid_column(snap, &cfg.grid, scan.slow[0]) {
                        Ok((rs, grid, dropped)) => {
                            resume = Some(rs);
                            regrid = Some((grid, dropped));
                        }
                        Err(e) => events.push(RunEvent::CheckpointRejected {
                            attempt,
                            reason: format!("elastic re-grid infeasible ({e}); same-grid restart"),
                        }),
                    }
                }
            }

            // Exclude the sick hardware: drop the re-gridded column, or
            // swap the slow GCDs for healthy spares.
            let excluded = match regrid {
                Some((grid, dropped)) => {
                    cfg.grid = grid;
                    cfg.fleet = None;
                    dropped
                }
                None => {
                    let base = cfg
                        .fleet
                        .take()
                        .unwrap_or_else(|| GcdFleet::uniform(cfg.grid.size()));
                    cfg.fleet = Some(base.replacing(&scan.slow));
                    scan.slow
                }
            };
            cfg.faults = cfg.faults.without_gcds(&excluded);
            events.push(RunEvent::Excluded {
                attempt,
                gcds: excluded,
            });
            if let Some(snap) = resume {
                restart_offset = snap.max_clock();
                events.push(RunEvent::Restarted {
                    attempt: attempt + 1,
                    from_k: snap.header.k as usize,
                    ranks: cfg.grid.size(),
                });
                cfg.restart = Some(Arc::new(snap));
            }
            attempt += 1;
        };
        events.push(if gave_up {
            RunEvent::GaveUp { attempts: attempt }
        } else {
            RunEvent::RunCompleted {
                attempt,
                perf: out.perf,
                converged: out.converged,
            }
        });
        SupervisedOutcome {
            events,
            outcome: out,
            attempts: attempt,
            detection_iter,
            total_cost,
            recovered,
        }
    }

    /// Loads the newest snapshot taken before the abort, logging whether
    /// it was found and valid. Faults are virtual, so files written
    /// *after* the fault bit also sit on disk and must be skipped.
    fn locate_snapshot(
        cfg: &RunConfig,
        abort_k: usize,
        attempt: usize,
        events: &mut Vec<RunEvent>,
    ) -> Option<Snapshot> {
        let Some(path) = cfg
            .checkpoint
            .as_ref()
            .and_then(|spec| latest_in(&spec.dir, abort_k))
        else {
            events.push(RunEvent::CheckpointRejected {
                attempt,
                reason: "no checkpoint on disk before the abort".into(),
            });
            return None;
        };
        match Snapshot::load(&path) {
            Ok(snap) => {
                events.push(RunEvent::CheckpointLoaded {
                    attempt,
                    k: snap.header.k as usize,
                    path: path.display().to_string(),
                });
                Some(snap)
            }
            Err(e) => {
                events.push(RunEvent::CheckpointRejected {
                    attempt,
                    reason: format!("{}: {e}", path.display()),
                });
                None
            }
        }
    }
}

/// The elastic re-grid: drops the process-grid column of rank `failed` and
/// re-deals the checkpointed tiles onto the survivors. Returns the resumable
/// snapshot, the shrunken grid and the dropped ranks.
fn drop_grid_column(
    snap: &Snapshot,
    grid: &ProcessGrid,
    failed: usize,
) -> Result<(Snapshot, ProcessGrid, Vec<usize>), SnapshotError> {
    if grid.p_c == 1 {
        return Err(SnapshotError::ConfigMismatch("single-column grid"));
    }
    let q = grid.gcds_per_node();
    let new_size = grid.p_r * (grid.p_c - 1);
    let q2 = if q > 0 && new_size.is_multiple_of(q) {
        q
    } else {
        1
    };
    let new_grid = ProcessGrid::col_major(grid.p_r, grid.p_c - 1, q2);
    let resumed = regrid_snapshot(snap, grid, &new_grid)?;
    let fail_col = grid.coord_of(failed).1;
    let dropped = (0..grid.size())
        .filter(|&r| grid.coord_of(r).1 == fail_col)
        .collect();
    Ok((resumed, new_grid, dropped))
}

/// Convenience: what fraction of the fault-free baseline the supervised
/// outcome recovered (1.0 = full recovery).
pub fn recovery_ratio(supervised: &SupervisedOutcome, baseline: &RunOutcome) -> f64 {
    supervised.outcome.perf.gflops_per_gcd / baseline.perf.gflops_per_gcd
}

/// Cost-based recovery ratio: the fault-free baseline runtime divided by
/// everything the supervised campaign actually spent — truncated attempts,
/// scans, and restarted tails. `1.0` means the incident was free;
/// a checkpoint restart must score strictly above a full rerun of the same
/// incident because its final attempt pays only for the panels after the
/// snapshot.
pub fn cost_recovery_ratio(supervised: &SupervisedOutcome, baseline: &RunOutcome) -> f64 {
    baseline.perf.runtime / supervised.total_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::grid::ProcessGrid;
    use crate::solve::run;
    use crate::systems::testbed;

    fn faulted_cfg(spec: &str) -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .faults(FaultPlan::new().parse_spec(spec, 0).unwrap())
            .build()
            .unwrap()
    }

    fn clean_cfg() -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_run_completes_without_alerts() {
        let sup = Supervisor::reporting();
        let out = sup.supervise(&clean_cfg());
        assert_eq!(out.attempts, 1);
        assert!(out.recovered);
        assert!(out.detection_iter.is_none());
        assert!(matches!(out.events[0], RunEvent::RunStarted { .. }));
        assert!(matches!(
            out.events.last(),
            Some(RunEvent::RunCompleted { .. })
        ));
    }

    #[test]
    fn slow_gcd_is_detected_and_excluded() {
        let sup = Supervisor::with_rerun(1.15, 2);
        let supervised = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        assert!(supervised.recovered, "events: {:?}", supervised.events);
        assert_eq!(supervised.attempts, 2);
        // The straggler was flagged and excluded.
        assert!(supervised
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Excluded { gcds, .. } if gcds.contains(&3))));
        // Rerun recovers to within 5% of the fault-free baseline.
        let baseline = run(&clean_cfg());
        let ratio = recovery_ratio(&supervised, &baseline);
        assert!(ratio > 0.95, "recovered only {ratio} of baseline");
    }

    #[test]
    fn detection_is_fast() {
        let sup = Supervisor::reporting();
        let out = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        let k = out.detection_iter.expect("fault must be detected");
        assert!(
            k <= ProgressMonitor::REPORT_EVERY,
            "detected only at iteration {k}"
        );
    }

    fn ckpt_cfg(dir: &std::path::Path, spec: Option<&str>) -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let mut bld = RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .checkpoint(crate::checkpoint::CheckpointSpec::new(dir, 4));
        if let Some(s) = spec {
            bld = bld.faults(FaultPlan::new().parse_spec(s, 0).unwrap());
        }
        bld.build().unwrap()
    }

    #[test]
    fn checkpoint_restart_beats_full_rerun() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-restart-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ckpt_cfg(&dir, Some("degrade:4x:k8:g2"));
        let restart = Supervisor::with_restart(1.15, 2, false).supervise(&cfg);
        assert!(restart.recovered, "events: {:?}", restart.events);
        assert!(restart
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::CheckpointLoaded { .. })));
        assert!(restart
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Restarted { from_k, .. } if *from_k > 0)));
        // The same incident handled by the from-scratch rerun workflow.
        let rerun = Supervisor::with_rerun(1.15, 2).supervise(&cfg);
        assert!(rerun.recovered, "events: {:?}", rerun.events);
        assert!(
            restart.total_cost < rerun.total_cost,
            "restart cost {} must beat full-rerun cost {}",
            restart.total_cost,
            rerun.total_cost
        );
        let baseline = run(&clean_cfg());
        assert!(cost_recovery_ratio(&restart, &baseline) > cost_recovery_ratio(&rerun, &baseline));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_rerun() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Plant a corrupt snapshot; interval 0 keeps the attempts from
        // atomically writing fresh (valid) files over it.
        let mut junk = b"HPLAICKP".to_vec();
        junk.extend_from_slice(&[0x55u8; 64]);
        std::fs::write(dir.join("ckpt_000004.bin"), junk).unwrap();
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .checkpoint(crate::checkpoint::CheckpointSpec::new(&dir, 0))
            .faults(FaultPlan::new().parse_spec("degrade:4x:k8:g2", 0).unwrap())
            .build()
            .unwrap();
        let out = Supervisor::with_restart(1.15, 2, false).supervise(&cfg);
        // The snapshot is rejected with a typed reason, and recovery still
        // succeeds via the full-rerun fallback.
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, RunEvent::CheckpointRejected { .. })),
            "events: {:?}",
            out.events
        );
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, RunEvent::Restarted { .. })),
            "a corrupt snapshot must not be resumed from"
        );
        assert!(out.recovered, "events: {:?}", out.events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn elastic_restart_finishes_on_survivors() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-elastic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ckpt_cfg(&dir, Some("degrade:4x:k8:g2"));
        let out = Supervisor::with_restart(1.15, 2, true).supervise(&cfg);
        assert!(out.recovered, "events: {:?}", out.events);
        // GCD 2 sits in grid column 1 (col-major 2×2): that column is
        // dropped and the run finishes on the surviving 2 ranks.
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Restarted { ranks: 2, from_k, .. } if *from_k > 0)));
        assert_eq!(out.outcome.perf.simulated_ranks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A watch and a `Vec` observer fed the same records.
    struct Both(Watch, Vec<IterRecord>);

    impl RecordObserver for Both {
        fn observe(&mut self, rec: &IterRecord) {
            self.0.observe(rec);
            self.1.observe(rec);
        }
    }

    /// Runs `cfg` with a watch and a `Vec` observer on every rank, and
    /// checks what the watch streamed against the batch computations over
    /// the series the `Vec` collected. Returns the number of alerts.
    fn assert_streaming_matches_batch(cfg: &RunConfig) -> usize {
        let (_, observers) =
            run_observed(cfg, |rank| Some(Both(Watch::new(cfg, rank), Vec::new())));
        let mut alerts = 0;
        for (rank, both) in observers.into_iter().enumerate() {
            let Both(watch, series) = both.expect("every rank is observed");
            let (batch, _) = ProgressMonitor::analyze(&series);
            assert_eq!(watch.alerts, batch, "rank {rank}: alerts");
            assert_eq!(watch.series.as_ref(), (rank == 0).then_some(&series));
            for rec in &series {
                let want: f64 = series
                    .iter()
                    .filter(|r| r.k <= rec.k)
                    .map(|r| r.getrf + r.trsm + r.cast + r.gemm + r.wait)
                    .sum();
                let got = watch.cost_through(rec.k);
                assert_eq!(got.to_bits(), want.to_bits(), "rank {rank} k {}", rec.k);
            }
            alerts += watch.alerts.len();
        }
        alerts
    }

    #[test]
    fn streamed_supervision_matches_the_batch_scan() {
        let cfg = faulted_cfg("slow-gcd:3x:g3");
        assert!(
            assert_streaming_matches_batch(&cfg) > 0,
            "fault raised no alert"
        );
    }

    #[test]
    fn streamed_supervision_matches_the_batch_scan_when_resumed() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-stream-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ckpt_cfg(&dir, Some("slow-gcd:3x:g3"));
        run(&cfg);
        let n_b = cfg.n / cfg.b;
        let path = latest_in(&dir, n_b / 2).expect("mid-run snapshot exists");
        let snap = Snapshot::load(&path).expect("snapshot loads");
        assert!(snap.header.k > 0, "resumes mid-run");
        let resumed = cfg
            .to_builder()
            .restart_from(Arc::new(snap))
            .build()
            .unwrap();
        assert!(
            assert_streaming_matches_batch(&resumed) > 0,
            "fault raised no alert"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_outcome_keeps_only_rank0_series() {
        for cfg in [clean_cfg(), faulted_cfg("slow-gcd:3x:g3")] {
            let out = Supervisor::reporting().supervise(&cfg).outcome;
            assert_eq!(out.records[0], run(&cfg).records[0], "rank 0 series");
            assert!(
                out.records[1..].iter().all(Vec::is_empty),
                "only rank 0 keeps its series"
            );
        }
    }

    #[test]
    fn event_log_is_deterministic() {
        let sup = Supervisor::with_rerun(1.15, 2);
        let cfg = faulted_cfg("degrade:3x:k8:g2");
        let a = sup.supervise(&cfg);
        let b = sup.supervise(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_cost, b.total_cost);
    }

    #[test]
    fn events_serialize_to_json_objects() {
        let e = RunEvent::Alert {
            attempt: 1,
            rank: 3,
            k: 7,
            component: "gemm",
            slowdown: 3.2,
        };
        let mut s = String::new();
        e.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["event"], "alert");
        assert_eq!(v["rank"], 3.0);
        let e = RunEvent::RunCompleted {
            attempt: 2,
            perf: PerfReport::new(1024, 4, 1.0, 0.8, 0.2),
            converged: true,
        };
        let mut s = String::new();
        e.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["event"], "run_completed");
        assert!(v["perf"]["runtime"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn early_termination_truncates_cost() {
        // A hard failure at iteration 4 must be terminated early; the
        // charged cost stays well below the full degraded runtime.
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 64)
            .faults(FaultPlan::new().parse_spec("fail:k4:g1", 0).unwrap())
            .build()
            .unwrap();
        let sup = Supervisor::reporting();
        let out = sup.supervise(&cfg);
        assert!(!out.recovered);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::EarlyTermination { .. })));
        assert!(
            out.total_cost < 0.7 * out.outcome.perf.runtime,
            "cost {} vs degraded runtime {}",
            out.total_cost,
            out.outcome.perf.runtime
        );
    }
}
