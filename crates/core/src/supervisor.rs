//! Run supervision: typed run events, detection, and automated recovery
//! (§VI-B operationalized).
//!
//! The paper's team babysat full-scale runs by watching per-component
//! progress output, terminating sick runs early, scanning the fleet for
//! slow nodes, and resubmitting with offenders excluded. [`Supervisor`]
//! automates that loop over the simulated benchmark:
//!
//! 1. execute the run and stream every rank's per-iteration records
//!    through the [`ProgressMonitor`];
//! 2. convert anomalies into typed [`RunEvent`]s (serializable to a JSONL
//!    event log via [`crate::trace::event_log_jsonl`]);
//! 3. apply the configured [`RecoveryPolicy`]: abort-and-rerun with slow
//!    GCDs excluded (driving the [`crate::scan`] mini-benchmark), retry
//!    with backoff, or accept graceful degradation.
//!
//! Because runs are simulated, "aborting" truncates the already-computed
//! record stream at the termination iteration and charges only the
//! truncated cost — exactly the time a real early termination would have
//! saved.

use crate::checkpoint::{latest_in, Snapshot};
use crate::factor::regrid_snapshot;
use crate::grid::ProcessGrid;
use crate::progress::ProgressMonitor;
use crate::report::PerfReport;
use crate::scan::scan_fleet;
use crate::solve::{run_with_series, RunConfig, RunOutcome, Series};
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
    /// Abort and resubmit the identical job after a backoff, hoping the
    /// fault was transient (at most `max_retries` times).
    RetryWithBackoff {
        /// Maximum resubmissions.
        max_retries: usize,
        /// Simulated seconds of queue backoff before the first retry;
        /// doubles each attempt.
        backoff: f64,
    },
    /// Accept the degraded run and report it (the "finish the campaign
    /// anyway" choice).
    GracefulDegradation,
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
    /// The identical job was resubmitted after a backoff.
    Retried {
        /// The new attempt number.
        attempt: usize,
        /// Simulated queue backoff charged, seconds.
        backoff: f64,
    },
    /// The degraded run was accepted as-is.
    Degraded {
        /// The accepted attempt.
        attempt: usize,
        /// Achieved GFLOPS per GCD.
        gflops_per_gcd: f64,
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
            RunEvent::Retried { .. } => "retried",
            RunEvent::Degraded { .. } => "degraded",
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
            RunEvent::Retried { attempt, backoff } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"backoff\":{backoff}");
            }
            RunEvent::Degraded {
                attempt,
                gflops_per_gcd,
            } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"gflops_per_gcd\":{gflops_per_gcd}"
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
    /// charge only their truncated prefix plus any retry backoff.
    pub total_cost: f64,
    /// `true` if the final attempt finished without an early termination.
    pub recovered: bool,
}

/// Drives supervised benchmark runs: monitoring, typed events, recovery.
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// The progress monitor applied to every rank's record stream.
    pub monitor: ProgressMonitor,
    /// The recovery policy applied on termination.
    pub policy: RecoveryPolicy,
}

/// Alerts of one attempt, merged across ranks and sorted by iteration.
struct Analysis {
    alerts: Vec<RunEvent>,
    terminate: bool,
    /// Iteration the run would have been terminated at.
    abort_k: usize,
}

impl Supervisor {
    /// A monitoring-only supervisor with default thresholds.
    pub fn reporting() -> Self {
        Supervisor {
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::Report,
        }
    }

    /// A supervisor with the paper's operational workflow: early
    /// termination, fleet scan, exclusion, rerun.
    pub fn with_rerun(scan_threshold: f64, max_reruns: usize) -> Self {
        Supervisor {
            monitor: ProgressMonitor::default(),
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
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::RestartFromCheckpoint {
                scan_threshold,
                max_restarts,
                elastic,
            },
        }
    }

    fn analyze(&self, cfg: &RunConfig, out: &RunOutcome, attempt: usize) -> Analysis {
        let dev = &cfg.sys.gcd;
        let mut alerts: Vec<(usize, RunEvent)> = Vec::new();
        let mut terminate = false;
        for (rank, records) in out.records.iter().enumerate() {
            let coord = cfg.grid.coord_of(rank);
            let (rank_alerts, rank_term) =
                self.monitor
                    .analyze(records, dev, &cfg.grid, cfg.n, cfg.b, coord, cfg.lookahead);
            terminate |= rank_term;
            for a in rank_alerts {
                alerts.push((
                    a.k,
                    RunEvent::Alert {
                        attempt,
                        rank,
                        k: a.k,
                        component: a.component,
                        slowdown: a.slowdown,
                    },
                ));
            }
        }
        alerts.sort_by_key(|(k, _)| *k);
        // The run is cut at the iteration the alert budget was exhausted.
        let abort_k = if terminate && alerts.len() >= self.monitor.max_alerts {
            alerts[self.monitor.max_alerts - 1].0
        } else {
            cfg.n / cfg.b
        };
        Analysis {
            alerts: alerts.into_iter().map(|(_, e)| e).collect(),
            terminate,
            abort_k,
        }
    }

    /// Simulated cost of an attempt terminated at iteration `abort_k`: the
    /// slowest rank's accounted time over the truncated record prefix.
    fn truncated_cost(out: &RunOutcome, abort_k: usize) -> f64 {
        out.records
            .iter()
            .map(|records| {
                records
                    .iter()
                    .filter(|r| r.k <= abort_k)
                    .map(|r| r.getrf + r.trsm + r.cast + r.gemm + r.wait)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
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
        let mut backoff = match self.policy {
            RecoveryPolicy::RetryWithBackoff { backoff, .. } => backoff,
            _ => 0.0,
        };
        loop {
            events.push(RunEvent::RunStarted {
                attempt,
                n: cfg.n,
                ranks: cfg.grid.size(),
            });
            // The progress monitor and `truncated_cost` read every rank.
            let out = run_with_series(&cfg, Series::AllRanks);
            let analysis = self.analyze(&cfg, &out, attempt);
            if detection_iter.is_none() {
                if let Some(RunEvent::Alert { k, .. }) = analysis.alerts.first() {
                    detection_iter = Some(*k);
                }
            }
            events.extend(analysis.alerts.iter().cloned());

            if !analysis.terminate {
                total_cost += out.perf.runtime - restart_offset;
                events.push(RunEvent::RunCompleted {
                    attempt,
                    perf: out.perf,
                    converged: out.converged,
                });
                return SupervisedOutcome {
                    events,
                    outcome: out,
                    attempts: attempt,
                    detection_iter,
                    total_cost,
                    recovered: true,
                };
            }

            // Early termination: charge only the truncated prefix.
            total_cost += Self::truncated_cost(&out, analysis.abort_k);
            events.push(RunEvent::EarlyTermination {
                attempt,
                k: analysis.abort_k,
                alerts: events
                    .iter()
                    .filter(|e| matches!(e, RunEvent::Alert { .. }))
                    .count(),
            });

            match self.policy {
                RecoveryPolicy::Report => {
                    // No intervention: report the degraded run as final.
                    events.push(RunEvent::RunCompleted {
                        attempt,
                        perf: out.perf,
                        converged: out.converged,
                    });
                    return SupervisedOutcome {
                        events,
                        outcome: out,
                        attempts: attempt,
                        detection_iter,
                        total_cost,
                        recovered: false,
                    };
                }
                RecoveryPolicy::GracefulDegradation => {
                    total_cost += out.perf.runtime - Self::truncated_cost(&out, analysis.abort_k);
                    events.push(RunEvent::Degraded {
                        attempt,
                        gflops_per_gcd: out.perf.gflops_per_gcd,
                    });
                    events.push(RunEvent::RunCompleted {
                        attempt,
                        perf: out.perf,
                        converged: out.converged,
                    });
                    return SupervisedOutcome {
                        events,
                        outcome: out,
                        attempts: attempt,
                        detection_iter,
                        total_cost,
                        recovered: false,
                    };
                }
                RecoveryPolicy::AbortAndRerun {
                    scan_threshold,
                    max_reruns,
                } => {
                    if attempt > max_reruns {
                        events.push(RunEvent::GaveUp { attempts: attempt });
                        return SupervisedOutcome {
                            events,
                            outcome: out,
                            attempts: attempt,
                            detection_iter,
                            total_cost,
                            recovered: false,
                        };
                    }
                    // Post-incident scan on the *effective* fleet: base
                    // multipliers with fault factors as of the abort.
                    let effective = cfg.faults.effective_fleet(
                        cfg.fleet.as_ref(),
                        cfg.grid.size(),
                        analysis.abort_k,
                    );
                    let scan =
                        scan_fleet(&cfg.sys.gcd, &effective, 8 * cfg.b, cfg.b, scan_threshold);
                    total_cost += scan.median_time;
                    events.push(RunEvent::ScanCompleted {
                        attempt,
                        flagged: scan.slow.clone(),
                    });
                    if scan.slow.is_empty() {
                        // Nothing to exclude (e.g. a pure link fault):
                        // rerunning the same job cannot help.
                        events.push(RunEvent::GaveUp { attempts: attempt });
                        return SupervisedOutcome {
                            events,
                            outcome: out,
                            attempts: attempt,
                            detection_iter,
                            total_cost,
                            recovered: false,
                        };
                    }
                    let base = cfg
                        .fleet
                        .clone()
                        .unwrap_or_else(|| GcdFleet::uniform(cfg.grid.size()));
                    cfg.fleet = Some(base.replacing(&scan.slow));
                    cfg.faults = cfg.faults.without_gcds(&scan.slow);
                    events.push(RunEvent::Excluded {
                        attempt,
                        gcds: scan.slow,
                    });
                    attempt += 1;
                }
                RecoveryPolicy::RestartFromCheckpoint {
                    scan_threshold,
                    max_restarts,
                    elastic,
                } => {
                    if attempt > max_restarts {
                        events.push(RunEvent::GaveUp { attempts: attempt });
                        return SupervisedOutcome {
                            events,
                            outcome: out,
                            attempts: attempt,
                            detection_iter,
                            total_cost,
                            recovered: false,
                        };
                    }
                    // Scan and identify the sick hardware, exactly as the
                    // full-rerun workflow does.
                    let effective = cfg.faults.effective_fleet(
                        cfg.fleet.as_ref(),
                        cfg.grid.size(),
                        analysis.abort_k,
                    );
                    let scan =
                        scan_fleet(&cfg.sys.gcd, &effective, 8 * cfg.b, cfg.b, scan_threshold);
                    total_cost += scan.median_time;
                    events.push(RunEvent::ScanCompleted {
                        attempt,
                        flagged: scan.slow.clone(),
                    });
                    if scan.slow.is_empty() {
                        events.push(RunEvent::GaveUp { attempts: attempt });
                        return SupervisedOutcome {
                            events,
                            outcome: out,
                            attempts: attempt,
                            detection_iter,
                            total_cost,
                            recovered: false,
                        };
                    }

                    // Locate the newest snapshot taken before the abort —
                    // faults are virtual, so files written *after* the
                    // fault bit also sit on disk and must be skipped.
                    restart_offset = 0.0;
                    cfg.restart = None;
                    let located = cfg
                        .checkpoint
                        .as_ref()
                        .and_then(|spec| latest_in(&spec.dir, analysis.abort_k))
                        .map(|path| (Snapshot::load(&path), path));
                    let mut snap = match located {
                        Some((Ok(s), path)) => {
                            events.push(RunEvent::CheckpointLoaded {
                                attempt,
                                k: s.header.k as usize,
                                path: path.display().to_string(),
                            });
                            Some(s)
                        }
                        Some((Err(e), path)) => {
                            events.push(RunEvent::CheckpointRejected {
                                attempt,
                                reason: format!("{}: {e}", path.display()),
                            });
                            None
                        }
                        None => {
                            events.push(RunEvent::CheckpointRejected {
                                attempt,
                                reason: "no checkpoint on disk before the abort".into(),
                            });
                            None
                        }
                    };

                    let mut regridded = false;
                    if elastic {
                        if let Some(s) = snap.take() {
                            // Drop the faulted rank's process-grid column
                            // and re-deal the checkpointed tiles onto the
                            // survivors.
                            let fail_col = cfg.grid.coord_of(scan.slow[0]).1;
                            let attempt_regrid = if cfg.grid.p_c > 1 {
                                let new_size = cfg.grid.p_r * (cfg.grid.p_c - 1);
                                let q = cfg.grid.gcds_per_node();
                                let q2 = if q > 0 && new_size.is_multiple_of(q) {
                                    q
                                } else {
                                    1
                                };
                                let new_grid =
                                    ProcessGrid::col_major(cfg.grid.p_r, cfg.grid.p_c - 1, q2);
                                regrid_snapshot(&s, &cfg.grid, &new_grid).map(|rs| (rs, new_grid))
                            } else {
                                Err(crate::checkpoint::SnapshotError::ConfigMismatch(
                                    "single-column grid",
                                ))
                            };
                            match attempt_regrid {
                                Ok((rs, new_grid)) => {
                                    let dropped: Vec<usize> = (0..cfg.grid.size())
                                        .filter(|&r| cfg.grid.coord_of(r).1 == fail_col)
                                        .collect();
                                    cfg.faults = cfg.faults.without_gcds(&dropped);
                                    events.push(RunEvent::Excluded {
                                        attempt,
                                        gcds: dropped,
                                    });
                                    cfg.grid = new_grid;
                                    cfg.fleet = None;
                                    restart_offset = rs.max_clock();
                                    let from_k = rs.header.k as usize;
                                    cfg.restart = Some(Arc::new(rs));
                                    events.push(RunEvent::Restarted {
                                        attempt: attempt + 1,
                                        from_k,
                                        ranks: cfg.grid.size(),
                                    });
                                    regridded = true;
                                }
                                Err(e) => {
                                    events.push(RunEvent::CheckpointRejected {
                                        attempt,
                                        reason: format!(
                                            "elastic re-grid infeasible ({e}); same-grid restart"
                                        ),
                                    });
                                    snap = Some(s);
                                }
                            }
                        }
                    }

                    if !regridded {
                        // Same-grid restart: swap the slow GCDs for spares
                        // (the full-rerun exclusion), then resume from the
                        // snapshot if one survived validation.
                        let base = cfg
                            .fleet
                            .clone()
                            .unwrap_or_else(|| GcdFleet::uniform(cfg.grid.size()));
                        cfg.fleet = Some(base.replacing(&scan.slow));
                        cfg.faults = cfg.faults.without_gcds(&scan.slow);
                        events.push(RunEvent::Excluded {
                            attempt,
                            gcds: scan.slow,
                        });
                        if let Some(s) = snap {
                            restart_offset = s.max_clock();
                            let from_k = s.header.k as usize;
                            cfg.restart = Some(Arc::new(s));
                            events.push(RunEvent::Restarted {
                                attempt: attempt + 1,
                                from_k,
                                ranks: cfg.grid.size(),
                            });
                        }
                    }
                    attempt += 1;
                }
                RecoveryPolicy::RetryWithBackoff { max_retries, .. } => {
                    if attempt > max_retries {
                        events.push(RunEvent::GaveUp { attempts: attempt });
                        return SupervisedOutcome {
                            events,
                            outcome: out,
                            attempts: attempt,
                            detection_iter,
                            total_cost,
                            recovered: false,
                        };
                    }
                    total_cost += backoff;
                    attempt += 1;
                    events.push(RunEvent::Retried { attempt, backoff });
                    backoff *= 2.0;
                }
            }
        }
    }
}

/// Convenience: what fraction of the fault-free baseline the supervised
/// outcome recovered (1.0 = full recovery).
pub fn recovery_ratio(supervised: &SupervisedOutcome, baseline: &RunOutcome) -> f64 {
    supervised.outcome.perf.gflops_per_gcd / baseline.perf.gflops_per_gcd
}

/// Cost-based recovery ratio: the fault-free baseline runtime divided by
/// everything the supervised campaign actually spent — truncated attempts,
/// scans, backoffs, and restarted tails. `1.0` means the incident was free;
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
    use crate::solve::{run, RunConfig};
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
            k <= sup.monitor.report_every,
            "detected only at iteration {k}"
        );
    }

    #[test]
    fn graceful_degradation_accepts_the_run() {
        let sup = Supervisor {
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::GracefulDegradation,
        };
        let out = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Degraded { .. })));
    }

    #[test]
    fn retry_gives_up_on_a_persistent_fault() {
        let sup = Supervisor {
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                backoff: 60.0,
            },
        };
        let out = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        assert!(!out.recovered);
        assert_eq!(out.attempts, 3);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::GaveUp { .. })));
        // Backoff is charged: 60 + 120.
        assert!(out.total_cost > 180.0);
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
