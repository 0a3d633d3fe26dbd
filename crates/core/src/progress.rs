//! Progress monitoring and early termination (§VI-B "Progress monitoring").
//!
//! "Large runs at full scale are always at the peril of process and node
//! failures … It is therefore prudent to have built-in mechanisms to track
//! and report the calculation's progress, and be able to terminate abnormal
//! runs." The monitor compares each iteration's charged kernel seconds
//! with the device-model seconds the stepper recorded beside them when it
//! charged the same work (the paper compares against the Fig. 5/6
//! reference curves), and raises an alert when GETRF or the trailing GEMM
//! runs more than [`ProgressMonitor::SLOWDOWN_THRESHOLD`] times slower
//! than its model. [`ProgressMonitor::check`] looks at one record at a
//! time: the supervisor runs it on every rank as each record closes, and
//! [`ProgressMonitor::analyze`] folds it over a finished series.

use crate::factor::IterRecord;

/// A detected anomaly in the run's progress.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Iteration the anomaly was observed at.
    pub k: usize,
    /// Component that regressed: "getrf" or "gemm".
    pub component: &'static str,
    /// Measured / expected time ratio.
    pub slowdown: f64,
}

/// The progress monitor. Its policy is three constants, the same for
/// every run.
#[derive(Debug)]
pub struct ProgressMonitor;

impl ProgressMonitor {
    /// Report cadence: [`ProgressMonitor::report_line`] summarizes every
    /// this many iterations.
    pub const REPORT_EVERY: usize = 10;
    /// Alert when a kernel runs this many times slower than the model.
    pub const SLOWDOWN_THRESHOLD: f64 = 2.0;
    /// Terminate the run once one rank has raised this many alerts (the
    /// "quickly terminate runs that incur a significant slowdown" policy).
    pub const MAX_ALERTS: usize = 5;

    /// `rec`'s alerts: GETRF's, then the trailing GEMM's. A component
    /// the record charged no model work to raises none.
    pub fn check(rec: &IterRecord) -> impl Iterator<Item = Alert> {
        let k = rec.k;
        [
            ("getrf", rec.getrf, rec.getrf_model),
            ("gemm", rec.gemm, rec.gemm_model),
        ]
        .into_iter()
        .filter(|&(_, measured, model)| model > 0.0 && measured > Self::SLOWDOWN_THRESHOLD * model)
        .map(move |(component, measured, model)| Alert {
            k,
            component,
            slowdown: measured / model,
        })
    }

    /// Checks a rank's finished series and returns its alerts plus
    /// whether the run should be terminated.
    pub fn analyze(records: &[IterRecord]) -> (Vec<Alert>, bool) {
        let alerts: Vec<Alert> = records.iter().flat_map(Self::check).collect();
        let terminate = alerts.len() >= Self::MAX_ALERTS;
        (alerts, terminate)
    }

    /// Formats the periodic progress line for iteration `k` (the paper's
    /// "detailed progress report for each component at definable
    /// iterations").
    pub fn report_line(rec: &IterRecord, n_b: usize) -> Option<String> {
        if !rec.k.is_multiple_of(Self::REPORT_EVERY) {
            return None;
        }
        Some(format!(
            "iter {:>6}/{:<6} getrf {:>9.3}ms trsm {:>9.3}ms cast {:>9.3}ms gemm {:>9.3}ms bcast {:>9.3}ms wait {:>9.3}ms hidden {:>9.3}ms",
            rec.k,
            n_b,
            rec.getrf * 1e3,
            rec.trsm * 1e3,
            rec.cast * 1e3,
            rec.gemm * 1e3,
            rec.bcast * 1e3,
            rec.wait * 1e3,
            rec.hidden * 1e3,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use mxp_gpusim::GcdModel;

    /// Rank (0, 0)'s records of a nominal-speed run without look-ahead:
    /// every charge equals its model seconds.
    fn healthy_records(dev: &GcdModel, grid: &ProcessGrid, n: usize, b: usize) -> Vec<IterRecord> {
        let n_b = n / b;
        let n_l = n / grid.p_r;
        (0..n_b)
            .map(|k| {
                let m = (n_b - k - 1).div_ceil(grid.p_r) * b;
                let nn = (n_b - k - 1).div_ceil(grid.p_c) * b;
                let getrf = if grid.owner_of_block(k, k) == (0, 0) {
                    dev.getrf_time(b)
                } else {
                    0.0
                };
                let gemm = if m > 0 && nn > 0 {
                    dev.gemm_mixed_time(m, nn, b, n_l)
                } else {
                    0.0
                };
                IterRecord {
                    k,
                    getrf,
                    getrf_model: getrf,
                    gemm,
                    gemm_model: gemm,
                    ..Default::default()
                }
            })
            .collect()
    }

    fn records() -> Vec<IterRecord> {
        let grid = ProcessGrid::col_major(2, 2, 4);
        healthy_records(&GcdModel::mi250x_gcd(), &grid, 4096, 256)
    }

    #[test]
    fn healthy_run_raises_no_alerts() {
        let (alerts, terminate) = ProgressMonitor::analyze(&records());
        assert!(alerts.is_empty(), "{alerts:?}");
        assert!(!terminate);
    }

    #[test]
    fn fabric_hang_triggers_termination() {
        // §VI-B: "We observed several fabric hangs during this Frontier run
        // which could have been shutdown by our early termination
        // mechanism."
        let mut recs = records();
        for rec in recs.iter_mut().take(8) {
            rec.gemm *= 50.0; // pathological slowdown
        }
        let (alerts, terminate) = ProgressMonitor::analyze(&recs);
        assert!(alerts.len() >= 5);
        assert!(terminate);
        assert!(alerts[0].slowdown > 10.0);
    }

    #[test]
    fn mild_jitter_is_tolerated() {
        let mut recs = records();
        for rec in recs.iter_mut() {
            rec.gemm *= 1.3; // 30% off nominal: not alert-worthy
        }
        let (alerts, _) = ProgressMonitor::analyze(&recs);
        assert!(alerts.is_empty());
    }

    #[test]
    fn getrf_alerts_before_gemm_and_unmodeled_work_never_alerts() {
        let rec = IterRecord {
            k: 3,
            getrf: 3.0,
            getrf_model: 1.0,
            gemm: 5.0,
            gemm_model: 2.0,
            // Charged seconds with no model work behind them.
            trsm: 9.0,
            ..Default::default()
        };
        let alerts: Vec<Alert> = ProgressMonitor::check(&rec).collect();
        let got: Vec<_> = alerts
            .iter()
            .map(|a| (a.k, a.component, a.slowdown))
            .collect();
        assert_eq!(got, [(3, "getrf", 3.0), (3, "gemm", 2.5)]);
        let unmodeled = IterRecord {
            gemm: 1.0,
            ..Default::default()
        };
        assert_eq!(ProgressMonitor::check(&unmodeled).count(), 0);
    }

    #[test]
    fn report_cadence() {
        let rec = IterRecord {
            k: 2 * ProgressMonitor::REPORT_EVERY,
            ..Default::default()
        };
        assert!(ProgressMonitor::report_line(&rec, 100).is_some());
        let rec = IterRecord {
            k: 2 * ProgressMonitor::REPORT_EVERY + 1,
            ..Default::default()
        };
        assert!(ProgressMonitor::report_line(&rec, 100).is_none());
    }
}
