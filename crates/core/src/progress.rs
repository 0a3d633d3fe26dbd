//! Progress monitoring and early termination (§VI-B "Progress monitoring").
//!
//! "Large runs at full scale are always at the peril of process and node
//! failures … It is therefore prudent to have built-in mechanisms to track
//! and report the calculation's progress, and be able to terminate abnormal
//! runs." The monitor compares each iteration's measured kernel times
//! against the device model's expectation (the paper compares against the
//! Fig. 5/6 reference curves) and raises an alert when GETRF or the
//! trailing GEMM runs more than [`ProgressMonitor::SLOWDOWN_THRESHOLD`]
//! times slower than expected. The check looks at one record at a time:
//! the supervisor runs it on every rank as each record closes, and
//! [`ProgressMonitor::analyze`] folds it over a finished series.

use crate::factor::IterRecord;
use crate::grid::ProcessGrid;
use crate::local::count_owned;
use mxp_gpusim::GcdModel;

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

    /// Checks a rank's finished series against the model expectation and
    /// returns its alerts plus whether the run should be terminated.
    pub fn analyze(
        records: &[IterRecord],
        dev: &GcdModel,
        grid: &ProcessGrid,
        n: usize,
        b: usize,
        owner_coord: (usize, usize),
        lookahead: bool,
    ) -> (Vec<Alert>, bool) {
        let expect = Expectation {
            dev,
            grid: *grid,
            n,
            b,
            owner_coord,
            lookahead,
        };
        let mut alerts = Vec::new();
        for rec in records {
            expect.check(rec, &mut alerts);
        }
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

/// What the device model expects of one rank's records: the per-record
/// check behind both [`ProgressMonitor::analyze`] and the supervisor.
pub(crate) struct Expectation<'a> {
    pub(crate) dev: &'a GcdModel,
    pub(crate) grid: ProcessGrid,
    pub(crate) n: usize,
    pub(crate) b: usize,
    /// The rank's grid coordinates.
    pub(crate) owner_coord: (usize, usize),
    pub(crate) lookahead: bool,
}

impl Expectation<'_> {
    /// Appends `rec`'s alerts: the GETRF check's, then the GEMM check's.
    pub(crate) fn check(&self, rec: &IterRecord, alerts: &mut Vec<Alert>) {
        let (dev, grid, b) = (self.dev, &self.grid, self.b);
        let n_b = self.n / b;
        let n_l = self.n / grid.p_r;
        let (my_r, my_c) = self.owner_coord;
        let total_r = count_owned(n_b, my_r, grid.p_r);
        let total_c = count_owned(n_b, my_c, grid.p_c);
        let k = rec.k;
        let (kr, kc) = grid.owner_of_block(k, k);

        if (kr, kc) == self.owner_coord && rec.getrf > 0.0 {
            push_if_slow(alerts, k, "getrf", rec.getrf, dev.getrf_time(b));
        }

        // Expected GEMM time mirrors the driver's decomposition. With
        // look-ahead, iteration k applies the previous panels as two
        // strips plus a remainder; thin strips run at lower model rates,
        // so a monolithic estimate would raise false alerts.
        let m_cur = (total_r - count_owned(k + 1, my_r, grid.p_r)) * b;
        let n_cur = (total_c - count_owned(k + 1, my_c, grid.p_c)) * b;
        let expect = if self.lookahead {
            if k == 0 {
                0.0 // iteration 0 does no trailing update
            } else {
                let m_prev = (total_r - count_owned(k, my_r, grid.p_r)) * b;
                let n_prev = (total_c - count_owned(k, my_c, grid.p_c)) * b;
                let mut e = 0.0;
                if my_r == kr && n_prev > 0 {
                    e += dev.gemm_mixed_time(b.min(m_prev), n_prev, b, n_l);
                }
                if my_c == kc && m_cur > 0 && n_prev > 0 {
                    e += dev.gemm_mixed_time(m_cur, b.min(n_prev), b, n_l);
                }
                if m_cur > 0 && n_cur > 0 {
                    e += dev.gemm_mixed_time(m_cur, n_cur, b, n_l);
                }
                e
            }
        } else if m_cur > 0 && n_cur > 0 {
            dev.gemm_mixed_time(m_cur, n_cur, b, n_l)
        } else {
            0.0
        };
        if rec.gemm > 0.0 && expect > 0.0 {
            push_if_slow(alerts, k, "gemm", rec.gemm, expect);
        }
    }
}

fn push_if_slow(
    alerts: &mut Vec<Alert>,
    k: usize,
    component: &'static str,
    measured: f64,
    expected: f64,
) {
    if expected > 0.0 && measured > ProgressMonitor::SLOWDOWN_THRESHOLD * expected {
        alerts.push(Alert {
            k,
            component,
            slowdown: measured / expected,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::IterRecord;
    use mxp_gpusim::GcdModel;

    fn healthy_records(dev: &GcdModel, grid: &ProcessGrid, n: usize, b: usize) -> Vec<IterRecord> {
        let n_b = n / b;
        let n_l = n / grid.p_r;
        (0..n_b)
            .map(|k| {
                let blocks_left_r = (n_b - k - 1).div_ceil(grid.p_r);
                let blocks_left_c = (n_b - k - 1).div_ceil(grid.p_c);
                let m = blocks_left_r * b;
                let nn = blocks_left_c * b;
                IterRecord {
                    k,
                    getrf: if grid.owner_of_block(k, k) == (0, 0) {
                        dev.getrf_time(b)
                    } else {
                        0.0
                    },
                    gemm: if m > 0 && nn > 0 {
                        dev.gemm_mixed_time(m, nn, b, n_l)
                    } else {
                        0.0
                    },
                    ..Default::default()
                }
            })
            .collect()
    }

    #[test]
    fn healthy_run_raises_no_alerts() {
        let dev = GcdModel::mi250x_gcd();
        let grid = ProcessGrid::col_major(2, 2, 4);
        let recs = healthy_records(&dev, &grid, 4096, 256);
        let (alerts, terminate) =
            ProgressMonitor::analyze(&recs, &dev, &grid, 4096, 256, (0, 0), false);
        assert!(alerts.is_empty(), "{alerts:?}");
        assert!(!terminate);
    }

    #[test]
    fn fabric_hang_triggers_termination() {
        // §VI-B: "We observed several fabric hangs during this Frontier run
        // which could have been shutdown by our early termination
        // mechanism."
        let dev = GcdModel::mi250x_gcd();
        let grid = ProcessGrid::col_major(2, 2, 4);
        let mut recs = healthy_records(&dev, &grid, 4096, 256);
        for rec in recs.iter_mut().take(8) {
            rec.gemm *= 50.0; // pathological slowdown
        }
        let (alerts, terminate) =
            ProgressMonitor::analyze(&recs, &dev, &grid, 4096, 256, (0, 0), false);
        assert!(alerts.len() >= 5);
        assert!(terminate);
        assert!(alerts[0].slowdown > 10.0);
    }

    #[test]
    fn mild_jitter_is_tolerated() {
        let dev = GcdModel::mi250x_gcd();
        let grid = ProcessGrid::col_major(2, 2, 4);
        let mut recs = healthy_records(&dev, &grid, 4096, 256);
        for rec in recs.iter_mut() {
            rec.gemm *= 1.3; // 30% off nominal: not alert-worthy
        }
        let (alerts, _) = ProgressMonitor::analyze(&recs, &dev, &grid, 4096, 256, (0, 0), false);
        assert!(alerts.is_empty());
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
