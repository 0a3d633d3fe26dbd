//! # mxp-bench — harnesses that regenerate every table and figure
//!
//! One binary per paper exhibit (see DESIGN.md §3 for the index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I — architecture specifications |
//! | `table2` | Table II — cross-platform BLAS mapping |
//! | `fig3` | rocBLAS GEMM flop-rate heat map |
//! | `fig4` | total performance vs block size `B` at scale |
//! | `fig5` | per-iteration kernel rates, V100 |
//! | `fig6` | per-iteration kernel rates, MI250X GCD |
//! | `fig7` | GEMM rate vs LDA (the 122880 cliff) |
//! | `fig8` | communication techniques × node-local grids |
//! | `fig9` | memory-weak scaling + parallel efficiency |
//! | `fig10` | per-iteration timing breakdown, Frontier 64 GCDs |
//! | `fig11` | exascale achievement runs |
//! | `fig12` | run-to-run variability (warm-up) |
//! | `hpl_vs_hplai` | the §I "9.5× HPL" comparison |
//! | `strong_scaling` | §VI-A strong scaling (chart omitted in paper) |
//! | `slow_node_scan` | §VI-B slow-node identification |
//! | `model_vs_sim` | Eqs. (1)–(5) vs the simulators |
//!
//! Each binary prints a formatted table and writes `results/<name>.csv` and
//! `results/<name>.json` so EXPERIMENTS.md entries are regenerable.

use hplai_core::PerfReport;
use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A printable, persistable result table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Table title (also the output file stem).
    pub title: String,
    /// Which paper exhibit this regenerates.
    pub exhibit: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, exhibit: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            exhibit: exhibit.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (anything displayable).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {} ({})\n", self.title, self.exhibit));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table and persists CSV + JSON under `results/`.
    pub fn emit(&self, file_stem: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        let csv = self.headers.join(",")
            + "\n"
            + &self
                .rows
                .iter()
                .map(|r| r.join(","))
                .collect::<Vec<_>>()
                .join("\n")
            + "\n";
        fs::write(dir.join(format!("{file_stem}.csv")), csv).expect("write csv");
        fs::write(
            dir.join(format!("{file_stem}.json")),
            serde_json::to_string_pretty(self).expect("serialize"),
        )
        .expect("write json");
        eprintln!("wrote results/{file_stem}.csv and .json");
    }
}

/// Scheduler-phase breakdown of one event-backend run, from
/// [`mxp_msgsim::last_event_stats`]: where the host wall-clock went, so a
/// throughput regression is attributable to fiber switching, delivery, or
/// rank compute rather than a single opaque number. Serialized by the
/// scaling-sweep bin alongside its headline points.
#[derive(Clone, Debug, Serialize)]
pub struct SchedPhases {
    /// Worker seconds inside rank fibers (rank compute + switches).
    pub run_secs: f64,
    /// Worker seconds draining cross-shard inboxes.
    pub deliver_secs: f64,
    /// Worker seconds parked idle.
    pub idle_secs: f64,
    /// Estimated context-switch seconds (calibrated cost × resumes).
    pub switch_secs_est: f64,
    /// Fiber resumes performed.
    pub resumes: u64,
    /// Same-shard envelope deliveries.
    pub local_msgs: u64,
    /// Cross-shard envelope deliveries.
    pub cross_msgs: u64,
    /// Fiber stacks recycled from the pool.
    pub stacks_reused: u64,
    /// Fiber stacks freshly allocated.
    pub stacks_allocated: u64,
    /// Fraction of worker time that was scheduling overhead.
    pub sched_overhead: f64,
}

impl SchedPhases {
    /// Captures the breakdown of one [`mxp_msgsim::EventStats`].
    pub fn from_stats(s: &mxp_msgsim::EventStats) -> Self {
        SchedPhases {
            run_secs: s.run_secs,
            deliver_secs: s.deliver_secs,
            idle_secs: s.idle_secs,
            switch_secs_est: s.switch_secs_est,
            resumes: s.resumes,
            local_msgs: s.local_msgs,
            cross_msgs: s.cross_msgs,
            stacks_reused: s.stacks_reused,
            stacks_allocated: s.stacks_allocated,
            sched_overhead: s.sched_overhead(),
        }
    }

    /// One-line human rendering (the bins' progress output).
    pub fn describe(&self, shards: usize) -> String {
        format!(
            "{shards} shard(s); run {:.1}s, deliver {:.1}s, idle {:.1}s, switch est {:.1}s \
             over {} resumes; {} local + {} cross msgs; stacks {} reused / {} new; \
             sched overhead {:.1}%",
            self.run_secs,
            self.deliver_secs,
            self.idle_secs,
            self.switch_secs_est,
            self.resumes,
            self.local_msgs,
            self.cross_msgs,
            self.stacks_reused,
            self.stacks_allocated,
            100.0 * self.sched_overhead
        )
    }
}

/// A labelled [`PerfReport`] — the shared headline-number schema every
/// harness persists, so downstream tooling parses one format regardless of
/// which driver (emergent run, critical path, supervised rerun) produced
/// the numbers.
#[derive(Clone, Debug)]
pub struct NamedPerf {
    /// What the measurement is (system, config, scenario).
    pub label: String,
    /// The headline numbers.
    pub perf: PerfReport,
}

impl NamedPerf {
    /// Labels a report.
    pub fn new(label: impl Into<String>, perf: PerfReport) -> Self {
        NamedPerf {
            label: label.into(),
            perf,
        }
    }
}

impl Serialize for NamedPerf {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"label\":");
        serde::write_json_string(&self.label, out);
        out.push_str(",\"perf\":");
        self.perf.serialize_json(out);
        out.push('}');
    }
}

/// Persists labelled performance reports as `results/<stem>_perf.json`
/// (a JSON array serialized through [`PerfReport`]'s schema).
pub fn emit_perf_reports(file_stem: &str, reports: &[NamedPerf]) {
    let mut json = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str("  ");
        r.serialize_json(&mut json);
    }
    json.push_str("\n]\n");
    let path = results_dir().join(format!("{file_stem}_perf.json"));
    fs::write(&path, json).expect("write perf json");
    eprintln!("wrote results/{file_stem}_perf.json");
}

/// The `results/` directory (created on demand), anchored at the workspace
/// root: walk up from the current directory to the first ancestor holding
/// a `Cargo.toml` with a `[workspace]` table.
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    let r = dir.join("results");
                    fs::create_dir_all(&r).expect("create results dir");
                    return r;
                }
            }
        }
        if !dir.pop() {
            // Fall back to the current directory.
            let r = PathBuf::from("results");
            fs::create_dir_all(&r).expect("create results dir");
            return r;
        }
    }
}

/// Formats a flop rate as TFLOP/s with 1 decimal.
pub fn tf(rate: f64) -> String {
    format!("{:.1}", rate / 1e12)
}

/// Formats seconds with 3 decimals.
pub fn secs(t: f64) -> String {
    format!("{t:.3}")
}

/// Formats GFLOPS/GCD with 1 decimal (the paper's y-axis unit).
pub fn gflops(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", "Fig. 0", &["a", "value"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", "Fig. 0", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn named_perf_serializes_through_the_shared_schema() {
        let np = NamedPerf::new("frontier 64", PerfReport::new(1024, 4, 1.0, 0.8, 0.2));
        let mut s = String::new();
        np.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).expect("valid JSON");
        assert_eq!(v["label"], "frontier 64");
        assert!(v["perf"]["gflops_per_gcd"].as_f64().unwrap() > 0.0);
        assert!(v["perf"]["runtime"].as_f64().unwrap() == 1.0);
    }

    #[test]
    fn perf_schema_carries_backend_provenance() {
        // Downstream tooling keys on these fields to tell a hosted run
        // (and on which backend, at what rank count, at what host cost)
        // from a pure model evaluation; older readers ignore the extra
        // keys, older files fall back to the defaults.
        use hplai_core::Backend;
        let perf =
            PerfReport::new(1024, 4, 1.0, 0.8, 0.2).with_backend(Backend::EventTimed, 75_264, 0.25);
        let np = NamedPerf::new("frontier full extent", perf);
        let mut s = String::new();
        np.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).expect("valid JSON");
        assert_eq!(v["perf"]["backend"], "event-timed");
        assert_eq!(v["perf"]["simulated_ranks"].as_f64().unwrap(), 75_264.0);
        assert_eq!(v["perf"]["wall_vs_virtual_time"].as_f64().unwrap(), 0.25);
    }

    #[test]
    fn formatters() {
        assert_eq!(tf(123.45e12), "123.5");
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(gflops(80.66), "80.7");
    }
}
