//! # mxp-bench — the exhibits that reproduce the paper
//!
//! One runner, `repro`, over one registry, [`EXHIBITS`]: an entry per
//! table, figure or study of the paper (DESIGN.md §3 has the index), plus
//! the four harnesses that measure the host (`kernel_bench`,
//! `scaling_sweep`, `service_bench`, `fault_sweep`).
//!
//! ```text
//! repro <exhibit> [flags]
//! ```
//!
//! `repro` with no argument lists the registry. An exhibit is a function
//! from its parsed [`Args`] to an [`Output`]: the tables, perf reports,
//! bench report, artifacts and notes it produced. Only the runner writes
//! files: each table goes to `results/<stem>.{csv,json}` ([`Table::emit`]),
//! perf reports to `results/<exhibit>_perf.json` ([`emit_perf_reports`]),
//! and a measuring harness's report to `BENCH_<name>.json` at the
//! repository root ([`write_bench`]; `results/BENCH_<name>.json` for a
//! `--quick` run, so a partial run never replaces a committed file).

mod args;
mod exhibits;

pub use args::{ArgError, Args};
pub use exhibits::{find, Exhibit, EXHIBITS};

use hplai_core::{PerfReport, RunOutcome, RunProvenance};
use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A printable, persistable result table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Table title.
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

    /// The table as CSV: a header line, then one line per row.
    pub fn csv(&self) -> String {
        let mut csv = self.headers.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// The table as pretty-printed JSON (no trailing newline).
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize")
    }

    /// Prints the table and persists CSV + JSON under `results/`.
    pub fn emit(&self, file_stem: &str) {
        println!("{}", self.render());
        write_result(&format!("{file_stem}.csv"), &self.csv());
        write_result(&format!("{file_stem}.json"), &self.json());
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
    /// How a hosted run produced them; `None` for closed-form and
    /// critical-path rows, which host nothing. Serialized as a sibling
    /// `"provenance"` object only when present.
    pub provenance: Option<RunProvenance>,
}

impl NamedPerf {
    /// Labels a report that no hosted run produced.
    pub fn new(label: impl Into<String>, perf: PerfReport) -> Self {
        NamedPerf {
            label: label.into(),
            perf,
            provenance: None,
        }
    }

    /// Labels a hosted run's report, keeping its provenance.
    pub fn hosted(label: impl Into<String>, out: &RunOutcome) -> Self {
        NamedPerf {
            label: label.into(),
            perf: out.perf,
            provenance: Some(out.provenance),
        }
    }
}

impl Serialize for NamedPerf {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"label\":");
        serde::write_json_string(&self.label, out);
        out.push_str(",\"perf\":");
        self.perf.serialize_json(out);
        if let Some(p) = &self.provenance {
            out.push_str(",\"provenance\":");
            p.serialize_json(out);
        }
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
    write_result(&format!("{file_stem}_perf.json"), &json);
}

/// Writes `contents` to `results/<name>`.
pub fn write_result(name: &str, contents: &str) {
    fs::write(results_dir().join(name), contents).expect("write result file");
    eprintln!("wrote results/{name}");
}

/// The one bench-file envelope: which exhibit wrote the report, and
/// whether it was a `--quick` run.
struct Envelope<'a> {
    exhibit: &'a str,
    quick: bool,
    report: &'a dyn Serialize,
}

impl Serialize for Envelope<'_> {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"schema\":\"mxp-bench-v1\",\"exhibit\":");
        serde::write_json_string(self.exhibit, out);
        out.push_str(",\"quick\":");
        self.quick.serialize_json(out);
        out.push_str(",\"report\":");
        self.report.serialize_json(out);
        out.push('}');
    }
}

/// Writes a measuring harness's report as `BENCH_<name>.json` in the
/// `mxp-bench-v1` envelope: at the repository root for a full run, under
/// `results/` for a `--quick` one, so a partial run never replaces the
/// committed trajectory.
pub fn write_bench(name: &str, exhibit: &str, quick: bool, report: &dyn Serialize) {
    let dir = if quick { results_dir() } else { repo_root() };
    let path = dir.join(format!("BENCH_{name}.json"));
    let envelope = Envelope {
        exhibit,
        quick,
        report,
    };
    fs::write(
        &path,
        serde_json::to_string_pretty(&envelope).expect("serialize"),
    )
    .expect("write bench file");
    eprintln!("wrote {}", path.display());
}

/// The workspace root: the first ancestor of the current directory whose
/// `Cargo.toml` has a `[workspace]` table (the current directory if none).
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    cwd.ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        })
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// The `results/` directory under [`repo_root`], created on demand.
fn results_dir() -> PathBuf {
    let r = repo_root().join("results");
    fs::create_dir_all(&r).expect("create results dir");
    r
}

/// What one exhibit run produced. The exhibit computes it; the runner
/// prints and persists it.
#[derive(Default)]
pub struct Output {
    /// Tables and the file stems they persist under.
    pub tables: Vec<(String, Table)>,
    /// Labelled perf reports, persisted as `results/<exhibit>_perf.json`.
    pub perf: Vec<NamedPerf>,
    /// A measuring harness's report, persisted by [`write_bench`].
    pub report: Option<Box<dyn Serialize>>,
    /// Other artifacts, as `(file name under results/, contents)`.
    pub files: Vec<(String, String)>,
    /// Lines printed after the tables.
    pub notes: Vec<String>,
    /// Floor gates as `(passed, description)`; a failed one makes the
    /// runner exit 1 after everything is written.
    pub gates: Vec<(bool, String)>,
}

impl Output {
    /// An output holding one table, persisted as `results/<stem>.{csv,json}`.
    pub fn new(stem: &str, table: Table) -> Self {
        let mut out = Output::default();
        out.table(stem, table);
        out
    }

    /// Adds a table persisted as `results/<stem>.{csv,json}`.
    pub fn table(&mut self, stem: &str, table: Table) {
        self.tables.push((stem.to_string(), table));
    }

    /// Adds a line printed after the tables.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
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
        use hplai_core::{run, testbed, Backend, ProcessGrid, RunConfig};
        let cfg = RunConfig::timing(testbed(1, 4), ProcessGrid::col_major(2, 2, 4), 1024, 256)
            .backend(Backend::EventTimed)
            .build()
            .unwrap();
        let np = NamedPerf::hosted("testbed 2x2", &run(&cfg));
        let mut s = String::new();
        np.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).expect("valid JSON");
        assert_eq!(v["perf"]["backend"], "event-timed");
        assert_eq!(v["perf"]["simulated_ranks"].as_f64().unwrap(), 4.0);
        assert!(v["perf"].get("wall_vs_virtual_time").is_none());
        assert!(v["provenance"]["wall_vs_virtual_time"].as_f64().unwrap() > 0.0);
        assert!(v["provenance"]["event_shards"].as_f64().unwrap() >= 1.0);
        // Rows no run hosted carry no provenance object at all.
        let mut s = String::new();
        NamedPerf::new("model", np.perf).serialize_json(&mut s);
        assert!(!s.contains("provenance"), "{s}");
    }

    #[test]
    fn registry_lists_every_exhibit_once() {
        let mut names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 23);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23, "duplicate exhibit name");
        let measured: Vec<&str> = EXHIBITS
            .iter()
            .filter(|e| e.bench.is_some())
            .map(|e| e.name)
            .collect();
        assert_eq!(
            measured,
            [
                "fault_sweep",
                "kernel_bench",
                "scaling_sweep",
                "service_bench"
            ]
        );
        assert!(find("fig11").is_some() && find("fig13").is_none());
    }

    #[test]
    fn bench_envelope_wraps_the_report() {
        let report = vec![1.5f64];
        let envelope = Envelope {
            exhibit: "fault_sweep",
            quick: true,
            report: &report,
        };
        let v = serde_json::from_str(&serde_json::to_string(&envelope).unwrap()).unwrap();
        assert_eq!(v["schema"], "mxp-bench-v1");
        assert_eq!(v["exhibit"], "fault_sweep");
        assert_eq!(v["quick"].as_bool(), Some(true));
        assert_eq!(v["report"][0].as_f64(), Some(1.5));
    }

    #[test]
    fn table_csv_has_a_header_and_one_line_per_row() {
        let mut t = Table::new("demo", "Fig. 0", &["a", "b"]);
        t.row(&[&1, &"x"]);
        assert_eq!(t.csv(), "a,b\n1,x\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(tf(123.45e12), "123.5");
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(gflops(80.66), "80.7");
    }
}
