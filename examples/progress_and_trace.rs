//! Progress monitoring and run tracing (§VI-B best practices): run the
//! benchmark with per-iteration reporting, check it against the device
//! model, and export a Chrome-tracing timeline.
//!
//! ```text
//! cargo run --release -p hplai-core --example progress_and_trace
//! ```
//! Open the written `hplai_trace.json` in `about:tracing` or Perfetto.

use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::{run, RunConfig};
use hplai_core::trace;
use hplai_core::{testbed, ProcessGrid};
use mxp_gpusim::GcdFleet;
use mxp_msgsim::BcastAlgo;

fn main() {
    let grid = ProcessGrid::node_local(4, 4, 2, 2);
    let sys = testbed(4, 4);
    let cfg = RunConfig::timing(sys.clone(), grid, 8192, 512)
        .algo(BcastAlgo::Ring2M)
        .build_or_panic();

    println!("== healthy run ==");
    let out = run(&cfg);
    for rec in out.records_rank0() {
        if let Some(line) = ProgressMonitor::report_line(rec, 16) {
            println!("{line}");
        }
    }
    print!("{}", trace::summary(out.records_rank0()));
    let (alerts, _) = ProgressMonitor::analyze(out.records_rank0());
    println!("alerts: {}\n", alerts.len());

    println!("== run with a sick GCD (rank 0 at 40% speed) ==");
    // Find a fleet seed that degrades rank 0 so its own records show it.
    let fleet = (0..64)
        .map(|seed| GcdFleet::generate(16, seed, 0.0, 1, 0.4))
        .find(|f| f.speed(0) < 0.5)
        .expect("some seed degrades rank 0");
    let sick_cfg = cfg.to_builder().fleet(fleet).build_or_panic();
    let sick = run(&sick_cfg);
    let (alerts, terminate) = ProgressMonitor::analyze(sick.records_rank0());
    println!(
        "alerts: {} (first: {:?}); early termination: {terminate}",
        alerts.len(),
        alerts.first()
    );
    println!(
        "healthy {:.3}s vs sick {:.3}s — \"a single slow GPU can severely worsen total performance\"",
        out.perf.runtime, sick.perf.runtime
    );

    let path = "hplai_trace.json";
    std::fs::write(path, trace::chrome_trace(out.records_rank0(), 0)).expect("write trace");
    println!("\nwrote {path} — load it in about:tracing / Perfetto");
}
