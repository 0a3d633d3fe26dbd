//! `hplai` — command-line runner for the benchmark, e.g.
//! `hplai --system frontier --mode critical --nl 119808 --b 3072 --pr 172
//! --pc 172 --qr 4 --qc 2 --algo ring2m` or `hplai --inject slow-gcd:3x
//! --supervise`. Its flags are the [`HPLAI`] front-end of the knob table
//! (`hplai --help`). Modes: `functional` (real math + verification),
//! `timing` (simulated clocks on the event host), `critical` (closed-form
//! estimate of the same validated configuration, refusing the flags it
//! never reads). `--supervise` runs the [`Supervisor`]'s
//! abort/scan/exclude/rerun loop and prints its events as JSON Lines.
//!
//! Exit codes: 0 on success; 1 when a functional solve does not converge
//! or a supervised run does not recover; 2 on a usage or configuration
//! error, with stderr naming the flag.

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::fault::FaultPlan;
use hplai_core::knobs::{Key, KnobError, Mode, Pairs, HPLAI};
use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::{run, RunConfig, RunOutcome};
use hplai_core::supervisor::{recovery_ratio, Supervisor};
use hplai_core::trace;
use std::process::exit;

/// The run the flags describe, and the flags; or exit 2 naming what is
/// wrong (with the usage text for `--help` or an unknown flag).
fn parse_args() -> ((RunConfig, Mode), Pairs) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |pairs| Ok((HPLAI.run(&pairs)?, pairs));
    HPLAI.parse_flags(&args).and_then(run).unwrap_or_else(|e| {
        if e != KnobError::Help {
            eprintln!("hplai: {e}");
        }
        if matches!(e, KnobError::Help | KnobError::Unknown(_)) {
            eprint!("usage: hplai [OPTION]...\n{}", HPLAI.usage());
        }
        exit(2)
    })
}

/// Runs `cfg` supervised, printing its JSONL events and the recovery
/// against the fault-free baseline; returns the outcome and the recovery.
fn supervised_run(cfg: &RunConfig) -> (RunOutcome, bool) {
    let sup = Supervisor::with_rerun(1.15, 2);
    let supervised = sup.supervise(cfg);
    print!("{}", trace::event_log_jsonl(&supervised.events));
    if let Some(k) = supervised.detection_iter {
        println!("supervisor: first anomaly detected at iteration {k}");
    }
    let verdict = if supervised.recovered {
        "recovered"
    } else {
        "NOT recovered"
    };
    println!(
        "supervisor: {} attempt(s), total simulated cost {:.4} s, {verdict}",
        supervised.attempts, supervised.total_cost,
    );
    if !cfg.faults.is_empty() {
        let mut clean = cfg.clone();
        clean.faults = FaultPlan::new();
        let ratio = recovery_ratio(&supervised, &run(&clean));
        println!(
            "supervisor: final throughput is {:.1}% of the fault-free baseline",
            100.0 * ratio
        );
    }
    (supervised.outcome, supervised.recovered)
}

fn main() {
    let ((cfg, mode), pairs) = parse_args();
    let (n, b, grid) = (cfg.n, cfg.b, cfg.grid);
    println!(
        "hplai: {} | mode {} | N = {} (N_L {}) | B {} | grid {}x{} ({}{}x{}) | {} | {} | lookahead {}",
        cfg.sys.name, mode.name(), n, n / grid.p_r, b, grid.p_r, grid.p_c,
        if pairs.switch(Key::ColMajor) { "col-major, node " } else { "" },
        pairs.uint(Key::Qr).unwrap_or(0), pairs.uint(Key::Qc).unwrap_or(0),
        cfg.algo.label(), cfg.prec.tag(), cfg.lookahead,
    );

    if mode == Mode::Critical {
        let mut critical = CriticalConfig::new(n, b, grid, cfg.algo);
        critical.lookahead = cfg.lookahead;
        let out = critical_time(&cfg.sys, &critical);
        println!(
            "estimated runtime {:.1} s (factor {:.1} + IR {:.1})",
            out.perf.runtime, out.perf.factor_time, out.perf.ir_time
        );
        println!(
            "performance: {:.1} GFLOPS/GCD | {:.4} EFLOPS total | {:.1} GFLOPS/W",
            out.perf.gflops_per_gcd, out.perf.eflops, out.gflops_per_watt
        );
        return;
    }
    let (out, recovered) = if pairs.switch(Key::Supervise) {
        supervised_run(&cfg)
    } else {
        (run(&cfg), true)
    };
    if let Some(path) = pairs.text(Key::Trace) {
        let json = trace::chrome_trace(out.records_rank0(), 0);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write trace {path}: {e}");
            exit(2);
        }
        println!("wrote Chrome trace to {path} (open in about:tracing / Perfetto)");
        print!("{}", trace::summary(out.records_rank0()));
    }
    if pairs.switch(Key::Progress) {
        let report = |rec| ProgressMonitor::report_line(rec, n / b);
        for line in out.records_rank0().iter().filter_map(report) {
            println!("{line}");
        }
        let (alerts, terminate) = ProgressMonitor::analyze(out.records_rank0());
        if !alerts.is_empty() {
            println!("progress alerts: {alerts:?} (terminate: {terminate})");
        }
    }
    println!(
        "simulated runtime {:.4} s (factor {:.4} + IR {:.4})",
        out.perf.runtime, out.perf.factor_time, out.perf.ir_time
    );
    println!(
        "performance: {:.1} GFLOPS/GCD | {:.6} EFLOPS total",
        out.perf.gflops_per_gcd, out.perf.eflops
    );
    if mode == Mode::Functional {
        let residual = out.scaled_residual.unwrap();
        println!(
            "verification: converged = {} in {} IR sweeps, scaled residual {:.3e} ({})",
            out.converged,
            out.ir_iters,
            residual,
            if residual < 16.0 { "PASSED" } else { "FAILED" }
        );
    }
    if !recovered || (mode == Mode::Functional && !out.converged) {
        exit(1);
    }
}
