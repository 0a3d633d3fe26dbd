//! `hplai` — command-line runner for the benchmark.
//!
//! ```text
//! hplai --system testbed --mode functional --nl 128 --b 16 --pr 2 --pc 2
//! hplai --system frontier --mode critical --nl 119808 --b 3072 \
//!       --pr 172 --pc 172 --qr 4 --qc 2 --algo ring2m
//! hplai --inject slow-gcd:3x --supervise
//! ```
//!
//! Modes: `functional` (real math + verification), `timing` (emergent LogP
//! simulation on the event host), `critical` (closed-form estimate; any
//! scale).
//!
//! `--inject SPEC` injects a fault (repeatable; see
//! [`FaultPlan::parse_spec`] for the grammar), and `--supervise` runs the
//! job under the [`Supervisor`]'s abort/scan/exclude/rerun loop, printing
//! the typed event log as JSON Lines.
//!
//! Exit codes: 0 on success; 1 when a functional solve does not converge
//! or a supervised run does not recover; 2 on a usage or configuration
//! error.

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::fault::FaultPlan;
use hplai_core::progress::ProgressMonitor;
use hplai_core::solve::{run, RunConfig, RunOutcome};
use hplai_core::supervisor::{recovery_ratio, Supervisor};
use hplai_core::trace;
use hplai_core::{frontier, summit, testbed, Backend, ProcessGrid, SystemSpec, TrailingPrecision};
use mxp_msgsim::BcastAlgo;
use std::process::exit;

#[derive(Debug)]
struct Args {
    system: String,
    mode: String,
    n_l: usize,
    b: usize,
    p_r: usize,
    p_c: usize,
    q_r: usize,
    q_c: usize,
    col_major: bool,
    algo: BcastAlgo,
    prec: TrailingPrecision,
    lookahead: bool,
    seed: u64,
    progress: bool,
    trace_path: Option<String>,
    inject: Vec<String>,
    supervise: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            system: "testbed".into(),
            mode: "functional".into(),
            n_l: 128,
            b: 16,
            p_r: 2,
            p_c: 2,
            q_r: 2,
            q_c: 2,
            col_major: false,
            algo: BcastAlgo::Lib,
            prec: TrailingPrecision::Fp16,
            lookahead: true,
            seed: 2022,
            progress: false,
            trace_path: None,
            inject: Vec::new(),
            supervise: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hplai [--system summit|frontier|testbed] [--mode functional|timing|critical]\n\
         \x20            [--nl N_L] [--b B] [--pr P_r] [--pc P_c] [--qr Q_r] [--qc Q_c]\n\
         \x20            [--col-major] [--algo bcast|ibcast|ring1|ring1m|ring2m]\n\
         \x20            [--precision fp16|bf16|fp32] [--no-lookahead] [--seed S] [--progress]\n\
         \x20            [--trace FILE] [--inject SPEC]... [--supervise]\n\
         fault specs: slow-gcd:3x[:g2] degrade:2x:k8[:g2] thermal:0.9[:k4][:g2]\n\
         \x20            fail:k10[:g2] link-lat:5ms[:from2|:to2|:all] link-bw:10x[:all]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--system" => args.system = val("--system"),
            "--mode" => args.mode = val("--mode"),
            "--nl" => args.n_l = val("--nl").parse().unwrap_or_else(|_| usage()),
            "--b" => args.b = val("--b").parse().unwrap_or_else(|_| usage()),
            "--pr" => args.p_r = val("--pr").parse().unwrap_or_else(|_| usage()),
            "--pc" => args.p_c = val("--pc").parse().unwrap_or_else(|_| usage()),
            "--qr" => args.q_r = val("--qr").parse().unwrap_or_else(|_| usage()),
            "--qc" => args.q_c = val("--qc").parse().unwrap_or_else(|_| usage()),
            "--col-major" => args.col_major = true,
            "--algo" => {
                args.algo = match val("--algo").as_str() {
                    "bcast" => BcastAlgo::Lib,
                    "ibcast" => BcastAlgo::IBcast,
                    "ring1" => BcastAlgo::Ring1,
                    "ring1m" => BcastAlgo::Ring1M,
                    "ring2m" => BcastAlgo::Ring2M,
                    other => {
                        eprintln!("unknown algo {other}");
                        usage()
                    }
                }
            }
            "--precision" => {
                args.prec = match val("--precision").as_str() {
                    "fp16" => TrailingPrecision::Fp16,
                    "bf16" => TrailingPrecision::Bf16,
                    "fp32" => TrailingPrecision::Fp32,
                    other => {
                        eprintln!("unknown precision {other}");
                        usage()
                    }
                }
            }
            "--no-lookahead" => args.lookahead = false,
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--progress" => args.progress = true,
            "--trace" => args.trace_path = Some(val("--trace")),
            "--inject" => args.inject.push(val("--inject")),
            "--supervise" => args.supervise = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn system_of(a: &Args) -> SystemSpec {
    match a.system.as_str() {
        "summit" => summit(),
        "frontier" => frontier(),
        "testbed" => {
            let q = a.q_r * a.q_c;
            testbed((a.p_r * a.p_c).div_ceil(q), q)
        }
        other => {
            eprintln!("unknown system {other}");
            usage()
        }
    }
}

/// Exits 2 unless every grid and node-tile extent is positive; runs before
/// [`system_of`], which sizes the testbed from them.
fn check_extents(a: &Args) {
    if [a.p_r, a.p_c, a.q_r, a.q_c].contains(&0) {
        eprintln!(
            "invalid configuration: grid {}x{} with node tile {}x{}: extents must be positive",
            a.p_r, a.p_c, a.q_r, a.q_c
        );
        exit(2);
    }
}

/// The process grid, or exit 2 when the grid does not split into nodes.
fn grid_of(a: &Args, sys: &SystemSpec) -> ProcessGrid {
    if a.col_major {
        let q = sys.gcds_per_node;
        if !(a.p_r * a.p_c).is_multiple_of(q) {
            eprintln!(
                "invalid configuration: grid {}x{} not divisible into {q}-GCD nodes",
                a.p_r, a.p_c
            );
            exit(2);
        }
        ProcessGrid::col_major(a.p_r, a.p_c, q)
    } else {
        if !(a.p_r.is_multiple_of(a.q_r) && a.p_c.is_multiple_of(a.q_c)) {
            eprintln!(
                "invalid configuration: grid {}x{} not tileable by {}x{} nodes",
                a.p_r, a.p_c, a.q_r, a.q_c
            );
            exit(2);
        }
        ProcessGrid::node_local(a.p_r, a.p_c, a.q_r, a.q_c)
    }
}

/// Runs `cfg` under the supervisor's abort/scan/exclude/rerun loop,
/// printing the JSONL event log and a recovery summary against the
/// fault-free baseline, and returns the final attempt's outcome and
/// whether the run recovered.
fn supervised_run(cfg: &RunConfig) -> (RunOutcome, bool) {
    let sup = Supervisor::with_rerun(1.15, 2);
    let supervised = sup.supervise(cfg);
    print!("{}", trace::event_log_jsonl(&supervised.events));
    if let Some(k) = supervised.detection_iter {
        println!("supervisor: first anomaly detected at iteration {k}");
    }
    println!(
        "supervisor: {} attempt(s), total simulated cost {:.4} s, {}",
        supervised.attempts,
        supervised.total_cost,
        if supervised.recovered {
            "recovered"
        } else {
            "NOT recovered"
        }
    );
    if !cfg.faults.is_empty() {
        let clean = cfg
            .to_builder()
            .faults(FaultPlan::new())
            .build()
            .expect("fault-free variant of a valid config is valid");
        let baseline = run(&clean);
        let ratio = recovery_ratio(&supervised, &baseline);
        println!(
            "supervisor: final throughput is {:.1}% of the fault-free baseline",
            100.0 * ratio
        );
    }
    (supervised.outcome, supervised.recovered)
}

fn main() {
    let a = parse_args();
    check_extents(&a);
    let sys = system_of(&a);
    let grid = grid_of(&a, &sys);
    let n = a.n_l * a.p_r;
    println!(
        "hplai: {} | mode {} | N = {} (N_L {}) | B {} | grid {}x{} ({}{}x{}) | {} | {} | lookahead {}",
        sys.name, a.mode, n, a.n_l, a.b, a.p_r, a.p_c,
        if a.col_major { "col-major, node " } else { "" },
        a.q_r, a.q_c,
        a.algo.label(), a.prec.tag(), a.lookahead,
    );

    match a.mode.as_str() {
        "critical" => {
            let out = critical_time(
                &sys,
                &CriticalConfig {
                    lookahead: a.lookahead,
                    ..CriticalConfig::new(n, a.b, grid, a.algo)
                },
            );
            println!(
                "estimated runtime {:.1} s (factor {:.1} + IR {:.1})",
                out.perf.runtime, out.perf.factor_time, out.perf.ir_time
            );
            println!(
                "performance: {:.1} GFLOPS/GCD | {:.4} EFLOPS total | {:.1} GFLOPS/W",
                out.perf.gflops_per_gcd, out.perf.eflops, out.gflops_per_watt
            );
        }
        mode @ ("functional" | "timing") => {
            let mut faults = FaultPlan::new();
            for spec in &a.inject {
                // Default fault target: the last GCD of the grid, so the
                // straggler is never the panel-owning rank 0.
                faults = faults
                    .parse_spec(spec, grid.size().saturating_sub(1))
                    .unwrap_or_else(|e| {
                        eprintln!("bad --inject spec: {e}");
                        usage()
                    });
            }
            let builder = if mode == "timing" {
                // The event host's clocks are bitwise equal to the thread
                // host's, and it is not capped at 8,192 ranks.
                RunConfig::timing(sys.clone(), grid, n, a.b).backend(Backend::EventTimed)
            } else {
                RunConfig::functional(sys.clone(), grid, n, a.b)
            };
            let cfg = builder
                .algo(a.algo)
                .lookahead(a.lookahead)
                .seed(a.seed)
                .prec(a.prec)
                .faults(faults)
                .build()
                .unwrap_or_else(|e| {
                    eprintln!("invalid configuration: {e}");
                    exit(2)
                });
            let (out, recovered) = if a.supervise {
                supervised_run(&cfg)
            } else {
                (run(&cfg), true)
            };
            if let Some(path) = &a.trace_path {
                let json = trace::chrome_trace(out.records_rank0(), 0);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write trace {path}: {e}");
                    exit(2);
                }
                println!("wrote Chrome trace to {path} (open in about:tracing / Perfetto)");
                print!("{}", trace::summary(out.records_rank0()));
            }
            if a.progress {
                for rec in out.records_rank0() {
                    if let Some(line) = ProgressMonitor::report_line(rec, n / a.b) {
                        println!("{line}");
                    }
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
            if mode == "functional" {
                println!(
                    "verification: converged = {} in {} IR sweeps, scaled residual {:.3e} ({})",
                    out.converged,
                    out.ir_iters,
                    out.scaled_residual.unwrap(),
                    if out.scaled_residual.unwrap() < 16.0 {
                        "PASSED"
                    } else {
                        "FAILED"
                    }
                );
                if !out.converged {
                    exit(1);
                }
            }
            if !recovered {
                exit(1);
            }
        }
        other => {
            eprintln!("unknown mode {other}");
            usage()
        }
    }
}
