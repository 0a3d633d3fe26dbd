//! `service_bench` — throughput of the multi-solve service.
//!
//! Queues small functional solves — a mixed batch cycling over seeds,
//! broadcast algorithms, precisions and both runtime backends — and drains
//! them through [`SolveService`]'s bounded worker pool of 4. Reports
//! solves per second and per-solve latency percentiles as
//! `BENCH_service.json`.
//!
//! ```text
//! repro service_bench [--quick] [--floor SOLVES_PER_SEC]
//! ```
//!
//! A full run drains 1000 jobs, `--quick` 200. The seed cycle (32 distinct
//! matrices) exercises the content-addressed matrix cache: most jobs reuse
//! a generated buffer instead of regenerating it. `--floor S` fails the
//! run below `S` solves per second — the CI guard against a scheduling or
//! caching regression.

use crate::{Args, Output, Table};
use hplai_core::{
    testbed, Backend, CacheStats, LatencyStats, PerfReport, ProcessGrid, RunConfig, ServiceConfig,
    SolveService, TrailingPrecision,
};
use mxp_msgsim::BcastAlgo;
use serde::Serialize;

/// Service worker threads.
const WORKERS: usize = 4;

/// The bench report.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Jobs drained.
    jobs: usize,
    /// Worker threads.
    workers: usize,
    /// Distinct generated matrices in the batch (the seed cycle).
    distinct_matrices: usize,
    /// Host wall-clock seconds for the batch.
    wall_secs: f64,
    /// Throughput headline: solves per wall-clock second.
    solves_per_sec: f64,
    /// Per-solve service-time percentiles.
    latency: LatencyStats,
    /// Matrix-cache counters over the drain.
    cache: CacheStats,
    /// Fleet-wide aggregate over every job's simulated run.
    aggregate: PerfReport,
}

/// The mixed batch: small functional solves over a cycle of seeds,
/// algorithms, precisions and backends — the "thousands of queued small
/// solves" service workload.
fn batch(jobs: usize, seeds: usize) -> Vec<RunConfig> {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let algos = [BcastAlgo::Lib, BcastAlgo::Ring2M];
    let precs = [TrailingPrecision::Fp16, TrailingPrecision::Bf16];
    let backends = [Backend::Functional, Backend::EventTimed];
    (0..jobs)
        .map(|i| {
            RunConfig::functional(testbed(1, 4), grid, 64, 8)
                .seed((i % seeds) as u64 + 1)
                .algo(algos[i % algos.len()])
                .prec(precs[(i / 2) % precs.len()])
                .backend(backends[(i / 4) % backends.len()])
                .build()
                .expect("the bench configuration is valid")
        })
        .collect()
}

pub fn run(args: &Args) -> Output {
    let jobs = if args.quick { 200 } else { 1000 };
    let seeds = 32;

    eprintln!("service_bench: {jobs} jobs ({seeds} distinct matrices), {WORKERS} workers");
    let mut svc = SolveService::new(ServiceConfig {
        workers: WORKERS,
        ..Default::default()
    });
    svc.submit_all(batch(jobs, seeds));
    let drained = svc.drain();
    assert!(
        drained.jobs.iter().all(|j| j.outcome.outcome.converged),
        "every bench solve converges"
    );

    let report = Report {
        jobs,
        workers: drained.workers,
        distinct_matrices: seeds,
        wall_secs: drained.wall_secs,
        solves_per_sec: drained.solves_per_sec,
        latency: drained.latency,
        cache: drained.cache,
        aggregate: drained.aggregate,
    };

    let mut t = Table::new(
        "Multi-solve service throughput",
        "BENCH_service",
        &[
            "jobs",
            "workers",
            "wall s",
            "solves/s",
            "p50 ms",
            "p90 ms",
            "p99 ms",
            "max ms",
            "cache hit%",
        ],
    );
    t.row(&[
        &report.jobs,
        &report.workers,
        &format!("{:.2}", report.wall_secs),
        &format!("{:.1}", report.solves_per_sec),
        &format!("{:.2}", report.latency.p50_ms),
        &format!("{:.2}", report.latency.p90_ms),
        &format!("{:.2}", report.latency.p99_ms),
        &format!("{:.2}", report.latency.max_ms),
        &format!("{:.1}", 100.0 * report.cache.hit_rate()),
    ]);
    let mut out = Output::default();
    out.note(t.render());
    if let Some(floor) = args.floor {
        out.gates.push((
            report.solves_per_sec >= floor,
            format!("{:.1} solves/s, floor {floor}", report.solves_per_sec),
        ));
    }
    out.report = Some(Box::new(report));
    out
}
