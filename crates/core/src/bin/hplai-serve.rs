//! `hplai-serve` — the multi-solve service front-end: reads a batch file
//! ([`hplai_core::parse_batch`]), queues every expanded job on a
//! [`SolveService`], drains the queue concurrently, and prints the per-job
//! table plus the aggregate summary. Its flags are the [`HPLAI_SERVE`]
//! front-end of the knob table (`--help` lists them with the batch job
//! keys); `--workers`/`--cache-mb` override the batch file's `service`
//! section, `--log-dir` writes one JSONL event log per job, `--out` the
//! `service-v1` summary JSON, and `--floor S` exits 1 below S solves/s.

use hplai_core::knobs::{Key, KnobError, BATCH_JOB, HPLAI_SERVE};
use hplai_core::{parse_batch, ServiceConfig, SolveService};
use std::process::exit;

fn usage() -> ! {
    let (flags, keys) = (HPLAI_SERVE.usage(), BATCH_JOB.usage());
    eprint!("usage: hplai-serve --batch FILE [OPTION]...\n{flags}batch job keys:\n{keys}");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = HPLAI_SERVE.parse_flags(&argv).unwrap_or_else(|e| {
        if e != KnobError::Help {
            eprintln!("hplai-serve: {e}");
        }
        usage()
    });
    let Some(batch_path) = args.text(Key::Batch) else {
        usage()
    };
    let cache_bytes = HPLAI_SERVE.cache_bytes(&args).unwrap_or_else(|e| {
        eprintln!("hplai-serve: {e}");
        exit(2);
    });
    let text = std::fs::read_to_string(batch_path).unwrap_or_else(|e| {
        eprintln!("hplai-serve: cannot read {batch_path}: {e}");
        exit(2);
    });
    let batch = parse_batch(&text).unwrap_or_else(|e| {
        eprintln!("hplai-serve: {batch_path}: {e}");
        exit(2);
    });

    // CLI overrides beat the batch file's `service` section.
    let mut cfg = ServiceConfig::default();
    if let Some(w) = args.uint(Key::Workers).or(batch.workers) {
        cfg.workers = w.max(1);
    }
    if let Some(bytes) = cache_bytes.or(batch.cache_bytes()) {
        cfg.cache_bytes = bytes;
    }
    cfg.log_dir = args.text(Key::LogDir).map(Into::into);

    let n_jobs = batch.jobs.len();
    eprintln!(
        "hplai-serve: {n_jobs} jobs from {batch_path}, {} workers, {} MiB cache",
        cfg.workers,
        cfg.cache_bytes >> 20
    );
    let mut svc = SolveService::new(cfg);
    svc.submit_all(batch.jobs);
    let report = svc.drain();

    println!("job     ranks  backend     attempts  converged  ir  runtime_s  latency_ms");
    for j in &report.jobs {
        let o = &j.outcome;
        println!(
            "{:<7} {:<6} {:<11} {:<9} {:<10} {:<3} {:<10.4} {:.3}",
            j.id,
            o.outcome.perf.simulated_ranks,
            format!("{:?}", o.outcome.perf.backend),
            o.attempts,
            o.outcome.converged,
            o.outcome.ir_iters,
            o.outcome.perf.runtime,
            j.latency_secs * 1e3,
        );
    }
    let s = report.summary();
    println!(
        "\n{} jobs in {:.2} s on {} workers: {:.1} solves/s \
         (p50 {:.2} ms, p99 {:.2} ms), cache {} hits / {} misses, {} converged",
        s.jobs,
        s.wall_secs,
        s.workers,
        s.solves_per_sec,
        s.latency.p50_ms,
        s.latency.p99_ms,
        s.cache.hits,
        s.cache.misses,
        s.converged,
    );

    if let Some(out) = args.text(Key::Out) {
        let json = serde_json::to_string_pretty(&s).expect("summary serializes");
        std::fs::write(out, json).unwrap_or_else(|e| {
            eprintln!("hplai-serve: cannot write {out}: {e}");
            exit(2);
        });
        eprintln!("wrote {out}");
    }
    if s.converged != s.jobs {
        eprintln!(
            "hplai-serve: {} of {} jobs did not converge",
            s.jobs - s.converged,
            s.jobs
        );
        exit(1);
    }
    if let Some(floor) = args.text(Key::Floor).and_then(|f| f.parse::<f64>().ok()) {
        if s.solves_per_sec < floor {
            eprintln!(
                "FLOOR VIOLATION: {:.1} solves/s < required {floor}",
                s.solves_per_sec
            );
            exit(1);
        }
        eprintln!("floor ok: {:.1} solves/s >= {floor}", s.solves_per_sec);
    }
}
