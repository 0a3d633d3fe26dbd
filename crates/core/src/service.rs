//! The multi-solve service: batched, queued, concurrently-supervised
//! benchmark runs (DESIGN.md §13).
//!
//! PR 5's `RankCtx` refactor made every run self-contained — no globals,
//! no ambient communicator — precisely so many runs could share one
//! process. [`SolveService`] cashes that in: it accepts many
//! [`RunConfig`]s (programmatically via [`SolveService::submit`], or from
//! a JSON/JSONL batch file via [`parse_batch`] — the `hplai-serve` bin's
//! front-end), queues them, and [`SolveService::drain`]s the queue with a
//! bounded pool of worker threads. Each job runs under its own
//! [`Supervisor`]; per-job event logs are job-id-tagged and written to
//! uniquely-named files, so concurrent jobs sharing a log directory can
//! never interleave or clobber each other's streams.
//!
//! What is shared across jobs, and why it stays deterministic:
//!
//! * **The global rayon pool.** Worker threads dispatch kernels into the
//!   same pool; every parallel kernel in the workspace is bitwise
//!   deterministic at any thread count, so sharing costs nothing.
//! * **Per-thread scratch arenas.** A worker thread hosting event-backend
//!   jobs keeps its `mxp_blas::scratch` buffers warm across solves —
//!   repeated-shape batches allocate only on the first job (pinned by a
//!   zero-miss test in `tests/service.rs`).
//! * **The generated-matrix cache.** One [`MatrixCache`] is attached to
//!   every submitted config: jobs differing only in algorithm, precision,
//!   look-ahead or backend reuse the same generated bytes. Purity makes
//!   cache hits unobservable in results.
//!
//! Consequently a batch drained with `workers = 4` produces bitwise the
//! same per-job solutions, simulated clocks and event logs as the same
//! batch drained with `workers = 1` — the concurrency-determinism
//! integration test compares [`JobRecord::signature`]s across pool widths
//! and backends. Host-side quantities (latency percentiles, solves/s)
//! are the only things that vary, and they are excluded from signatures
//! just as a run's [`crate::RunProvenance`] sits outside its
//! [`PerfReport`].

use crate::cache::{CacheStats, MatrixCache};
use crate::checkpoint::fnv1a;
use crate::knobs::{Key, KnobError, Pairs, BATCH_JOB, SERVICE};
use crate::report::PerfReport;
use crate::solve::{ConfigError, RunConfig};
use crate::supervisor::{SupervisedOutcome, Supervisor};
use crate::trace::tagged_event_log_jsonl;
use serde::Serialize;
use serde_json::Value;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of a [`SolveService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (≥ 1; each job still fans out
    /// into the shared rayon pool / its own rank threads or fibers).
    pub workers: usize,
    /// Capacity of the shared generated-matrix cache, bytes.
    pub cache_bytes: usize,
    /// The supervisor every job runs under.
    pub supervisor: Supervisor,
    /// Directory receiving one job-id-tagged JSONL event log per job
    /// (created on demand). `None` keeps logs in memory only.
    pub log_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache_bytes: 256 << 20,
            supervisor: Supervisor::reporting(),
            log_dir: None,
        }
    }
}

/// One queued job: the id is assigned at submission and tags every event
/// the job emits; the index is the position within the current batch.
struct Job {
    id: u64,
    index: usize,
    cfg: RunConfig,
}

/// The name of the event-log file job `id` writes into the service's log
/// directory. Uniquely named per job — the fix for the log-collision bug
/// where two supervised jobs sharing a directory interleaved one stream.
pub fn job_log_filename(id: u64) -> String {
    format!("job{id:06}.events.jsonl")
}

/// Result of one drained job: the supervised outcome plus host-side
/// measurements. Simulated quantities are deterministic; `latency_secs`
/// and the scratch counters are host-side provenance and excluded from
/// [`JobRecord::signature`].
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job id assigned at submission (tags the event log).
    pub id: u64,
    /// The supervised run: event log, outcome, recovery provenance.
    pub outcome: SupervisedOutcome,
    /// Host wall-clock seconds this job spent executing (service time,
    /// not queue sojourn).
    pub latency_secs: f64,
    /// Scratch-arena acquisitions on the worker thread during this job.
    pub scratch_acquires: usize,
    /// Scratch-arena misses (fresh allocations) on the worker thread
    /// during this job. Zero in the warm steady state of a repeated-shape
    /// event-backend batch.
    pub scratch_misses: usize,
}

impl JobRecord {
    /// FNV-1a digest over every *simulated* quantity of this job: the
    /// job-tagged event log, the solution vector bits, rank 0's iteration
    /// records, every rank's phase totals, the performance report
    /// (simulated quantities only; the run's host provenance is left out),
    /// and the supervision provenance. Two runs of the same
    /// config must produce equal signatures regardless of worker count,
    /// rayon pool width, backend host or cache state — the
    /// concurrency-determinism test is built on this.
    pub fn signature(&self) -> u64 {
        let mut buf = tagged_event_log_jsonl(self.id, &self.outcome.events).into_bytes();
        let mut put = |bytes: &[u8]| buf.extend_from_slice(bytes);
        let out = &self.outcome.outcome;
        if let Some(x) = &out.solution {
            put(&x.len().to_le_bytes());
            for v in x {
                put(&v.to_bits().to_le_bytes());
            }
        }
        for r in out.records_rank0() {
            put(&r.k.to_le_bytes());
            for v in [r.getrf, r.trsm, r.cast, r.gemm, r.bcast, r.wait, r.hidden] {
                put(&v.to_bits().to_le_bytes());
            }
        }
        for t in &out.totals {
            for v in [t.getrf, t.trsm, t.cast, t.gemm, t.bcast, t.wait, t.hidden] {
                put(&v.to_bits().to_le_bytes());
            }
        }
        let perf = serde_json::to_string(&out.perf).expect("perf serializes infallibly");
        put(perf.as_bytes());
        if let Some(r) = out.scaled_residual {
            put(&r.to_bits().to_le_bytes());
        }
        put(&out.ir_iters.to_le_bytes());
        put(&[out.converged as u8, self.outcome.recovered as u8]);
        put(&self.outcome.attempts.to_le_bytes());
        put(&self.outcome.total_cost.to_bits().to_le_bytes());
        if let Some(k) = self.outcome.detection_iter {
            put(&k.to_le_bytes());
        }
        fnv1a(&buf)
    }
}

/// Latency percentiles over a drained batch, milliseconds.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencyStats {
    /// Mean per-solve service time.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest solve.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes the stats from per-job service times in seconds
    /// (nearest-rank percentiles).
    pub fn from_secs(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |q: f64| {
            let idx = (q * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx] * 1e3
        };
        LatencyStats {
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e3,
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            max_ms: sorted[sorted.len() - 1] * 1e3,
        }
    }
}

/// Aggregate result of one [`SolveService::drain`].
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Worker threads the batch was drained with.
    pub workers: usize,
    /// Host wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Jobs completed per wall-clock second — the service's throughput
    /// headline.
    pub solves_per_sec: f64,
    /// Per-solve service-time percentiles.
    pub latency: LatencyStats,
    /// Generated-matrix cache counters accumulated during this drain.
    pub cache: CacheStats,
    /// Fleet-wide aggregate over every job's simulated run: times and
    /// traffic are sums, `gflops_per_gcd` is the flops-weighted effective
    /// per-device rate, `eflops` is total work over total simulated time.
    /// `backend`/`simulated_ranks` describe the batch coarsely (mixed
    /// batches keep the default backend; ranks is the largest job) — the
    /// per-job provenance lives in each [`JobRecord`].
    pub aggregate: PerfReport,
}

impl ServiceReport {
    /// The serializable summary (everything except the per-job records).
    pub fn summary(&self) -> ServiceSummary {
        ServiceSummary {
            schema: "service-v1".to_string(),
            jobs: self.jobs.len(),
            workers: self.workers,
            converged: self
                .jobs
                .iter()
                .filter(|j| j.outcome.outcome.converged)
                .count(),
            recovered: self.jobs.iter().filter(|j| j.outcome.recovered).count(),
            wall_secs: self.wall_secs,
            solves_per_sec: self.solves_per_sec,
            latency: self.latency,
            cache: self.cache,
            aggregate: self.aggregate,
        }
    }
}

/// JSON-serializable drain summary (the `hplai-serve --out` schema).
#[derive(Clone, Debug, Serialize)]
pub struct ServiceSummary {
    /// Schema tag for downstream tooling (`"service-v1"`).
    pub schema: String,
    /// Jobs drained.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs whose solve converged.
    pub converged: usize,
    /// Jobs whose final attempt finished without early termination.
    pub recovered: usize,
    /// Host wall-clock seconds for the batch.
    pub wall_secs: f64,
    /// Throughput, solves per second.
    pub solves_per_sec: f64,
    /// Per-solve latency percentiles.
    pub latency: LatencyStats,
    /// Matrix-cache counters for the drain.
    pub cache: CacheStats,
    /// Fleet-wide simulated aggregate (see [`ServiceReport::aggregate`]).
    pub aggregate: PerfReport,
}

/// A long-running scheduler executing queued benchmark runs concurrently.
///
/// ```
/// use hplai_core::{testbed, ProcessGrid, RunConfig, ServiceConfig, SolveService};
///
/// let mut svc = SolveService::new(ServiceConfig { workers: 2, ..Default::default() });
/// let grid = ProcessGrid::col_major(2, 2, 4);
/// for seed in 1..=4 {
///     let cfg = RunConfig::functional(testbed(1, 4), grid, 64, 8)
///         .seed(seed)
///         .build()
///         .unwrap();
///     svc.submit(cfg);
/// }
/// let report = svc.drain();
/// assert_eq!(report.jobs.len(), 4);
/// assert!(report.jobs.iter().all(|j| j.outcome.outcome.converged));
/// ```
pub struct SolveService {
    cfg: ServiceConfig,
    cache: Arc<MatrixCache>,
    queue: VecDeque<Job>,
    next_id: u64,
}

impl SolveService {
    /// Creates an idle service with an empty queue and a fresh cache.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cache = Arc::new(MatrixCache::new(cfg.cache_bytes));
        SolveService {
            cfg,
            cache,
            queue: VecDeque::new(),
            next_id: 0,
        }
    }

    /// Queues one run and returns its job id. The service's shared matrix
    /// cache is attached to the config (replacing any cache it carried).
    pub fn submit(&mut self, cfg: RunConfig) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let mut cfg = cfg;
        cfg.cache = Some(Arc::clone(&self.cache));
        self.queue.push_back(Job {
            id,
            index: self.queue.len(),
            cfg,
        });
        id
    }

    /// Queues many runs; returns the ids in order.
    pub fn submit_all<I: IntoIterator<Item = RunConfig>>(&mut self, cfgs: I) -> Vec<u64> {
        cfgs.into_iter().map(|c| self.submit(c)).collect()
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The shared generated-matrix cache.
    pub fn cache(&self) -> &Arc<MatrixCache> {
        &self.cache
    }

    /// Executes every queued job on `workers` threads and returns the
    /// aggregate report (per-job records in submission order). Workers pop
    /// jobs from the shared queue, so scheduling is work-conserving; all
    /// simulated results are independent of the worker count.
    pub fn drain(&mut self) -> ServiceReport {
        let jobs: Vec<Job> = {
            let mut q = VecDeque::new();
            std::mem::swap(&mut q, &mut self.queue);
            q.into_iter().collect()
        };
        let n_jobs = jobs.len();
        let workers = self.cfg.workers.max(1).min(n_jobs.max(1));
        let supervisor = self.cfg.supervisor;
        let log_dir = self.cfg.log_dir.as_deref();
        if let Some(dir) = log_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create log dir {}: {e}", dir.display()));
        }
        let cache_before = self.cache.stats();

        let started = Instant::now();
        let queue: Mutex<VecDeque<Job>> = Mutex::new(jobs.into());
        let slots: Mutex<Vec<Option<JobRecord>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let job = queue.lock().expect("job queue lock").pop_front();
                    let Some(job) = job else { break };
                    let index = job.index;
                    let rec = run_job(&supervisor, log_dir, job);
                    slots.lock().expect("result slots lock")[index] = Some(rec);
                });
            }
        });
        let wall_secs = started.elapsed().as_secs_f64();

        let jobs: Vec<JobRecord> = slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|r| r.expect("every queued job produces a record"))
            .collect();
        let cache_after = self.cache.stats();
        let cache = CacheStats {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
            ..cache_after
        };
        let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_secs).collect();
        ServiceReport {
            workers,
            wall_secs,
            solves_per_sec: if wall_secs > 0.0 {
                n_jobs as f64 / wall_secs
            } else {
                0.0
            },
            latency: LatencyStats::from_secs(&latencies),
            cache,
            aggregate: aggregate_perf(&jobs),
            jobs,
        }
    }
}

/// Executes one supervised job on the calling worker thread, measuring
/// its service time and the worker-local scratch-arena deltas, and writes
/// its job-tagged event log if a log directory is configured.
fn run_job(supervisor: &Supervisor, log_dir: Option<&Path>, job: Job) -> JobRecord {
    let t0 = Instant::now();
    let (a0, m0) = mxp_blas::scratch::stats();
    let outcome = supervisor.supervise(&job.cfg);
    let (a1, m1) = mxp_blas::scratch::stats();
    let latency_secs = t0.elapsed().as_secs_f64();
    if let Some(dir) = log_dir {
        let path = dir.join(job_log_filename(job.id));
        std::fs::write(&path, tagged_event_log_jsonl(job.id, &outcome.events))
            .unwrap_or_else(|e| panic!("write event log {}: {e}", path.display()));
    }
    JobRecord {
        id: job.id,
        outcome,
        latency_secs,
        scratch_acquires: a1 - a0,
        scratch_misses: m1 - m0,
    }
}

/// Sums the batch's simulated runs into one fleet-wide [`PerfReport`].
fn aggregate_perf(jobs: &[JobRecord]) -> PerfReport {
    let mut agg = PerfReport::default();
    let mut flops = 0.0f64;
    let mut device_secs = 0.0f64;
    for j in jobs {
        let p = &j.outcome.outcome.perf;
        agg.runtime += p.runtime;
        agg.factor_time += p.factor_time;
        agg.ir_time += p.ir_time;
        agg.overlap_hidden += p.overlap_hidden;
        agg.comm_bytes += p.comm_bytes;
        agg.comm_wait += p.comm_wait;
        agg.simulated_ranks = agg.simulated_ranks.max(p.simulated_ranks);
        // Recover each job's flop count from its own throughput figures
        // (eflops = flops / runtime / 1e18), so the aggregate needs no
        // per-job problem-size bookkeeping.
        flops += p.eflops * p.runtime * 1e18;
        device_secs += p.runtime * p.simulated_ranks as f64;
    }
    if agg.runtime > 0.0 {
        agg.eflops = flops / agg.runtime / 1e18;
    }
    if device_secs > 0.0 {
        agg.gflops_per_gcd = flops / device_secs / 1e9;
    }
    agg
}

// ---------------------------------------------------------------------------
// Batch-file grammar (the Ramble-style workload-sweep front-end)
// ---------------------------------------------------------------------------

/// A parse/validation error of a batch file.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchError {
    /// The text is not valid JSON (nor valid JSONL).
    Parse(String),
    /// An object carries a key the grammar does not know.
    UnknownKey {
        /// Where the key appeared (`"batch"`, `"service"`, `"job 3"`).
        context: String,
        /// The offending key.
        key: String,
    },
    /// A known key carries an unusable value.
    BadValue {
        /// Job index (expansion order) the value belongs to, if any.
        job: usize,
        /// The key.
        key: String,
        /// What was wrong.
        msg: String,
    },
    /// The expanded configuration failed [`RunConfig`] validation.
    Config {
        /// Job index in expansion order.
        job: usize,
        /// The underlying validation error.
        err: ConfigError,
    },
    /// The file expanded to zero jobs.
    NoJobs,
    /// The file expands to more jobs than the cap ([`MAX_JOBS`]).
    TooManyJobs {
        /// The cap.
        cap: usize,
    },
}

impl BatchError {
    /// Places a knob error at job index `job` of `context`.
    fn from_knob(err: KnobError, job: usize, context: &str) -> BatchError {
        match err {
            KnobError::Unknown(key) => BatchError::UnknownKey {
                context: context.into(),
                key,
            },
            KnobError::Bad { key, msg } => BatchError::BadValue { job, key, msg },
            KnobError::Config(err) => BatchError::Config { job, err },
            KnobError::Help => BatchError::Parse(err.to_string()),
        }
    }
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Parse(msg) => write!(f, "batch file is not valid JSON/JSONL: {msg}"),
            BatchError::UnknownKey { context, key } => {
                write!(f, "unknown key {key:?} in {context}")
            }
            BatchError::BadValue { job, key, msg } => {
                write!(f, "job {job}: bad value for {key:?}: {msg}")
            }
            BatchError::Config { job, err } => write!(f, "job {job}: invalid configuration: {err}"),
            BatchError::NoJobs => write!(f, "batch file expands to zero jobs"),
            BatchError::TooManyJobs { cap } => write!(f, "batch file expands to over {cap} jobs"),
        }
    }
}

impl std::error::Error for BatchError {}

/// A parsed batch file: optional service overrides plus the fully
/// expanded job list (sweep arrays cross-multiplied, `repeat` unrolled).
#[derive(Debug)]
pub struct BatchFile {
    /// Worker-count override from the `service` section.
    pub workers: Option<usize>,
    /// Matrix-cache capacity override (megabytes) from `service`.
    pub cache_mb: Option<usize>,
    /// The expanded runs, in declaration/expansion order.
    pub jobs: Vec<RunConfig>,
}

impl BatchFile {
    /// [`cache_mb`](Self::cache_mb) in bytes; [`parse_batch`] refuses a
    /// value whose byte count overflows.
    pub fn cache_bytes(&self) -> Option<usize> {
        self.cache_mb.map(|mb| mb << 20)
    }
}

/// Most jobs one batch file may expand to. Every job is a [`RunConfig`]
/// (528 B with its `SystemSpec`) held until the drain, so the cap stops a
/// typo such as a `repeat` of 1e15 before anything is allocated. It is 100
/// times the 1000 jobs `service_bench` drains.
pub const MAX_JOBS: usize = 100_000;

/// Parses a batch file: a JSON document with optional `service`
/// (`workers`, `cache_mb`) and `defaults` sections and a `jobs` array, or
/// JSONL, one job object per line (a lone object without `jobs` is one
/// job). Each job merges over `defaults`; an **array** value sweeps, the
/// jobs being the cross-product of all array-valued keys (the Ramble
/// workload-sweep idiom), and `repeat: k` unrolls `k` copies with
/// consecutive seeds. Job keys are those [`BATCH_JOB`] lists, declared in
/// [`KNOBS`](crate::knobs::KNOBS). A file expanding to more than
/// [`MAX_JOBS`] jobs is refused.
pub fn parse_batch(text: &str) -> Result<BatchFile, BatchError> {
    let (service, defaults, specs) = match serde_json::from_str(text) {
        Ok(Value::Object(members)) if members.iter().any(|(k, _)| k == "jobs") => {
            parse_document(members)?
        }
        // A bare job object: the one-line JSONL degenerate case.
        Ok(spec @ Value::Object(_)) => (Pairs::default(), Vec::new(), vec![spec]),
        Ok(_) => return Err(BatchError::Parse("top level must be an object".into())),
        // Not one JSON document — try JSONL: every non-empty line must be
        // a job object.
        Err(whole_file_err) => {
            let lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
            let spec = |line| match serde_json::from_str(line) {
                Ok(v @ Value::Object(_)) => Ok(v),
                _ => Err(BatchError::Parse(whole_file_err.to_string())),
            };
            let specs = lines.map(spec).collect::<Result<_, _>>()?;
            (Pairs::default(), Vec::new(), specs)
        }
    };
    let jobs = expand_jobs(&defaults, &specs)?;
    if jobs.is_empty() {
        return Err(BatchError::NoJobs);
    }
    let knob_err = |e| BatchError::from_knob(e, 0, "service");
    SERVICE.cache_bytes(&service).map_err(knob_err)?;
    let (workers, cache_mb) = (service.uint(Key::Workers), service.uint(Key::CacheMb));
    Ok(BatchFile {
        workers,
        cache_mb,
        jobs,
    })
}

/// The `service` section, `defaults` and `jobs` of a batch document.
type Document = (Pairs, Vec<(String, Value)>, Vec<Value>);

fn parse_document(members: Vec<(String, Value)>) -> Result<Document, BatchError> {
    let mut doc: Document = Default::default();
    for (key, value) in members {
        let shape = |msg: &str| BatchError::BadValue {
            job: 0,
            key: key.clone(),
            msg: msg.into(),
        };
        match (key.as_str(), value) {
            ("service", Value::Object(svc)) => {
                let knob_err = |e| BatchError::from_knob(e, 0, "service");
                doc.0 = SERVICE.parse_json(&svc).map_err(knob_err)?;
            }
            ("defaults", Value::Object(d)) => doc.1 = d,
            ("jobs", Value::Array(j)) => doc.2 = j,
            ("service" | "defaults", _) => return Err(shape("must be an object")),
            ("jobs", _) => return Err(shape("must be an array")),
            _ => {
                let context = "batch".into();
                return Err(BatchError::UnknownKey { context, key });
            }
        }
    }
    Ok(doc)
}

/// Merges each spec over the defaults, expands sweep arrays to their
/// cross-product and unrolls `repeat`, producing concrete [`RunConfig`]s.
/// Each expansion is counted against [`MAX_JOBS`] before it is built.
fn expand_jobs(
    defaults: &[(String, Value)],
    specs: &[Value],
) -> Result<Vec<RunConfig>, BatchError> {
    let mut out = Vec::new();
    let too_many = BatchError::TooManyJobs { cap: MAX_JOBS };
    for spec in specs {
        let Value::Object(spec) = spec else {
            return Err(BatchError::Parse("every job must be an object".into()));
        };
        // Merge: defaults first, spec keys override.
        let mut merged: Vec<(String, Value)> = defaults.to_vec();
        for (k, v) in spec {
            if let Some(slot) = merged.iter_mut().find(|(mk, _)| mk == k) {
                slot.1 = v.clone();
            } else {
                merged.push((k.clone(), v.clone()));
            }
        }
        // Unknown keys fail even in a spec that sweeps to no job.
        for (key, _) in &merged {
            let knob_err = |e| BatchError::from_knob(e, out.len(), "job");
            BATCH_JOB.lookup(key).map_err(knob_err)?;
        }
        let sweep = merged.iter().try_fold(1usize, |n, (_, v)| match v {
            Value::Array(items) => n.checked_mul(items.len()),
            _ => Some(n),
        });
        if sweep.is_none_or(|n| n > MAX_JOBS - out.len()) {
            return Err(too_many);
        }
        // Cross-product over array-valued keys, declaration order; a
        // scalar is a one-item sweep.
        let mut combos: Vec<Vec<(String, Value)>> = vec![Vec::new()];
        for (k, v) in &merged {
            let items = match v {
                Value::Array(items) => items.as_slice(),
                scalar => std::slice::from_ref(scalar),
            };
            let extend = |c: &Vec<_>| {
                let with = |item: &Value| [c.clone(), vec![(k.clone(), item.clone())]].concat();
                items.iter().map(with).collect::<Vec<_>>()
            };
            combos = combos.iter().flat_map(extend).collect();
        }
        for combo in combos {
            let job = out.len();
            let knob_err = |e| BatchError::from_knob(e, job, "job");
            let pairs = BATCH_JOB.parse_json(&combo).map_err(knob_err)?;
            let repeat = pairs.uint(Key::Repeat).unwrap_or(1).max(1);
            if repeat > MAX_JOBS - out.len() {
                return Err(too_many);
            }
            let (cfg, _) = BATCH_JOB.run(&pairs).map_err(knob_err)?;
            for r in 0..repeat as u64 {
                // Consecutive seeds, modulo 2^64.
                let mut copy = cfg.clone();
                copy.seed = cfg.seed.wrapping_add(r);
                out.push(copy);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Backend;
    use crate::systems::testbed;
    use crate::{ProcessGrid, TrailingPrecision};
    use mxp_msgsim::BcastAlgo;

    #[test]
    fn document_with_defaults_and_sweep_expands_cross_product() {
        let batch = parse_batch(
            r#"{
                "service": {"workers": 3, "cache_mb": 64},
                "defaults": {"n": 64, "b": 8, "pr": 2, "pc": 2, "seed": 7},
                "jobs": [
                    {"algo": ["bcast", "ring2m"], "precision": ["fp16", "bf16"]},
                    {"mode": "timing", "n": 2048, "b": 256}
                ]
            }"#,
        )
        .expect("valid batch");
        assert_eq!(batch.workers, Some(3));
        assert_eq!(batch.cache_mb, Some(64));
        // 2 algos × 2 precisions + 1 timing job.
        assert_eq!(batch.jobs.len(), 5);
        assert_eq!(batch.jobs[0].algo, BcastAlgo::Lib);
        assert_eq!(batch.jobs[1].prec, TrailingPrecision::Bf16);
        assert_eq!(batch.jobs[3].algo, BcastAlgo::Ring2M);
        assert!(batch.jobs.iter().take(4).all(|j| j.seed == 7 && j.n == 64));
        assert_eq!(batch.jobs[4].n, 2048);
        assert_eq!(
            batch.jobs[4].fidelity,
            crate::factor::Fidelity::Timing,
            "mode: timing selects the timing fidelity"
        );
    }

    #[test]
    fn repeat_unrolls_with_consecutive_seeds() {
        let batch = parse_batch(r#"{"jobs": [{"seed": 100, "repeat": 3}]}"#).unwrap();
        assert_eq!(batch.jobs.len(), 3);
        let seeds: Vec<u64> = batch.jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102]);
    }

    #[test]
    fn jsonl_form_parses_one_job_per_line() {
        let batch =
            parse_batch("{\"seed\": 1}\n\n{\"seed\": 2, \"backend\": \"event\"}\n{\"seed\": 3}\n")
                .unwrap();
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(batch.jobs[1].backend, Backend::EventTimed);
        assert!(batch.workers.is_none());
    }

    #[test]
    fn bare_object_is_a_single_job() {
        let batch = parse_batch(r#"{"n": 128, "b": 16}"#).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        assert_eq!((batch.jobs[0].n, batch.jobs[0].b), (128, 16));
    }

    #[test]
    fn unknown_keys_are_rejected_not_ignored() {
        let err = parse_batch(r#"{"jobs": [{"blocksize": 8}]}"#).unwrap_err();
        assert!(
            matches!(&err, BatchError::UnknownKey { key, .. } if key == "blocksize"),
            "{err}"
        );
        let err = parse_batch(r#"{"jobz": []}"#).unwrap_err();
        assert!(matches!(&err, BatchError::UnknownKey { key, .. } if key == "jobz"));
        let err = parse_batch(r#"{"service": {"wrokers": 2}, "jobs": [{}]}"#).unwrap_err();
        assert!(matches!(&err, BatchError::UnknownKey { key, .. } if key == "wrokers"));
    }

    #[test]
    fn invalid_configs_surface_with_job_index() {
        // Job 1 (after the valid job 0) has N that does not tile the grid.
        let err = parse_batch(r#"{"jobs": [{}, {"n": 100}]}"#).unwrap_err();
        assert!(
            matches!(err, BatchError::Config { job: 1, .. }),
            "want Config at job 1, got {err}"
        );
        let err = parse_batch(r#"{"jobs": [{"n": -5}]}"#).unwrap_err();
        assert!(matches!(&err, BatchError::BadValue { key, .. } if key == "n"));
        let err = parse_batch(r#"{"jobs": [{"algo": "ring9"}]}"#).unwrap_err();
        assert!(matches!(&err, BatchError::BadValue { key, .. } if key == "algo"));
    }

    #[test]
    fn expansions_above_the_job_cap_are_refused() {
        let seeds: Vec<String> = (0..400).map(|s| s.to_string()).collect();
        let sweep = format!(
            r#"{{"jobs": [{{"seed": [{0}], "b": [{0}]}}]}}"#,
            seeds.join(",")
        );
        for text in [r#"{"jobs": [{"repeat": 1e15}]}"#, &sweep] {
            let err = parse_batch(text).unwrap_err();
            assert_eq!(err, BatchError::TooManyJobs { cap: MAX_JOBS }, "{err}");
        }
    }

    #[test]
    fn garbage_and_empty_files_are_parse_errors() {
        assert!(matches!(parse_batch("not json"), Err(BatchError::Parse(_))));
        assert!(matches!(parse_batch("[1, 2]"), Err(BatchError::Parse(_))));
        assert!(matches!(
            parse_batch(r#"{"jobs": []}"#),
            Err(BatchError::NoJobs)
        ));
    }

    #[test]
    fn latency_stats_report_percentiles() {
        let secs: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let l = LatencyStats::from_secs(&secs);
        assert!((l.p50_ms - 50.0).abs() < 1.5);
        assert!((l.p90_ms - 90.0).abs() < 1.5);
        assert!((l.p99_ms - 99.0).abs() < 1.5);
        assert_eq!(l.max_ms, 100.0);
        assert!((l.mean_ms - 50.5).abs() < 1e-9);
        let empty = LatencyStats::from_secs(&[]);
        assert_eq!(empty.max_ms, 0.0);
    }

    #[test]
    fn drain_runs_every_job_and_reports_throughput() {
        let mut svc = SolveService::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let grid = ProcessGrid::col_major(2, 2, 4);
        for seed in 1..=6u64 {
            let cfg = RunConfig::functional(testbed(1, 4), grid, 64, 8)
                .seed(seed % 3) // 3 distinct matrices over 6 jobs
                .build()
                .unwrap();
            svc.submit(cfg);
        }
        assert_eq!(svc.queued(), 6);
        let report = svc.drain();
        assert_eq!(svc.queued(), 0);
        assert_eq!(report.jobs.len(), 6);
        // Submission order and ids are preserved.
        let ids: Vec<u64> = report.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert!(report.jobs.iter().all(|j| j.outcome.outcome.converged));
        assert!(report.solves_per_sec > 0.0);
        assert!(report.latency.max_ms > 0.0);
        // 3 distinct matrices × 4 ranks fill; the rest hit.
        assert_eq!(report.cache.misses, 12);
        assert_eq!(report.cache.hits, 12);
        assert!(report.aggregate.runtime > 0.0);
        assert!(report.aggregate.gflops_per_gcd > 0.0);
        assert_eq!(report.aggregate.simulated_ranks, 4);
    }

    #[test]
    fn batch_document_to_service_roundtrip() {
        let batch = parse_batch(
            r#"{
                "service": {"workers": 2, "cache_mb": 32},
                "defaults": {"n": 64, "b": 8},
                "jobs": [{"seed": [1, 2], "algo": ["bcast", "ring2m"]}]
            }"#,
        )
        .unwrap();
        let mut svc = SolveService::new(ServiceConfig {
            workers: batch.workers.unwrap(),
            cache_bytes: batch.cache_bytes().unwrap(),
            ..Default::default()
        });
        svc.submit_all(batch.jobs);
        let report = svc.drain();
        assert_eq!(report.jobs.len(), 4);
        assert!(report.jobs.iter().all(|j| j.outcome.outcome.converged));
        // 2 seeds × 4 ranks generate; the algo sweep reuses both.
        assert_eq!(report.cache.misses, 8);
        assert_eq!(report.cache.hits, 8);
    }
}
