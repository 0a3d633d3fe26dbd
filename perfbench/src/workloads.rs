//! The four workloads: how each is configured from the seed, what one
//! timed operation is, and how its outputs are checked.
//!
//! Why these four: `solve-mxp` is bound by the mixed-precision trailing
//! GEMM; `hpl-fp64` uses the same layers with f64 GEMM, no cast and a
//! pivot search on the critical path; `sim-summit` runs no real math and
//! stresses the event scheduler and the cost models at 6,912 ranks;
//! `serve-batch` is dominated by per-job fixed costs (world spin-up,
//! supervisor, matrix-cache hits, tiny kernels).

use hplai_core::hpl_dist::hpl_dist_solve;
use hplai_core::{
    run, run_with_backend, summit, testbed, Backend, CacheStats, IterRecord, ProcessGrid,
    RunConfig, ServiceConfig, SolveService, SystemSpec, TrailingPrecision,
};
use mxp_gpusim::GcdFleet;
use mxp_lcg::MatrixKind;
use mxp_msgsim::{BcastAlgo, EventStats};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One functional HPL-MxP solve, N = 6144, B = 256, 2×2, fp16.
    SolveMxp,
    /// One pivoted FP64 distributed HPL solve, N = 4096, B = 128, 2×2.
    HplFp64,
    /// One timing-fidelity Summit run at 6,912 ranks on the event backend,
    /// timed on one shard (see [`SIM_SHARDS`]).
    SimSummit,
    /// A closed-loop drain of 1000 small functional solves.
    ServeBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveMxp,
        Workload::HplFp64,
        Workload::SimSummit,
        Workload::ServeBatch,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveMxp => "solve-mxp",
            Workload::HplFp64 => "hpl-fp64",
            Workload::SimSummit => "sim-summit",
            Workload::ServeBatch => "serve-batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shape of the problem one job solves: `(N, B, P_r, P_c)`.
    pub fn shape(self) -> (usize, usize, usize, usize) {
        match self {
            Workload::SolveMxp => (6144, 256, 2, 2),
            Workload::HplFp64 => (4096, 128, 2, 2),
            Workload::SimSummit => (221_184, 768, 48, 144),
            Workload::ServeBatch => (64, 8, 2, 2),
        }
    }
}

/// Event-backend shards of the timed `sim-summit` operation. One shard
/// does the same deterministic work every time. With two shards on a
/// shared two-vCPU host, the same simulation took 5.6-7.4 s wall and
/// 10.2-13.2 s CPU from one operation to the next, steal below 1%; one
/// shard stayed within 10.8-12.0 s. The traced run also times the default
/// (`nproc`) shard count, which gives the sharded speed-up.
pub const SIM_SHARDS: usize = 1;

/// Jobs in one `serve-batch` drain.
pub const BATCH_JOBS: usize = 1000;
/// Distinct matrices the batch cycles over.
pub const BATCH_SEEDS: usize = 32;

/// SplitMix64 step: the `i`-th seed derived from the workload seed, so the
/// program sees only generated inputs.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload configured from its seed: everything a timed operation
/// needs, built during set-up.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The run configuration (the first job's, for `serve-batch`).
    pub cfg: RunConfig,
    /// The queued batch (`serve-batch` only).
    batch: Vec<RunConfig>,
    /// Service workers (`serve-batch` only; 0 otherwise).
    pub workers: usize,
    service: Option<SolveService>,
}

fn testbed_2x2(n: usize, b: usize) -> RunConfig {
    let grid = ProcessGrid::col_major(2, 2, 4);
    RunConfig::functional(testbed(1, 4), grid, n, b)
        .build()
        .expect("2x2 testbed configuration is valid")
}

/// The system a workload's jobs run on.
pub fn system(w: Workload) -> SystemSpec {
    match w {
        Workload::SimSummit => summit(),
        _ => testbed(1, 4),
    }
}

/// Builds the inputs of `w` from `seed`. `workers` bounds the service's
/// worker pool.
pub fn prepare(w: Workload, seed: u64, workers: usize) -> Prepared {
    let (n, b, p_r, p_c) = w.shape();
    let mseed = derive_seed(seed, 0);
    let mut batch = Vec::new();
    let cfg = match w {
        Workload::SolveMxp => testbed_2x2(n, b)
            .to_builder()
            .seed(mseed)
            .algo(BcastAlgo::Lib)
            .lookahead(true)
            .prec(TrailingPrecision::Fp16)
            .build()
            .expect("solve-mxp configuration is valid"),
        // hpl_dist_solve takes the matrix seed directly; the config only
        // describes the world.
        Workload::HplFp64 => testbed_2x2(n, b)
            .to_builder()
            .seed(mseed)
            .build()
            .expect("valid"),
        Workload::SimSummit => {
            let grid = ProcessGrid::node_local(p_r, p_c, 3, 2);
            RunConfig::timing(summit(), grid, n, b)
                .algo(BcastAlgo::Lib)
                .backend(Backend::EventTimed)
                .event_shards(SIM_SHARDS)
                .seed(mseed)
                .fleet(GcdFleet::generate(grid.size(), mseed, 0.05, 0, 1.0))
                .build()
                .expect("sim-summit configuration is valid")
        }
        Workload::ServeBatch => {
            let algos = [BcastAlgo::Lib, BcastAlgo::Ring2M];
            let precs = [TrailingPrecision::Fp16, TrailingPrecision::Bf16];
            let backends = [Backend::Functional, Backend::EventTimed];
            batch = (0..BATCH_JOBS)
                .map(|i| {
                    testbed_2x2(n, b)
                        .to_builder()
                        .seed(derive_seed(seed, (i % BATCH_SEEDS) as u64 + 1))
                        .algo(algos[i % 2])
                        .prec(precs[(i / 2) % 2])
                        .backend(backends[(i / 4) % 2])
                        .build()
                        .expect("serve-batch configuration is valid")
                })
                .collect();
            batch[0].clone()
        }
    };
    let mut p = Prepared {
        workload: w,
        cfg,
        batch,
        workers: if w == Workload::ServeBatch {
            workers
        } else {
            0
        },
        service: None,
    };
    stage(&mut p);
    p
}

/// `p` (a workload that drains no batch) with the event backend's shard
/// count pinned to `shards`, 0 meaning the default. Simulated results are
/// bitwise identical at any shard count.
pub fn with_shards(p: &Prepared, shards: usize) -> Prepared {
    Prepared {
        workload: p.workload,
        cfg: p
            .cfg
            .to_builder()
            .event_shards(shards)
            .build()
            .expect("a shard count is always valid"),
        batch: Vec::new(),
        workers: p.workers,
        service: None,
    }
}

fn new_service(workers: usize) -> SolveService {
    SolveService::new(ServiceConfig {
        workers,
        ..Default::default()
    })
}

/// Simulated figures of one operation. They are deterministic for a seed
/// and never depend on the host.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimFigures {
    /// Simulated runtime, s (summed over jobs for `serve-batch`).
    pub runtime: f64,
    /// Bytes sent by all ranks.
    pub comm_bytes: u64,
    /// Simulated communication wait, s.
    pub comm_wait: f64,
    /// Rank 0's per-phase sums: getrf, trsm, cast, gemm, bcast, wait.
    pub rank0: [f64; 6],
    /// Per-iteration records returned (`ranks × iterations`).
    pub records: u64,
}

/// What one timed operation produced besides its wall time.
#[derive(Clone, Debug, Default)]
pub struct OpOut {
    /// Checked operations (solves, simulations, jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Digest of every simulated result; equal across operations at one
    /// seed.
    pub digest: u64,
    /// Simulated figures.
    pub sim: SimFigures,
    /// IR sweeps (0 where no IR runs).
    pub ir_iters: u64,
    /// Scaled residual of the solve (functional solves only).
    pub scaled_residual: Option<f64>,
    /// Row interchanges (`hpl-fp64` only).
    pub swaps: u64,
    /// Per-job service times, s, and whether each ran on the event backend
    /// (`serve-batch` only).
    pub jobs: Vec<(f64, bool)>,
    /// Matrix-cache counters of the drain (`serve-batch` only).
    pub cache: Option<CacheStats>,
    /// Event-scheduler statistics (`sim-summit` only).
    pub sched: Option<EventStats>,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }
}

fn sum_records(records: &[IterRecord]) -> [f64; 6] {
    records.iter().fold([0.0; 6], |mut s, r| {
        for (acc, v) in s
            .iter_mut()
            .zip([r.getrf, r.trsm, r.cast, r.gemm, r.bcast, r.wait])
        {
            *acc += v;
        }
        s
    })
}

impl OpOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Work to do before each timed call that is not part of the operation:
/// `serve-batch` gets a fresh service with the whole batch queued, so job
/// ids, signatures and cache counters repeat from drain to drain.
pub fn stage(p: &mut Prepared) {
    if p.workload == Workload::ServeBatch && p.service.is_none() {
        let mut svc = new_service(p.workers);
        svc.submit_all(p.batch.iter().cloned());
        p.service = Some(svc);
    }
}

/// The timed operation of `p`: one solve, one simulation or one drain.
/// Checks are made afterwards by [`check`] so they stay outside the timing.
pub fn execute(p: &mut Prepared) -> Raw {
    match p.workload {
        Workload::SolveMxp | Workload::SimSummit => Raw::Run(Box::new(run(&p.cfg))),
        Workload::HplFp64 => {
            let (n, b, _, _) = p.workload.shape();
            let (sys, seed) = (system(p.workload), p.cfg.seed);
            let outs = run_with_backend(&p.cfg, |ctx| {
                let o = hpl_dist_solve(ctx, &sys, n, b, seed, MatrixKind::Uniform, 1.0);
                (o, ctx.bytes_sent(), ctx.wait_total())
            })
            .expect("a 2x2 world fits the thread backend");
            Raw::Hpl(outs)
        }
        Workload::ServeBatch => {
            let mut svc = p.service.take().expect("stage() queued the batch");
            Raw::Drain(Box::new(svc.drain()))
        }
    }
}

/// Unchecked output of one timed operation.
pub enum Raw {
    /// `run` outcome (solve-mxp, sim-summit).
    Run(Box<hplai_core::RunOutcome>),
    /// Per-rank distributed-HPL outcomes with bytes sent and wait time.
    Hpl(Vec<(hplai_core::hpl_dist::HplDistOutcome, u64, f64)>),
    /// A drained batch.
    Drain(Box<hplai_core::ServiceReport>),
}

/// Residual bound of Algorithm 1, line 44.
const RESIDUAL_BOUND: f64 = 16.0;

/// Checks one operation's outputs and extracts its figures. `sched` is the
/// event-scheduler reading taken right after the operation on its thread.
pub fn check(p: &Prepared, raw: Raw, sched: Option<EventStats>) -> OpOut {
    let mut o = OpOut::default();
    let mut h = Fnv::new();
    match raw {
        Raw::Run(out) => {
            let perf = &out.perf;
            o.sim = SimFigures {
                runtime: perf.runtime,
                comm_bytes: perf.comm_bytes,
                comm_wait: perf.comm_wait,
                rank0: sum_records(out.records_rank0()),
                records: out.records.iter().map(|r| r.len() as u64).sum(),
            };
            o.ir_iters = out.ir_iters as u64;
            o.scaled_residual = out.scaled_residual;
            if p.workload == Workload::SolveMxp {
                let r = out.scaled_residual.unwrap_or(f64::NAN);
                o.check(out.converged && r < RESIDUAL_BOUND, || {
                    format!("solve did not converge: scaled residual {r}")
                });
                for v in out.solution.iter().flatten() {
                    h.f64(*v);
                }
            } else {
                let ok = out.converged && perf.runtime.is_finite() && perf.runtime > 0.0;
                o.check(ok, || format!("simulation runtime {}", perf.runtime));
            }
            o.sched = sched;
        }
        Raw::Hpl(outs) => {
            let first = &outs[0].0;
            let agree = outs
                .iter()
                .all(|(x, _, _)| x.x == first.x && x.swaps == first.swaps);
            let r = first.scaled_residual;
            o.check(agree && r < RESIDUAL_BOUND && first.swaps > 0, || {
                format!(
                    "hpl solve: residual {r}, {} swaps, ranks agree: {agree}",
                    first.swaps
                )
            });
            o.scaled_residual = Some(r);
            o.swaps = first.swaps as u64;
            o.sim = SimFigures {
                runtime: outs.iter().map(|x| x.0.elapsed).fold(0.0, f64::max),
                comm_bytes: outs.iter().map(|x| x.1).sum(),
                comm_wait: outs.iter().map(|x| x.2).fold(0.0, f64::max),
                ..SimFigures::default()
            };
            for v in &first.x {
                h.f64(*v);
            }
        }
        Raw::Drain(rep) => {
            let mut sigs: Vec<u64> = Vec::with_capacity(rep.jobs.len());
            for j in &rep.jobs {
                let out = &j.outcome.outcome;
                let r = out.scaled_residual.unwrap_or(f64::NAN);
                o.check(out.converged && r < RESIDUAL_BOUND, || {
                    format!("job {} did not converge: scaled residual {r}", j.id)
                });
                sigs.push(j.signature());
                o.jobs
                    .push((j.latency_secs, out.perf.backend == Backend::EventTimed));
                o.ir_iters += out.ir_iters as u64;
                o.sim.records += out.records.iter().map(|r| r.len() as u64).sum::<u64>();
                let s = sum_records(out.records_rank0());
                for (acc, v) in o.sim.rank0.iter_mut().zip(s) {
                    *acc += v;
                }
            }
            // Single-flight invariant: one fill per distinct matrix tile.
            let ranks = p.cfg.grid.size() as u64;
            let want = BATCH_SEEDS as u64 * ranks;
            o.check(rep.cache.misses == want, || {
                format!("cache misses {} != {want}", rep.cache.misses)
            });
            o.sim.runtime = rep.aggregate.runtime;
            o.sim.comm_bytes = rep.aggregate.comm_bytes;
            o.sim.comm_wait = rep.aggregate.comm_wait;
            o.cache = Some(rep.cache);
            // The multiset of signatures, independent of completion order.
            sigs.sort_unstable();
            for s in sigs {
                h.eat(&s.to_le_bytes());
            }
        }
    }
    let s = &o.sim;
    h.f64(s.runtime);
    h.eat(&s.comm_bytes.to_le_bytes());
    h.f64(s.comm_wait);
    for v in s.rank0 {
        h.f64(v);
    }
    h.eat(&o.ir_iters.to_le_bytes());
    o.digest = h.0;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        assert_eq!(derive_seed(7, 3), s[3]);
        assert_ne!(derive_seed(8, 3), s[3]);
    }

    #[test]
    fn shapes_tile_their_grids() {
        for w in Workload::ALL {
            let (n, b, p_r, p_c) = w.shape();
            assert_eq!(n % b, 0);
            assert_eq!((n / b) % p_r, 0);
            assert_eq!((n / b) % p_c, 0);
        }
    }
}
