//! End-to-end benchmark runs: factorization + iterative refinement +
//! metrics, on either runtime backend.
//!
//! Run configurations are built with the validating builder returned by
//! [`RunConfig::functional`] / [`RunConfig::timing`]: chain setters, then
//! [`RunConfigBuilder::build`] checks the grid/size invariants and returns
//! a typed [`ConfigError`] instead of panicking mid-run. A [`RunConfig`] is
//! the one description of an HPL-MxP run: [`FactorState::new`] and
//! [`crate::ir::refine`] read it directly, and [`step_until_done`] drives
//! the factorization stepper with the checkpoint protocol.

use crate::cache::MatrixCache;
use crate::checkpoint::{
    fnv1a, header_mismatch, CheckpointSpec, RunCheckpointer, Snapshot, SnapshotHeader,
    DRIVER_FACTOR,
};
use crate::factor::{FactorState, Factorization, Fidelity, IterRecord, Policy};
use crate::fault::FaultPlan;
use crate::grid::ProcessGrid;
use crate::ir::{ir_time_model, refine};
use crate::msg::TrailingPrecision;
use crate::report::{PerfReport, RunProvenance};
use crate::runtime::{Backend, BackendError, CommScope, CommTrace, GridMembers, RankCtx};
use crate::systems::SystemSpec;
use crate::trace::PhaseTotals;
use mxp_gpusim::GcdFleet;
use mxp_msgsim::{BcastAlgo, WorldSpec};
use std::sync::Arc;

/// Configuration of one full benchmark run. Construct through
/// [`RunConfig::functional`] or [`RunConfig::timing`].
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The machine.
    pub sys: SystemSpec,
    /// Process grid and placement.
    pub grid: ProcessGrid,
    /// Global problem size `N` (must tile the grid evenly).
    pub n: usize,
    /// Block size `B`.
    pub b: usize,
    /// Panel broadcast algorithm.
    pub algo: BcastAlgo,
    /// Look-ahead pipeline on/off.
    pub lookahead: bool,
    /// Functional (verify) vs timing (scale) execution.
    pub fidelity: Fidelity,
    /// Which distributed runtime hosts the ranks (threads vs the
    /// discrete-event fiber scheduler). Orthogonal to `fidelity`: both
    /// backends run either fidelity with bit-identical clocks; the event
    /// backend is the only one that reaches full-machine rank counts.
    pub backend: Backend,
    /// Matrix seed.
    pub seed: u64,
    /// Optional per-GCD speed variability (§VI-B).
    pub fleet: Option<GcdFleet>,
    /// Panel storage format (the paper uses FP16; BF16/FP32 are ablations).
    pub prec: TrailingPrecision,
    /// Injected device/link faults (empty = healthy machine).
    pub faults: FaultPlan,
    /// Shared generated-matrix cache (the service attaches one so queued
    /// jobs differing only in algorithm/precision/backend reuse the same
    /// generated input). `None` — the default — generates per run.
    pub cache: Option<Arc<MatrixCache>>,
    /// Event-backend shard (worker-thread) count: 0 — the default — means
    /// automatic (the `HPLAI_EVENT_SHARDS` environment variable, else the
    /// host's parallelism). Purely a host-execution knob: simulated
    /// clocks, signatures, and solutions are bitwise identical at any
    /// value. Ignored by the thread backend.
    pub event_shards: usize,
    /// Panel-boundary checkpointing: where, how often, at what modeled
    /// bandwidth. `None` — the default — takes no snapshots and leaves
    /// the schedule byte-identical to builds without this feature.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from this validated panel-boundary snapshot instead of
    /// panel 0. Restarted runs are bit-identical, from the boundary on,
    /// to the (same checkpoint-configured) run that drained the snapshot.
    pub restart: Option<Arc<Snapshot>>,
}

/// A configuration error detected by [`RunConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `N` or `B` is zero.
    ZeroSize,
    /// The process grid does not fill whole nodes.
    GridDoesNotFillNodes {
        /// Total ranks in the grid.
        ranks: usize,
        /// GCDs per node of the placement.
        gcds_per_node: usize,
    },
    /// `N` is not a multiple of `B`, or the block count does not tile the
    /// grid evenly (§III-C's divisibility requirement).
    NotDivisible {
        /// Requested problem size.
        n: usize,
        /// Block size.
        b: usize,
        /// Grid rows.
        p_r: usize,
        /// Grid columns.
        p_c: usize,
    },
    /// The fleet has fewer devices than the grid has ranks.
    FleetTooSmall {
        /// Devices in the fleet.
        fleet: usize,
        /// Ranks in the grid.
        ranks: usize,
    },
    /// A fault targets a GCD index outside the grid.
    FaultTargetOutOfRange {
        /// The out-of-range GCD index.
        gcd: usize,
        /// Ranks in the grid.
        ranks: usize,
    },
    /// A restart snapshot belongs to a different run: the named header
    /// field disagrees with this configuration.
    SnapshotMismatch {
        /// Which snapshot/config field disagrees.
        field: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::ZeroSize => write!(f, "N and B must be positive"),
            ConfigError::GridDoesNotFillNodes {
                ranks,
                gcds_per_node,
            } => write!(
                f,
                "grid of {ranks} ranks does not fill whole nodes of {gcds_per_node} GCDs"
            ),
            ConfigError::NotDivisible { n, b, p_r, p_c } => write!(
                f,
                "N = {n} must split into blocks of B = {b} tiling the {p_r}x{p_c} grid evenly \
                 (use adjust_n)"
            ),
            ConfigError::FleetTooSmall { fleet, ranks } => {
                write!(
                    f,
                    "fleet of {fleet} GCDs smaller than the {ranks}-rank grid"
                )
            }
            ConfigError::FaultTargetOutOfRange { gcd, ranks } => {
                write!(f, "fault targets GCD {gcd} outside the {ranks}-rank grid")
            }
            ConfigError::SnapshotMismatch { field } => {
                write!(
                    f,
                    "restart snapshot does not match this run config: {field}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`RunConfig`]; obtained from
/// [`RunConfig::functional`] or [`RunConfig::timing`].
#[derive(Clone, Debug)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Sets the panel broadcast algorithm.
    pub fn algo(mut self, algo: BcastAlgo) -> Self {
        self.cfg.algo = algo;
        self
    }

    /// Enables or disables the look-ahead pipeline.
    pub fn lookahead(mut self, on: bool) -> Self {
        self.cfg.lookahead = on;
        self
    }

    /// Sets the matrix seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Attaches per-GCD speed variability.
    pub fn fleet(mut self, fleet: GcdFleet) -> Self {
        self.cfg.fleet = Some(fleet);
        self
    }

    /// Sets the trailing-panel precision.
    pub fn prec(mut self, prec: TrailingPrecision) -> Self {
        self.cfg.prec = prec;
        self
    }

    /// Attaches an injected fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Selects the runtime backend hosting the ranks.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Attaches a shared generated-matrix cache (see
    /// [`crate::cache::MatrixCache`]). Purely an execution-cost hint:
    /// results are bitwise-identical with or without it.
    pub fn cache(mut self, cache: Arc<MatrixCache>) -> Self {
        self.cfg.cache = Some(cache);
        self
    }

    /// Pins the event-backend shard count (0 = automatic). A host
    /// execution knob like [`Self::cache`]: any value produces bitwise
    /// identical simulated results.
    pub fn event_shards(mut self, shards: usize) -> Self {
        self.cfg.event_shards = shards;
        self
    }

    /// Enables panel-boundary checkpointing.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.cfg.checkpoint = Some(spec);
        self
    }

    /// Resumes the run from a validated panel-boundary snapshot.
    /// [`Self::build`] cross-checks the snapshot header against the
    /// configuration and rejects mismatches with a typed error.
    pub fn restart_from(mut self, snap: Arc<Snapshot>) -> Self {
        self.cfg.restart = Some(snap);
        self
    }

    /// Validates the configuration, returning a typed error instead of a
    /// mid-run panic.
    pub fn build(self) -> Result<RunConfig, ConfigError> {
        let cfg = self.cfg;
        let grid = &cfg.grid;
        let ranks = grid.size();
        if cfg.n == 0 || cfg.b == 0 {
            return Err(ConfigError::ZeroSize);
        }
        if !ranks.is_multiple_of(grid.gcds_per_node()) {
            return Err(ConfigError::GridDoesNotFillNodes {
                ranks,
                gcds_per_node: grid.gcds_per_node(),
            });
        }
        let divisible = cfg.n.is_multiple_of(cfg.b) && {
            let n_b = cfg.n / cfg.b;
            n_b.is_multiple_of(grid.p_r) && n_b.is_multiple_of(grid.p_c)
        };
        if !divisible {
            return Err(ConfigError::NotDivisible {
                n: cfg.n,
                b: cfg.b,
                p_r: grid.p_r,
                p_c: grid.p_c,
            });
        }
        if let Some(fleet) = &cfg.fleet {
            if fleet.len() < ranks {
                return Err(ConfigError::FleetTooSmall {
                    fleet: fleet.len(),
                    ranks,
                });
            }
        }
        for f in &cfg.faults.gcd {
            if f.gcd >= ranks {
                return Err(ConfigError::FaultTargetOutOfRange { gcd: f.gcd, ranks });
            }
        }
        if let Some(snap) = cfg.restart.as_deref() {
            let field =
                header_mismatch(&snap.header, &snapshot_header(&cfg))
                    .or((snap.clocks.len() != ranks || snap.sections.len() != ranks)
                        .then_some("rank count"));
            if let Some(field) = field {
                return Err(ConfigError::SnapshotMismatch { field });
            }
        }
        Ok(cfg)
    }

    /// `build()` for call sites that want the old panicking behaviour
    /// (tests, examples with known-good parameters).
    pub fn build_or_panic(self) -> RunConfig {
        self.build().expect("invalid run configuration")
    }
}

impl RunConfig {
    /// Starts building a verifiable functional run with sensible defaults.
    pub fn functional(sys: SystemSpec, grid: ProcessGrid, n: usize, b: usize) -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig {
                sys,
                grid,
                n,
                b,
                algo: BcastAlgo::Lib,
                lookahead: true,
                fidelity: Fidelity::Functional,
                backend: Backend::Functional,
                seed: 2022,
                fleet: None,
                prec: TrailingPrecision::Fp16,
                faults: FaultPlan::new(),
                cache: None,
                event_shards: 0,
                checkpoint: None,
                restart: None,
            },
        }
    }

    /// Starts building a timing-mode run (virtual payloads).
    pub fn timing(sys: SystemSpec, grid: ProcessGrid, n: usize, b: usize) -> RunConfigBuilder {
        let mut builder = Self::functional(sys, grid, n, b);
        builder.cfg.fidelity = Fidelity::Timing;
        builder
    }

    /// A builder seeded with this configuration, for derived runs (the
    /// supervisor's rerun-with-exclusions path).
    pub fn to_builder(&self) -> RunConfigBuilder {
        RunConfigBuilder { cfg: self.clone() }
    }

    /// The msgsim world this configuration describes: placement, network
    /// tuning and injected link faults. Backend-agnostic — the same spec
    /// is handed to whichever [`Backend`] the config selects.
    pub fn world_spec(&self) -> WorldSpec {
        let grid = &self.grid;
        assert_eq!(
            grid.size() % grid.gcds_per_node(),
            0,
            "grid must fill whole nodes"
        );
        let nodes = grid.size() / grid.gcds_per_node();
        let mut spec = WorldSpec::cluster(nodes, grid.gcds_per_node(), self.sys.net);
        spec.locs = grid.locs();
        spec.tuning = self.sys.tuning;
        spec.faults = self.faults.link.clone();
        spec.event_shards = self.event_shards;
        spec
    }
}

/// The snapshot-header template (cursor 0) describing `cfg`'s
/// factorization run — what [`run`] hands the checkpointer, and what a
/// harness driving [`step_until_done`] directly needs to build its own
/// [`crate::checkpoint::RunCheckpointer`].
///
/// The fidelity tag is 0 functional, 1 timing. The run-knobs tag hashes
/// the broadcast algorithm, look-ahead, and panel precision: they all
/// change the schedule (and the panel bits), so resuming under different
/// ones would silently break the bitwise contract.
pub fn snapshot_header(cfg: &RunConfig) -> SnapshotHeader {
    let knobs = format!("{:?}|{}|{:?}", cfg.algo, cfg.lookahead, cfg.prec);
    SnapshotHeader {
        driver: DRIVER_FACTOR,
        fidelity: u8::from(cfg.fidelity == Fidelity::Timing),
        k: 0,
        n: cfg.n as u64,
        b: cfg.b as u64,
        p_r: cfg.grid.p_r as u64,
        p_c: cfg.grid.p_c as u64,
        ranks: cfg.grid.size() as u64,
        seed: cfg.seed,
        config_tag: fnv1a(knobs.as_bytes()),
    }
}

/// Checkpoint activity of one rank over one driven run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptMeter {
    /// Modeled bytes drained by this rank.
    pub bytes: u64,
    /// Simulated seconds this rank's clock was charged for drains.
    pub time: f64,
    /// Snapshots this rank contributed to.
    pub count: usize,
}

/// Drives a [`Factorization`] (either policy) to completion, one panel
/// step at a time. The driver owns its algorithm; this loop owns the
/// checkpoint protocol — the stepper never talks to the checkpointer.
///
/// With a checkpointer attached, every boundary the spec's interval
/// selects (and that is not the final cursor) runs the drain protocol:
/// quiesce the look-ahead posture, charge the modeled drain at the spec
/// bandwidth (traced as a [`crate::CommOp::Checkpoint`] event),
/// synchronize, then deposit this rank's encoded section — the last rank
/// to deposit writes the snapshot file atomically. The charge is identical
/// on every rank and at both fidelities, so checkpoint-configured runs
/// keep all determinism invariants (backends, shard counts,
/// functional-vs-timing clocks).
pub fn step_until_done<P: Policy>(
    ctx: &mut RankCtx,
    mut state: Factorization<'_, P>,
    ckpt: Option<&RunCheckpointer>,
) -> (P::Output, CkptMeter) {
    let mut meter = CkptMeter::default();
    while !state.done() {
        state.step(ctx);
        if let Some(ck) = ckpt {
            if !state.done() && ck.due(state.cursor()) {
                let bytes = state.checkpoint_bytes();
                state.drain(ctx);
                let dt = bytes as f64 / ck.io_bw();
                ctx.charge_checkpoint(bytes, dt);
                ctx.barrier(CommScope::World);
                let mut section = Vec::new();
                state.encode(&mut section);
                ck.deposit(
                    state.cursor(),
                    ctx.rank(),
                    ctx.now(),
                    ctx.wait_total(),
                    section,
                );
                meter.bytes += bytes;
                meter.time += dt;
                meter.count += 1;
            }
        }
    }
    (state.finish(ctx), meter)
}

/// Runs `f` once per rank of `cfg`'s grid on the configured backend,
/// handing each rank a fully wired [`RankCtx`].
///
/// This is the single entry point through which every driver reaches the
/// runtime — [`run`] itself, the figure harnesses, and the scale bins all
/// go through here, so none of them names a backend-specific constructor
/// or carries backend-conditional code. Returns the per-rank results in
/// rank order, or a typed [`BackendError`] when the grid exceeds what the
/// selected backend can host (the functional backend spawns an OS thread
/// per rank; the event backend schedules fibers and reaches full-machine
/// rank counts).
pub fn run_with_backend<T, F>(cfg: &RunConfig, f: F) -> Result<Vec<T>, BackendError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let grid = cfg.grid;
    cfg.backend.check_scale(grid.size())?;
    let spec = cfg.world_spec();
    let members = GridMembers::new(&grid);
    Ok(cfg.backend.execute(&spec, |comm| {
        let mut ctx = RankCtx::with_members(comm, &members);
        f(&mut ctx)
    }))
}

/// Aggregated result of a run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Headline performance numbers (shared report shape): simulated
    /// quantities only, bitwise reproducible on any host.
    pub perf: PerfReport,
    /// How this host produced them: wall cost, SIMD level, scheduler
    /// shards, checkpoint drains and restarts. Never compared.
    pub provenance: RunProvenance,
    /// Whether IR converged (always `true` in timing mode, where IR is
    /// modeled rather than executed).
    pub converged: bool,
    /// HPL-style scaled residual (functional mode only).
    pub scaled_residual: Option<f64>,
    /// IR sweeps used.
    pub ir_iters: usize,
    /// The refined solution vector (functional mode only; IR replicates
    /// it on every rank, so this is rank 0's copy). Deterministic: tests
    /// compare it bitwise across thread counts and backends.
    pub solution: Option<Vec<f64>>,
    /// Per-iteration breakdown, rank-major. [`run`] keeps only rank 0's
    /// series and leaves every other rank's empty;
    /// [`run_with_series`] with [`Series::AllRanks`] keeps them all — the
    /// input of progress monitoring and fault supervision.
    pub records: Vec<Vec<IterRecord>>,
    /// Every rank's per-phase totals (rank-major), whichever series were
    /// kept: bitwise [`PhaseTotals::from_records`] of the full series.
    pub totals: Vec<PhaseTotals>,
    /// Rank 0's communication trace, the source of the Chrome comm lanes.
    /// Only rank 0 records one: every other rank keeps just its aggregate
    /// counters, so full-machine runs do not hold an event list per rank.
    pub trace_rank0: CommTrace,
}

impl RunOutcome {
    /// Rank 0's per-iteration breakdown (the Fig. 10 series).
    pub fn records_rank0(&self) -> &[IterRecord] {
        &self.records[0]
    }
}

struct RankResult {
    factor: f64,
    ir: f64,
    converged: bool,
    scaled: Option<f64>,
    ir_iters: usize,
    x: Option<Vec<f64>>,
    records: Vec<IterRecord>,
    totals: PhaseTotals,
    comm_bytes: u64,
    comm_wait: f64,
    ckpt: CkptMeter,
    trace: CommTrace,
}

/// Which ranks' per-iteration series a run keeps (see
/// [`run_with_series`]). Every rank's [`PhaseTotals`] are kept either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Rank 0's series only (the Fig. 10 / trace input): what [`run`]
    /// keeps, so per-rank state does not grow with run length.
    Rank0,
    /// Every rank's series (the supervisor's progress monitor).
    AllRanks,
}

/// Executes a full benchmark run and aggregates the outcome — the one
/// driver behind the CLI, the service, the supervisor and the timing
/// bins. Only rank 0 records a [`CommTrace`] ([`RunOutcome::trace_rank0`])
/// and keeps its per-iteration series ([`RunOutcome::records`]).
pub fn run(cfg: &RunConfig) -> RunOutcome {
    run_with_series(cfg, Series::Rank0)
}

/// [`run`], keeping the per-iteration series of the ranks `series` names.
/// Simulated results are bitwise identical whichever ranks keep theirs.
pub fn run_with_series(cfg: &RunConfig, series: Series) -> RunOutcome {
    let grid = cfg.grid;
    let n_b = cfg.n / cfg.b;
    let ckpt: Option<Arc<RunCheckpointer>> = cfg.checkpoint.as_ref().map(|spec| {
        let ck = RunCheckpointer::new(spec.clone(), snapshot_header(cfg))
            .unwrap_or_else(|e| panic!("checkpoint dir {}: {e}", spec.dir.display()));
        Arc::new(ck)
    });

    let started = std::time::Instant::now();
    let mut results: Vec<RankResult> = run_with_backend(cfg, |ctx| {
        ctx.set_tracing(ctx.rank() == 0);
        let base = cfg
            .fleet
            .as_ref()
            .map(|f| f.speed(ctx.rank()))
            .unwrap_or(1.0);
        let speed = cfg.faults.speed_for(ctx.rank(), base);
        // IR runs after the factorization: charge it at the end-of-run
        // effective speed.
        let ir_speed = speed.at(n_b);
        let state = FactorState::new(ctx, cfg, speed)
            .keep_series(series == Series::AllRanks || ctx.rank() == 0);
        let (out, ckpt_meter) = step_until_done(ctx, state, ckpt.as_deref());
        let (ir, converged, scaled, ir_iters, x) = match cfg.fidelity {
            Fidelity::Functional => {
                let local = out.local.as_ref().expect("functional run keeps factors");
                let ir = refine(ctx, cfg, local, ir_speed);
                let scaled = Some(ir.scaled_residual);
                (ir.elapsed, ir.converged, scaled, ir.iters, Some(ir.x))
            }
            Fidelity::Timing => {
                // IR is charged from the closed-form model (the phase is
                // a small fraction of the run at scale, §II).
                let ir = ir_time_model(&cfg.sys, cfg.n, grid.size(), 3);
                ctx.charge(ir / ir_speed);
                (ir, true, None, 3, None)
            }
        };
        RankResult {
            factor: out.elapsed,
            ir,
            converged,
            scaled,
            ir_iters,
            x,
            records: out.records,
            totals: out.totals,
            comm_bytes: ctx.bytes_sent(),
            comm_wait: ctx.wait_total(),
            ckpt: ckpt_meter,
            trace: ctx.take_trace(),
        }
    })
    .unwrap_or_else(|e| panic!("run: {e}"));
    let wall = started.elapsed().as_secs_f64();
    // Event-scheduler host provenance (shards, overhead fraction) when the
    // run just completed on the event backend from this thread.
    let sched = mxp_msgsim::last_event_stats().filter(|_| cfg.backend == Backend::EventTimed);

    let runtime = results.iter().map(|r| r.factor + r.ir).fold(0.0, f64::max);
    let factor_time = results.iter().map(|r| r.factor).fold(0.0, f64::max);
    let ir_time = results.iter().map(|r| r.ir).fold(0.0, f64::max);
    let converged = results.iter().all(|r| r.converged);
    // Mean per-rank overlap earned by the look-ahead pipeline.
    let hidden = results.iter().map(|r| r.totals.hidden).sum::<f64>() / results.len() as f64;
    let comm_bytes = results.iter().map(|r| r.comm_bytes).sum::<u64>();
    let comm_wait = results.iter().map(|r| r.comm_wait).fold(0.0, f64::max);
    RunOutcome {
        perf: PerfReport::new(cfg.n, grid.size(), runtime, factor_time, ir_time)
            .with_overlap(hidden)
            .with_comm(comm_bytes, comm_wait)
            .with_backend(cfg.backend, grid.size()),
        provenance: RunProvenance {
            wall_vs_virtual_time: if runtime > 0.0 { wall / runtime } else { 0.0 },
            simd_isa: mxp_blas::kernel_info_f32().isa.name(),
            event_shards: sched.map_or(0, |s| s.shards),
            sched_overhead: sched.map_or(0.0, |s| s.sched_overhead()),
            checkpoint_bytes: results.iter().map(|r| r.ckpt.bytes).sum(),
            checkpoint_time: results.iter().map(|r| r.ckpt.time).fold(0.0, f64::max),
            restart_count: usize::from(cfg.restart.is_some()),
        },
        converged,
        scaled_residual: results[0].scaled,
        ir_iters: results[0].ir_iters,
        solution: results[0].x.take(),
        trace_rank0: std::mem::take(&mut results[0].trace),
        totals: results.iter().map(|r| r.totals).collect(),
        records: results.into_iter().map(|r| r.records).collect(),
    }
}

/// Rounds a requested problem size up to the nearest valid `N` — "the size
/// of A is determined by N and adjusted to a multiple of P_r, P_c and B"
/// (§III-C): the block count must divide evenly into both grid dimensions.
///
/// Panics on grid×block combinations whose rounding quantum (or the
/// rounded size itself) overflows `usize`; use [`try_adjust_n`] to handle
/// adversarial inputs gracefully.
pub fn adjust_n(requested: usize, grid: &ProcessGrid, b: usize) -> usize {
    try_adjust_n(requested, grid, b).unwrap_or_else(|| {
        panic!(
            "adjust_n overflow: B = {b} with a {}x{} grid has no representable valid N >= {requested}",
            grid.p_r, grid.p_c
        )
    })
}

/// [`adjust_n`] returning `None` when the quantum `B·lcm(P_r, P_c)` or the
/// rounded size overflows, instead of wrapping silently.
pub fn try_adjust_n(requested: usize, grid: &ProcessGrid, b: usize) -> Option<usize> {
    let quantum = b.checked_mul(checked_lcm(grid.p_r, grid.p_c)?)?;
    if quantum == 0 {
        return None;
    }
    requested.div_ceil(quantum).max(1).checked_mul(quantum)
}

fn checked_lcm(a: usize, b: usize) -> Option<usize> {
    if a == 0 || b == 0 {
        return None;
    }
    (a / gcd(a, b)).checked_mul(b)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Executes `runs` consecutive benchmark runs within one "batch job",
/// applying the machine's warm-up / thermal run-sequence behaviour
/// (Fig. 12, Finding 10). `warmed_up` models running the warm-up
/// mini-benchmark before the first full run. Only the simulated report is
/// rescaled: every outcome keeps the nominal run's provenance as it is.
pub fn run_sequence(cfg: &RunConfig, runs: usize, warmed_up: bool) -> Vec<RunOutcome> {
    use mxp_gpusim::RunSequence;
    let seq = RunSequence::new(cfg.sys.warmup, warmed_up, cfg.seed);
    let nominal = run(cfg);
    (0..runs)
        .map(|r| {
            let mult = seq.runtime_multiplier(r);
            RunOutcome {
                perf: nominal.perf.scaled(cfg.n, cfg.grid.size(), mult),
                ..nominal.clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::testbed;

    #[test]
    fn functional_end_to_end_passes_the_benchmark() {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::functional(testbed(1, 4), grid, 64, 8)
            .build()
            .unwrap();
        let out = run(&cfg);
        assert!(out.converged, "benchmark failed: {out:?}");
        assert!(out.scaled_residual.unwrap() < 16.0);
        assert!(out.perf.runtime > 0.0);
        assert!(out.perf.gflops_per_gcd > 0.0);
        assert_eq!(out.records_rank0().len(), 8);
        assert_eq!(out.records.len(), 4);
        // The rank contexts feed real communication counters upward.
        assert!(out.perf.comm_bytes > 0, "no wire traffic recorded");
        assert!(out.perf.comm_wait >= 0.0 && out.perf.comm_wait < out.perf.runtime);
    }

    #[test]
    fn timing_run_reports_metrics() {
        let grid = ProcessGrid::node_local(4, 4, 2, 2);
        let cfg = RunConfig::timing(testbed(4, 4), grid, 4096, 256)
            .build()
            .unwrap();
        let out = run(&cfg);
        assert!(out.converged);
        assert!(out.scaled_residual.is_none());
        assert!(out.perf.factor_time > 0.0 && out.perf.ir_time > 0.0);
        assert!(out.perf.gflops_per_gcd > 0.0);
    }

    #[test]
    fn lookahead_wins_when_communication_matters() {
        // Look-ahead hides the panel broadcast behind the remainder GEMM;
        // the benefit needs a communication-visible scale (8×8 grid). At
        // toy scales the thin strip GEMMs' inefficiency can outweigh it.
        let grid = ProcessGrid::node_local(8, 8, 2, 2);
        let sys = testbed(16, 4);
        let with = RunConfig::timing(sys.clone(), grid, 32768, 512)
            .lookahead(true)
            .build()
            .unwrap();
        let without = with.to_builder().lookahead(false).build().unwrap();
        let t_with = run(&with).perf.runtime;
        let t_without = run(&without).perf.runtime;
        assert!(t_with < t_without, "lookahead {t_with} vs none {t_without}");
    }

    #[test]
    fn event_backend_reproduces_the_functional_run_bitwise() {
        // Tentpole invariant: the same driver, byte-identical results on
        // both backends — fidelity functional (real payloads on fibers).
        let grid = ProcessGrid::col_major(2, 2, 4);
        let base = RunConfig::functional(testbed(1, 4), grid, 64, 8);
        let threads = run_with_series(&base.clone().build().unwrap(), Series::AllRanks);
        let fibers = run_with_series(
            &base.backend(Backend::EventTimed).build().unwrap(),
            Series::AllRanks,
        );
        assert_eq!(
            threads.perf.runtime.to_bits(),
            fibers.perf.runtime.to_bits()
        );
        assert_eq!(
            threads.perf.comm_wait.to_bits(),
            fibers.perf.comm_wait.to_bits()
        );
        assert_eq!(threads.perf.comm_bytes, fibers.perf.comm_bytes);
        assert_eq!(threads.scaled_residual, fibers.scaled_residual);
        assert_eq!(threads.records, fibers.records);
        assert_eq!(threads.perf.backend, Backend::Functional);
        assert_eq!(fibers.perf.backend, Backend::EventTimed);
        assert_eq!(fibers.perf.simulated_ranks, 4);
        assert!(fibers.provenance.wall_vs_virtual_time > 0.0);
    }

    #[test]
    fn functional_backend_rejects_full_machine_grids() {
        // 16,384 ranks would mean 16,384 OS threads: the functional
        // backend refuses with a typed error steering to EventTimed.
        let grid = ProcessGrid::col_major(128, 128, 8);
        let cfg = RunConfig::timing(testbed(2048, 8), grid, 8192, 8)
            .build()
            .unwrap();
        let err = run_with_backend(&cfg, |ctx| ctx.rank()).unwrap_err();
        match err {
            BackendError::TooManyRanks { ranks, limit, .. } => {
                assert_eq!(ranks, 16384);
                assert!(limit < 16384);
            }
        }
        assert!(err.to_string().contains("EventTimed"));
        // The event backend hosts the same grid in-process.
        let cfg = cfg
            .to_builder()
            .backend(Backend::EventTimed)
            .build()
            .unwrap();
        let ranks = run_with_backend(&cfg, |ctx| ctx.rank()).unwrap();
        assert_eq!(ranks.len(), 16384);
        assert!(ranks.iter().enumerate().all(|(i, &r)| i == r));
    }

    #[test]
    fn adjust_n_produces_valid_sizes() {
        let grid = ProcessGrid::col_major(6, 4, 6);
        for req in [1usize, 100, 999, 7000, 123_456] {
            let n = adjust_n(req, &grid, 32);
            assert!(n >= req);
            assert_eq!(n % 32, 0);
            let n_b = n / 32;
            assert_eq!(n_b % 6, 0);
            assert_eq!(n_b % 4, 0);
            // Minimality: one quantum less would undershoot (or be zero).
            let quantum = 32 * 12;
            assert!(n - quantum < req || n == quantum);
        }
    }

    #[test]
    fn adjust_n_overflow_is_detected_not_wrapped() {
        // Regression: `adjust_n` used an unchecked `b * lcm(p_r, p_c)`;
        // with a huge block size the quantum wrapped around and the
        // "rounded" N came out tiny (and not a multiple of anything). The
        // checked path must refuse instead.
        let grid = ProcessGrid::col_major(6, 4, 6); // lcm = 12
        let huge_b = usize::MAX / 4;
        assert_eq!(try_adjust_n(1024, &grid, huge_b), None);
        // Quantum fits but rounding up past the request overflows.
        assert_eq!(try_adjust_n(usize::MAX, &grid, 1 << 40), None);
        // Degenerate zero block size has no valid N either.
        assert_eq!(try_adjust_n(1024, &grid, 0), None);
        // The checked and panicking paths agree wherever both are defined.
        for req in [1usize, 999, 123_456] {
            assert_eq!(try_adjust_n(req, &grid, 32), Some(adjust_n(req, &grid, 32)));
        }
    }

    #[test]
    #[should_panic(expected = "adjust_n overflow")]
    fn adjust_n_panics_with_context_on_overflow() {
        let grid = ProcessGrid::col_major(6, 4, 6);
        adjust_n(1024, &grid, usize::MAX / 4);
    }

    #[test]
    fn run_sequence_reproduces_fig12_shape() {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let mut sys = testbed(1, 4);
        sys.warmup = mxp_gpusim::thermal::WarmupProfile::Summit;
        let cfg = RunConfig::timing(sys, grid, 2048, 256).build().unwrap();
        let cold = run_sequence(&cfg, 6, false);
        // First run ~20% slower, later runs stable.
        assert!(cold[0].perf.runtime > 1.19 * cold[1].perf.runtime);
        for w in cold[1..].windows(2) {
            assert!((w[0].perf.runtime / w[1].perf.runtime - 1.0).abs() < 0.01);
        }
        let warmed = run_sequence(&cfg, 6, true);
        assert!((warmed[0].perf.runtime / cold[1].perf.runtime - 1.0).abs() < 0.01);
    }

    #[test]
    fn fleet_variability_slows_the_run() {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let clean = run(&RunConfig::timing(sys.clone(), grid, 2048, 256)
            .build()
            .unwrap())
        .perf
        .runtime;
        let cfg = RunConfig::timing(sys, grid, 2048, 256)
            .fleet(mxp_gpusim::GcdFleet::generate(4, 1, 0.05, 1, 0.5))
            .build()
            .unwrap();
        let degraded = run(&cfg).perf.runtime;
        assert!(degraded > clean, "{degraded} !> {clean}");
    }

    #[test]
    fn injected_slowdown_stalls_the_run() {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let clean = run(&RunConfig::timing(sys.clone(), grid, 2048, 256)
            .build()
            .unwrap())
        .perf
        .runtime;
        let cfg = RunConfig::timing(sys, grid, 2048, 256)
            .faults(FaultPlan::new().parse_spec("slow-gcd:3x:g2", 0).unwrap())
            .build()
            .unwrap();
        let hurt = run(&cfg).perf.runtime;
        assert!(hurt > 1.5 * clean, "fault {hurt} vs clean {clean}");
    }

    #[test]
    fn injected_link_fault_slows_the_run() {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let clean = run(&RunConfig::timing(sys.clone(), grid, 2048, 256)
            .build()
            .unwrap())
        .perf
        .runtime;
        let cfg = RunConfig::timing(sys, grid, 2048, 256)
            .faults(
                FaultPlan::new()
                    .parse_spec("link-lat:5ms:from1", 0)
                    .unwrap(),
            )
            .build()
            .unwrap();
        let hurt = run(&cfg).perf.runtime;
        assert!(hurt > clean, "link fault {hurt} vs clean {clean}");
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let sys = testbed(1, 4);
        let grid = ProcessGrid::col_major(2, 2, 4);
        // N not tiling the grid.
        assert!(matches!(
            RunConfig::functional(sys.clone(), grid, 100, 8).build(),
            Err(ConfigError::NotDivisible { .. })
        ));
        // Zero size.
        assert!(matches!(
            RunConfig::functional(sys.clone(), grid, 0, 8).build(),
            Err(ConfigError::ZeroSize)
        ));
        // Fleet smaller than the grid.
        assert!(matches!(
            RunConfig::timing(sys.clone(), grid, 64, 8)
                .fleet(GcdFleet::uniform(2))
                .build(),
            Err(ConfigError::FleetTooSmall { fleet: 2, ranks: 4 })
        ));
        // Fault target outside the grid.
        assert!(matches!(
            RunConfig::timing(sys.clone(), grid, 64, 8)
                .faults(FaultPlan::new().parse_spec("slow-gcd:3x:g9", 0).unwrap())
                .build(),
            Err(ConfigError::FaultTargetOutOfRange { gcd: 9, ranks: 4 })
        ));
        // Grid not filling whole nodes (bypass the constructor assert to
        // exercise the builder's own check).
        let ragged = ProcessGrid {
            p_r: 3,
            p_c: 1,
            q_r: 2,
            q_c: 1,
            order: crate::grid::RankOrder::ColMajor,
        };
        assert!(matches!(
            RunConfig::timing(sys, ragged, 48, 8).build(),
            Err(ConfigError::GridDoesNotFillNodes { .. })
        ));
        // Errors render human-readable messages.
        let err = ConfigError::NotDivisible {
            n: 100,
            b: 8,
            p_r: 2,
            p_c: 2,
        };
        assert!(err.to_string().contains("adjust_n"));
    }
}
