//! The traced run's per-layer measurements, all taken from outside the
//! program through public functions:
//!
//! * **Replay** — the workload's per-iteration kernel shapes (every rank,
//!   every panel, plus IR) are re-issued through the public BLAS and LCG
//!   calls one after another, each inside a span. A layer's time is the
//!   self time of its spans; `core.residual_s` is the traced wall time
//!   minus the sum, i.e. comm runtime, pool waits, the rank host and the
//!   factorization code in `core`. `sim-summit` runs no real math, so
//!   nothing is replayed.
//! * **Probes** — fixed micro-measurements at the workload's shapes
//!   (f32 GEMM peak, LCG fill, world spin-up, panel broadcast) and at
//!   `sim-summit`'s shapes (the gpusim/netsim cost functions).
//! * **Counters** the program already exposes (`tune_stats`,
//!   `last_event_stats`, `MatrixCache` stats, `RunOutcome` records).
//!   `sim-summit`'s scheduler counters come from its one-shard traced
//!   operation, except the cross-shard ones, which come from the extra
//!   operation on the default shard count.

use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{self, OpOut, Prepared, Workload};
use crate::Metric;
use hplai_core::{
    run_with_backend, Backend, CommScope, IterRecord, PanelData, ProcessGrid, RunConfig,
    TrailingPrecision,
};
use mxp_blas::{Diag, Side, Trans, Uplo};
use mxp_lcg::{MatrixGen, MatrixKind};
use mxp_msgsim::BcastAlgo;
use mxp_precision::{LowPrec, B16, F16};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the traced run hands over.
pub struct Inputs<'a> {
    pub prep: &'a Prepared,
    pub untraced_wall: f64,
    pub traced_wall: f64,
    pub out: &'a OpOut,
    /// Wall time and outputs of the operation on the default shard count
    /// (`sim-summit` only).
    pub sharded: Option<(f64, &'a OpOut)>,
    pub sweep_s: f64,
    pub nproc: usize,
    pub k32: &'static str,
    pub k64: &'static str,
}

/// Per-layer results: the metrics of the result line (defined on every
/// workload) and the full table (rows a workload bypasses read `-`).
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub table: Vec<(String, String, &'static str)>,
    /// Checked operations of the service probe, and how many failed.
    pub probe_checks: (u64, u64),
}

/// Work counts of a replay (computed from the shapes, not measured).
#[derive(Default)]
struct Counts {
    gemm_mixed_flops: f64,
    gemm_f64_flops: f64,
    cast_bytes: f64,
    trans_cast_bytes: f64,
    fill_elems: f64,
}

/// Block indices `< upto` owned by grid coordinate `pi` of `p`.
fn count_owned(upto: usize, pi: usize, p: usize) -> usize {
    if upto > pi {
        (upto - pi).div_ceil(p)
    } else {
        0
    }
}

/// A factored diagonal block: LU of a diagonally dominant `b × b` tile,
/// like the one the owner broadcasts each iteration.
fn factored_diag<R: mxp_precision::Real>(
    b: usize,
    seed: u64,
    fill: impl Fn(&MatrixGen, &mut [R]),
) -> Vec<R> {
    let gen = MatrixGen::new(seed, b, MatrixKind::DiagDominant);
    let mut d = vec![R::from_f64(0.0); b * b];
    fill(&gen, &mut d);
    mxp_blas::getrf_nopiv(b, &mut d, b).expect("diagonally dominant block factors");
    d
}

/// Replays one HPL-MxP job (factorization on every rank of the grid, then
/// `ir_iters` IR residual sweeps) with panels stored as `L`.
fn replay_mxp<L: LowPrec>(w: Workload, seed: u64, ir_iters: usize, t: &mut Tracer, c: &mut Counts) {
    let (n, b, p_r, p_c) = w.shape();
    let n_b = n / b;
    let (rows, cols) = (n / p_r, n / p_c);
    let gen = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
    let pristine = factored_diag::<f32>(b, seed, |g, d| g.fill_tile_f32(0..b, 0..b, b, d));
    let mut diag = pristine.clone();
    let mut local = vec![0f32; rows * cols];
    let mut l16 = vec![L::from_f32(0.0); rows * b];
    let mut u16t = vec![L::from_f32(0.0); cols * b];
    let mut col_buf = vec![0f64; n * b];
    let x = vec![1.0f64; n];
    let mut ax = vec![0f64; n];
    for r in 0..p_r {
        for cc in 0..p_c {
            // Initial fill of this rank's local matrix, block by block.
            let s = t.begin("lcg.fill");
            for jb in (cc..n_b).step_by(p_c) {
                for ib in (r..n_b).step_by(p_r) {
                    let off = (jb / p_c) * b * rows + (ib / p_r) * b;
                    gen.fill_tile_f32(
                        ib * b..(ib + 1) * b,
                        jb * b..(jb + 1) * b,
                        rows,
                        &mut local[off..],
                    );
                }
            }
            t.end(s);
            c.fill_elems += (rows * cols) as f64;
            for k in 0..n_b {
                let (in_row, in_col) = (k % p_r == r, k % p_c == cc);
                let (lr, lc) = (
                    count_owned(k + 1, r, p_r) * b,
                    count_owned(k + 1, cc, p_c) * b,
                );
                let (m_loc, n_loc) = (rows - lr, cols - lc);
                if in_row && in_col {
                    diag.copy_from_slice(&pristine);
                    let s = t.begin("blas.getrf");
                    mxp_blas::getrf_nopiv(b, &mut diag, b)
                        .expect("diagonally dominant block factors");
                    t.end(s);
                }
                if in_row && n_loc > 0 {
                    let off = lc * rows + (k / p_r) * b;
                    let s = t.begin("blas.trsm");
                    mxp_blas::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Diag::Unit,
                        b,
                        n_loc,
                        1.0,
                        &pristine,
                        b,
                        &mut local[off..],
                        rows,
                    );
                    t.end(s);
                    let s = t.begin("blas.trans_cast");
                    mxp_blas::trans_cast_f32_to_low(b, n_loc, &local[off..], rows, &mut u16t);
                    t.end(s);
                    c.trans_cast_bytes += (b * n_loc * (4 + 2)) as f64;
                }
                if in_col && m_loc > 0 {
                    let off = (k / p_c) * b * rows + lr;
                    let s = t.begin("blas.trsm");
                    mxp_blas::trsm(
                        Side::Right,
                        Uplo::Upper,
                        Diag::NonUnit,
                        m_loc,
                        b,
                        1.0,
                        &pristine,
                        b,
                        &mut local[off..],
                        rows,
                    );
                    t.end(s);
                    let s = t.begin("blas.cast");
                    mxp_blas::cast_f32_to_low(m_loc, b, &local[off..], rows, &mut l16);
                    t.end(s);
                    c.cast_bytes += (m_loc * b * (4 + 2)) as f64;
                }
                if m_loc > 0 && n_loc > 0 {
                    let off = lc * rows + lr;
                    let s = t.begin("blas.gemm_mixed");
                    mxp_blas::gemm_mixed(
                        Trans::No,
                        Trans::Yes,
                        m_loc,
                        n_loc,
                        b,
                        -1.0,
                        &l16,
                        m_loc,
                        &u16t,
                        n_loc,
                        1.0,
                        &mut local[off..],
                        rows,
                    );
                    t.end(s);
                    c.gemm_mixed_flops += 2.0 * (m_loc * n_loc * b) as f64;
                }
            }
            // IR residual: regenerate the owned diagonal block columns
            // and accumulate A·x.
            for _ in 0..ir_iters {
                for k in (0..n_b).filter(|k| k % p_r == r && k % p_c == cc) {
                    let s = t.begin("lcg.ir_fill");
                    gen.fill_tile(0..n, k * b..(k + 1) * b, n, &mut col_buf);
                    t.end(s);
                    let s = t.begin("blas.gemv");
                    mxp_blas::gemv(
                        Trans::No,
                        n,
                        b,
                        1.0,
                        &col_buf,
                        n,
                        &x[k * b..(k + 1) * b],
                        1.0,
                        &mut ax,
                    );
                    t.end(s);
                }
            }
        }
    }
    black_box((&local, &ax));
}

/// Replays one distributed FP64 HPL solve's BLAS work: per panel, the
/// U12 TRSM on row owners and the trailing f64 GEMM on every rank.
fn replay_hpl(seed: u64, t: &mut Tracer, c: &mut Counts) {
    let (n, b, p_r, p_c) = Workload::HplFp64.shape();
    let n_b = n / b;
    let (rows, cols) = (n / p_r, n / p_c);
    let gen = MatrixGen::new(seed, n, MatrixKind::Uniform);
    let l11 = factored_diag::<f64>(b, seed, |g, d| g.fill_tile(0..b, 0..b, b, d));
    let mut local = vec![0f64; rows * cols];
    let l21 = vec![1e-3f64; rows * b];
    let u12 = vec![1e-3f64; b * cols];
    for r in 0..p_r {
        for cc in 0..p_c {
            let s = t.begin("lcg.fill");
            for jb in (cc..n_b).step_by(p_c) {
                for ib in (r..n_b).step_by(p_r) {
                    let off = (jb / p_c) * b * rows + (ib / p_r) * b;
                    gen.fill_tile(
                        ib * b..(ib + 1) * b,
                        jb * b..(jb + 1) * b,
                        rows,
                        &mut local[off..],
                    );
                }
            }
            t.end(s);
            c.fill_elems += (rows * cols) as f64;
            for k in 0..n_b {
                let (lr, lc) = (
                    count_owned(k + 1, r, p_r) * b,
                    count_owned(k + 1, cc, p_c) * b,
                );
                let (m_loc, n_loc) = (rows - lr, cols - lc);
                if k % p_r == r && n_loc > 0 {
                    let off = lc * rows + (k / p_r) * b;
                    let s = t.begin("blas.trsm");
                    mxp_blas::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Diag::Unit,
                        b,
                        n_loc,
                        1.0,
                        &l11,
                        b,
                        &mut local[off..],
                        rows,
                    );
                    t.end(s);
                }
                if m_loc > 0 && n_loc > 0 {
                    let off = lc * rows + lr;
                    let s = t.begin("blas.gemm_f64");
                    mxp_blas::gemm(
                        Trans::No,
                        Trans::No,
                        m_loc,
                        n_loc,
                        b,
                        -1.0,
                        &l21,
                        m_loc,
                        &u12,
                        b,
                        1.0,
                        &mut local[off..],
                        rows,
                    );
                    t.end(s);
                    c.gemm_f64_flops += 2.0 * (m_loc * n_loc * b) as f64;
                }
            }
        }
    }
    black_box(&local);
}

fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// f32 GEMM rate at 1024³ on one thread (the host's kernel peak).
fn peak_f32_gflops(nproc: usize) -> f64 {
    let n = 1024;
    let a = vec![0.5f32; n * n];
    let bm = vec![0.25f32; n * n];
    let mut cm = vec![0f32; n * n];
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let s = time_median(3, || {
        mxp_blas::gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            &a,
            n,
            &bm,
            n,
            0.0,
            &mut cm,
            n,
        )
    });
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    2.0 * (n * n * n) as f64 / s / 1e9
}

fn world_2x2(backend: Backend) -> RunConfig {
    RunConfig::functional(
        hplai_core::testbed(1, 4),
        ProcessGrid::col_major(2, 2, 4),
        64,
        8,
    )
    .backend(backend)
    .build()
    .expect("2x2 world is valid")
}

/// Median wall time, ms, to stand up and tear down an empty 4-rank world.
fn world_up_ms(backend: Backend) -> f64 {
    let cfg = world_2x2(backend);
    1e3 * time_median(21, || {
        run_with_backend(&cfg, |ctx| ctx.rank()).expect("4 ranks fit")
    })
}

/// GB/s of a real `B × N_L` fp16 panel broadcast down the columns of a
/// 2×2 thread world (slowest rank's time).
fn panel_bcast_gbs(w: Workload) -> f64 {
    let (n, b, p_r, _) = w.shape();
    let n_l = n / p_r;
    let src = vec![0.5f32; b * n_l];
    let panel = PanelData::cast(TrailingPrecision::Fp16, b, n_l, &src, b);
    let bytes = (2 * b * n_l) as u64;
    let cfg = world_2x2(Backend::Functional);
    let secs: Vec<f64> = (0..5)
        .map(|_| {
            let per_rank = run_with_backend(&cfg, |ctx| {
                ctx.barrier(CommScope::World);
                let t = Instant::now();
                let mine = (ctx.group_idx(CommScope::Col) == 0).then_some(&panel);
                black_box(ctx.bcast_panel(CommScope::Col, 0, mine, bytes, BcastAlgo::Lib));
                t.elapsed().as_secs_f64()
            })
            .expect("4 ranks fit");
            per_rank.into_iter().fold(0.0, f64::max)
        })
        .collect();
    bytes as f64 / median(&secs) / 1e9
}

/// ns per call of the gpusim GEMM cost function over rank 0's trailing
/// shapes of `sim-summit`.
fn gemm_time_ns() -> f64 {
    let (n, b, p_r, p_c) = Workload::SimSummit.shape();
    let dev = workloads::system(Workload::SimSummit).gcd;
    let (rows, cols) = (n / p_r, n / p_c);
    let shapes: Vec<(usize, usize)> = (0..n / b)
        .map(|k| {
            (
                rows - count_owned(k + 1, 0, p_r) * b,
                cols - count_owned(k + 1, 0, p_c) * b,
            )
        })
        .collect();
    let reps = 200;
    let s = time_median(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for &(m, nn) in &shapes {
                acc += dev.gemm_mixed_time(black_box(m), black_box(nn), b, rows);
            }
        }
        acc
    });
    s / (reps * shapes.len()) as f64 * 1e9
}

/// ns per call of the netsim transfer-time function between each rank of
/// `sim-summit`'s first node row and its row and column neighbours.
fn transfer_time_ns() -> f64 {
    let (n, b, p_r, p_c) = Workload::SimSummit.shape();
    let sys = workloads::system(Workload::SimSummit);
    let grid = ProcessGrid::node_local(p_r, p_c, 3, 2);
    let locs = grid.locs();
    let bytes = (2 * b * (n / p_r)) as u64;
    let pairs: Vec<_> = (0..p_c)
        .flat_map(|c| {
            let me = grid.rank_of(0, c);
            [grid.rank_of(0, (c + 1) % p_c), grid.rank_of(1, c)].map(|o| (locs[me], locs[o]))
        })
        .collect();
    let reps = 2000;
    let s = time_median(3, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for &(a, o) in &pairs {
                acc += sys.net.transfer_time(black_box(a), o, bytes, 1);
            }
        }
        acc
    });
    s / (reps * pairs.len()) as f64 * 1e9
}

/// Gelem/s of the LCG filling one rank's local matrix of `sim-summit`
/// (the simulation itself generates nothing).
fn fill_probe(seed: u64, t: &mut Tracer) -> (f64, f64) {
    let (n, b, p_r, p_c) = Workload::SimSummit.shape();
    let (rows, cols) = (n / p_r, n / p_c);
    let gen = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
    let mut local = vec![0f32; rows * cols];
    let s = t.begin("probe.lcg.fill");
    let started = Instant::now();
    for jb in 0..cols / b {
        for ib in 0..rows / b {
            let off = jb * b * rows + ib * b;
            gen.fill_tile_f32(
                ib * b * p_r..(ib * p_r + 1) * b,
                jb * b * p_c..(jb * p_c + 1) * b,
                rows,
                &mut local[off..],
            );
        }
    }
    let secs = started.elapsed().as_secs_f64();
    t.end(s);
    black_box(&local);
    (secs, (rows * cols) as f64)
}

/// Takes every per-layer measurement of the traced run.
pub fn measure(inp: &Inputs, t: &mut Tracer) -> Layers {
    let w = inp.prep.workload;
    let out = inp.out;
    let seed = inp.prep.cfg.seed;
    let mut c = Counts::default();

    // ---- replay ----------------------------------------------------------
    let replay = t.begin("replay");
    // A drain replays one fp16 and one bf16 job: each stands for half the
    // batch, except matrix generation, which only the cache misses pay.
    // Dividing by the workers turns batch busy time into wall-time share.
    let (per_job, per_fill, workers) = match w {
        Workload::ServeBatch => (
            workloads::BATCH_JOBS as f64 / 2.0,
            workloads::BATCH_SEEDS as f64 / 2.0,
            inp.prep.workers.max(1) as f64,
        ),
        _ => (1.0, 1.0, 1.0),
    };
    match w {
        Workload::SolveMxp => replay_mxp::<F16>(w, seed, out.ir_iters as usize, t, &mut c),
        Workload::HplFp64 => replay_hpl(seed, t, &mut c),
        Workload::SimSummit => {}
        Workload::ServeBatch => {
            let ir = (out.ir_iters as f64 / workloads::BATCH_JOBS as f64).round() as usize;
            replay_mxp::<F16>(w, seed, ir, t, &mut c);
            replay_mxp::<B16>(w, seed ^ 1, ir, t, &mut c);
        }
    }
    t.end(replay);

    // ---- probes ----------------------------------------------------------
    let peak = t.time("probe.blas.peak_f32", || peak_f32_gflops(inp.nproc));
    let up_thread = t.time("probe.msgsim.world_up.thread", || {
        world_up_ms(Backend::Functional)
    });
    let up_event = t.time("probe.msgsim.world_up.event", || {
        world_up_ms(Backend::EventTimed)
    });
    let bcast = t.time("probe.msgsim.panel_bcast", || panel_bcast_gbs(w));
    let gemm_ns = t.time("probe.gpusim.gemm_time", gemm_time_ns);
    let xfer_ns = t.time("probe.netsim.transfer_time", transfer_time_ns);
    // Workloads that drain no batch measure the service layer on a
    // serve-batch drain of their own seed.
    let probe = (out.cache.is_none()).then(|| {
        t.time("probe.core.service.drain", || {
            let mut p = workloads::prepare(Workload::ServeBatch, seed, inp.nproc);
            let raw = workloads::execute(&mut p);
            workloads::check(&p, raw, None)
        })
    });
    let svc = probe.as_ref().unwrap_or(out);

    let selft = spans::self_times(t.spans());
    let raw = |name: &str| selft.get(name).copied();
    let scale = |name: &str| if name == "lcg.fill" { per_fill } else { per_job } / workers;
    let layer = |name: &str| raw(name).map(|v| v * scale(name));
    let replayed: f64 = selft
        .keys()
        .filter(|k| k.starts_with("blas.") && k.as_str() != "blas.tune" || k.starts_with("lcg."))
        .filter_map(|k| layer(k))
        .sum();
    let residual = inp.traced_wall - replayed;
    let (fill_s, fill_rate) = match raw("lcg.fill") {
        Some(s) => (s * scale("lcg.fill"), c.fill_elems / s),
        None => {
            let (s, elems) = fill_probe(seed, t);
            (s, elems / s)
        }
    };

    let (tune_hits, sweeps) = mxp_blas::tune_stats();
    let sched = out.sched;
    let sharded_sched = inp.sharded.and_then(|(_, o)| o.sched);
    let cache = svc.cache;
    let rec_bytes = out.sim.records as f64 * std::mem::size_of::<IterRecord>() as f64;
    let jobs_ms = |event: bool| {
        let v: Vec<f64> = svc
            .jobs
            .iter()
            .filter(|j| j.1 == event)
            .map(|j| j.0 * 1e3)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };

    let metrics = vec![
        Metric::new("blas.tune.sweep_s", inp.sweep_s, "s"),
        Metric::new("blas.tune.sweeps", sweeps as f64, "count"),
        Metric::new("blas.peak_f32.gflops", peak, "GFLOP/s"),
        Metric::new("lcg.fill.gelems", fill_rate / 1e9, "Gelem/s"),
        Metric::new("msgsim.world_up_ms.thread", up_thread, "ms"),
        Metric::new("msgsim.world_up_ms.event", up_event, "ms"),
        Metric::new("msgsim.panel_bcast.gbs", bcast, "GB/s"),
        Metric::new("gpusim.gemm_time.ns_per_call", gemm_ns, "ns"),
        Metric::new("netsim.transfer_time.ns_per_call", xfer_ns, "ns"),
        Metric::new("core.residual_s", residual, "s"),
        Metric::new(
            "core.trace_overhead_s",
            inp.traced_wall - inp.untraced_wall,
            "s",
        ),
        Metric::new("core.sim.runtime_s", out.sim.runtime, "sim_s"),
        Metric::new("core.sim.comm_bytes", out.sim.comm_bytes as f64, "B"),
        Metric::new("core.sim.comm_wait_s", out.sim.comm_wait, "sim_s"),
        Metric::new("core.records.bytes", rec_bytes, "B"),
        Metric::new("core.ir.iters", out.ir_iters as f64, "count"),
        Metric::new(
            "msgsim.sched.resumes",
            sched.map_or(0.0, |s| s.resumes as f64),
            "count",
        ),
        Metric::new(
            "msgsim.msgs.local",
            sched.map_or(0.0, |s| s.local_msgs as f64),
            "count",
        ),
        Metric::new(
            "msgsim.msgs.cross",
            sharded_sched.map_or(0.0, |s| s.cross_msgs as f64),
            "count",
        ),
        Metric::new(
            "msgsim.sharded.wall_s",
            inp.sharded.map_or(0.0, |(wall, _)| wall),
            "s",
        ),
        Metric::new(
            "msgsim.stacks.allocated",
            sched.map_or(0.0, |s| s.stacks_allocated as f64),
            "count",
        ),
        Metric::new(
            "msgsim.stacks.reused",
            sched.map_or(0.0, |s| s.stacks_reused as f64),
            "count",
        ),
        Metric::new(
            "service.cache.hits",
            cache.map_or(0.0, |s| s.hits as f64),
            "count",
        ),
        Metric::new(
            "service.cache.misses",
            cache.map_or(0.0, |s| s.misses as f64),
            "count",
        ),
    ];

    // ---- full table ------------------------------------------------------
    let mut table: Vec<(String, String, &'static str)> = metrics
        .iter()
        .map(|m| (m.name.clone(), format!("{}", m.value), m.unit))
        .collect();
    let mut row = |name: &str, v: Option<f64>, unit: &'static str| {
        table.push((
            name.to_string(),
            v.map_or("-".into(), |v| format!("{v}")),
            unit,
        ));
    };
    // Rates use one replay's counts over its own time; counts and times
    // are reported for the whole timed operation.
    let rate = |work: f64, name: &str| {
        raw(name)
            .filter(|&s| s > 0.0 && work > 0.0)
            .map(|s| work / s / 1e9)
    };
    let count = |work: f64| (work > 0.0).then_some(work * per_job);
    row("blas.gemm_mixed.s", layer("blas.gemm_mixed"), "s");
    row(
        "blas.gemm_mixed.gflops",
        rate(c.gemm_mixed_flops, "blas.gemm_mixed"),
        "GFLOP/s",
    );
    row(
        "blas.gemm_mixed.flops",
        count(c.gemm_mixed_flops),
        "flop (computed)",
    );
    row("blas.gemm_f64.s", layer("blas.gemm_f64"), "s");
    row(
        "blas.gemm_f64.gflops",
        rate(c.gemm_f64_flops, "blas.gemm_f64"),
        "GFLOP/s",
    );
    row("blas.trsm.s", layer("blas.trsm"), "s");
    row("blas.getrf.s", layer("blas.getrf"), "s");
    row("blas.cast.s", layer("blas.cast"), "s");
    row("blas.cast.bytes", count(c.cast_bytes), "B (computed)");
    row("blas.trans_cast.s", layer("blas.trans_cast"), "s");
    row(
        "blas.trans_cast.bytes",
        count(c.trans_cast_bytes),
        "B (computed)",
    );
    row("blas.gemv.s", layer("blas.gemv"), "s");
    row("lcg.ir_fill.s", layer("lcg.ir_fill"), "s");
    row("blas.tune.file_hits", Some(tune_hits as f64), "count");
    row("lcg.fill.s", Some(fill_s), "s");
    row("core.replayed_s", Some(replayed), "s");
    row("core.wall_s.traced", Some(inp.traced_wall), "s");
    row("core.wall_s.untraced", Some(inp.untraced_wall), "s");
    row("core.scaled_residual", out.scaled_residual, "1");
    row(
        "core.hpl.swaps",
        (w == Workload::HplFp64).then_some(out.swaps as f64),
        "count",
    );
    for (i, phase) in ["getrf", "trsm", "cast", "gemm", "bcast", "wait"]
        .iter()
        .enumerate()
    {
        row(
            &format!("core.sim.{phase}_s"),
            Some(out.sim.rank0[i]),
            "sim_s",
        );
    }
    row("msgsim.sched.run_s", sched.map(|s| s.run_secs), "s");
    row("msgsim.sched.deliver_s", sched.map(|s| s.deliver_secs), "s");
    row("msgsim.sched.idle_s", sched.map(|s| s.idle_secs), "s");
    row(
        "msgsim.sched.switch_s_est",
        sched.map(|s| s.switch_secs_est),
        "s",
    );
    row(
        "msgsim.sched.overhead_frac",
        sched.map(|s| s.sched_overhead()),
        "1",
    );
    row(
        "msgsim.sched.shards",
        sched.map(|s| s.shards as f64),
        "count",
    );
    row(
        "msgsim.sharded.shards",
        sharded_sched.map(|s| s.shards as f64),
        "count",
    );
    row(
        "msgsim.sharded.resumes",
        sharded_sched.map(|s| s.resumes as f64),
        "count",
    );
    row(
        "msgsim.sharded.speedup",
        inp.sharded.map(|(wall, _)| inp.untraced_wall / wall),
        "x",
    );
    row("service.cache.hit_rate", cache.map(|s| s.hit_rate()), "1");
    row("service.job_ms.thread", jobs_ms(false), "ms");
    row("service.job_ms.event", jobs_ms(true), "ms");
    table.push(("blas.tune.variant_f32".into(), inp.k32.into(), "name"));
    table.push(("blas.tune.variant_f64".into(), inp.k64.into(), "name"));
    table.push((
        "core.sim.digest".into(),
        format!("{:016x}", out.digest),
        "hex",
    ));
    Layers {
        metrics,
        table,
        probe_checks: probe.map_or((0, 0), |p| (p.attempted, p.failed)),
    }
}

/// Prints the table and writes it, with the Chrome trace, to `dir`.
pub fn write(dir: &Path, id: &str, layers: &Layers, t: &Tracer) {
    let mut by_name: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    for (name, v, unit) in &layers.table {
        by_name.insert(name, (v, unit));
        println!("layer {name:<36} {v:>24} {unit}");
    }
    let rows: Vec<String> = by_name
        .iter()
        .map(|(k, (v, u))| format!("  \"{k}\": {{\"value\": \"{v}\", \"unit\": \"{u}\"}}"))
        .collect();
    let table = format!("{{\n  \"run\": \"{id}\",\n{}\n}}\n", rows.join(",\n"));
    let trace_path = dir.join(format!("{id}.trace.json"));
    let table_path = dir.join(format!("{id}.layers.json"));
    for (path, body) in [(&trace_path, t.chrome_json(id)), (&table_path, table)] {
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_owned_matches_enumeration() {
        for p in 1..5 {
            for pi in 0..p {
                for upto in 0..20 {
                    let want = (0..upto).filter(|k| k % p == pi).count();
                    assert_eq!(count_owned(upto, pi, p), want, "upto {upto} pi {pi} p {p}");
                }
            }
        }
    }

    /// Replayed layer rows plus the residual equal the wall time: the
    /// residual is defined as the remainder, and the layer rows are self
    /// times, so nested replay spans are not counted twice.
    #[test]
    fn replayed_rows_plus_residual_equal_wall() {
        let mut t = Tracer::new(true);
        let mut c = Counts::default();
        let wall = Instant::now();
        let root = t.begin("bench");
        let r = t.begin("replay");
        replay_mxp::<F16>(Workload::ServeBatch, 3, 1, &mut t, &mut c);
        t.end(r);
        t.end(root);
        let wall = wall.elapsed().as_secs_f64();
        let st = spans::self_times(t.spans());
        let layer_sum: f64 = st
            .iter()
            .filter(|(k, _)| k.starts_with("blas.") || k.starts_with("lcg."))
            .map(|(_, v)| v)
            .sum();
        let residual = wall - layer_sum;
        let parts = layer_sum + residual;
        assert!((parts - wall).abs() < 1e-12);
        // The residual holds exactly the non-layer self time.
        let other = st["bench"] + st["replay"];
        assert!((residual - other).abs() < 1e-3, "{residual} vs {other}");
        assert!(c.gemm_mixed_flops > 0.0 && c.cast_bytes > 0.0 && c.fill_elems > 0.0);
        for name in [
            "blas.gemm_mixed",
            "blas.trsm",
            "blas.getrf",
            "blas.cast",
            "blas.trans_cast",
            "blas.gemv",
            "lcg.fill",
            "lcg.ir_fill",
        ] {
            assert!(st.contains_key(name), "{name} replayed");
        }
    }
}
