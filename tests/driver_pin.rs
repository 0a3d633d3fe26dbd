//! Bitwise pin of the three resumable drivers' results and clocks.
//!
//! Every case folds what one run produces into one FNV-1a digest:
//!
//! * distributed FP64 HPL ([`hpl_dist_solve`]): every rank's solution
//!   bits, pivot record, scaled residual, `elapsed`, and final `now()`, `wait_total()` and
//!   `bytes_sent()` — on 1×1, 2×2, 2×3 and 3×2 grids, both matrix classes
//!   and both rank hosts, plus one run resumed from its own checkpoint;
//! * HPL-MxP ([`run`]): the solution bits, IR sweep count, every
//!   [`PerfReport`] field and every rank's [`PhaseTotals`] — on the same
//!   grids, look-ahead on and off, library and Ring2M broadcasts, at both
//!   fidelities, plus one run restarted from a mid-run snapshot.
//!
//! The goldens elsewhere pin rank 0's comm trace on one 2×2 grid; this
//! file pins every rank on non-square grids too. A refactor of the
//! drivers that leaves every simulated bit alone keeps
//! `tests/golden/driver_pin.txt` unchanged;
//! `GOLDEN_REGEN=1 cargo test -p hplai-core --test driver_pin` rewrites it
//! when a change to the simulated results is intended.

use hplai_core::checkpoint::{latest_in, RunCheckpointer};
use hplai_core::hpl_dist::{hpl_dist_solve, hpl_snapshot_header, HplDistState};
use hplai_core::trace::PhaseTotals;
use hplai_core::{
    run, run_with_backend, step_until_done, testbed, Backend, CheckpointSpec, PerfReport,
    ProcessGrid, RankCtx, RunConfig, Snapshot,
};
use mxp_lcg::MatrixKind;
use mxp_msgsim::BcastAlgo;
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::Arc;

const GRIDS: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (3, 2)];
const HPL_N: usize = 48;
const HPL_B: usize = 8;
const HPL_SEED: u64 = 4242;
const MXP_N: usize = 96;
const MXP_B: usize = 8;

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Two GCDs per node once there is more than one rank, so every grid
/// mixes intra- and inter-node hops.
fn grid(p_r: usize, p_c: usize) -> ProcessGrid {
    let q = if p_r * p_c > 1 { 2 } else { 1 };
    ProcessGrid::col_major(p_r, p_c, q)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hplai-driver-pin-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The rank's clocks and traffic once its driver has returned.
fn clocks(ctx: &RankCtx) -> [u64; 3] {
    [
        ctx.now().to_bits(),
        ctx.wait_total().to_bits(),
        ctx.bytes_sent(),
    ]
}

type HplRank = (hplai_core::hpl_dist::HplDistOutcome, [u64; 3]);

fn hpl_digest(ranks: &[HplRank]) -> u64 {
    let mut d = Digest::new();
    for (o, c) in ranks {
        d.f64s(&o.x);
        d.word(o.ipiv.len() as u64);
        for &p in &o.ipiv {
            d.word(p as u64);
        }
        d.f64(o.scaled_residual);
        d.f64(o.elapsed);
        for &w in c {
            d.word(w);
        }
    }
    d.0
}

fn hpl_case(g: ProcessGrid, kind: MatrixKind, backend: Backend) -> u64 {
    let sys = testbed(g.size() / g.gcds_per_node(), g.gcds_per_node());
    let cfg = RunConfig::functional(sys.clone(), g, HPL_N, HPL_B)
        .backend(backend)
        .build_or_panic();
    let ranks = run_with_backend(&cfg, |ctx| {
        let o = hpl_dist_solve(ctx, &sys, HPL_N, HPL_B, HPL_SEED, kind, 1.0);
        (o, clocks(ctx))
    })
    .unwrap();
    hpl_digest(&ranks)
}

/// A pivoted 2×3 HPL run checkpointed every two panels, then resumed on
/// fresh contexts from its newest snapshot and driven to the end.
fn hpl_resumed_case() -> u64 {
    let g = grid(2, 3);
    let sys = testbed(g.size() / g.gcds_per_node(), g.gcds_per_node());
    let kind = MatrixKind::Uniform;
    let cfg = RunConfig::functional(sys.clone(), g, HPL_N, HPL_B).build_or_panic();
    let dir = scratch_dir("hpl");
    let header = hpl_snapshot_header(&g, HPL_N, HPL_B, HPL_SEED, kind);
    let ck = RunCheckpointer::new(CheckpointSpec::new(&dir, 2), header).unwrap();
    run_with_backend(&cfg, |ctx| {
        let st = HplDistState::new(ctx, &sys, HPL_N, HPL_B, HPL_SEED, kind, 1.0);
        step_until_done(ctx, st, Some(&ck)).0
    })
    .unwrap();
    let snap = Snapshot::load(&latest_in(&dir, usize::MAX).expect("a snapshot")).unwrap();
    assert!(snap.header.k > 0, "resume from a mid-run boundary");
    let ranks = run_with_backend(&cfg, |ctx| {
        let st = HplDistState::resume(ctx, &sys, HPL_N, HPL_B, HPL_SEED, kind, 1.0, &snap).unwrap();
        let o = step_until_done(ctx, st, None).0;
        (o, clocks(ctx))
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    hpl_digest(&ranks)
}

fn perf_words(d: &mut Digest, p: &PerfReport) {
    for v in [
        p.runtime,
        p.factor_time,
        p.ir_time,
        p.gflops_per_gcd,
        p.eflops,
        p.overlap_hidden,
        p.comm_wait,
    ] {
        d.f64(v);
    }
    d.word(p.comm_bytes);
    d.word(p.simulated_ranks as u64);
    for b in p.backend.label().bytes() {
        d.word(u64::from(b));
    }
}

fn totals_words(d: &mut Digest, t: &PhaseTotals) {
    for v in [t.getrf, t.trsm, t.cast, t.gemm, t.bcast, t.wait, t.hidden] {
        d.f64(v);
    }
}

fn mxp_digest(out: &hplai_core::RunOutcome) -> u64 {
    let mut d = Digest::new();
    d.f64s(out.solution.as_deref().unwrap_or(&[]));
    d.word(out.ir_iters as u64);
    d.word(u64::from(out.converged));
    d.f64(out.scaled_residual.unwrap_or(f64::NAN));
    perf_words(&mut d, &out.perf);
    d.word(out.totals.len() as u64);
    for t in &out.totals {
        totals_words(&mut d, t);
    }
    d.0
}

fn mxp_config(g: ProcessGrid, timing: bool, lookahead: bool, algo: BcastAlgo) -> RunConfig {
    let sys = testbed(g.size() / g.gcds_per_node(), g.gcds_per_node());
    let builder = if timing {
        RunConfig::timing(sys, g, MXP_N, MXP_B)
    } else {
        RunConfig::functional(sys, g, MXP_N, MXP_B)
    };
    builder
        .seed(HPL_SEED)
        .lookahead(lookahead)
        .algo(algo)
        .build_or_panic()
}

/// A look-ahead Ring2M 3×2 functional run checkpointed every three
/// panels, restarted from its mid-run snapshot.
fn mxp_resumed_case() -> u64 {
    let g = grid(3, 2);
    let dir = scratch_dir("mxp");
    let base = mxp_config(g, false, true, BcastAlgo::Ring2M)
        .to_builder()
        .checkpoint(CheckpointSpec::new(&dir, 3));
    run(&base.clone().build_or_panic());
    let path = latest_in(&dir, MXP_N / MXP_B / 2).expect("a mid-run snapshot");
    let snap = Snapshot::load(&path).unwrap();
    assert!(snap.header.k > 0, "resume from a mid-run boundary");
    let out = run(&base.restart_from(Arc::new(snap)).build_or_panic());
    std::fs::remove_dir_all(&dir).ok();
    mxp_digest(&out)
}

fn kind_label(kind: MatrixKind) -> &'static str {
    match kind {
        MatrixKind::Uniform => "uniform",
        MatrixKind::DiagDominant => "diag-dominant",
    }
}

fn snapshot() -> String {
    let mut out = String::new();
    for (p_r, p_c) in GRIDS {
        let g = grid(p_r, p_c);
        for kind in [MatrixKind::Uniform, MatrixKind::DiagDominant] {
            for backend in [Backend::Functional, Backend::EventTimed] {
                let d = hpl_case(g, kind, backend);
                writeln!(
                    out,
                    "hpl {p_r}x{p_c} {} {}: {d:016x}",
                    kind_label(kind),
                    backend.label()
                )
                .unwrap();
            }
        }
    }
    writeln!(out, "hpl 2x3 uniform resumed: {:016x}", hpl_resumed_case()).unwrap();
    for (p_r, p_c) in GRIDS {
        let g = grid(p_r, p_c);
        for timing in [false, true] {
            for lookahead in [true, false] {
                for algo in [BcastAlgo::Lib, BcastAlgo::Ring2M] {
                    let d = mxp_digest(&run(&mxp_config(g, timing, lookahead, algo)));
                    writeln!(
                        out,
                        "mxp {p_r}x{p_c} {} lookahead={lookahead} {}: {d:016x}",
                        if timing { "timing" } else { "functional" },
                        algo.label(),
                    )
                    .unwrap();
                }
            }
        }
    }
    writeln!(out, "mxp 3x2 ring2m resumed: {:016x}", mxp_resumed_case()).unwrap();
    out
}

#[test]
fn driver_results_match_the_pinned_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/driver_pin.txt"
    );
    let got = snapshot();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); GOLDEN_REGEN=1 generates it"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}: driver results moved", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "case count");
}
