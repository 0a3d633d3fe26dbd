//! Fig. 10: timing breakdown of components per iteration on Frontier with
//! 64 GCDs, recorded on MPI rank 0 — generated from the *emergent*
//! thread-per-rank timing simulation, exactly like the paper instruments
//! its real runs.
//!
//! The paper's observation: "the HPL-AI benchmark is computational bounded
//! until the final trailing iterations."

use crate::{Args, Output, Table};
use hplai_core::solve::{run as run_sim, RunConfig};
use hplai_core::{frontier, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut sys = frontier();
    sys.nodes = 8; // 64 GCDs
    let grid = ProcessGrid::node_local(8, 8, 2, 4);
    // Full N_L = 119808 would take ~40 wall-minutes of simulation at this
    // fidelity; a quarter-size local matrix preserves the breakdown shape
    // (every term scales the same way along the run).
    let n_l = 30720usize;
    let b = 3072usize;
    let cfg = RunConfig::timing(sys, grid, n_l * 8, b)
        .algo(BcastAlgo::Ring2M)
        .build_or_panic();
    let sim = run_sim(&cfg);

    let mut t = Table::new(
        "Per-iteration component times on rank 0, Frontier 64 GCDs (ms)",
        "Fig. 10",
        &["k", "getrf", "trsm", "cast", "gemm", "wait"],
    );
    let ms = |v: f64| format!("{:.3}", v * 1e3);
    for rec in sim.records_rank0() {
        t.row(&[
            &rec.k,
            &ms(rec.getrf),
            &ms(rec.trsm),
            &ms(rec.cast),
            &ms(rec.gemm),
            &ms(rec.wait),
        ]);
    }
    let mut out = Output::new("fig10", t);

    // Compute-bound head, communication-visible tail. (Iteration 0 does no
    // GEMM under look-ahead — panels apply one iteration later — so take
    // the busiest record as "head".)
    let head = sim
        .records_rank0()
        .iter()
        .max_by(|a, b| a.gemm.partial_cmp(&b.gemm).unwrap())
        .unwrap();
    let n_rec = sim.records_rank0().len();
    let tail = sim.records_rank0()[n_rec - 2];
    out.note(format!(
        "head: gemm {:.1}ms vs wait {:.1}ms; tail: gemm {:.3}ms vs wait {:.3}ms",
        head.gemm * 1e3,
        head.wait * 1e3,
        tail.gemm * 1e3,
        tail.wait * 1e3
    ));
    out.note(format!(
        "total factor time {:.2}s, {} GFLOPS/GCD",
        sim.perf.factor_time, sim.perf.gflops_per_gcd as u64
    ));
    out
}
