//! Fig. 11: the exascale achievement runs — Summit at 1.411 EFLOPS
//! (3×2 grid, P = 162², B = 768) and ~40% of Frontier at 2.387 EFLOPS
//! (Ring2M, P = 172², B = 3072, N = 20,606,976) — plus the paper's §VIII
//! projection that full-scale Frontier reaches ~5 EFLOPS.

use super::critical;
use crate::{gflops, Args, NamedPerf, Output, Table};
use hplai_core::{frontier, summit, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Exascale achievement runs",
        "Fig. 11",
        &[
            "system",
            "GCDs",
            "N",
            "B",
            "grid",
            "algo",
            "EFLOPS",
            "GFLOPS/GCD",
            "paper EFLOPS",
        ],
    );
    let mut out = Output::default();
    let (s, f) = (summit(), frontier());
    // The Summit headline; the Frontier one (~40% of the machine, the
    // paper's exact N = 119808 × 172); and the §VIII projection to
    // full-scale Frontier (9408 nodes × 8 GCDs = 75264 GCDs; 272² = 73984
    // is the largest node-tileable square grid).
    let runs = [
        (
            &s,
            "Summit",
            162,
            61440,
            768,
            (3, 2),
            BcastAlgo::Lib,
            "1.411",
            "Summit 162x162 B=768 3x2 Bcast",
        ),
        (
            &f,
            "Frontier",
            172,
            119808,
            3072,
            (4, 2),
            BcastAlgo::Ring2M,
            "2.387",
            "Frontier 172x172 B=3072 4x2 Ring2M",
        ),
        (
            &f,
            "Frontier (full, projected)",
            272,
            119808,
            3072,
            (2, 4),
            BcastAlgo::Ring2M,
            "~5 (predicted)",
            "Frontier full-machine projection 272x272",
        ),
    ];
    for (sys, name, p, n_l, b, (q_r, q_c), algo, paper, label) in runs {
        let perf = critical(sys, ProcessGrid::node_local(p, p, q_r, q_c), n_l, b, algo);
        t.row(&[
            &name,
            &(p * p),
            &(n_l * p),
            &b,
            &format!("{q_r}x{q_c}"),
            &algo.label(),
            &format!("{:.3}", perf.eflops),
            &gflops(perf.gflops_per_gcd),
            &paper,
        ]);
        out.perf.push(NamedPerf::new(label, perf));
    }
    out.table("fig11", t);
    out.note(
        "note the problem-size disparity the paper highlights: Frontier solves N > 20M vs ~10M on Summit.",
    );
    out
}
