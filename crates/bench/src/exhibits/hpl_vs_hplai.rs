//! The §I headline: "Our Summit result achieved 9.5 times the performance
//! of HPL, demonstrating the value of mixed precision." Compares the HPL-AI
//! critical path against the FP64 HPL cost model on both machines.

use super::critical;
use crate::{Args, Output, Table};
use hplai_core::hpl::{hpl_critical_time, hpl_n_local};
use hplai_core::{frontier, summit, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "HPL-AI vs HPL (FP64, pivoted)",
        "§I / §VII claim",
        &["system", "GCDs", "HPL-AI EFLOPS", "HPL EFLOPS", "speedup"],
    );
    let cases = [
        (
            summit(),
            ProcessGrid::node_local(162, 162, 3, 2),
            61440,
            768,
            768,
            BcastAlgo::Lib,
        ),
        (
            frontier(),
            ProcessGrid::node_local(172, 172, 4, 2),
            119808,
            3072,
            1024,
            BcastAlgo::Ring2M,
        ),
    ];
    for (sys, grid, n_l, b_ai, b_hpl, algo) in cases {
        let ai = critical(&sys, grid, n_l, b_ai, algo);
        let hpl = hpl_critical_time(&sys, &grid, hpl_n_local(n_l, b_hpl) * grid.p_r, b_hpl);
        t.row(&[
            &sys.name,
            &grid.size(),
            &format!("{:.3}", ai.eflops),
            &format!("{:.3}", hpl.eflops),
            &format!("{:.1}x", ai.eflops / hpl.eflops),
        ]);
    }
    let mut out = Output::new("hpl_vs_hplai", t);
    out.note("paper: 9.5x on Summit; Frontier FP64 is relatively stronger (54.5 vs 7.8 TF), so its ratio is lower.");
    out
}
