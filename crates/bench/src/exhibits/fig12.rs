//! Fig. 12: variability of performance across six consecutive full runs in
//! one batch job at 2916 GCDs — Summit's cold first run (~20% slower, fixed
//! by a warm-up mini-benchmark) vs Frontier's fast first two runs followed
//! by a small thermal sag (Finding 10).

use super::critical;
use crate::{gflops, Args, Output, Table};
use hplai_core::{frontier, summit, ProcessGrid};
use mxp_gpusim::thermal::WarmupProfile;
use mxp_gpusim::RunSequence;
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "GFLOPS/GCD over six consecutive runs (Summit 2916 GCDs, Frontier 3136)",
        "Fig. 12",
        &["run", "Summit cold", "Summit warmed", "Frontier"],
    );

    let s_grid = ProcessGrid::node_local(54, 54, 3, 2);
    let s_base = critical(&summit(), s_grid, 61440, 768, BcastAlgo::Lib).gflops_per_gcd;
    let f_grid = ProcessGrid::node_local(56, 56, 2, 4);
    let f_base = critical(&frontier(), f_grid, 119808, 3072, BcastAlgo::Ring2M).gflops_per_gcd;

    let cold = RunSequence::new(WarmupProfile::Summit, false, 2022);
    let warmed = RunSequence::new(WarmupProfile::Summit, true, 2022);
    let ftr = RunSequence::new(WarmupProfile::Frontier, false, 2022);
    for run in 0..6 {
        t.row(&[
            &(run + 1),
            &gflops(s_base * cold.perf_multiplier(run)),
            &gflops(s_base * warmed.perf_multiplier(run)),
            &gflops(f_base * ftr.perf_multiplier(run)),
        ]);
    }
    let mut out = Output::new("fig12", t);

    let first_penalty = 1.0 - cold.perf_multiplier(0) / cold.perf_multiplier(1);
    out.note(format!(
        "Summit run 1 is {:.1}% slower than run 2 without warm-up (paper: ~20%); \
         Frontier runs 1-2 are fastest, later runs settle within ~0.34%",
        first_penalty * 100.0
    ));
    out
}
