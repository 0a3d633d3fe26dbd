//! Fig. 4: total performance (GFLOPS/GCD) relative to block size `B` with
//! distinct communication layouts, at the paper's tuning scales —
//! Summit 2916 GCDs (P_r = 54) and Frontier 1024 GCDs (P_r = 32).

use super::critical;
use crate::{gflops, secs, Args, NamedPerf, Output, Table};
use hplai_core::{frontier, summit, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Total performance vs B with distinct communication layouts",
        "Fig. 4",
        &["config", "GCDs", "B", "GFLOPS/GCD", "hidden s"],
    );
    let mut out = Output::default();
    let (s, f) = (summit(), frontier());
    let bs_summit: &[usize] = &[256, 384, 512, 768, 1024, 1536, 2048, 3072];
    let bs_frontier: &[usize] = &[512, 1024, 1536, 2048, 3072, 4096, 6144];
    let sweeps = [
        (
            "Summit Bcast col-major",
            &s,
            61440,
            ProcessGrid::col_major(54, 54, 6),
            BcastAlgo::Lib,
            bs_summit,
        ),
        (
            "Summit Bcast 3x2",
            &s,
            61440,
            ProcessGrid::node_local(54, 54, 3, 2),
            BcastAlgo::Lib,
            bs_summit,
        ),
        (
            "Frontier Ring2M col-major",
            &f,
            119808,
            ProcessGrid::col_major(32, 32, 8),
            BcastAlgo::Ring2M,
            bs_frontier,
        ),
        (
            "Frontier Ring2M 2x4",
            &f,
            119808,
            ProcessGrid::node_local(32, 32, 2, 4),
            BcastAlgo::Ring2M,
            bs_frontier,
        ),
    ];
    for (label, sys, n_l, grid, algo, bs) in sweeps {
        for &b in bs.iter().filter(|&&b| n_l % b == 0) {
            let perf = critical(sys, grid, n_l, b, algo);
            t.row(&[
                &label,
                &grid.size(),
                &b,
                &gflops(perf.gflops_per_gcd),
                &secs(perf.overlap_hidden),
            ]);
            out.perf
                .push(NamedPerf::new(format!("{label} B={b}"), perf));
        }
    }

    // Highlight the optima.
    for config in ["Summit Bcast 3x2", "Frontier Ring2M 2x4"] {
        let best = t
            .rows
            .iter()
            .filter(|r| r[0] == config)
            .max_by(|a, b| {
                a[3].parse::<f64>()
                    .unwrap()
                    .total_cmp(&b[3].parse().unwrap())
            })
            .unwrap();
        out.note(format!(
            "best B for {config}: {} ({} GFLOPS/GCD)",
            best[2], best[3]
        ));
    }
    out.table("fig4", t);
    out
}
