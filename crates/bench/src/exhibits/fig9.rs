//! Fig. 9: memory-weak scaling — GFLOPS/GCD vs GCD count at constant
//! per-GCD memory, with different node-local grid settings, plus the
//! parallel-efficiency numbers of §VI-A (Summit baseline 36 GCDs, Frontier
//! baseline 64 GCDs).

use super::critical;
use crate::{gflops, Args, Output, Table};
use hplai_core::metrics::parallel_efficiency;
use hplai_core::{frontier, summit, ProcessGrid};
use mxp_msgsim::BcastAlgo;

type GridMapping = (&'static str, fn(usize) -> ProcessGrid);

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Memory-weak scaling: GFLOPS/GCD vs GCD count",
        "Fig. 9",
        &[
            "system",
            "mapping",
            "GCDs",
            "P_r",
            "GFLOPS/GCD",
            "efficiency %",
        ],
    );

    // Summit: 36 GCD baseline (P_r = 6) up to 2916 (P_r = 54); Frontier:
    // 64 GCD baseline (P_r = 8) up to 16384 (P_r = 128).
    let (s, f) = (summit(), frontier());
    let summit_mappings: [GridMapping; 2] = [
        ("col-major", |p| ProcessGrid::col_major(p, p, 6)),
        ("3x2", |p| ProcessGrid::node_local(p, p, 3, 2)),
    ];
    let frontier_mappings: [GridMapping; 2] = [
        ("col-major", |p| ProcessGrid::col_major(p, p, 8)),
        ("2x4", |p| ProcessGrid::node_local(p, p, 2, 4)),
    ];
    let series = [
        (
            &s,
            summit_mappings,
            &[6usize, 12, 18, 24, 36, 54][..],
            61440,
            768,
            BcastAlgo::Lib,
        ),
        (
            &f,
            frontier_mappings,
            &[8, 16, 32, 64, 128][..],
            119808,
            3072,
            BcastAlgo::Ring2M,
        ),
    ];
    for (sys, mappings, ps, n_l, b, algo) in series {
        for (mapping, mk) in mappings {
            let base = critical(sys, mk(ps[0]), n_l, b, algo).gflops_per_gcd;
            for &p in ps {
                let g = critical(sys, mk(p), n_l, b, algo).gflops_per_gcd;
                let eff = parallel_efficiency(g, base) * 100.0;
                t.row(&[
                    &sys.name,
                    &mapping,
                    &(p * p),
                    &p,
                    &gflops(g),
                    &format!("{eff:.1}"),
                ]);
            }
        }
    }
    let mut out = Output::new("fig9", t);
    out.note(
        "paper targets: Summit col-major 91.4% @2916, 3x2 104.6% @2916; Frontier col-major 92.2% @16384",
    );
    out
}
