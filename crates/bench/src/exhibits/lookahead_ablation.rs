//! Look-ahead ablation: factorization time and measured communication
//! overlap with the split-phase pipeline on versus off, across broadcast
//! algorithms — the runtime-level companion to the Fig. 5/Fig. 8
//! communication sensitivity exhibits.
//!
//! Small scales run the emergent thread-per-rank simulation (measured
//! overlap from the split-phase broadcasts); the full-machine rows use
//! the critical-path model (modeled overlap).

use crate::{secs, Args, NamedPerf, Output, Table};
use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::solve::{run as run_sim, RunConfig};
use hplai_core::{frontier, testbed, PerfReport, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Look-ahead ablation: factor time and hidden overlap",
        "Fig. 5 companion (lookahead ablation)",
        &[
            "driver",
            "config",
            "algo",
            "lookahead",
            "factor s",
            "hidden s",
            "speedup",
        ],
    );
    let mut out = Output::default();
    let mut rows =
        |driver: &str, config: &str, algo: BcastAlgo, off: &PerfReport, on: &PerfReport| {
            for (la, perf) in [("off", off), ("on", on)] {
                let speedup = (off.factor_time / perf.factor_time - 1.0) * 100.0;
                t.row(&[
                    &driver,
                    &config,
                    &algo.label(),
                    &la,
                    &secs(perf.factor_time),
                    &secs(perf.overlap_hidden),
                    &format!("{speedup:+.1}%"),
                ]);
            }
        };

    // Emergent simulation on the communication-bound testbed config the
    // differential suite pins: 4x4 over 4 nodes.
    let grid = ProcessGrid::node_local(4, 4, 2, 2);
    let sys = testbed(4, 4);
    let (n, b) = (16384usize, 512usize);
    for algo in BcastAlgo::ALL {
        let [off, on] = [false, true].map(|lookahead| {
            let cfg = RunConfig::timing(sys.clone(), grid, n, b)
                .algo(algo)
                .lookahead(lookahead)
                .build_or_panic();
            run_sim(&cfg)
        });
        rows("emergent", "4x4 testbed", algo, &off.perf, &on.perf);
        for (la, sim) in [("off", &off), ("on", &on)] {
            let label = format!("emergent 4x4 {} lookahead={la}", algo.label());
            out.perf.push(NamedPerf::hosted(label, sim));
        }
    }

    // Critical-path model at the Frontier tuning scale (1024 GCDs).
    let f = frontier();
    let grid_f = ProcessGrid::node_local(32, 32, 2, 4);
    let (n_f, b_f) = (119808 * 32, 3072);
    for algo in [BcastAlgo::Lib, BcastAlgo::Ring2M] {
        let [off, on] = [false, true].map(|lookahead| {
            let cfg = CriticalConfig {
                lookahead,
                ..CriticalConfig::new(n_f, b_f, grid_f, algo)
            };
            critical_time(&f, &cfg).perf
        });
        rows("critical-path", "Frontier 1024", algo, &off, &on);
        for (la, perf) in [("off", off), ("on", on)] {
            let label = format!("critical Frontier-1024 {} lookahead={la}", algo.label());
            out.perf.push(NamedPerf::new(label, perf));
        }
    }

    out.table("lookahead_ablation", t);
    out
}
