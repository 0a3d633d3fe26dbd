//! Look-ahead ablation: factorization time and measured communication
//! overlap with the split-phase pipeline on versus off, across broadcast
//! algorithms — the runtime-level companion to the Fig. 5/Fig. 8
//! communication sensitivity exhibits.
//!
//! Small scales run the emergent thread-per-rank simulation (measured
//! overlap from the split-phase broadcasts); the full-machine rows use
//! the critical-path model (modeled overlap).

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::solve::{run, RunConfig};
use hplai_core::{frontier, testbed, ProcessGrid};
use mxp_bench::{emit_perf_reports, secs, NamedPerf, Table};
use mxp_msgsim::BcastAlgo;

fn main() {
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
    let mut reports = Vec::new();

    // Emergent simulation on the communication-bound testbed config the
    // differential suite pins: 4x4 over 4 nodes.
    let grid = ProcessGrid::node_local(4, 4, 2, 2);
    let sys = testbed(4, 4);
    let (n, b) = (16384usize, 512usize);
    for algo in BcastAlgo::ALL {
        let time_of = |lookahead: bool| {
            let cfg = RunConfig::timing(sys.clone(), grid, n, b)
                .algo(algo)
                .lookahead(lookahead)
                .build_or_panic();
            run(&cfg)
        };
        let off = time_of(false);
        let on = time_of(true);
        for (la, out) in [("off", &off), ("on", &on)] {
            let perf = &out.perf;
            t.row(&[
                &"emergent",
                &"4x4 testbed",
                &algo.label(),
                &la,
                &secs(perf.factor_time),
                &secs(perf.overlap_hidden),
                &format!(
                    "{:+.1}%",
                    (off.perf.factor_time / perf.factor_time - 1.0) * 100.0
                ),
            ]);
            reports.push(NamedPerf::hosted(
                format!("emergent 4x4 {} lookahead={la}", algo.label()),
                out,
            ));
        }
    }

    // Critical-path model at the Frontier tuning scale (1024 GCDs).
    let f = frontier();
    let grid_f = ProcessGrid::node_local(32, 32, 2, 4);
    let (n_f, b_f) = (119808 * 32, 3072);
    for algo in [BcastAlgo::Lib, BcastAlgo::Ring2M] {
        let model_of = |lookahead: bool| {
            let cfg = CriticalConfig {
                lookahead,
                ..CriticalConfig::new(n_f, b_f, grid_f, algo)
            };
            critical_time(&f, &cfg).perf
        };
        let off = model_of(false);
        let on = model_of(true);
        for (la, perf) in [("off", &off), ("on", &on)] {
            t.row(&[
                &"critical-path",
                &"Frontier 1024",
                &algo.label(),
                &la,
                &secs(perf.factor_time),
                &secs(perf.overlap_hidden),
                &format!(
                    "{:+.1}%",
                    (off.factor_time / perf.factor_time - 1.0) * 100.0
                ),
            ]);
            reports.push(NamedPerf::new(
                format!("critical Frontier-1024 {} lookahead={la}", algo.label()),
                *perf,
            ));
        }
    }

    t.emit("lookahead_ablation");
    emit_perf_reports("lookahead_ablation", &reports);
}
