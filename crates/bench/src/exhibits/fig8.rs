//! Fig. 8: per-GCD performance of distinct communication techniques and
//! node-local grids, at the tuning scales (Summit 2916 GCDs, Frontier
//! 1024). Also reports the §V-E port-binding and GPU-aware ablations and
//! the paper's headline deltas.

use super::critical;
use crate::{gflops, Args, NamedPerf, Output, Table};
use hplai_core::{frontier, run as run_sim, summit, Backend, ProcessGrid, RunConfig};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Per-GCD GFLOPS across communication techniques and node grids",
        "Fig. 8",
        &["system", "grid", "algo", "GFLOPS/GCD", "hidden"],
    );
    let mut out = Output::default();

    let (s, f) = (summit(), frontier());
    let cases = [
        (
            &s,
            "col-major(6x1)",
            ProcessGrid::col_major(54, 54, 6),
            61440,
            768,
        ),
        (&s, "3x2", ProcessGrid::node_local(54, 54, 3, 2), 61440, 768),
        (&s, "2x3", ProcessGrid::node_local(54, 54, 2, 3), 61440, 768),
        (
            &f,
            "col-major(8x1)",
            ProcessGrid::col_major(32, 32, 8),
            119808,
            3072,
        ),
        (
            &f,
            "2x4",
            ProcessGrid::node_local(32, 32, 2, 4),
            119808,
            3072,
        ),
        (
            &f,
            "4x2",
            ProcessGrid::node_local(32, 32, 4, 2),
            119808,
            3072,
        ),
    ];
    for (sys, gname, grid, n_l, b) in cases {
        for algo in BcastAlgo::ALL {
            let r = critical(sys, grid, n_l, b, algo);
            // Share of the panel-broadcast time hidden behind trailing-update
            // GEMMs by the look-ahead pipeline, as a percentage of the
            // factorization time.
            let hidden = format!("{:.1}%", 100.0 * r.overlap_hidden / r.factor_time);
            t.row(&[
                &sys.name,
                &gname,
                &algo.label(),
                &gflops(r.gflops_per_gcd),
                &hidden,
            ]);
            out.perf.push(NamedPerf::new(
                format!("{} {gname} {}", sys.name, algo.label()),
                r,
            ));
        }
    }

    // Emergent cross-check of one Frontier point on the event-driven
    // backend: 1024 ranks hosted as fibers in this process, same driver
    // as the functional runs. The row carries `backend`, `simulated_ranks`
    // and the run's host provenance, so the persisted JSON distinguishes
    // it from the critical-path rows.
    let grid = ProcessGrid::node_local(32, 32, 2, 4);
    let cfg = RunConfig::timing(f.clone(), grid, 98304, 3072)
        .algo(BcastAlgo::Ring2M)
        .backend(Backend::EventTimed)
        .build_or_panic();
    let emergent = run_sim(&cfg);
    out.note(format!(
        "Emergent event-backend cross-check (Frontier 2x4, 1024 ranks): \
         {} GFLOPS/GCD at {:.2} wall-s per virtual-s",
        gflops(emergent.perf.gflops_per_gcd),
        emergent.provenance.wall_vs_virtual_time
    ));
    out.perf.push(NamedPerf::hosted(
        "Frontier 2x4 ring-2M emergent event-timed",
        &emergent,
    ));
    out.table("fig8", t);

    // §V-E ablations, reported as the paper states them.
    let perf = |sys, grid, n_l, b, algo| critical(sys, grid, n_l, b, algo).gflops_per_gcd;
    let grid_s = ProcessGrid::node_local(54, 54, 3, 2);
    let mut s_nobind = s.clone();
    s_nobind.net.port_binding = false;
    let with_binding = perf(&s, grid_s, 61440, 768, BcastAlgo::Lib);
    let without_binding = perf(&s_nobind, grid_s, 61440, 768, BcastAlgo::Lib);
    out.note(format!(
        "Port binding (Summit, Bcast): +{:.1}% (paper: 35.6-59.7%)",
        (with_binding / without_binding - 1.0) * 100.0
    ));

    let grid_f = ProcessGrid::node_local(32, 32, 2, 4);
    let ring = perf(&f, grid_f, 119808, 3072, BcastAlgo::Ring2M);
    let lib = perf(&f, grid_f, 119808, 3072, BcastAlgo::Lib);
    out.note(format!(
        "Ring2M over Bcast (Frontier): +{:.1}% (paper: 20.0-34.4%)",
        (ring / lib - 1.0) * 100.0
    ));

    let ring_s = perf(&s, grid_s, 61440, 768, BcastAlgo::Ring1);
    out.note(format!(
        "Ring1 vs Bcast (Summit): {:.1}% (paper: -2.3 to -11.5%)",
        (ring_s / with_binding - 1.0) * 100.0
    ));

    let mut f_staged = f.clone();
    f_staged.net.gpu_aware = false;
    let staged = perf(&f_staged, grid_f, 119808, 3072, BcastAlgo::Ring2M);
    out.note(format!(
        "GPU-aware MPI (Frontier, Ring2M): +{:.1}% (paper: 40.3-56.6%)",
        (ring / staged - 1.0) * 100.0
    ));
    out
}
