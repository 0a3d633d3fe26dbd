//! Fig. 8: per-GCD performance of distinct communication techniques and
//! node-local grids, at the tuning scales (Summit 2916 GCDs, Frontier
//! 1024). Also reports the §V-E port-binding and GPU-aware ablations and
//! the paper's headline deltas.

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::report::PerfReport;
use hplai_core::{frontier, run, summit, Backend, ProcessGrid, RunConfig, SystemSpec};
use mxp_bench::{emit_perf_reports, gflops, NamedPerf, Table};
use mxp_msgsim::BcastAlgo;

fn report(
    sys: &SystemSpec,
    grid: ProcessGrid,
    n_l: usize,
    b: usize,
    algo: BcastAlgo,
) -> PerfReport {
    let p = grid.p_r;
    critical_time(
        sys,
        &CriticalConfig {
            slowest: 1.0,
            ..CriticalConfig::new(n_l * p, b, grid, algo)
        },
    )
    .perf
}

fn perf(sys: &SystemSpec, grid: ProcessGrid, n_l: usize, b: usize, algo: BcastAlgo) -> f64 {
    report(sys, grid, n_l, b, algo).gflops_per_gcd
}

/// Share of the panel-broadcast time hidden behind trailing-update GEMMs
/// by the look-ahead pipeline, as a percentage of the factorization time.
fn hidden_pct(r: &PerfReport) -> String {
    format!("{:.1}%", 100.0 * r.overlap_hidden / r.factor_time)
}

fn main() {
    let mut t = Table::new(
        "Per-GCD GFLOPS across communication techniques and node grids",
        "Fig. 8",
        &["system", "grid", "algo", "GFLOPS/GCD", "hidden"],
    );
    let mut reports = Vec::new();

    let s = summit();
    let summit_grids: [(&str, ProcessGrid); 3] = [
        ("col-major(6x1)", ProcessGrid::col_major(54, 54, 6)),
        ("3x2", ProcessGrid::node_local(54, 54, 3, 2)),
        ("2x3", ProcessGrid::node_local(54, 54, 2, 3)),
    ];
    for (gname, grid) in summit_grids {
        for algo in BcastAlgo::ALL {
            let r = report(&s, grid, 61440, 768, algo);
            t.row(&[
                &"Summit",
                &gname,
                &algo.label(),
                &gflops(r.gflops_per_gcd),
                &hidden_pct(&r),
            ]);
            reports.push(NamedPerf::new(
                format!("Summit {gname} {}", algo.label()),
                r,
            ));
        }
    }

    let f = frontier();
    let frontier_grids: [(&str, ProcessGrid); 3] = [
        ("col-major(8x1)", ProcessGrid::col_major(32, 32, 8)),
        ("2x4", ProcessGrid::node_local(32, 32, 2, 4)),
        ("4x2", ProcessGrid::node_local(32, 32, 4, 2)),
    ];
    for (gname, grid) in frontier_grids {
        for algo in BcastAlgo::ALL {
            let r = report(&f, grid, 119808, 3072, algo);
            t.row(&[
                &"Frontier",
                &gname,
                &algo.label(),
                &gflops(r.gflops_per_gcd),
                &hidden_pct(&r),
            ]);
            reports.push(NamedPerf::new(
                format!("Frontier {gname} {}", algo.label()),
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
    let emergent = run(&cfg);
    println!(
        "Emergent event-backend cross-check (Frontier 2x4, 1024 ranks): \
         {} GFLOPS/GCD at {:.2} wall-s per virtual-s",
        gflops(emergent.perf.gflops_per_gcd),
        emergent.provenance.wall_vs_virtual_time
    );
    reports.push(NamedPerf::hosted(
        "Frontier 2x4 ring-2M emergent event-timed",
        &emergent,
    ));
    t.emit("fig8");
    emit_perf_reports("fig8", &reports);

    // §V-E ablations, reported as the paper states them.
    let grid_s = ProcessGrid::node_local(54, 54, 3, 2);
    let mut s_nobind = s.clone();
    s_nobind.net.port_binding = false;
    let with_binding = perf(&s, grid_s, 61440, 768, BcastAlgo::Lib);
    let without_binding = perf(&s_nobind, grid_s, 61440, 768, BcastAlgo::Lib);
    println!(
        "Port binding (Summit, Bcast): +{:.1}% (paper: 35.6-59.7%)",
        (with_binding / without_binding - 1.0) * 100.0
    );

    let grid_f = ProcessGrid::node_local(32, 32, 2, 4);
    let ring = perf(&f, grid_f, 119808, 3072, BcastAlgo::Ring2M);
    let lib = perf(&f, grid_f, 119808, 3072, BcastAlgo::Lib);
    println!(
        "Ring2M over Bcast (Frontier): +{:.1}% (paper: 20.0-34.4%)",
        (ring / lib - 1.0) * 100.0
    );

    let ring_s = perf(&s, grid_s, 61440, 768, BcastAlgo::Ring1);
    println!(
        "Ring1 vs Bcast (Summit): {:.1}% (paper: -2.3 to -11.5%)",
        (ring_s / with_binding - 1.0) * 100.0
    );

    let mut f_staged = f.clone();
    f_staged.net.gpu_aware = false;
    let aware = ring;
    let staged = perf(&f_staged, grid_f, 119808, 3072, BcastAlgo::Ring2M);
    println!(
        "GPU-aware MPI (Frontier, Ring2M): +{:.1}% (paper: 40.3-56.6%)",
        (aware / staged - 1.0) * 100.0
    );
}
