//! §IV model validation: the paper's analytic Eqs. (1)–(5) versus the
//! critical-path driver versus the emergent thread-per-rank simulation, at
//! a scale all three can run. Quantifies the "guideline, not a complete
//! model" caveat.

use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::solve::{run, RunConfig};
use hplai_core::{testbed, ProcessGrid};
use mxp_bench::{emit_perf_reports, secs, NamedPerf, Table};
use mxp_model::{parallel_time, parallel_time_lookahead, LuParams};
use mxp_msgsim::BcastAlgo;

fn main() {
    let sys = testbed(16, 4);
    let grid = ProcessGrid::node_local(8, 8, 2, 2);
    let (n_l, b) = (8192usize, 512usize);
    let n = n_l * 8;

    let mut t = Table::new(
        "Factorization-time estimates across fidelities (64 GCDs)",
        "§IV model vs simulation",
        &["estimator", "factor time s", "vs emergent"],
    );

    let cfg = RunConfig::timing(sys.clone(), grid, n, b)
        .algo(BcastAlgo::Lib)
        .build_or_panic();
    let emergent = run(&cfg).perf.factor_time;

    let crit = critical_time(
        &sys,
        &CriticalConfig {
            slowest: 1.0,
            ..CriticalConfig::new(n, b, grid, BcastAlgo::Lib)
        },
    )
    .perf
    .factor_time;

    let params = LuParams {
        n,
        b,
        p_r: 8,
        p_c: 8,
        q_r: 2,
        q_c: 2,
    };
    let eq3 = parallel_time(&sys.gcd, &sys.net, &params);
    let eq1_la = parallel_time_lookahead(&sys.gcd, &sys.net, &params);

    let rel = |x: f64| format!("{:+.1}%", (x / emergent - 1.0) * 100.0);
    t.row(&[&"emergent LogP simulation", &secs(emergent), &"baseline"]);
    t.row(&[&"critical-path driver", &secs(crit), &rel(crit)]);
    t.row(&[&"Eq. (3) projected bound", &secs(eq3), &rel(eq3)]);
    t.row(&[&"Eq. (1) with look-ahead", &secs(eq1_la), &rel(eq1_la)]);
    t.emit("model_vs_sim");

    // Differential matrix: critical-path model against the emergent
    // simulation across broadcast algorithms with look-ahead on and off —
    // the bench-side view of the `tests/differential.rs` tolerance suite,
    // at a smaller, comm-bound scale where overlap actually matters.
    let d_sys = testbed(4, 4);
    let d_grid = ProcessGrid::node_local(4, 4, 2, 2);
    let (d_n, d_b) = (16384usize, 512usize);
    let mut d = Table::new(
        "Differential matrix: model vs emergent, 4x4 testbed",
        "critical-path calibration (±15% band in tests/differential.rs)",
        &[
            "algo",
            "lookahead",
            "emergent s",
            "model s",
            "ratio",
            "hidden (sim) s",
        ],
    );
    let mut reports = Vec::new();
    for algo in BcastAlgo::ALL {
        for lookahead in [false, true] {
            let cfg = RunConfig::timing(d_sys.clone(), d_grid, d_n, d_b)
                .algo(algo)
                .lookahead(lookahead)
                .build_or_panic();
            let out = run(&cfg);
            let sim = out.perf;
            let model = critical_time(
                &d_sys,
                &CriticalConfig {
                    lookahead,
                    slowest: 1.0,
                    ..CriticalConfig::new(d_n, d_b, d_grid, algo)
                },
            )
            .perf;
            d.row(&[
                &algo.label(),
                &if lookahead { "on" } else { "off" },
                &secs(sim.factor_time),
                &secs(model.factor_time),
                &format!("{:.3}", model.factor_time / sim.factor_time),
                &secs(sim.overlap_hidden),
            ]);
            let la = if lookahead { "on" } else { "off" };
            reports.push(NamedPerf::hosted(
                format!("emergent {} lookahead={la}", algo.label()),
                &out,
            ));
            reports.push(NamedPerf::new(
                format!("critical {} lookahead={la}", algo.label()),
                model,
            ));
        }
    }
    d.emit("model_vs_sim_matrix");
    emit_perf_reports("model_vs_sim", &reports);

    println!(
        "the analytic bounds bracket the simulators; none back-solves optimal parameters exactly (§IV caveat)."
    );
}
