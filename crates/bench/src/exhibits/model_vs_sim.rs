//! §IV model validation: the paper's analytic Eqs. (1)–(5) versus the
//! critical-path driver versus the emergent thread-per-rank simulation, at
//! a scale all three can run. Quantifies the "guideline, not a complete
//! model" caveat.

use super::critical;
use crate::{secs, Args, NamedPerf, Output, Table};
use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::solve::{run as run_sim, RunConfig};
use hplai_core::{testbed, ProcessGrid};
use mxp_model::{parallel_time, parallel_time_lookahead, LuParams};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
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
    let emergent = run_sim(&cfg).perf.factor_time;
    let crit = critical(&sys, grid, n_l, b, BcastAlgo::Lib).factor_time;

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
    let mut out = Output::new("model_vs_sim", t);

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
    for algo in BcastAlgo::ALL {
        for (lookahead, la) in [(false, "off"), (true, "on")] {
            let cfg = RunConfig::timing(d_sys.clone(), d_grid, d_n, d_b)
                .algo(algo)
                .lookahead(lookahead)
                .build_or_panic();
            let sim = run_sim(&cfg);
            let model = critical_time(
                &d_sys,
                &CriticalConfig {
                    lookahead,
                    ..CriticalConfig::new(d_n, d_b, d_grid, algo)
                },
            )
            .perf;
            d.row(&[
                &algo.label(),
                &la,
                &secs(sim.perf.factor_time),
                &secs(model.factor_time),
                &format!("{:.3}", model.factor_time / sim.perf.factor_time),
                &secs(sim.perf.overlap_hidden),
            ]);
            out.perf.push(NamedPerf::hosted(
                format!("emergent {} lookahead={la}", algo.label()),
                &sim,
            ));
            out.perf.push(NamedPerf::new(
                format!("critical {} lookahead={la}", algo.label()),
                model,
            ));
        }
    }
    out.table("model_vs_sim_matrix", d);
    out.note(
        "the analytic bounds bracket the simulators; none back-solves optimal parameters exactly (§IV caveat).",
    );
    out
}
