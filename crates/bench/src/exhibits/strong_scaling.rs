//! §VI-A strong scaling: the paper describes it ("communication bound when
//! performed at scale") but omits the chart for space — this harness
//! generates it. Fixed global N, growing GCD counts.

use crate::{gflops, secs, Args, NamedPerf, Output, Table};
use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::{summit, ProcessGrid};
use mxp_msgsim::BcastAlgo;

pub fn run(_: &Args) -> Output {
    let sys = summit();
    let n = 61440 * 12; // fits the smallest configuration's GPU memory
    let mut t = Table::new(
        "Strong scaling at fixed N (Summit, column-major)",
        "§VI-A (chart omitted in paper)",
        &[
            "GCDs",
            "P_r",
            "runtime s",
            "GFLOPS/GCD",
            "speedup",
            "efficiency %",
        ],
    );
    let mut base: Option<f64> = None;
    let mut out = Output::default();
    for p in [12usize, 18, 24, 36, 54] {
        if n % p != 0 || (n / p) % 768 != 0 {
            continue;
        }
        let grid = ProcessGrid::col_major(p, p, 6);
        let perf = critical_time(&sys, &CriticalConfig::new(n, 768, grid, BcastAlgo::Lib)).perf;
        let b0 = *base.get_or_insert(perf.runtime);
        let speedup = b0 / perf.runtime;
        let ideal = (p * p) as f64 / 144.0;
        t.row(&[
            &(p * p),
            &p,
            &secs(perf.runtime),
            &gflops(perf.gflops_per_gcd),
            &format!("{speedup:.2}"),
            &format!("{:.1}", 100.0 * speedup / ideal),
        ]);
        out.perf
            .push(NamedPerf::new(format!("{} GCDs", p * p), perf));
    }
    out.table("strong_scaling", t);
    out.note("efficiency falls with scale at fixed N: the communication-bound regime of §VI-A.");
    out
}
