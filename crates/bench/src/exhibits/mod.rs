//! The exhibit registry: one entry per paper table, figure or study, and
//! one per measuring harness.

use crate::{Args, Output};
use hplai_core::critical::{critical_time, CriticalConfig};
use hplai_core::{PerfReport, ProcessGrid, SystemSpec};
use mxp_msgsim::BcastAlgo;

/// One runnable exhibit.
pub struct Exhibit {
    /// Name on the command line.
    pub name: &'static str,
    /// The paper exhibit or study it reproduces.
    pub reproduces: &'static str,
    /// Flags it accepts, a subset of those the runner knows.
    pub flags: &'static [&'static str],
    /// Stem of the `BENCH_<stem>.json` a measuring harness writes; `None`
    /// for a simulated exhibit, whose tables depend on nothing but the
    /// code and are committed under `results/`.
    pub bench: Option<&'static str>,
    /// Computes the exhibit.
    pub run: Run,
}

type Run = fn(&Args) -> Output;

/// Declares each exhibit's module and its registry entry, so an exhibit
/// is named once: `name: "what it reproduces"`, and for a measuring
/// harness `, bench "<BENCH_ stem>" [flags]`.
macro_rules! exhibits {
    ($($name:ident: $what:literal $(, bench $bench:literal [$($flag:literal)*])?;)*) => {
        $(mod $name;)*

        /// Every exhibit, in paper order, then the measuring harnesses.
        pub const EXHIBITS: &[Exhibit] = &[$(Exhibit {
            name: stringify!($name),
            reproduces: $what,
            flags: &[$($($flag),*)?],
            bench: exhibits!(@bench $($bench)?),
            run: $name::run,
        }),*];
    };
    (@bench) => { None };
    (@bench $bench:literal) => { Some($bench) };
}

exhibits! {
    table1: "Table I: architecture specifications";
    table2: "Table II: cross-platform BLAS mapping";
    fig3: "Fig. 3: rocBLAS GEMM flop-rate heat map";
    fig4: "Fig. 4: performance vs block size B at scale";
    fig5: "Fig. 5: per-iteration kernel rates, V100";
    fig6: "Fig. 6: per-iteration kernel rates, MI250X GCD";
    fig7: "Fig. 7: GEMM rate vs LDA (the 122880 cliff)";
    fig8: "Fig. 8: communication techniques x node-local grids";
    fig9: "Fig. 9: memory-weak scaling and parallel efficiency";
    fig10: "Fig. 10: per-iteration timing breakdown, Frontier 64 GCDs";
    fig11: "Fig. 11: exascale achievement runs";
    fig12: "Fig. 12: run-to-run variability (warm-up)";
    hpl_vs_hplai: "§I: HPL-AI vs FP64 HPL (the 9.5x claim)";
    strong_scaling: "§VI-A: strong scaling (chart omitted in paper)";
    slow_node_scan: "§VI-B: slow-node identification";
    energy: "§VIII: energy to solution, HPL-AI vs HPL";
    precision_ablation: "§VIII: FP16 vs BF16 vs FP32 panels";
    model_vs_sim: "§IV: Eqs. (1)-(5) vs the simulators";
    lookahead_ablation: "§IV-B: look-ahead on vs off";
    fault_sweep: "§VI-B: checkpoint restart vs full rerun after a fault",
        bench "fault" ["--quick" "--floor"];
    kernel_bench: "host BLAS, generation and IR throughput",
        bench "kernels" ["--quick" "--threads" "--floor" "--trsm-floor" "--gen-floor"];
    scaling_sweep: "event-backend strong and weak scaling to full extent",
        bench "scaling" ["--quick" "--best-of" "--floor"];
    service_bench: "multi-solve service throughput",
        bench "service" ["--quick" "--floor"];
}

/// The exhibit named `name`.
pub fn find(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// The critical-path report of an `N = n_l · P_r` run on `grid`.
fn critical(
    sys: &SystemSpec,
    grid: ProcessGrid,
    n_l: usize,
    b: usize,
    algo: BcastAlgo,
) -> PerfReport {
    critical_time(sys, &CriticalConfig::new(n_l * grid.p_r, b, grid, algo)).perf
}
