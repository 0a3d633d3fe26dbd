//! Ablation of the panel storage format — FP16 (the paper), BF16, FP32 —
//! generalizing the paper's mixed-precision recipe (§VIII: "the mixed
//! precision routines can serve as a model for new techniques").
//!
//! Functional runs measure numerical cost (IR sweeps, residuals); the
//! critical-path model prices the performance cost (FP32 trailing updates
//! forfeit the tensor cores and double the panel traffic).

use crate::{Args, Output, Table};
use hplai_core::solve::{run as run_sim, RunConfig};
use hplai_core::{testbed, ProcessGrid, TrailingPrecision};

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Panel precision ablation (functional, N=384, 16 GCDs)",
        "§VIII extension",
        &[
            "format",
            "IR sweeps",
            "scaled residual",
            "converged",
            "sim factor time s",
        ],
    );
    let grid = ProcessGrid::node_local(4, 4, 2, 2);
    for prec in [
        TrailingPrecision::Fp16,
        TrailingPrecision::Bf16,
        TrailingPrecision::Fp32,
    ] {
        let sys = testbed(4, 4);
        let cfg = RunConfig::functional(sys, grid, 384, 32)
            .prec(prec)
            .build_or_panic();
        let sim = run_sim(&cfg);
        t.row(&[
            &prec.tag(),
            &sim.ir_iters,
            &format!("{:.3e}", sim.scaled_residual.unwrap()),
            &sim.converged,
            &format!("{:.4}", sim.perf.factor_time),
        ]);
    }
    let mut out = Output::new("precision_ablation", t);
    out.note(format!(
        "coarser formats need more refinement sweeps (u: fp32 {:.1e} < fp16 {:.1e} < bf16 {:.1e}),",
        TrailingPrecision::Fp32.unit_roundoff(),
        TrailingPrecision::Fp16.unit_roundoff(),
        TrailingPrecision::Bf16.unit_roundoff(),
    ));
    out.note(
        "while fp32 panels forfeit the tensor cores — fp16 is the sweet spot the paper rides.",
    );
    out
}
