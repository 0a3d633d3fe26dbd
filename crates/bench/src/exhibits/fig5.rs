//! Fig. 5: per-iteration LU kernel rates (GEMM/GETRF/TRSM) on a V100 as
//! the trailing matrix shrinks, one series per block size `B`.

use crate::{tf, Args, Output, Table};
use mxp_gpusim::{kernel_curves, GcdModel};

pub fn run(_: &Args) -> Output {
    let dev = GcdModel::v100();
    let n_l = 61440usize;
    let bs = [256usize, 512, 768, 1024, 2048];

    let mut t = Table::new(
        "Per-iteration kernel TFLOP/s on V100 (N_L = 61440)",
        "Fig. 5",
        &["B", "trailing", "GEMM", "GETRF", "TRSM"],
    );
    for &b in &bs {
        for point in kernel_curves(&dev, n_l, b, 6) {
            t.row(&[
                &b,
                &point.trailing,
                &tf(point.gemm),
                &tf(point.getrf),
                &tf(point.trsm),
            ]);
        }
    }
    let mut out = Output::new("fig5", t);
    out.note(
        "shape check: every rate grows with B, and GEMM grows with trailing size (paper §V-C).",
    );
    out
}
