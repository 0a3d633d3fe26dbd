//! Fig. 6: per-iteration LU kernel rates (GEMM/GETRF/TRSM) on an MI250X
//! GCD, one series per block size `B` — including the rocSOLVER GETRF
//! shortfall of Finding 3.

use crate::{tf, Args, Output, Table};
use mxp_gpusim::{kernel_curves, GcdModel};

pub fn run(_: &Args) -> Output {
    let dev = GcdModel::mi250x_gcd();
    let n_l = 119808usize;
    let bs = [1024usize, 2048, 3072, 4096];

    let mut t = Table::new(
        "Per-iteration kernel TFLOP/s on MI250X GCD (N_L = 119808)",
        "Fig. 6",
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
    let mut out = Output::new("fig6", t);

    // Finding 3 in numbers.
    let v100 = GcdModel::v100();
    out.note(format!(
        "Finding 3: rocsolver_sgetrf reaches {:.0}% of fp32 peak at its tuned B vs cusolver's {:.0}%",
        100.0 * dev.getrf_rate(3072) / dev.fp32_peak,
        100.0 * v100.getrf_rate(768) / v100.fp32_peak,
    ));
    out
}
