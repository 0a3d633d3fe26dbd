//! Fig. 7: single MI250X GCD GEMM rate vs GEMM size for different leading
//! dimensions — the `LDA = 122880` cliff that drives the paper's
//! `N_L = 119808` choice (§V-D).

use crate::{tf, Args, Output, Table};
use mxp_gpusim::GcdModel;

pub fn run(_: &Args) -> Output {
    let dev = GcdModel::mi250x_gcd();
    let b = 3072usize;
    let ldas = [119808usize, 122880, 117760, 123904];

    let mut t = Table::new(
        "MI250X GCD GEMM TFLOP/s vs trailing size for different LDA",
        "Fig. 7",
        &[
            "trailing",
            "LDA=119808",
            "LDA=122880",
            "LDA=117760",
            "LDA=123904",
        ],
    );
    for frac in 1..=8usize {
        let trailing = frac * 14848; // multiples of 256: off the quantization stripes
        let mut cells = vec![trailing.to_string()];
        for &lda in &ldas {
            cells.push(tf(dev.gemm_mixed_rate(trailing, trailing, b, lda)));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        t.row(&refs);
    }
    let mut out = Output::new("fig7", t);

    let good = dev.gemm_mixed_rate(59904, 59904, b, 119808);
    let bad = dev.gemm_mixed_rate(59904, 59904, b, 122880);
    out.note(format!(
        "LDA=122880 loses {:.0}% vs LDA=119808 ({} vs {} TF): \"significantly lower performance\" (§V-D)",
        (1.0 - bad / good) * 100.0,
        tf(bad),
        tf(good)
    ));
    out
}
