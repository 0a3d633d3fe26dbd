//! Fig. 3: rocBLAS mixed-precision GEMM flop rate as a function of matrix
//! size (`C = AᵀB`, `A` is `k × m`, `B` is `k × n`, `m = n = B`).
//!
//! The paper's observation: "highest performance (red) is not uniformly
//! achievable across all matrix sizes … the optimal B of 3072 would
//! generate highest performance only for a few matrix sizes." The heat map
//! here shows the same striping: rates jump at multiples of the kernel tile
//! quantum and sag elsewhere.

use crate::{tf, Args, Output, Table};
use mxp_gpusim::{gemm_heatmap, GcdModel};

pub fn run(_: &Args) -> Output {
    let dev = GcdModel::mi250x_gcd();
    let lda = 119808; // the run's fixed local leading dimension
    let ks = [512usize, 1024, 1536, 2048, 2560, 3072, 3584, 4096];
    let mns = [
        1024usize, 2048, 4096, 6144, 8192, 12288, 16384, 24576, 32768,
    ];

    let mut t = Table::new(
        "rocBLAS GEMM TFLOP/s on one MI250X GCD (rows: m=n, cols: k=B)",
        "Fig. 3",
        &{
            let mut h = vec!["m=n \\ k"];
            for k in &ks {
                h.push(Box::leak(format!("{k}").into_boxed_str()));
            }
            h
        },
    );
    let rates = gemm_heatmap(&dev, &mns, &ks, lda);
    for (mi, &mn) in mns.iter().enumerate() {
        let mut cells: Vec<String> = vec![mn.to_string()];
        for rate in &rates[mi] {
            cells.push(tf(*rate));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        t.row(&refs);
    }
    let mut out = Output::new("fig3", t);

    // The paper's point in one line: B = 3072 is only "red" for aligned
    // sizes.
    let aligned = dev.gemm_mixed_rate(8192, 8192, 3072, lda);
    let misaligned = dev.gemm_mixed_rate(8192 - 128, 8192 - 128, 3072 - 64, lda);
    out.note(format!(
        "aligned (8192, k=3072): {} TF vs misaligned (8064, k=3008): {} TF — {:.0}% drop",
        tf(aligned),
        tf(misaligned),
        (1.0 - misaligned / aligned) * 100.0
    ));
    out
}
