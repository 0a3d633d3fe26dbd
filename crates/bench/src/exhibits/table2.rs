//! Table II: cross-platform BLAS library function mapping.

use crate::{Args, Output, Table};
use mxp_gpusim::{BlasShim, Vendor};

pub fn run(_: &Args) -> Output {
    let cuda = BlasShim::new(Vendor::Nvidia);
    let rocm = BlasShim::new(Vendor::Amd);
    let mut t = Table::new(
        "Cross-platform BLAS library functions",
        "Table II",
        &["BLAS Mapping", "Summit", "Frontier"],
    );
    t.row(&[&"GEMM", &cuda.gemm_name(), &rocm.gemm_name()]);
    t.row(&[&"TRSM", &cuda.trsm_name(), &rocm.trsm_name()]);
    t.row(&[&"GETRF", &cuda.getrf_name(), &rocm.getrf_name()]);
    t.row(&[&"TRSV", &cuda.trsv_name(), &rocm.trsv_name()]);
    let mut out = Output::new("table2", t);
    out.note(format!(
        "API quirk (§III-B): cuSOLVER GETRF requires a workspace query: {}",
        cuda.getrf_needs_workspace_query()
    ));
    out
}
