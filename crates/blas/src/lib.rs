//! # mxp-blas — dense column-major BLAS kernels
//!
//! The paper's HPL-AI implementation calls four BLAS families through a
//! cross-platform shim (Table II): **GEMM** (`cublasSgemmEx` /
//! `rocblas_gemm_ex`, FP16 inputs with FP32 accumulation), **TRSM**
//! (`cublasStrsm` / `rocblas_strsm`), **GETRF** (`cusolverDnSgetrf` /
//! `rocsolver_sgetrf`, no pivoting needed thanks to diagonal dominance), and
//! **TRSV**/**GEMV** on the CPU for iterative refinement. This crate
//! implements all of them from scratch with the same calling conventions
//! (column-major storage, explicit leading dimension `lda`, in-place
//! triangular solves), so the distributed driver in `hplai-core` is a
//! line-for-line realization of the paper's Algorithm 1.
//!
//! Kernel notes:
//!
//! * [`gemm_mixed`] reproduces tensor-core semantics: operands are read in a
//!   reduced format (`F16`, `B16`, or `f32` via the [`LowPrec`] trait),
//!   widened to f32, and accumulated in f32.
//! * The packed GEMM engine dispatches to explicit `std::arch` micro-kernels
//!   (AVX2+FMA, AVX-512F, NEON — see [`kernel`]) selected by runtime
//!   feature detection: one f32 and one f64 micro-kernel per ISA level,
//!   each with fixed blocking parameters ([`tune`]).
//!   `HPLAI_KERNEL=portable|avx2|avx512|neon` forces a level; every level
//!   is bitwise identical to the portable reference (DESIGN.md §14).
//! * All level-3 kernels are cache-blocked and parallelized with rayon;
//!   level-2/1 kernels are sequential (they are never on the critical path
//!   at the scales the functional mode runs).
//! * Dimension errors are programming errors and panic, as in reference
//!   BLAS with `XERBLA`.

#![deny(missing_docs)]

mod cast;
mod gemm;
mod gemv;
mod getrf;
pub mod kernel;
mod level1;
mod mat;
mod norms;
pub mod scratch;
mod trsm;
mod trsv;
pub mod tune;

pub use cast::{cast_f32_to_low, trans_cast_f32_to_low, widen_low_to_f32};
#[doc(hidden)]
pub use gemm::gemm_with_variant;
pub use gemm::{gemm, gemm_mixed, gemm_task_grid, Trans};
pub use gemv::gemv;
pub use getrf::{apply_pivots, getrf_nopiv, getrf_pivoted, GetrfError};
pub use kernel::KernelVariant;
pub use level1::{axpy, dot, ger, iamax, laswp, nrm2, scal, swap};
pub use mat::Mat;
pub use mxp_precision::Isa;
pub use norms::{mat_inf_norm, vec_inf_norm, vec_inf_norm_f32};
pub use trsm::{trsm, Diag, Side, Uplo};
pub use trsv::trsv;
#[doc(hidden)]
pub use tune::tune_stats;
pub use tune::{kernel_info_f32, kernel_info_f64, KernelInfo, KernelParams};

pub use mxp_precision::{LowPrec, Real};
