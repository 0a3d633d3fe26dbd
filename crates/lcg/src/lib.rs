//! # mxp-lcg — jump-ahead linear congruential matrix generation
//!
//! HPL-AI fills the global N×N matrix with pseudo-random entries from a
//! 64-bit linear congruential generator. The property the paper (and the
//! Fugaku implementation it descends from) relies on is that an LCG can be
//! advanced `n` steps in O(log n) time, so **any** entry `A(i,j)` can be
//! regenerated from scratch by any rank:
//!
//! * at setup, each rank fills only its local block-cyclic tiles, and
//! * during iterative refinement, the residual `r = b − A·x̃` is computed by
//!   regenerating `A` in FP64 on the fly (Algorithm 1, line 38) instead of
//!   keeping a second full-precision copy of the matrix in memory:
//!   [`MatrixGen::gemv_cols`] streams each block column through the
//!   product one L1-sized segment at a time, so not even a block column
//!   of `A` is staged.
//!
//! The generator is the textbook MMIX LCG; jumping is affine-map
//! exponentiation by squaring modulo 2⁶⁴. The fills draw each column as 32
//! interleaved jump-ahead lanes, which vectorize and give the one-stream
//! loop's values bit for bit.

#![deny(missing_docs)]

mod gen;
mod lcg;

pub use gen::{MatrixGen, MatrixKind};
pub use lcg::{affine_pow, Lcg, LCG_A, LCG_C};
