//! Differential tests pinning the SIMD dispatch layer to the portable
//! reference (DESIGN.md §14).
//!
//! Every micro-kernel the host can execute (AVX2+FMA, AVX-512F, NEON) must be
//! **bitwise identical** to the portable Rust reference on the same inputs:
//! all kernels accumulate each output element as one FMA chain over `l = 0..k`
//! in ascending order, so lane count and register layout are bit-neutral.
//! These tests drive each variant directly through the `gemm_with_variant`
//! hook (bypassing process-wide dispatch), so one test binary
//! covers every ISA level the machine supports; the CI matrix additionally
//! runs the whole suite under `HPLAI_KERNEL=portable` to exercise the forced
//! process-wide fallback.
//!
//! The suite also pins the SIMD convert-on-pack path: `gemm_mixed` on
//! fp16/bf16 operands must equal full-f32 GEMM on pre-widened (scalar
//! `to_f32`) copies bit-for-bit, and the bulk `widen_slice`/`narrow_slice`
//! conversions must round exactly like their scalar counterparts.

use mxp_blas::kernel::{runnable_variants, variants_f32, variants_f64};
use mxp_blas::{gemm, gemm_mixed, gemm_with_variant, Isa, KernelParams, Trans};
use mxp_precision::{LowPrec, Real, B16, F16};
use proptest::prelude::*;

/// Column-major matrix with `lda >= rows` padding; pad rows are NaN so any
/// out-of-extent read by a packing routine poisons the comparison.
fn rand_padded<R: Real>(rows: usize, cols: usize, lda: usize, seed: u64) -> Vec<R> {
    let mut s = seed | 1;
    let mut v = vec![R::from_f64(f64::NAN); lda * cols.max(1)];
    for j in 0..cols {
        for x in &mut v[j * lda..j * lda + rows] {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = R::from_f64(((s >> 11) as f64 / 9.007199254740992e15) - 0.5);
        }
    }
    v
}

/// Run one (ta, tb, m, n, k, α, β) case through every runnable variant and
/// assert each result is bitwise identical to the portable variant's.
#[allow(clippy::too_many_arguments)]
fn check_all_variants<R: Real>(
    all: &'static [mxp_blas::KernelVariant<R>],
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: R,
    beta: R,
    pa: usize,
    pb: usize,
    pc: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (ar, ac) = match ta {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match tb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let (lda, ldb, ldc) = (ar + pa, br + pb, m + pc);
    let a = rand_padded::<R>(ar, ac, lda, seed);
    let b = rand_padded::<R>(br, bc, ldb, seed ^ 7);
    let c0 = rand_padded::<R>(m, n, ldc, seed ^ 8);

    let portable = all
        .iter()
        .find(|v| v.isa == Isa::Portable)
        .expect("portable variant always present");
    let mut c_ref = c0.clone();
    gemm_with_variant(
        portable,
        &KernelParams::nominal(portable.mr, portable.nr),
        true,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        &a,
        lda,
        &b,
        ldb,
        beta,
        &mut c_ref,
        ldc,
    );

    for v in runnable_variants(all) {
        // Vary mc across variants too: the L2 block height is bit-neutral.
        for mc_mult in [4usize, 16] {
            let mut params = KernelParams::nominal(v.mr, v.nr);
            params.mc = mc_mult * v.mr;
            let mut c = c0.clone();
            gemm_with_variant(
                v, &params, true, ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc,
            );
            for j in 0..n {
                for i in 0..m {
                    let (got, want) = (c[j * ldc + i], c_ref[j * ldc + i]);
                    prop_assert!(
                        got.to_f64().to_bits() == want.to_f64().to_bits(),
                        "variant {} mc={} at ({i},{j}): got {got:?} want {want:?} \
                         [ta={ta:?} tb={tb:?} m={m} n={n} k={k}]",
                        v.name,
                        params.mc,
                    );
                }
                // NaN pad rows of C must never be touched by any variant.
                for i in m..ldc {
                    prop_assert!(c[j * ldc + i].to_f64().is_nan());
                }
            }
        }
    }
    Ok(())
}

/// gemm_mixed on low-precision operands vs full-f32 GEMM on scalar-widened
/// copies: the SIMD convert-on-pack must be bitwise invisible.
#[allow(clippy::too_many_arguments)]
fn check_mixed_pack<L: LowPrec>(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    pa: usize,
    pb: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (ar, ac) = match ta {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match tb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let (lda, ldb) = (ar + pa, br + pb);
    let to_low = |v: &f64| {
        if v.is_nan() {
            L::from_f32(0.0)
        } else {
            L::from_f32(*v as f32)
        }
    };
    let a_lo: Vec<L> = rand_padded::<f64>(ar, ac, lda, seed)
        .iter()
        .map(to_low)
        .collect();
    let b_lo: Vec<L> = rand_padded::<f64>(br, bc, ldb, seed ^ 11)
        .iter()
        .map(to_low)
        .collect();
    // Scalar reference widening: one-element-at-a-time to_f32.
    let a32: Vec<f32> = a_lo.iter().map(|x| x.to_f32()).collect();
    let b32: Vec<f32> = b_lo.iter().map(|x| x.to_f32()).collect();
    let mut c_mixed = vec![0.375f32; m * n];
    let mut c_full = c_mixed.clone();
    gemm_mixed(
        ta,
        tb,
        m,
        n,
        k,
        -1.5,
        &a_lo,
        lda,
        &b_lo,
        ldb,
        0.5,
        &mut c_mixed,
        m,
    );
    gemm(
        ta,
        tb,
        m,
        n,
        k,
        -1.5f32,
        &a32,
        lda,
        &b32,
        ldb,
        0.5,
        &mut c_full,
        m,
    );
    for i in 0..m * n {
        prop_assert_eq!(
            c_mixed[i].to_bits(),
            c_full[i].to_bits(),
            "element {} [ta={:?} tb={:?} m={} n={} k={}]",
            i,
            ta,
            tb,
            m,
            n,
            k
        );
    }
    Ok(())
}

fn tr(yes: bool) -> Trans {
    if yes {
        Trans::Yes
    } else {
        Trans::No
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// f32: every runnable SIMD variant is bitwise identical to portable
    /// across transposes, lda padding, ragged tile edges, and α/β branches.
    #[test]
    fn f32_variants_bitwise_match_portable(
        m in prop::sample::select(vec![1usize, 7, 16, 31, 32, 33, 47, 64, 65]),
        n in prop::sample::select(vec![1usize, 3, 8, 11, 12, 13, 25]),
        k in prop::sample::select(vec![1usize, 5, 16, 37]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..4, pb in 0usize..4, pc in 0usize..4,
        alpha in prop::sample::select(vec![0.0f32, 1.0, -0.5, 2.25]),
        beta in prop::sample::select(vec![0.0f32, 1.0, 0.25]),
        seed: u64,
    ) {
        check_all_variants(variants_f32(), tr(ta_yes), tr(tb_yes),
            m, n, k, alpha, beta, pa, pb, pc, seed)?;
    }

    /// f64: same bitwise pin for the double-precision variant table.
    #[test]
    fn f64_variants_bitwise_match_portable(
        m in prop::sample::select(vec![1usize, 7, 8, 9, 16, 17, 33]),
        n in prop::sample::select(vec![1usize, 4, 8, 11, 12, 13]),
        k in prop::sample::select(vec![1usize, 6, 16, 29]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..4, pb in 0usize..4, pc in 0usize..4,
        alpha in prop::sample::select(vec![0.0f64, 1.0, -0.5]),
        beta in prop::sample::select(vec![0.0f64, 1.0, 0.25]),
        seed: u64,
    ) {
        check_all_variants(variants_f64(), tr(ta_yes), tr(tb_yes),
            m, n, k, alpha, beta, pa, pb, pc, seed)?;
    }

    /// fp16 convert-on-pack (F16C / NEON fcvt when available) is bitwise
    /// identical to scalar widening in all four transpose configurations.
    #[test]
    fn f16_simd_pack_convert_bitwise(
        m in prop::sample::select(vec![1usize, 5, 16, 17, 40]),
        n in prop::sample::select(vec![1usize, 4, 9, 23]),
        k in prop::sample::select(vec![1usize, 8, 27, 64]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..3, pb in 0usize..3,
        seed: u64,
    ) {
        check_mixed_pack::<F16>(tr(ta_yes), tr(tb_yes), m, n, k, pa, pb, seed)?;
    }

    /// bf16 convert-on-pack (shift-widen, AVX-512 BF16 / NEON bfcvt narrow)
    /// is bitwise identical to scalar widening in all four configurations.
    #[test]
    fn bf16_simd_pack_convert_bitwise(
        m in prop::sample::select(vec![1usize, 5, 16, 17, 40]),
        n in prop::sample::select(vec![1usize, 4, 9, 23]),
        k in prop::sample::select(vec![1usize, 8, 27, 64]),
        ta_yes: bool, tb_yes: bool,
        pa in 0usize..3, pb in 0usize..3,
        seed: u64,
    ) {
        check_mixed_pack::<B16>(tr(ta_yes), tr(tb_yes), m, n, k, pa, pb, seed)?;
    }

    /// Bulk slice conversion (widen and narrow round-trip) rounds exactly
    /// like the scalar per-element path at every length, including the
    /// ragged lane-count tails SIMD kernels special-case.
    #[test]
    fn bulk_convert_matches_scalar(len in 0usize..70, seed: u64) {
        let src = rand_padded::<f64>(len.max(1), 1, len.max(1), seed);
        let f: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        // narrow: f32 -> L, bulk vs scalar
        let mut lo16 = vec![F16::default(); f.len()];
        F16::narrow_slice(&f, &mut lo16);
        for (i, &x) in f.iter().enumerate() {
            prop_assert_eq!(lo16[i].to_bits(), F16::from_f32(x).to_bits(), "f16 narrow {}", i);
        }
        let mut lob = vec![B16::default(); f.len()];
        B16::narrow_slice(&f, &mut lob);
        for (i, &x) in f.iter().enumerate() {
            prop_assert_eq!(lob[i].to_bits(), B16::from_f32(x).to_bits(), "bf16 narrow {}", i);
        }
        // widen: L -> f32, bulk vs scalar
        let mut w = vec![0.0f32; f.len()];
        F16::widen_slice(&lo16, &mut w);
        for (i, x) in lo16.iter().enumerate() {
            prop_assert_eq!(w[i].to_bits(), x.to_f32().to_bits(), "f16 widen {}", i);
        }
        B16::widen_slice(&lob, &mut w);
        for (i, x) in lob.iter().enumerate() {
            prop_assert_eq!(w[i].to_bits(), x.to_f32().to_bits(), "bf16 widen {}", i);
        }
    }
}
