//! Arch-specific GEMM micro-kernels and their runtime dispatch table
//! (DESIGN.md §14).
//!
//! The packed engine in `gemm.rs` is parameterized over one function: the
//! **micro-kernel**, a rank-`kc` update of an `mr × nr` register tile read
//! from packed A/B micro-panels. This module provides the implementations:
//!
//! * explicit `std::arch` AVX2+FMA and AVX-512F kernels for f32 and f64 on
//!   x86-64,
//! * NEON kernels on aarch64,
//! * a portable `mul_add` kernel — the exact seed-engine 16×4 tile — that
//!   compiles everywhere and is what `HPLAI_KERNEL=portable` forces.
//!
//! The table holds exactly one f32 and one f64 entry per ISA level, each
//! with a fixed register tile and L2 block `mc`, chosen once by timing
//! the functional solve (EXPERIMENTS.md, "One kernel per ISA").
//! Dispatch is a lookup of the active level ([`variant_for`]).
//!
//! # The bitwise-determinism invariant
//!
//! Every kernel must compute element `(i, j)` of the tile as one FMA chain
//! over `l = 0..kc` **ascending**:
//!
//! ```text
//! acc[j][i] = fma(ap[l*mr + i], bp[l*nr + j], acc[j][i])   for l = 0, 1, …
//! ```
//!
//! A SIMD kernel maps `i` onto vector lanes — each scalar element still
//! owns exactly this chain, so AVX2, AVX-512, NEON and portable kernels
//! produce **bit-identical** tiles from the same packed panels. Tile shape
//! (`mr`, `nr`) and the L2 block (`mc`) only change how panels are cut,
//! never any element's accumulation order, which is why each level may
//! pick its own; only the k-slab depth `kc` is bit-affecting, and it is
//! pinned (see `tune.rs`). The differential suite
//! (`tests/simd_differential.rs`) enforces the invariant for every kernel
//! the host can run.
//!
//! # Safety
//!
//! All kernels are `unsafe fn` over raw pointers. The shared contract,
//! relied on by every `unsafe` block in this module:
//!
//! * `ap` points to `kc × mr` elements (A micro-panel, row `l` at
//!   `ap[l*mr..]`), `bp` to `kc × nr` elements, `acc` to `mr × nr`
//!   writable elements (column-major tile);
//! * for the AVX2/AVX-512 kernels, `ap` is 64-byte aligned with
//!   `mr * size_of::<R>()` a multiple of 64 — the pack buffers come from
//!   the scratch arena ([`crate::scratch::ARENA_ALIGN`]) and every shipped
//!   variant satisfies the row-stride rule, so whole-panel *aligned* loads
//!   are legal; `bp` and `acc` have no alignment requirement (broadcast
//!   loads / unaligned stores);
//! * the caller verified the variant's ISA is available on this host
//!   (dispatch goes through [`variant_for`] at [`active_isa`], which the
//!   host supports).

use crate::tune::KernelParams;
use mxp_precision::Real;
pub use mxp_precision::{simd::active_isa, simd::detected_isa, simd::supported_isas, Isa};

/// The micro-kernel signature: `acc[mr × nr] = Σ_l ap[l] ⊗ bp[l]`
/// (overwrite; the kernel zero-initializes its registers internally).
pub(crate) type MicroFn<R> = unsafe fn(kc: usize, ap: *const R, bp: *const R, acc: *mut R);

/// Largest `mr` any shipped variant uses (sizes the macro-kernel's
/// stack-resident accumulator tile).
pub(crate) const MAX_MR: usize = 32;
/// Largest `nr` any shipped variant uses.
pub(crate) const MAX_NR: usize = 8;

/// One compiled micro-kernel: an ISA, a register-tile shape, its L2
/// block, and the function that computes it.
pub struct KernelVariant<R> {
    /// Stable identifier, recorded in bench provenance (e.g.
    /// `"avx512_f32_32x8"`).
    pub name: &'static str,
    /// ISA level the kernel requires.
    pub isa: Isa,
    /// Register-tile height (rows of C per micro-kernel call).
    pub mr: usize,
    /// Register-tile width (columns of C per micro-kernel call).
    pub nr: usize,
    /// L2 block: rows of packed A per macro-kernel pass (bit-neutral).
    pub mc: usize,
    pub(crate) micro: MicroFn<R>,
}

impl<R> KernelVariant<R> {
    pub(crate) fn micro(&self) -> MicroFn<R> {
        self.micro
    }

    /// The entry's blocking: its tile and `mc`, every other knob pinned.
    pub fn params(&self) -> KernelParams {
        KernelParams {
            mc: self.mc,
            ..KernelParams::nominal(self.mr, self.nr)
        }
    }
}

impl<R: Real> KernelVariant<R> {
    /// The portable seed tile at its nominal blocking, for any `Real`.
    pub(crate) fn portable_16x4() -> Self {
        KernelVariant {
            name: "portable_16x4",
            isa: Isa::Portable,
            mr: 16,
            nr: 4,
            mc: KernelParams::nominal(16, 4).mc,
            micro: portable_micro::<R, 16, 4>,
        }
    }
}

/// The portable micro-kernel, generic over element type and tile shape:
/// exactly the seed engine's `mul_add` loop, monomorphized per shape. The
/// autovectorizer does the lane mapping; the scalar semantics — one
/// k-ascending FMA chain per element — are the reference every SIMD
/// kernel must match.
///
/// # Safety
/// See the module-level contract (`ap`/`bp`/`acc` extents). No alignment
/// requirement.
pub(crate) unsafe fn portable_micro<R: Real, const MR: usize, const NR: usize>(
    kc: usize,
    ap: *const R,
    bp: *const R,
    acc: *mut R,
) {
    let mut c = [[R::ZERO; MR]; NR];
    for l in 0..kc {
        // SAFETY: row l of each panel is in bounds by the size contract.
        let arow = unsafe { core::slice::from_raw_parts(ap.add(l * MR), MR) };
        let brow = unsafe { core::slice::from_raw_parts(bp.add(l * NR), NR) };
        for (j, cj) in c.iter_mut().enumerate() {
            let bv = brow[j];
            for i in 0..MR {
                cj[i] = arow[i].mul_add(bv, cj[i]);
            }
        }
    }
    for (j, cj) in c.iter().enumerate() {
        for (i, &v) in cj.iter().enumerate() {
            // SAFETY: acc holds MR*NR elements by the size contract.
            unsafe { acc.add(j * MR + i).write(v) };
        }
    }
}

/// x86-64 AVX2+FMA and AVX-512F kernels.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(clippy::missing_safety_doc)] // covered by the module contract

    use core::arch::x86_64::*;

    /// Expands one SIMD micro-kernel: `$mrv` aligned vector loads of A per
    /// `k` step, `$nr` broadcast B values, an `$mrv × $nr` register
    /// accumulator array. The `l` loop carries one FMA chain per
    /// accumulator register — per scalar lane, that is the k-ascending
    /// per-element chain of the bitwise contract. The fixed-bound inner
    /// loops unroll at `opt-level=3`, keeping the accumulators in
    /// registers.
    macro_rules! simd_micro {
        ($name:ident, $feat:literal, $elem:ty, $vec:ty, $vlen:expr, $mrv:expr, $nr:expr,
         $load:ident, $storeu:ident, $set1:ident, $fma:ident, $zero:ident) => {
            /// # Safety
            /// Module contract: panel extents, 64-byte-aligned `ap`, and
            /// the `$feat` feature verified at runtime by the dispatcher.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(
                kc: usize,
                ap: *const $elem,
                bp: *const $elem,
                acc: *mut $elem,
            ) {
                const MR: usize = $vlen * $mrv;
                let mut c = [[$zero(); $mrv]; $nr];
                for l in 0..kc {
                    let mut a = [$zero(); $mrv];
                    for v in 0..$mrv {
                        // SAFETY: aligned by the pack-buffer contract
                        // (ap + multiples of the vector width, with the
                        // row stride MR*size_of a multiple of 64).
                        a[v] = $load(ap.add(l * MR + v * $vlen));
                    }
                    for j in 0..$nr {
                        let b = $set1(*bp.add(l * $nr + j));
                        for v in 0..$mrv {
                            c[j][v] = $fma(a[v], b, c[j][v]);
                        }
                    }
                }
                for j in 0..$nr {
                    for v in 0..$mrv {
                        $storeu(acc.add(j * MR + v * $vlen), c[j][v]);
                    }
                }
            }
        };
    }

    // AVX2+FMA, f32: 8-lane vectors. 16×6 uses 12 accumulator ymm + 2 A
    // vectors + 1 broadcast = 15 of 16.
    simd_micro!(
        f32_avx2_16x6,
        "avx2,fma",
        f32,
        __m256,
        8,
        2,
        6,
        _mm256_load_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps
    );

    // AVX2+FMA, f64: 4-lane vectors, the same 12-accumulator layout.
    simd_micro!(
        f64_avx2_8x6,
        "avx2,fma",
        f64,
        __m256d,
        4,
        2,
        6,
        _mm256_load_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd
    );

    // AVX-512F, f32: 16-lane vectors. 32×8 holds 16 accumulator zmm + 2 A
    // vectors + broadcasts well inside the 32-register file.
    simd_micro!(
        f32_avx512_32x8,
        "avx512f",
        f32,
        __m512,
        16,
        2,
        8,
        _mm512_load_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps,
        _mm512_setzero_ps
    );

    // AVX-512F, f64: 8-lane vectors. 16×8 holds 16 accumulator zmm + 2 A
    // vectors.
    simd_micro!(
        f64_avx512_16x8,
        "avx512f",
        f64,
        __m512d,
        8,
        2,
        8,
        _mm512_load_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd,
        _mm512_setzero_pd
    );
}

/// AArch64 NEON kernels. NEON `vfmaq` is a true fused multiply-add, so the
/// per-lane chains match `mul_add` bit for bit.
#[cfg(target_arch = "aarch64")]
mod neon {
    #![allow(clippy::missing_safety_doc)] // covered by the module contract

    use core::arch::aarch64::*;

    /// # Safety
    /// Module contract; NEON verified by the dispatcher.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn f32_neon_16x4(kc: usize, ap: *const f32, bp: *const f32, acc: *mut f32) {
        const MR: usize = 16;
        const NR: usize = 4;
        let mut c = [[vdupq_n_f32(0.0); 4]; NR];
        for l in 0..kc {
            let mut a = [vdupq_n_f32(0.0); 4];
            for (v, av) in a.iter_mut().enumerate() {
                *av = vld1q_f32(ap.add(l * MR + v * 4));
            }
            for j in 0..NR {
                let b = vdupq_n_f32(*bp.add(l * NR + j));
                for v in 0..4 {
                    c[j][v] = vfmaq_f32(c[j][v], a[v], b);
                }
            }
        }
        for j in 0..NR {
            for v in 0..4 {
                vst1q_f32(acc.add(j * MR + v * 4), c[j][v]);
            }
        }
    }

    /// # Safety
    /// Module contract; NEON verified by the dispatcher.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn f64_neon_8x4(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
        const MR: usize = 8;
        const NR: usize = 4;
        let mut c = [[vdupq_n_f64(0.0); 4]; NR];
        for l in 0..kc {
            let mut a = [vdupq_n_f64(0.0); 4];
            for (v, av) in a.iter_mut().enumerate() {
                *av = vld1q_f64(ap.add(l * MR + v * 2));
            }
            for j in 0..NR {
                let b = vdupq_n_f64(*bp.add(l * NR + j));
                for v in 0..4 {
                    c[j][v] = vfmaq_f64(c[j][v], a[v], b);
                }
            }
        }
        for j in 0..NR {
            for v in 0..4 {
                vst1q_f64(acc.add(j * MR + v * 2), c[j][v]);
            }
        }
    }
}

/// The f32 dispatch table: one entry per ISA level compiled for this
/// target, each with the tile and `mc` the functional solve ran fastest
/// with (EXPERIMENTS.md, "One kernel per ISA"). The table is a superset
/// of what a given host can run; [`variant_for`] picks the active level.
pub fn variants_f32() -> &'static [KernelVariant<f32>] {
    &[
        #[cfg(target_arch = "x86_64")]
        KernelVariant {
            name: "avx512_f32_32x8",
            isa: Isa::Avx512,
            mr: 32,
            nr: 8,
            mc: 256,
            micro: x86::f32_avx512_32x8,
        },
        #[cfg(target_arch = "x86_64")]
        KernelVariant {
            name: "avx2_f32_16x6",
            isa: Isa::Avx2,
            mr: 16,
            nr: 6,
            mc: 256,
            micro: x86::f32_avx2_16x6,
        },
        // Not measured on aarch64: the nominal `mc` = 8·mr.
        #[cfg(target_arch = "aarch64")]
        KernelVariant {
            name: "neon_f32_16x4",
            isa: Isa::Neon,
            mr: 16,
            nr: 4,
            mc: 128,
            micro: neon::f32_neon_16x4,
        },
        KernelVariant {
            name: "portable_16x4",
            isa: Isa::Portable,
            mr: 16,
            nr: 4,
            mc: 256,
            micro: portable_micro::<f32, 16, 4>,
        },
    ]
}

/// The f64 dispatch table (see [`variants_f32`]; timed on the FP64 HPL
/// solve).
pub fn variants_f64() -> &'static [KernelVariant<f64>] {
    &[
        #[cfg(target_arch = "x86_64")]
        KernelVariant {
            name: "avx512_f64_16x8",
            isa: Isa::Avx512,
            mr: 16,
            nr: 8,
            mc: 128,
            micro: x86::f64_avx512_16x8,
        },
        #[cfg(target_arch = "x86_64")]
        KernelVariant {
            name: "avx2_f64_8x6",
            isa: Isa::Avx2,
            mr: 8,
            nr: 6,
            mc: 128,
            micro: x86::f64_avx2_8x6,
        },
        // Not measured on aarch64: the nominal `mc` = 8·mr.
        #[cfg(target_arch = "aarch64")]
        KernelVariant {
            name: "neon_f64_8x4",
            isa: Isa::Neon,
            mr: 8,
            nr: 4,
            mc: 64,
            micro: neon::f64_neon_8x4,
        },
        KernelVariant {
            name: "portable_16x4",
            isa: Isa::Portable,
            mr: 16,
            nr: 4,
            mc: 256,
            micro: portable_micro::<f64, 16, 4>,
        },
    ]
}

/// The entry of `all` at ISA level `isa`, which the host must support.
pub fn variant_for<R>(all: &'static [KernelVariant<R>], isa: Isa) -> &'static KernelVariant<R> {
    let entry = all.iter().find(|v| v.isa == isa);
    entry.expect("every level the host supports has a table entry")
}

/// All variants this host can actually execute, across every supported
/// ISA level — what the differential suite iterates.
pub fn runnable_variants<R>(all: &'static [KernelVariant<R>]) -> Vec<&'static KernelVariant<R>> {
    all.iter()
        .filter(|v| mxp_precision::simd::isa_supported(v.isa))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_always_contain_portable() {
        assert!(variants_f32().iter().any(|v| v.isa == Isa::Portable));
        assert!(variants_f64().iter().any(|v| v.isa == Isa::Portable));
    }

    #[test]
    fn variant_shapes_fit_limits_and_alignment_rule() {
        for v in variants_f32() {
            assert!(v.mr <= MAX_MR && v.nr <= MAX_NR, "{}", v.name);
            if v.isa == Isa::Avx2 || v.isa == Isa::Avx512 {
                assert_eq!((v.mr * 4) % 64, 0, "{}: A row stride not 64B", v.name);
            }
        }
        for v in variants_f64() {
            assert!(v.mr <= MAX_MR && v.nr <= MAX_NR, "{}", v.name);
            if v.isa == Isa::Avx2 || v.isa == Isa::Avx512 {
                assert_eq!((v.mr * 8) % 64, 0, "{}: A row stride not 64B", v.name);
            }
        }
    }

    #[test]
    fn runnable_variants_match_host_support() {
        for v in runnable_variants(variants_f32()) {
            assert!(mxp_precision::simd::isa_supported(v.isa));
        }
        // Portable is always runnable.
        assert!(runnable_variants(variants_f32())
            .iter()
            .any(|v| v.isa == Isa::Portable));
    }

    #[test]
    fn every_runnable_variant_matches_portable_on_one_tile() {
        // Direct micro-kernel check on a single padded tile (the full
        // engine-level differential lives in tests/simd_differential.rs).
        // Packed panels come from the arena so the aligned-load contract
        // holds.
        let kc = 37;
        for v in runnable_variants(variants_f32()) {
            let mut ap = crate::scratch::take::<f32>(v.mr * kc);
            let mut bp = crate::scratch::take::<f32>(v.nr * kc);
            let mut s = 12345u64;
            let mut fill = |buf: &mut [f32]| {
                for x in buf.iter_mut() {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *x = ((s >> 40) as f32 / 1.6e7) - 0.5;
                }
            };
            fill(&mut ap);
            fill(&mut bp);
            let mut got = vec![0.0f32; v.mr * v.nr];
            let mut want = vec![0.0f32; v.mr * v.nr];
            // SAFETY: panels sized kc*mr / kc*nr from the 64B-aligned
            // arena; acc sized mr*nr.
            unsafe { (v.micro)(kc, ap.as_ptr(), bp.as_ptr(), got.as_mut_ptr()) };
            for j in 0..v.nr {
                for i in 0..v.mr {
                    let mut acc = 0.0f32;
                    for l in 0..kc {
                        acc = ap[l * v.mr + i].mul_add(bp[l * v.nr + j], acc);
                    }
                    want[j * v.mr + i] = acc;
                }
            }
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "variant {} diverges from the scalar chain",
                v.name
            );
        }
    }
}
