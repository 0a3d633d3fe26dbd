//! Kernel parameters and their resolution (DESIGN.md §14).
//!
//! The packed GEMM engine used to hard-code `MR/NR/MC/KC`; those now live
//! in a [`KernelParams`] struct that each entry of the dispatch table
//! (`kernel.rs`) fixes for its ISA level. Resolution is a lookup: the
//! entry for [`kernel::active_isa`] — `HPLAI_KERNEL=portable|avx2|avx512|neon`
//! if set (validated against the host), otherwise the best detected level.
//! Nothing is timed, read from or written to disk: each entry's tile shape
//! and `mc` were chosen once by timing the functional solve (EXPERIMENTS.md,
//! "One kernel per ISA").
//!
//! # What an entry may vary, and what it must not
//!
//! The engine's bitwise-determinism posture (cross-thread, cross-backend,
//! cross-worker-count — see DESIGN.md §14) holds across ISA levels
//! because the entries differ only in **bit-neutral** knobs: the
//! register-tile shape (`mr × nr`, i.e. the kernel variant) and the L2
//! block `mc` change how C is cut into tiles, never the k-ascending FMA
//! chain any element accumulates through. The k-slab depth `kc` *does*
//! group the accumulation (a different `kc` is a different — equally
//! valid, but not identical — result), and the GETRF/TRSM blocking
//! `nb`/`tb` reorder the factorization, so all three are **pinned** to
//! the engine's historical constants in every entry.

use crate::kernel::{self, KernelVariant};
use mxp_precision::{Isa, Real};
use std::any::TypeId;
use std::path::Path;

/// Upper bound on `kc` the engine supports (sizes the stack buffer the
/// B-pack widens columns through).
pub const MAX_KC: usize = 512;

/// Pinned k-slab depth: the one bit-affecting blocking parameter (see the
/// module docs), kept at the seed engine's constant.
pub const KC_PINNED: usize = 256;

/// Pinned GETRF block size (PR 4's swept winner; bit-affecting).
pub const NB_PINNED: usize = 32;

/// Pinned TRSM recursion cutoff (bit-affecting through the blocked
/// substitution order).
pub const TB_PINNED: usize = 64;

/// Nominal per-task column-block width used in the task-grain derivation.
pub const NC_NOMINAL: usize = 128;

/// The blocking/tile parameters the packed kernels consume — the former
/// `MR/NR/MC/KC/NB` constants as one struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Micro-kernel register-tile height (rows of C).
    pub mr: usize,
    /// Micro-kernel register-tile width (columns of C).
    pub nr: usize,
    /// L2 block: rows of packed A kept hot per macro-kernel pass.
    pub mc: usize,
    /// Nominal task column width (parallel-grain derivation only).
    pub nc: usize,
    /// k-dimension slab depth. **Bit-affecting**; pinned to [`KC_PINNED`].
    pub kc: usize,
    /// GETRF block size. **Bit-affecting**; pinned to [`NB_PINNED`].
    pub nb: usize,
    /// TRSM recursion cutoff. **Bit-affecting**; pinned to [`TB_PINNED`].
    pub tb: usize,
}

impl KernelParams {
    /// The nominal parameter set for a tile shape: `mc = 8·mr` (the seed
    /// engine's 128 for the 16-row tile) and every pinned constant.
    pub fn nominal(mr: usize, nr: usize) -> Self {
        KernelParams {
            mr,
            nr,
            mc: 8 * mr,
            nc: NC_NOMINAL,
            kc: KC_PINNED,
            nb: NB_PINNED,
            tb: TB_PINNED,
        }
    }

    /// Minimum flops a parallel task must amortize with these blockings:
    /// `PACK_AMORTIZE` flops per element of the `mc·kc + kc·nc + mc·nc`
    /// working set a nominal task touches per slab.
    pub fn min_flops_per_task(&self) -> f64 {
        (crate::gemm::PACK_AMORTIZE * (self.mc * self.kc + self.kc * self.nc + self.mc * self.nc))
            as f64
    }
}

/// Public snapshot of a resolved kernel (what `kernel_bench` and
/// `RunProvenance` record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelInfo {
    /// Dispatched micro-kernel variant name (e.g. `"avx512_f32_32x8"`).
    pub kernel: &'static str,
    /// ISA level the variant runs at.
    pub isa: Isa,
    /// Its blocking parameters.
    pub params: KernelParams,
}

impl<R> From<&KernelVariant<R>> for KernelInfo {
    fn from(v: &KernelVariant<R>) -> Self {
        KernelInfo {
            kernel: v.name,
            isa: v.isa,
            params: v.params(),
        }
    }
}

/// Runs `f` with the table entry `R` dispatches to at the active ISA
/// level. `f32`/`f64` look up their tables; any other `Real` implementor
/// gets the generic portable tile.
pub(crate) fn with_resolved<R: Real, T>(f: impl FnOnce(&KernelVariant<R>) -> T) -> T {
    let tid = TypeId::of::<R>();
    if tid == TypeId::of::<f32>() {
        let v = resolved(kernel::variants_f32());
        // SAFETY: TypeId equality proves R == f32, so the pointer cast is
        // an identity; the reference stays 'static.
        f(unsafe { &*(v as *const KernelVariant<f32> as *const KernelVariant<R>) })
    } else if tid == TypeId::of::<f64>() {
        let v = resolved(kernel::variants_f64());
        // SAFETY: as above with R == f64.
        f(unsafe { &*(v as *const KernelVariant<f64> as *const KernelVariant<R>) })
    } else {
        f(&KernelVariant::portable_16x4())
    }
}

fn resolved<R>(all: &'static [KernelVariant<R>]) -> &'static KernelVariant<R> {
    kernel::variant_for(all, kernel::active_isa())
}

/// The f32 kernel dispatched at the active ISA level.
pub fn kernel_info_f32() -> KernelInfo {
    resolved(kernel::variants_f32()).into()
}

/// The f64 kernel dispatched at the active ISA level.
pub fn kernel_info_f64() -> KernelInfo {
    resolved(kernel::variants_f64()).into()
}

/// Kept only for perfbench, which changes only with the benchmark: the
/// table's entry for `tag` (`"f32"` or `"f64"`). Reads no file.
#[doc(hidden)]
pub fn resolve_fresh_with_file(tag: &str, _path: Option<&Path>) -> KernelInfo {
    match tag {
        "f32" => kernel_info_f32(),
        "f64" => kernel_info_f64(),
        other => panic!("resolve_fresh_with_file: unknown tag {other:?}"),
    }
}

/// Kept only for perfbench, which changes only with the benchmark:
/// `(file_hits, sweeps)`, always `(0, 0)` now that nothing is tuned.
#[doc(hidden)]
pub fn tune_stats() -> (u64, u64) {
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_for<R>(p: &KernelParams, v: &KernelVariant<R>) -> bool {
        p.mr == v.mr
            && p.nr == v.nr
            && p.mc >= p.mr
            && p.mc.is_multiple_of(p.mr)
            && p.kc >= 1
            && p.kc <= MAX_KC
            && p.nc >= p.nr
            && p.nb >= 1
            && p.tb >= 8
    }

    #[test]
    fn one_entry_per_isa_pins_bit_affecting_knobs() {
        fn check<R>(all: &'static [KernelVariant<R>], info: KernelInfo) {
            for isa in kernel::supported_isas() {
                let at: Vec<_> = all.iter().filter(|v| v.isa == isa).collect();
                assert_eq!(at.len(), 1, "{isa:?} must have exactly one entry");
                let p = at[0].params();
                assert!(valid_for(&p, at[0]), "{}: {p:?}", at[0].name);
                assert_eq!((p.kc, p.nb, p.tb), (KC_PINNED, NB_PINNED, TB_PINNED));
            }
            let active = kernel::variant_for(all, kernel::active_isa());
            assert_eq!(info, KernelInfo::from(active));
        }
        check(kernel::variants_f32(), kernel_info_f32());
        check(kernel::variants_f64(), kernel_info_f64());
    }

    #[test]
    fn nominal_params_match_seed_engine_for_portable_tile() {
        let p = KernelParams::nominal(16, 4);
        assert_eq!((p.mr, p.nr, p.mc, p.nc, p.kc), (16, 4, 128, 128, 256));
    }
}
