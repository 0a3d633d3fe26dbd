//! General matrix-matrix multiply, full-precision and mixed-precision.
//!
//! `gemm_mixed` is the heart of HPL-AI (§III-C): the trailing-matrix update
//! `A₂₂ ← A₂₂ − L₂₁·U₁₂` reads FP16 panels and accumulates in FP32, which is
//! what `cublasSgemmEx` / `rocblas_gemm_ex` execute on tensor cores. Both
//! entry points share one packed, register-blocked, rayon-parallel engine;
//! the reduced format is widened during packing — in bulk, through the SIMD
//! converters of `mxp_precision::simd` — so the inner kernel always runs on
//! the accumulator type.
//!
//! # Engine structure (DESIGN.md §9, §14)
//!
//! The engine is BLIS-shaped, parameterized by the [`KernelParams`] of the
//! dispatched table entry (register tile `mr × nr`, L2 block `mc`,
//! pinned k-slab `kc`) and by the dispatched micro-kernel (`kernel.rs` —
//! AVX2/AVX-512/NEON/portable). For each `kc`-deep slab of the `k`
//! dimension:
//!
//! 1. **Pack A once.** The whole `op(A)[:, l0..l0+kc]` slab is packed into
//!    `mr`-row micro-panels (zero-padded at the ragged edge), in parallel,
//!    and then shared **read-only** by every task. Contiguous source runs
//!    are converted in bulk (`copy_from_slice` / `LowPrec::widen_slice`).
//! 2. **Pack B once**, into `nr`-column micro-panels with `α` folded in, so
//!    the micro-kernel is a pure FMA sweep.
//! 3. **2D macro step.** C is cut into a `ti × tj` task grid chosen by
//!    [`gemm_task_grid`] from the flop count and
//!    `rayon::current_num_threads()`. Each task owns a disjoint C tile and
//!    runs the macro-kernel: `mc`-row blocks kept hot in L2, `nr`-wide B
//!    micro-panels hot in L1, the dispatched `mr × nr` register-tile
//!    micro-kernel innermost.
//!
//! β is folded into the first `kc` slab's store (overwrite for β = 0, plain
//! add for β = 1), so no separate pass over C happens unless `k == 0` or
//! `α = 0` reduce the call to a pure scaling.

use crate::kernel::{KernelVariant, MicroFn, MAX_MR, MAX_NR};
use crate::tune::{self, KernelParams, MAX_KC};
use mxp_precision::{LowPrec, Real};
use rayon::prelude::*;

/// Transposition selector for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// How many flops a parallel task must do per element it packs or touches.
///
/// A task that owns an `mc × nc` C tile touches `mc·kc` packed A elements,
/// `kc·nc` packed B elements and `mc·nc` C elements per slab, and performs
/// `2·mc·nc·kc` flops on them. Spawn/packing traffic is amortized once a
/// task does at least `PACK_AMORTIZE` flops per touched element; below
/// that, parallel dispatch loses to a serial sweep.
/// [`KernelParams::min_flops_per_task`] derives the floor from the resolved
/// blockings.
pub(crate) const PACK_AMORTIZE: usize = 16;

/// The per-task flop floor for element type `R`'s resolved blocking
/// parameters — shared by the TRSM/GEMV task-count derivations.
pub(crate) fn min_flops_per_task<R: Real>() -> f64 {
    tune::with_resolved::<R, _>(|v| v.params().min_flops_per_task())
}

/// Full-precision GEMM: `C ← α·op(A)·op(B) + β·C`.
///
/// `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`; all operands are
/// column-major with explicit leading dimensions.
///
/// ```
/// use mxp_blas::{gemm, Trans};
/// // C = A * B for 2x2 matrices stored column-major.
/// let a = [1.0f64, 3.0, 2.0, 4.0]; // [[1,2],[3,4]]
/// let b = [5.0f64, 7.0, 6.0, 8.0]; // [[5,6],[7,8]]
/// let mut c = [0.0f64; 4];
/// gemm(Trans::No, Trans::No, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
/// assert_eq!(c, [19.0, 43.0, 22.0, 50.0]);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn gemm<R: Real>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: R,
    a: &[R],
    lda: usize,
    b: &[R],
    ldb: usize,
    beta: R,
    c: &mut [R],
    ldc: usize,
) {
    tune::with_resolved::<R, _>(|v| {
        gemm_impl(
            v.micro,
            v.params(),
            false,
            transa,
            transb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            |s: &[R], d: &mut [R]| d.copy_from_slice(s),
            b,
            ldb,
            |s: &[R], d: &mut [R]| d.copy_from_slice(s),
            beta,
            c,
            ldc,
        )
    });
}

/// Mixed-precision GEMM: `C ← α·op(A)·op(B) + β·C` with `A`, `B` stored in a
/// reduced format (`F16`, `B16`, or `f32`) and `C` accumulated in `f32`.
///
/// Matches the tensor-core contract of `cublasSgemmEx(CUDA_R_16F, …,
/// CUDA_R_32F)`: each reduced input is widened exactly to f32 during
/// packing — through the bulk SIMD converters, which are bitwise identical
/// to the scalar `to_f32` loop — and products and sums are full f32
/// operations, so the result is bit-identical to [`gemm`] on pre-widened
/// operands.
#[allow(clippy::too_many_arguments)]
pub fn gemm_mixed<L: LowPrec>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[L],
    lda: usize,
    b: &[L],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    tune::with_resolved::<f32, _>(|v| {
        gemm_impl(
            v.micro,
            v.params(),
            false,
            transa,
            transb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            |s: &[L], d: &mut [f32]| L::widen_slice(s, d),
            b,
            ldb,
            |s: &[L], d: &mut [f32]| L::widen_slice(s, d),
            beta,
            c,
            ldc,
        )
    });
}

/// Runs the packed engine with an explicit kernel variant and parameter
/// set, bypassing the process-wide resolution — the hook the SIMD
/// differential suite drives. `serial` forces the whole
/// call onto the calling thread (no rayon dispatch).
///
/// Not part of the stable API.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_variant<R: Real>(
    variant: &KernelVariant<R>,
    params: &KernelParams,
    serial: bool,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: R,
    a: &[R],
    lda: usize,
    b: &[R],
    ldb: usize,
    beta: R,
    c: &mut [R],
    ldc: usize,
) {
    assert_eq!(
        (params.mr, params.nr),
        (variant.mr, variant.nr),
        "params tile shape does not match variant {}",
        variant.name
    );
    gemm_impl(
        variant.micro(),
        *params,
        serial,
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        |s: &[R], d: &mut [R]| d.copy_from_slice(s),
        b,
        ldb,
        |s: &[R], d: &mut [R]| d.copy_from_slice(s),
        beta,
        c,
        ldc,
    );
}

/// The `(row_tasks, col_tasks)` grid the engine will decompose an
/// `m × n × k` GEMM into, given the current rayon pool width and the
/// resolved f32 blocking parameters.
///
/// The task count is `min(threads, flops / min_flops_per_task)`, capped by
/// the number of `mr`-row / `nr`-column micro-panels, and factored so task
/// tiles stay as square as possible — a tall-skinny product (`m ≫ n`)
/// splits along rows, a wide one along columns. `(1, 1)` means the call
/// runs serially.
pub fn gemm_task_grid(m: usize, n: usize, k: usize) -> (usize, usize) {
    let params = tune::with_resolved::<f32, _>(|v| v.params());
    task_grid(m, n, k, &params, rayon::current_num_threads())
}

/// [`gemm_task_grid`] for an explicit parameter set and pool width (what
/// the engine itself uses, with `R`'s resolved params).
fn task_grid(m: usize, n: usize, k: usize, p: &KernelParams, threads: usize) -> (usize, usize) {
    if m == 0 || n == 0 || k == 0 {
        return (1, 1);
    }
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let by_flops = (flops / p.min_flops_per_task()).floor() as usize;
    let tasks = threads.min(by_flops).max(1);
    let mi = m.div_ceil(p.mr);
    let nj = n.div_ceil(p.nr);
    let mut best = (1usize, 1usize);
    let mut best_score = (0usize, f64::INFINITY);
    for ti in 1..=tasks {
        let tj = (tasks / ti).min(nj);
        let ti = ti.min(mi);
        if ti * tj == 0 {
            continue;
        }
        // Prefer maximal parallelism, then the most square C tiles (least
        // packed-panel re-reading per task).
        let aspect = {
            let th = m as f64 / ti as f64;
            let tw = n as f64 / tj as f64;
            (th / tw).max(tw / th)
        };
        let score = (ti * tj, aspect);
        if score.0 > best_score.0 || (score.0 == best_score.0 && score.1 < best_score.1) {
            best_score = score;
            best = (ti, tj);
        }
    }
    best
}

/// Raw pointer wrapper so disjoint tiles of one buffer can be written from
/// parallel tasks (also used by the TRSM row-block split). Safety rests on
/// the caller's partitioning: no element may be touched by two tasks.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than `.0`) keeps
    /// edition-2021 closures capturing the `SendPtr` itself — field-precise
    /// capture of the bare `*mut T` would lose the `Send + Sync` impls.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// How the micro-kernel result is committed to C.
#[derive(Clone, Copy)]
enum Store<R> {
    /// `C = acc` (β = 0 on the first slab: overwrites NaN per BLAS rules).
    Overwrite,
    /// `C += acc` (β = 1, or any slab after the first).
    Add,
    /// `C = β·C + acc` (general β folded into the first slab).
    Scale(R),
}

#[allow(clippy::too_many_arguments)]
fn gemm_impl<S, R, WA, WB>(
    micro: MicroFn<R>,
    params: KernelParams,
    force_serial: bool,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: R,
    a: &[S],
    lda: usize,
    wa: WA,
    b: &[S],
    ldb: usize,
    wb: WB,
    beta: R,
    c: &mut [R],
    ldc: usize,
) where
    S: Copy + Sync,
    R: Real,
    WA: Fn(&[S], &mut [R]) + Sync,
    WB: Fn(&[S], &mut [R]) + Sync,
{
    let (mr, nr) = (params.mr, params.nr);
    assert!(
        mr <= MAX_MR && nr <= MAX_NR && params.kc >= 1 && params.kc <= MAX_KC,
        "kernel params out of engine bounds: {params:?}"
    );
    check_operand("A", transa, m, k, lda, a.len());
    check_operand("B", transb, k, n, ldb, b.len());
    assert!(ldc >= m.max(1), "ldc {ldc} < m {m}");
    if n > 0 {
        assert!(
            c.len() >= ldc * (n - 1) + m,
            "C buffer too small: {} < {}",
            c.len(),
            ldc * (n - 1) + m
        );
    }
    if m == 0 || n == 0 {
        return;
    }

    if k == 0 || alpha == R::ZERO {
        // Nothing to accumulate: the call degenerates to C ← β·C. The β
        // branch is hoisted out of the element loop, and β = 1 skips the
        // pass entirely.
        if beta == R::ZERO {
            for j in 0..n {
                c[j * ldc..j * ldc + m].fill(R::ZERO);
            }
        } else if beta != R::ONE {
            for j in 0..n {
                for x in &mut c[j * ldc..j * ldc + m] {
                    *x *= beta;
                }
            }
        }
        return;
    }

    // Packed slabs, zero-padded to whole micro-panels, drawn from the
    // thread-local scratch arena (the pack loops below fully overwrite
    // every element — including the padding lanes — so the unspecified
    // contents of `take` are safe) and reused across k-slabs *and* across
    // GEMM calls. The arena base is 64-byte aligned and every SIMD
    // variant's `mr` keeps panel rows on 64-byte boundaries, which is what
    // licenses the aligned A-loads inside the dispatched micro-kernel.
    let mp = m.div_ceil(mr) * mr;
    let np = n.div_ceil(nr) * nr;
    let kcap = params.kc.min(k);
    let mut apack = crate::scratch::take::<R>(mp * kcap);
    let mut bpack = crate::scratch::take::<R>(np * kcap);

    let (ti, tj) = if force_serial {
        (1, 1)
    } else {
        task_grid(m, n, k, &params, rayon::current_num_threads())
    };
    let parallel = ti * tj > 1;

    let mut l0 = 0;
    while l0 < k {
        let kc = params.kc.min(k - l0);

        // 1. Pack op(A)[:, l0..l0+kc] into mr-row micro-panels, once,
        //    shared read-only by every task below. Both orientations
        //    convert contiguous source runs in bulk: columns of A for
        //    Trans::No, rows (k-runs) for Trans::Yes via a stack staging
        //    buffer.
        let pack_a_panel = |p: usize, panel: &mut [R]| {
            let i0 = p * mr;
            let rows = mr.min(m - i0);
            match transa {
                Trans::No => {
                    for l in 0..kc {
                        let dst = &mut panel[l * mr..(l + 1) * mr];
                        let start = (l0 + l) * lda + i0;
                        wa(&a[start..start + rows], &mut dst[..rows]);
                        for d in &mut dst[rows..] {
                            *d = R::ZERO;
                        }
                    }
                }
                Trans::Yes => {
                    let mut tmp = [R::ZERO; MAX_KC];
                    for i in 0..rows {
                        let start = (i0 + i) * lda + l0;
                        wa(&a[start..start + kc], &mut tmp[..kc]);
                        for (l, &v) in tmp[..kc].iter().enumerate() {
                            panel[l * mr + i] = v;
                        }
                    }
                    for l in 0..kc {
                        for d in &mut panel[l * mr + rows..(l + 1) * mr] {
                            *d = R::ZERO;
                        }
                    }
                }
            }
        };
        // 2. Pack op(B)[l0..l0+kc, :] into nr-column micro-panels with α
        //    folded in, so the micro-kernel is a pure FMA. Contiguous
        //    source runs (B columns for Trans::No via a stack staging
        //    buffer, B rows for Trans::Yes directly) convert in bulk; α is
        //    folded afterwards — the same widen-then-multiply order per
        //    element as the old scalar pack, so results are unchanged.
        let pack_b_panel = |q: usize, panel: &mut [R]| {
            let j0 = q * nr;
            let cols = nr.min(n - j0);
            match transb {
                Trans::No => {
                    let mut tmp = [R::ZERO; MAX_KC];
                    for j in 0..cols {
                        let start = (j0 + j) * ldb + l0;
                        wb(&b[start..start + kc], &mut tmp[..kc]);
                        for (l, &v) in tmp[..kc].iter().enumerate() {
                            panel[l * nr + j] = v * alpha;
                        }
                    }
                    if cols < nr {
                        for l in 0..kc {
                            for d in &mut panel[l * nr + cols..(l + 1) * nr] {
                                *d = R::ZERO;
                            }
                        }
                    }
                }
                Trans::Yes => {
                    for l in 0..kc {
                        let dst = &mut panel[l * nr..(l + 1) * nr];
                        let start = (l0 + l) * ldb + j0;
                        wb(&b[start..start + cols], &mut dst[..cols]);
                        for d in &mut dst[..cols] {
                            *d *= alpha;
                        }
                        for d in &mut dst[cols..] {
                            *d = R::ZERO;
                        }
                    }
                }
            }
        };
        if parallel {
            apack[..mp * kc]
                .par_chunks_mut(mr * kc)
                .enumerate()
                .for_each(|(p, panel)| pack_a_panel(p, panel));
            bpack[..np * kc]
                .par_chunks_mut(nr * kc)
                .enumerate()
                .for_each(|(q, panel)| pack_b_panel(q, panel));
        } else {
            for (p, panel) in apack[..mp * kc].chunks_mut(mr * kc).enumerate() {
                pack_a_panel(p, panel);
            }
            for (q, panel) in bpack[..np * kc].chunks_mut(nr * kc).enumerate() {
                pack_b_panel(q, panel);
            }
        }

        // β is folded into the first slab's store; later slabs accumulate.
        let store = if l0 == 0 {
            if beta == R::ZERO {
                Store::Overwrite
            } else if beta == R::ONE {
                Store::Add
            } else {
                Store::Scale(beta)
            }
        } else {
            Store::Add
        };

        // 3. Macro step over the ti × tj task grid of disjoint C tiles.
        let apack = &apack[..mp * kc];
        let bpack = &bpack[..np * kc];
        let cptr = SendPtr(c.as_mut_ptr());
        let macro_task = |t: usize| {
            let (tr, tc) = (t / tj, t % tj);
            // Whole micro-panels per task, remainders spread to the front.
            let (r0, r1) = split_range(m.div_ceil(mr), ti, tr);
            let (q0, q1) = split_range(n.div_ceil(nr), tj, tc);
            macro_kernel(
                micro, &params, kc, apack, bpack, cptr, ldc, m, n, r0, r1, q0, q1, store,
            );
        };
        if parallel {
            (0..ti * tj).into_par_iter().for_each(macro_task);
        } else {
            macro_task(0);
        }

        l0 += kc;
    }
}

/// Splits `total` micro-panels into `parts` near-even contiguous ranges and
/// returns the half-open range of part `idx`.
fn split_range(total: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = total / parts;
    let extra = total % parts;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    (start, start + len)
}

/// Macro-kernel over one task's tile: rows `r0..r1` (in `mr` panels) ×
/// columns `q0..q1` (in `nr` panels) of C, against the shared packed slabs.
/// `mc`-row blocks of packed A stay hot in L2 while all of the task's B
/// micro-panels stream through L1; the dispatched micro-kernel computes
/// each register tile into a stack-resident accumulator.
///
/// C is addressed through a raw base pointer because concurrent tasks hold
/// tiles of the same allocation; the task grid guarantees the panel ranges
/// — and therefore every element written — are disjoint across tasks.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<R: Real>(
    micro: MicroFn<R>,
    params: &KernelParams,
    kc: usize,
    apack: &[R],
    bpack: &[R],
    c: SendPtr<R>,
    ldc: usize,
    m: usize,
    n: usize,
    r0: usize,
    r1: usize,
    q0: usize,
    q1: usize,
    store: Store<R>,
) {
    let (mr, nr) = (params.mr, params.nr);
    let mc_panels = (params.mc / mr).max(1);
    let mut acc = [R::ZERO; MAX_MR * MAX_NR];
    let acc = &mut acc[..mr * nr];
    let mut rb = r0;
    while rb < r1 {
        let rb_end = (rb + mc_panels).min(r1);
        for q in q0..q1 {
            let j0 = q * nr;
            let nr_eff = nr.min(n - j0);
            let bp = &bpack[q * nr * kc..(q + 1) * nr * kc];
            for p in rb..rb_end {
                let i0 = p * mr;
                let mr_eff = mr.min(m - i0);
                let ap = &apack[p * mr * kc..(p + 1) * mr * kc];
                // SAFETY: ap holds kc×mr elements, bp kc×nr, acc mr×nr.
                // ap sits at offset p·mr·kc into the 64-byte-aligned arena
                // slab; every SIMD variant keeps mr·size_of::<R>() a
                // multiple of 64, so the kernel's aligned A-loads are
                // legal. The variant's ISA was verified at dispatch.
                unsafe { micro(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) };
                // SAFETY: (i0, j0) lies inside this task's disjoint panel
                // range and `c` outlives the scoped worker threads.
                unsafe { store_tile(acc, mr, c, ldc, i0, j0, mr_eff, nr_eff, store) };
            }
        }
        rb = rb_end;
    }
}

/// Commits an accumulator tile (column-major, stride `mr`) to C, applying
/// the slab's β mode. Ragged edges (`mr_eff < mr`, `nr_eff < nr`) store
/// only the valid sub-tile; the zero-padded pack rows/columns guarantee the
/// padded lanes hold zero.
///
/// # Safety
///
/// `c` must point to a live column-major buffer of stride `ldc` covering
/// the `(i0..i0+mr_eff) × (j0..j0+nr_eff)` tile, and no other thread may
/// concurrently access that tile (the task grid enforces this).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn store_tile<R: Real>(
    acc: &[R],
    mr: usize,
    c: SendPtr<R>,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    store: Store<R>,
) {
    for j in 0..nr_eff {
        let col = &acc[j * mr..j * mr + mr_eff];
        let colp = c.0.add((j0 + j) * ldc + i0);
        match store {
            Store::Overwrite => {
                for (i, &v) in col.iter().enumerate() {
                    *colp.add(i) = v;
                }
            }
            Store::Add => {
                for (i, &v) in col.iter().enumerate() {
                    *colp.add(i) += v;
                }
            }
            Store::Scale(beta) => {
                for (i, &v) in col.iter().enumerate() {
                    *colp.add(i) = *colp.add(i) * beta + v;
                }
            }
        }
    }
}

fn check_operand(name: &str, trans: Trans, rows_op: usize, cols_op: usize, ld: usize, len: usize) {
    // Stored shape is rows_op×cols_op for Trans::No, cols_op×rows_op else.
    let (sr, sc) = match trans {
        Trans::No => (rows_op, cols_op),
        Trans::Yes => (cols_op, rows_op),
    };
    assert!(ld >= sr.max(1), "ld{name} {ld} < stored rows {sr}");
    if sr > 0 && sc > 0 {
        assert!(
            len >= ld * (sc - 1) + sr,
            "{name} buffer too small: {len} < {}",
            ld * (sc - 1) + sr
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;
    use mxp_precision::F16;

    /// Reference GEMM accumulating each element over `l` ascending with
    /// fma, like one k-slab of the engine would.
    #[allow(clippy::too_many_arguments)]
    fn naive<R: Real>(
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: R,
        a: &Mat<R>,
        b: &Mat<R>,
        beta: R,
        c: &mut Mat<R>,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut acc = R::ZERO;
                for l in 0..k {
                    let av = match ta {
                        Trans::No => a[(i, l)],
                        Trans::Yes => a[(l, i)],
                    };
                    let bv = match tb {
                        Trans::No => b[(l, j)],
                        Trans::Yes => b[(j, l)],
                    };
                    acc = av.mul_add(bv * alpha, acc);
                }
                let prev = c[(i, j)];
                c[(i, j)] = if beta == R::ZERO {
                    acc
                } else {
                    prev * beta + acc
                };
            }
        }
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut s = seed;
        Mat::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / 9.007199254740992e15) - 0.5
        })
    }

    fn assert_close(a: &Mat<f64>, b: &Mat<f64>, tol: f64) {
        let d = a.max_abs_diff(b);
        assert!(d <= tol, "max diff {d} > {tol}");
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        let (m, n, k) = (23, 17, 31);
        for &ta in &[Trans::No, Trans::Yes] {
            for &tb in &[Trans::No, Trans::Yes] {
                let a = match ta {
                    Trans::No => rand_mat(m, k, 1),
                    Trans::Yes => rand_mat(k, m, 1),
                };
                let b = match tb {
                    Trans::No => rand_mat(k, n, 2),
                    Trans::Yes => rand_mat(n, k, 2),
                };
                let mut c = rand_mat(m, n, 3);
                let mut cref = c.clone();
                naive(ta, tb, m, n, k, 0.5, &a, &b, 0.25, &mut cref);
                gemm(
                    ta,
                    tb,
                    m,
                    n,
                    k,
                    0.5,
                    a.as_slice(),
                    a.lda(),
                    b.as_slice(),
                    b.lda(),
                    0.25,
                    c.as_mut_slice(),
                    m,
                );
                assert_close(&c, &cref, 1e-13);
            }
        }
    }

    #[test]
    fn blocked_path_matches_naive() {
        // Dimensions chosen to exercise multiple MC/KC blocks, ragged
        // micro-panel edges, and (thread count permitting) the task grid.
        let (m, n, k) = (300, 260, 530);
        let a = rand_mat(m, k, 10);
        let b = rand_mat(k, n, 20);
        let mut c = rand_mat(m, n, 30);
        let mut cref = c.clone();
        naive(Trans::No, Trans::No, m, n, k, 1.0, &a, &b, 1.0, &mut cref);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.lda(),
            b.as_slice(),
            b.lda(),
            1.0,
            c.as_mut_slice(),
            m,
        );
        // Different k-slab summation order => tolerance, not equality.
        assert_close(&c, &cref, 1e-11);
    }

    #[test]
    fn respects_lda_padding() {
        let (m, n, k) = (5, 4, 6);
        let mut a = Mat::<f64>::zeros_lda(m, k, 9);
        let mut b = Mat::<f64>::zeros_lda(k, n, 11);
        for j in 0..k {
            for i in 0..m {
                a[(i, j)] = (i + 2 * j) as f64;
            }
        }
        for j in 0..n {
            for i in 0..k {
                b[(i, j)] = (3 * i + j) as f64;
            }
        }
        let mut c = Mat::<f64>::zeros_lda(m, n, 7);
        let ldc = c.lda();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.lda(),
            b.as_slice(),
            b.lda(),
            0.0,
            c.as_mut_slice(),
            ldc,
        );
        // Check one entry by hand.
        let mut expect = 0.0;
        for l in 0..k {
            expect += a[(2, l)] * b[(l, 3)];
        }
        assert_eq!(c[(2, 3)], expect);
    }

    #[test]
    fn beta_zero_overwrites_nan_free() {
        // β = 0 must overwrite even if C previously held NaN (BLAS rule).
        let (m, n, k) = (2, 2, 2);
        let a = Mat::<f64>::identity(2);
        let b = Mat::<f64>::identity(2);
        let mut c = Mat::from_fn(2, 2, |_, _| f64::NAN);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            2,
            b.as_slice(),
            2,
            0.0,
            c.as_mut_slice(),
            2,
        );
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(1, 0)], 0.0);
    }

    #[test]
    fn k_zero_is_beta_scale() {
        let mut c = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let a: [f64; 0] = [];
        let b: [f64; 0] = [];
        gemm(
            Trans::No,
            Trans::No,
            3,
            3,
            0,
            1.0,
            &a,
            3,
            &b,
            1,
            2.0,
            c.as_mut_slice(),
            3,
        );
        assert_eq!(c[(1, 2)], 6.0);
    }

    #[test]
    fn alpha_zero_is_beta_scale() {
        let a = rand_mat(4, 4, 1);
        let b = rand_mat(4, 4, 2);
        let mut c = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let expect = Mat::from_fn(4, 4, |i, j| 0.5 * (i * 4 + j) as f64);
        gemm(
            Trans::No,
            Trans::No,
            4,
            4,
            4,
            0.0,
            a.as_slice(),
            4,
            b.as_slice(),
            4,
            0.5,
            c.as_mut_slice(),
            4,
        );
        assert_close(&c, &expect, 0.0);
    }

    #[test]
    fn mixed_f16_matches_widened_f32_gemm() {
        // gemm_mixed on f16 data must equal gemm::<f32> on the pre-widened
        // data bit for bit (same kernel, same order, and the SIMD
        // convert-on-pack is bitwise identical to scalar to_f32).
        let (m, n, k) = (37, 29, 41);
        let src = rand_mat(m, k, 5);
        let a16: Vec<F16> = src.as_slice().iter().map(|&x| F16::from_f64(x)).collect();
        let srcb = rand_mat(k, n, 6);
        let b16: Vec<F16> = srcb.as_slice().iter().map(|&x| F16::from_f64(x)).collect();
        let a32: Vec<f32> = a16.iter().map(|x| x.to_f32()).collect();
        let b32: Vec<f32> = b16.iter().map(|x| x.to_f32()).collect();

        let mut c_mixed = vec![0.1f32; m * n];
        let mut c_full = c_mixed.clone();
        gemm_mixed(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            -1.0,
            &a16,
            m,
            &b16,
            k,
            1.0,
            &mut c_mixed,
            m,
        );
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            -1.0f32,
            &a32,
            m,
            &b32,
            k,
            1.0,
            &mut c_full,
            m,
        );
        assert_eq!(c_mixed, c_full);
    }

    #[test]
    fn mixed_precision_loss_is_bounded() {
        // The f16-rounded product must stay within the standard forward
        // error bound  |C16 - C64| <= k * u16 * |A||B| (loosely applied).
        let (m, n, k) = (16, 16, 64);
        let a = rand_mat(m, k, 7);
        let b = rand_mat(k, n, 8);
        let a16: Vec<F16> = a.as_slice().iter().map(|&x| F16::from_f64(x)).collect();
        let b16: Vec<F16> = b.as_slice().iter().map(|&x| F16::from_f64(x)).collect();
        let mut c16 = vec![0.0f32; m * n];
        gemm_mixed(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a16,
            m,
            &b16,
            k,
            0.0,
            &mut c16,
            m,
        );
        let mut c64 = Mat::<f64>::zeros(m, n);
        naive(Trans::No, Trans::No, m, n, k, 1.0, &a, &b, 0.0, &mut c64);
        let bound = k as f64 * mxp_precision::F16_EPS * 0.25 * 4.0; // |a|,|b| <= 0.5
        for j in 0..n {
            for i in 0..m {
                let d = (c16[j * m + i] as f64 - c64[(i, j)]).abs();
                assert!(d <= bound, "({i},{j}): diff {d} > {bound}");
            }
        }
    }

    #[test]
    fn trans_equals_manual_transpose() {
        let (m, n, k) = (19, 13, 22);
        let at = rand_mat(k, m, 40); // stored transposed
        let a = Mat::from_fn(m, k, |i, j| at[(j, i)]);
        let b = rand_mat(k, n, 41);
        let mut c1 = Mat::<f64>::zeros(m, n);
        let mut c2 = Mat::<f64>::zeros(m, n);
        gemm(
            Trans::Yes,
            Trans::No,
            m,
            n,
            k,
            1.0,
            at.as_slice(),
            at.lda(),
            b.as_slice(),
            b.lda(),
            0.0,
            c1.as_mut_slice(),
            m,
        );
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.lda(),
            b.as_slice(),
            b.lda(),
            0.0,
            c2.as_mut_slice(),
            m,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn task_grid_splits_tall_skinny() {
        // With ≥2 workers the tall-skinny trailing-update shape must split
        // along rows — the old engine's n-only chunking left it serial.
        // The pool width is passed explicitly: other tests set
        // RAYON_NUM_THREADS concurrently.
        let params = tune::with_resolved::<f32, _>(|v| v.params());
        let (ti, tj) = task_grid(4096, 128, 4096, &params, 4);
        assert!(ti * tj >= 2, "tall-skinny grid {ti}x{tj} did not split");
        assert!(ti >= 2, "expected a row split, got {ti}x{tj}");
    }

    #[test]
    fn task_grid_serial_below_flop_floor() {
        let params = tune::with_resolved::<f32, _>(|v| v.params());
        let grid = task_grid(32, 32, 32, &params, 4);
        assert_eq!(grid, (1, 1), "tiny GEMM must not pay parallel dispatch");
    }

    #[test]
    fn dispatched_engine_matches_portable_variant() {
        // Engine-level spot check of the bitwise invariant (the exhaustive
        // sweep lives in tests/simd_differential.rs): the resolved kernel
        // must agree bit-for-bit with the forced portable engine.
        let (m, n, k) = (151, 77, 300);
        let a = rand_mat(m, k, 61);
        let b = rand_mat(k, n, 62);
        let a32: Vec<f32> = a.as_slice().iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.as_slice().iter().map(|&x| x as f32).collect();
        let mut c_dispatched = vec![0.25f32; m * n];
        let mut c_portable = c_dispatched.clone();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.5f32,
            &a32,
            m,
            &b32,
            k,
            0.5,
            &mut c_dispatched,
            m,
        );
        let portable = crate::kernel::variants_f32()
            .iter()
            .find(|v| v.isa == crate::kernel::Isa::Portable)
            .unwrap();
        let params = KernelParams::nominal(portable.mr, portable.nr);
        gemm_with_variant(
            portable,
            &params,
            true,
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.5f32,
            &a32,
            m,
            &b32,
            k,
            0.5,
            &mut c_portable,
            m,
        );
        let da: Vec<u32> = c_dispatched.iter().map(|x| x.to_bits()).collect();
        let db: Vec<u32> = c_portable.iter().map(|x| x.to_bits()).collect();
        assert_eq!(da, db, "dispatched engine diverged from portable");
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn undersized_a_panics() {
        let a = vec![0.0f64; 5];
        let b = vec![0.0f64; 9];
        let mut c = vec![0.0f64; 9];
        gemm(
            Trans::No,
            Trans::No,
            3,
            3,
            3,
            1.0,
            &a,
            3,
            &b,
            3,
            0.0,
            &mut c,
            3,
        );
    }
}
