//! Iterative refinement (Algorithm 1 part 2, §II/§III-C).
//!
//! After the mixed-precision factorization, the solution is recovered to
//! FP64 accuracy on the CPU:
//!
//! * the residual `r = b − A·x̃` is computed by **regenerating** `A` in FP64
//!   on the fly (the LCG jump-ahead property) — each diagonal-block owner
//!   streams its block-column `A(:,k)` through
//!   [`MatrixGen::gemv_cols`], which multiplies each L1-sized segment by
//!   `x(k)` as it is drawn, so no rank ever holds an FP64 copy of `A`; a
//!   single `Allreduce` sums the partial products (lines 38/43);
//! * the correction solves `L̃·Ũ·d = r` with distributed **fan-in**
//!   forward/backward substitution over the FP32 factors widened to FP64
//!   (`TRSV_LOW` / `TRSV_UP` on the CPU, line 47): the owner of each
//!   diagonal block collects partial sums from its row peers, solves its
//!   segment, and broadcasts it down the column so the column owners can
//!   push contributions to later (earlier, for backward) blocks;
//! * iteration stops when the paper's criterion holds (line 44):
//!   `‖r‖∞ < 8·N·ε·(2·‖diag(A)‖∞·‖x‖∞ + ‖b‖∞)`.
//!
//! [`refine`] is one loop over these sweeps on each rank, configured by
//! the same [`RunConfig`] as the factorization before it. It is not a
//! stepper and takes no checkpoints. HPL's closing solve reuses
//! `fan_in_solve` on its FP64 factors.

use crate::local::{LocalMat, LocalMatrix};
use crate::runtime::{CommScope, RankCtx, TagRange};
use crate::solve::RunConfig;
use crate::systems::SystemSpec;
use mxp_blas::{trsv, vec_inf_norm, Diag, Uplo};
use mxp_lcg::{MatrixGen, MatrixKind};

/// Result of the refinement phase on one rank.
#[derive(Clone, Debug)]
pub struct IrOutcome {
    /// The refined solution (replicated on every rank).
    pub x: Vec<f64>,
    /// Refinement iterations performed (residual evaluations).
    pub iters: usize,
    /// Whether the paper's line-44 criterion was met.
    pub converged: bool,
    /// Final `‖b − A·x‖∞`.
    pub residual_inf: f64,
    /// Final HPL-style scaled residual
    /// `‖r‖∞ / (ε·(‖A‖∞·‖x‖∞ + ‖b‖∞)·N)` (must be < 16 to pass).
    pub scaled_residual: f64,
    /// Simulated seconds spent in refinement.
    pub elapsed: f64,
}

/// Maximum refinement sweeps before declaring failure (the benchmark
/// typically converges in 3–5).
pub const MAX_IR_ITERS: usize = 50;

/// Runs distributed iterative refinement of the system `cfg` describes.
/// Requires the factored [`LocalMatrix`] from [`crate::factor::factor`]
/// (functional mode); `speed` is the host's speed multiplier.
///
/// Each sweep computes the residual, tests the stopping criterion and —
/// when not yet converged — runs the two fan-in solves plus the correction
/// update. Refinement takes no checkpoints: sweeps are cheap relative to
/// the factorization, so the recovery path re-runs IR from the factors.
pub fn refine(ctx: &mut RankCtx, cfg: &RunConfig, local: &LocalMatrix, speed: f64) -> IrOutcome {
    let t_start = ctx.now();
    let (sys, n, b) = (&cfg.sys, cfg.n, cfg.b);
    let n_b = n / b;
    let grid = *ctx.grid();
    let (my_r, my_c) = ctx.coords();
    let gen = MatrixGen::new(cfg.seed, n, MatrixKind::DiagDominant);

    // Contribution tags carry the *target* block index, one tag per block
    // per direction; the allocator keeps the two ranges disjoint from
    // every other claim in this context's lifetime.
    let fwd_tags = ctx.alloc_tags("ir-fanin-fwd", n_b as u32);
    let bwd_tags = ctx.alloc_tags("ir-fanin-bwd", n_b as u32);

    // Replicated right-hand side and initial guess x = b / diag(A).
    let mut b_vec = vec![0.0f64; n];
    gen.fill_rhs(0..n, &mut b_vec);
    let diag_norm = gen.diag_inf_norm();
    let mut x: Vec<f64> = b_vec.iter().map(|&v| v / gen.diag_value()).collect();
    let b_norm = vec_inf_norm(&b_vec);
    // Widened FP64 copies of the diagonal blocks this rank owns (for the
    // fan-in TRSVs), keyed by global block index.
    let diag_blocks = owned_diag_blocks(local, n_b);

    // Every work buffer is allocated once and reused across sweeps; the
    // only `Vec`s created inside a sweep are message payloads, whose
    // ownership moves into the comm layer. The vectors consumed by
    // Allreduce come back as the reduced result, so their capacity is
    // reclaimed for the next sweep. `A` itself has no buffer: the residual
    // streams it from the generator.
    let mut ax = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    let mut y_seg = vec![0.0f64; n]; // solved L-segments (owners only)
    let mut d_seg = vec![0.0f64; n]; // solved U-segments (owners only)
    let mut iters = 0;
    let mut converged = false;
    let mut residual_inf = f64::INFINITY;
    while iters < MAX_IR_ITERS {
        // ---- residual r = b - A·x via regenerated block columns ---------
        ax.fill(0.0);
        for k in 0..n_b {
            if grid.owner_of_block(k, k) != (my_r, my_c) {
                continue;
            }
            // ax += A(:, k-block) · x(k-block), with the block column
            // regenerated segment by segment and never stored; charged as
            // the regeneration plus the GEMV it fuses.
            ctx.charge((n * b) as f64 / sys.cpu.gen_rate / speed);
            let cols = k * b..(k + 1) * b;
            gen.gemv_cols(cols.clone(), &x[cols], &mut ax);
            ctx.charge(2.0 * (n * b) as f64 / sys.cpu.flop_rate / speed);
        }
        ctx.allreduce_f64(CommScope::World, &mut ax);
        for (ri, (bv, av)) in r.iter_mut().zip(b_vec.iter().zip(&ax)) {
            *ri = bv - av;
        }
        residual_inf = vec_inf_norm(&r);
        iters += 1;

        // ---- the paper's stopping criterion (line 44) --------------------
        let x_norm = vec_inf_norm(&x);
        let threshold = 8.0 * n as f64 * f64::EPSILON * (2.0 * diag_norm * x_norm + b_norm);
        if residual_inf < threshold {
            converged = true;
            break;
        }

        // ---- fan-in solves L̃·y = r, Ũ·d = y; d summed on every rank ------
        fan_in_solve(
            ctx,
            local,
            &diag_blocks,
            (fwd_tags, bwd_tags),
            &r,
            &mut y_seg,
            &mut d_seg,
            Some((sys.cpu.flop_rate, speed)),
        );

        // ---- x ← x + d ----------------------------------------------------
        for (xi, di) in x.iter_mut().zip(&d_seg) {
            *xi += di;
        }
    }

    let x_norm = vec_inf_norm(&x);
    // ‖A‖∞ upper bound: the dominant diagonal plus the off-diagonal row sum
    // bound (entries are U(-0.5, 0.5)).
    let a_norm = diag_norm + 0.5 * (n as f64 - 1.0);
    let scaled = residual_inf / (f64::EPSILON * (a_norm * x_norm + b_norm) * n as f64);
    IrOutcome {
        x,
        iters,
        converged,
        residual_inf,
        scaled_residual: scaled,
        elapsed: ctx.now() - t_start,
    }
}

/// The diagonal blocks this rank owns, widened to FP64 and keyed by global
/// block index in ascending order: the TRSV operands of [`fan_in_solve`].
pub(crate) fn owned_diag_blocks<T: Copy + Default + Into<f64>>(
    local: &LocalMat<T>,
    n_b: usize,
) -> Vec<(usize, Vec<f64>)> {
    (0..n_b)
        .filter(|&k| local.owns_block_row(k) && local.owns_block_col(k))
        .map(|k| {
            let b = local.b;
            let d = local.pack(local.row_of_block(k), b, local.col_of_block(k), b);
            (k, d.into_iter().map(Into::into).collect())
        })
        .collect()
}

/// Distributed fan-in triangular solves `L·y = rhs`, `U·x = y` over the
/// local LU factors `local` (FP32 for IR's correction, FP64 for HPL's
/// final solve).
///
/// The owner of each diagonal block collects partial sums from its row
/// peers, solves its segment, and broadcasts it down the column so the
/// column owners can push contributions to later (forward) or earlier
/// (backward) blocks. Contribution tags carry the *target* block index: a
/// rank owning several diagonal blocks may receive contributions for
/// different targets from the same sender, and FIFO order between them is
/// not guaranteed. Repeated solves can share tags because the world
/// Allreduce that ends each solve is a data-flow barrier and every message
/// is consumed within its solve.
///
/// `y` receives the solved forward segments this rank owns; `x` ends as the
/// replicated solution, summed over the world. `cpu` is the host
/// `(flop_rate, speed)` to charge the TRSVs and contributions at, or
/// `None` to charge no compute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_in_solve<T: Copy + Default + Into<f64>>(
    ctx: &mut RankCtx,
    local: &LocalMat<T>,
    diag_blocks: &[(usize, Vec<f64>)],
    (fwd_tags, bwd_tags): (TagRange, TagRange),
    rhs: &[f64],
    y: &mut [f64],
    x: &mut Vec<f64>,
    cpu: Option<(f64, f64)>,
) {
    sweep(ctx, local, diag_blocks, fwd_tags, cpu, true, rhs, y);
    sweep(ctx, local, diag_blocks, bwd_tags, cpu, false, y, x);
    ctx.allreduce_f64(CommScope::World, x);
}

/// One fan-in substitution: forward (unit lower, blocks ascending) or
/// backward (upper, blocks descending), writing this rank's solved
/// segments into `out` and zeros elsewhere.
#[allow(clippy::too_many_arguments)]
fn sweep<T: Copy + Default + Into<f64>>(
    ctx: &mut RankCtx,
    local: &LocalMat<T>,
    diag_blocks: &[(usize, Vec<f64>)],
    tags: TagRange,
    cpu: Option<(f64, f64)>,
    forward: bool,
    rhs: &[f64],
    out: &mut [f64],
) {
    let b = local.b;
    let n_b = rhs.len() / b;
    let grid = *ctx.grid();
    let (my_r, my_c) = ctx.coords();
    let (uplo, diag) = if forward {
        (Uplo::Lower, Diag::Unit)
    } else {
        (Uplo::Upper, Diag::NonUnit)
    };
    out.fill(0.0);
    for step in 0..n_b {
        let k = if forward { step } else { n_b - 1 - step };
        let (kr, kc) = grid.owner_of_block(k, k);
        if my_c != kc {
            continue; // only column-k owners participate in step k
        }
        // Blocks solved before k sent their contributions to k's TRSV;
        // k's own go out to the blocks solved after it.
        let (before, after) = if forward {
            (0..k, k + 1..n_b)
        } else {
            (k + 1..n_b, 0..k)
        };
        let solved = (my_r == kr).then(|| {
            let mut v: Vec<f64> = rhs[k * b..(k + 1) * b].to_vec();
            for j in before {
                let src = grid.rank_of(kr, j % grid.p_c);
                let got = ctx.recv_f64(src, tags.at(k));
                for (vi, ui) in v.iter_mut().zip(got) {
                    *vi -= ui;
                }
            }
            trsv(uplo, diag, b, diag_block(diag_blocks, k), b, &mut v);
            if let Some((rate, speed)) = cpu {
                ctx.charge((b * b) as f64 / rate / speed);
            }
            out[k * b..(k + 1) * b].copy_from_slice(&v);
            v
        });
        let v = ctx.bcast_f64(CommScope::Col, kr, solved, 8 * b as u64);
        // Push M(k', k)·v_k to the owner of each later-solved diagonal
        // block k' in this grid row.
        // Block columns of the local matrix are contiguous, so each j
        // contributes one widened axpy over a contiguous slice.
        let lc = local.col_of_block(k);
        for kp in after.filter(|kp| kp % grid.p_r == my_r) {
            let lr = local.row_of_block(kp);
            let mut u = vec![0.0f64; b];
            for (j, &vj) in v.iter().enumerate().take(b) {
                if vj != 0.0 {
                    let col = &local.data[local.idx(lr, lc + j)..][..b];
                    for (ui, &aij) in u.iter_mut().zip(col) {
                        *ui += aij.into() * vj;
                    }
                }
            }
            if let Some((rate, speed)) = cpu {
                ctx.charge(2.0 * (b * b) as f64 / rate / speed);
            }
            let dst = grid.rank_of(kp % grid.p_r, kp % grid.p_c);
            ctx.send_f64(dst, tags.at(kp), u);
        }
    }
}

/// Looks up an owned diagonal block by global block index. The block list
/// is built in ascending `k` order (a filtered `0..n_b` range), so the
/// lookup is a binary search instead of the old linear scan — `O(log n_b)`
/// per TRSV in the fan-in sweeps.
fn diag_block(blocks: &[(usize, Vec<f64>)], k: usize) -> &[f64] {
    debug_assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0));
    let i = blocks
        .binary_search_by_key(&k, |(kk, _)| *kk)
        .expect("owner holds its diagonal block");
    &blocks[i].1
}

/// Closed-form IR cost estimate for timing-mode runs (per sweep: block-
/// column regeneration + GEMV share, the Allreduce, and the fan-in solve).
pub fn ir_time_model(sys: &SystemSpec, n: usize, p_total: usize, iters: usize) -> f64 {
    let nf = n as f64;
    let per_rank_entries = nf * nf / p_total as f64;
    let regen = per_rank_entries / sys.cpu.gen_rate;
    let gemv = 2.0 * per_rank_entries / sys.cpu.flop_rate;
    let allreduce = 2.0 * 8.0 * nf / sys.net.effective_node_bw(1)
        + (p_total as f64).log2().ceil() * sys.net.nics.latency;
    iters as f64 * (regen + gemv + allreduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::factor;
    use crate::grid::ProcessGrid;
    use crate::solve::{run_with_backend, RunConfig};
    use crate::systems::testbed;

    fn solve_end_to_end(grid: ProcessGrid, n: usize, b: usize) -> Vec<IrOutcome> {
        let q = grid.gcds_per_node();
        let cfg = RunConfig::functional(testbed(grid.size() / q, q), grid, n, b)
            .seed(7)
            .build_or_panic();
        run_with_backend(&cfg, |ctx| {
            let out = factor(ctx, &cfg, 1.0);
            refine(ctx, &cfg, out.local.as_ref().unwrap(), 1.0)
        })
        .unwrap()
    }

    fn true_residual(n: usize, seed: u64, x: &[f64]) -> f64 {
        let gen = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
        let mut worst: f64 = 0.0;
        for i in 0..n {
            let mut acc = -gen.rhs(i);
            for (j, &xj) in x.iter().enumerate() {
                acc += gen.entry(i, j) * xj;
            }
            worst = worst.max(acc.abs());
        }
        worst
    }

    #[test]
    fn single_rank_converges_to_fp64() {
        let outs = solve_end_to_end(ProcessGrid::col_major(1, 1, 1), 64, 16);
        let o = &outs[0];
        assert!(o.converged, "IR did not converge: {o:?}");
        assert!(o.iters <= 10, "too many sweeps: {}", o.iters);
        assert!(
            o.scaled_residual < 16.0,
            "HPL-AI gate: {}",
            o.scaled_residual
        );
        // Independent residual check against the generator.
        let r = true_residual(64, 7, &o.x);
        assert!(r < 1e-9, "true residual {r}");
    }

    #[test]
    fn distributed_ir_matches_single_rank() {
        let single = solve_end_to_end(ProcessGrid::col_major(1, 1, 1), 48, 8);
        let dist = solve_end_to_end(ProcessGrid::col_major(2, 2, 2), 48, 8);
        // Same seed, same algorithm → identical solutions everywhere.
        for o in &dist {
            assert!(o.converged);
            for (a, bb) in o.x.iter().zip(&single[0].x) {
                assert!((a - bb).abs() < 1e-9, "{a} vs {bb}");
            }
        }
    }

    #[test]
    fn rectangular_grid_converges() {
        let outs = solve_end_to_end(ProcessGrid::col_major(2, 4, 8), 64, 8);
        for o in &outs {
            assert!(o.converged);
            assert!(o.scaled_residual < 16.0);
        }
        let r = true_residual(64, 7, &outs[0].x);
        assert!(r < 1e-9, "true residual {r}");
    }

    #[test]
    fn ir_converges_in_few_sweeps() {
        // Computationally "relatively inexpensive" (§II): a handful of
        // sweeps recovers FP64 accuracy.
        let outs = solve_end_to_end(ProcessGrid::col_major(2, 2, 4), 96, 16);
        assert!(outs[0].iters <= 8, "sweeps: {}", outs[0].iters);
    }

    #[test]
    fn time_model_scales() {
        let sys = testbed(2, 4);
        let small = ir_time_model(&sys, 1 << 12, 8, 3);
        let large = ir_time_model(&sys, 1 << 14, 8, 3);
        assert!(large > small);
        assert!(ir_time_model(&sys, 1 << 14, 32, 3) < large);
    }
}
