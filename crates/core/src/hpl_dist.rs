//! Distributed functional HPL: the [`Hpl`] policy of the one factorization
//! stepper ([`crate::factor::Factorization`]) — FP64 right-looking LU
//! **with partial pivoting** over the same grid/runtime substrate as
//! HPL-MxP.
//!
//! This is the baseline the paper compares against (§I "9.5× HPL"),
//! implemented for real rather than only as a cost model: per column the
//! process column performs a distributed IAMAX (allreduce-max), the two
//! owner ranks exchange the pivot rows, the pivot row is broadcast down the
//! column for the rank-1 panel update, swaps are applied to the remainder
//! of the matrix row-pair by row-pair, and the trailing update runs in
//! FP64. Unlike HPL-MxP, no conditioning assumption is needed — the tests
//! run it on uniform random matrices where the unpivoted factorization
//! suffers catastrophic growth. The stepper runs it with blocking library
//! broadcasts and no look-ahead.
//!
//! The closing solve is iterative refinement's: [`crate::ir`]'s distributed
//! fan-in forward and backward substitution, run once on the FP64 factors
//! after the pivots are applied to the right-hand side. Unlike IR it
//! charges no simulated compute, and neither does the residual check, so
//! [`HplDistOutcome::elapsed`] holds their communication but not their
//! arithmetic.
//!
//! All communication goes through [`RankCtx`]: pivot selection is
//! [`RankCtx::allreduce_max_by`], row exchanges draw their tags from named
//! [`TagRange`]s, and every operation lands in the context's
//! [`crate::runtime::CommTrace`].

use crate::checkpoint::{self, Snapshot, SnapshotError, SnapshotHeader, DRIVER_HPL};
use crate::factor::{sealed, At, Core, Factorization, IterRecord, Policy, Window};
use crate::grid::ProcessGrid;
use crate::ir::{fan_in_solve, owned_diag_blocks};
use crate::local::LocalMat;
use crate::msg::PanelData;
use crate::runtime::{CommScope, RankCtx, TagRange};
use crate::systems::SystemSpec;
use mxp_blas::{gemm, trsm, vec_inf_norm, Diag, Side, Trans, Uplo};
use mxp_lcg::{MatrixGen, MatrixKind};

/// Result of a distributed HPL solve on one rank.
#[derive(Clone, Debug)]
pub struct HplDistOutcome {
    /// The solution (replicated on every rank).
    pub x: Vec<f64>,
    /// HPL scaled residual `‖b−Ax‖∞ / (ε·(‖A‖∞·‖x‖∞+‖b‖∞)·N)`; passes < 16.
    pub scaled_residual: f64,
    /// Number of genuine row interchanges performed.
    pub swaps: usize,
    /// The full pivot record: `ipiv[j]` is the global row swapped with row
    /// `j` at elimination step `j` (replicated on every rank).
    pub ipiv: Vec<usize>,
    /// Simulated seconds.
    pub elapsed: f64,
}

/// Runs the distributed pivoted FP64 factorization and solve.
///
/// `kind` selects the matrix class: [`MatrixKind::Uniform`] exercises real
/// pivoting (the diagonally dominant class never swaps).
#[allow(clippy::too_many_arguments)]
pub fn hpl_dist_solve(
    ctx: &mut RankCtx,
    sys: &SystemSpec,
    n: usize,
    b: usize,
    seed: u64,
    kind: MatrixKind,
    speed: f64,
) -> HplDistOutcome {
    let state = HplDistState::new(ctx, sys, n, b, seed, kind, speed);
    crate::solve::step_until_done(ctx, state, None).0
}

/// The snapshot header a checkpointed distributed-HPL run stamps on its
/// snapshots (driver [`DRIVER_HPL`], functional fidelity, `k = 0`).
pub fn hpl_snapshot_header(
    grid: &ProcessGrid,
    n: usize,
    b: usize,
    seed: u64,
    kind: MatrixKind,
) -> SnapshotHeader {
    SnapshotHeader {
        driver: DRIVER_HPL,
        fidelity: 0,
        k: 0,
        n: n as u64,
        b: b as u64,
        p_r: grid.p_r as u64,
        p_c: grid.p_c as u64,
        ranks: grid.size() as u64,
        seed,
        config_tag: checkpoint::fnv1a(format!("{kind:?}").as_bytes()),
    }
}

/// The resumable-stepper form of [`hpl_dist_solve`]: one step eliminates
/// one block column (pivoted panel, swap application, TRSM, panel
/// broadcasts, FP64 trailing update), and finishing runs IR's fan-in solve
/// plus the residual check. Nothing is in flight at a panel boundary, so a
/// snapshot section is the start-of-run clock, the pivot record so far,
/// and this rank's FP64 tiles.
pub type HplDistState<'a> = Factorization<'a, Hpl>;

/// HPL: FP64 storage and GEMM, a pivoted panel, and a closing fan-in
/// solve with the residual check.
pub struct Hpl {
    gen: MatrixGen,
    panel_swap: TagRange,
    trail_swap: TagRange,
    fan_in: (TagRange, TagRange),
}

impl sealed::Sealed for Hpl {}

impl<'a> Factorization<'a, Hpl> {
    /// Materializes the local FP64 tiles and synchronizes the start clock.
    pub fn new(
        ctx: &mut RankCtx,
        sys: &'a SystemSpec,
        n: usize,
        b: usize,
        seed: u64,
        kind: MatrixKind,
        speed: f64,
    ) -> Self {
        let mut st = Self::blank(ctx, sys, MatrixGen::new(seed, n, kind), b, speed);
        let mut local = LocalMat::new(ctx.grid(), ctx.coords(), n, b);
        local.fill_from(&st.policy.gen);
        st.core.local = Some(local);
        st.start(ctx)
    }

    /// Rebuilds a rank's state from a checkpoint section, restoring its
    /// simulated clock to the snapshot's value exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        ctx: &mut RankCtx,
        sys: &'a SystemSpec,
        n: usize,
        b: usize,
        seed: u64,
        kind: MatrixKind,
        speed: f64,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        let expect = hpl_snapshot_header(ctx.grid(), n, b, seed, kind);
        if let Some(field) = checkpoint::header_mismatch(&snap.header, &expect) {
            return Err(SnapshotError::ConfigMismatch(field));
        }
        Self::blank(ctx, sys, MatrixGen::new(seed, n, kind), b, speed).restore(ctx, snap, true)
    }

    /// The stepper at panel cursor 0 with a zeroed pivot record and no
    /// tiles, after the tag claims (same names, same order on every path).
    fn blank(ctx: &mut RankCtx, sys: &'a SystemSpec, gen: MatrixGen, b: usize, speed: f64) -> Self {
        let n = gen.n();
        // Point-to-point tag namespaces, one tag per global row / block.
        let policy = Hpl {
            gen,
            panel_swap: ctx.alloc_tags("hpl-panel-swap", n as u32),
            trail_swap: ctx.alloc_tags("hpl-trail-swap", n as u32),
            fan_in: (
                ctx.alloc_tags("hpl-fanin-fwd", (n / b) as u32),
                ctx.alloc_tags("hpl-fanin-bwd", (n / b) as u32),
            ),
        };
        let mut st = Self::assemble(ctx, sys, policy, n, b, speed.into());
        st.core.pivots = vec![0; n];
        st
    }
}

impl Policy for Hpl {
    type Elem = f64;
    type Output = HplDistOutcome;

    fn panel_bytes(&self) -> u64 {
        8
    }

    /// The pivoted panel: per column a distributed IAMAX, the pivot-row
    /// exchange and segment broadcast, and the rank-1 update; then the
    /// pivots along the row, the swaps across the rest of the matrix, and
    /// `L11` to the row-`k` ranks, which solve `L11·U12 = A12` in FP64.
    /// `U12` travels untransposed; `L21` is finished by the panel.
    fn factor(
        &mut self,
        ctx: &mut RankCtx,
        core: &mut Core<'_, f64>,
        at: &At,
        rec: &mut IterRecord,
    ) -> [Option<PanelData>; 2] {
        let (k, b, sp) = (at.k, core.b, at.sp);
        let (grid, my_r) = (core.grid, core.my_r);
        let dev = &core.sys.gcd;
        let rows_per_rank = (core.n / grid.p_r) as f64;
        let local = core.local.as_mut().expect("HPL runs functionally");
        let ipiv = &mut core.pivots;
        let lc_panel = if at.in_col { local.col_of_block(k) } else { 0 };
        // Global row of local row `lr` (owned blocks are stored in order).
        let global = |lr: usize| (my_r + lr / b * grid.p_r) * b + lr % b;
        if at.in_col {
            let panel_cols: Vec<usize> = (lc_panel..lc_panel + b).collect();
            for j in 0..b {
                let g_diag = k * b + j;
                // Local IAMAX over global rows >= g_diag in column k*b+j,
                // visited in ascending global order.
                let col = local.idx(0, lc_panel + j);
                let (mut best_val, mut best_row) = (0.0f64, usize::MAX);
                for lr in 0..local.n_loc_r {
                    let (g_row, v) = (global(lr), local.data[col + lr].abs());
                    if g_row >= g_diag && (v > best_val || (v == best_val && g_row < best_row)) {
                        best_val = v;
                        best_row = g_row;
                    }
                }
                rec.charge_getrf(ctx, 8.0 * rows_per_rank / dev.mem_bw, sp);
                // Distributed IAMAX: the allreduce keeps the largest
                // magnitude (smallest global row on ties, matching serial
                // IAMAX).
                let (win_val, piv_row) = ctx.allreduce_max_by(CommScope::Col, best_val, best_row);
                assert!(win_val > 0.0, "HPL hit an exactly singular column");
                ipiv[g_diag] = piv_row;
                if piv_row != g_diag {
                    let tag = self.panel_swap.at(g_diag);
                    exchange_rows(ctx, local, &panel_cols, g_diag, piv_row, tag);
                }
                // Broadcast the pivot row's panel segment [j..b) from its
                // (post-swap) owner down the column.
                let owner_r = (g_diag / b) % grid.p_r;
                let seg = (my_r == owner_r).then(|| {
                    let lr = local.row_of_block(g_diag / b) + g_diag % b;
                    (j..b)
                        .map(|c| local.data[local.idx(lr, lc_panel + c)])
                        .collect()
                });
                let seg = ctx.bcast_f64(CommScope::Col, owner_r, seg, 8 * (b - j) as u64);
                let piv = seg[0];
                // Rank-1 update of the local panel below the pivot row.
                for lr in (0..local.n_loc_r).filter(|&lr| global(lr) > g_diag) {
                    let l = local.data[col + lr] / piv;
                    local.data[col + lr] = l;
                    for c in j + 1..b {
                        let off = local.idx(lr, lc_panel + c);
                        local.data[off] -= l * seg[c - j];
                    }
                }
                let t = 2.0 * (b - j) as f64 * rows_per_rank / (dev.fp64_peak * 0.15);
                rec.charge_getrf(ctx, t, sp);
            }
        }
        // Everyone learns this panel's pivots (row-scope broadcast from the
        // panel column's member).
        let piv_msg = at
            .in_col
            .then(|| (0..b).map(|j| ipiv[k * b + j] as f64).collect());
        let got = ctx.bcast_f64(CommScope::Row, at.kc, piv_msg, 8 * b as u64);
        for (j, &p) in got.iter().enumerate() {
            ipiv[k * b + j] = p as usize;
        }

        // Apply the swaps to the rest of the matrix: every column except
        // the already-swapped panel block (on the panel's process column).
        let rest: Vec<usize> = (0..local.n_loc_c)
            .filter(|&c| !(at.in_col && c >= lc_panel && c < lc_panel + b))
            .collect();
        for j in 0..b {
            let r1 = k * b + j;
            let r2 = ipiv[r1];
            if r1 != r2 {
                exchange_rows(ctx, local, &rest, r1, r2, self.trail_swap.at(r1));
            }
        }

        // L11 (unit-lower part of the factored diagonal block) to the row.
        let l11 = at.in_row.then(|| {
            let mine = at
                .in_col
                .then(|| local.pack(local.row_of_block(k), b, local.col_of_block(k), b));
            ctx.bcast_f64(CommScope::Row, at.kc, mine, 8 * (b * b) as u64)
        });
        let mut strips = [None, None];
        if at.in_row && at.n_loc > 0 {
            let l11 = l11.expect("row ranks joined the bcast");
            let lr = local.row_of_block(k);
            let (off, lda) = (local.idx(lr, at.lc), local.lda());
            let a = &mut local.data[off..];
            trsm(
                Side::Left,
                Uplo::Lower,
                Diag::Unit,
                b,
                at.n_loc,
                1.0,
                &l11,
                b,
                a,
                lda,
            );
            let dt = (b * b * at.n_loc) as f64 / (dev.fp64_peak * 0.8) / sp;
            ctx.charge(dt);
            rec.trsm += dt;
            strips[0] = Some(PanelData::F64(local.pack(lr, b, at.lc, at.n_loc)));
        }
        if at.in_col && at.m_loc > 0 {
            strips[1] = Some(PanelData::F64(local.pack(at.lr, at.m_loc, lc_panel, b)));
        }
        strips
    }

    /// The FP64 trailing GEMM: `U12` is `B × extent`, so its offset counts
    /// columns.
    fn gemm(&self, core: &mut Core<'_, f64>, w: &Window) -> f64 {
        let (PanelData::F64(l), PanelData::F64(u)) = (w.l, w.u) else {
            panic!("HPL panels are FP64");
        };
        let b = core.b;
        let local = core.local.as_mut().expect("HPL runs functionally");
        let off = local.idx(w.lr, w.lc);
        let lda = local.lda();
        let (l, u) = (&l[w.l_off..], &u[w.u_off * b..]);
        gemm(
            Trans::No,
            Trans::No,
            w.m,
            w.n,
            b,
            -1.0,
            l,
            w.l_ext,
            u,
            b,
            1.0,
            &mut local.data[off..],
            lda,
        );
        let flops = 2.0 * (w.m * w.n * b) as f64;
        flops / crate::hpl::dgemm_rate(&core.sys.gcd, b)
    }

    fn finish(self, ctx: &mut RankCtx, core: Core<'_, f64>) -> HplDistOutcome {
        let (n, b) = (core.n, core.b);
        let local = core.local.as_ref().expect("HPL runs functionally");

        // ---- solve with the factors ---------------------------------------
        let mut b_vec = vec![0.0f64; n];
        self.gen.fill_rhs(0..n, &mut b_vec);
        let b_norm = vec_inf_norm(&b_vec);
        let mut rhs = b_vec.clone();
        mxp_blas::apply_pivots(&core.pivots, &mut rhs);
        // The final solve is IR's fan-in substitution on the FP64 factors;
        // like the residual check below, it charges no simulated compute.
        let diag = owned_diag_blocks(local, core.n_b);
        let (mut y, mut x) = (vec![0.0f64; n], vec![0.0f64; n]);
        fan_in_solve(ctx, local, &diag, self.fan_in, &rhs, &mut y, &mut x, None);

        // ---- verification -------------------------------------------------
        let (r_inf, a_norm, x_norm) = residual_check(ctx, &self.gen, &x, &b_vec, n, b);
        let scaled = r_inf / (f64::EPSILON * (a_norm * x_norm + b_norm) * n as f64);

        HplDistOutcome {
            x,
            scaled_residual: scaled,
            swaps: core
                .pivots
                .iter()
                .enumerate()
                .filter(|(j, &p)| p != *j)
                .count(),
            ipiv: core.pivots,
            elapsed: ctx.now() - core.t0,
        }
    }
}

/// Exchanges the `cols` segments of global rows `r1` and `r2` between
/// their owner grid rows, within this rank's process column: a local swap
/// when one grid row owns both, else each owner sends its segment, then
/// receives the partner's, on `tag`.
fn exchange_rows(
    ctx: &mut RankCtx,
    local: &mut LocalMat<f64>,
    cols: &[usize],
    r1: usize,
    r2: usize,
    tag: u32,
) {
    let grid = *ctx.grid();
    let (my_r, my_c) = ctx.coords();
    let b = local.b;
    let (o1, o2) = ((r1 / b) % grid.p_r, (r2 / b) % grid.p_r);
    let row = |local: &LocalMat<f64>, g_row: usize| local.row_of_block(g_row / b) + g_row % b;
    if o1 == o2 {
        if my_r == o1 {
            let (a, z) = (row(local, r1), row(local, r2));
            for &c in cols {
                let (i, j) = (local.idx(a, c), local.idx(z, c));
                local.data.swap(i, j);
            }
        }
        return;
    }
    let (mine, partner) = if my_r == o1 {
        (row(local, r1), grid.rank_of(o2, my_c))
    } else if my_r == o2 {
        (row(local, r2), grid.rank_of(o1, my_c))
    } else {
        return;
    };
    let out = cols
        .iter()
        .map(|&c| local.data[local.idx(mine, c)])
        .collect();
    ctx.send_f64(partner, tag, out);
    for (&c, v) in cols.iter().zip(ctx.recv_f64(partner, tag)) {
        let i = local.idx(mine, c);
        local.data[i] = v;
    }
}

/// Residual of `x` against the regenerated system (distributed as in IR).
fn residual_check(
    ctx: &mut RankCtx,
    gen: &MatrixGen,
    x: &[f64],
    b_vec: &[f64],
    n: usize,
    b: usize,
) -> (f64, f64, f64) {
    let n_b = n / b;
    let grid = *ctx.grid();
    let (my_r, my_c) = ctx.coords();
    // Per row: the partial `A·x` and `|A|` row sum over the owned block
    // columns, streamed from the generator without materializing `A`.
    // Mul then add, not fma: the driver pin fixes this rounding.
    let mut part = vec![[0.0f64; 2]; n];
    for k in 0..n_b {
        if grid.owner_of_block(k, k) != (my_r, my_c) {
            continue;
        }
        let xk = &x[k * b..(k + 1) * b];
        gen.stream_cols(k * b..(k + 1) * b, &mut part, |c, col, part| {
            let xj = xk[c];
            for (p, &a) in part.iter_mut().zip(col) {
                p[0] += a * xj;
                p[1] += a.abs();
            }
        });
    }
    let mut combined: Vec<f64> = part
        .iter()
        .map(|p| p[0])
        .chain(part.iter().map(|p| p[1]))
        .collect();
    ctx.allreduce_f64(CommScope::World, &mut combined);
    let (ax, rowsums) = combined.split_at(n);
    let r_inf = ax
        .iter()
        .zip(b_vec)
        .map(|(a, bb)| (bb - a).abs())
        .fold(0.0f64, f64::max);
    let a_norm = rowsums.iter().copied().fold(0.0f64, f64::max);
    let x_norm = vec_inf_norm(x);
    (r_inf, a_norm, x_norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use crate::solve::{run_with_backend, RunConfig};
    use crate::systems::testbed;
    use mxp_blas::trsv;

    fn run_hpl(grid: ProcessGrid, n: usize, b: usize, kind: MatrixKind) -> Vec<HplDistOutcome> {
        let q = grid.gcds_per_node();
        let sys = testbed(grid.size() / q, q);
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b).build_or_panic();
        run_with_backend(&rcfg, |ctx| {
            hpl_dist_solve(ctx, &sys, n, b, 4242, kind, 1.0)
        })
        .unwrap()
    }

    #[test]
    fn solves_uniform_random_with_pivoting() {
        // The matrix class where unpivoted LU blows up: HPL handles it.
        let outs = run_hpl(ProcessGrid::col_major(2, 2, 4), 64, 8, MatrixKind::Uniform);
        for o in &outs {
            assert!(o.scaled_residual < 16.0, "residual {}", o.scaled_residual);
        }
        // Real pivoting happened.
        assert!(outs[0].swaps > 10, "swaps: {}", outs[0].swaps);
        // And the pivot record is replicated and self-consistent.
        assert_eq!(
            outs[0].swaps,
            outs[0]
                .ipiv
                .iter()
                .enumerate()
                .filter(|(j, &p)| p != *j)
                .count()
        );
        for o in &outs {
            assert_eq!(o.ipiv, outs[0].ipiv);
        }
    }

    #[test]
    fn matches_serial_hpl() {
        let n = 48;
        let outs = run_hpl(ProcessGrid::col_major(2, 2, 4), n, 8, MatrixKind::Uniform);
        // Solve the same system serially (same seed and kind).
        let gen = MatrixGen::new(4242, n, MatrixKind::Uniform);
        let mut a = vec![0.0f64; n * n];
        gen.fill_tile(0..n, 0..n, n, &mut a);
        let mut rhs = vec![0.0f64; n];
        gen.fill_rhs(0..n, &mut rhs);
        let ipiv = mxp_blas::getrf_pivoted(n, &mut a, n).unwrap();
        mxp_blas::apply_pivots(&ipiv, &mut rhs);
        trsv(Uplo::Lower, Diag::Unit, n, &a, n, &mut rhs);
        trsv(Uplo::Upper, Diag::NonUnit, n, &a, n, &mut rhs);
        for (i, (&d, &s)) in outs[0].x.iter().zip(&rhs).enumerate() {
            assert!(
                (d - s).abs() < 1e-6 * s.abs().max(1.0),
                "x[{i}]: {d} vs {s}"
            );
        }
    }

    #[test]
    fn diag_dominant_never_swaps() {
        let outs = run_hpl(
            ProcessGrid::col_major(2, 2, 4),
            48,
            8,
            MatrixKind::DiagDominant,
        );
        assert_eq!(outs[0].swaps, 0);
        assert!(outs[0].scaled_residual < 16.0);
    }

    #[test]
    fn rectangular_grids_and_single_rank_agree() {
        // Non-square grids exercise distinct row/col scopes and tag
        // namespaces; a pivoted solve must still match the 1-rank answer
        // in both orientations.
        let single = run_hpl(ProcessGrid::col_major(1, 1, 1), 48, 8, MatrixKind::Uniform);
        let wide = run_hpl(ProcessGrid::col_major(2, 3, 6), 48, 8, MatrixKind::Uniform);
        let tall = run_hpl(ProcessGrid::col_major(3, 2, 6), 48, 8, MatrixKind::Uniform);
        for (a, b) in single[0].x.iter().zip(&wide[0].x) {
            assert!((a - b).abs() < 1e-7 * a.abs().max(1.0));
        }
        for (a, b) in single[0].x.iter().zip(&tall[0].x) {
            assert!((a - b).abs() < 1e-7 * a.abs().max(1.0));
        }
        assert!(
            wide[0].swaps > 0 && tall[0].swaps > 0,
            "pivoting must engage"
        );
        // Everyone holds the same replicated solution.
        for o in &wide {
            assert_eq!(o.x, wide[0].x);
        }
        for o in &tall {
            assert_eq!(o.x, tall[0].x);
        }
    }

    #[test]
    fn checkpoint_restart_reproduces_solution() {
        use crate::checkpoint::{latest_in, CheckpointSpec, RunCheckpointer, Snapshot};
        use crate::solve::step_until_done;
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let (n, b) = (48usize, 8usize);
        let dir = std::env::temp_dir().join(format!("hplai-hpl-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b).build_or_panic();
        let header = hpl_snapshot_header(&grid, n, b, 4242, MatrixKind::Uniform);
        let ck = RunCheckpointer::new(CheckpointSpec::new(&dir, 2), header).unwrap();
        let full = run_with_backend(&rcfg, |ctx| {
            let st = HplDistState::new(ctx, &sys, n, b, 4242, MatrixKind::Uniform, 1.0);
            step_until_done(ctx, st, Some(&ck)).0
        })
        .unwrap();
        // Resume every rank from the last snapshot and drive to completion:
        // the FP64 pivoted path must reproduce the uninterrupted run
        // bit-for-bit — solution, pivot record, and simulated clock.
        let path = latest_in(&dir, usize::MAX).expect("a checkpoint was written");
        let snap = Snapshot::load(&path).unwrap();
        let resumed = run_with_backend(&rcfg, |ctx| {
            let st = HplDistState::resume(ctx, &sys, n, b, 4242, MatrixKind::Uniform, 1.0, &snap)
                .unwrap();
            step_until_done(ctx, st, None).0
        })
        .unwrap();
        for (a, r) in full.iter().zip(&resumed) {
            assert_eq!(a.x, r.x);
            assert_eq!(a.ipiv, r.ipiv);
            assert_eq!(a.swaps, r.swaps);
            assert_eq!(a.elapsed.to_bits(), r.elapsed.to_bits());
        }
        // A mismatched matrix class is a typed config error, not a crash:
        // the class is what HPL's run-knobs tag hashes.
        let err = run_with_backend(&rcfg, |ctx| {
            HplDistState::resume(ctx, &sys, n, b, 4242, MatrixKind::DiagDominant, 1.0, &snap)
                .err()
                .unwrap()
        })
        .unwrap();
        assert!(matches!(
            err[0],
            crate::checkpoint::SnapshotError::ConfigMismatch("run knobs")
        ));
        // So is a snapshot that lacks a rank's clock, wait or section: the
        // last rank is refused, the others resume.
        for cut in 0..3 {
            let mut short = snap.clone();
            match cut {
                0 => short.clocks.truncate(3),
                1 => short.waits.truncate(3),
                _ => short.sections.truncate(3),
            }
            let got = run_with_backend(&rcfg, |ctx| {
                HplDistState::resume(ctx, &sys, n, b, 4242, MatrixKind::Uniform, 1.0, &short).err()
            })
            .unwrap();
            let rank_count = crate::checkpoint::SnapshotError::ConfigMismatch("rank count");
            assert_eq!(got, [None, None, None, Some(rank_count)], "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_do_not_cross_drivers() {
        use crate::checkpoint::{latest_in, CheckpointSpec, RunCheckpointer, SnapshotError};
        use crate::factor::regrid_snapshot;
        use crate::solve::{run, step_until_done, ConfigError};
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let (n, b, seed, kind) = (48usize, 8usize, 4242, MatrixKind::Uniform);
        let dir = std::env::temp_dir().join(format!("hplai-cross-driver-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (hpl_dir, mxp_dir) = (dir.join("hpl"), dir.join("mxp"));
        // An HPL run and an HPL-MxP run of the same size, grid and seed,
        // each checkpointed every two panels.
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b).seed(seed);
        let header = hpl_snapshot_header(&grid, n, b, seed, kind);
        let ck = RunCheckpointer::new(CheckpointSpec::new(&hpl_dir, 2), header).unwrap();
        run_with_backend(&rcfg.clone().build_or_panic(), |ctx| {
            let st = HplDistState::new(ctx, &sys, n, b, seed, kind, 1.0);
            step_until_done(ctx, st, Some(&ck)).0
        })
        .unwrap();
        run(&rcfg
            .clone()
            .checkpoint(CheckpointSpec::new(&mxp_dir, 2))
            .build_or_panic());
        let load = |d: &std::path::Path| {
            Snapshot::load(&latest_in(d, usize::MAX).expect("a snapshot")).unwrap()
        };
        let (hpl, mxp) = (load(&hpl_dir), load(&mxp_dir));

        // HPL-MxP refuses the HPL snapshot when configuring a restart and
        // when re-gridding it.
        let restart = rcfg.clone().restart_from(std::sync::Arc::new(hpl.clone()));
        let err = restart.build().unwrap_err();
        assert_eq!(err, ConfigError::SnapshotMismatch { field: "driver" });
        let survivors = ProcessGrid::col_major(2, 1, 2);
        let err = regrid_snapshot(&hpl, &grid, &survivors).unwrap_err();
        assert_eq!(err, SnapshotError::ConfigMismatch("driver"));
        // HPL refuses the HPL-MxP snapshot on every rank.
        let errs = run_with_backend(&rcfg.build_or_panic(), |ctx| {
            HplDistState::resume(ctx, &sys, n, b, seed, kind, 1.0, &mxp).err()
        })
        .unwrap();
        let driver = Some(SnapshotError::ConfigMismatch("driver"));
        assert!(errs.iter().all(|e| *e == driver), "{errs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comm_trace_matches_analytic_counts() {
        use crate::runtime::{CommOp, CommScope};
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let (n, b) = (32usize, 8usize);
        let n_b = n / b;
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b).build_or_panic();
        let outs = run_with_backend(&rcfg, |ctx| {
            let out = hpl_dist_solve(ctx, &sys, n, b, 4242, MatrixKind::Uniform, 1.0);
            (out, ctx.take_trace())
        })
        .unwrap();
        // Rank 0 sits at grid (0,0): in the k = 0 panel column and row.
        let (out, trace) = &outs[0];
        let ipiv = &out.ipiv;

        // ---- event-by-event walk of the first column step ----------------
        // A world barrier, then per eliminated column j: the 16-byte IAMAX
        // allreduce over the process column, a symmetric row exchange when
        // the pivot lives on the other grid row, and the 8·(b−j)-byte
        // pivot-row segment broadcast.
        let ev = trace.events();
        assert_eq!(ev[0].op, CommOp::Barrier);
        let mut i = 1;
        for (j, &piv) in ipiv.iter().enumerate().take(b) {
            assert_eq!(
                (ev[i].op, ev[i].scope, ev[i].bytes),
                (CommOp::Allreduce, Some(CommScope::Col), 16),
                "IAMAX at column {j}"
            );
            i += 1;
            if piv != j && (piv / b) % grid.p_r != 0 {
                assert_eq!((ev[i].op, ev[i].bytes), (CommOp::Send, 8 * b as u64));
                assert_eq!(
                    (ev[i + 1].op, ev[i + 1].bytes),
                    (CommOp::Recv, 8 * b as u64)
                );
                i += 2;
            }
            assert_eq!(
                (ev[i].op, ev[i].bytes),
                (CommOp::Bcast, 8 * (b - j) as u64),
                "pivot-row segment at column {j}"
            );
            i += 1;
        }
        // The step closes with the pivot-record broadcast along the row.
        assert_eq!(
            (ev[i].op, ev[i].scope, ev[i].bytes),
            (CommOp::Bcast, Some(CommScope::Row), 8 * b as u64)
        );

        // ---- whole-run totals against the analytic count -----------------
        // Allreduces: one IAMAX per eliminated column of the panels this
        // rank's column owns, plus the fan-in solution sum and the residual
        // check (both world-scope).
        let owned_panels = (0..n_b).filter(|k| k % grid.p_c == 0).count();
        let ar = trace.totals(CommOp::Allreduce);
        assert_eq!(ar.count, owned_panels * b + 2);
        assert_eq!(
            ar.bytes,
            (owned_panels * b) as u64 * 16 + 8 * n as u64 + 16 * n as u64
        );

        // Point-to-point traffic, derived from the run's own pivot record.
        // Every cross-row swap involves grid row 0 (on a 2-row grid), as a
        // panel exchange when rank 0's column owns the panel plus a
        // trailing exchange in every case.
        let (mut swap_ops, mut swap_bytes) = (0usize, 0u64);
        for (r1, &r2) in ipiv.iter().enumerate() {
            if r2 == r1 || (r1 / b) % grid.p_r == (r2 / b) % grid.p_r {
                continue;
            }
            let in_panel_col = (r1 / b) % grid.p_c == 0;
            if in_panel_col {
                swap_ops += 1;
                swap_bytes += 8 * b as u64;
            }
            let cols = n / grid.p_c - if in_panel_col { b } else { 0 };
            swap_ops += 1;
            swap_bytes += 8 * cols as u64;
        }
        // Fan-in contributions pushed to later (fwd) / earlier (bwd) diag
        // owners in this rank's grid row, and partial sums received while
        // solving the diag blocks this rank owns.
        let fan_sends: usize = (0..n_b)
            .filter(|k| k % grid.p_c == 0)
            .map(|k| {
                (k + 1..n_b).filter(|kp| kp % grid.p_r == 0).count()
                    + (0..k).filter(|kp| kp % grid.p_r == 0).count()
            })
            .sum();
        let fan_recvs: usize = (0..n_b)
            .filter(|k| k % grid.p_r == 0 && k % grid.p_c == 0)
            .map(|k| k + (n_b - 1 - k))
            .sum();
        let st = trace.totals(CommOp::Send);
        let rt = trace.totals(CommOp::Recv);
        assert_eq!(st.count, swap_ops + fan_sends);
        assert_eq!(rt.count, swap_ops + fan_recvs);
        assert_eq!(st.bytes, swap_bytes + (fan_sends * 8 * b) as u64);
        assert_eq!(rt.bytes, swap_bytes + (fan_recvs * 8 * b) as u64);
    }

    #[test]
    fn hplai_and_distributed_hpl_agree_on_the_answer() {
        // Same system, two very different solvers (mixed-precision + IR vs
        // pivoted FP64): the answers must coincide to FP64 accuracy.
        //
        // Note on speed: at this toy N the FP64 run is *faster* in
        // simulated time — tensor-path GEMM rates need large tiles, so
        // mixed precision only pays off at scale (the claim the critical-
        // path models assert in `hpl::tests` and `tests/paper_claims.rs`).
        use crate::solve::run;
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let cfg = RunConfig::functional(sys, grid, 256, 32)
            .seed(4242)
            .build_or_panic();
        let ai = run(&cfg);
        assert!(ai.converged);
        let hpl = run_hpl(grid, 256, 32, MatrixKind::DiagDominant);
        assert!(hpl[0].scaled_residual < 16.0);
        let ai_x = ai.solution.expect("functional runs return the solution");
        for (i, (a, h)) in ai_x.iter().zip(&hpl[0].x).enumerate() {
            assert!(
                (a - h).abs() < 1e-7 * h.abs().max(1.0),
                "x[{i}]: {a} vs {h}"
            );
        }
    }
}
