//! Distributed functional HPL: FP64 right-looking LU **with partial
//! pivoting** over the same grid/runtime substrate as HPL-AI.
//!
//! This is the baseline the paper compares against (§I "9.5× HPL"),
//! implemented for real rather than only as a cost model: per column the
//! process column performs a distributed IAMAX (allreduce-max), the two
//! owner ranks exchange the pivot rows, the pivot row is broadcast down the
//! column for the rank-1 panel update, swaps are applied to the remainder
//! of the matrix row-pair by row-pair, and the trailing update runs in
//! FP64. Unlike HPL-AI, no conditioning assumption is needed — the tests
//! run it on uniform random matrices where the unpivoted factorization
//! suffers catastrophic growth.
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

use crate::checkpoint::{self, ByteReader, Snapshot, SnapshotError, SnapshotHeader, DRIVER_HPL};
use crate::grid::ProcessGrid;
use crate::ir::{fan_in_solve, owned_diag_blocks};
use crate::local::{trailing_col, trailing_row, LocalMat};
use crate::runtime::{CommScope, RankCtx, TagRange};
use crate::solve::Stepper;
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

/// The resumable-stepper form of [`hpl_dist_solve`]: one [`Stepper::step`]
/// eliminates one block column (pivoted panel, swap application, TRSM,
/// panel broadcasts, FP64 trailing update), and [`Stepper::finish`] runs
/// IR's fan-in solve plus the residual check.
///
/// HPL has no look-ahead: nothing is in flight at a panel boundary, so
/// [`Stepper::drain`] keeps its no-op default and a snapshot section is
/// just the start-of-run clock, the pivot record so far, and this rank's
/// FP64 tiles.
pub struct HplDistState<'a> {
    sys: &'a SystemSpec,
    n: usize,
    b: usize,
    n_b: usize,
    speed: f64,
    grid: ProcessGrid,
    my_r: usize,
    my_c: usize,
    gen: MatrixGen,
    panel_swap: TagRange,
    trail_swap: TagRange,
    fwd_tags: TagRange,
    bwd_tags: TagRange,
    local: LocalMat<f64>,
    /// Global pivot record (every rank learns every panel's pivots).
    ipiv: Vec<usize>,
    t0: f64,
    k: usize,
}

impl<'a> HplDistState<'a> {
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
        let mut st = Self::blank(ctx, sys, n, b, seed, kind, speed);
        st.local.fill_from_f64(&st.gen);
        ctx.barrier(CommScope::World);
        st.t0 = ctx.now();
        st
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
        let h = snap.header;
        if h.driver != expect.driver {
            return Err(SnapshotError::ConfigMismatch("driver"));
        }
        if h.fidelity != expect.fidelity {
            return Err(SnapshotError::ConfigMismatch("fidelity"));
        }
        if (h.n, h.b) != (expect.n, expect.b) {
            return Err(SnapshotError::ConfigMismatch("problem size"));
        }
        if (h.p_r, h.p_c, h.ranks) != (expect.p_r, expect.p_c, expect.ranks) {
            return Err(SnapshotError::ConfigMismatch("process grid"));
        }
        if (h.seed, h.config_tag) != (expect.seed, expect.config_tag) {
            return Err(SnapshotError::ConfigMismatch("matrix class"));
        }
        if h.k as usize >= n / b {
            return Err(SnapshotError::ConfigMismatch("panel cursor"));
        }
        let mut r = ByteReader::new(checkpoint::resume_rank(ctx, snap)?);
        let mut st = Self::blank(ctx, sys, n, b, seed, kind, speed);
        st.t0 = r.f64()?;
        for p in st.ipiv.iter_mut() {
            *p = r.u64()? as usize;
        }
        if r.u64()? as usize != st.local.data.len() {
            return Err(SnapshotError::ConfigMismatch("local matrix extent"));
        }
        for v in st.local.data.iter_mut() {
            *v = r.f64()?;
        }
        if !r.is_done() {
            return Err(SnapshotError::Truncated);
        }
        st.k = h.k as usize;
        Ok(st)
    }

    /// The state at panel cursor 0 with zeroed tiles and pivot record:
    /// the tag claims (same names, same order on every path) and the
    /// layout both [`Self::new`] and [`Self::resume`] fill in.
    fn blank(
        ctx: &mut RankCtx,
        sys: &'a SystemSpec,
        n: usize,
        b: usize,
        seed: u64,
        kind: MatrixKind,
        speed: f64,
    ) -> Self {
        let grid = *ctx.grid();
        let (my_r, my_c) = ctx.coords();
        // Point-to-point tag namespaces, one tag per global row / block.
        let panel_swap = ctx.alloc_tags("hpl-panel-swap", n as u32);
        let trail_swap = ctx.alloc_tags("hpl-trail-swap", n as u32);
        let fwd_tags = ctx.alloc_tags("hpl-fanin-fwd", (n / b) as u32);
        let bwd_tags = ctx.alloc_tags("hpl-fanin-bwd", (n / b) as u32);
        HplDistState {
            sys,
            n,
            b,
            n_b: n / b,
            speed,
            grid,
            my_r,
            my_c,
            gen: MatrixGen::new(seed, n, kind),
            panel_swap,
            trail_swap,
            fwd_tags,
            bwd_tags,
            local: LocalMat::new(&grid, (my_r, my_c), n, b),
            ipiv: vec![0usize; n],
            t0: 0.0,
            k: 0,
        }
    }
}

impl Stepper for HplDistState<'_> {
    type Output = HplDistOutcome;

    fn cursor(&self) -> usize {
        self.k
    }

    fn done(&self) -> bool {
        self.k >= self.n_b
    }

    fn encode(&self, out: &mut Vec<u8>) {
        checkpoint::put_f64(out, self.t0);
        for &p in &self.ipiv {
            checkpoint::put_u64(out, p as u64);
        }
        checkpoint::put_u64(out, self.local.data.len() as u64);
        for &v in &self.local.data {
            checkpoint::put_f64(out, v);
        }
    }

    fn checkpoint_bytes(&self) -> u64 {
        // Modeled drain: this rank's FP64 tiles plus the pivot record.
        8 * (self.local.data.len() as u64 + self.n as u64)
    }

    fn step(&mut self, ctx: &mut RankCtx) {
        let k = self.k;
        let (n, b, n_b) = (self.n, self.b, self.n_b);
        let grid = self.grid;
        let (my_r, my_c) = (self.my_r, self.my_c);
        let speed = self.speed;
        let (panel_swap, trail_swap) = (self.panel_swap, self.trail_swap);
        let HplDistState {
            sys, local, ipiv, ..
        } = self;
        let dev = &sys.gcd;
        let lda = local.lda();

        let kr = k % grid.p_r;
        let kc = k % grid.p_c;
        let in_col = my_c == kc;
        let in_row = my_r == kr;
        let lc_panel = if in_col { local.col_of_block(k) } else { 0 };

        // ---- distributed pivoted panel factorization --------------------
        if in_col {
            for j in 0..b {
                let g_diag = k * b + j;
                // Local IAMAX over global rows >= g_diag in column k*b+j.
                let (mut best_val, mut best_row) = (0.0f64, usize::MAX);
                for i_blk in (my_r..n_b).step_by(grid.p_r) {
                    let lr0 = local.row_of_block(i_blk);
                    for i in 0..b {
                        let g_row = i_blk * b + i;
                        if g_row < g_diag {
                            continue;
                        }
                        let v = local.data[local.idx(lr0 + i, lc_panel + j)].abs();
                        if v > best_val || (v == best_val && g_row < best_row) {
                            best_val = v;
                            best_row = g_row;
                        }
                    }
                }
                ctx.charge(8.0 * (n / grid.p_r) as f64 / dev.mem_bw / speed);
                // Distributed IAMAX: the allreduce keeps the largest
                // magnitude (smallest global row on ties, matching serial
                // IAMAX).
                let (win_val, piv_row) = ctx.allreduce_max_by(CommScope::Col, best_val, best_row);
                assert!(win_val > 0.0, "HPL hit an exactly singular column");
                ipiv[g_diag] = piv_row;
                if piv_row != g_diag {
                    swap_rows_panel(
                        ctx, local, lc_panel, b, g_diag, piv_row, panel_swap, my_r, my_c,
                    );
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
                for i_blk in (my_r..n_b).step_by(grid.p_r) {
                    let lr0 = local.row_of_block(i_blk);
                    for i in 0..b {
                        let g_row = i_blk * b + i;
                        if g_row <= g_diag {
                            continue;
                        }
                        let off_l = local.idx(lr0 + i, lc_panel + j);
                        let l = local.data[off_l] / piv;
                        local.data[off_l] = l;
                        for c in j + 1..b {
                            let u = seg[c - j];
                            let off = local.idx(lr0 + i, lc_panel + c);
                            local.data[off] -= l * u;
                        }
                    }
                }
                ctx.charge(
                    2.0 * (b - j) as f64 * (n / grid.p_r) as f64 / (dev.fp64_peak * 0.15) / speed,
                );
            }
        }
        // Everyone learns this panel's pivots (row-scope broadcast from the
        // panel column's member).
        let piv_msg = in_col.then(|| (0..b).map(|j| ipiv[k * b + j] as f64).collect());
        let got = ctx.bcast_f64(CommScope::Row, kc, piv_msg, 8 * b as u64);
        for (j, &p) in got.iter().enumerate() {
            ipiv[k * b + j] = p as usize;
        }

        // ---- apply the swaps to the rest of the matrix -------------------
        for j in 0..b {
            let r1 = k * b + j;
            let r2 = ipiv[r1];
            if r1 != r2 {
                swap_rows_trailing(
                    ctx, local, in_col, lc_panel, b, r1, r2, trail_swap, my_r, my_c,
                );
            }
        }

        // ---- TRSM for U12 and broadcasts ---------------------------------
        let lr_k1 = trailing_row(&grid, my_r, k, b);
        let lc_k1 = trailing_col(&grid, my_c, k, b);
        let m_loc = local.n_loc_r - lr_k1;
        let n_loc = local.n_loc_c - lc_k1;

        // L11 (unit-lower part of the factored diagonal block) to the row.
        let l11 = if in_row {
            let mine =
                in_col.then(|| local.pack_block(local.row_of_block(k), local.col_of_block(k)));
            Some(ctx.bcast_f64(CommScope::Row, kc, mine, 8 * (b * b) as u64))
        } else {
            None
        };
        if in_row && n_loc > 0 {
            let l11 = l11.as_ref().expect("row ranks joined the bcast");
            let lr = local.row_of_block(k);
            let off = local.idx(lr, lc_k1);
            trsm(
                Side::Left,
                Uplo::Lower,
                Diag::Unit,
                b,
                n_loc,
                1.0,
                l11,
                b,
                &mut local.data[off..],
                lda,
            );
            ctx.charge((b * b * n_loc) as f64 / (dev.fp64_peak * 0.8) / speed);
        }

        // Panel broadcasts (FP64: twice the HPL-AI volume even vs FP32).
        let u12 = in_row.then(|| {
            if n_loc > 0 {
                let lr = local.row_of_block(k);
                pack_rows_f64(local, lr, b, lc_k1, n_loc)
            } else {
                Vec::new()
            }
        });
        let u12 = ctx.bcast_f64(CommScope::Col, kr, u12, 8 * (b * n_loc) as u64);
        let l21 = in_col.then(|| {
            if m_loc > 0 {
                pack_rows_f64(local, lr_k1, m_loc, lc_panel, b)
            } else {
                Vec::new()
            }
        });
        let l21 = ctx.bcast_f64(CommScope::Row, kc, l21, 8 * (m_loc * b) as u64);

        // ---- FP64 trailing update ----------------------------------------
        if m_loc > 0 && n_loc > 0 {
            let off = local.idx(lr_k1, lc_k1);
            gemm(
                Trans::No,
                Trans::No,
                m_loc,
                n_loc,
                b,
                -1.0,
                &l21,
                m_loc,
                &u12,
                b,
                1.0,
                &mut local.data[off..],
                lda,
            );
            let flops = 2.0 * (m_loc * n_loc * b) as f64;
            ctx.charge(flops / crate::hpl::dgemm_rate(dev, b) / speed);
        }

        self.k = k + 1;
    }

    fn finish(self, ctx: &mut RankCtx) -> HplDistOutcome {
        let (n, b) = (self.n, self.b);

        // ---- solve with the factors ---------------------------------------
        let mut b_vec = vec![0.0f64; n];
        self.gen.fill_rhs(0..n, &mut b_vec);
        let b_norm = vec_inf_norm(&b_vec);
        let mut rhs = b_vec.clone();
        // Apply the pivots in elimination order.
        for (j, &p) in self.ipiv.iter().enumerate() {
            if p != j {
                rhs.swap(j, p);
            }
        }
        // The final solve is IR's fan-in substitution on the FP64 factors;
        // like the residual check below, it charges no simulated compute.
        let diag = owned_diag_blocks(&self.local, self.n_b);
        let (mut y, mut x) = (vec![0.0f64; n], vec![0.0f64; n]);
        let tags = (self.fwd_tags, self.bwd_tags);
        fan_in_solve(ctx, &self.local, &diag, tags, &rhs, &mut y, &mut x, None);

        // ---- verification -------------------------------------------------
        let (r_inf, a_norm, x_norm) = residual_check(ctx, &self.gen, &x, &b_vec, n, b);
        let scaled = r_inf / (f64::EPSILON * (a_norm * x_norm + b_norm) * n as f64);

        HplDistOutcome {
            x,
            scaled_residual: scaled,
            swaps: self
                .ipiv
                .iter()
                .enumerate()
                .filter(|(j, &p)| p != *j)
                .count(),
            ipiv: self.ipiv,
            elapsed: ctx.now() - self.t0,
        }
    }
}

/// Exchanges panel-column segments of global rows `r1` and `r2` between
/// their owner grid rows (within process column `kc` only).
#[allow(clippy::too_many_arguments)]
fn swap_rows_panel(
    ctx: &mut RankCtx,
    local: &mut LocalMat<f64>,
    lc_panel: usize,
    b: usize,
    r1: usize,
    r2: usize,
    tags: TagRange,
    my_r: usize,
    my_c: usize,
) {
    let grid = *ctx.grid();
    let o1 = (r1 / b) % grid.p_r;
    let o2 = (r2 / b) % grid.p_r;
    let row_slice = |local: &LocalMat<f64>, g_row: usize| -> Vec<f64> {
        let lr = local.row_of_block(g_row / b) + g_row % b;
        (0..b)
            .map(|c| local.data[local.idx(lr, lc_panel + c)])
            .collect()
    };
    let write_row = |local: &mut LocalMat<f64>, g_row: usize, v: &[f64]| {
        let lr = local.row_of_block(g_row / b) + g_row % b;
        for (c, &val) in v.iter().enumerate() {
            let off = local.idx(lr, lc_panel + c);
            local.data[off] = val;
        }
    };
    if o1 == o2 {
        if my_r == o1 {
            let a = row_slice(local, r1);
            let bb = row_slice(local, r2);
            write_row(local, r1, &bb);
            write_row(local, r2, &a);
        }
        return;
    }
    let tag = tags.at(r1);
    if my_r == o1 {
        let mine = row_slice(local, r1);
        let partner = grid.rank_of(o2, my_c);
        ctx.send_f64(partner, tag, mine);
        let got = ctx.recv_f64(partner, tag);
        write_row(local, r1, &got);
    } else if my_r == o2 {
        let mine = row_slice(local, r2);
        let partner = grid.rank_of(o1, my_c);
        ctx.send_f64(partner, tag, mine);
        let got = ctx.recv_f64(partner, tag);
        write_row(local, r2, &got);
    }
}

/// Exchanges the *non-panel* column segments of global rows `r1`/`r2`
/// across every process column.
#[allow(clippy::too_many_arguments)]
fn swap_rows_trailing(
    ctx: &mut RankCtx,
    local: &mut LocalMat<f64>,
    in_panel_col: bool,
    lc_panel: usize,
    b: usize,
    r1: usize,
    r2: usize,
    tags: TagRange,
    my_r: usize,
    my_c: usize,
) {
    let grid = *ctx.grid();
    let o1 = (r1 / b) % grid.p_r;
    let o2 = (r2 / b) % grid.p_r;
    if my_r != o1 && my_r != o2 {
        return;
    }
    // Column indices to exchange: everything except the already-swapped
    // panel block (on the panel's process column).
    let cols: Vec<usize> = (0..local.n_loc_c)
        .filter(|&c| !(in_panel_col && c >= lc_panel && c < lc_panel + b))
        .collect();
    let read_row = |local: &LocalMat<f64>, g_row: usize| -> Vec<f64> {
        let lr = local.row_of_block(g_row / b) + g_row % b;
        cols.iter().map(|&c| local.data[local.idx(lr, c)]).collect()
    };
    let write_row = |local: &mut LocalMat<f64>, g_row: usize, v: &[f64]| {
        let lr = local.row_of_block(g_row / b) + g_row % b;
        for (&c, &val) in cols.iter().zip(v) {
            let off = local.idx(lr, c);
            local.data[off] = val;
        }
    };
    if o1 == o2 {
        if my_r == o1 {
            let a = read_row(local, r1);
            let bb = read_row(local, r2);
            write_row(local, r1, &bb);
            write_row(local, r2, &a);
        }
        return;
    }
    let tag = tags.at(r1);
    if my_r == o1 {
        let mine = read_row(local, r1);
        let partner = grid.rank_of(o2, my_c);
        ctx.send_f64(partner, tag, mine);
        let got = ctx.recv_f64(partner, tag);
        write_row(local, r1, &got);
    } else {
        let mine = read_row(local, r2);
        let partner = grid.rank_of(o1, my_c);
        ctx.send_f64(partner, tag, mine);
        let got = ctx.recv_f64(partner, tag);
        write_row(local, r2, &got);
    }
}

/// Packs rows `[lr, lr+m)` × columns `[lc, lc+nc)` tightly (column-major).
fn pack_rows_f64(local: &LocalMat<f64>, lr: usize, m: usize, lc: usize, nc: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; m * nc];
    for c in 0..nc {
        for i in 0..m {
            out[c * m + i] = local.data[local.idx(lr + i, lc + c)];
        }
    }
    out
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
        // A mismatched matrix class is a typed config error, not a crash.
        let err = run_with_backend(&rcfg, |ctx| {
            HplDistState::resume(ctx, &sys, n, b, 4242, MatrixKind::DiagDominant, 1.0, &snap)
                .err()
                .unwrap()
        })
        .unwrap();
        assert!(matches!(
            err[0],
            crate::checkpoint::SnapshotError::ConfigMismatch("matrix class")
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
        // Recover HPL-AI's solution for comparison.
        use crate::factor::{factor, FactorConfig, Fidelity};
        use crate::ir::refine;
        use mxp_msgsim::BcastAlgo;
        let sys2 = testbed(1, 4);
        let fcfg = FactorConfig {
            n: 256,
            b: 32,
            algo: BcastAlgo::Lib,
            lookahead: true,
            fidelity: Fidelity::Functional,
            seed: 4242,
            prec: crate::msg::TrailingPrecision::Fp16,
        };
        let ai_x = run_with_backend(&cfg, |ctx| {
            let f = factor(ctx, &sys2, &fcfg, 1.0);
            refine(ctx, &sys2, &fcfg, f.local.as_ref().unwrap(), 1.0).x
        })
        .unwrap();
        for (i, (a, h)) in ai_x[0].iter().zip(&hpl[0].x).enumerate() {
            assert!(
                (a - h).abs() < 1e-7 * h.abs().max(1.0),
                "x[{i}]: {a} vs {h}"
            );
        }
    }
}
