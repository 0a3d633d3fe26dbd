//! Per-rank local storage under the 2D block-cyclic distribution.
//!
//! Each rank allocates one contiguous `N_Lr × N_Lc` FP32 matrix whose
//! leading dimension is fixed for the whole run (`LDA = N_Lr`, §III-C) —
//! sub-views are `(offset, lda)` pairs, exactly like passing shifted device
//! pointers to cuBLAS. Local block-rows are stored in increasing global
//! block index, so the trailing submatrix of every factorization step is a
//! contiguous bottom-right window.

use crate::grid::ProcessGrid;
use mxp_lcg::MatrixGen;

/// One rank's share of the global matrix in the benchmark's working
/// precision (FP32 for HPL-AI).
pub type LocalMatrix = LocalMat<f32>;

/// One rank's share of the global matrix, generic over element type
/// (FP32 for HPL-AI, FP64 for the distributed HPL baseline).
#[derive(Clone, Debug)]
pub struct LocalMat<T> {
    /// Column-major storage, `lda = n_loc_r`.
    pub data: Vec<T>,
    /// Local rows (`N_Lr`).
    pub n_loc_r: usize,
    /// Local columns (`N_Lc`).
    pub n_loc_c: usize,
    /// Block size `B`.
    pub b: usize,
    my_r: usize,
    my_c: usize,
    p_r: usize,
    p_c: usize,
}

impl<T: Copy + Default> LocalMat<T> {
    /// Allocates (zeroed) local storage for the rank at grid coordinate
    /// `(my_r, my_c)`. `n` must tile evenly: `n = n_b·b` with `n_b`
    /// divisible by both grid dimensions (the paper sizes `N` accordingly).
    pub fn new(grid: &ProcessGrid, coord: (usize, usize), n: usize, b: usize) -> Self {
        let (n_loc_r, n_loc_c) = Self::local_extent(grid, n, b);
        Self::assemble(
            grid,
            coord,
            b,
            vec![T::default(); n_loc_r * n_loc_c],
            n_loc_r,
        )
    }

    /// Wraps an already-materialized column-major buffer (e.g. one served
    /// by [`crate::cache::MatrixCache`]) as this rank's local matrix,
    /// without touching its bytes. The buffer must have been produced by
    /// an identically-parameterized fill: same `n`, `b`, grid shape and
    /// coordinate — the cache key guarantees exactly this. Panics if the
    /// length does not match the local extent (the cheap layout check;
    /// content purity is the caller's contract).
    pub fn from_data(
        grid: &ProcessGrid,
        coord: (usize, usize),
        n: usize,
        b: usize,
        data: Vec<T>,
    ) -> Self {
        let (n_loc_r, n_loc_c) = Self::local_extent(grid, n, b);
        assert_eq!(
            data.len(),
            n_loc_r * n_loc_c,
            "buffer length does not match the {n_loc_r}x{n_loc_c} local extent"
        );
        Self::assemble(grid, coord, b, data, n_loc_r)
    }

    /// Validates the tiling and returns this distribution's local extent
    /// `(N_Lr, N_Lc)` (identical on every rank of an even tiling).
    fn local_extent(grid: &ProcessGrid, n: usize, b: usize) -> (usize, usize) {
        assert!(n.is_multiple_of(b), "N {n} not a multiple of B {b}");
        let n_b = n / b;
        assert!(
            n_b.is_multiple_of(grid.p_r) && n_b.is_multiple_of(grid.p_c),
            "block count {n_b} not divisible by grid {}x{}",
            grid.p_r,
            grid.p_c
        );
        (n / grid.p_r, n / grid.p_c)
    }

    fn assemble(
        grid: &ProcessGrid,
        coord: (usize, usize),
        b: usize,
        data: Vec<T>,
        n_loc_r: usize,
    ) -> Self {
        let n_loc_c = data.len() / n_loc_r;
        LocalMat {
            data,
            n_loc_r,
            n_loc_c,
            b,
            my_r: coord.0,
            my_c: coord.1,
            p_r: grid.p_r,
            p_c: grid.p_c,
        }
    }

    /// Leading dimension (constant for the whole run).
    #[inline]
    pub fn lda(&self) -> usize {
        self.n_loc_r
    }

    /// `true` if this rank owns global block-row `i_blk`.
    #[inline]
    pub fn owns_block_row(&self, i_blk: usize) -> bool {
        i_blk % self.p_r == self.my_r
    }

    /// `true` if this rank owns global block-column `j_blk`.
    #[inline]
    pub fn owns_block_col(&self, j_blk: usize) -> bool {
        j_blk % self.p_c == self.my_c
    }

    /// Local row offset where global block-row `i_blk` lives (panics if
    /// not owned).
    pub fn row_of_block(&self, i_blk: usize) -> usize {
        assert!(self.owns_block_row(i_blk));
        (i_blk / self.p_r) * self.b
    }

    /// Local column offset where global block-column `j_blk` lives.
    pub fn col_of_block(&self, j_blk: usize) -> usize {
        assert!(self.owns_block_col(j_blk));
        (j_blk / self.p_c) * self.b
    }

    /// Linear offset of local entry `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n_loc_r && j < self.n_loc_c);
        j * self.n_loc_r + i
    }

    /// Copies the `B × B` block at local offsets `(lr, lc)` into a tight
    /// buffer (used to ship the factored diagonal block).
    pub fn pack_block(&self, lr: usize, lc: usize) -> Vec<T> {
        let mut out = vec![T::default(); self.b * self.b];
        for j in 0..self.b {
            let src = self.idx(lr, lc + j);
            out[j * self.b..(j + 1) * self.b].copy_from_slice(&self.data[src..src + self.b]);
        }
        out
    }
}

impl LocalMat<f32> {
    /// Fills the local matrix from the global generator (the FP64→FP32
    /// initial cast of §III-C) by iterating owned blocks.
    pub fn fill_from(&mut self, gen: &MatrixGen) {
        let n_b = gen.n() / self.b;
        let lda = self.n_loc_r;
        for j_blk in (self.my_c..n_b).step_by(self.p_c) {
            let lc = self.col_of_block(j_blk);
            for i_blk in (self.my_r..n_b).step_by(self.p_r) {
                let lr = self.row_of_block(i_blk);
                let off = self.idx(lr, lc);
                gen.fill_tile_f32(
                    i_blk * self.b..(i_blk + 1) * self.b,
                    j_blk * self.b..(j_blk + 1) * self.b,
                    lda,
                    &mut self.data[off..],
                );
            }
        }
    }
}

impl LocalMat<f64> {
    /// Fills the local matrix in full FP64 (the HPL baseline's storage).
    pub fn fill_from_f64(&mut self, gen: &MatrixGen) {
        let n_b = gen.n() / self.b;
        let lda = self.n_loc_r;
        for j_blk in (self.my_c..n_b).step_by(self.p_c) {
            let lc = self.col_of_block(j_blk);
            for i_blk in (self.my_r..n_b).step_by(self.p_r) {
                let lr = self.row_of_block(i_blk);
                let off = self.idx(lr, lc);
                gen.fill_tile(
                    i_blk * self.b..(i_blk + 1) * self.b,
                    j_blk * self.b..(j_blk + 1) * self.b,
                    lda,
                    &mut self.data[off..],
                );
            }
        }
    }
}

/// Local row offset of the trailing region strictly *after* global
/// block-row `k` on grid row `my_r` (the rows of owned blocks `I > k`).
/// A free function because timing-mode ranks hold no [`LocalMat`].
pub fn trailing_row(grid: &ProcessGrid, my_r: usize, k: usize, b: usize) -> usize {
    count_owned(k + 1, my_r, grid.p_r) * b
}

/// Local column offset of the trailing region strictly after global
/// block-column `k` on grid column `my_c`.
pub fn trailing_col(grid: &ProcessGrid, my_c: usize, k: usize, b: usize) -> usize {
    count_owned(k + 1, my_c, grid.p_c) * b
}

/// Number of global block indices `< upto` owned by coordinate `pi` on a
/// `p`-cycle (the block-cyclic prefix count).
pub fn count_owned(upto: usize, pi: usize, p: usize) -> usize {
    if upto == 0 {
        return 0;
    }
    if pi < upto % p {
        upto / p + 1
    } else {
        upto / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use mxp_lcg::{MatrixGen, MatrixKind};

    fn grid22() -> ProcessGrid {
        ProcessGrid::col_major(2, 2, 2)
    }

    #[test]
    fn sizes() {
        let m = LocalMatrix::new(&grid22(), (0, 1), 16, 2);
        assert_eq!(m.n_loc_r, 8);
        assert_eq!(m.n_loc_c, 8);
        assert_eq!(m.lda(), 8);
        assert_eq!(m.data.len(), 64);
    }

    #[test]
    fn ownership_and_offsets() {
        let m = LocalMatrix::new(&grid22(), (1, 0), 16, 2);
        assert!(m.owns_block_row(1) && m.owns_block_row(3));
        assert!(!m.owns_block_row(0));
        assert_eq!(m.row_of_block(1), 0);
        assert_eq!(m.row_of_block(3), 2);
        assert!(m.owns_block_col(0) && m.owns_block_col(2));
        assert_eq!(m.col_of_block(2), 2);
    }

    #[test]
    fn trailing_offsets() {
        let g = grid22();
        // Rank (0,0) owns block rows 0,2,4,6. After k=0: blocks >0 → 2,4,6
        // start at local row 2 (block 0 occupies rows 0..2).
        assert_eq!(trailing_row(&g, 0, 0, 2), 2);
        assert_eq!(trailing_row(&g, 0, 1, 2), 2);
        assert_eq!(trailing_row(&g, 0, 2, 2), 4);
        assert_eq!(trailing_row(&g, 0, 7, 2), 8); // nothing left
                                                  // Grid column 1 owns block columns 1,3,5,7.
        assert_eq!(trailing_col(&g, 1, 0, 2), 0);
        assert_eq!(trailing_col(&g, 1, 1, 2), 2);
    }

    #[test]
    fn count_owned_basics() {
        assert_eq!(count_owned(0, 0, 2), 0);
        assert_eq!(count_owned(1, 0, 2), 1);
        assert_eq!(count_owned(1, 1, 2), 0);
        assert_eq!(count_owned(5, 0, 2), 3); // 0,2,4
        assert_eq!(count_owned(5, 1, 2), 2); // 1,3

        // A 4-cycle: coordinate 1 owns blocks 1 and 5, coordinate 0 owns
        // 0 and 4; `upto` on a multiple of the cycle included.
        assert_eq!(count_owned(1, 1, 4), 0);
        assert_eq!(count_owned(2, 1, 4), 1);
        assert_eq!(count_owned(6, 1, 4), 2);
        assert_eq!(count_owned(8, 1, 4), 2);
        assert_eq!(count_owned(1, 0, 4), 1);
        assert_eq!(count_owned(5, 0, 4), 2);
    }

    #[test]
    fn fill_matches_generator() {
        let gen = MatrixGen::new(3, 16, MatrixKind::DiagDominant);
        let grid = grid22();
        for rank in 0..4 {
            let coord = grid.coord_of(rank);
            let mut m = LocalMatrix::new(&grid, coord, 16, 2);
            m.fill_from(&gen);
            // Probe: global (i, j) owned by this rank must equal gen value.
            for gi in 0..16 {
                for gj in 0..16 {
                    let (ib, jb) = (gi / 2, gj / 2);
                    if ib % 2 == coord.0 && jb % 2 == coord.1 {
                        let li = m.row_of_block(ib) + gi % 2;
                        let lj = m.col_of_block(jb) + gj % 2;
                        assert_eq!(
                            m.data[m.idx(li, lj)],
                            gen.entry(gi, gj) as f32,
                            "rank {rank} global ({gi},{gj})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pack_block_roundtrip() {
        let gen = MatrixGen::new(9, 8, MatrixKind::DiagDominant);
        let grid = ProcessGrid::col_major(1, 1, 1);
        let mut m = LocalMatrix::new(&grid, (0, 0), 8, 4);
        m.fill_from(&gen);
        let blk = m.pack_block(4, 4);
        for j in 0..4 {
            for i in 0..4 {
                assert_eq!(blk[j * 4 + i], gen.entry(4 + i, 4 + j) as f32);
            }
        }
    }
}
