//! HPL-AI matrix and right-hand-side generation on top of the jump-ahead LCG.
//!
//! # Lanes
//!
//! A column of `A` is one contiguous stretch of the LCG stream. Drawn one
//! entry at a time the recurrence `x ← a·x + c` is latency-bound: each
//! 64-bit multiply waits on the last. Every fill therefore draws a column
//! as `LANES` = 32 interleaved streams. Lane `l` starts `l + 1` steps after
//! the column's start state and then steps `LANES` at a time, writing
//! entries `l`, `l + LANES`, `l + 2·LANES`, …. Both jumps are affine maps
//! from [`affine_pow`], tabulated at compile time. Integer stepping is
//! exact modulo 2⁶⁴ and the unit map is exact, so every entry is the value
//! the one-stream loop draws, bit for bit, on every host. The lanes are
//! independent, so the loop vectorizes (64-bit multiplies and int→f64
//! conversions across the lanes). The next column starts one
//! `affine_pow(n)` step after the previous one, so a fill pays one
//! O(log N²) jump per task, not one per column.
//!
//! # Parallelism
//!
//! Generation is embarrassingly parallel: every entry is a pure function of
//! its stream index, so the fills dispatch independent column groups (or
//! row chunks) across the rayon pool, each starting with its own jump.
//! Items never share state, so the parallel fills are **bitwise
//! identical** to the serial ones at every thread count.
//!
//! # Streaming
//!
//! [`MatrixGen::stream_cols`] hands a block column `A(:, cols)` to a
//! visitor one L1-sized row segment of one column at a time, so iterative
//! refinement's residual ([`MatrixGen::gemv_cols`]) and HPL's residual
//! check never hold `A`.

use crate::lcg::{affine_pow, u64_to_unit, Lcg};
use core::ops::Range;
use rayon::prelude::*;

/// Interleaved LCG streams per column. A plain const: the lane count
/// decides the order entries are computed in, never a value.
const LANES: usize = 32;

/// `affine_pow(l + 1)` for every lane `l`, as (multipliers, increments):
/// maps a column's start state to lane `l`'s first draw.
const LANE_START: ([u64; LANES], [u64; LANES]) = lane_starts();

/// One lane step: `LANES` LCG steps.
const LANE_STEP: (u64, u64) = affine_pow(LANES as u128);

const fn lane_starts() -> ([u64; LANES], [u64; LANES]) {
    let mut a = [0; LANES];
    let mut c = [0; LANES];
    let mut l = 0;
    while l < LANES {
        (a[l], c[l]) = affine_pow(l as u128 + 1);
        l += 1;
    }
    (a, c)
}

/// Entry count below which a fill runs serially: a task costs one
/// O(log N²) jump plus a pool dispatch, which a small tile's lane fill
/// does not earn back.
const MIN_PAR_ENTRIES: usize = 1 << 14;

/// Entries per parallel fill task — whole columns (at least one) of a
/// tile, or a fixed stretch of the right-hand side — so the task's one
/// jump stays small next to its draws. Fixed, so the work decomposition
/// itself (not just the values) is independent of the pool width.
const TASK_ENTRIES: usize = 1 << 13;

/// Rows per streamed segment: 4 KiB of drawn f64 entries, which stay in
/// L1 next to the visitor's matching rows while every column of the block
/// passes through.
const SEGMENT: usize = 512;

/// An element type the fills write: the FP64 draw, rounded once.
trait Elem: Copy + Send + Sync {
    fn from_f64(v: f64) -> Self;
}

impl Elem for f64 {
    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
}

impl Elem for f32 {
    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
}

/// Writes `out[r]` = the unit draw `r + 1` steps after LCG state `start`,
/// for every `r`, drawn in [`LANES`] interleaved lanes.
#[inline]
fn draw<T: Elem>(start: u64, out: &mut [T]) {
    let mut x = [0u64; LANES];
    for ((xl, &a), &c) in x.iter_mut().zip(&LANE_START.0).zip(&LANE_START.1) {
        *xl = start.wrapping_mul(a).wrapping_add(c);
    }
    let mut rows = out.chunks_exact_mut(LANES);
    for row in &mut rows {
        for (slot, xl) in row.iter_mut().zip(&mut x) {
            *slot = T::from_f64(u64_to_unit(*xl));
            *xl = xl.wrapping_mul(LANE_STEP.0).wrapping_add(LANE_STEP.1);
        }
    }
    for (slot, &xl) in rows.into_remainder().iter_mut().zip(&x) {
        *slot = T::from_f64(u64_to_unit(xl));
    }
}

/// How the diagonal of the generated matrix is constructed.
///
/// `Eq`/`Hash` because the kind participates in content-addressed cache
/// keys (generated matrices are pure functions of `(seed, n, kind)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixKind {
    /// The HPL-AI input class: off-diagonal entries uniform in `[-0.5, 0.5)`
    /// and diagonal `A(i,i) = n/2 + 1`, which makes `A` strictly diagonally
    /// dominant (each off-diagonal row sum is `< (n-1)/2`), so LU
    /// factorization without pivoting is backward stable — the property the
    /// benchmark's no-pivoting rule depends on (§II of the paper).
    DiagDominant,
    /// Pure uniform `[-0.5, 0.5)` entries everywhere. *Not* safe for
    /// unpivoted LU; provided as the negative control used by tests to show
    /// that the benchmark's conditioning requirement is load-bearing.
    Uniform,
}

/// Deterministic generator of the global HPL-AI system `A·x = b`.
///
/// Every entry is a pure function of `(i, j)` (column-major stream indexing),
/// so any rank can materialize any tile without communication, and the
/// iterative-refinement phase can regenerate `A` in FP64 on the fly.
///
/// ```
/// use mxp_lcg::{MatrixGen, MatrixKind};
/// let g = MatrixGen::new(42, 100, MatrixKind::DiagDominant);
/// // Pure: the same entry twice is identical.
/// assert_eq!(g.entry(3, 7), g.entry(3, 7));
/// // Diagonal dominance.
/// assert_eq!(g.entry(5, 5), 51.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MatrixGen {
    seed: u64,
    n: usize,
    kind: MatrixKind,
    /// `affine_pow(n)`: from column `j`'s state at some row to column
    /// `j + 1`'s state at the same row.
    col_step: (u64, u64),
}

impl MatrixGen {
    /// Creates a generator for an `n × n` system with the given seed.
    pub fn new(seed: u64, n: usize, kind: MatrixKind) -> Self {
        MatrixGen {
            seed,
            n,
            kind,
            col_step: affine_pow(n as u128),
        }
    }

    /// Global problem size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The diagonal value used by [`MatrixKind::DiagDominant`].
    #[inline]
    pub fn diag_value(&self) -> f64 {
        self.n as f64 / 2.0 + 1.0
    }

    /// Matrix entry `A(i,j)` in FP64.
    ///
    /// Stream position is `j·n + i` (column-major), so filling a column is a
    /// single jump followed by sequential draws.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        if i == j && self.kind == MatrixKind::DiagDominant {
            return self.diag_value();
        }
        let idx = j as u128 * self.n as u128 + i as u128;
        let mut g = Lcg::at(self.seed, idx);
        g.next_unit()
    }

    /// Right-hand-side entry `b(i)`, drawn from the stream region after the
    /// matrix (positions `n² + i`).
    #[inline]
    pub fn rhs(&self, i: usize) -> f64 {
        debug_assert!(i < self.n);
        let idx = self.n as u128 * self.n as u128 + i as u128;
        let mut g = Lcg::at(self.seed, idx);
        g.next_unit()
    }

    /// The LCG state whose next draw is stream position `j·n + i`: entry
    /// `A(i, j)`, or `b(i)` for `j = n`.
    #[inline]
    fn state_before(&self, i: usize, j: usize) -> u64 {
        Lcg::at(self.seed, j as u128 * self.n as u128 + i as u128).state()
    }

    /// Steps a state from column `j` to the same row of column `j + 1`.
    #[inline]
    fn next_col(&self, state: u64) -> u64 {
        state
            .wrapping_mul(self.col_step.0)
            .wrapping_add(self.col_step.1)
    }

    /// Draws `A(i0 .. i0 + col.len(), j)` from `state` (as returned by
    /// [`state_before`](Self::state_before)`(i0, j)`), diagonal included.
    #[inline]
    fn draw_col<T: Elem>(&self, state: u64, i0: usize, j: usize, col: &mut [T]) {
        draw(state, col);
        if self.kind == MatrixKind::DiagDominant {
            if let Some(slot) = j.checked_sub(i0).and_then(|d| col.get_mut(d)) {
                *slot = T::from_f64(self.diag_value());
            }
        }
    }

    /// The tile fill behind [`fill_tile`](Self::fill_tile) and
    /// [`fill_tile_f32`](Self::fill_tile_f32).
    fn fill<T: Elem>(&self, rows: Range<usize>, cols: Range<usize>, lda: usize, out: &mut [T]) {
        let m = rows.end - rows.start;
        assert!(rows.end <= self.n && cols.end <= self.n);
        assert!(lda >= m);
        let ncols = cols.len();
        if ncols == 0 || m == 0 {
            return;
        }
        assert!(out.len() >= (ncols - 1) * lda + m, "tile buffer too small");
        // Columns `c0..` of the tile, `lda` apart in `part`: one jump, then
        // one column step per column.
        let fill_cols = |c0: usize, part: &mut [T]| {
            let mut state = self.state_before(rows.start, cols.start + c0);
            for (dc, col) in part.chunks_mut(lda).enumerate() {
                self.draw_col(state, rows.start, cols.start + c0 + dc, &mut col[..m]);
                state = self.next_col(state);
            }
        };
        let body = &mut out[..(ncols - 1) * lda + m];
        if ncols > 1 && m * ncols >= MIN_PAR_ENTRIES && rayon::current_num_threads() > 1 {
            let per_task = TASK_ENTRIES.div_ceil(m);
            body.par_chunks_mut(per_task * lda)
                .enumerate()
                .for_each(|(t, part)| fill_cols(t * per_task, part));
        } else {
            fill_cols(0, body);
        }
    }

    /// Fills a column-major tile `out[r + c·lda] = A(rows.start + r,
    /// cols.start + c)` — the fast path used by ranks to materialize their
    /// local blocks. Entries between `rows.len()` and `lda` are untouched.
    pub fn fill_tile(&self, rows: Range<usize>, cols: Range<usize>, lda: usize, out: &mut [f64]) {
        self.fill(rows, cols, lda, out);
    }

    /// Same as [`fill_tile`](Self::fill_tile) but producing FP32, the
    /// precision the factorization works in after the initial cast.
    pub fn fill_tile_f32(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        lda: usize,
        out: &mut [f32],
    ) {
        self.fill(rows, cols, lda, out);
    }

    /// Fills `out[i] = b(rows.start + i)` for a contiguous row range.
    pub fn fill_rhs(&self, rows: Range<usize>, out: &mut [f64]) {
        assert!(rows.end <= self.n);
        let len = rows.len().min(out.len());
        // The right-hand side is stream column `n`.
        let fill_chunk = |i0: usize, chunk: &mut [f64]| draw(self.state_before(i0, self.n), chunk);
        if len >= MIN_PAR_ENTRIES && rayon::current_num_threads() > 1 {
            out[..len]
                .par_chunks_mut(TASK_ENTRIES)
                .enumerate()
                .for_each(|(ci, chunk)| fill_chunk(rows.start + ci * TASK_ENTRIES, chunk));
        } else {
            fill_chunk(rows.start, &mut out[..len]);
        }
    }

    /// Streams the block column `A(:, cols)` through `visit` without
    /// storing it.
    ///
    /// `out` holds one element per matrix row. `visit(c, a, out_seg)`
    /// receives `a = A(i0 .. i0 + len, cols.start + c)`, one row segment of
    /// at most 512 rows (sized for L1), together with the matching
    /// `out[i0 .. i0 + len]`. Within a segment the columns arrive in
    /// ascending order, so every output row sees its columns in the order a
    /// column-sweep GEMV accumulates them. Segments are independent and run
    /// on the rayon pool when the block is large enough; each output row
    /// belongs to one segment, so results are bitwise identical at any pool
    /// width.
    pub fn stream_cols<S, F>(&self, cols: Range<usize>, out: &mut [S], visit: F)
    where
        S: Send,
        F: Fn(usize, &[f64], &mut [S]) + Sync,
    {
        assert!(cols.end <= self.n);
        assert_eq!(out.len(), self.n, "one output element per matrix row");
        if cols.is_empty() || self.n == 0 {
            return;
        }
        let segment = |i0: usize, out_seg: &mut [S]| {
            let mut buf = [0.0f64; SEGMENT];
            let a = &mut buf[..out_seg.len()];
            let mut state = self.state_before(i0, cols.start);
            for c in 0..cols.len() {
                self.draw_col(state, i0, cols.start + c, a);
                visit(c, a, out_seg);
                state = self.next_col(state);
            }
        };
        if self.n > SEGMENT
            && self.n * cols.len() >= MIN_PAR_ENTRIES
            && rayon::current_num_threads() > 1
        {
            out.par_chunks_mut(SEGMENT)
                .enumerate()
                .for_each(|(s, out_seg)| segment(s * SEGMENT, out_seg));
        } else {
            for (s, out_seg) in out.chunks_mut(SEGMENT).enumerate() {
                segment(s * SEGMENT, out_seg);
            }
        }
    }

    /// `y ← y + A(:, cols)·x` with `A` regenerated on the fly and never
    /// stored — iterative refinement's residual product (Algorithm 1,
    /// line 38). `x` holds the `cols.len()` entries of `x(cols)`; `y` one
    /// entry per matrix row.
    ///
    /// Bitwise equal to filling the block column with
    /// [`fill_tile`](Self::fill_tile) and calling `mxp_blas::gemv` on it
    /// with `α = β = 1`: every `y[i]` takes `y ← fma(A(i, j), x_j, y)` for
    /// `j` ascending and skips the columns where `x_j == 0`.
    ///
    /// ```
    /// use mxp_lcg::{MatrixGen, MatrixKind};
    /// let g = MatrixGen::new(7, 3, MatrixKind::DiagDominant);
    /// let mut y = [0.0; 3];
    /// g.gemv_cols(1..2, &[2.0], &mut y);
    /// assert_eq!(y[1], 2.0 * g.diag_value());
    /// assert_eq!(y[0], 2.0 * g.entry(0, 1));
    /// ```
    pub fn gemv_cols(&self, cols: Range<usize>, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), cols.len(), "one x entry per column");
        self.stream_cols(cols, y, |c, a, y| {
            let xj = x[c];
            if xj != 0.0 {
                for (yi, &aij) in y.iter_mut().zip(a) {
                    *yi = aij.mul_add(xj, *yi);
                }
            }
        });
    }

    /// Infinity norm of the diagonal, `‖diag(A)‖∞`, needed by the paper's
    /// iterative-refinement stopping criterion (Algorithm 1, line 44).
    pub fn diag_inf_norm(&self) -> f64 {
        match self.kind {
            MatrixKind::DiagDominant => self.diag_value(),
            MatrixKind::Uniform => {
                // No closed form; scan (only used in tests at small n).
                (0..self.n)
                    .map(|i| self.entry(i, i).abs())
                    .fold(0.0, f64::max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Mutex, MutexGuard};

    /// Sets `RAYON_NUM_THREADS` for one test, serialised with every other
    /// test here that sets it, and restores the prior value on drop.
    struct Width {
        prior: Option<String>,
        _serial: MutexGuard<'static, ()>,
    }

    fn width(n: usize) -> Width {
        static SERIAL: Mutex<()> = Mutex::new(());
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let prior = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
        Width {
            prior,
            _serial: serial,
        }
    }

    impl Drop for Width {
        fn drop(&mut self) {
            match &self.prior {
                Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
        }
    }

    /// The one-stream draw the lanes replaced: `x ← a·x + c`, then the top
    /// 53 bits scaled to `[0, 1)` and shifted by one half.
    fn unit_reference(g: &mut Lcg) -> f64 {
        (g.next_u64() >> 11) as f64 * (1.0 / 9007199254740992.0) - 0.5
    }

    /// The per-column fill the lane fills replaced, kept as their bitwise
    /// oracle: one jump per column, then one LCG step per entry.
    fn fill_reference<T: Elem>(
        g: &MatrixGen,
        rows: Range<usize>,
        cols: Range<usize>,
        lda: usize,
        out: &mut [T],
    ) {
        for (c, col) in out.chunks_mut(lda).take(cols.len()).enumerate() {
            let j = cols.start + c;
            let base = j as u128 * g.n as u128 + rows.start as u128;
            let mut s = Lcg::at(g.seed, base);
            for (r, slot) in col.iter_mut().take(rows.len()).enumerate() {
                let v = unit_reference(&mut s);
                let i = rows.start + r;
                *slot = if i == j && g.kind == MatrixKind::DiagDominant {
                    T::from_f64(g.diag_value())
                } else {
                    T::from_f64(v)
                };
            }
        }
    }

    /// The one-stream right-hand-side fill, the oracle for `fill_rhs`.
    fn rhs_reference(g: &MatrixGen, rows: Range<usize>) -> Vec<f64> {
        let base = g.n as u128 * g.n as u128 + rows.start as u128;
        let mut s = Lcg::at(g.seed, base);
        rows.map(|_| unit_reference(&mut s)).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Frontier headline run's N (its stream spans ~4.2·10¹⁴ entries).
    const FRONTIER_N: usize = 20_606_976;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Lane fills equal the one-stream loop bit for bit: f64 and f32,
        /// both kinds, m ∈ {1, L−1, L, L+1, random}, row and column
        /// offsets (crossing the diagonal or not), padded `lda` (whose
        /// padding must stay untouched), a small N, the Frontier N and an
        /// N whose stream indices pass 2⁶⁴, at pool widths 1 and 4 (tiles
        /// up to ~40k entries, so both the serial and the parallel paths
        /// run).
        #[test]
        fn lane_fills_bitwise_equal_the_one_stream_loop(
            seed: u64,
            m_pick in 0usize..5,
            m_rand in 1usize..400,
            ncols in 1usize..100,
            pad in prop::sample::select(vec![0usize, 1, 37]),
            r_off in 0usize..200,
            c_off in 0usize..200,
            n_pick in 0usize..3,
            uniform: bool,
            wide: bool,
        ) {
            let m = [1, LANES - 1, LANES, LANES + 1, m_rand][m_pick];
            let lda = m + pad;
            let kind = if uniform { MatrixKind::Uniform } else { MatrixKind::DiagDominant };
            let (n, r0, c0) = match n_pick {
                0 => ((m + r_off).max(ncols + c_off) + 3, r_off, c_off),
                // Offsets from the far end: the last columns of the stream.
                _ => {
                    let n = if n_pick == 1 { FRONTIER_N } else { (1 << 33) + 7 };
                    (n, n - m - r_off, n - ncols - c_off)
                }
            };
            if n_pick == 2 {
                prop_assert!((c0 as u128) * (n as u128) > u64::MAX as u128);
            }
            let g = MatrixGen::new(seed, n, kind);
            let len = (ncols - 1) * lda + m + pad;
            let _w = width(if wide { 4 } else { 1 });

            let mut want = vec![f64::NAN; len];
            fill_reference(&g, r0..r0 + m, c0..c0 + ncols, lda, &mut want);
            let mut got = vec![f64::NAN; len];
            g.fill_tile(r0..r0 + m, c0..c0 + ncols, lda, &mut got);
            prop_assert!(bits64(&got) == bits64(&want), "fill_tile diverged");

            let mut want = vec![f32::NAN; len];
            fill_reference(&g, r0..r0 + m, c0..c0 + ncols, lda, &mut want);
            let mut got = vec![f32::NAN; len];
            g.fill_tile_f32(r0..r0 + m, c0..c0 + ncols, lda, &mut got);
            prop_assert!(bits32(&got) == bits32(&want), "fill_tile_f32 diverged");
        }

        /// `fill_rhs` equals the one-stream loop bit for bit, lane-count
        /// edge lengths and lengths past the parallel floor included.
        #[test]
        fn lane_rhs_bitwise_equals_the_one_stream_loop(
            seed: u64,
            len_pick in 0usize..5,
            len_rand in 1usize..40_000,
            r_off in 0usize..5_000,
            n_pick in 0usize..2,
            wide: bool,
        ) {
            let len = [1, LANES - 1, LANES, LANES + 1, len_rand][len_pick];
            let (n, r0) = if n_pick == 0 {
                (len + r_off, r_off)
            } else {
                let n = (1 << 33) + 7;
                (n, n - len - r_off)
            };
            let g = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
            let _w = width(if wide { 4 } else { 1 });
            let mut got = vec![f64::NAN; len];
            g.fill_rhs(r0..r0 + len, &mut got);
            prop_assert!(bits64(&got) == bits64(&rhs_reference(&g, r0..r0 + len)));
        }
    }

    #[test]
    fn lane_tables_are_the_affine_powers() {
        for l in 0..LANES {
            assert_eq!(
                (LANE_START.0[l], LANE_START.1[l]),
                affine_pow(l as u128 + 1)
            );
        }
        assert_eq!(LANE_STEP, affine_pow(LANES as u128));
        let mut seq = Lcg::new(5);
        for _ in 0..LANES {
            seq.next_u64();
        }
        assert_eq!(
            5u64.wrapping_mul(LANE_STEP.0).wrapping_add(LANE_STEP.1),
            seq.state()
        );
    }

    #[test]
    fn streamed_segments_cover_the_block_column() {
        // Not a multiple of the segment length, so the last segment is short.
        let n = 2 * SEGMENT + 77;
        let g = MatrixGen::new(31, n, MatrixKind::DiagDominant);
        let cols = 600..603;
        let mut tile = vec![0.0f64; n * cols.len()];
        g.fill_tile(0..n, cols.clone(), n, &mut tile);
        for w in [1, 4] {
            let _w = width(w);
            let mut copy = vec![vec![f64::NAN; cols.len()]; n];
            g.stream_cols(cols.clone(), &mut copy, |c, a, rows| {
                for (row, &v) in rows.iter_mut().zip(a) {
                    row[c] = v;
                }
            });
            for (i, row) in copy.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), tile[c * n + i].to_bits(), "A({i}, {c})");
                }
            }
        }
    }

    #[test]
    fn entries_are_pure() {
        let g = MatrixGen::new(7, 64, MatrixKind::DiagDominant);
        for i in [0usize, 5, 63] {
            for j in [0usize, 5, 63] {
                assert_eq!(g.entry(i, j), g.entry(i, j));
            }
        }
    }

    #[test]
    fn offdiag_in_range() {
        let g = MatrixGen::new(3, 32, MatrixKind::DiagDominant);
        for i in 0..32 {
            for j in 0..32 {
                if i != j {
                    let v = g.entry(i, j);
                    assert!((-0.5..0.5).contains(&v), "A({i},{j}) = {v}");
                }
            }
        }
    }

    #[test]
    fn strictly_diagonally_dominant() {
        let n = 48;
        let g = MatrixGen::new(11, n, MatrixKind::DiagDominant);
        for i in 0..n {
            let row_sum: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| g.entry(i, j).abs())
                .sum();
            assert!(
                g.entry(i, i) > row_sum,
                "row {i} not dominant: diag {} vs sum {row_sum}",
                g.entry(i, i)
            );
        }
    }

    #[test]
    fn uniform_kind_has_random_diagonal() {
        let g = MatrixGen::new(11, 16, MatrixKind::Uniform);
        assert!(g.entry(4, 4).abs() < 0.5);
    }

    #[test]
    fn tile_matches_entry() {
        let n = 40;
        let g = MatrixGen::new(99, n, MatrixKind::DiagDominant);
        let (r0, r1, c0, c1) = (5, 17, 30, 38);
        let lda = 16;
        let mut tile = vec![0.0f64; lda * (c1 - c0)];
        g.fill_tile(r0..r1, c0..c1, lda, &mut tile);
        for j in c0..c1 {
            for i in r0..r1 {
                assert_eq!(tile[(j - c0) * lda + (i - r0)], g.entry(i, j));
            }
        }
    }

    #[test]
    fn tile_f32_matches_entry() {
        let n = 24;
        let g = MatrixGen::new(5, n, MatrixKind::DiagDominant);
        let mut tile = vec![0.0f32; 24 * 24];
        g.fill_tile_f32(0..n, 0..n, n, &mut tile);
        for j in 0..n {
            for i in 0..n {
                assert_eq!(tile[j * n + i], g.entry(i, j) as f32);
            }
        }
    }

    #[test]
    fn tile_crossing_diagonal() {
        let n = 20;
        let g = MatrixGen::new(1, n, MatrixKind::DiagDominant);
        let mut tile = vec![0.0f64; n * n];
        g.fill_tile(0..n, 0..n, n, &mut tile);
        for i in 0..n {
            assert_eq!(tile[i * n + i], g.diag_value());
        }
    }

    #[test]
    fn rhs_matches_bulk_fill() {
        let n = 33;
        let g = MatrixGen::new(77, n, MatrixKind::DiagDominant);
        let mut all = vec![0.0; n];
        g.fill_rhs(0..n, &mut all);
        for (i, &v) in all.iter().enumerate() {
            assert_eq!(v, g.rhs(i));
        }
        // RHS must differ from matrix entries (distinct stream region).
        assert_ne!(g.rhs(0), g.entry(0, 0));
    }

    #[test]
    fn different_seeds_give_different_matrices() {
        let a = MatrixGen::new(1, 16, MatrixKind::DiagDominant);
        let b = MatrixGen::new(2, 16, MatrixKind::DiagDominant);
        assert_ne!(a.entry(0, 1), b.entry(0, 1));
    }

    #[test]
    fn parallel_fill_is_bitwise_identical_to_serial() {
        // Shapes chosen to cross MIN_PAR_ENTRIES so the parallel dispatch
        // actually runs under threads=4; equality must be exact (bitwise),
        // not approximate.
        let n = 256;
        let g = MatrixGen::new(1234, n, MatrixKind::DiagDominant);
        let big = MatrixGen::new(99, 20_000, MatrixKind::DiagDominant);
        let run = |threads: usize| {
            let _w = width(threads);
            let mut tile = vec![0.0f64; n * n];
            g.fill_tile(0..n, 0..n, n, &mut tile);
            let mut tile32 = vec![0.0f32; n * n];
            g.fill_tile_f32(0..n, 0..n, n, &mut tile32);
            let mut rhs = vec![0.0f64; 20_000];
            big.fill_rhs(0..20_000, &mut rhs);
            (tile, tile32, rhs)
        };
        let serial = run(1);
        let par = run(4);
        assert!(serial.0 == par.0, "fill_tile diverged across thread counts");
        assert!(
            serial.1 == par.1,
            "fill_tile_f32 diverged across thread counts"
        );
        assert!(serial.2 == par.2, "fill_rhs diverged across thread counts");
        // Sanity: the parallel fill still matches the pure entry function.
        assert_eq!(par.0[5 * n + 3], g.entry(3, 5));
        assert_eq!(par.2[12_345], big.rhs(12_345));
    }

    #[test]
    fn large_n_entry_access_is_fast_enough() {
        // O(log(N²)) jumps even for the Frontier-scale N; this would hang if
        // access were O(N²).
        let g = MatrixGen::new(9, FRONTIER_N, MatrixKind::DiagDominant);
        let v = g.entry(20_000_000, 123_456);
        assert!((-0.5..0.5).contains(&v));
    }
}
