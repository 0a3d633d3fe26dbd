//! A minimal owned column-major matrix used by tests, examples, and the
//! functional-mode driver's local storage.

use mxp_precision::Real;

/// An owned column-major matrix with an explicit leading dimension.
///
/// The local matrix of each rank in the paper is allocated once with
/// `lda = N_L` and never reshaped (§III-C, §V-D discusses the performance
/// consequences of that fixed LDA); `Mat` mirrors that: `lda ≥ rows` is kept
/// for the lifetime of the allocation, and sub-views are expressed as
/// `(offset, lda)` pairs into the backing slice, exactly as the GPU code
/// passes sub-matrix pointers to cuBLAS/rocBLAS.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
    lda: usize,
}

impl<T: Copy + Default> Mat<T> {
    /// Zero-initialized `rows × cols` matrix with `lda = rows`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::zeros_lda(rows, cols, rows)
    }

    /// Zero-initialized matrix with an explicit leading dimension.
    pub fn zeros_lda(rows: usize, cols: usize, lda: usize) -> Self {
        assert!(lda >= rows, "lda {lda} < rows {rows}");
        let len = if cols == 0 {
            0
        } else {
            lda * (cols - 1) + rows
        };
        Mat {
            data: vec![T::default(); len],
            rows,
            cols,
            lda,
        }
    }

    /// Builds a matrix from an entry function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the backing storage.
    #[inline]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// Backing slice (column-major, stride `lda`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Linear offset of entry `(i, j)` in the backing slice.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        j * self.lda + i
    }

    /// Borrow of column `j`.
    pub fn col(&self, j: usize) -> &[T] {
        let start = self.idx(0, j);
        &self.data[start..start + self.rows]
    }

    /// Copies a rectangular block out of this matrix into a fresh
    /// tightly-packed `Mat` (`lda = block rows`).
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Mat<T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        let mut out = Mat::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                out[(i, j)] = self[(r0 + i, c0 + j)];
            }
        }
        out
    }
}

impl<R: Real> Mat<R> {
    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { R::ONE } else { R::ZERO })
    }

    /// Max-abs difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Mat<R>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f64;
        for j in 0..self.cols {
            for i in 0..self.rows {
                let d = (self[(i, j)].to_f64() - other[(i, j)].to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }
}

impl<T: Copy + Default> core::ops::Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[self.idx(i, j)]
    }
}

impl<T: Copy + Default> core::ops::IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        let k = self.idx(i, j);
        &mut self.data[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Mat::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn lda_padding() {
        let mut m = Mat::<f32>::zeros_lda(2, 3, 5);
        m[(1, 2)] = 7.0;
        assert_eq!(m.as_slice().len(), 5 * 2 + 2);
        assert_eq!(m.as_slice()[5 * 2 + 1], 7.0);
        assert_eq!(m.lda(), 5);
    }

    #[test]
    fn blocks_roundtrip() {
        let m = Mat::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 3, 2);
        assert_eq!(b[(0, 0)], m[(2, 3)]);
        assert_eq!(b[(2, 1)], m[(4, 4)]);
    }

    #[test]
    fn cols_and_identity() {
        let m = Mat::<f64>::identity(3);
        assert_eq!(m.col(1), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn max_abs_diff() {
        let a = Mat::<f64>::identity(2);
        let mut b = a.clone();
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    #[should_panic]
    fn bad_lda_panics() {
        let _ = Mat::<f64>::zeros_lda(4, 2, 3);
    }
}
