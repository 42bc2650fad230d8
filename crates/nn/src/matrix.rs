//! A small row-major `f64` matrix.
//!
//! Scoped to what the layers need: a register-tiled forward product, the
//! two register-tiled backward products of the dense layer, and
//! element-wise helpers. Networks in this system are hundreds of units wide
//! at most, so a hand-rolled kernel comfortably beats the overhead of
//! pulling in a BLAS.
//!
//! The forward product (`matmul_rows`, behind [`Matrix::matmul_into`] and
//! the dense layer) produces each output row in column tiles whose
//! accumulators stay in registers while the row's nonzero inputs sweep
//! past. Its tile helpers (`Tiled`, `for_each_tile`, `axpy`) also drive the
//! convolution kernel and both backward products:
//! [`Matrix::t_matmul_acc`] adds the weight gradient `x^T g` onto an
//! existing gradient in place, and [`Matrix::matmul_t_into`] computes the
//! input gradient `g W^T` a tile of output rows at a time.
//!
//! Every kernel keeps the reduction index ascending per output element.
//! The two that sum products of an input (`matmul_rows`, `t_matmul_acc`)
//! skip exactly the `a == 0.0` terms, and `matmul_t_into` skips none, so
//! each is bit-identical to the straightforward scalar loop (asserted by
//! property tests below, including every ragged tile remainder).

use serde::{Deserialize, Serialize};

/// Row-block size of [`matmul_rows`] (output rows per block).
const BLOCK_ROWS: usize = 32;

/// Widest register tile of the tiled kernels, in `f64` lanes: eight SSE2
/// registers of accumulators, leaving registers free for the broadcast
/// input and the weight load.
const TILE: usize = 16;

/// Reduction chunk of [`matmul_rows`]: the nonzero inputs of this many
/// reduction indices are gathered at a time into stack buffers, and the
/// matching `GATHER x n` panel of the right operand (32 KB at width 128)
/// stays in L1 while a block of [`BLOCK_ROWS`] rows sweeps it.
const GATHER: usize = 32;

/// A kernel evaluated over column tiles of compile-time width `T`, so the
/// tile's accumulators are a fixed-size array the compiler keeps in
/// registers.
pub(crate) trait Tiled {
    /// Computes output columns `j0..j0 + T`.
    fn tile<const T: usize>(&mut self, j0: usize);
}

/// Covers columns `0..n` with [`TILE`]-wide tiles, then at most one tile
/// each of 8, 4, 2 and 1 lanes for the remainder.
#[inline(always)]
pub(crate) fn for_each_tile(n: usize, kernel: &mut impl Tiled) {
    let mut j0 = 0;
    while n - j0 >= TILE {
        kernel.tile::<TILE>(j0);
        j0 += TILE;
    }
    if n - j0 >= 8 {
        kernel.tile::<8>(j0);
        j0 += 8;
    }
    if n - j0 >= 4 {
        kernel.tile::<4>(j0);
        j0 += 4;
    }
    if n - j0 >= 2 {
        kernel.tile::<2>(j0);
        j0 += 2;
    }
    if n - j0 >= 1 {
        kernel.tile::<1>(j0);
    }
}

/// `acc[j] += x * w[j]` for every lane: the one multiply-add of the forward
/// kernels. Multiply and add round separately (Rust never contracts them
/// into an FMA), so each lane computes exactly what the scalar loop does.
#[inline(always)]
pub(crate) fn axpy<const T: usize>(acc: &mut [f64; T], x: f64, w: &[f64]) {
    for (a, &wv) in acc.iter_mut().zip(&w[..T]) {
        *a += x * wv;
    }
}

/// `out = a @ b (+ bias)` over row-major slices: `a` holds whole rows of
/// width `k`, `b` is `k x n`, and `out` receives the matching rows of width
/// `n`, every element overwritten. The forward product kernel of
/// [`Matrix::matmul_into`] and the dense layer.
///
/// Rows go in blocks of [`BLOCK_ROWS`]; for each [`GATHER`]-wide reduction
/// chunk, each row of the block gathers its nonzero inputs once
/// (branch-free), then every column tile sweeps them with its accumulators
/// in registers, carrying partial sums across chunks through `out`. Per
/// output element the reduction therefore starts at `0.0`, runs in
/// ascending order and skips exactly the `a == 0.0` terms, with the bias
/// added after the full sum: bit-identical to the scalar ikj loop followed
/// by a bias add.
pub(crate) fn matmul_rows(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    bias: Option<&[f64]>,
    out: &mut [f64],
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        for row in out.chunks_exact_mut(n) {
            row.fill(0.0);
            if let Some(bias) = bias {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        return;
    }
    let mut offs = [0usize; GATHER];
    let mut vals = [0.0f64; GATHER];
    for (a_blk, out_blk) in a.chunks(BLOCK_ROWS * k).zip(out.chunks_mut(BLOCK_ROWS * n)) {
        for pb in (0..k).step_by(GATHER) {
            let last = pb + GATHER >= k;
            for (a_row, out_row) in a_blk.chunks_exact(k).zip(out_blk.chunks_exact_mut(n)) {
                let mut nnz = 0;
                for (off, &x) in a_row[pb..(pb + GATHER).min(k)].iter().enumerate() {
                    offs[nnz] = (pb + off) * n;
                    vals[nnz] = x;
                    nnz += usize::from(x != 0.0);
                }
                let mut tile = RowTile {
                    offs: &offs[..nnz],
                    vals: &vals[..nnz],
                    b,
                    out: out_row,
                    first: pb == 0,
                    bias: if last { bias } else { None },
                };
                for_each_tile(n, &mut tile);
            }
        }
    }
}

/// One reduction chunk of one output row of [`matmul_rows`].
struct RowTile<'a> {
    /// `p * n` for each gathered nonzero input `p`.
    offs: &'a [usize],
    vals: &'a [f64],
    b: &'a [f64],
    out: &'a mut [f64],
    /// The first chunk starts from `0.0`; later ones resume from `out`.
    first: bool,
    /// Added once the last chunk completes the sum.
    bias: Option<&'a [f64]>,
}

impl Tiled for RowTile<'_> {
    #[inline(always)]
    fn tile<const T: usize>(&mut self, j0: usize) {
        let dst = &mut self.out[j0..j0 + T];
        let mut acc = [0.0; T];
        if !self.first {
            acc.copy_from_slice(dst);
        }
        for (&off, &x) in self.offs.iter().zip(self.vals) {
            axpy(&mut acc, x, &self.b[off + j0..]);
        }
        if let Some(bias) = self.bias {
            for (a, &bv) in acc.iter_mut().zip(&bias[j0..j0 + T]) {
                *a += bv;
            }
        }
        dst.copy_from_slice(&acc);
    }
}

/// One output column `j` of [`Matrix::matmul_t_into`] over a tile of
/// output rows.
struct DotTile<'a> {
    /// The left operand transposed: `k x m`.
    a_t: &'a [f64],
    m: usize,
    /// Row `j` of the right operand.
    b_row: &'a [f64],
    /// The `m x n` output.
    out: &'a mut [f64],
    n: usize,
    j: usize,
}

impl Tiled for DotTile<'_> {
    #[inline(always)]
    fn tile<const T: usize>(&mut self, i0: usize) {
        let mut acc = [0.0; T];
        for (p, &b) in self.b_row.iter().enumerate() {
            // `b * a` is `a * b`: IEEE multiplication commutes exactly.
            axpy(&mut acc, b, &self.a_t[p * self.m + i0..]);
        }
        for (t, &v) in acc.iter().enumerate() {
            self.out[(i0 + t) * self.n + self.j] = v;
        }
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major buffer. Panics on length mismatch.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds from nested rows. Panics if rows are ragged.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Matrix {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in &rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: n_rows, cols: n_cols, data }
    }

    /// A `1 x n` row vector.
    #[must_use]
    pub fn row_vector(values: &[f64]) -> Matrix {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor. Panics when out of bounds (debug-friendly; hot
    /// paths use row slices instead).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element setter. Panics when out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows x cols` and zero-fills, reusing the backing
    /// allocation when its capacity suffices. The `_into` kernels call this
    /// on their destination, so a hoisted scratch matrix allocates once and
    /// is reused every decision day.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` without clearing, for a destination the
    /// caller then overwrites in full: surviving elements keep stale values
    /// instead of paying for a zero-fill pass.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Becomes a copy of `src`, reusing the backing allocation when its
    /// capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `self @ other` (`m x k` times `k x n`).
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` into `out`, reusing `out`'s allocation.
    ///
    /// Register-tiled (see `matmul_rows`); per output element the
    /// reduction runs in ascending order with the `a == 0.0` skip, so the
    /// result is bit-identical to the plain ikj scalar loop.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reshape_for_overwrite(self.rows, other.cols);
        matmul_rows(&self.data, self.cols, &other.data, other.cols, None, &mut out.data);
    }

    /// `out += self^T @ other` without materializing the transpose
    /// (`m x k`^T times `m x n` accumulated onto `k x n`); the weight
    /// gradient `dW += x^T g` of the dense layer.
    ///
    /// Per output element the rows of `self` and `other` add in ascending
    /// order on top of its current value, skipping every `a == 0.0` term:
    /// bit-identical to `m` single-row accumulations in order, whatever
    /// `out` held. For each output row a `GATHER`-wide chunk of input
    /// rows gathers its nonzeros once, then every column tile sweeps them
    /// with its accumulators in registers.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        assert_eq!(out.shape(), (self.cols, other.cols), "t_matmul output shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if n == 0 {
            return;
        }
        let mut offs = [0usize; GATHER];
        let mut vals = [0.0f64; GATHER];
        for (p, out_row) in out.data.chunks_exact_mut(n).enumerate() {
            for ib in (0..m).step_by(GATHER) {
                let mut nnz = 0;
                for i in ib..(ib + GATHER).min(m) {
                    let x = self.data[i * k + p];
                    offs[nnz] = i * n;
                    vals[nnz] = x;
                    nnz += usize::from(x != 0.0);
                }
                let mut tile = RowTile {
                    offs: &offs[..nnz],
                    vals: &vals[..nnz],
                    b: &other.data,
                    out: out_row,
                    first: false,
                    bias: None,
                };
                for_each_tile(n, &mut tile);
            }
        }
    }

    /// `self @ other^T` without materializing the transpose
    /// (`m x k` times `n x k`^T -> `m x n`); used for input gradients.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `self @ other^T` into `out`, reusing `out`'s allocation.
    ///
    /// Each output element is a dot product that starts at `0.0` and adds
    /// every term (no zero skip) in ascending reduction order, bit-identical
    /// to the scalar loop. The kernel copies `self` transposed into a small
    /// scratch, then for each output column (a row of `other`) computes a
    /// tile of up to `TILE` output rows at once, one independent register
    /// accumulator per row, while that row of `other` streams past once.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if k == 0 {
            out.reset(m, n);
            return;
        }
        out.reshape_for_overwrite(m, n);
        let mut a_t = vec![0.0; k * m];
        for (i, row) in self.data.chunks_exact(k).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                a_t[p * m + i] = v;
            }
        }
        for (j, b_row) in other.data.chunks_exact(k).enumerate() {
            let mut tile = DotTile { a_t: &a_t, m, b_row, out: &mut out.data, n, j };
            for_each_tile(m, &mut tile);
        }
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map into `out`, reusing `out`'s allocation.
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        out.reshape_for_overwrite(self.rows, self.cols);
        for (o, &v) in out.data.iter_mut().zip(&self.data) {
            *o = f(v);
        }
    }

    /// Element-wise product (Hadamard). Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Horizontal concatenation `[self | other]`. Panics unless row counts
    /// match.
    #[must_use]
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hconcat_into(other, &mut out);
        out
    }

    /// Horizontal concatenation `[self | other]` into `out`, reusing
    /// `out`'s allocation. Panics unless row counts match.
    pub fn hconcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hconcat row mismatch");
        let cols = self.cols + other.cols;
        out.reset(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
    }

    /// Splits columns at `at` into `(left, right)` output buffers, reusing
    /// their allocations. Panics if `at > cols`.
    pub fn hsplit_into(&self, at: usize, left: &mut Matrix, right: &mut Matrix) {
        assert!(at <= self.cols, "split point beyond columns");
        left.reset(self.rows, at);
        right.reset(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
    }

    /// Splits columns at `at`: returns (`[.., :at]`, `[.., at:]`).
    /// Panics if `at > cols`.
    #[must_use]
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        let mut left = Matrix::default();
        let mut right = Matrix::default();
        self.hsplit_into(at, &mut left, &mut right);
        (left, right)
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// A deterministic pseudo-random matrix in `[-1, 1)` with a sprinkling of
/// exact `0.0` and `-0.0`, so the zero-skip paths and signed-zero
/// arithmetic are exercised.
#[cfg(test)]
pub(crate) fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Matrix::zeros(rows, cols);
    for v in out.as_mut_slice() {
        let bits = next();
        *v = match bits % 11 {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => ((bits >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
        };
    }
    out
}

/// Whether `a` and `b` have the same shape and the same bits in every
/// element (`==` would equate `0.0` with `-0.0`).
#[cfg(test)]
pub(crate) fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && a.data.iter().zip(&b.data).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn construction_and_accessors() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        let mut b = a.clone();
        b.set(0, 0, 9.0);
        assert_eq!(b.get(0, 0), 9.0);
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let eye = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(f64::from).collect::<Vec<_>>());
        let mut out = Matrix::zeros(2, 4);
        a.t_matmul_acc(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));
        // A second call accumulates on top of the first.
        a.t_matmul_acc(&b, &mut out);
        let mut twice = Matrix::default();
        a.transpose().matmul(&b).map_into(|v| 2.0 * v, &mut twice);
        assert_eq!(out, twice);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(f64::from).collect::<Vec<_>>());
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_is_elementwise_product() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        assert_eq!(a.hadamard(&b), m(1, 3, &[10.0, 40.0, 90.0]));
    }

    #[test]
    fn hconcat_then_hsplit_round_trips() {
        let a = m(2, 2, &[1.0, 2.0, 5.0, 6.0]);
        let b = m(2, 3, &[3.0, 4.0, 4.5, 7.0, 8.0, 8.5]);
        let joined = a.hconcat(&b);
        assert_eq!(joined.shape(), (2, 5));
        let (left, right) = joined.hsplit(2);
        assert_eq!(left, a);
        assert_eq!(right, b);
    }

    #[test]
    fn hsplit_edges() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let (l, r) = a.hsplit(0);
        assert_eq!(l.shape(), (1, 0));
        assert_eq!(r, a);
        let (l, r) = a.hsplit(3);
        assert_eq!(l, a);
        assert_eq!(r.shape(), (1, 0));
    }

    #[test]
    fn map_applies_elementwise() {
        let a = m(1, 3, &[-1.0, 0.0, 2.0]);
        let mut out = Matrix::default();
        a.map_into(|v| v.max(0.0), &mut out);
        assert_eq!(out, m(1, 3, &[0.0, 0.0, 2.0]));
    }

    #[test]
    fn norm_is_frobenius() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
    }

    /// The straightforward scalar ikj matmul the blocked kernel must match
    /// bit-for-bit (same ascending reduction order, same zero skip).
    fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let av = a.get(i, p);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.set(i, j, out.get(i, j) + av * b.get(p, j));
                }
            }
        }
        out
    }

    /// `start + a^T b` as `m` single-row accumulations in row order, each
    /// adding its nonzero-input products in place.
    fn scalar_t_matmul_acc(a: &Matrix, b: &Matrix, start: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = start.clone();
        for i in 0..m {
            for p in 0..k {
                let av = a.get(i, p);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.set(p, j, out.get(p, j) + av * b.get(i, j));
                }
            }
        }
        out
    }

    fn scalar_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(j, p);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn blocked_kernels_match_scalar_across_block_boundaries() {
        // Shapes straddle the 32/64 block edges: exact multiples, one-off
        // ragged tails, and degenerate single-row/column cases.
        let shapes =
            [(1, 1, 1), (32, 64, 32), (33, 65, 31), (5, 130, 3), (64, 64, 64), (70, 1, 70)];
        for &(m, k, n) in &shapes {
            let a = filled(m, k, (m * 1000 + k) as u64);
            let b = filled(k, n, (k * 1000 + n) as u64);
            assert_eq!(a.matmul(&b), scalar_matmul(&a, &b), "matmul {m}x{k}x{n}");
            let bt = filled(m, n, (m + n) as u64);
            let start = filled(k, n, (k + n) as u64);
            let mut acc = start.clone();
            a.t_matmul_acc(&bt, &mut acc);
            let expect = scalar_t_matmul_acc(&a, &bt, &start);
            assert!(same_bits(&acc, &expect), "t_matmul {m}x{k}x{n}");
            let bn = filled(n, k, (n * 31 + k) as u64);
            assert!(same_bits(&a.matmul_t(&bn), &scalar_matmul_t(&a, &bn)), "matmul_t {m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_backward_kernels_cover_every_tile_remainder() {
        // Both backward kernels tile one dimension by 16, 8, 4, 2 and 1
        // lanes: `matmul_t_into` the output rows, `t_matmul_acc` the output
        // columns. Every count up to 40 exercises every tail combination,
        // and rows past 32 cross the gather chunk of `t_matmul_acc`.
        for lanes in 1..=40 {
            let a = filled(lanes, 9, lanes as u64);
            let b = filled(7, 9, lanes as u64 + 100);
            assert!(same_bits(&a.matmul_t(&b), &scalar_matmul_t(&a, &b)), "matmul_t m={lanes}");
            let x = filled(lanes, 5, lanes as u64 + 200);
            let g = filled(lanes, lanes, lanes as u64 + 300);
            let start = filled(5, lanes, lanes as u64 + 400);
            let mut acc = start.clone();
            x.t_matmul_acc(&g, &mut acc);
            assert!(same_bits(&acc, &scalar_t_matmul_acc(&x, &g, &start)), "t_matmul n={lanes}");
        }
    }

    #[test]
    fn into_kernels_reuse_dirty_buffers() {
        let a = filled(9, 40, 7);
        let b = filled(40, 11, 8);
        let mut out = filled(70, 3, 9); // wrong shape, nonzero garbage
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_t_into(&filled(5, 40, 11), &mut out);
        assert_eq!(out, a.matmul_t(&filled(5, 40, 11)));
    }

    #[test]
    fn reset_and_copy_from_reuse_allocations() {
        let mut m = Matrix::zeros(4, 4);
        m.set(0, 0, 3.0);
        m.reset(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        let src = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    fn elementwise_into_variants_match_owned() {
        let a = filled(3, 5, 21);
        let b = filled(3, 4, 22);
        let mut out = Matrix::default();
        a.map_into(|v| v.max(0.0), &mut out);
        let relu: Vec<f64> = a.as_slice().iter().map(|v| v.max(0.0)).collect();
        assert_eq!(out, m(3, 5, &relu));
        a.hconcat_into(&b, &mut out);
        assert_eq!(out, a.hconcat(&b));
        let (mut l, mut r) = (Matrix::default(), Matrix::default());
        out.hsplit_into(5, &mut l, &mut r);
        assert_eq!((l, r), (a, b));
    }

    proptest! {
        #[test]
        fn blocked_matmul_bit_identical_to_scalar(
            m in 1usize..40, k in 1usize..300, n in 1usize..40, seed in 0u64..1000,
        ) {
            let a = filled(m, k, seed);
            let b = filled(k, n, seed.wrapping_add(1));
            prop_assert!(same_bits(&a.matmul(&b), &scalar_matmul(&a, &b)));
        }

        #[test]
        fn blocked_t_matmul_bit_identical_to_scalar(
            m in 1usize..70, k in 1usize..80, n in 1usize..40, seed in 0u64..1000,
        ) {
            // Accumulates onto a nonzero start, which the single-row form
            // must match too.
            let a = filled(m, k, seed);
            let b = filled(m, n, seed.wrapping_add(2));
            let start = filled(k, n, seed.wrapping_add(4));
            let mut acc = start.clone();
            a.t_matmul_acc(&b, &mut acc);
            prop_assert!(same_bits(&acc, &scalar_t_matmul_acc(&a, &b, &start)));
        }

        #[test]
        fn blocked_matmul_t_bit_identical_to_scalar(
            m in 1usize..40, k in 1usize..80, n in 1usize..40, seed in 0u64..1000,
        ) {
            let a = filled(m, k, seed);
            let b = filled(n, k, seed.wrapping_add(3));
            prop_assert!(same_bits(&a.matmul_t(&b), &scalar_matmul_t(&a, &b)));
        }

        #[test]
        fn matmul_associates_with_vector(
            a_vals in proptest::collection::vec(-3.0f64..3.0, 6),
            b_vals in proptest::collection::vec(-3.0f64..3.0, 6),
            v_vals in proptest::collection::vec(-3.0f64..3.0, 2),
        ) {
            // (A B) v == A (B v) for 2x3, 3x2, 2x1.
            let a = m(2, 3, &a_vals);
            let b = m(3, 2, &b_vals);
            let v = m(2, 1, &v_vals);
            let left = a.matmul(&b).matmul(&v);
            let right = a.matmul(&b.matmul(&v));
            for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn matmul_distributes_over_add(
            a_vals in proptest::collection::vec(-3.0f64..3.0, 4),
            b_vals in proptest::collection::vec(-3.0f64..3.0, 4),
            c_vals in proptest::collection::vec(-3.0f64..3.0, 4),
        ) {
            let a = m(2, 2, &a_vals);
            let b = m(2, 2, &b_vals);
            let c = m(2, 2, &c_vals);
            let add = |x: &Matrix, y: &Matrix| {
                m(2, 2, &x.as_slice().iter().zip(y.as_slice()).map(|(p, q)| p + q).collect::<Vec<_>>())
            };
            let left = a.matmul(&add(&b, &c));
            let right = add(&a.matmul(&b), &a.matmul(&c));
            for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }
    }
}
