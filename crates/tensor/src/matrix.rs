//! Row-major `f32` matrices with the operations GNN layers need.
//!
//! The three matmul variants are data-parallel over disjoint *output* rows:
//! each output row's accumulation runs in the exact sequential order
//! (ascending `k`), so results are bit-identical at every thread count —
//! parallelism changes which thread computes a row, never the float-add
//! order within it. The plain methods consult [`gnnlab_par::global_threads`]
//! and only fan out when a multi-thread pool is configured and the product
//! is large enough to amortize dispatch.
//!
//! `matmul` and `transa_matmul` stream their operands k-outer: for each
//! `k` with a non-zero coefficient `a`, a whole output row takes
//! `out[i][..] += a * other[k][..]`. Both operands are read row by row
//! and the inner loop runs over contiguous output columns, so it
//! vectorizes. Vectorizing across columns keeps each element's own add
//! sequence — ascending `k`, the same `a == 0` skips, starting from zero
//! — so the result is bit-identical to the scalar triple loop.
//! `matmul_transb` is a dot product per element; vectorizing that would
//! reorder its reduction, so it is instead column-blocked: [`COL_BLOCK`]
//! dot products advance together over one pass of the row, each still
//! summing over ascending `k`.

use gnnlab_par::ThreadPool;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Minimum `rows * inner * cols` product worth fanning out; below this the
/// chunk-dispatch overhead exceeds the multiply itself.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Dot products each `matmul_transb` kernel iteration advances together.
/// Four f32 accumulators fit comfortably in registers on every target;
/// the remainder columns (`cols % COL_BLOCK`) fall back to the scalar loop.
const COL_BLOCK: usize = 4;

fn par_pool(flops: usize) -> Option<std::sync::Arc<ThreadPool>> {
    if gnnlab_par::global_threads() > 1 && flops >= PAR_MIN_FLOPS {
        Some(gnnlab_par::global_pool())
    } else {
        None
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `rng`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
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

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage. The
    /// double-buffered prefetch path recycles feature matrices through
    /// this: a trained batch's matrix turns back into the buffer the next
    /// prefetch extracts into, keeping steady state allocation-free.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` (ikj loop order for cache friendliness). Fans out
    /// over the global pool when one is configured and the product is
    /// large; see [`Matrix::matmul_with`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        if let Some(pool) = par_pool(self.rows * self.cols * other.cols) {
            return self.matmul_with(other, &pool);
        }
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            Self::matmul_row(self.row(i), other, out.row_mut(i));
        }
        out
    }

    /// `self @ other` with output rows fanned across `pool`. Bit-identical
    /// to the sequential [`Matrix::matmul`] at every pool size.
    pub fn matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        if out.data.is_empty() {
            return out;
        }
        let cols = other.cols;
        pool.par_chunks_mut(&mut out.data, cols, |_, rows, chunk| {
            for (i, out_row) in rows.clone().zip(chunk.chunks_exact_mut(cols)) {
                Self::matmul_row(self.row(i), other, out_row);
            }
        });
        out
    }

    /// One output row of `matmul`: `out_row += a_row @ other`, streamed
    /// k-outer so the inner loop over contiguous output columns
    /// vectorizes. Each element still adds over ascending `k`, skipping
    /// `a == 0`, exactly as the scalar kernel does.
    #[inline]
    fn matmul_row(a_row: &[f32], other: &Matrix, out_row: &mut [f32]) {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(other.row(k)) {
                *o += a * b;
            }
        }
    }

    /// `self @ other.T`. Fans out like [`Matrix::matmul`].
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        if let Some(pool) = par_pool(self.rows * self.cols * other.rows) {
            return self.matmul_transb_with(other, &pool);
        }
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            Self::matmul_transb_row(self.row(i), other, out.row_mut(i));
        }
        out
    }

    /// `self @ other.T` with output rows fanned across `pool`.
    pub fn matmul_transb_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        if out.data.is_empty() {
            return out;
        }
        let cols = other.rows;
        pool.par_chunks_mut(&mut out.data, cols, |_, rows, chunk| {
            for (i, out_row) in rows.clone().zip(chunk.chunks_exact_mut(cols)) {
                Self::matmul_transb_row(self.row(i), other, out_row);
            }
        });
        out
    }

    /// One output row of `matmul_transb`: `out_row[j] = a_row · other[j]`.
    ///
    /// Column-blocked: four dot products advance together over one pass
    /// of `a_row`, each accumulating over ascending `k` exactly as the
    /// scalar loop does.
    #[inline]
    fn matmul_transb_row(a_row: &[f32], other: &Matrix, out_row: &mut [f32]) {
        let cols = out_row.len();
        let blocked = cols - cols % COL_BLOCK;
        let mut j = 0;
        while j < blocked {
            let (r0, r1, r2, r3) = (
                other.row(j),
                other.row(j + 1),
                other.row(j + 2),
                other.row(j + 3),
            );
            let mut acc = [0.0f32; COL_BLOCK];
            for (k, &a) in a_row.iter().enumerate() {
                acc[0] += a * r0[k];
                acc[1] += a * r1[k];
                acc[2] += a * r2[k];
                acc[3] += a * r3[k];
            }
            out_row[j..j + COL_BLOCK].copy_from_slice(&acc);
            j += COL_BLOCK;
        }
        for (jj, out) in out_row.iter_mut().enumerate().skip(blocked) {
            let mut acc = 0.0f32;
            for (&a, &b) in a_row.iter().zip(other.row(jj)) {
                acc += a * b;
            }
            *out = acc;
        }
    }

    /// `self.T @ other`. Fans out like [`Matrix::matmul`].
    pub fn transa_matmul(&self, other: &Matrix) -> Matrix {
        if let Some(pool) = par_pool(self.rows * self.cols * other.cols) {
            return self.transa_matmul_with(other, &pool);
        }
        assert_eq!(self.rows, other.rows, "transa_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transa_matmul_rows(0..self.cols, other, &mut out.data);
        out
    }

    /// `self.T @ other` with output rows fanned across `pool`.
    ///
    /// Each chunk of output rows (columns of `self`) streams `self` and
    /// `other` once in ascending `k`, with the same `a == 0` skips as the
    /// sequential path, so every output element sees the identical
    /// float-add sequence and the result is bit-identical.
    pub fn transa_matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.rows, other.rows, "transa_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        if out.data.is_empty() {
            return out;
        }
        pool.par_chunks_mut(&mut out.data, other.cols, |_, rows, chunk| {
            self.transa_matmul_rows(rows, other, chunk);
        });
        out
    }

    /// Output rows `rows` of `transa_matmul` into `chunk`, streamed
    /// k-outer: for each row `k` of `self` and `other`, every output row
    /// `i` in range takes `out[i][..] += self[k][i] * other[k][..]`,
    /// skipping `self[k][i] == 0`. Each element adds over ascending `k`,
    /// whichever rows the chunk holds.
    fn transa_matmul_rows(&self, rows: Range<usize>, other: &Matrix, chunk: &mut [f32]) {
        if other.cols == 0 {
            return;
        }
        for k in 0..self.rows {
            let b_row = other.row(k);
            for (&a, out_row) in self.row(k)[rows.clone()]
                .iter()
                .zip(chunk.chunks_exact_mut(other.cols))
            {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Adds `other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a row vector (bias broadcast) to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
    }

    /// Scales all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets all elements to zero.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// In-place ReLU; returns the activation mask for backprop.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        self.data
            .iter_mut()
            .map(|a| {
                if *a > 0.0 {
                    true
                } else {
                    *a = 0.0;
                    false
                }
            })
            .collect()
    }

    /// Applies the stored ReLU mask to a gradient (in place).
    pub fn relu_backward_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len(), "relu mask mismatch");
        for (g, &m) in self.data.iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
    }

    /// Column-wise sum as a 1×cols matrix (bias gradient).
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &a) in out.data.iter_mut().zip(self.row(r)) {
                *o += a;
            }
        }
        out
    }

    /// Frobenius norm (used in gradient tests).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transb_consistency() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        // a @ b.T == manually transposing b.
        let bt = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]);
        assert_eq!(a.matmul_transb(&b).data(), a.matmul(&bt).data());
    }

    #[test]
    fn transa_matmul_consistency() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 1., 0., 1., 1., 0.]);
        let at = Matrix::from_vec(2, 3, vec![1., 3., 5., 2., 4., 6.]);
        assert_eq!(a.transa_matmul(&b).data(), at.matmul(&b).data());
    }

    #[test]
    fn relu_roundtrip() {
        let mut m = Matrix::from_vec(1, 4, vec![-1., 2., -3., 4.]);
        let mask = m.relu_inplace();
        assert_eq!(m.data(), &[0., 2., 0., 4.]);
        assert_eq!(mask, vec![false, true, false, true]);
        let mut g = Matrix::from_vec(1, 4, vec![1., 1., 1., 1.]);
        g.relu_backward_inplace(&mask);
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn bias_broadcast_and_colsum() {
        let mut m = Matrix::zeros(2, 3);
        let bias = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        m.add_row_broadcast(&bias);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.col_sum().data(), &[2., 4., 6.]);
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::xavier(8, 8, &mut r1);
        let b = Matrix::xavier(8, 8, &mut r2);
        assert_eq!(a.data(), b.data());
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn pooled_matmuls_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Odd sizes so chunks split unevenly; some zeros to hit the skips.
        let mut a = Matrix::xavier(37, 19, &mut rng);
        let b = Matrix::xavier(19, 23, &mut rng);
        let c = Matrix::xavier(37, 19, &mut rng);
        for v in a.data_mut().iter_mut().step_by(7) {
            *v = 0.0;
        }
        let mm = a.matmul(&b);
        let tb = a.matmul_transb(&c);
        let ta = a.transa_matmul(&c);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(a.matmul_with(&b, &pool).data(), mm.data(), "{threads}");
            assert_eq!(
                a.matmul_transb_with(&c, &pool).data(),
                tb.data(),
                "{threads}"
            );
            assert_eq!(
                a.transa_matmul_with(&c, &pool).data(),
                ta.data(),
                "{threads}"
            );
        }
    }

    /// `transa_matmul` fanned across pools of several sizes against its
    /// sequential path, at widths that are not a multiple of four and with
    /// zeros in `a` so the skips land inside every chunk.
    #[test]
    fn pooled_transa_matmul_matches_sequential_at_ragged_widths() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for (rows, inner, cols) in [
            (41, 13, 1),
            (41, 13, 3),
            (17, 29, 6),
            (64, 33, 7),
            (9, 2, 10),
        ] {
            let mut a = Matrix::xavier(rows, inner, &mut rng);
            for v in a.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = Matrix::xavier(rows, cols, &mut rng);
            let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
            let mut seq = Matrix::zeros(inner, cols);
            a.transa_matmul_rows(0..inner, &b, &mut seq.data);
            for threads in [1, 2, 3, 4, 8] {
                let pool = ThreadPool::new(threads);
                assert_eq!(
                    bits(&a.transa_matmul_with(&b, &pool)),
                    bits(&seq),
                    "{rows}x{inner}x{cols} on {threads} threads"
                );
            }
        }
    }

    /// The blocked kernels against straightforward scalar references —
    /// bit-for-bit, across widths that exercise full blocks, remainders
    /// of 1–3, and widths below one block.
    #[test]
    fn blocked_kernels_match_scalar_reference_bitwise() {
        let scalar_matmul = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for (k, &av) in a.row(i).iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out.data[i * b.cols() + j] += av * b.get(k, j);
                    }
                }
            }
            out
        };
        let scalar_transb = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.rows(), b.rows());
            for i in 0..a.rows() {
                for j in 0..b.rows() {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    out.set(i, j, acc);
                }
            }
            out
        };
        let scalar_transa = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.cols(), b.cols());
            for k in 0..a.rows() {
                for i in 0..a.cols() {
                    let av = a.get(k, i);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out.data[i * b.cols() + j] += av * b.get(k, j);
                    }
                }
            }
            out
        };
        let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for cols in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 23] {
            let mut a = Matrix::xavier(9, 13, &mut rng);
            for v in a.data_mut().iter_mut().step_by(5) {
                *v = 0.0;
            }
            let b = Matrix::xavier(13, cols, &mut rng);
            let bt = Matrix::xavier(cols, 13, &mut rng);
            let wide = Matrix::xavier(9, cols, &mut rng);
            assert_eq!(bits(&a.matmul(&b)), bits(&scalar_matmul(&a, &b)), "{cols}");
            assert_eq!(
                bits(&a.matmul_transb(&bt)),
                bits(&scalar_transb(&a, &bt)),
                "{cols}"
            );
            assert_eq!(
                bits(&a.transa_matmul(&wide)),
                bits(&scalar_transa(&a, &wide)),
                "{cols}"
            );
        }
    }

    #[test]
    fn into_vec_returns_row_major_storage() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(m.into_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn pooled_matmul_handles_empty_output() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let pool = ThreadPool::new(4);
        assert_eq!(a.matmul_with(&b, &pool).rows(), 0);
        assert_eq!(a.transa_matmul_with(&Matrix::zeros(0, 0), &pool).cols(), 0);
    }
}
