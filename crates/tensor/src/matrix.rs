//! Row-major `f32` matrices with the operations GNN layers need.
//!
//! The three matmul variants are data-parallel over disjoint *output* rows:
//! each output element's accumulation runs in the exact sequential order
//! (ascending `k`), so results are bit-identical at every thread count —
//! parallelism changes which thread computes a row, never the float-add
//! order within it. The plain methods consult [`gnnlab_par::global_threads`]
//! and only fan out when a multi-thread pool is configured and the product
//! is large enough to amortize dispatch.
//!
//! All three run one register-tiled kernel. `matmul` and `transa_matmul`
//! read their left operand in place; `matmul_transb` multiplies by a
//! packed transpose of its right operand, in the train step a weight
//! matrix (at most 32×16 at the benchmark workloads' shapes). For each
//! block of [`MR`] output rows the kernel packs the left operand k-major
//! once, then for each block of [`NR`] columns keeps the `MR × NR`
//! accumulators in locals across the whole `k` loop: each right-operand
//! row slice is loaded once per `k` for all `MR` rows, and each output
//! element is stored once, at the end. The rows and columns left over
//! (`rows % MR`, `cols % NR`) go through one scalar edge path.
//!
//! Every element still starts at +0.0 and adds `a * b` over ascending
//! `k`, with no fused multiply-add and no reassociation, so it is
//! bit-identical to the scalar triple loop. The reference loop for
//! `matmul` and `transa_matmul` skips `a == 0`; the tile does not, which
//! is exact whenever every `b` is finite: a term with `a == ±0` is then
//! ±0, a sum that starts at +0.0 never becomes −0.0 (an exact sum is −0.0
//! only when both terms are), and adding ±0 to any other value leaves it
//! unchanged. Those two products therefore scan their right operand
//! first — `O(k · n)`, small beside the `O(m · k · n)` product — and if
//! any value is ±inf or NaN, where `0 * b` is NaN, every element takes
//! the edge path with the skips. `matmul_transb` never skipped, so it
//! needs no scan and its edge path does not skip either.

use gnnlab_par::ThreadPool;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Minimum `rows * inner * cols` product worth fanning out; below this the
/// chunk-dispatch overhead exceeds the multiply itself.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Output rows of the register tile.
const MR: usize = 4;

/// Output columns of the register tile: with [`MR`], 32 accumulators —
/// eight 4-lane vector registers at the x86-64 baseline, leaving room for
/// the right-operand row slice and the broadcast left-operand value.
const NR: usize = 8;

fn par_pool(flops: usize) -> Option<std::sync::Arc<ThreadPool>> {
    if gnnlab_par::global_threads() > 1 && flops >= PAR_MIN_FLOPS {
        Some(gnnlab_par::global_pool())
    } else {
        None
    }
}

/// The left operand `A` of a product, read in place.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// `A = m`.
    Plain(&'a Matrix),
    /// `A = m.T`.
    Transposed(&'a Matrix),
}

impl Lhs<'_> {
    fn rows(self) -> usize {
        match self {
            Lhs::Plain(m) => m.rows,
            Lhs::Transposed(m) => m.cols,
        }
    }

    fn depth(self) -> usize {
        match self {
            Lhs::Plain(m) => m.cols,
            Lhs::Transposed(m) => m.rows,
        }
    }

    #[inline]
    fn at(self, i: usize, k: usize) -> f32 {
        match self {
            Lhs::Plain(m) => m.data[i * m.cols + k],
            Lhs::Transposed(m) => m.data[k * m.cols + i],
        }
    }

    /// Copies rows `i0..i0 + MR` into `panel`, k-major:
    /// `panel[k * MR + r] = A(i0 + r, k)`.
    fn pack(self, i0: usize, panel: &mut [f32]) {
        match self {
            Lhs::Plain(m) => {
                let rows: [&[f32]; MR] = std::array::from_fn(|r| m.row(i0 + r));
                for (k, p) in panel.chunks_exact_mut(MR).enumerate() {
                    for (v, row) in p.iter_mut().zip(rows) {
                        *v = row[k];
                    }
                }
            }
            Lhs::Transposed(m) => {
                for (p, row) in panel.chunks_exact_mut(MR).zip(m.data.chunks_exact(m.cols)) {
                    p.copy_from_slice(&row[i0..i0 + MR]);
                }
            }
        }
    }

    /// The scalar edge path: output element `(i, j)` of `A · b`, from
    /// +0.0 over ascending `k`, skipping `A(i, k) == 0` when `skip_zeros`.
    fn dot(self, i: usize, b: &Matrix, j: usize, skip_zeros: bool) -> f32 {
        let mut acc = 0.0f32;
        for (k, b_row) in b.data.chunks_exact(b.cols).enumerate() {
            let a = self.at(i, k);
            if skip_zeros && a == 0.0 {
                continue;
            }
            acc += a * b_row[j];
        }
        acc
    }
}

/// Whether a product whose scalar reference skips `a == 0` must keep the
/// skips with right operand `b`. The tile does not skip; that is exact
/// while every `b` is finite (see the module docs), but `0 * ±inf` and
/// `0 * NaN` are NaN, so a right operand holding any such value sends
/// every element down the skipping edge path.
fn needs_zero_skips(b: &Matrix) -> bool {
    !b.data.iter().all(|v| v.is_finite())
}

/// `a · b` into a fresh `a.rows × b.cols` matrix, output rows fanned
/// across `pool` when given. Every output element's add sequence is fixed
/// by its own row and column, whichever chunk or tile computes it, so the
/// bits are the same at every pool size.
///
/// `reference_skips` says whether the product's scalar reference skips
/// `a == 0` (`matmul`, `transa_matmul`); see [`needs_zero_skips`].
fn product(a: Lhs<'_>, b: &Matrix, reference_skips: bool, pool: Option<&ThreadPool>) -> Matrix {
    let skip_zeros = reference_skips && needs_zero_skips(b);
    let mut out = Matrix::zeros(a.rows(), b.cols);
    match pool {
        Some(pool) if !out.data.is_empty() => {
            pool.par_chunks_mut(&mut out.data, b.cols, |_, rows, chunk| {
                gemm_rows(a, b, rows, skip_zeros, chunk);
            });
        }
        _ => gemm_rows(a, b, 0..a.rows(), skip_zeros, &mut out.data),
    }
    out
}

/// Output rows `rows` of `a · b` into `out` (`rows.len() × b.cols`,
/// row-major). Whole `MR × NR` blocks go through the register [`tile`],
/// each `MR`-row block packed once and reused for every column block; the
/// ragged rows and columns go through the scalar [`Lhs::dot`]. With
/// `skip_zeros` every element goes through `dot`, skipping `a == 0`.
fn gemm_rows(a: Lhs<'_>, b: &Matrix, rows: Range<usize>, skip_zeros: bool, out: &mut [f32]) {
    let n = b.cols;
    if n == 0 {
        return;
    }
    let (tiled_rows, tiled_cols) = if skip_zeros {
        (0, 0)
    } else {
        (rows.len() - rows.len() % MR, n - n % NR)
    };
    if tiled_rows > 0 && tiled_cols > 0 {
        let mut panel = vec![0.0f32; MR * a.depth()];
        for r0 in (0..tiled_rows).step_by(MR) {
            a.pack(rows.start + r0, &mut panel);
            for j0 in (0..tiled_cols).step_by(NR) {
                let acc = tile(&panel, b, j0);
                for (out_row, acc_row) in out[r0 * n..].chunks_exact_mut(n).zip(&acc) {
                    out_row[j0..j0 + NR].copy_from_slice(acc_row);
                }
            }
        }
    }
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        let first = if r < tiled_rows { tiled_cols } else { 0 };
        for (j, o) in out_row.iter_mut().enumerate().skip(first) {
            *o = a.dot(rows.start + r, b, j, skip_zeros);
        }
    }
}

/// The register tile: output rows `i0..i0 + MR` (packed in `panel` by
/// [`Lhs::pack`]) by columns `j0..j0 + NR` of `b`. The `MR × NR`
/// accumulators stay in locals across the whole `k` loop, each `b` row
/// slice is loaded once per `k` for all `MR` rows, and each element
/// starts at +0.0 and adds `a * b` over ascending `k` with no skips.
#[inline]
fn tile(panel: &[f32], b: &Matrix, j0: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b_row) in panel.chunks_exact(MR).zip(b.data.chunks_exact(b.cols)) {
        let b = &b_row[j0..j0 + NR];
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    acc
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

    /// `self @ other`. Fans out over the global pool when one is
    /// configured and the product is large; see [`Matrix::matmul_with`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let pool = par_pool(self.rows * self.cols * other.cols);
        product(Lhs::Plain(self), other, true, pool.as_deref())
    }

    /// `self @ other` with output rows fanned across `pool`. Bit-identical
    /// to the sequential [`Matrix::matmul`] at every pool size.
    pub fn matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        product(Lhs::Plain(self), other, true, Some(pool))
    }

    /// `self @ other.T`, through the tile on a packed transpose of
    /// `other` — in the train step a weight matrix, at most 32×16 at the
    /// benchmark workloads' shapes. Fans out like [`Matrix::matmul`].
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        let pool = par_pool(self.rows * self.cols * other.rows);
        product(Lhs::Plain(self), &other.transpose(), false, pool.as_deref())
    }

    /// `self @ other.T` with output rows fanned across `pool`.
    pub fn matmul_transb_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        product(Lhs::Plain(self), &other.transpose(), false, Some(pool))
    }

    /// `self.T @ other`. Fans out like [`Matrix::matmul`].
    pub fn transa_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transa_matmul shape mismatch");
        let pool = par_pool(self.rows * self.cols * other.cols);
        product(Lhs::Transposed(self), other, true, pool.as_deref())
    }

    /// `self.T @ other` with output rows (columns of `self`) fanned across
    /// `pool`. Bit-identical to the sequential [`Matrix::transa_matmul`].
    pub fn transa_matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        assert_eq!(self.rows, other.rows, "transa_matmul shape mismatch");
        product(Lhs::Transposed(self), other, true, Some(pool))
    }

    /// Output rows `rows` of `self.T @ other` into `chunk`: the unit each
    /// pooled chunk runs.
    #[cfg(test)]
    fn transa_matmul_rows(&self, rows: Range<usize>, other: &Matrix, chunk: &mut [f32]) {
        gemm_rows(
            Lhs::Transposed(self),
            other,
            rows,
            needs_zero_skips(other),
            chunk,
        );
    }

    /// A packed copy of `self.T`.
    fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
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

    /// Scalar reference for `matmul`: the i-k-j triple loop, skipping
    /// `a == 0`.
    fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
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
    }

    /// Scalar reference for `matmul_transb`: one dot product per element,
    /// no skips.
    fn scalar_transb(a: &Matrix, b: &Matrix) -> Matrix {
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
    }

    /// Scalar reference for `transa_matmul`: k-outer, skipping `a == 0`.
    fn scalar_transa(a: &Matrix, b: &Matrix) -> Matrix {
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
    }

    /// The blocked kernels against straightforward scalar references —
    /// bit-for-bit, across widths that exercise full blocks, remainders
    /// of 1–3, and widths below one block.
    #[test]
    fn blocked_kernels_match_scalar_reference_bitwise() {
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

    /// Element bits for bitwise comparison. Rust leaves the sign and
    /// payload of a NaN result unspecified, so every NaN maps to one
    /// value; everything else, −0.0 included, compares bit for bit.
    fn canonical_bits(m: &Matrix) -> Vec<u32> {
        m.data()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// A `rows × cols` operand with +0.0 and −0.0 planted among its values.
    fn with_signed_zeros(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, rng);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            match i % 5 {
                1 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        m
    }

    /// A right operand holding ±inf and NaN: every product takes its
    /// guarded path, where `0 * b` must still be skipped exactly as the
    /// scalar reference skips it (or, for `matmul_transb`, not skipped).
    /// The left operand is ±0.0 at every `k` where the right operand's
    /// row is wholly ±inf or NaN, and nonzero at a `k` where it is +inf
    /// in every other column, so the reference is finite, infinite and
    /// NaN in different elements.
    #[test]
    fn non_finite_right_operand_matches_scalar_reference_bitwise() {
        // Zeroes column `k` of `m` (rows alternating +0.0 / −0.0).
        let zero_col = |m: &mut Matrix, k: usize| {
            for i in 0..m.rows() {
                m.set(i, k, if i % 2 == 0 { 0.0 } else { -0.0 });
            }
        };
        // Row `r` of `m`: ±inf, then NaN in the next, then +inf in every
        // other column of the third.
        let poison = |m: &mut Matrix, r: usize| {
            for j in 0..m.cols() {
                m.set(
                    r,
                    j,
                    if j % 2 == 0 {
                        f32::INFINITY
                    } else {
                        f32::NEG_INFINITY
                    },
                );
                m.set(r + 1, j, f32::NAN);
                if j % 2 == 0 {
                    m.set(r + 2, j, f32::INFINITY);
                }
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let pool = ThreadPool::new(3);
        for cols in [1usize, 8, 16, 17] {
            let mut a = with_signed_zeros(9, 13, &mut rng);
            zero_col(&mut a, 4);
            zero_col(&mut a, 5);
            let mut b = Matrix::xavier(13, cols, &mut rng);
            poison(&mut b, 4);
            let bt = b.transpose();
            // `transa_matmul` reads its left operand transposed: zero the
            // rows of `at` that meet `wide`'s ±inf and NaN rows.
            let mut at = with_signed_zeros(13, 9, &mut rng);
            zero_col(&mut at, 4);
            zero_col(&mut at, 5);
            let at = at.transpose();
            let mut wide = Matrix::xavier(9, cols, &mut rng);
            poison(&mut wide, 4);
            let mm = scalar_matmul(&a, &b);
            let ta = scalar_transa(&at, &wide);
            for m in [&mm, &ta] {
                assert!(m.data().iter().any(|v| v.is_finite()), "{cols}");
                assert!(m.data().iter().any(|v| !v.is_finite()), "{cols}");
            }
            let (mm, ta) = (canonical_bits(&mm), canonical_bits(&ta));
            let tb = canonical_bits(&scalar_transb(&a, &bt));
            assert_eq!(canonical_bits(&a.matmul(&b)), mm, "{cols}");
            assert_eq!(canonical_bits(&a.matmul_with(&b, &pool)), mm, "{cols}");
            assert_eq!(canonical_bits(&a.matmul_transb(&bt)), tb, "{cols}");
            assert_eq!(
                canonical_bits(&a.matmul_transb_with(&bt, &pool)),
                tb,
                "{cols}"
            );
            assert_eq!(canonical_bits(&at.transa_matmul(&wide)), ta, "{cols}");
            assert_eq!(
                canonical_bits(&at.transa_matmul_with(&wide, &pool)),
                ta,
                "{cols}"
            );
        }
    }

    /// Every split of a product into whole tiles and edges — output rows
    /// below, at and past one tile of `MR`, columns around one and two
    /// tiles of `NR`, empty and one-deep `k` — sequential and pooled at
    /// 1–8 threads, bitwise against the scalar references.
    #[test]
    fn ragged_shapes_match_scalar_reference_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let pools: Vec<ThreadPool> = (1..=8).map(ThreadPool::new).collect();
        for rows in [0usize, 1, 3, 4, 5, 9] {
            for cols in [1usize, 7, 8, 9, 16, 17] {
                for depth in [0usize, 1, 13] {
                    let shape = format!("{rows}x{depth}x{cols}");
                    let a = with_signed_zeros(rows, depth, &mut rng);
                    let at = with_signed_zeros(depth, rows, &mut rng);
                    let b = Matrix::xavier(depth, cols, &mut rng);
                    let bt = Matrix::xavier(cols, depth, &mut rng);
                    let mm = canonical_bits(&scalar_matmul(&a, &b));
                    let tb = canonical_bits(&scalar_transb(&a, &bt));
                    let ta = canonical_bits(&scalar_transa(&at, &b));
                    assert_eq!(canonical_bits(&a.matmul(&b)), mm, "{shape}");
                    assert_eq!(canonical_bits(&a.matmul_transb(&bt)), tb, "{shape}");
                    assert_eq!(canonical_bits(&at.transa_matmul(&b)), ta, "{shape}");
                    for pool in &pools {
                        let on = format!("{shape} on {} threads", pool.threads());
                        assert_eq!(canonical_bits(&a.matmul_with(&b, pool)), mm, "{on}");
                        assert_eq!(canonical_bits(&a.matmul_transb_with(&bt, pool)), tb, "{on}");
                        assert_eq!(canonical_bits(&at.transa_matmul_with(&b, pool)), ta, "{on}");
                    }
                }
            }
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
