//! GNN layers over sampled message-flow blocks with manual backprop.

use crate::matrix::Matrix;
use gnnlab_sampling::LayerBlock;
use rand_chacha::ChaCha8Rng;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape).
    pub grad: Matrix,
}

impl Param {
    /// Wraps a value with a zero gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero();
    }
}

/// Mean aggregation: `out[dst] = mean over edges (src_local -> dst) of
/// x[src_local]`. Blocks always contain a self-edge per dst, so degrees
/// are ≥ 1.
pub fn mean_aggregate(block: &LayerBlock, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(block.dst_count, x.cols());
    let mut deg = vec![0u32; block.dst_count];
    for &(s, d) in &block.edges {
        deg[d as usize] += 1;
        // `x` and `out` are distinct matrices, so the immutable row view
        // coexists with the mutable one — no per-edge copies needed.
        let (src, dst) = (s as usize, d as usize);
        let src_row: &[f32] = x.row(src);
        for (o, v) in out.row_mut(dst).iter_mut().zip(src_row) {
            *o += v;
        }
    }
    for (d, &count) in deg.iter().enumerate() {
        let k = count.max(1) as f32;
        for o in out.row_mut(d) {
            *o /= k;
        }
    }
    out
}

/// Backward of [`mean_aggregate`]: scatters `grad_out[dst] / deg(dst)` to
/// each contributing src row.
pub fn mean_aggregate_backward(block: &LayerBlock, grad_out: &Matrix, src_count: usize) -> Matrix {
    scatter_mean(&block.edges, block.dst_count, grad_out, 0, src_count)
}

/// [`mean_aggregate_backward`] over a bare `(src_local, dst)` edge list,
/// reading only columns `from_col..` of `grad_out`.
fn scatter_mean(
    edges: &[(u32, u32)],
    dst_count: usize,
    grad_out: &Matrix,
    from_col: usize,
    src_count: usize,
) -> Matrix {
    let mut deg = vec![0u32; dst_count];
    for &(_, d) in edges {
        deg[d as usize] += 1;
    }
    let mut grad_in = Matrix::zeros(src_count, grad_out.cols() - from_col);
    for &(s, d) in edges {
        let k = deg[d as usize].max(1) as f32;
        let g_row: &[f32] = &grad_out.row(d as usize)[from_col..];
        for (gi, &g) in grad_in.row_mut(s as usize).iter_mut().zip(g_row) {
            *gi += g / k;
        }
    }
    grad_in
}

/// `[x[..agg.rows()] | agg]`: each dst row's own features beside its
/// aggregate, built in one pass (dst rows are the block's first srcs).
fn concat_self(x: &Matrix, agg: &Matrix) -> Matrix {
    let (left, right) = (x.cols(), agg.cols());
    let mut out = Matrix::zeros(agg.rows(), left + right);
    for r in 0..agg.rows() {
        let row = out.row_mut(r);
        row[..left].copy_from_slice(x.row(r));
        row[left..].copy_from_slice(agg.row(r));
    }
    out
}

/// Adds columns `..width` of `d_lin_in` onto the first rows of `dx`: the
/// gradient that flows into each dst row through its own-feature half.
fn add_self_grad(dx: &mut Matrix, d_lin_in: &Matrix, width: usize) {
    for r in 0..d_lin_in.rows() {
        for (a, &b) in dx.row_mut(r).iter_mut().zip(&d_lin_in.row(r)[..width]) {
            *a += b;
        }
    }
}

/// Slimmed-down block context a layer keeps for backward: the edges (the
/// only part of the block the aggregation arithmetic reads) and its sizes.
#[derive(Debug, Clone)]
struct BlockCtx {
    edges: Vec<(u32, u32)>,
    dst_count: usize,
    src_count: usize,
}

impl BlockCtx {
    fn of(block: &LayerBlock) -> Self {
        BlockCtx {
            edges: block.edges.clone(),
            dst_count: block.dst_count,
            src_count: block.src_count(),
        }
    }

    /// [`mean_aggregate_backward`] over this block, of columns
    /// `from_col..` of `grad_out`.
    fn scatter_mean(&self, grad_out: &Matrix, from_col: usize) -> Matrix {
        scatter_mean(
            &self.edges,
            self.dst_count,
            grad_out,
            from_col,
            self.src_count,
        )
    }
}

/// Which GNN layer arithmetic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// GCN: `relu(mean_agg(X) W + b)`.
    GraphConv,
    /// GraphSAGE (mean aggregator): `relu([X_self | mean_agg(X)] W + b)`.
    SageConv,
    /// PinSAGE: neighbor transform `q = relu(X Wn + bn)`, then
    /// `relu([X_self | mean_agg(q)] W + b)`.
    PinSageConv,
}

/// One GNN layer with stored forward context.
#[derive(Debug, Clone)]
pub struct GnnLayer {
    kind: LayerKind,
    in_dim: usize,
    out_dim: usize,
    /// Final layers skip the output ReLU (they produce logits).
    activate: bool,
    w: Param,
    b: Param,
    /// PinSAGE-only neighbor transform.
    wn: Option<Param>,
    bn: Option<Param>,
    ctx: Option<ForwardCtx>,
}

#[derive(Debug, Clone)]
struct ForwardCtx {
    block: BlockCtx,
    /// PinSAGE only: the layer input, for the neighbor-transform gradient.
    x: Option<Matrix>,
    /// Input to the final linear op (agg or concat).
    lin_in: Matrix,
    relu_mask: Option<Vec<bool>>,
    /// PinSAGE: neighbor-transform activations and mask.
    q_mask: Option<Vec<bool>>,
}

impl GnnLayer {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new(
        kind: LayerKind,
        in_dim: usize,
        out_dim: usize,
        activate: bool,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let lin_in_dim = match kind {
            LayerKind::GraphConv => in_dim,
            LayerKind::SageConv => 2 * in_dim,
            LayerKind::PinSageConv => in_dim + out_dim,
        };
        let (wn, bn) = if kind == LayerKind::PinSageConv {
            (
                Some(Param::new(Matrix::xavier(in_dim, out_dim, rng))),
                Some(Param::new(Matrix::zeros(1, out_dim))),
            )
        } else {
            (None, None)
        };
        GnnLayer {
            kind,
            in_dim,
            out_dim,
            activate,
            w: Param::new(Matrix::xavier(lin_in_dim, out_dim, rng)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            wn,
            bn,
            ctx: None,
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward pass: `x` is `block.src_count() x in_dim`; returns
    /// `block.dst_count x out_dim`. Stores context for backward.
    pub fn forward(&mut self, block: &LayerBlock, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), block.src_count(), "input row mismatch");
        assert_eq!(x.cols(), self.in_dim, "input dim mismatch");
        let mut q_mask = None;
        let lin_in = match self.kind {
            LayerKind::GraphConv => mean_aggregate(block, x),
            LayerKind::SageConv => concat_self(x, &mean_aggregate(block, x)),
            LayerKind::PinSageConv => {
                let wn = self.wn.as_ref().expect("pinsage has wn");
                let bn = self.bn.as_ref().expect("pinsage has bn");
                let mut q = x.matmul(&wn.value);
                q.add_row_broadcast(&bn.value);
                q_mask = Some(q.relu_inplace());
                concat_self(x, &mean_aggregate(block, &q))
            }
        };
        let mut out = lin_in.matmul(&self.w.value);
        out.add_row_broadcast(&self.b.value);
        let relu_mask = self.activate.then(|| out.relu_inplace());
        self.ctx = Some(ForwardCtx {
            block: BlockCtx::of(block),
            x: (self.kind == LayerKind::PinSageConv).then(|| x.clone()),
            lin_in,
            relu_mask,
            q_mask,
        });
        out
    }

    /// Backward pass: takes `d loss / d output`, accumulates parameter
    /// gradients, returns `d loss / d x`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_impl(grad_out, true)
            .expect("input gradient was requested")
    }

    /// Backward pass that only accumulates parameter gradients — for the
    /// bottom layer, whose input gradient nobody reads. Every parameter
    /// gradient is bit-identical to [`GnnLayer::backward`]'s; the work
    /// skipped is what only `d loss / d x` needs.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub(crate) fn backward_params(&mut self, grad_out: &Matrix) {
        self.backward_impl(grad_out, false);
    }

    /// Shared backward: parameter gradients always, and `d loss / d x`
    /// only when `input_grad` is set.
    fn backward_impl(&mut self, grad_out: &Matrix, input_grad: bool) -> Option<Matrix> {
        let ctx = self.ctx.take().expect("backward before forward");
        let mut grad = grad_out.clone();
        if let Some(mask) = &ctx.relu_mask {
            grad.relu_backward_inplace(mask);
        }
        // Linear: out = lin_in @ W + b.
        self.w.grad.add_assign(&ctx.lin_in.transa_matmul(&grad));
        self.b.grad.add_assign(&grad.col_sum());
        if !input_grad && self.kind != LayerKind::PinSageConv {
            return None;
        }
        let d_lin_in = grad.matmul_transb(&self.w.value);

        match self.kind {
            LayerKind::GraphConv => Some(ctx.block.scatter_mean(&d_lin_in, 0)),
            // d_lin_in is [d_self | d_agg], split at in_dim.
            LayerKind::SageConv => {
                let mut dx = ctx.block.scatter_mean(&d_lin_in, self.in_dim);
                add_self_grad(&mut dx, &d_lin_in, self.in_dim);
                Some(dx)
            }
            LayerKind::PinSageConv => {
                let mut dq = ctx.block.scatter_mean(&d_lin_in, self.in_dim);
                dq.relu_backward_inplace(ctx.q_mask.as_ref().expect("pinsage mask"));
                // q = x @ Wn + bn.
                let wn = self.wn.as_mut().expect("pinsage has wn");
                let bn = self.bn.as_mut().expect("pinsage has bn");
                let x = ctx.x.as_ref().expect("pinsage keeps its input");
                wn.grad.add_assign(&x.transa_matmul(&dq));
                bn.grad.add_assign(&dq.col_sum());
                if !input_grad {
                    return None;
                }
                let mut dx = dq.matmul_transb(&wn.value);
                add_self_grad(&mut dx, &d_lin_in, self.in_dim);
                Some(dx)
            }
        }
    }

    /// All trainable parameters of this layer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.w, &mut self.b];
        if let Some(wn) = &mut self.wn {
            ps.push(wn);
        }
        if let Some(bn) = &mut self.bn {
            ps.push(bn);
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_block() -> LayerBlock {
        // 2 dsts, 4 srcs; dst 0 aggregates {0, 2, 3}, dst 1 aggregates {1}.
        LayerBlock {
            src_globals: vec![10, 11, 12, 13],
            dst_count: 2,
            edges: vec![(0, 0), (2, 0), (3, 0), (1, 1)],
        }
    }

    #[test]
    fn mean_aggregate_averages() {
        let b = tiny_block();
        let x = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let agg = mean_aggregate(&b, &x);
        // dst0 = mean of rows 0,2,3 = ((1+5+7)/3, (2+6+8)/3).
        assert!((agg.get(0, 0) - 13.0 / 3.0).abs() < 1e-6);
        assert!((agg.get(0, 1) - 16.0 / 3.0).abs() < 1e-6);
        assert_eq!(agg.row(1), &[3., 4.]);
    }

    #[test]
    fn mean_aggregate_backward_scatters() {
        let b = tiny_block();
        let g = Matrix::from_vec(2, 1, vec![3.0, 5.0]);
        let gin = mean_aggregate_backward(&b, &g, 4);
        assert!((gin.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(2, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(3, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(1, 0) - 5.0).abs() < 1e-6);
    }

    /// Finite-difference gradient check for all layer kinds.
    #[test]
    fn gradient_check_all_kinds() {
        for kind in [
            LayerKind::GraphConv,
            LayerKind::SageConv,
            LayerKind::PinSageConv,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let block = tiny_block();
            let mut layer = GnnLayer::new(kind, 2, 3, true, &mut rng);
            let x = Matrix::from_vec(4, 2, vec![0.5, -0.2, 0.3, 0.8, -0.6, 0.1, 0.9, 0.4]);

            // Loss = sum of outputs; dL/dout = ones.
            let out = layer.forward(&block, &x);
            let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
            let dx = layer.backward(&ones);

            // Numeric dL/dx[0,0].
            let eps = 1e-3f32;
            let mut xp = x.clone();
            xp.set(0, 0, x.get(0, 0) + eps);
            let mut xm = x.clone();
            xm.set(0, 0, x.get(0, 0) - eps);
            let lp: f32 = layer.forward(&block, &xp).data().iter().sum();
            let lm: f32 = layer.forward(&block, &xm).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.get(0, 0) - numeric).abs() < 2e-2,
                "{kind:?}: analytic {} vs numeric {numeric}",
                dx.get(0, 0)
            );
        }
    }

    #[test]
    fn weight_gradient_check_graphconv() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let block = tiny_block();
        let mut layer = GnnLayer::new(LayerKind::GraphConv, 2, 2, false, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.5, -0.2, 0.3, 0.8, -0.6, 0.1, 0.9, 0.4]);

        let out = layer.forward(&block, &x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let _ = layer.backward(&ones);
        let analytic = layer.w.grad.get(0, 0);

        let eps = 1e-3f32;
        let orig = layer.w.value.get(0, 0);
        layer.w.value.set(0, 0, orig + eps);
        let lp: f32 = layer.forward(&block, &x).data().iter().sum();
        layer.w.value.set(0, 0, orig - eps);
        let lm: f32 = layer.forward(&block, &x).data().iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn output_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let block = tiny_block();
        let x = Matrix::zeros(4, 6);
        for kind in [
            LayerKind::GraphConv,
            LayerKind::SageConv,
            LayerKind::PinSageConv,
        ] {
            let mut layer = GnnLayer::new(kind, 6, 4, true, &mut rng);
            let out = layer.forward(&block, &x);
            assert_eq!((out.rows(), out.cols()), (2, 4), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = GnnLayer::new(LayerKind::GraphConv, 2, 2, true, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }
}
