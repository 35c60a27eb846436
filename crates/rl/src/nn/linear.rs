//! A fully connected layer with gradient accumulation.

use super::init::orthogonal;
use super::matrix::Matrix;
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// Externally owned gradient slab for one [`Linear`] layer — the unit the
/// sharded update phase accumulates into ([`Linear::backward_into`]),
/// one slab per minibatch shard, reduced in a fixed order afterwards.
#[derive(Debug, Clone, Default)]
pub struct LayerGrads {
    /// Weight gradient, same shape as the layer's `w`.
    pub w: Matrix,
    /// Bias gradient, same length as the layer's `b`.
    pub b: Vec<f32>,
}

impl LayerGrads {
    /// Resizes to the layer's shapes (reusing allocations) and zeroes.
    pub fn zero_for(&mut self, layer: &Linear) {
        self.w.reshape_zeroed(layer.in_dim(), layer.out_dim());
        self.b.clear();
        self.b.resize(layer.out_dim(), 0.0);
    }
}

/// `y = x · W + b` where `W` is `[in_dim, out_dim]` and inputs are batched
/// row-wise (`x` is `[batch, in_dim]`).
///
/// Gradients accumulate into `grad_w` / `grad_b` until
/// [`Linear::zero_grad`] is called, so several loss terms can contribute to
/// one optimiser step.
///
/// The layer also caches `w_t`, a packed row-major transpose of `w`, so the
/// backward-pass input-gradient product `d_x = d_out · Wᵀ` runs through the
/// register-blocked GEMM instead of a strided dot-product loop. The pack is
/// refreshed by [`Linear::zero_grad`] / [`Linear::refresh_packed`]; callers
/// that mutate `w` directly must call one of them before the next backward
/// pass (the standard zero-grad-then-backward discipline does this for
/// free). A network's first layer never computes its input gradient, so
/// the minibatch update leaves that layer's pack stale and only keeps its
/// shape (see `Mlp::refresh_backward_packs`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix `[in_dim, out_dim]`.
    pub w: Matrix,
    /// Bias vector `[out_dim]`.
    pub b: Vec<f32>,
    /// Accumulated weight gradient.
    #[serde(skip)]
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    #[serde(skip)]
    pub grad_b: Vec<f32>,
    /// Packed transpose of `w` (`[out_dim, in_dim]` row-major) for the
    /// backward-pass `d_out · Wᵀ` product.
    #[serde(skip)]
    w_t: Matrix,
}

impl Linear {
    /// Creates a layer with orthogonal weights (gain as given) and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, gain: f32, rng: &mut Xoshiro256StarStar) -> Self {
        let w = orthogonal(in_dim, out_dim, gain, rng);
        let mut w_t = Matrix::zeros(0, 0);
        w.transpose_into(&mut w_t);
        Linear {
            w,
            b: vec![0.0; out_dim],
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            w_t,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Ensures gradient buffers exist (after deserialisation they are
    /// skipped), zeroes them, and refreshes the packed transpose so the
    /// following backward pass sees the current weights.
    pub fn zero_grad(&mut self) {
        if self.grad_w.rows() != self.w.rows() || self.grad_w.cols() != self.w.cols() {
            self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        } else {
            self.grad_w.fill_zero();
        }
        if self.grad_b.len() != self.b.len() {
            self.grad_b = vec![0.0; self.b.len()];
        } else {
            self.grad_b.iter_mut().for_each(|x| *x = 0.0);
        }
        self.refresh_packed();
    }

    /// Rebuilds the packed transpose `w_t` from `w`. Must run after any
    /// direct mutation of `w` and before the next backward pass;
    /// [`Linear::zero_grad`] calls it automatically.
    pub fn refresh_packed(&mut self) {
        self.w.transpose_into(&mut self.w_t);
    }

    /// Whether the packed transpose has the shape of `Wᵀ` (its contents
    /// may be stale).
    pub(crate) fn packed_shape_matches(&self) -> bool {
        self.w_t.rows() == self.w.cols() && self.w_t.cols() == self.w.rows()
    }

    /// Forward pass: `out = x · W + b`, as one fused blocked kernel (the
    /// bias seeds the accumulators — no separate zero-fill or bias pass).
    pub fn forward(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_bias_into(&self.w, &self.b, out);
    }

    /// Backward pass. Given upstream gradient `d_out` (`[batch, out_dim]`)
    /// and the cached input `x`, accumulates parameter gradients and writes
    /// `d_x = d_out · Wᵀ` into `d_in`. Requires a fresh packed transpose
    /// (see [`Linear::zero_grad`]).
    pub fn backward(&mut self, x: &Matrix, d_out: &Matrix, d_in: &mut Matrix) {
        Self::backward_impl(
            &self.w_t,
            x,
            d_out,
            &mut self.grad_w,
            &mut self.grad_b,
            Some(d_in),
        );
    }

    /// [`Linear::backward`] accumulating into an external [`LayerGrads`]
    /// slab instead of the layer's own buffers — shards of a parallel
    /// minibatch update each own a slab, so the shared layer is only read.
    /// `grads` must be shaped by [`LayerGrads::zero_for`] (or a previous
    /// call); the packed transpose must be fresh.
    pub fn backward_into(
        &self,
        x: &Matrix,
        d_out: &Matrix,
        grads: &mut LayerGrads,
        d_in: &mut Matrix,
    ) {
        Self::backward_impl(&self.w_t, x, d_out, &mut grads.w, &mut grads.b, Some(d_in));
    }

    /// [`Linear::backward`] without the input gradient: only `grad_w` and
    /// `grad_b` accumulate. For a network's first layer, whose `d_x` (the
    /// gradient with respect to the observations) nobody reads.
    pub(crate) fn backward_params(&mut self, x: &Matrix, d_out: &Matrix) {
        Self::backward_impl(
            &self.w_t,
            x,
            d_out,
            &mut self.grad_w,
            &mut self.grad_b,
            None,
        );
    }

    /// [`Linear::backward_into`] without the input gradient (see
    /// [`Linear::backward_params`]).
    pub(crate) fn backward_params_into(&self, x: &Matrix, d_out: &Matrix, grads: &mut LayerGrads) {
        Self::backward_impl(&self.w_t, x, d_out, &mut grads.w, &mut grads.b, None);
    }

    /// Shared backward body: `grad_w += xᵀ·d_out`, `grad_b += Σ_rows d_out`,
    /// and, when `d_in` is given, `d_in = d_out · Wᵀ` (via the packed
    /// transpose, so the product runs through the blocked GEMM with
    /// unit-stride rows). Accumulation over batch rows is ascending for
    /// every gradient element — the order the shard-reduction in
    /// `update::MinibatchExecutor` relies on.
    fn backward_impl(
        w_t: &Matrix,
        x: &Matrix,
        d_out: &Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut [f32],
        d_in: Option<&mut Matrix>,
    ) {
        debug_assert_eq!(d_out.cols(), w_t.rows());
        debug_assert_eq!(x.cols(), w_t.cols());
        x.matmul_transpose_a_accum(d_out, grad_w);
        for r in 0..d_out.rows() {
            for (gb, &g) in grad_b.iter_mut().zip(d_out.row(r)) {
                *gb += g;
            }
        }
        if let Some(d_in) = d_in {
            d_out.matmul_into(w_t, d_in);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_with(w: Vec<f32>, b: Vec<f32>, in_dim: usize, out_dim: usize) -> Linear {
        let w = Matrix::from_vec(in_dim, out_dim, w);
        let mut w_t = Matrix::zeros(0, 0);
        w.transpose_into(&mut w_t);
        Linear {
            w,
            b,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            w_t,
        }
    }

    #[test]
    fn forward_known_values() {
        let l = layer_with(vec![1., 2., 3., 4.], vec![0.5, -0.5], 2, 2);
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let mut y = Matrix::zeros(0, 0);
        l.forward(&x, &mut y);
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_gradients_match_manual() {
        let mut l = layer_with(vec![1., 2., 3., 4.], vec![0., 0.], 2, 2);
        let x = Matrix::from_vec(1, 2, vec![2., 3.]);
        let d_out = Matrix::from_vec(1, 2, vec![1., 1.]);
        let mut d_in = Matrix::zeros(0, 0);
        l.zero_grad();
        l.backward(&x, &d_out, &mut d_in);
        // dW = xᵀ d_out = [[2,2],[3,3]]; db = [1,1]; dx = d_out Wᵀ = [3,7]
        assert_eq!(l.grad_w.data(), &[2., 2., 3., 3.]);
        assert_eq!(l.grad_b, vec![1., 1.]);
        assert_eq!(d_in.data(), &[3., 7.]);
    }

    #[test]
    fn gradient_accumulates_until_zeroed() {
        let mut l = layer_with(vec![1., 0., 0., 1.], vec![0., 0.], 2, 2);
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let d_out = Matrix::from_vec(1, 2, vec![1., 2.]);
        let mut d_in = Matrix::zeros(0, 0);
        l.zero_grad();
        l.backward(&x, &d_out, &mut d_in);
        l.backward(&x, &d_out, &mut d_in);
        assert_eq!(l.grad_b, vec![2., 4.]);
        l.zero_grad();
        assert_eq!(l.grad_b, vec![0., 0.]);
    }

    #[test]
    fn backward_into_matches_backward() {
        let mut rng = Xoshiro256StarStar::new(9);
        let mut l = Linear::new(3, 2, 1.0, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.6, 1.0, 0.5, -0.1]);
        let d_out = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        l.zero_grad();
        let mut d_in_a = Matrix::zeros(0, 0);
        l.backward(&x, &d_out, &mut d_in_a);

        let mut grads = LayerGrads::default();
        grads.zero_for(&l);
        let mut d_in_b = Matrix::zeros(0, 0);
        l.backward_into(&x, &d_out, &mut grads, &mut d_in_b);
        assert_eq!(l.grad_w, grads.w);
        assert_eq!(l.grad_b, grads.b);
        assert_eq!(d_in_a, d_in_b);

        // The packed-transpose product must be bit-identical to the
        // strided reference formulation it replaced.
        let mut d_in_ref = Matrix::zeros(0, 0);
        d_out.matmul_transpose_b_into(&l.w, &mut d_in_ref);
        assert_eq!(d_in_a, d_in_ref);
    }

    #[test]
    fn refresh_packed_tracks_weight_edits() {
        // Mutate w directly, refresh via zero_grad, and check the backward
        // input gradient uses the new weights: dx = d_out · Wᵀ.
        let mut l = layer_with(vec![1., 0., 0., 1.], vec![0., 0.], 2, 2);
        l.w.set(0, 1, 5.0);
        l.zero_grad(); // refreshes the packed transpose
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let d_out = Matrix::from_vec(1, 2, vec![1., 1.]);
        let mut d_in = Matrix::zeros(0, 0);
        l.backward(&x, &d_out, &mut d_in);
        // W = [[1,5],[0,1]]; dx = [1,1]·Wᵀ = [1+5, 0+1] = [6, 1].
        assert_eq!(d_in.data(), &[6., 1.]);
    }

    #[test]
    fn serde_skips_grads() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut l = Linear::new(3, 2, 1.0, &mut rng);
        l.zero_grad();
        let s = serde_json::to_string(&l).unwrap();
        let mut l2: Linear = serde_json::from_str(&s).unwrap();
        assert_eq!(l.w, l2.w);
        l2.zero_grad(); // must rebuild empty grad buffers without panicking
        assert_eq!(l2.grad_w.rows(), 3);
    }
}
