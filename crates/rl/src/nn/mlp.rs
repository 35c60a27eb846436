//! Multi-layer perceptrons with cached forward passes and explicit
//! backpropagation.

use super::linear::{LayerGrads, Linear};
use super::matrix::Matrix;
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (Stable-Baselines3 MlpPolicy default).
    Tanh,
    /// Rectified linear unit.
    Relu,
}

/// Vectorisable tanh: a clamped rational (Padé-style) approximation in the
/// lineage of Eigen/XNNPACK's float tanh kernels, accurate to a few ulp
/// over the full range. `f32::tanh` calls out to scalar libm, which the
/// auto-vectoriser cannot touch; this formulation is straight-line
/// arithmetic, so whole activation rows vectorise — the single largest cost
/// of MLP policy inference on the rollout hot path.
#[inline]
fn tanh_fast(x: f32) -> f32 {
    // |x| ≥ ~7.91 saturates to ±1 in f32 anyway.
    let x = x.clamp(-7.905_311, 7.905_311);
    let x2 = x * x;
    // Odd numerator p(x) = x·(α₁ + x²·(α₃ + …)), even denominator q(x).
    let mut p = -2.760_768_4e-16f32;
    p = x2 * p + 2.000_188e-13;
    p = x2 * p - 8.604_672e-11;
    p = x2 * p + 5.122_297e-8;
    p = x2 * p + 1.485_722_4e-5;
    p = x2 * p + 6.372_619_3e-4;
    p = x2 * p + 4.893_524_6e-3;
    let p = x * p;
    let mut q = 1.198_258_4e-6f32;
    q = x2 * q + 1.185_347_1e-4;
    q = x2 * q + 2.268_434_6e-3;
    q = x2 * q + 4.893_525e-3;
    p / q
}

impl Activation {
    /// Applies the activation to a whole buffer (the form the
    /// auto-vectoriser handles best).
    #[inline]
    fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Tanh => {
                for x in xs {
                    *x = tanh_fast(*x);
                }
            }
            Activation::Relu => {
                for x in xs {
                    *x = x.max(0.0);
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`.
    #[inline]
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Scratch space for one forward/backward pass. Reuse across calls to avoid
/// per-minibatch allocation.
#[derive(Debug, Default)]
pub struct MlpCache {
    /// `activations[0]` is the input; `activations[i+1]` is the output of
    /// layer `i` (post-activation for hidden layers, raw for the last).
    activations: Vec<Matrix>,
    /// Gradient scratch buffers.
    d_a: Matrix,
    d_b: Matrix,
}

impl MlpCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached network output of the last forward pass.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("no forward pass cached")
    }
}

/// A dense feed-forward network: hidden layers with a fixed activation, and
/// a linear output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[16, 64, 64, 5]`.
    /// `gains[i]` is the orthogonal-init gain of layer `i`; pass SB3-style
    /// gains (√2 for hidden, small for heads).
    pub fn new(
        sizes: &[usize],
        gains: &[f32],
        activation: Activation,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(gains.len(), sizes.len() - 1, "one gain per layer");
        let layers = sizes
            .windows(2)
            .zip(gains)
            .map(|(w, &g)| Linear::new(w[0], w[1], g, rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Convenience: SB3-style network `[input, 64, 64, output]` with tanh
    /// hidden layers and a head gain of `head_gain`.
    pub fn sb3_default(
        input: usize,
        output: usize,
        head_gain: f32,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        let sqrt2 = std::f32::consts::SQRT_2;
        Mlp::new(
            &[input, 64, 64, output],
            &[sqrt2, sqrt2, head_gain],
            Activation::Tanh,
            rng,
        )
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().unwrap().in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Layer access (for the optimiser).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Layer access (read-only).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// `Err` naming the first shape mismatch of a deserialised network
    /// called `name`: no layers, a weight matrix whose data does not fill
    /// its shape, a bias whose length is not its layer's output width, or
    /// a layer whose input width is not the previous layer's output width.
    pub(crate) fn check_shapes(&self, name: &str) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err(format!("{name}: no layers"));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.w.check_shape(&format!("{name} layer {i} weights"))?;
            if layer.b.len() != layer.out_dim() {
                return Err(format!(
                    "{name} layer {i}: {} biases for output width {}",
                    layer.b.len(),
                    layer.out_dim()
                ));
            }
            if i > 0 && layer.in_dim() != self.layers[i - 1].out_dim() {
                return Err(format!(
                    "{name} layer {i}: input width {} after output width {}",
                    layer.in_dim(),
                    self.layers[i - 1].out_dim()
                ));
            }
        }
        Ok(())
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Forward pass for a batch `x: [batch, in_dim]`, caching activations
    /// for [`Mlp::backward`]. Returns a reference to the output
    /// `[batch, out_dim]` stored in the cache.
    pub fn forward<'c>(&self, x: &Matrix, cache: &'c mut MlpCache) -> &'c Matrix {
        assert_eq!(x.cols(), self.in_dim(), "input dim mismatch");
        let n_buffers = self.layers.len() + 1;
        cache
            .activations
            .resize_with(n_buffers, || Matrix::zeros(0, 0));
        // Copy (not clone) the input so repeated forwards reuse the cache's
        // allocation — the rollout hot path calls this every step.
        cache.activations[0].copy_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            // Split borrow: input is activations[i], output activations[i+1].
            let (head, tail) = cache.activations.split_at_mut(i + 1);
            let input = &head[i];
            let out = &mut tail[0];
            layer.forward(input, out);
            if i + 1 < self.layers.len() {
                self.activation.apply_slice(out.data_mut());
            }
        }
        cache.activations.last().unwrap()
    }

    /// Forward pass without caching, for inference. Writes into `out`.
    pub fn infer(&self, x: &Matrix, scratch: &mut MlpCache, out: &mut Matrix) {
        let y = self.forward(x, scratch);
        out.reshape_for_overwrite(y.rows(), y.cols());
        out.data_mut().copy_from_slice(y.data());
    }

    /// Backward pass: `d_out` is the loss gradient w.r.t. the network
    /// output; parameter gradients accumulate into the layers. Returns
    /// nothing — input gradients are not needed for policy training, so
    /// layer 0's input gradient `d · W₀ᵀ` is not computed at all: layer 0
    /// only accumulates its parameter gradients, which are the same bits
    /// as chaining [`Linear::backward`] over every layer.
    pub fn backward(&mut self, cache: &mut MlpCache, d_out: &Matrix) {
        assert_eq!(
            cache.activations.len(),
            self.layers.len() + 1,
            "cache does not match a forward pass"
        );
        let n = self.layers.len();
        cache.d_a.reshape_for_overwrite(d_out.rows(), d_out.cols());
        cache.d_a.data_mut().copy_from_slice(d_out.data());

        for i in (0..n).rev() {
            // For hidden layers the cached activation is post-activation;
            // fold the activation derivative into the upstream gradient.
            if i + 1 < n {
                let act_out = &cache.activations[i + 1];
                for (g, &y) in cache.d_a.data_mut().iter_mut().zip(act_out.data()) {
                    *g *= self.activation.derivative_from_output(y);
                }
            }
            let input = &cache.activations[i];
            if i == 0 {
                self.layers[0].backward_params(input, &cache.d_a);
            } else {
                self.layers[i].backward(input, &cache.d_a, &mut cache.d_b);
                std::mem::swap(&mut cache.d_a, &mut cache.d_b);
            }
        }
    }

    /// [`Mlp::backward`] accumulating into an external slab of per-layer
    /// gradients (`grads[i]` pairs with layer `i`) instead of the layers'
    /// own buffers. The network is only read, so shards of a parallel
    /// minibatch update can run this concurrently against shard-local
    /// caches and slabs. `grads` must be shaped by
    /// [`LayerGrads::zero_for`]; the packed transposes must be fresh (see
    /// [`Mlp::zero_grad`]). As in [`Mlp::backward`], layer 0's input
    /// gradient is not computed.
    pub fn backward_into(&self, cache: &mut MlpCache, d_out: &Matrix, grads: &mut [LayerGrads]) {
        assert_eq!(
            cache.activations.len(),
            self.layers.len() + 1,
            "cache does not match a forward pass"
        );
        assert_eq!(grads.len(), self.layers.len(), "one grad slab per layer");
        let n = self.layers.len();
        cache.d_a.reshape_for_overwrite(d_out.rows(), d_out.cols());
        cache.d_a.data_mut().copy_from_slice(d_out.data());

        for i in (0..n).rev() {
            if i + 1 < n {
                let act_out = &cache.activations[i + 1];
                for (g, &y) in cache.d_a.data_mut().iter_mut().zip(act_out.data()) {
                    *g *= self.activation.derivative_from_output(y);
                }
            }
            let input = &cache.activations[i];
            if i == 0 {
                self.layers[0].backward_params_into(input, &cache.d_a, &mut grads[0]);
            } else {
                self.layers[i].backward_into(input, &cache.d_a, &mut grads[i], &mut cache.d_b);
                std::mem::swap(&mut cache.d_a, &mut cache.d_b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = Xoshiro256StarStar::new(seed);
        Mlp::new(
            &[3, 8, 2],
            &[std::f32::consts::SQRT_2, 0.5],
            Activation::Tanh,
            &mut rng,
        )
    }

    #[test]
    fn shapes() {
        let m = tiny_mlp(1);
        assert_eq!(m.in_dim(), 3);
        assert_eq!(m.out_dim(), 2);
        let x = Matrix::zeros(5, 3);
        let mut cache = MlpCache::new();
        let y = m.forward(&x, &mut cache);
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn deterministic_forward() {
        let m = tiny_mlp(2);
        let x = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        let mut c1 = MlpCache::new();
        let mut c2 = MlpCache::new();
        let y1 = m.forward(&x, &mut c1).clone();
        let y2 = m.forward(&x, &mut c2).clone();
        assert_eq!(y1, y2);
    }

    #[test]
    fn zero_input_gives_bias_output() {
        let mut m = tiny_mlp(3);
        // Set output bias to known values; zero input → tanh(0)=0 through
        // hidden layers → output = bias.
        let nl = m.layers.len();
        m.layers_mut()[nl - 1].b = vec![0.7, -0.3];
        let x = Matrix::zeros(1, 3);
        let mut cache = MlpCache::new();
        let y = m.forward(&x, &mut cache);
        assert!((y.get(0, 0) - 0.7).abs() < 1e-6);
        assert!((y.get(0, 1) + 0.3).abs() < 1e-6);
    }

    /// Skipping layer 0's input gradient changes no parameter gradient:
    /// `backward_into` and `backward` give the bits of chaining
    /// `Linear::backward_into` over every layer, input gradient included.
    #[test]
    fn backward_param_grads_match_full_layer_chain() {
        let mut rng = Xoshiro256StarStar::new(8);
        let mut m = Mlp::sb3_default(60, 9, 0.01, &mut rng);
        m.zero_grad();
        let rows = 16;
        let x = Matrix::from_vec(
            rows,
            60,
            (0..rows * 60)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.range_f64(-1.0, 1.0) as f32
                    }
                })
                .collect(),
        );
        let d_out = Matrix::from_vec(
            rows,
            9,
            (0..rows * 9)
                .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                .collect(),
        );
        let mut cache = MlpCache::new();
        m.forward(&x, &mut cache);

        let mut chained: Vec<LayerGrads> = Vec::new();
        let mut d_a = d_out.clone();
        let mut d_b = Matrix::zeros(0, 0);
        for i in (0..m.layers.len()).rev() {
            if i + 1 < m.layers.len() {
                for (g, &y) in d_a
                    .data_mut()
                    .iter_mut()
                    .zip(cache.activations[i + 1].data())
                {
                    *g *= m.activation.derivative_from_output(y);
                }
            }
            let mut grads = LayerGrads::default();
            grads.zero_for(&m.layers[i]);
            m.layers[i].backward_into(&cache.activations[i], &d_a, &mut grads, &mut d_b);
            std::mem::swap(&mut d_a, &mut d_b);
            chained.insert(0, grads);
        }

        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let mut grads: Vec<LayerGrads> = m
            .layers
            .iter()
            .map(|l| {
                let mut g = LayerGrads::default();
                g.zero_for(l);
                g
            })
            .collect();
        m.backward_into(&mut cache, &d_out, &mut grads);
        m.backward(&mut cache, &d_out);
        for (li, (got, want)) in grads.iter().zip(&chained).enumerate() {
            assert_eq!(bits(got.w.data()), bits(want.w.data()), "layer {li} w");
            assert_eq!(bits(&got.b), bits(&want.b), "layer {li} b");
            let own = &m.layers[li];
            assert_eq!(
                bits(own.grad_w.data()),
                bits(want.w.data()),
                "layer {li} own w"
            );
            assert_eq!(bits(&own.grad_b), bits(&want.b), "layer {li} own b");
        }
    }

    /// Finite-difference gradient check on a scalar loss L = sum(output).
    #[test]
    fn backward_matches_finite_difference() {
        let mut m = tiny_mlp(4);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.25, 0.1, 0.9, -0.4]);
        let mut cache = MlpCache::new();

        m.zero_grad();
        let y = m.forward(&x, &mut cache);
        let d_out = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        m.backward(&mut cache, &d_out);

        let loss = |m: &Mlp| -> f64 {
            let mut c = MlpCache::new();
            m.forward(&x, &mut c).data().iter().map(|&v| v as f64).sum()
        };

        let eps = 1e-3f32;
        // Check a sample of weights in every layer.
        for li in 0..m.layers.len() {
            let n_params = m.layers[li].w.data().len();
            for pi in [0, n_params / 2, n_params - 1] {
                let orig = m.layers[li].w.data()[pi];
                m.layers[li].w.data_mut()[pi] = orig + eps;
                let up = loss(&m);
                m.layers[li].w.data_mut()[pi] = orig - eps;
                let down = loss(&m);
                m.layers[li].w.data_mut()[pi] = orig;
                let numeric = (up - down) / (2.0 * eps as f64);
                let analytic = m.layers[li].grad_w.data()[pi] as f64;
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                    "layer {li} param {pi}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn tanh_fast_accuracy_and_saturation() {
        // A few-ulp match against libm tanh across the useful range, exact
        // zero at zero, and clean saturation at large |x|.
        assert_eq!(tanh_fast(0.0), 0.0);
        let mut max_err = 0.0f32;
        let mut x = -9.5f32;
        while x < 9.5 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            max_err = max_err.max(err);
            x += 0.001;
        }
        assert!(max_err < 2e-6, "max tanh error {max_err}");
        assert!((tanh_fast(40.0) - 1.0).abs() < 1e-6);
        assert!((tanh_fast(-40.0) + 1.0).abs() < 1e-6);
        // Odd symmetry.
        for x in [0.1f32, 0.7, 2.3, 6.9] {
            assert_eq!(tanh_fast(-x), -tanh_fast(x));
        }
    }

    #[test]
    fn relu_activation_forward() {
        let mut rng = Xoshiro256StarStar::new(5);
        let m = Mlp::new(&[2, 4, 1], &[1.0, 1.0], Activation::Relu, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let mut cache = MlpCache::new();
        let _ = m.forward(&x, &mut cache);
        // Hidden activations must be non-negative.
        assert!(cache.activations[1].data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let m = tiny_mlp(6);
        let s = serde_json::to_string(&m).unwrap();
        let m2: Mlp = serde_json::from_str(&s).unwrap();
        let x = Matrix::from_vec(1, 3, vec![0.3, 0.6, -0.9]);
        let mut c1 = MlpCache::new();
        let mut c2 = MlpCache::new();
        assert_eq!(
            m.forward(&x, &mut c1).data(),
            m2.forward(&x, &mut c2).data()
        );
    }
}
