//! Multi-layer perceptrons with cached forward passes and explicit
//! backpropagation.

use super::linear::{LayerGrads, Linear};
#[cfg(target_arch = "x86_64")]
use super::matrix::avx512_available;
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
#[inline(always)]
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

/// `x ← tanh_fast(x)` over a buffer. `#[inline(always)]` so each
/// instantiation vectorises for its caller's features: 4 lanes in the
/// baseline build, 16 inside [`tanh_avx512`].
#[inline(always)]
fn tanh_loop(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_fast(*x);
    }
}

/// `g ← g·(1 − y²)`: the tanh derivative, from the layer's output `y`,
/// folded into the upstream gradient `g`. Instantiated like [`tanh_loop`].
#[inline(always)]
fn tanh_grad_loop(g: &mut [f32], y: &[f32]) {
    for (g, &y) in g.iter_mut().zip(y) {
        *g *= 1.0 - y * y;
    }
}

/// [`tanh_loop`] inside an AVX-512 region. Each lane does the same
/// operations as in the baseline loop, so the bits are the same.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_avx512(xs: &mut [f32]) {
    tanh_loop(xs);
}

/// [`tanh_grad_loop`] inside an AVX-512 region (see [`tanh_avx512`]).
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_grad_avx512(g: &mut [f32], y: &[f32]) {
    tanh_grad_loop(g, y);
}

impl Activation {
    /// Applies the activation to a whole buffer (the form the
    /// auto-vectoriser handles best). The tanh runs at AVX-512 width where
    /// AVX-512F is available (detected once, as for the GEMM tiles).
    #[inline]
    fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Tanh => {
                #[cfg(target_arch = "x86_64")]
                if avx512_available() {
                    // SAFETY: AVX-512F is available, checked above.
                    return unsafe { tanh_avx512(xs) };
                }
                tanh_loop(xs);
            }
            Activation::Relu => {
                for x in xs {
                    *x = x.max(0.0);
                }
            }
        }
    }

    /// `g ← g·f′(x)` over a buffer of upstream gradients `g`, from the
    /// layer's outputs `y = f(x)`, at AVX-512 width as in
    /// [`Activation::apply_slice`].
    fn fold_derivative(self, g: &mut [f32], y: &[f32]) {
        match self {
            Activation::Tanh => {
                #[cfg(target_arch = "x86_64")]
                if avx512_available() {
                    // SAFETY: AVX-512F is available, checked above.
                    return unsafe { tanh_grad_avx512(g, y) };
                }
                tanh_grad_loop(g, y);
            }
            Activation::Relu => {
                for (g, &y) in g.iter_mut().zip(y) {
                    *g *= self.derivative_from_output(y);
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

    /// Refreshes the packed transposes that [`Mlp::backward_into`] reads
    /// after the weights changed: those of every layer but the first. The
    /// first layer's input gradient is never computed, so its pack is
    /// never read; it is rebuilt only when its shape does not match `Wᵀ`
    /// (a network deserialised without [`Mlp::zero_grad`]), which keeps it
    /// valid for the backward pass's debug shape checks. The minibatch
    /// update calls this in place of [`Mlp::zero_grad`], whose zeroing its
    /// reduction makes redundant.
    pub(crate) fn refresh_backward_packs(&mut self) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            if i > 0 || !l.packed_shape_matches() {
                l.refresh_packed();
            }
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
                self.activation
                    .fold_derivative(cache.d_a.data_mut(), act_out.data());
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
                self.activation
                    .fold_derivative(cache.d_a.data_mut(), act_out.data());
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

    /// Every edge of `tanh_fast` and its derivative: signed zeros and
    /// infinities, a NaN, both clamp edges with their neighbours, the
    /// smallest and largest subnormals and normals of either sign, and the
    /// extremes.
    fn activation_edges() -> Vec<f32> {
        let clamp = 7.905_311f32;
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for c in [clamp, -clamp] {
            xs.extend([
                c,
                f32::from_bits(c.to_bits() - 1),
                f32::from_bits(c.to_bits() + 1),
            ]);
        }
        for bits in [1u32, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff] {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        xs
    }

    /// The dense sweep of [-9.5, 9.5) in steps of 0.001, past both clamps.
    fn activation_sweep() -> Vec<f32> {
        (0..19_000).map(|i| -9.5 + i as f32 * 0.001).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `(offset, len)` of a whole buffer of `n` and of every slice of it
    /// with length 0–70 starting at offsets 0–16, which covers every
    /// vector-body, remainder and alignment case of both widths.
    fn slices(n: usize) -> impl Iterator<Item = (usize, usize)> {
        let parts =
            (0..=70.min(n)).flat_map(move |len| (0..=16.min(n - len)).map(move |off| (off, len)));
        std::iter::once((0, n)).chain(parts)
    }

    /// The dispatched tanh and the AVX-512 loop (where the CPU has
    /// AVX-512F) against the baseline loop, bitwise, on every slice of
    /// `xs` that [`slices`] lists.
    fn check_tanh(xs: &[f32]) {
        for (off, len) in slices(xs.len()) {
            let input = &xs[off..off + len];
            let mut want = input.to_vec();
            tanh_loop(&mut want);
            let mut got = input.to_vec();
            Activation::Tanh.apply_slice(&mut got);
            assert_eq!(bits(&got), bits(&want), "dispatched, {len} at {off}");
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                let mut got = input.to_vec();
                // SAFETY: AVX-512F is available, checked above.
                unsafe { tanh_avx512(&mut got) };
                assert_eq!(bits(&got), bits(&want), "avx512, {len} at {off}");
            }
        }
    }

    /// As [`check_tanh`], for the derivative folded into gradients `g`
    /// from outputs `y` (equal lengths).
    fn check_tanh_grad(g: &[f32], y: &[f32]) {
        for (off, len) in slices(g.len()) {
            let (g, y) = (&g[off..off + len], &y[off..off + len]);
            let mut want = g.to_vec();
            tanh_grad_loop(&mut want, y);
            let mut got = g.to_vec();
            Activation::Tanh.fold_derivative(&mut got, y);
            assert_eq!(bits(&got), bits(&want), "dispatched, {len} at {off}");
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                let mut got = g.to_vec();
                // SAFETY: AVX-512F is available, checked above.
                unsafe { tanh_grad_avx512(&mut got, y) };
                assert_eq!(bits(&got), bits(&want), "avx512, {len} at {off}");
            }
        }
    }

    #[test]
    fn avx512_tanh_matches_baseline_loop() {
        let edges = activation_edges();
        check_tanh(&edges);
        // Each edge in every lane position of a 70-element slice.
        let mut tiled: Vec<f32> = edges.iter().cycle().take(86).copied().collect();
        check_tanh(&tiled);
        tiled.reverse();
        check_tanh(&tiled);
        check_tanh(&activation_sweep());
    }

    #[test]
    fn avx512_tanh_derivative_matches_baseline_loop() {
        // Each edge as an output `y` against finite gradients, and as a
        // gradient against the sweep's outputs. A lane never holds two
        // NaNs: which payload a product keeps is not specified.
        let edges = activation_edges();
        let sweep = activation_sweep();
        let mut y_sweep = sweep.clone();
        tanh_loop(&mut y_sweep);
        let y: Vec<f32> = edges.iter().cycle().take(86).copied().collect();
        let g: Vec<f32> = sweep[..86].to_vec();
        check_tanh_grad(&g, &y);
        check_tanh_grad(&y, &y_sweep[5_000..5_086]);
        check_tanh_grad(&sweep, &y_sweep);
        check_tanh_grad(&y_sweep, &sweep);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The tanh and its derivative on arbitrary bit patterns (NaNs
        /// with any payload included) of every length 0–70.
        #[test]
        fn avx512_activations_match_baseline_on_random_bits(
            raw in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 0..=70),
        ) {
            let xs: Vec<f32> = raw.iter().map(|r| f32::from_bits(r.0 as u32)).collect();
            check_tanh(&xs);
            let g: Vec<f32> = raw
                .iter()
                .zip(&xs)
                .map(|(r, y)| {
                    let g = f32::from_bits(r.1 as u32);
                    if g.is_nan() && y.is_nan() { 0.5 } else { g }
                })
                .collect();
            check_tanh_grad(&g, &xs);
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
