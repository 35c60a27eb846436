//! Deterministic sharded minibatch updates.
//!
//! The optimisation phase of PPO/A2C runs each minibatch in fixed shards
//! of rows. [`MinibatchExecutor`] keeps the parameter-gradient summation
//! tree a pure function of the minibatch size:
//!
//! 1. each minibatch is partitioned into fixed shards of [`SHARD_ROWS`]
//!    rows;
//! 2. shard by shard, forward → per-sample loss → backward runs against
//!    the shard's own scratch caches and gradient slab
//!    ([`crate::nn::LayerGrads`]), leaving the model's own gradient
//!    buffers untouched;
//! 3. the shard slabs are then reduced into the model's gradient buffers
//!    in the fixed tensor-registration order (policy layers, value layers,
//!    `log_std`) and ascending shard order. Each buffer starts as shard
//!    0's slab instead of being zeroed first: a slab starts at `+0.0` and
//!    only accumulates, so it never holds `-0.0`, the one value `0 + s`
//!    would change, and `s₀` is bit for bit the `0 + s₀` a zeroed buffer
//!    would hold.
//!
//! The policy's Gaussian terms that depend on `log_std` alone (`σ` and the
//! entropy) are computed once per minibatch ([`StdTerms`]); each sample's
//! loss reads them instead of taking an `exp` per action dimension.
//!
//! The partition and the reduction order define the floating-point
//! accumulation tree, and so every parameter bit
//! (`tests/update_parity.rs` pins them against goldens). Scalar
//! diagnostics (losses, KL, clip counts) are reduced the same way.

use crate::buffer::RolloutBuffer;
use crate::dist::StdTerms;
use crate::nn::{LayerGrads, Linear, Matrix, MlpCache};
use crate::policy::ActorCritic;

/// Rows per minibatch shard. A compile-time constant so the shard
/// partition — and therefore the gradient summation tree — is a pure
/// function of the minibatch size. 16 rows fill whole register blocks and
/// exactly one rows-in-lanes head block of the AVX-512 GEMM, which
/// `nn::matrix::select_kernel` picks from 16 rows up.
pub const SHARD_ROWS: usize = 16;

/// Scalar training diagnostics summed across the samples of one shard (and
/// then across shards, in shard order).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardDiag {
    /// Summed per-sample policy loss.
    pub policy_loss: f64,
    /// Summed per-sample value loss (squared error).
    pub value_loss: f64,
    /// Summed per-sample policy entropy.
    pub entropy_sum: f64,
    /// Summed per-sample approximate KL contribution.
    pub approx_kl: f64,
    /// Number of samples whose importance ratio was clipped.
    pub clipped: u64,
}

impl ShardDiag {
    fn accumulate(&mut self, other: &ShardDiag) {
        self.policy_loss += other.policy_loss;
        self.value_loss += other.value_loss;
        self.entropy_sum += other.entropy_sum;
        self.approx_kl += other.approx_kl;
        self.clipped += other.clipped;
    }
}

/// One sample's view of the shard computation, handed to the algorithm's
/// loss closure: read the forward results, write the output-gradient row
/// and diagnostics.
pub struct SampleCtx<'a> {
    /// Index of this sample in the rollout buffer.
    pub buffer_index: usize,
    /// Minibatch size (for `1/b` loss scaling — the whole minibatch, not
    /// the shard).
    pub minibatch: usize,
    /// Policy-head output (action mean) row for this sample.
    pub mean: &'a [f32],
    /// The Gaussian terms of the model's `log_std` (`σ`, entropy),
    /// computed once for the whole minibatch.
    pub gauss: &'a StdTerms,
    /// Value-head output for this sample.
    pub value: f32,
    /// Output: loss gradient w.r.t. the policy mean row (pre-zeroed).
    pub d_mean: &'a mut [f32],
    /// Output: loss gradient w.r.t. the value estimate (pre-zeroed).
    pub d_value: &'a mut f32,
    /// Output: gradient accumulator for `log_std` (shard-local slab, from
    /// `+0.0`). Only add to it: the reduction relies on a slab never
    /// holding `-0.0`.
    pub grad_log_std: &'a mut [f32],
    /// Output: diagnostics accumulator (shard-local).
    pub diag: &'a mut ShardDiag,
    /// Scratch row (`action_dim`) for the `z` that [`StdTerms::log_prob`]
    /// leaves for [`StdTerms::add_scaled_grads`].
    pub z: &'a mut [f64],
}

/// Per-shard scratch: observation/gradient matrices, forward caches and the
/// gradient slab. Allocated once and reused across minibatches.
#[derive(Debug, Default)]
struct ShardScratch {
    obs: Matrix,
    dmean: Matrix,
    dv: Matrix,
    pi_cache: MlpCache,
    vf_cache: MlpCache,
    pi_grads: Vec<LayerGrads>,
    vf_grads: Vec<LayerGrads>,
    log_std_grad: Vec<f32>,
    z: Vec<f64>,
    diag: ShardDiag,
}

/// The sharded minibatch engine shared by [`crate::Ppo`] and
/// [`crate::A2c`]. See the module docs for the determinism contract.
#[derive(Debug, Default)]
pub struct MinibatchExecutor {
    shards: Vec<ShardScratch>,
    gauss: StdTerms,
}

impl MinibatchExecutor {
    /// Creates an executor; the first run allocates the shard scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one minibatch (the buffer rows selected by `chunk`): refreshes
    /// the packed weight transposes the backward passes read, executes
    /// every shard's forward/loss/backward — `per_sample` supplies the
    /// algorithm-specific loss gradient — and reduces the shard slabs into
    /// `ac`'s gradient buffers, overwriting what they held. Returns the
    /// summed diagnostics.
    ///
    /// The caller is left with exactly what zeroing the gradients and
    /// running every sample's backward pass would produce: accumulated
    /// gradients on `ac`, ready for clipping and the optimiser step. An
    /// empty `chunk` leaves zero gradients.
    pub fn run(
        &mut self,
        ac: &mut ActorCritic,
        buffer: &RolloutBuffer,
        chunk: &[usize],
        per_sample: &dyn Fn(&mut SampleCtx),
    ) -> ShardDiag {
        let b = chunk.len();
        if b == 0 {
            ac.zero_grad();
            return ShardDiag::default();
        }
        let obs_dim = buffer.obs_dim();
        let action_dim = buffer.action_dim();
        let n_shards = b.div_ceil(SHARD_ROWS);
        if self.shards.len() < n_shards {
            self.shards.resize_with(n_shards, ShardScratch::default);
        }

        ac.refresh_backward_packs();
        self.gauss.set(&ac.log_std);

        let gauss = &self.gauss;
        for (s_idx, scratch) in self.shards[..n_shards].iter_mut().enumerate() {
            let start = s_idx * SHARD_ROWS;
            let end = (start + SHARD_ROWS).min(b);
            let rows = end - start;

            scratch.obs.reshape_for_overwrite(rows, obs_dim);
            for (row, &i) in chunk[start..end].iter().enumerate() {
                scratch.obs.row_mut(row).copy_from_slice(buffer.obs_row(i));
            }

            scratch
                .pi_grads
                .resize_with(ac.pi.layers().len(), LayerGrads::default);
            for (slab, layer) in scratch.pi_grads.iter_mut().zip(ac.pi.layers()) {
                slab.zero_for(layer);
            }
            scratch
                .vf_grads
                .resize_with(ac.vf.layers().len(), LayerGrads::default);
            for (slab, layer) in scratch.vf_grads.iter_mut().zip(ac.vf.layers()) {
                slab.zero_for(layer);
            }
            scratch.log_std_grad.clear();
            scratch.log_std_grad.resize(action_dim, 0.0);
            scratch.z.resize(action_dim, 0.0);
            scratch.diag = ShardDiag::default();
            scratch.dmean.reshape_zeroed(rows, action_dim);
            scratch.dv.reshape_zeroed(rows, 1);

            let means = ac.pi.forward(&scratch.obs, &mut scratch.pi_cache);
            let values = ac.vf.forward(&scratch.obs, &mut scratch.vf_cache);
            for row in 0..rows {
                let dmean_row = scratch.dmean.row_mut(row);
                let mut ctx = SampleCtx {
                    buffer_index: chunk[start + row],
                    minibatch: b,
                    mean: means.row(row),
                    gauss,
                    value: values.get(row, 0),
                    d_mean: dmean_row,
                    d_value: &mut scratch.dv.row_mut(row)[0],
                    grad_log_std: &mut scratch.log_std_grad,
                    diag: &mut scratch.diag,
                    z: &mut scratch.z,
                };
                per_sample(&mut ctx);
            }

            ac.pi
                .backward_into(&mut scratch.pi_cache, &scratch.dmean, &mut scratch.pi_grads);
            ac.vf
                .backward_into(&mut scratch.vf_cache, &scratch.dv, &mut scratch.vf_grads);
        }

        // Reduction: fixed tensor-registration order (policy layers, value
        // layers, log_std), ascending shard order per tensor. Each tensor
        // starts as shard 0's slab (see the module docs).
        let shards = &self.shards[..n_shards];
        for (li, layer) in ac.pi.layers_mut().iter_mut().enumerate() {
            reduce_layer(layer, shards.iter().map(|s| &s.pi_grads[li]));
        }
        for (li, layer) in ac.vf.layers_mut().iter_mut().enumerate() {
            reduce_layer(layer, shards.iter().map(|s| &s.vf_grads[li]));
        }
        reduce_into(
            &mut ac.grad_log_std,
            shards.iter().map(|s| s.log_std_grad.as_slice()),
        );

        let mut diag = ShardDiag::default();
        for scratch in shards {
            diag.accumulate(&scratch.diag);
        }
        diag
    }
}

/// Reduces one layer's shard slabs, in shard order, into the layer's
/// gradient buffers (see [`reduce_into`]).
fn reduce_layer<'s>(layer: &mut Linear, slabs: impl Iterator<Item = &'s LayerGrads> + Clone) {
    reduce_into(&mut layer.grad_b, slabs.clone().map(|g| g.b.as_slice()));
    let mut slabs = slabs.map(|g| &g.w);
    let first = slabs.next().expect("a non-empty chunk has a shard");
    debug_assert!(no_negative_zero(first.data()), "a gradient slab holds -0.0");
    layer.grad_w.copy_from(first);
    for w in slabs {
        add_assign(layer.grad_w.data_mut(), w.data());
    }
}

/// `dst ← s₀ + s₁ + …` over the shard slabs in order, starting from `s₀`
/// instead of a zeroed `dst`: equal bit for bit, because a slab never
/// holds `-0.0`, the one value `0 + s` would change (see the module docs).
fn reduce_into<'s>(dst: &mut Vec<f32>, mut slabs: impl Iterator<Item = &'s [f32]>) {
    let first = slabs.next().expect("a non-empty chunk has a shard");
    debug_assert!(no_negative_zero(first), "a gradient slab holds -0.0");
    dst.clear();
    dst.extend_from_slice(first);
    for src in slabs {
        add_assign(dst, src);
    }
}

/// Whether no element is `-0.0`.
fn no_negative_zero(v: &[f32]) -> bool {
    v.iter().all(|g| g.to_bits() != (-0.0f32).to_bits())
}

#[inline]
fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_desim::Xoshiro256StarStar;

    fn toy_buffer(n: usize, obs_dim: usize, action_dim: usize) -> RolloutBuffer {
        let mut b = RolloutBuffer::new(n, 1, obs_dim, action_dim);
        let mut rng = Xoshiro256StarStar::new(99);
        let mut obs = vec![0.0f32; obs_dim];
        let mut act = vec![0.0f32; action_dim];
        for _ in 0..n {
            for v in obs.iter_mut() {
                *v = rng.range_f64(-1.0, 1.0) as f32;
            }
            for v in act.iter_mut() {
                *v = rng.range_f64(-1.0, 1.0) as f32;
            }
            b.push(&obs, &act, rng.range_f64(-1.0, 1.0), false, 0.0, -1.0);
        }
        b.compute_advantages(&[0.0], 0.99, 0.95);
        b
    }

    /// An A2C-flavoured loss closure for exercising the executor directly.
    fn toy_loss(buffer: &RolloutBuffer) -> impl Fn(&mut SampleCtx) + '_ {
        move |ctx: &mut SampleCtx| {
            let action = buffer.action_row(ctx.buffer_index);
            let adv = buffer.advantages[ctx.buffer_index];
            let scale = (-adv / ctx.minibatch as f64) as f32;
            ctx.gauss.log_prob(ctx.mean, action, ctx.z);
            ctx.gauss
                .add_scaled_grads(ctx.z, scale, ctx.d_mean, ctx.grad_log_std);
            let err = ctx.value as f64 - buffer.returns[ctx.buffer_index];
            *ctx.d_value = (2.0 * err / ctx.minibatch as f64) as f32;
            ctx.diag.value_loss += err * err;
            ctx.diag.entropy_sum += ctx.gauss.entropy();
        }
    }

    /// Every gradient of the model, policy layers, value layers and
    /// `log_std` in registration order, as bits.
    fn grad_bits(ac: &ActorCritic) -> Vec<u32> {
        let mut flat: Vec<u32> = Vec::new();
        for l in ac.pi.layers().iter().chain(ac.vf.layers()) {
            flat.extend(l.grad_w.data().iter().map(|g| g.to_bits()));
            flat.extend(l.grad_b.iter().map(|g| g.to_bits()));
        }
        flat.extend(ac.grad_log_std.iter().map(|g| g.to_bits()));
        flat
    }

    /// Overwrites every gradient of the model with NaN and `-0.0`.
    fn poison_grads(ac: &mut ActorCritic) {
        let poison = |i: usize| if i.is_multiple_of(2) { f32::NAN } else { -0.0 };
        for l in ac.pi.layers_mut().iter_mut().chain(ac.vf.layers_mut()) {
            for (i, g) in l.grad_w.data_mut().iter_mut().enumerate() {
                *g = poison(i);
            }
            for (i, g) in l.grad_b.iter_mut().enumerate() {
                *g = poison(i);
            }
        }
        for (i, g) in ac.grad_log_std.iter_mut().enumerate() {
            *g = poison(i);
        }
    }

    /// The shard partition must depend on the minibatch size only: chunks
    /// shorter than one shard still work, as do non-multiple sizes.
    #[test]
    fn ragged_chunk_sizes() {
        let buffer = toy_buffer(40, 2, 2);
        for size in [1usize, 5, 16, 17, 33, 40] {
            let chunk: Vec<usize> = (0..size).collect();
            let mut rng = Xoshiro256StarStar::new(3);
            let mut ac = ActorCritic::new(2, 2, &mut rng);
            let mut exec = MinibatchExecutor::new();
            let diag = exec.run(&mut ac, &buffer, &chunk, &toy_loss(&buffer));
            assert!(diag.value_loss.is_finite(), "chunk {size}");
            assert!(ac.grad_norm() > 0.0, "chunk {size} produced no gradient");
        }
    }

    /// The reduction overwrites the model's gradients without zeroing them
    /// first: whatever they held (here NaN and `-0.0`), they end as the
    /// shard slabs summed onto `+0.0` in shard order, the tree a zeroed
    /// buffer gives, for chunks of one shard, several and a ragged last
    /// one. An empty chunk leaves zero gradients.
    #[test]
    fn reduction_without_prezeroing_equals_zeroed_sum() {
        let buffer = toy_buffer(40, 60, 9);
        let zeroed_sum = |dst: &mut Vec<u32>, slabs: &mut dyn Iterator<Item = &[f32]>| {
            let mut acc: Vec<f32> = Vec::new();
            for slab in slabs {
                acc.resize(slab.len(), 0.0);
                for (a, &g) in acc.iter_mut().zip(slab) {
                    *a += g;
                }
            }
            dst.extend(acc.iter().map(|g| g.to_bits()));
        };
        for size in [1usize, 5, 16, 17, 33] {
            let chunk: Vec<usize> = (0..size).rev().collect();
            let mut rng = Xoshiro256StarStar::new(size as u64);
            let mut ac = ActorCritic::new(60, 9, &mut rng);
            poison_grads(&mut ac);
            let mut exec = MinibatchExecutor::new();
            exec.run(&mut ac, &buffer, &chunk, &toy_loss(&buffer));

            let shards = &exec.shards[..size.div_ceil(SHARD_ROWS)];
            let mut expected = Vec::new();
            for (li, _) in ac.pi.layers().iter().enumerate() {
                zeroed_sum(
                    &mut expected,
                    &mut shards.iter().map(|s| s.pi_grads[li].w.data()),
                );
                zeroed_sum(
                    &mut expected,
                    &mut shards.iter().map(|s| s.pi_grads[li].b.as_slice()),
                );
            }
            for (li, _) in ac.vf.layers().iter().enumerate() {
                zeroed_sum(
                    &mut expected,
                    &mut shards.iter().map(|s| s.vf_grads[li].w.data()),
                );
                zeroed_sum(
                    &mut expected,
                    &mut shards.iter().map(|s| s.vf_grads[li].b.as_slice()),
                );
            }
            zeroed_sum(
                &mut expected,
                &mut shards.iter().map(|s| s.log_std_grad.as_slice()),
            );
            assert_eq!(grad_bits(&ac), expected, "chunk {size}");
        }

        let mut rng = Xoshiro256StarStar::new(2);
        let mut ac = ActorCritic::new(60, 9, &mut rng);
        let shapes = grad_bits(&ac).len();
        poison_grads(&mut ac);
        let diag = MinibatchExecutor::new().run(&mut ac, &buffer, &[], &toy_loss(&buffer));
        assert_eq!(grad_bits(&ac), vec![0u32; shapes], "empty chunk");
        assert_eq!(diag.clipped, 0);
    }

    /// Fills `layer`'s packed transpose with NaN and leaves its weights as
    /// they were: the pack of NaN weights, then the weights restored.
    fn poison_pack(layer: &mut Linear) {
        let w = layer.w.clone();
        layer.w.data_mut().fill(f32::NAN);
        layer.refresh_packed();
        layer.w = w;
    }

    /// Whether `layer`'s packed transpose is still poisoned: the input
    /// gradient `d_out · Wᵀ` reads it.
    fn pack_is_poisoned(layer: &Linear) -> bool {
        let x = Matrix::zeros(1, layer.in_dim());
        let d_out = Matrix::from_vec(1, layer.out_dim(), vec![1.0; layer.out_dim()]);
        let mut grads = LayerGrads::default();
        grads.zero_for(layer);
        let mut d_in = Matrix::zeros(0, 0);
        layer.backward_into(&x, &d_out, &mut grads, &mut d_in);
        d_in.data().iter().all(|v| v.is_nan())
    }

    /// Layer 0's packed transpose is never read: with it poisoned (NaN) in
    /// both networks, a run of minibatch updates with optimiser steps in
    /// between yields the same gradient bits as with it intact, and the
    /// packs stay poisoned throughout.
    #[test]
    fn layer0_packs_are_never_read() {
        let buffer = toy_buffer(48, 60, 9);
        let grads_after_updates = |poison: bool| {
            let mut rng = Xoshiro256StarStar::new(11);
            let mut ac = ActorCritic::new(60, 9, &mut rng);
            if poison {
                poison_pack(&mut ac.pi.layers_mut()[0]);
                poison_pack(&mut ac.vf.layers_mut()[0]);
            }
            let mut opt = crate::opt::Adam::new(3e-4);
            let mut exec = MinibatchExecutor::new();
            let mut seen = Vec::new();
            for chunk in [&[3usize, 7, 1, 40][..], &(0..33).collect::<Vec<_>>(), &[5]] {
                exec.run(&mut ac, &buffer, chunk, &toy_loss(&buffer));
                seen.push(grad_bits(&ac));
                ac.apply_gradients(&mut opt);
            }
            for net in [&ac.pi, &ac.vf] {
                assert_eq!(pack_is_poisoned(&net.layers()[0]), poison);
            }
            seen
        };
        assert_eq!(grads_after_updates(true), grads_after_updates(false));
    }
}
