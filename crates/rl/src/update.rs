//! Deterministic multi-worker minibatch updates.
//!
//! The optimisation phase of PPO/A2C is data-parallel over minibatch rows:
//! every row's forward pass, loss gradient and backward contribution is
//! independent, and only the *parameter-gradient accumulation* couples
//! rows. [`MinibatchExecutor`] exploits that while keeping training
//! bit-reproducible at any worker count:
//!
//! 1. each minibatch is partitioned into fixed shards of [`SHARD_ROWS`]
//!    rows — the partition depends only on the minibatch size, never on
//!    the worker count;
//! 2. every shard runs forward → per-sample loss → backward against its
//!    own scratch caches and its own gradient slab
//!    ([`crate::nn::LayerGrads`]), so the shared network is only read
//!    (workers are striped over shards via
//!    [`qcs_desim::parallel::par_for_each_mut`]);
//! 3. the shard slabs are then reduced into the model's gradient buffers
//!    on the calling thread, in the fixed tensor-registration order
//!    (policy layers, value layers, `log_std`) and ascending shard order.
//!
//! Because both the partition and the reduction order are fixed, the
//! floating-point accumulation tree is identical whether the shards ran on
//! one thread or eight — `n_update_workers = 1/2/3/7` produce bit-identical
//! parameter trajectories (pinned by `tests/update_parity.rs`). Scalar
//! diagnostics (losses, KL, clip counts) are reduced the same way and are
//! equally reproducible.

use crate::buffer::RolloutBuffer;
use crate::nn::{LayerGrads, Matrix, MlpCache};
use crate::policy::ActorCritic;

/// Rows per minibatch shard. A compile-time constant so the shard
/// partition — and therefore the gradient summation tree — is a pure
/// function of the minibatch size, independent of worker count. 16 rows
/// fill whole register blocks and exactly one rows-in-lanes head block of
/// the AVX-512 GEMM, which `nn::matrix::select_kernel` picks from 16 rows
/// up, while giving a default 64-row minibatch four shards to spread over
/// workers.
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
    /// The model's `log_std` vector.
    pub log_std: &'a [f32],
    /// Value-head output for this sample.
    pub value: f32,
    /// Output: loss gradient w.r.t. the policy mean row (pre-zeroed).
    pub d_mean: &'a mut [f32],
    /// Output: loss gradient w.r.t. the value estimate (pre-zeroed).
    pub d_value: &'a mut f32,
    /// Output: gradient accumulator for `log_std` (shard-local slab).
    pub grad_log_std: &'a mut [f32],
    /// Output: diagnostics accumulator (shard-local).
    pub diag: &'a mut ShardDiag,
    /// Scratch row (`action_dim`) for `dlogp/dmean`.
    pub dmu: &'a mut [f32],
    /// Scratch row (`action_dim`) for `dlogp/dlog_std`.
    pub dls: &'a mut [f32],
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
    dmu: Vec<f32>,
    dls: Vec<f32>,
    diag: ShardDiag,
}

/// The shard-parallel minibatch engine shared by [`crate::Ppo`] and
/// [`crate::A2c`]. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct MinibatchExecutor {
    workers: usize,
    shards: Vec<ShardScratch>,
}

impl MinibatchExecutor {
    /// Creates an executor running on `workers` threads. `0` and `1` (the
    /// defaults) run all shards inline on the calling thread — no threads
    /// are ever spawned. Callers wanting one worker per core pass
    /// [`qcs_desim::parallel::default_threads`] explicitly.
    pub fn new(workers: usize) -> Self {
        MinibatchExecutor {
            workers: workers.max(1),
            shards: Vec::new(),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one minibatch (the buffer rows selected by `chunk`): zeroes
    /// `ac`'s gradients (refreshing the packed weight transposes), executes
    /// every shard's forward/loss/backward — `per_sample` supplies the
    /// algorithm-specific loss gradient — and reduces the shard slabs into
    /// `ac`'s gradient buffers. Returns the summed diagnostics.
    ///
    /// The caller is left with exactly what the historical single-threaded
    /// code produced after its backward passes: accumulated gradients on
    /// `ac`, ready for clipping and the optimiser step.
    pub fn run(
        &mut self,
        ac: &mut ActorCritic,
        buffer: &RolloutBuffer,
        chunk: &[usize],
        per_sample: &(dyn Fn(&mut SampleCtx) + Sync),
    ) -> ShardDiag {
        let b = chunk.len();
        let obs_dim = buffer.obs_dim();
        let action_dim = buffer.action_dim();
        let n_shards = b.div_ceil(SHARD_ROWS);
        if self.shards.len() < n_shards {
            self.shards.resize_with(n_shards, ShardScratch::default);
        }

        ac.zero_grad();

        {
            // Parallel phase: the model is only *read* from here on.
            let ac: &ActorCritic = ac;
            let shards = &mut self.shards[..n_shards];
            qcs_desim::parallel::par_for_each_mut(shards, self.workers, |s_idx, scratch| {
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
                scratch.dmu.resize(action_dim, 0.0);
                scratch.dls.resize(action_dim, 0.0);
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
                        log_std: &ac.log_std,
                        value: values.get(row, 0),
                        d_mean: dmean_row,
                        d_value: &mut scratch.dv.row_mut(row)[0],
                        grad_log_std: &mut scratch.log_std_grad,
                        diag: &mut scratch.diag,
                        dmu: &mut scratch.dmu,
                        dls: &mut scratch.dls,
                    };
                    per_sample(&mut ctx);
                }

                ac.pi
                    .backward_into(&mut scratch.pi_cache, &scratch.dmean, &mut scratch.pi_grads);
                ac.vf
                    .backward_into(&mut scratch.vf_cache, &scratch.dv, &mut scratch.vf_grads);
            });
        }

        // Reduction: fixed tensor-registration order (policy layers, value
        // layers, log_std), ascending shard order per tensor — the same
        // summation tree at every worker count.
        let shards = &self.shards[..n_shards];
        for (li, layer) in ac.pi.layers_mut().iter_mut().enumerate() {
            for scratch in shards {
                add_assign(layer.grad_w.data_mut(), scratch.pi_grads[li].w.data());
                add_assign(&mut layer.grad_b, &scratch.pi_grads[li].b);
            }
        }
        for (li, layer) in ac.vf.layers_mut().iter_mut().enumerate() {
            for scratch in shards {
                add_assign(layer.grad_w.data_mut(), scratch.vf_grads[li].w.data());
                add_assign(&mut layer.grad_b, &scratch.vf_grads[li].b);
            }
        }
        for scratch in shards {
            add_assign(&mut ac.grad_log_std, &scratch.log_std_grad);
        }

        let mut diag = ShardDiag::default();
        for scratch in shards {
            diag.accumulate(&scratch.diag);
        }
        diag
    }
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
    use crate::dist::DiagGaussian;
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
    fn toy_loss(buffer: &RolloutBuffer) -> impl Fn(&mut SampleCtx) + Sync + '_ {
        move |ctx: &mut SampleCtx| {
            let dist = DiagGaussian {
                mean: ctx.mean,
                log_std: ctx.log_std,
            };
            let action = buffer.action_row(ctx.buffer_index);
            let adv = buffer.advantages[ctx.buffer_index];
            let scale = (-adv / ctx.minibatch as f64) as f32;
            dist.dlogp_dmean(action, ctx.dmu);
            dist.dlogp_dlogstd(action, ctx.dls);
            for j in 0..ctx.d_mean.len() {
                ctx.d_mean[j] = ctx.dmu[j] * scale;
                ctx.grad_log_std[j] += ctx.dls[j] * scale;
            }
            let err = ctx.value as f64 - buffer.returns[ctx.buffer_index];
            *ctx.d_value = (2.0 * err / ctx.minibatch as f64) as f32;
            ctx.diag.value_loss += err * err;
            ctx.diag.entropy_sum += dist.entropy();
        }
    }

    /// Gradients and diagnostics must be bit-identical at every worker
    /// count — the core determinism contract.
    #[test]
    fn worker_count_is_unobservable() {
        let buffer = toy_buffer(50, 4, 3);
        let chunk: Vec<usize> = (0..50).collect();
        let grads_at = |workers: usize| {
            let mut rng = Xoshiro256StarStar::new(7);
            let mut ac = ActorCritic::new(4, 3, &mut rng);
            let mut exec = MinibatchExecutor::new(workers);
            let diag = exec.run(&mut ac, &buffer, &chunk, &toy_loss(&buffer));
            let mut flat: Vec<f32> = Vec::new();
            for l in ac.pi.layers().iter().chain(ac.vf.layers()) {
                flat.extend_from_slice(l.grad_w.data());
                flat.extend_from_slice(&l.grad_b);
            }
            flat.extend_from_slice(&ac.grad_log_std);
            (flat, diag.value_loss, diag.entropy_sum)
        };
        let reference = grads_at(1);
        for workers in [2, 3, 7, 16] {
            assert_eq!(reference, grads_at(workers), "{workers} workers diverged");
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
            let mut exec = MinibatchExecutor::new(4);
            let diag = exec.run(&mut ac, &buffer, &chunk, &toy_loss(&buffer));
            assert!(diag.value_loss.is_finite(), "chunk {size}");
            assert!(ac.grad_norm() > 0.0, "chunk {size} produced no gradient");
        }
    }

    #[test]
    fn zero_workers_means_single_threaded() {
        assert_eq!(MinibatchExecutor::new(0).workers(), 1);
        assert_eq!(MinibatchExecutor::new(5).workers(), 5);
    }
}
