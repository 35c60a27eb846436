//! The Adam optimiser.

use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba, 2015) with bias correction — the optimiser behind
/// Stable-Baselines3's PPO. One `Adam` instance owns first/second-moment
/// buffers for a fixed set of parameter tensors, registered lazily on the
/// first step in call order (which must stay stable across steps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`, `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of optimisation steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update. `tensors` yields `(params, grads)` slice pairs
    /// (any iterator, so callers need not collect them); their order and
    /// shapes must be identical on every call. The first call registers
    /// them.
    pub fn step<'a>(&mut self, tensors: impl IntoIterator<Item = (&'a mut [f32], &'a [f32])>) {
        let register = self.m.is_empty();
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);

        let mut count = 0;
        for (idx, (params, grads)) in tensors.into_iter().enumerate() {
            count = idx + 1;
            if register {
                self.m.push(vec![0.0; params.len()]);
                self.v.push(vec![0.0; params.len()]);
            }
            assert!(
                idx < self.m.len(),
                "tensor registration changed between steps"
            );
            assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
            assert_eq!(
                params.len(),
                self.m[idx].len(),
                "tensor {idx} changed shape between steps"
            );
            // Lockstep iteration (no index bounds checks in the hot loop).
            // The loop vectorises at the baseline's SSE width (`sqrtps`
            // and three `divps` per vector in the release build) and is
            // bound by those divisions.
            let moments = self.m[idx].iter_mut().zip(self.v[idx].iter_mut());
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads.iter()).zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        assert_eq!(
            count,
            self.m.len(),
            "tensor registration changed between steps"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        // f(x) = (x-3)^2; Adam should converge to 3.
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step([(x.as_mut_slice(), g.as_slice())]);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn multiple_tensors() {
        let mut a = vec![1.0f32, -1.0];
        let mut b = vec![5.0f32];
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let ga: Vec<f32> = a.iter().map(|&x| 2.0 * x).collect(); // min at 0
            let gb: Vec<f32> = b.iter().map(|&x| 2.0 * (x - 2.0)).collect(); // min at 2
            opt.step([
                (a.as_mut_slice(), ga.as_slice()),
                (b.as_mut_slice(), gb.as_slice()),
            ]);
        }
        assert!(a.iter().all(|&x| x.abs() < 1e-2), "a = {a:?}");
        assert!((b[0] - 2.0).abs() < 1e-2, "b = {}", b[0]);
    }

    #[test]
    fn first_step_matches_reference() {
        // With g=1 everywhere, the first Adam update is exactly -lr
        // (bias-corrected m_hat = g, v_hat = g²).
        let mut x = vec![0.0f32, 10.0];
        let g = vec![1.0f32, 1.0];
        let mut opt = Adam::new(0.001);
        opt.step([(x.as_mut_slice(), g.as_slice())]);
        assert!((x[0] + 0.001).abs() < 1e-6);
        assert!((x[1] - 9.999).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "tensor registration changed")]
    fn dropping_a_registered_tensor_panics() {
        let (mut a, mut b) = (vec![0.0f32; 2], vec![0.0f32]);
        let (ga, gb) = (vec![1.0f32; 2], vec![1.0f32]);
        let mut opt = Adam::new(0.1);
        opt.step([
            (a.as_mut_slice(), ga.as_slice()),
            (b.as_mut_slice(), gb.as_slice()),
        ]);
        opt.step([(a.as_mut_slice(), ga.as_slice())]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grad_length_panics() {
        let mut x = vec![0.0f32, 1.0];
        let g = vec![1.0f32];
        Adam::new(0.1).step([(x.as_mut_slice(), g.as_slice())]);
    }
}
