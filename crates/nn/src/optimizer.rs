//! First-order optimizers over flat parameter vectors.
//!
//! Operating on flat vectors (rather than per-layer state) keeps the A3C
//! parameter store simple: the shared store owns one optimizer whose state
//! vectors are indexed identically to the shared parameters, no matter which
//! worker produced the gradient.

use serde::{Deserialize, Serialize};

/// A first-order optimizer: consumes a gradient, updates parameters in
/// place.
pub trait Optimizer: Send {
    /// Applies one update step. `params` and `grads` must have equal
    /// lengths, constant across calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);
}

/// Plain stochastic gradient descent.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`. Panics unless `lr > 0`.
    #[must_use]
    pub fn new(lr: f64) -> Sgd {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with the standard betas (0.9, 0.999). Panics unless
    /// `lr > 0`.
    #[must_use]
    pub fn new(lr: f64) -> Adam {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Clips a gradient vector to a maximum L2 norm in place; returns the
/// original norm. Standard A3C stabilization.
pub fn clip_grad_norm(grads: &mut [f64], max_norm: f64) -> f64 {
    let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut params = vec![0.0];
        for _ in 0..steps {
            let grads = vec![2.0 * (params[0] - 3.0)];
            opt.step(&mut params, &grads);
        }
        params[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_quadratic(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = run_quadratic(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut opt = Sgd::new(0.5);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[2.0, -4.0]);
        assert_eq!(p, vec![0.0, 4.0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr regardless of
        // gradient magnitude.
        for &g in &[1e-3, 1.0, 1e3] {
            let mut opt = Adam::new(0.01);
            let mut p = vec![0.0];
            opt.step(&mut p, &[g]);
            assert!((p[0] + 0.01).abs() < 1e-6, "g={g}, p={}", p[0]);
        }
    }

    #[test]
    fn clip_grad_norm_caps_and_reports() {
        let mut g = vec![3.0, 4.0];
        let norm = clip_grad_norm(&mut g, 1.0);
        assert_eq!(norm, 5.0);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((g[1] / g[0] - 4.0 / 3.0).abs() < 1e-12);
        // Under the cap: untouched.
        let mut small = vec![0.1, 0.1];
        let n = clip_grad_norm(&mut small, 1.0);
        assert!(n < 1.0);
        assert_eq!(small, vec![0.1, 0.1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0, 2.0]);
    }
}
