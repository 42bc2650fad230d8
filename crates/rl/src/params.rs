//! The shared parameter store for asynchronous training.
//!
//! A3C workers train thread-local networks against snapshots of the shared
//! parameters and push gradients back; the store applies them under a lock
//! (Hogwild-style serialization of the optimizer step, which keeps Adam's
//! moment estimates coherent). The store also counts applied updates, which
//! is the "number of steps" axis in the paper's Figs. 9–10.

use nn::{clip_grad_norm, Network, Optimizer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parameters plus optimizer state for one network (actor or critic).
struct Slot {
    params: Vec<f64>,
    optimizer: Box<dyn Optimizer>,
}

/// Shared actor/critic parameters with atomic update counting.
pub struct ParamStore {
    actor: Mutex<Slot>,
    critic: Mutex<Slot>,
    updates: AtomicU64,
    max_grad_norm: f64,
}

impl ParamStore {
    /// Creates a store with initial parameters and per-network optimizers.
    #[must_use]
    pub fn new(
        actor_params: Vec<f64>,
        critic_params: Vec<f64>,
        actor_opt: Box<dyn Optimizer>,
        critic_opt: Box<dyn Optimizer>,
        max_grad_norm: f64,
    ) -> ParamStore {
        assert!(max_grad_norm > 0.0, "max_grad_norm must be positive");
        ParamStore {
            actor: Mutex::new(Slot { params: actor_params, optimizer: actor_opt }),
            critic: Mutex::new(Slot { params: critic_params, optimizer: critic_opt }),
            updates: AtomicU64::new(0),
            max_grad_norm,
        }
    }

    /// Copies of the current actor and critic parameters.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<f64>, Vec<f64>) {
        (self.actor.lock().params.clone(), self.critic.lock().params.clone())
    }

    /// Overwrites the networks' parameters with the current shared ones,
    /// copying straight from the store: the worker loop's per-update pull
    /// path, with no intermediate buffer.
    pub fn pull_into(&self, actor: &mut Network, critic: &mut Network) {
        actor.set_params(&self.actor.lock().params);
        critic.set_params(&self.critic.lock().params);
    }

    /// Applies one asynchronous update: clips both gradients to the
    /// configured norm, steps both optimizers, bumps the update counter, and
    /// returns the new counter value.
    pub fn apply(&self, mut actor_grads: Vec<f64>, mut critic_grads: Vec<f64>) -> u64 {
        self.apply_grads(&mut actor_grads, &mut critic_grads)
    }

    /// [`ParamStore::apply`] over caller-owned gradient buffers, clipping in
    /// place; the worker loop's per-update push path, allocation-free on the
    /// caller's side.
    pub fn apply_grads(&self, actor_grads: &mut [f64], critic_grads: &mut [f64]) -> u64 {
        clip_grad_norm(actor_grads, self.max_grad_norm);
        clip_grad_norm(critic_grads, self.max_grad_norm);
        {
            let mut slot = self.actor.lock();
            let Slot { params, optimizer } = &mut *slot;
            optimizer.step(params, actor_grads);
        }
        {
            let mut slot = self.critic.lock();
            let Slot { params, optimizer } = &mut *slot;
            optimizer.step(params, critic_grads);
        }
        self.updates.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of updates applied so far.
    #[must_use]
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Sgd;
    use std::sync::Arc;

    fn store(n: usize) -> ParamStore {
        ParamStore::new(
            vec![0.0; n],
            vec![0.0; n],
            Box::new(Sgd::new(1.0)),
            Box::new(Sgd::new(1.0)),
            1e9,
        )
    }

    #[test]
    fn apply_updates_parameters() {
        let s = store(2);
        s.apply(vec![1.0, -1.0], vec![0.5, 0.5]);
        let (a, c) = s.snapshot();
        assert_eq!(a, vec![-1.0, 1.0]);
        assert_eq!(c, vec![-0.5, -0.5]);
        assert_eq!(s.update_count(), 1);
    }

    #[test]
    fn gradient_clipping_applies() {
        let s = ParamStore::new(
            vec![0.0],
            vec![0.0],
            Box::new(Sgd::new(1.0)),
            Box::new(Sgd::new(1.0)),
            1.0,
        );
        s.apply(vec![10.0], vec![0.1]);
        let (a, c) = s.snapshot();
        // Actor gradient clipped from 10 to 1.
        assert!((a[0] + 1.0).abs() < 1e-12, "{a:?}");
        // Critic gradient under the cap, untouched.
        assert!((c[0] + 0.1).abs() < 1e-12, "{c:?}");
    }

    #[test]
    fn concurrent_updates_all_land() {
        let s = Arc::new(store(1));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.apply(vec![0.001], vec![0.001]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.update_count(), 800);
        let (a, _) = s.snapshot();
        // 800 SGD steps of -0.001 each.
        assert!((a[0] + 0.8).abs() < 1e-9, "{a:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clip_norm_rejected() {
        let _ =
            ParamStore::new(vec![], vec![], Box::new(Sgd::new(1.0)), Box::new(Sgd::new(1.0)), 0.0);
    }
}
