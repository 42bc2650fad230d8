//! The shared parameter store for asynchronous training.
//!
//! A3C workers train thread-local networks against snapshots of the shared
//! parameters and push gradients back; the store applies them under one lock
//! over both networks (Hogwild-style serialization of the optimizer steps,
//! which keeps Adam's moment estimates coherent). It also counts applied
//! updates, the "number of steps" axis in the paper's Figs. 9–10.

use nn::{clip_grad_norm, Network, Optimizer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Parameters plus optimizer state for one network (actor or critic).
struct Slot {
    params: Vec<f64>,
    optimizer: Box<dyn Optimizer>,
}

/// Both slots behind one lock: no lock order, and no read across an update.
struct Slots {
    actor: Slot,
    critic: Slot,
}

/// Shared actor/critic parameters with atomic update counting.
pub struct ParamStore {
    slots: Mutex<Slots>,
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
            slots: Mutex::new(Slots {
                actor: Slot { params: actor_params, optimizer: actor_opt },
                critic: Slot { params: critic_params, optimizer: critic_opt },
            }),
            updates: AtomicU64::new(0),
            max_grad_norm,
        }
    }

    /// Takes the lock. A step that panicked midway leaves every slot's
    /// lengths intact, so training goes on from its partial update.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies of the current actor and critic parameters.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<f64>, Vec<f64>) {
        let slots = self.lock();
        (slots.actor.params.clone(), slots.critic.params.clone())
    }

    /// Overwrites the networks' parameters with the current shared ones,
    /// copying straight from the store: the worker loop's per-update pull
    /// path, with no intermediate buffer.
    pub fn pull_into(&self, actor: &mut Network, critic: &mut Network) {
        let slots = self.lock();
        actor.set_params(&slots.actor.params);
        critic.set_params(&slots.critic.params);
    }

    /// Applies one asynchronous update: clips both caller-owned gradients in
    /// place to the configured norm, steps both optimizers, bumps the update
    /// counter, and returns the new counter value.
    pub fn apply_grads(&self, actor_grads: &mut [f64], critic_grads: &mut [f64]) -> u64 {
        clip_grad_norm(actor_grads, self.max_grad_norm);
        clip_grad_norm(critic_grads, self.max_grad_norm);
        let mut slots = self.lock();
        let Slots { actor, critic } = &mut *slots;
        actor.optimizer.step(&mut actor.params, actor_grads);
        critic.optimizer.step(&mut critic.params, critic_grads);
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
    use std::sync::atomic::AtomicBool;
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
        s.apply_grads(&mut [1.0, -1.0], &mut [0.5, 0.5]);
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
        s.apply_grads(&mut [10.0], &mut [0.1]);
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
                        s.apply_grads(&mut [0.001], &mut [0.001]);
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

    /// SGD whose first step panics mid-update, with the store's lock held.
    struct PanicsOnce {
        panicked: bool,
        sgd: Sgd,
    }

    impl Optimizer for PanicsOnce {
        fn step(&mut self, params: &mut [f64], grads: &[f64]) {
            if !self.panicked {
                self.panicked = true;
                panic!("first step fails");
            }
            self.sgd.step(params, grads);
        }
    }

    #[test]
    fn poisoned_lock_recovers() {
        let s = ParamStore::new(
            vec![0.0],
            vec![0.0],
            Box::new(PanicsOnce { panicked: false, sgd: Sgd::new(1.0) }),
            Box::new(Sgd::new(1.0)),
            1e9,
        );
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply_grads(&mut [1.0], &mut [1.0])
        }));
        assert!(failed.is_err());
        assert!(s.slots.is_poisoned(), "the panic must have been taken with the lock held");
        // Neither network moved, and the failed update was not counted.
        assert_eq!(s.snapshot(), (vec![0.0], vec![0.0]));
        assert_eq!(s.update_count(), 0);
        // The store keeps training through the poisoned lock.
        assert_eq!(s.apply_grads(&mut [1.0], &mut [0.5]), 1);
        assert_eq!(s.snapshot(), (vec![-1.0], vec![-0.5]));
    }

    #[test]
    fn snapshots_see_actor_and_critic_from_one_update() {
        // Equal gradients keep actor == critic after every whole update, so
        // any snapshot taken between the two optimizer steps would differ.
        let s = store(64);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut ga, mut gc) = (vec![0.0; 64], vec![0.0; 64]);
                for k in 0..2_000u32 {
                    ga.fill(f64::from(k % 7) - 3.0);
                    gc.copy_from_slice(&ga);
                    s.apply_grads(&mut ga, &mut gc);
                }
                done.store(true, Ordering::Release);
            });
            let mut seen = 0u64;
            while !done.load(Ordering::Acquire) {
                let (a, c) = s.snapshot();
                assert_eq!(a, c, "torn snapshot after {seen} reads");
                seen += 1;
            }
        });
        assert_eq!(s.update_count(), 2_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clip_norm_rejected() {
        let _ =
            ParamStore::new(vec![], vec![], Box::new(Sgd::new(1.0)), Box::new(Sgd::new(1.0)), 0.0);
    }
}
