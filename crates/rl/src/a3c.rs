//! The asynchronous advantage actor-critic trainer.
//!
//! Faithful to the paper's Algorithm 1 and §5.1 training setup:
//! `workers` threads each own a private environment and thread-local
//! actor/critic networks. Every iteration a worker (1) pulls the latest
//! shared parameters, (2) rolls its environment forward under ε-greedy
//! sampling of `π_η`, (3) takes the update batch: the fresh rollout when
//! `on_policy` (the default), otherwise a uniform minibatch sampled from
//! its replay memory (Algorithm 1 line 7) — each transition is stored once,
//! in whichever of the two the batch comes from — (4) computes advantage
//! policy gradients and TD(0) critic gradients for the whole batch in one
//! forward and one backward pass per network, and (5) pushes both into the
//! shared [`ParamStore`], which applies them asynchronously.
//!
//! The paper trained on 2 GPUs; here workers are CPU threads — the defining
//! A3C property (asynchronous gradient application from parallel actors) is
//! preserved. With `workers == 1` training is fully deterministic given the
//! seed, which the experiment harness uses for reproducible sweeps.

use crate::actor_critic::{argmax, ActorCritic, NetSpec};
use crate::env::Env;
use crate::memory::{ReplayMemory, Transition};
use crate::metrics::RollingRate;
use crate::params::ParamStore;
use nn::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of one A3C training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct A3cConfig {
    /// Number of asynchronous worker threads.
    pub workers: usize,
    /// Stop once this many shared parameter updates have been applied.
    pub total_updates: u64,
    /// Environment steps collected by a worker between updates.
    pub rollout_len: usize,
    /// Minibatch size sampled from the replay memory per update.
    pub batch_size: usize,
    /// Replay memory capacity per worker.
    pub replay_capacity: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Learning rate (the paper's default is 0.0027; Fig. 9 sweeps it).
    pub learning_rate: f64,
    /// Exploration rate ε (the paper's "greedy rate", default 0.1).
    pub epsilon: f64,
    /// Entropy bonus coefficient for the actor loss.
    pub entropy_coeff: f64,
    /// Gradient L2-norm clip applied in the parameter store.
    pub max_grad_norm: f64,
    /// Per-batch advantage normalization in the workers (see
    /// [`crate::ActorCritic::normalize_advantages`]).
    pub normalize_advantages: bool,
    /// Critic baseline subtraction (see
    /// [`crate::ActorCritic::critic_baseline`]).
    pub critic_baseline: bool,
    /// Oracle-imitation coefficient (see
    /// [`crate::ActorCritic::imitation_coeff`]). 0 disables (pure A3C).
    pub imitation_coeff: f64,
    /// When `true` (default) each update trains on the worker's own fresh
    /// rollout (classic on-policy A3C). When `false`, updates sample a
    /// uniform minibatch from the replay memory, which is the literal
    /// reading of the paper's Algorithm 1 line 7 — but replayed transitions
    /// were generated by stale policies, which biases the policy gradient.
    pub on_policy: bool,
    /// Base RNG seed; workers derive their own streams from it.
    pub seed: u64,
    /// Record a [`ProgressPoint`] every this many updates.
    pub progress_every: u64,
}

impl Default for A3cConfig {
    fn default() -> Self {
        A3cConfig {
            workers: 4,
            total_updates: 2_000,
            rollout_len: 16,
            batch_size: 32,
            replay_capacity: 4_096,
            gamma: 0.9,
            learning_rate: 0.0027, // §6.1
            epsilon: 0.1,          // §6.1
            entropy_coeff: 0.01,
            max_grad_norm: 5.0,
            normalize_advantages: true,
            critic_baseline: true,
            imitation_coeff: 0.0,
            on_policy: true,
            seed: 0,
            progress_every: 25,
        }
    }
}

impl A3cConfig {
    /// Validates invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be > 0".into());
        }
        if self.rollout_len == 0 || self.batch_size == 0 {
            return Err("rollout_len and batch_size must be > 0".into());
        }
        if self.replay_capacity == 0 {
            return Err("replay_capacity must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1]".into());
        }
        if self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err("epsilon must be in [0, 1]".into());
        }
        if self.progress_every == 0 {
            return Err("progress_every must be > 0".into());
        }
        Ok(())
    }
}

/// A sampled training-progress observation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressPoint {
    /// Shared update count when recorded.
    pub update: u64,
    /// Mean reward per step over the worker's last rollout.
    pub mean_reward: f64,
    /// Rolling optimal-action rate, when the env exposes an oracle.
    pub optimal_rate: Option<f64>,
}

/// The outcome of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainResult {
    /// Final actor parameters (paired with the spec to rebuild the policy).
    pub actor_params: Vec<f64>,
    /// Final critic parameters.
    pub critic_params: Vec<f64>,
    /// Architecture the parameters belong to.
    pub spec: NetSpec,
    /// Progress points, sorted by update count.
    pub progress: Vec<ProgressPoint>,
    /// Total updates applied.
    pub updates: u64,
}

impl TrainResult {
    /// Rebuilds a ready-to-use actor-critic pair from the trained
    /// parameters.
    #[must_use]
    pub fn into_actor_critic(&self, gamma: f64, entropy_coeff: f64) -> ActorCritic {
        let mut ac = ActorCritic::new(self.spec, gamma, entropy_coeff, 0);
        ac.actor.set_params(&self.actor_params);
        ac.critic.set_params(&self.critic_params);
        ac
    }

    /// The optimal-action-rate series (update, rate), when recorded.
    #[must_use]
    pub fn optimal_rate_series(&self) -> Vec<(u64, f64)> {
        self.progress.iter().filter_map(|p| p.optimal_rate.map(|r| (p.update, r))).collect()
    }
}

/// The A3C trainer.
pub struct A3cTrainer {
    spec: NetSpec,
    config: A3cConfig,
}

impl A3cTrainer {
    /// Creates a trainer. Panics on invalid configuration.
    #[must_use]
    pub fn new(spec: NetSpec, config: A3cConfig) -> A3cTrainer {
        // Documented contract: callers must validate their config first.
        #[expect(clippy::panic, reason = "documented fail-fast contract")]
        if let Err(e) = config.validate() {
            panic!("invalid A3cConfig: {e}");
        }
        A3cTrainer { spec, config }
    }

    /// Runs training. `make_env(worker_index)` builds one private
    /// environment per worker.
    pub fn train<E, F>(&self, make_env: F) -> TrainResult
    where
        E: Env,
        F: Fn(usize) -> E + Sync,
    {
        let cfg = &self.config;
        let spec = self.spec;

        // Seed networks once so every run with the same seed starts at the
        // same point regardless of worker count. The seeding pair is dropped
        // before the workers start, so it is not resident while they train.
        let store = {
            let init = ActorCritic::new(spec, cfg.gamma, cfg.entropy_coeff, cfg.seed);
            ParamStore::new(
                init.actor.param_vector(),
                init.critic.param_vector(),
                Box::new(Adam::new(cfg.learning_rate)),
                Box::new(Adam::new(cfg.learning_rate)),
                cfg.max_grad_norm,
            )
        };
        let mut ledgers: Vec<Vec<ProgressPoint>> = vec![Vec::new(); cfg.workers];

        std::thread::scope(|scope| {
            for (worker, ledger) in ledgers.iter_mut().enumerate() {
                let store = &store;
                let make_env = &make_env;
                scope.spawn(move || {
                    *ledger = run_worker(worker, spec, cfg, store, make_env(worker));
                });
            }
        });

        let (actor_params, critic_params) = store.snapshot();
        let mut progress = ledgers.concat();
        progress.sort_by_key(|p| p.update);
        TrainResult { actor_params, critic_params, spec, progress, updates: store.update_count() }
    }
}

/// One worker's training loop; returns the progress points it recorded.
fn run_worker<E: Env>(
    worker: usize,
    spec: NetSpec,
    cfg: &A3cConfig,
    store: &ParamStore,
    mut env: E,
) -> Vec<ProgressPoint> {
    assert_eq!(
        env.state_dim(),
        spec.state_dim(),
        "environment state width must match the network spec"
    );
    assert_eq!(env.n_actions(), spec.actions, "action count mismatch");

    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (worker as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut ac = ActorCritic::new(spec, cfg.gamma, cfg.entropy_coeff, cfg.seed);
    ac.normalize_advantages = cfg.normalize_advantages;
    ac.critic_baseline = cfg.critic_baseline;
    ac.imitation_coeff = cfg.imitation_coeff;
    // Only the off-policy path samples a replay memory.
    let mut memory = (!cfg.on_policy).then(|| ReplayMemory::new(cfg.replay_capacity));
    let mut optimal_rate = RollingRate::new(256);
    let mut saw_oracle = false;
    let mut state = env.reset();

    // Gradient buffers hoisted out of the update loop: the push path
    // (grad_vector_into + apply_grads) reuses them for the whole training
    // run; the pull path copies straight into the networks.
    let (mut ga, mut gc) = (Vec::new(), Vec::new());
    let mut rollout = Vec::with_capacity(cfg.rollout_len);
    let mut progress = Vec::new();

    while store.update_count() < cfg.total_updates {
        // Pull the freshest shared parameters.
        store.pull_into(&mut ac.actor, &mut ac.critic);

        // Collect a rollout.
        let mut reward_sum = 0.0;
        rollout.clear();
        for _ in 0..cfg.rollout_len {
            let oracle = env.optimal_action();
            // One actor evaluation per step serves both the metric and the
            // sampled action.
            let probs = ac.policy(&state);
            // The optimal-action-rate metric scores the *deployable* greedy
            // action, not the exploratory one — otherwise the measured
            // ceiling is 1 - eps + eps/Gamma by construction and the Fig. 10
            // comparison across greedy rates is meaningless.
            if let Some(opt) = oracle {
                saw_oracle = true;
                optimal_rate.record(argmax(&probs) == opt);
            }
            let action = ac.sample_action(&probs, cfg.epsilon, &mut rng);
            let step = env.step(action);
            reward_sum += step.reward;
            let transition = Transition {
                state: std::mem::take(&mut state),
                action,
                reward: step.reward,
                next_state: step.next_state.clone(),
                done: step.done,
                oracle,
            };
            match &mut memory {
                Some(memory) => memory.push(transition),
                None => rollout.push(transition),
            }
            state = if step.done { env.reset() } else { step.next_state };
        }

        // Build the update batch: fresh rollout (on-policy) or a uniform
        // replay sample (Algorithm 1 lines 6-8).
        let sampled;
        let batch = match &memory {
            Some(memory) => {
                sampled = memory.sample(cfg.batch_size, &mut rng);
                &sampled
            }
            None => &rollout,
        };
        ac.actor.zero_grads();
        ac.critic.zero_grads();
        let _ = ac.accumulate_gradients(batch);
        ac.actor.grad_vector_into(&mut ga);
        ac.critic.grad_vector_into(&mut gc);
        let update = store.apply_grads(&mut ga, &mut gc);

        if update % cfg.progress_every == 0 {
            progress.push(ProgressPoint {
                update,
                mean_reward: reward_sum / cfg.rollout_len as f64,
                optimal_rate: saw_oracle.then(|| optimal_rate.rate()),
            });
        }
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{Bandit, ContextualBandit};

    fn tiny_spec(state_dim: usize, actions: usize) -> NetSpec {
        // window == state_dim with no extras keeps the conv tiny.
        NetSpec {
            window: state_dim.max(2),
            channels: 1,
            extras: state_dim.saturating_sub(state_dim.max(2)),
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions,
        }
    }

    /// Pads bandit states to the spec's width.
    struct PaddedBandit {
        inner: Bandit,
        width: usize,
    }

    impl Env for PaddedBandit {
        fn state_dim(&self) -> usize {
            self.width
        }
        fn n_actions(&self) -> usize {
            self.inner.n_actions()
        }
        fn reset(&mut self) -> Vec<f64> {
            let mut s = self.inner.reset();
            s.resize(self.width, 0.0);
            s
        }
        fn step(&mut self, action: usize) -> crate::env::Step {
            let mut step = self.inner.step(action);
            step.next_state.resize(self.width, 0.0);
            step
        }
        fn optimal_action(&self) -> Option<usize> {
            self.inner.optimal_action()
        }
    }

    #[test]
    fn single_worker_learns_bandit() {
        let spec = tiny_spec(2, 2);
        let cfg = A3cConfig {
            workers: 1,
            total_updates: 300,
            rollout_len: 8,
            batch_size: 16,
            learning_rate: 0.01,
            epsilon: 0.1,
            seed: 1,
            ..A3cConfig::default()
        };
        let result = A3cTrainer::new(spec, cfg.clone())
            .train(|_| PaddedBandit { inner: Bandit { steps: 0 }, width: 2 });
        assert_eq!(result.updates, 300);
        let mut ac = result.into_actor_critic(cfg.gamma, cfg.entropy_coeff);
        let probs = ac.policy(&[1.0, 0.0]);
        assert!(probs[1] > 0.8, "learned policy {probs:?}");
        // Progress was recorded with the oracle metric.
        assert!(!result.progress.is_empty());
        assert!(result.optimal_rate_series().last().unwrap().1 > 0.7);
    }

    #[test]
    fn multi_worker_training_completes_and_learns() {
        let spec = tiny_spec(2, 2);
        let cfg = A3cConfig {
            workers: 4,
            total_updates: 400,
            rollout_len: 8,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 2,
            ..A3cConfig::default()
        };
        let result = A3cTrainer::new(spec, cfg.clone())
            .train(|_| PaddedBandit { inner: Bandit { steps: 0 }, width: 2 });
        // Workers race past the stop flag; allow a small overshoot.
        assert!(result.updates >= 400 && result.updates < 400 + 8);
        let mut ac = result.into_actor_critic(cfg.gamma, cfg.entropy_coeff);
        assert!(ac.policy(&[1.0, 0.0])[1] > 0.7);
        // Progress points are sorted.
        assert!(result.progress.windows(2).all(|w| w[0].update <= w[1].update));
    }

    // --- Determinism audit -------------------------------------------------
    //
    // The shared ParamStore applies gradients Hogwild-style: with two or more
    // workers the interleaving of `store.apply_grads` calls is scheduler-dependent,
    // so bit-identical multi-worker replays are impossible by construction.
    // The audit therefore pins down both halves of the contract documented in
    // DESIGN.md ("Static analysis & invariants"):
    //   1. single-worker training is a pure function of the seed — params,
    //      progress ledger, and update count are bit-identical across runs;
    //   2. multi-worker runs stay inside a bounded nondeterminism envelope —
    //      update-count overshoot < workers, sorted ledger, finite params,
    //      and the learned policy reaches the same qualitative optimum.

    fn audit_cfg(workers: usize, seed: u64) -> A3cConfig {
        A3cConfig {
            workers,
            total_updates: 60,
            rollout_len: 4,
            batch_size: 8,
            progress_every: 5,
            seed,
            ..A3cConfig::default()
        }
    }

    fn audit_run(cfg: &A3cConfig) -> TrainResult {
        A3cTrainer::new(tiny_spec(2, 2), cfg.clone())
            .train(|_| PaddedBandit { inner: Bandit { steps: 0 }, width: 2 })
    }

    #[test]
    fn single_worker_run_is_deterministic() {
        // Bit-identical across the *entire* observable result: actor and
        // critic parameter vectors, the progress ledger (including float
        // rewards), and the update count.
        let cfg = audit_cfg(1, 3);
        let (a, b) = (audit_run(&cfg), audit_run(&cfg));
        assert_eq!(a.actor_params, b.actor_params);
        assert_eq!(a.critic_params, b.critic_params);
        assert_eq!(a.progress, b.progress);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.updates, cfg.total_updates);
    }

    #[test]
    fn different_seeds_actually_diverge() {
        // Guards the audit against a trivially-passing implementation (e.g.
        // ignoring the seed and always producing the same init).
        let a = audit_run(&audit_cfg(1, 3));
        let b = audit_run(&audit_cfg(1, 4));
        assert_ne!(a.actor_params, b.actor_params);
    }

    #[test]
    fn off_policy_replay_is_deterministic_and_learns_bandit() {
        // Algorithm 1's literal path: every update trains on a uniform
        // replay sample instead of the fresh rollout.
        let cfg = A3cConfig {
            workers: 1,
            total_updates: 300,
            rollout_len: 8,
            batch_size: 16,
            learning_rate: 0.01,
            epsilon: 0.1,
            on_policy: false,
            seed: 1,
            ..A3cConfig::default()
        };
        let (a, b) = (audit_run(&cfg), audit_run(&cfg));
        assert_eq!(a.actor_params, b.actor_params);
        assert_eq!(a.progress, b.progress);
        let mut ac = a.into_actor_critic(cfg.gamma, cfg.entropy_coeff);
        let probs = ac.policy(&[1.0, 0.0]);
        assert!(probs[1] > 0.8, "learned policy {probs:?}");
        // Same seed on-policy trains on different batches, so the replay
        // branch really was taken.
        let on = audit_run(&A3cConfig { on_policy: true, ..cfg });
        assert_ne!(a.actor_params, on.actor_params);
    }

    #[test]
    fn multi_worker_nondeterminism_envelope() {
        // Two same-seed runs with 2 workers. Bit-identity is NOT asserted —
        // Hogwild updates race by design — but every run must stay inside
        // the documented envelope.
        let cfg = audit_cfg(2, 3);
        for result in [audit_run(&cfg), audit_run(&cfg)] {
            // Workers can each push at most one final update past the stop
            // flag, so the overshoot is bounded by the worker count.
            assert!(
                result.updates >= cfg.total_updates
                    && result.updates < cfg.total_updates + cfg.workers as u64,
                "updates {} outside envelope",
                result.updates
            );
            // The merged ledger records each applied update at most once, at
            // a multiple of `progress_every`, and every value is finite.
            assert!(result.progress.windows(2).all(|w| w[0].update < w[1].update));
            assert!(result.progress.iter().all(|p| p.update % cfg.progress_every == 0));
            assert!(result.progress.iter().all(|p| p.mean_reward.is_finite()));
            assert!(result.actor_params.iter().all(|p| p.is_finite()));
            assert!(result.critic_params.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn learns_state_dependent_policy() {
        let spec = tiny_spec(2, 2);
        let cfg = A3cConfig {
            workers: 1,
            total_updates: 600,
            rollout_len: 8,
            batch_size: 32,
            learning_rate: 0.01,
            epsilon: 0.1,
            seed: 4,
            ..A3cConfig::default()
        };
        let result =
            A3cTrainer::new(spec, cfg.clone()).train(|_| ContextualBandit { context: 0, steps: 0 });
        let mut ac = result.into_actor_critic(cfg.gamma, cfg.entropy_coeff);
        let p0 = ac.policy(&[1.0, 0.0]);
        let p1 = ac.policy(&[0.0, 1.0]);
        assert!(p0[0] > 0.7, "context 0 policy {p0:?}");
        assert!(p1[1] > 0.7, "context 1 policy {p1:?}");
    }

    #[test]
    #[should_panic(expected = "invalid A3cConfig")]
    fn invalid_config_panics() {
        let _ = A3cTrainer::new(tiny_spec(2, 2), A3cConfig { workers: 0, ..A3cConfig::default() });
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn env_spec_mismatch_panics() {
        let spec = tiny_spec(4, 2); // expects width 4
        let cfg = A3cConfig { workers: 1, total_updates: 1, ..A3cConfig::default() };
        let _ = A3cTrainer::new(spec, cfg)
            .train(|_| PaddedBandit { inner: Bandit { steps: 0 }, width: 2 });
    }

    #[test]
    fn config_validation_covers_all_fields() {
        let ok = A3cConfig::default();
        assert!(ok.validate().is_ok());
        assert!(A3cConfig { workers: 0, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { rollout_len: 0, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { batch_size: 0, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { replay_capacity: 0, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { gamma: 1.5, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { learning_rate: 0.0, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { epsilon: -0.1, ..ok.clone() }.validate().is_err());
        assert!(A3cConfig { progress_every: 0, ..ok }.validate().is_err());
    }
}
