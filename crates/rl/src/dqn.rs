//! Deep Q-learning with a target network.
//!
//! The paper describes its method as "training two Deep Q-Networks" inside
//! an A3C loop (§5.1). This module provides the classical alternative
//! reading — plain DQN (Mnih et al. 2015): one Q-network trained by
//! temporal-difference regression against a periodically-synchronized
//! target network, ε-greedy behavior, and uniform replay sampling. It
//! reuses the same [`NetSpec`] topology (the Q-head has one output per
//! action), so a trained Q-network deploys through the same greedy-argmax
//! policy path as the actor-critic agent.
//!
//! Kept single-threaded: DQN's stability comes from the replay buffer and
//! target network, not from asynchrony; the experiment harness uses it as
//! the trainer ablation against A3C.

use crate::actor_critic::{argmax, stack_rows, NetSpec};
use crate::env::Env;
use crate::memory::{ReplayMemory, Transition};
use crate::metrics::RollingRate;
use nn::{Adam, ForwardScratch, Matrix, Network, Optimizer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters of a DQN training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Gradient updates to run.
    pub total_updates: u64,
    /// Environment steps collected between updates.
    pub steps_per_update: usize,
    /// Minibatch size sampled from replay per update.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Exploration rate at the start of training.
    pub epsilon_start: f64,
    /// Exploration rate at the end (linear anneal).
    pub epsilon_end: f64,
    /// Sync the target network every this many updates.
    pub target_sync_every: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            total_updates: 5_000,
            steps_per_update: 4,
            batch_size: 32,
            replay_capacity: 16_384,
            gamma: 0.9,
            learning_rate: 0.001,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            target_sync_every: 250,
            seed: 0,
        }
    }
}

impl DqnConfig {
    /// Validates invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps_per_update == 0 || self.batch_size == 0 {
            return Err("steps_per_update and batch_size must be > 0".into());
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
        for eps in [self.epsilon_start, self.epsilon_end] {
            if !(0.0..=1.0).contains(&eps) {
                return Err("epsilon must be in [0, 1]".into());
            }
        }
        if self.target_sync_every == 0 {
            return Err("target_sync_every must be > 0".into());
        }
        Ok(())
    }

    /// Linearly annealed exploration rate at `update`.
    #[must_use]
    pub fn epsilon_at(&self, update: u64) -> f64 {
        if self.total_updates == 0 {
            return self.epsilon_end;
        }
        let progress = (update as f64 / self.total_updates as f64).clamp(0.0, 1.0);
        self.epsilon_start + (self.epsilon_end - self.epsilon_start) * progress
    }
}

/// The outcome of a DQN training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DqnResult {
    /// Trained Q-network parameters (deployable via greedy argmax — the
    /// same path as an actor network, e.g. `RlPolicy::from_params`).
    pub q_params: Vec<f64>,
    /// Architecture of the Q-network.
    pub spec: NetSpec,
    /// Final rolling optimal-action rate, when the env exposes an oracle.
    pub final_optimal_rate: Option<f64>,
    /// Mean TD loss over the last 10% of updates.
    pub final_loss: f64,
}

/// Trains a DQN on `env`.
///
/// Panics on invalid configuration or env/spec mismatch.
pub fn train_dqn<E: Env>(spec: NetSpec, cfg: &DqnConfig, mut env: E) -> DqnResult {
    // Documented contract: callers must validate their config first.
    #[expect(clippy::panic, reason = "documented fail-fast contract")]
    if let Err(e) = cfg.validate() {
        panic!("invalid DqnConfig: {e}");
    }
    assert_eq!(env.state_dim(), spec.state_dim(), "state width mismatch");
    assert_eq!(env.n_actions(), spec.actions, "action count mismatch");

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD9_0000);
    let mut q = spec.build_actor(cfg.seed);
    let mut target = spec.build_actor(cfg.seed);
    target.set_params(&q.param_vector());
    let mut optimizer = Adam::new(cfg.learning_rate);
    let mut memory = ReplayMemory::new(cfg.replay_capacity);
    let mut rate = RollingRate::new(256);
    let mut saw_oracle = false;

    let mut state = env.reset();
    let mut tail_loss = 0.0;
    let mut tail_count = 0u64;
    // Buffers reused across updates: the minibatch's states and
    // non-terminal next-states, and the loss gradient at the Q-head.
    let mut scratch = ForwardScratch::new();
    let (mut states, mut next_states, mut grad) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let mut bootstraps = Vec::new();

    for update in 0..cfg.total_updates {
        let epsilon = cfg.epsilon_at(update);

        // Collect experience.
        for _ in 0..cfg.steps_per_update {
            let oracle = env.optimal_action();
            let greedy = argmax(q.infer_into(&Matrix::row_vector(&state), &mut scratch).row(0));
            let action = if rng.random::<f64>() < epsilon {
                rng.random_range(0..spec.actions)
            } else {
                greedy
            };
            if let Some(opt) = oracle {
                saw_oracle = true;
                rate.record(greedy == opt);
            }
            let step = env.step(action);
            memory.push(Transition {
                state: std::mem::take(&mut state),
                action,
                reward: step.reward,
                next_state: step.next_state.clone(),
                done: step.done,
                oracle,
            });
            state = if step.done { env.reset() } else { step.next_state };
        }

        // TD regression against the target network: one stateless target
        // pass over the non-terminal next-states, then one Q forward and
        // one Q backward over the minibatch, rows summed in order.
        let batch = memory.sample(cfg.batch_size, &mut rng);
        q.zero_grads();
        let scale = 1.0 / batch.len().max(1) as f64;
        let mut loss = 0.0;
        let dim = spec.state_dim();
        let live = batch.iter().filter(|tr| !tr.done);
        stack_rows(&mut next_states, dim, live.map(|tr| tr.next_state.as_slice()));
        let next = target.infer_into(&next_states, &mut scratch);
        bootstraps.clear();
        bootstraps.extend(
            (0..next.rows()).map(|r| next.row(r).iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        );
        stack_rows(&mut states, dim, batch.iter().map(|tr| tr.state.as_slice()));
        let values = q.forward_into(&states, &mut scratch);
        grad.reset(batch.len(), spec.actions);
        let mut live_bootstraps = bootstraps.iter();
        for (r, tr) in batch.iter().enumerate() {
            let bootstrap =
                if tr.done { 0.0 } else { live_bootstraps.next().copied().unwrap_or(0.0) };
            let td_target = tr.reward + cfg.gamma * bootstrap;
            let error = values.get(r, tr.action) - td_target;
            loss += error * error;
            // dL/dQ is nonzero only at the taken action.
            grad.set(r, tr.action, 2.0 * error * scale);
        }
        let _ = q.backward(&grad);
        let grads = q.grad_vector();
        let mut params = q.param_vector();
        optimizer.step(&mut params, &grads);
        q.set_params(&params);

        if (update + 1) % cfg.target_sync_every == 0 {
            target.set_params(&q.param_vector());
        }
        if update >= cfg.total_updates - cfg.total_updates.div_ceil(10) {
            tail_loss += loss * scale;
            tail_count += 1;
        }
    }

    DqnResult {
        q_params: q.param_vector(),
        spec,
        final_optimal_rate: saw_oracle.then(|| rate.rate()),
        final_loss: tail_loss / tail_count.max(1) as f64,
    }
}

/// Rebuilds the greedy Q-policy network from a result.
#[must_use]
pub fn q_network(result: &DqnResult) -> Network {
    let mut net = result.spec.build_actor(0);
    net.set_params(&result.q_params);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{Bandit, ContextualBandit};
    use crate::env::Step;

    fn tiny_spec() -> NetSpec {
        NetSpec {
            window: 2,
            channels: 1,
            extras: 0,
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions: 2,
        }
    }

    /// Pads bandit states to width 2.
    struct Padded<E>(E);

    impl<E: Env> Env for Padded<E> {
        fn state_dim(&self) -> usize {
            2
        }
        fn n_actions(&self) -> usize {
            self.0.n_actions()
        }
        fn reset(&mut self) -> Vec<f64> {
            let mut s = self.0.reset();
            s.resize(2, 0.0);
            s
        }
        fn step(&mut self, action: usize) -> Step {
            let mut step = self.0.step(action);
            step.next_state.resize(2, 0.0);
            step
        }
        fn optimal_action(&self) -> Option<usize> {
            self.0.optimal_action()
        }
    }

    #[test]
    fn epsilon_anneals_linearly() {
        let cfg = DqnConfig { total_updates: 100, ..DqnConfig::default() };
        assert_eq!(cfg.epsilon_at(0), 1.0);
        assert!((cfg.epsilon_at(50) - 0.525).abs() < 1e-12);
        assert!((cfg.epsilon_at(100) - 0.05).abs() < 1e-12);
        assert!((cfg.epsilon_at(10_000) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn dqn_learns_the_bandit() {
        let cfg =
            DqnConfig { total_updates: 600, learning_rate: 0.01, seed: 1, ..DqnConfig::default() };
        let result = train_dqn(tiny_spec(), &cfg, Padded(Bandit { steps: 0 }));
        let mut q = q_network(&result);
        let values = q.forward(&Matrix::row_vector(&[1.0, 0.0]));
        assert!(values.get(0, 1) > values.get(0, 0), "Q-values {:?}", values.row(0));
        assert!(result.final_optimal_rate.unwrap() > 0.6);
        assert!(result.final_loss.is_finite());
    }

    #[test]
    fn dqn_learns_state_dependence() {
        let cfg = DqnConfig {
            total_updates: 1_500,
            learning_rate: 0.01,
            gamma: 0.5,
            seed: 2,
            ..DqnConfig::default()
        };
        let result = train_dqn(tiny_spec(), &cfg, ContextualBandit { context: 0, steps: 0 });
        let mut q = q_network(&result);
        let q0 = q.forward(&Matrix::row_vector(&[1.0, 0.0]));
        let q1 = q.forward(&Matrix::row_vector(&[0.0, 1.0]));
        assert!(q0.get(0, 0) > q0.get(0, 1), "context 0: {:?}", q0.row(0));
        assert!(q1.get(0, 1) > q1.get(0, 0), "context 1: {:?}", q1.row(0));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let cfg = DqnConfig { total_updates: 50, seed: 3, ..DqnConfig::default() };
        let a = train_dqn(tiny_spec(), &cfg, Padded(Bandit { steps: 0 }));
        let b = train_dqn(tiny_spec(), &cfg, Padded(Bandit { steps: 0 }));
        assert_eq!(a.q_params, b.q_params);
        let c = train_dqn(tiny_spec(), &DqnConfig { seed: 4, ..cfg }, Padded(Bandit { steps: 0 }));
        assert_ne!(a.q_params, c.q_params);
    }

    /// The fnv1a64 of the trained Q parameters' little-endian bits. Any
    /// change to the training arithmetic moves it; a speed-up must not.
    #[test]
    fn dqn_pinned_params_digest() {
        let spec = NetSpec { filters: 20, hidden: 37, ..tiny_spec() };
        let cfg = DqnConfig {
            total_updates: 300,
            learning_rate: 0.01,
            gamma: 0.5,
            target_sync_every: 50,
            seed: 7,
            ..DqnConfig::default()
        };
        let result = train_dqn(spec, &cfg, ContextualBandit { context: 0, steps: 0 });
        let digest = result
            .q_params
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x9bed_5efc_7050_ede2, "{digest:#018x}");
    }

    #[test]
    #[should_panic(expected = "invalid DqnConfig")]
    fn invalid_config_rejected() {
        let cfg = DqnConfig { batch_size: 0, ..DqnConfig::default() };
        let _ = train_dqn(tiny_spec(), &cfg, Padded(Bandit { steps: 0 }));
    }

    #[test]
    fn config_validation_covers_fields() {
        let ok = DqnConfig::default();
        assert!(ok.validate().is_ok());
        assert!(DqnConfig { replay_capacity: 0, ..ok.clone() }.validate().is_err());
        assert!(DqnConfig { gamma: -0.1, ..ok.clone() }.validate().is_err());
        assert!(DqnConfig { learning_rate: 0.0, ..ok.clone() }.validate().is_err());
        assert!(DqnConfig { epsilon_start: 1.5, ..ok.clone() }.validate().is_err());
        assert!(DqnConfig { target_sync_every: 0, ..ok }.validate().is_err());
    }
}
