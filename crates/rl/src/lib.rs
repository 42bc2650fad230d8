//! Reinforcement-learning substrate: the MDP interface, actor-critic
//! networks, replay memory, and an asynchronous advantage actor-critic
//! (A3C-style) trainer.
//!
//! The paper (§5.1) trains two DQNs — an actor network producing the policy
//! `π_η(s, a)` and a critic network producing the state value `V(s)` — with
//! asynchronous workers, advantage-based policy gradients (Eqs. 10–12), a
//! replay memory sampled uniformly (Algorithm 1 line 7), and ε-greedy
//! exploration. This crate reproduces that machinery on CPU threads:
//! each worker owns thread-local copies of both networks, pulls the latest
//! shared parameters before every update, and pushes gradients into a
//! shared [`ParamStore`] that applies them Hogwild-style under a lock.
//!
//! The crate is deliberately independent of the storage-tiering domain:
//! anything implementing [`Env`] can be trained. `minicost-core` provides
//! the tiering environment.

#![warn(missing_docs)]
// Library code must surface failures as values; tests may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "tests may panic")
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod a3c;
pub mod actor_critic;
pub mod env;
pub mod memory;
pub mod metrics;
pub mod params;

pub use a3c::{A3cConfig, A3cTrainer, ProgressPoint, TrainResult};
pub use actor_critic::{ActorCritic, NetSpec};
pub use env::{Env, Step};
pub use memory::{ReplayMemory, Transition};
pub use metrics::{convergence_step, RollingRate};
pub use params::ParamStore;
