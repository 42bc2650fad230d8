//! The end-to-end MiniCost training pipeline:
//! trace → tiering environment → A3C → deployable [`RlPolicy`].

use crate::engine::par_map_indices;
use crate::features::{FeatureConfig, EXTRA_FEATURES};
use crate::mdp::{OracleTables, RewardConfig, TieringEnv, TieringEnvConfig};
use crate::optimal::suffix_values;
use crate::policy::RlPolicy;
use crate::sim::default_workers;
use pricing::{CostModel, TIER_COUNT};
use rl::{A3cConfig, A3cTrainer, NetSpec, TrainResult};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tracegen::Trace;

/// Configuration of a full MiniCost training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MiniCostConfig {
    /// State featurization (history window).
    pub features: FeatureConfig,
    /// Network width: filter count and hidden neurons (paper: 128 each;
    /// Fig. 11 sweeps {4, 16, 32, 64, 128}).
    pub width: usize,
    /// Conv kernel size (paper: 4).
    pub kernel: usize,
    /// Conv stride (paper: 1).
    pub stride: usize,
    /// Reward shaping (Eq. 4 parameters).
    pub reward: RewardConfig,
    /// Decisions per training episode (paper's weekly period: 7).
    pub episode_len: usize,
    /// A3C hyperparameters.
    pub a3c: A3cConfig,
}

impl Default for MiniCostConfig {
    fn default() -> Self {
        MiniCostConfig {
            features: FeatureConfig::default(),
            width: 128,
            kernel: 4,
            stride: 1,
            reward: RewardConfig::default(),
            episode_len: 7,
            a3c: A3cConfig::default(),
        }
    }
}

impl MiniCostConfig {
    /// A small, fast configuration for tests and CI-scale experiments:
    /// 16-wide networks, a short training budget, and the tuned recipe the
    /// experiment harness uses (shaped-regret reward, oracle-guided A3C;
    /// see DESIGN.md §4).
    #[must_use]
    pub fn fast() -> MiniCostConfig {
        MiniCostConfig {
            width: 16,
            reward: RewardConfig { cap: 50.0, ..RewardConfig::shaped() },
            a3c: A3cConfig {
                workers: 2,
                total_updates: 400,
                rollout_len: 32,
                batch_size: 32,
                learning_rate: 0.001,
                entropy_coeff: 0.01,
                gamma: 0.0,
                normalize_advantages: false,
                critic_baseline: false,
                imitation_coeff: 1.0,
                ..A3cConfig::default()
            },
            ..MiniCostConfig::default()
        }
    }

    /// The [`NetSpec`] this configuration induces.
    #[must_use]
    pub fn net_spec(&self) -> NetSpec {
        NetSpec {
            window: self.features.window,
            channels: FeatureConfig::CHANNELS,
            extras: EXTRA_FEATURES,
            filters: self.width,
            kernel: self.kernel,
            stride: self.stride,
            hidden: self.width,
            actions: TIER_COUNT,
        }
    }
}

/// A trained MiniCost agent.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MiniCost {
    /// The raw A3C training result (parameters + progress curves).
    pub result: TrainResult,
    /// The featurization the policy was trained with.
    pub features: FeatureConfig,
}

impl MiniCost {
    /// Trains an agent on `trace` (the 80% training split in the paper's
    /// setup) under `model`'s pricing.
    #[must_use]
    pub fn train(trace: &Trace, model: &CostModel, cfg: &MiniCostConfig) -> MiniCost {
        let spec = cfg.net_spec();
        let model = Arc::new(model.clone());
        let env_cfg_base = TieringEnvConfig {
            features: cfg.features,
            reward: cfg.reward,
            episode_len: cfg.episode_len,
            seed: cfg.a3c.seed,
            with_oracle: true,
        };
        // The suffix-value oracle is the expensive part of environment
        // construction (O(files × days) per build). Compute the tables once
        // — sharded across threads by the simulation engine's index mapper,
        // which returns them in file order regardless of worker count — and
        // share one Arc across every A3C worker's environment.
        let oracle: Arc<OracleTables> = Arc::new(par_map_indices(
            trace.files.len(),
            cfg.a3c.workers.max(default_workers()),
            |ix| Some(suffix_values(&trace.files[ix], &model)),
        ));
        let trainer = A3cTrainer::new(spec, cfg.a3c.clone());
        let result = trainer.train(|worker| {
            // Every worker borrows the caller's trace; none copies it.
            TieringEnv::with_oracle_tables(
                trace,
                Arc::clone(&model),
                TieringEnvConfig {
                    seed: env_cfg_base.seed ^ ((worker as u64 + 1) << 32),
                    ..env_cfg_base.clone()
                },
                Arc::clone(&oracle),
            )
        });
        MiniCost { result, features: cfg.features }
    }

    /// The deployable greedy policy built from the trained actor.
    #[must_use]
    pub fn policy(&self) -> RlPolicy {
        RlPolicy::new(&self.result, self.features)
    }

    /// Persists the trained agent as JSON.
    ///
    /// # Errors
    /// Propagates filesystem and serialization errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads an agent persisted by [`MiniCost::save`].
    ///
    /// # Errors
    /// Propagates filesystem and deserialization errors, and returns
    /// [`std::io::ErrorKind::InvalidData`] naming the field when the
    /// agent's networks cannot be built: a spec no network fits, a
    /// parameter vector of the wrong length, or a feature window whose
    /// state width differs from the spec's.
    pub fn load(path: &std::path::Path) -> std::io::Result<MiniCost> {
        let json = std::fs::read_to_string(path)?;
        let agent: MiniCost = serde_json::from_str(&json).map_err(std::io::Error::other)?;
        agent
            .check_shapes()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(agent)
    }

    /// Checks, before any layer is built, that the stored parameters and
    /// feature window fit the stored network spec.
    fn check_shapes(&self) -> Result<(), String> {
        let spec = &self.result.spec;
        let (actor, critic) =
            spec.param_counts().ok_or_else(|| format!("result.spec {spec:?} builds no network"))?;
        for (field, have, want) in [
            ("result.actor_params", self.result.actor_params.len(), actor),
            ("result.critic_params", self.result.critic_params.len(), critic),
        ] {
            if have != want {
                return Err(format!("{field} holds {have} parameters; result.spec needs {want}"));
            }
        }
        let (have, want) = (self.features.state_dim(), spec.state_dim());
        if have != want {
            return Err(format!(
                "features.window {} gives {have} state features; result.spec takes {want}",
                self.features.window
            ));
        }
        Ok(())
    }

    /// Final optimal-action rate observed during training, if recorded.
    #[must_use]
    pub fn final_optimal_rate(&self) -> Option<f64> {
        self.result.progress.iter().rev().find_map(|p| p.optimal_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{decide_trace, HotPolicy, OptimalPolicy};
    use crate::sim::{simulate, SimConfig};
    use pricing::{PricingPolicy, Tier};
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(60, 28, 17)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    #[test]
    fn fast_config_is_valid() {
        let cfg = MiniCostConfig::fast();
        assert!(cfg.a3c.validate().is_ok());
        let spec = cfg.net_spec();
        assert_eq!(spec.state_dim(), cfg.features.state_dim());
        assert_eq!(spec.actions, 3);
    }

    #[test]
    fn training_produces_a_working_policy() {
        let (trace, model) = setup();
        let cfg = MiniCostConfig::fast();
        let agent = MiniCost::train(&trace, &model, &cfg);
        assert!(agent.result.updates >= cfg.a3c.total_updates);
        assert!(agent.final_optimal_rate().is_some());

        // The trained policy must run end-to-end through the simulator.
        let policy = agent.policy();
        let sim_cfg = SimConfig::default();
        let result = simulate(&trace, &model, &policy, &sim_cfg);
        assert_eq!(result.days(), trace.days);
        assert_eq!(result.policy_name, "minicost");

        // Sanity (not a tight bound at this tiny training budget): the
        // learned policy should not be wildly worse than always-hot, and
        // can never beat Optimal.
        let hot = simulate(&trace, &model, &HotPolicy, &sim_cfg).total_cost();
        let opt =
            simulate(&trace, &model, &OptimalPolicy::plan(&trace, &model, Tier::Hot), &sim_cfg)
                .total_cost();
        assert!(result.total_cost() >= opt);
        assert!(
            result.total_cost().as_dollars() <= 3.0 * hot.as_dollars(),
            "rl {} vs hot {hot}",
            result.total_cost()
        );
    }

    #[test]
    fn training_is_deterministic_with_one_worker() {
        let (trace, model) = setup();
        let mut cfg = MiniCostConfig::fast();
        cfg.a3c.workers = 1;
        cfg.a3c.total_updates = 50;
        let a = MiniCost::train(&trace, &model, &cfg);
        let b = MiniCost::train(&trace, &model, &cfg);
        assert_eq!(a.result.actor_params, b.result.actor_params);
    }

    /// The fnv1a64 of the actor and critic parameters (little-endian bits,
    /// actor first) after training the fast recipe at the paper's width 128
    /// on one worker. Any change to the training arithmetic moves it, so a
    /// speed-up must keep it fixed.
    #[test]
    fn train_pinned_width128_params_digest() {
        let trace = Trace::generate(&TraceConfig::small(40, 21, 5));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let mut cfg = MiniCostConfig::fast();
        cfg.width = 128;
        cfg.a3c.workers = 1;
        cfg.a3c.total_updates = 40;
        cfg.a3c.seed = 2020;
        let agent = MiniCost::train(&trace, &model, &cfg);
        let bytes: Vec<u8> = agent
            .result
            .actor_params
            .iter()
            .chain(&agent.result.critic_params)
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        let digest = stream::fnv1a64(&bytes);
        assert_eq!(digest, 0x5e02_4e59_8904_4715, "{digest:#018x}");
    }

    #[test]
    fn save_load_round_trip() {
        let (trace, model) = setup();
        let mut cfg = MiniCostConfig::fast();
        cfg.a3c.workers = 1;
        cfg.a3c.total_updates = 20;
        let agent = MiniCost::train(&trace, &model, &cfg);
        let path = std::env::temp_dir().join(format!("minicost-agent-{}.json", std::process::id()));
        agent.save(&path).unwrap();
        let back = MiniCost::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(agent.result.actor_params, back.result.actor_params);
        assert!(MiniCost::load(std::path::Path::new("/nonexistent/agent.json")).is_err());
    }

    /// Saves an untrained agent of the fast recipe after `edit` has
    /// changed it, then loads it back.
    fn load_edited(name: &str, edit: impl FnOnce(&mut MiniCost)) -> std::io::Result<MiniCost> {
        let cfg = MiniCostConfig::fast();
        let spec = cfg.net_spec();
        let mut agent = MiniCost {
            result: TrainResult {
                actor_params: spec.build_actor(0).param_vector(),
                critic_params: spec.build_critic(0).param_vector(),
                spec,
                progress: Vec::new(),
                updates: 0,
            },
            features: cfg.features,
        };
        edit(&mut agent);
        let path =
            std::env::temp_dir().join(format!("minicost-agent-{name}-{}.json", std::process::id()));
        agent.save(&path)?;
        let loaded = MiniCost::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn load_rejects_actor_params_of_the_wrong_length() {
        assert!(load_edited("whole", |_| {}).is_ok());
        let err = load_edited("short", |a| {
            a.result.actor_params.truncate(a.result.actor_params.len() - 3);
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("result.actor_params"), "{err}");
    }

    #[test]
    fn load_rejects_a_feature_window_the_spec_does_not_take() {
        let err = load_edited("window", |a| a.features.window = 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("features.window"), "{err}");
    }

    #[test]
    fn serde_round_trip_of_trained_agent() {
        let (trace, model) = setup();
        let mut cfg = MiniCostConfig::fast();
        cfg.a3c.workers = 1;
        cfg.a3c.total_updates = 20;
        let agent = MiniCost::train(&trace, &model, &cfg);
        let json = serde_json::to_string(&agent).unwrap();
        let back: MiniCost = serde_json::from_str(&json).unwrap();
        assert_eq!(agent.result.actor_params, back.result.actor_params);
        // The round-tripped agent yields the same decisions.
        let mut p1 = agent.policy();
        let mut p2 = back.policy();
        let current = vec![Tier::Hot; trace.len()];
        assert_eq!(
            decide_trace(&mut p1, 10, &trace, &model, &current),
            decide_trace(&mut p2, 10, &trace, &model, &current)
        );
    }
}
