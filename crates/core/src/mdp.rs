//! The tiering MDP: reward function (Eq. 4) and the training environment.

use crate::features::FeatureConfig;
use crate::optimal::{oracle_action, q_values, suffix_values};
use pricing::{CostModel, Money, Tier, TIER_COUNT};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl::{Env, Step};
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;
use tracegen::Trace;

/// Functional form of the reward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardKind {
    /// The paper's Eq. 4 verbatim: `R = α / C + Δ`. Faithful, but the
    /// reciprocal weights near-free idle files far more than expensive
    /// mistakes on busy files (see the `reward_ablation` experiment).
    Reciprocal,
    /// `R = -α · C + Δ` on the normalized cost: reward differences are
    /// proportional to dollars saved, which trains markedly better and is
    /// the default for the headline experiments (documented in DESIGN.md).
    NegCost,
    /// `R = -α · C + Δ` on the **raw dollar** cost (no per-file
    /// normalization), matching the paper's `C(s_t, a_t)` literally:
    /// gradient weight is proportional to actual dollars at stake, so the
    /// expensive head of the popularity distribution dominates training.
    NegCostRaw,
    /// Potential-based shaping with the offline value function:
    /// `R = -α · (Q*(s, a) - min_a' Q*(s, a'))` normalized by the file's
    /// always-hot cost. Zero for the optimal action, negative in proportion
    /// to the dollars the action forfeits against the offline optimum.
    /// Potential-based shaping preserves the optimal policy (Ng et al.),
    /// and the oracle Q is computable here because training runs against
    /// historical data where future frequencies are known — exactly the
    /// setting of the paper's trace-driven training. This is the default
    /// for the headline experiments; the unshaped kinds remain as
    /// ablations (see the experiment harness).
    ShapedRegret,
}

/// The reward function (paper Eq. 4 and its shaping).
///
/// `C` is the money cost of the action, normalized by the file's always-hot
/// daily cost so rewards are scale-free across the popularity range. The
/// `floor` keeps the paper's reciprocal finite on near-free actions and the
/// result is clamped to `±cap`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Functional form.
    pub kind: RewardKind,
    /// Scale α of Eq. 4.
    pub alpha: f64,
    /// Additive offset Δ of Eq. 4.
    pub delta: f64,
    /// Floor added to the normalized cost before taking the reciprocal
    /// (Reciprocal kind only).
    pub floor: f64,
    /// Clamp on the cost-dependent term's magnitude.
    pub cap: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig { kind: RewardKind::NegCost, alpha: 1.0, delta: 0.0, floor: 0.05, cap: 20.0 }
    }
}

impl RewardConfig {
    /// The paper's literal Eq. 4 configuration.
    #[must_use]
    pub fn paper_eq4() -> RewardConfig {
        RewardConfig { kind: RewardKind::Reciprocal, ..RewardConfig::default() }
    }

    /// The shaped-regret configuration the headline experiments train with.
    #[must_use]
    pub fn shaped() -> RewardConfig {
        RewardConfig { kind: RewardKind::ShapedRegret, ..RewardConfig::default() }
    }

    /// Regret-shaped reward: `-α · regret / reference`, clamped at `-cap`.
    #[must_use]
    pub fn regret_reward(&self, regret: Money, reference: Money) -> f64 {
        debug_assert!(regret >= Money::ZERO, "regret must be non-negative");
        let normalized = regret.ratio_with_floor(reference, 1e-9);
        (-self.alpha * normalized).max(-self.cap) + self.delta
    }

    /// Reward for paying `cost` where `reference` is the file's always-hot
    /// cost for the same day (the normalizer). Higher reward for lower cost.
    #[must_use]
    pub fn reward(&self, cost: Money, reference: Money) -> f64 {
        let normalized = cost.ratio_with_floor(reference, 1e-12).max(0.0);
        let term = match self.kind {
            RewardKind::Reciprocal => (self.alpha / (normalized + self.floor)).min(self.cap),
            RewardKind::NegCost => (-self.alpha * normalized).max(-self.cap),
            RewardKind::NegCostRaw => (-self.alpha * cost.as_dollars()).max(-self.cap),
            RewardKind::ShapedRegret => {
                unreachable!("ShapedRegret is computed by the environment, not per-cost")
            }
        };
        term + self.delta
    }
}

/// Configuration of the training environment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TieringEnvConfig {
    /// Featurization (history window).
    pub features: FeatureConfig,
    /// Reward shaping.
    pub reward: RewardConfig,
    /// Decisions per episode (the paper's weekly decision period: 7).
    pub episode_len: usize,
    /// RNG seed for file/day sampling.
    pub seed: u64,
    /// Whether to precompute the per-file optimal-action oracle (needed for
    /// the optimal-action-rate metric; costs `O(files * days)` memory).
    pub with_oracle: bool,
}

impl Default for TieringEnvConfig {
    fn default() -> Self {
        TieringEnvConfig {
            features: FeatureConfig::default(),
            reward: RewardConfig::default(),
            episode_len: 7,
            seed: 0,
            with_oracle: true,
        }
    }
}

/// Per-file oracle tables: `tables[file_ix]` is the suffix-value DP of
/// [`suffix_values`] (or `None` when the oracle is disabled). Computing
/// them is the dominant cost of environment construction, so the training
/// pipeline builds them once — in parallel, via
/// [`crate::engine::par_map_indices`] — and shares one `Arc` across all
/// A3C workers ([`TieringEnv::with_oracle_tables`]).
pub type OracleTables = Vec<Option<Vec<[Money; TIER_COUNT]>>>;

/// The storage-tiering MDP over a trace.
///
/// Each episode samples one file and a start day, then walks `episode_len`
/// daily decisions: the action assigns the file's tier for the day, the
/// cost model charges tier change + storage + operations, and the Eq. 4
/// reward is emitted. States encode only information observable at decision
/// time (the history window strictly precedes the decided day).
///
/// `T` is how the environment holds its trace: shared ownership
/// (`Arc<Trace>`, the default) or a borrow (`&Trace`), which lets a caller
/// that owns the trace train on it without copying it.
pub struct TieringEnv<T = Arc<Trace>> {
    trace: T,
    model: Arc<CostModel>,
    cfg: TieringEnvConfig,
    oracle: Arc<OracleTables>,
    rng: StdRng,
    // Episode state.
    file_ix: usize,
    day: usize,
    tier: Tier,
    steps_left: usize,
}

impl<T: Deref<Target = Trace>> TieringEnv<T> {
    /// Creates an environment. Panics if the trace is empty or shorter than
    /// one episode.
    #[must_use]
    pub fn new(trace: T, model: Arc<CostModel>, cfg: TieringEnvConfig) -> TieringEnv<T> {
        let oracle: Arc<OracleTables> = if cfg.with_oracle {
            Arc::new(trace.files.iter().map(|f| Some(suffix_values(f, &model))).collect())
        } else {
            Arc::new(vec![None; trace.files.len()])
        };
        TieringEnv::with_oracle_tables(trace, model, cfg, oracle)
    }

    /// Creates an environment around precomputed, shared oracle tables —
    /// the multi-worker path: tables are computed once and every worker's
    /// environment clones the `Arc` instead of redoing the `O(files × days)`
    /// suffix DP. `cfg.with_oracle` is ignored; the tables passed in decide.
    ///
    /// Panics if the trace is empty, shorter than one episode, or if the
    /// table count does not match the file count.
    #[must_use]
    pub fn with_oracle_tables(
        trace: T,
        model: Arc<CostModel>,
        cfg: TieringEnvConfig,
        oracle: Arc<OracleTables>,
    ) -> TieringEnv<T> {
        assert!(!trace.is_empty(), "trace must contain files");
        assert!(cfg.episode_len > 0, "episode_len must be positive");
        assert!(
            trace.days >= cfg.episode_len,
            "trace ({} days) shorter than one episode ({})",
            trace.days,
            cfg.episode_len
        );
        assert_eq!(oracle.len(), trace.files.len(), "one oracle table per file");
        let seed = cfg.seed;
        let mut env = TieringEnv {
            trace,
            model,
            cfg,
            oracle,
            rng: StdRng::seed_from_u64(seed ^ 0x7137_E21F),
            file_ix: 0,
            day: 0,
            tier: Tier::Hot,
            steps_left: 0,
        };
        let _ = env.reset_episode();
        env
    }

    fn reset_episode(&mut self) -> Vec<f64> {
        self.file_ix = self.rng.random_range(0..self.trace.files.len());
        // Episodes start at day >= 1: the day-0 state is all padding and
        // identical across files (see RlPolicy::decide_batch_into), so training
        // on it would only teach a blind majority action.
        let latest_start = self.trace.days - self.cfg.episode_len;
        self.day =
            if latest_start <= 1 { latest_start } else { self.rng.random_range(1..=latest_start) };
        self.tier = Tier::ALL[self.rng.random_range(0..TIER_COUNT)];
        self.steps_left = self.cfg.episode_len;
        self.state()
    }

    fn state(&self) -> Vec<f64> {
        self.cfg.features.encode(&self.trace.files[self.file_ix], self.day, self.tier)
    }

    /// The environment's RNG-independent cost of taking `action` now:
    /// change cost plus the decided day's steady cost.
    fn action_cost(&self, action: Tier) -> Money {
        let file = &self.trace.files[self.file_ix];
        let (r, w) = file.day(self.day);
        self.model.policy().change_cost(self.tier, action, file.size_gb)
            + self.model.steady_day_cost(file.size_gb, r, w, action)
    }

    /// Regret of taking `action` now versus the oracle's best action:
    /// `Q*(s, a) - min_a' Q*(s, a')`, with `Q*` read from [`q_values`] (the
    /// one lookahead [`oracle_action`] also reads). Requires the oracle
    /// tables (`with_oracle`).
    fn action_regret(&self, action: Tier) -> Money {
        let Some(values) = self.oracle[self.file_ix].as_ref() else {
            // ShapedRegret requires `with_oracle = true`; without the tables
            // the regret signal is undefined, so report zero regret (the
            // reward degenerates to its constant offset).
            debug_assert!(false, "ShapedRegret reward requires with_oracle = true");
            return Money::ZERO;
        };
        let q = q_values(&self.trace.files[self.file_ix], &self.model, values, self.day, self.tier);
        let best = q.into_iter().fold(Money::MAX, Money::min);
        q[action.index()] - best
    }

    /// Always-hot reference cost for the decided day (reward normalizer).
    fn reference_cost(&self) -> Money {
        let file = &self.trace.files[self.file_ix];
        let (r, w) = file.day(self.day);
        self.model.steady_day_cost(file.size_gb, r, w, Tier::Hot)
    }
}

impl<T: Deref<Target = Trace> + Send> Env for TieringEnv<T> {
    fn state_dim(&self) -> usize {
        self.cfg.features.state_dim()
    }

    fn n_actions(&self) -> usize {
        TIER_COUNT
    }

    fn reset(&mut self) -> Vec<f64> {
        self.reset_episode()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(action < TIER_COUNT, "action out of range");
        assert!(self.steps_left > 0, "step after episode end; call reset");
        let tier = Tier::ALL[action];
        let reward = if self.cfg.reward.kind == RewardKind::ShapedRegret {
            let regret = self.action_regret(tier);
            self.cfg.reward.regret_reward(regret, self.reference_cost())
        } else {
            let cost = self.action_cost(tier);
            self.cfg.reward.reward(cost, self.reference_cost())
        };

        self.tier = tier;
        self.day += 1;
        self.steps_left -= 1;
        let done = self.steps_left == 0 || self.day >= self.trace.days;
        Step { next_state: self.state(), reward, done }
    }

    fn optimal_action(&self) -> Option<usize> {
        let values = self.oracle[self.file_ix].as_ref()?;
        if self.day >= self.trace.days {
            return None;
        }
        let file = &self.trace.files[self.file_ix];
        Some(oracle_action(file, &self.model, values, self.day, self.tier).index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn env(seed: u64) -> TieringEnv {
        let trace = Arc::new(Trace::generate(&TraceConfig::small(20, 21, 5)));
        let model = Arc::new(CostModel::new(PricingPolicy::azure_blob_2020()));
        TieringEnv::new(trace, model, TieringEnvConfig { seed, ..Default::default() })
    }

    #[test]
    fn reward_prefers_cheaper_actions() {
        let r = RewardConfig::default();
        let reference = Money::from_dollars(1.0);
        let cheap = r.reward(Money::from_dollars(0.1), reference);
        let pricey = r.reward(Money::from_dollars(2.0), reference);
        assert!(cheap > pricey, "{cheap} vs {pricey}");
    }

    #[test]
    fn reward_is_capped_and_offset() {
        let r = RewardConfig {
            kind: RewardKind::Reciprocal,
            alpha: 1.0,
            delta: 2.0,
            floor: 0.0,
            cap: 5.0,
        };
        // Zero cost: alpha / 0 would explode; cap holds it at 5 (+delta).
        let v = r.reward(Money::ZERO, Money::from_dollars(1.0));
        assert_eq!(v, 7.0);
    }

    #[test]
    fn reward_kinds_rank_actions_identically() {
        // Whatever the functional form, cheaper must be better.
        let reference = Money::from_dollars(0.01);
        for kind in [RewardKind::Reciprocal, RewardKind::NegCost, RewardKind::NegCostRaw] {
            let r = RewardConfig { kind, ..RewardConfig::default() };
            let cheap = r.reward(Money::from_dollars(0.001), reference);
            let pricey = r.reward(Money::from_dollars(0.02), reference);
            assert!(cheap > pricey, "{kind:?}: {cheap} vs {pricey}");
        }
    }

    #[test]
    fn negcost_raw_ignores_reference() {
        let r =
            RewardConfig { kind: RewardKind::NegCostRaw, alpha: 100.0, ..RewardConfig::default() };
        let a = r.reward(Money::from_dollars(0.02), Money::from_dollars(1.0));
        let b = r.reward(Money::from_dollars(0.02), Money::from_dollars(0.001));
        assert_eq!(a, b);
        assert_eq!(a, -2.0);
    }

    #[test]
    fn reward_is_scale_free() {
        let r = RewardConfig::default();
        // Same cost ratio at different absolute scales => same reward.
        let a = r.reward(Money::from_dollars(0.02), Money::from_dollars(0.1));
        let b = r.reward(Money::from_dollars(20.0), Money::from_dollars(100.0));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn env_shapes_are_consistent() {
        let mut e = env(1);
        assert_eq!(e.n_actions(), 3);
        let s = e.reset();
        assert_eq!(s.len(), e.state_dim());
        let step = e.step(0);
        assert_eq!(step.next_state.len(), e.state_dim());
        assert!(step.reward.is_finite());
    }

    #[test]
    fn episodes_terminate_after_episode_len() {
        let mut e = env(2);
        e.reset();
        let mut dones = 0;
        for i in 0..7 {
            let step = e.step(1);
            if step.done {
                dones += 1;
                assert_eq!(i, 6, "episode must end exactly at step 7");
            }
        }
        assert_eq!(dones, 1);
    }

    #[test]
    #[should_panic(expected = "after episode end")]
    fn stepping_past_done_panics() {
        let mut e = env(3);
        e.reset();
        for _ in 0..8 {
            let _ = e.step(0);
        }
    }

    #[test]
    fn reset_is_seed_deterministic() {
        let mut a = env(7);
        let mut b = env(7);
        assert_eq!(a.reset(), b.reset());
        assert_eq!(a.step(2), b.step(2));
        let mut c = env(8);
        // Different seed: very likely a different episode.
        assert_ne!(a.reset(), c.reset());
    }

    #[test]
    fn oracle_action_is_valid_tier() {
        let mut e = env(4);
        e.reset();
        for _ in 0..5 {
            let oracle = e.optimal_action().expect("oracle enabled");
            assert!(oracle < 3);
            let _ = e.step(oracle);
        }
    }

    #[test]
    fn oracle_can_be_disabled() {
        let trace = Arc::new(Trace::generate(&TraceConfig::small(5, 14, 5)));
        let model = Arc::new(CostModel::new(PricingPolicy::azure_blob_2020()));
        let mut e = TieringEnv::new(
            trace,
            model,
            TieringEnvConfig { with_oracle: false, ..Default::default() },
        );
        e.reset();
        assert_eq!(e.optimal_action(), None);
    }

    #[test]
    fn following_oracle_beats_fighting_it() {
        // Cumulative reward from oracle actions must beat the anti-oracle
        // (always pick a non-oracle action) over many episodes.
        let mut e = env(5);
        let mut oracle_total = 0.0;
        let mut anti_total = 0.0;
        for _ in 0..50 {
            let _ = e.reset();
            loop {
                let a = e.optimal_action().unwrap();
                let step = e.step(a);
                oracle_total += step.reward;
                if step.done {
                    break;
                }
            }
            let _ = e.reset();
            loop {
                let a = (e.optimal_action().unwrap() + 1) % 3;
                let step = e.step(a);
                anti_total += step.reward;
                if step.done {
                    break;
                }
            }
        }
        assert!(oracle_total > anti_total, "oracle {oracle_total} vs anti {anti_total}");
    }

    #[test]
    #[should_panic(expected = "shorter than one episode")]
    fn short_trace_rejected() {
        let trace = Arc::new(Trace::generate(&TraceConfig::small(5, 3, 5)));
        let model = Arc::new(CostModel::new(PricingPolicy::azure_blob_2020()));
        let _ = TieringEnv::new(trace, model, TieringEnvConfig::default());
    }
}
