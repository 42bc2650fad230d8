//! Actor and critic networks and their per-batch gradient computation.

use crate::memory::Transition;
use nn::{
    policy_gradient_loss, softmax, Conv1d, ConvBranch, Dense, ForwardScratch, Matrix, Network, Relu,
};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Architecture of the paper's networks (§6.1): a Conv1d over the
/// request-frequency history window whose outputs are "aggregated with other
/// inputs in a hidden layer", feeding a softmax policy head (actor) or a
/// scalar value head (critic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Length of the frequency-history window (conv input length).
    pub window: usize,
    /// Number of history channels stacked in the conv input.
    pub channels: usize,
    /// Number of non-history scalar features appended to the state
    /// (size, write rate, tier one-hot, ...), passed around the conv.
    pub extras: usize,
    /// Conv filter count (paper default: 128).
    pub filters: usize,
    /// Conv kernel size (paper default: 4).
    pub kernel: usize,
    /// Conv stride (paper default: 1).
    pub stride: usize,
    /// Hidden dense width (paper default: 128).
    pub hidden: usize,
    /// Number of discrete actions (Γ).
    pub actions: usize,
}

impl NetSpec {
    /// The paper's §6.1 configuration for a given window/extras/action count.
    #[must_use]
    pub fn paper_default(window: usize, extras: usize, actions: usize) -> NetSpec {
        NetSpec {
            window,
            channels: 1,
            extras,
            filters: 128,
            kernel: 4,
            stride: 1,
            hidden: 128,
            actions,
        }
    }

    /// A scaled-down spec with `width` filters and hidden neurons (the
    /// Fig. 11 sweep varies exactly this knob).
    #[must_use]
    pub fn with_width(self, width: usize) -> NetSpec {
        NetSpec { filters: width, hidden: width, ..self }
    }

    /// State dimensionality this spec expects.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        self.channels * self.window + self.extras
    }

    /// Parameter counts of the actor and the critic this spec builds, in
    /// that order, computed without building either. `None` when building
    /// would fail: a zero dimension or stride, a kernel wider than the
    /// window, or a count or the state width beyond `usize`.
    #[must_use]
    pub fn param_counts(&self) -> Option<(usize, usize)> {
        let buildable = self.channels > 0
            && self.filters > 0
            && self.stride > 0
            && self.kernel > 0
            && self.kernel <= self.window
            && self.hidden > 0
            && self.actions > 0;
        if !buildable {
            return None;
        }
        // Callers compare `state_dim`, so it must not overflow either.
        self.channels.checked_mul(self.window)?.checked_add(self.extras)?;
        let conv_len = (self.window - self.kernel) / self.stride + 1;
        // A layer with `n` inputs and `m` outputs holds `(n + 1) * m`
        // parameters: the weights and one bias per output.
        let layer = |inputs: usize, outputs: usize| inputs.checked_add(1)?.checked_mul(outputs);
        let conv = layer(self.channels.checked_mul(self.kernel)?, self.filters)?;
        let trunk_out = self.filters.checked_mul(conv_len)?.checked_add(self.extras)?;
        let trunk = conv.checked_add(layer(trunk_out, self.hidden)?)?;
        let total = |outputs: usize| trunk.checked_add(layer(self.hidden, outputs)?);
        Some((total(self.actions)?, total(1)?))
    }

    /// Builds a network with this trunk and `out` output units.
    fn build(&self, out: usize, seed: u64) -> Network {
        assert!(self.window >= self.kernel, "window must fit the conv kernel");
        assert!(self.actions > 0 && self.hidden > 0 && self.filters > 0);
        let conv =
            Conv1d::new(self.channels, self.window, self.filters, self.kernel, self.stride, seed);
        let conv_out = conv.out_width();
        let net = Network::new(vec![
            Box::new(ConvBranch::new(conv, self.extras)),
            Box::new(Relu::new()),
            Box::new(Dense::new(conv_out + self.extras, self.hidden, seed ^ 0xD1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(self.hidden, out, seed ^ 0xD2)),
        ]);
        debug_assert_eq!(net.check_widths(self.state_dim()), out);
        net
    }

    /// Builds the actor (policy logits head).
    #[must_use]
    pub fn build_actor(&self, seed: u64) -> Network {
        self.build(self.actions, seed.wrapping_add(0xAC70))
    }

    /// Builds the critic (scalar value head).
    #[must_use]
    pub fn build_critic(&self, seed: u64) -> Network {
        self.build(1, seed.wrapping_add(0xC417))
    }
}

/// The actor-critic pair plus training hyperparameters.
///
/// Per the paper (§5.1): "there are no shared features between actor network
/// and critic network" — two fully independent networks.
pub struct ActorCritic {
    /// Policy network (logits over actions).
    pub actor: Network,
    /// Value network (scalar V(s)).
    pub critic: Network,
    /// Discount factor for TD targets.
    pub gamma: f64,
    /// Entropy bonus coefficient for the actor loss.
    pub entropy_coeff: f64,
    /// L2 pull on the policy logits. The entropy bonus alone cannot recover
    /// a saturated softmax (its gradient vanishes at the simplex corners);
    /// a small quadratic penalty keeps logits finite so state features can
    /// still steer the policy.
    pub logit_l2: f64,
    /// Normalize advantages to zero mean / unit variance per batch. Helps
    /// when reward scales are uncontrolled; disable when the reward is
    /// already well-scaled (e.g. shaped regret), where renormalizing
    /// amplifies batch noise.
    pub normalize_advantages: bool,
    /// Subtract the critic's V(s) from the TD target to form advantages.
    /// Disable for reward schemes that are already centered per state
    /// (shaped regret: the optimal action scores 0, everything else is
    /// negative) — the raw reward is then a noise-free advantage and the
    /// critic's approximation error only hurts.
    pub critic_baseline: bool,
    /// Weight of a cross-entropy pull toward the environment's oracle
    /// action, for transitions that carry one. The paper's own convergence
    /// criterion is agreement with the offline Optimal (Figs. 9-11 all
    /// measure the optimal-action rate), and its agent trains on historical
    /// data where that oracle is computable; this term injects the
    /// corresponding learning signal directly. 0 disables (pure A3C).
    pub imitation_coeff: f64,
    spec: NetSpec,
    /// Buffers for the stateless `π(s)` and `V(s)` evaluations and for the
    /// batched training passes.
    scratch: ForwardScratch,
    /// Per-update buffers of [`ActorCritic::accumulate_gradients`], reused
    /// across updates.
    batch: BatchBuffers,
}

/// The reusable per-update buffers of [`ActorCritic::accumulate_gradients`].
#[derive(Default)]
struct BatchBuffers {
    /// The batch's states, one row each.
    states: Matrix,
    /// The next-states of the batch's non-terminal rows, in row order.
    next_states: Matrix,
    /// `V(s)` per row.
    values: Vec<f64>,
    /// TD(0) target per row.
    targets: Vec<f64>,
    /// Advantage per row.
    advantages: Vec<f64>,
    /// Loss gradient at the network output, one row per transition.
    grad: Matrix,
}

impl ActorCritic {
    /// Builds the pair from a spec with seeded initialization.
    #[must_use]
    pub fn new(spec: NetSpec, gamma: f64, entropy_coeff: f64, seed: u64) -> ActorCritic {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        ActorCritic {
            actor: spec.build_actor(seed),
            critic: spec.build_critic(seed),
            gamma,
            entropy_coeff,
            logit_l2: 1e-3,
            normalize_advantages: true,
            critic_baseline: true,
            imitation_coeff: 0.0,
            spec,
            scratch: ForwardScratch::new(),
            batch: BatchBuffers::default(),
        }
    }

    /// The architecture spec.
    #[must_use]
    pub fn spec(&self) -> NetSpec {
        self.spec
    }

    /// Action probabilities `π(s, ·)` for one state, from the actor's
    /// stateless inference path (nothing is cached for backprop).
    #[must_use]
    pub fn policy(&mut self, state: &[f64]) -> Vec<f64> {
        let logits = self.actor.infer_into(&Matrix::row_vector(state), &mut self.scratch);
        softmax(logits.row(0))
    }

    /// State value `V(s)`, from the critic's stateless inference path.
    #[must_use]
    pub fn value(&mut self, state: &[f64]) -> f64 {
        self.critic.infer_into(&Matrix::row_vector(state), &mut self.scratch).get(0, 0)
    }

    /// Samples an action: with probability `epsilon` uniformly at random
    /// (exploration, the paper's greedy rate), otherwise from `π(s, ·)`.
    pub fn select_action<R: Rng + ?Sized>(
        &mut self,
        state: &[f64],
        epsilon: f64,
        rng: &mut R,
    ) -> usize {
        let probs = self.policy(state);
        self.sample_action(&probs, epsilon, rng)
    }

    /// [`ActorCritic::select_action`] for an already-evaluated `π(s, ·)`,
    /// so a caller that also needs the probabilities evaluates the actor
    /// once. Draws one uniform for the exploration coin, then one for the
    /// action.
    pub fn sample_action<R: Rng + ?Sized>(
        &self,
        probs: &[f64],
        epsilon: f64,
        rng: &mut R,
    ) -> usize {
        if rng.random::<f64>() < epsilon {
            return rng.random_range(0..self.spec.actions);
        }
        sample_categorical(probs, rng)
    }

    /// The greedy (argmax-probability) action.
    #[must_use]
    pub fn greedy_action(&mut self, state: &[f64]) -> usize {
        let probs = self.policy(state);
        argmax(&probs)
    }

    /// Accumulates actor and critic gradients for a batch of transitions
    /// (advantage policy gradient + TD(0) value regression; Eqs. 10–12).
    ///
    /// Gradients accumulate exactly on top of whatever the networks already
    /// hold: the result is bit-identical to walking the batch one
    /// transition at a time (one single-row forward and backward per
    /// network per transition), for any starting gradients. Callers extract
    /// them with `grad_vector()` and `zero_grads()` between updates.
    /// Returns the mean actor loss and mean critic loss.
    ///
    /// The batch runs as one pass per network: a critic training forward
    /// over the stacked states (its `V(s)` serves both the advantages and
    /// the regression), a stateless critic pass over the non-terminal
    /// next-states, one critic backward, then one actor forward and one
    /// actor backward. Rows never mix in a forward pass, and every layer's
    /// backward adds rows in ascending order, so each loss and gradient is
    /// summed in row order 0..B exactly as the per-row walk sums them.
    pub fn accumulate_gradients(&mut self, batch: &[Transition]) -> (f64, f64) {
        if batch.is_empty() {
            return (0.0, 0.0);
        }
        let scale = 1.0 / batch.len() as f64;
        let BatchBuffers { states, next_states, values, targets, advantages, grad } =
            &mut self.batch;
        let dim = self.spec.state_dim();
        stack_rows(states, dim, batch.iter().map(|tr| tr.state.as_slice()));
        let live = batch.iter().filter(|tr| !tr.done);
        stack_rows(next_states, dim, live.map(|tr| tr.next_state.as_slice()));

        // TD(0) targets and raw advantages for the whole batch.
        let v_s = self.critic.forward_into(states, &mut self.scratch);
        values.clear();
        values.extend_from_slice(v_s.as_slice());
        let v_next = self.critic.infer_into(next_states, &mut self.scratch).as_slice();
        let mut next = v_next.iter();
        targets.clear();
        advantages.clear();
        for (tr, &v_s) in batch.iter().zip(values.iter()) {
            let v_next = if tr.done { 0.0 } else { next.next().copied().unwrap_or(0.0) };
            let target = tr.reward + self.gamma * v_next;
            targets.push(target);
            advantages.push(if self.critic_baseline { target - v_s } else { target });
        }

        // Normalize advantages across the batch (zero mean, unit variance).
        // Without this, early critic bias makes every advantage share one
        // sign and the policy saturates to a single action before it learns
        // to condition on state.
        if self.normalize_advantages {
            let mean = advantages.iter().sum::<f64>() * scale;
            let var = advantages.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() * scale;
            let sd = var.sqrt().max(1e-6);
            for a in advantages.iter_mut() {
                *a = (*a - mean) / sd;
            }
        }

        // Critic regression toward the raw TD target.
        let mut critic_loss = 0.0;
        grad.reset(batch.len(), 1);
        for ((g, &v_s), &target) in
            grad.as_mut_slice().iter_mut().zip(values.iter()).zip(targets.iter())
        {
            critic_loss += (v_s - target) * (v_s - target);
            *g = 2.0 * (v_s - target) * scale;
        }
        let _ = self.critic.backward(grad);

        // Actor: normalized-advantage policy gradient on the logits.
        let logits_m = self.actor.forward_into(states, &mut self.scratch);
        let mut actor_loss = 0.0;
        let actions = self.spec.actions;
        grad.reset(batch.len(), actions);
        let rows = grad.as_mut_slice().chunks_exact_mut(actions);
        for (r, ((tr, &advantage), scaled)) in
            batch.iter().zip(advantages.iter()).zip(rows).enumerate()
        {
            let logits = logits_m.row(r);
            let pg = policy_gradient_loss(logits, tr.action, advantage, self.entropy_coeff);
            actor_loss += pg.loss;
            // Optional oracle imitation: plain cross-entropy toward the
            // oracle action (grad = pi - onehot). Without it 0.0 is still
            // added, which turns a -0.0 policy gradient into +0.0.
            let imitation = match (self.imitation_coeff, tr.oracle) {
                (coeff, Some(oracle)) if coeff > 0.0 => Some((coeff, oracle, softmax(logits))),
                _ => None,
            };
            for (i, ((s, &g), &logit)) in
                scaled.iter_mut().zip(&pg.grad_logits).zip(logits).enumerate()
            {
                let im = imitation.as_ref().map_or(0.0, |(coeff, oracle, probs)| {
                    coeff * (probs[i] - if i == *oracle { 1.0 } else { 0.0 })
                });
                *s = (g + im + self.logit_l2 * logit) * scale;
            }
        }
        let _ = self.actor.backward(grad);
        (actor_loss * scale, critic_loss * scale)
    }
}

/// Stacks `rows`, each `width` wide, into `out`, one per matrix row,
/// reusing its allocation.
pub(crate) fn stack_rows<'a>(
    out: &mut Matrix,
    width: usize,
    rows: impl Iterator<Item = &'a [f64]> + Clone,
) {
    out.reset(rows.clone().count(), width);
    for (dst, src) in out.as_mut_slice().chunks_exact_mut(width).zip(rows) {
        dst.copy_from_slice(src);
    }
}

/// Samples an index from a probability vector. Falls back to the argmax when
/// the distribution is degenerate (e.g. numerically all-zero).
pub fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    debug_assert!(!probs.is_empty());
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    argmax(probs)
}

/// Index of the maximum value (first on ties). Panics on empty input.
#[must_use]
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> NetSpec {
        NetSpec {
            window: 7,
            channels: 1,
            extras: 3,
            filters: 4,
            kernel: 4,
            stride: 1,
            hidden: 8,
            actions: 3,
        }
    }

    fn state() -> Vec<f64> {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0, 0.0, 0.5]
    }

    #[test]
    fn param_counts_match_the_built_networks() {
        let strided = NetSpec { window: 21, channels: 2, stride: 2, ..spec() };
        for s in [spec(), strided, NetSpec::paper_default(21, 7, 3)] {
            let built = (s.build_actor(1).param_count(), s.build_critic(1).param_count());
            assert_eq!(s.param_counts(), Some(built), "{s:?}");
        }
        for unbuildable in [
            NetSpec { kernel: 8, ..spec() },
            NetSpec { stride: 0, ..spec() },
            NetSpec { filters: 0, ..spec() },
            NetSpec { extras: usize::MAX, ..spec() },
        ] {
            assert_eq!(unbuildable.param_counts(), None, "{unbuildable:?}");
        }
    }

    #[test]
    fn spec_dims() {
        let s = spec();
        assert_eq!(s.state_dim(), 10);
        let paper = NetSpec::paper_default(7, 3, 3);
        assert_eq!((paper.filters, paper.kernel, paper.stride, paper.hidden), (128, 4, 1, 128));
        let narrow = paper.with_width(16);
        assert_eq!((narrow.filters, narrow.hidden), (16, 16));
        assert_eq!(narrow.kernel, 4);
    }

    #[test]
    fn policy_is_distribution() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 1);
        let p = ac.policy(&state());
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn value_is_finite_scalar() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 2);
        assert!(ac.value(&state()).is_finite());
    }

    #[test]
    fn actor_and_critic_are_independent() {
        let ac = ActorCritic::new(spec(), 0.9, 0.01, 3);
        // No parameter sharing: separate vectors of independent lengths.
        assert!(ac.actor.param_count() > 0);
        assert!(ac.critic.param_count() > 0);
        // Output widths differ (3 actions vs 1 value).
        assert_ne!(ac.actor.param_count(), ac.critic.param_count());
    }

    #[test]
    fn epsilon_one_ignores_policy() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[ac.select_action(&state(), 1.0, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "counts {counts:?}");
        }
    }

    #[test]
    fn epsilon_zero_follows_policy() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let probs = ac.policy(&state());
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[ac.select_action(&state(), 0.0, &mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = probs[i] * 5000.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * (expected.sqrt() + 1.0),
                "action {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn greedy_action_is_argmax_of_policy() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 8);
        let p = ac.policy(&state());
        assert_eq!(ac.greedy_action(&state()), argmax(&p));
    }

    #[test]
    fn gradient_accumulation_produces_nonzero_grads() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 9);
        let tr = Transition {
            state: state(),
            action: 1,
            reward: 2.0,
            next_state: state(),
            done: false,
            oracle: None,
        };
        let (al, cl) = ac.accumulate_gradients(&[tr]);
        assert!(al.is_finite() && cl > 0.0);
        assert!(ac.actor.grad_vector().iter().any(|&g| g != 0.0));
        assert!(ac.critic.grad_vector().iter().any(|&g| g != 0.0));
    }

    /// The per-row walk `accumulate_gradients` replaced, kept verbatim as
    /// its oracle: per transition, single-row critic evaluations of `V(s)`
    /// and `V(s')`, then a single-row forward and backward of each network.
    fn per_row_accumulate(ac: &mut ActorCritic, batch: &[Transition]) -> (f64, f64) {
        if batch.is_empty() {
            return (0.0, 0.0);
        }
        let scale = 1.0 / batch.len() as f64;
        let mut targets = Vec::with_capacity(batch.len());
        let mut advantages = Vec::with_capacity(batch.len());
        for tr in batch {
            let v_s = ac.value(&tr.state);
            let v_next = if tr.done { 0.0 } else { ac.value(&tr.next_state) };
            let target = tr.reward + ac.gamma * v_next;
            targets.push(target);
            advantages.push(if ac.critic_baseline { target - v_s } else { target });
        }
        if ac.normalize_advantages {
            let mean = advantages.iter().sum::<f64>() * scale;
            let var = advantages.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() * scale;
            let sd = var.sqrt().max(1e-6);
            for a in &mut advantages {
                *a = (*a - mean) / sd;
            }
        }
        let mut actor_loss = 0.0;
        let mut critic_loss = 0.0;
        for ((tr, &target), &advantage) in batch.iter().zip(&targets).zip(&advantages) {
            let v_s = ac.critic.forward(&Matrix::row_vector(&tr.state)).get(0, 0);
            critic_loss += (v_s - target) * (v_s - target);
            let critic_grad = 2.0 * (v_s - target) * scale;
            ac.critic.backward(&Matrix::row_vector(&[critic_grad]));

            let logits_m = ac.actor.forward(&Matrix::row_vector(&tr.state));
            let pg = policy_gradient_loss(logits_m.row(0), tr.action, advantage, ac.entropy_coeff);
            actor_loss += pg.loss;
            let logits = logits_m.row(0);
            let imitation: Vec<f64> = match (ac.imitation_coeff, tr.oracle) {
                (coeff, Some(oracle)) if coeff > 0.0 => {
                    let probs = softmax(logits);
                    (0..logits.len())
                        .map(|i| coeff * (probs[i] - if i == oracle { 1.0 } else { 0.0 }))
                        .collect()
                }
                _ => vec![0.0; logits.len()],
            };
            let scaled: Vec<f64> = pg
                .grad_logits
                .iter()
                .zip(logits)
                .zip(&imitation)
                .map(|((g, &logit), im)| (g + im + ac.logit_l2 * logit) * scale)
                .collect();
            ac.actor.backward(&Matrix::row_vector(&scaled));
        }
        (actor_loss * scale, critic_loss * scale)
    }

    /// A random batch of `rows` transitions for `spec`: states with exact
    /// zeros (ReLU and zero-skip paths), terminal rows whose next-state
    /// must be ignored, and oracle labels on some rows.
    fn random_batch(spec: &NetSpec, rows: usize, rng: &mut StdRng) -> Vec<Transition> {
        let dim = spec.state_dim();
        let vec_of =
            |rng: &mut StdRng| -> Vec<f64> {
                (0..dim)
                    .map(|_| {
                        if rng.random::<f64>() < 0.2 {
                            0.0
                        } else {
                            rng.random::<f64>() * 4.0 - 2.0
                        }
                    })
                    .collect()
            };
        (0..rows)
            .map(|_| {
                let state = vec_of(rng);
                let done = rng.random::<f64>() < 0.3;
                // A terminal row's next-state is never evaluated, so any
                // width is allowed there.
                let next_state = if done { Vec::new() } else { vec_of(rng) };
                Transition {
                    state,
                    action: rng.random_range(0..spec.actions),
                    reward: rng.random::<f64>() * 10.0 - 5.0,
                    next_state,
                    done,
                    oracle: (rng.random::<f64>() < 0.6).then(|| rng.random_range(0..spec.actions)),
                }
            })
            .collect()
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn batched_accumulate_gradients_equals_per_row_walk(
            conv in (1usize..3, 1usize..4, 1usize..4, 1usize..20),
            dense in (0usize..4, 1usize..40, 1usize..5, 0usize..5),
            rows in 1usize..40,
            flags in 0u32..32,
            seed in 0u64..1_000_000,
        ) {
            let (channels, kernel, stride, filters) = conv;
            let (extras, hidden, actions, extra_len) = dense;
            let spec = NetSpec {
                window: kernel + extra_len,
                channels,
                extras,
                filters,
                kernel,
                stride,
                hidden,
                actions,
            };
            let gamma = if flags & 1 == 0 { 0.0 } else { 0.9 };
            let make = || {
                let mut ac = ActorCritic::new(spec, gamma, 0.01, seed);
                ac.normalize_advantages = flags & 2 != 0;
                ac.critic_baseline = flags & 4 != 0;
                ac.imitation_coeff = if flags & 8 != 0 { 0.7 } else { 0.0 };
                ac
            };
            let (mut batched, mut oracle) = (make(), make());
            let mut rng = StdRng::seed_from_u64(seed);
            // A second batch accumulates on top of the first's gradients.
            for round in 0..2 {
                let n = if round == 0 { rows } else { 1 + (rows * 7) % 39 };
                let mut batch = random_batch(&spec, n, &mut rng);
                if flags & 16 != 0 {
                    for tr in &mut batch {
                        tr.oracle = None;
                    }
                }
                let (al, cl) = batched.accumulate_gradients(&batch);
                let (ol, oc) = per_row_accumulate(&mut oracle, &batch);
                proptest::prop_assert!(same_bits(&[al, cl], &[ol, oc]), "losses {al} {cl} vs {ol} {oc}");
                proptest::prop_assert!(same_bits(&batched.actor.grad_vector(), &oracle.actor.grad_vector()));
                proptest::prop_assert!(same_bits(&batched.critic.grad_vector(), &oracle.critic.grad_vector()));
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut ac = ActorCritic::new(spec(), 0.9, 0.01, 10);
        let (al, cl) = ac.accumulate_gradients(&[]);
        assert_eq!((al, cl), (0.0, 0.0));
        assert!(ac.actor.grad_vector().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn training_drives_policy_toward_rewarding_action() {
        // One-state bandit: action 2 pays +1, others -1. After enough
        // updates the policy must prefer action 2.
        let s = spec();
        let mut ac = ActorCritic::new(s, 0.0, 0.001, 11);
        let st = state();
        let mut opt_a = nn::Adam::new(0.01);
        let mut opt_c = nn::Adam::new(0.01);
        use nn::Optimizer;
        for _ in 0..300 {
            let batch: Vec<Transition> = (0..3)
                .map(|a| Transition {
                    state: st.clone(),
                    action: a,
                    reward: if a == 2 { 1.0 } else { -1.0 },
                    next_state: st.clone(),
                    done: true,
                    oracle: None,
                })
                .collect();
            ac.actor.zero_grads();
            ac.critic.zero_grads();
            let _ = ac.accumulate_gradients(&batch);
            let ga = ac.actor.grad_vector();
            let mut pa = ac.actor.param_vector();
            opt_a.step(&mut pa, &ga);
            ac.actor.set_params(&pa);
            let gc = ac.critic.grad_vector();
            let mut pc = ac.critic.param_vector();
            opt_c.step(&mut pc, &gc);
            ac.critic.set_params(&pc);
        }
        let p = ac.policy(&st);
        assert!(p[2] > 0.8, "policy after training: {p:?}");
    }

    #[test]
    fn categorical_sampling_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(12);
        let probs = [0.1, 0.6, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert!((counts[1] as f64 - 6000.0).abs() < 300.0, "{counts:?}");
        assert!((counts[0] as f64 - 1000.0).abs() < 200.0, "{counts:?}");
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        let _ = argmax(&[]);
    }

    #[test]
    fn seeded_nets_are_reproducible() {
        let mut a = ActorCritic::new(spec(), 0.9, 0.01, 42);
        let mut b = ActorCritic::new(spec(), 0.9, 0.01, 42);
        assert_eq!(a.actor.param_vector(), b.actor.param_vector());
        assert_eq!(a.policy(&state()), b.policy(&state()));
        let mut c = ActorCritic::new(spec(), 0.9, 0.01, 43);
        assert_ne!(a.actor.param_vector(), c.actor.param_vector());
        let _ = c.policy(&state());
    }
}
