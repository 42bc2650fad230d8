//! Stateless operations: softmax and the actor's policy-gradient
//! loss (Eq. 11 of the paper: `∇ log π(s, a) · A(s, a)`, plus the usual
//! entropy bonus that keeps exploration alive).

/// Numerically stable softmax over a logit vector.
#[must_use]
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically stable log-softmax.
fn log_softmax(logits: &[f64]) -> Vec<f64> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let log_sum: f64 = logits.iter().map(|&l| (l - max).exp()).sum::<f64>().ln() + max;
    logits.iter().map(|&l| l - log_sum).collect()
}

/// Result of [`policy_gradient_loss`].
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyGrad {
    /// Scalar loss value
    /// `-(log π(a) · A) - entropy_coeff · H(π)` (minimized).
    pub loss: f64,
    /// Gradient of the loss w.r.t. the *logits*.
    pub grad_logits: Vec<f64>,
    /// Policy entropy `H(π)`, for monitoring exploration collapse.
    pub entropy: f64,
}

/// Advantage-weighted policy-gradient loss on raw logits.
///
/// For `L = -A·log softmax(logits)[action] - β·H(softmax(logits))`, the
/// gradient w.r.t. logit `i` is
/// `A·(π_i - 1[i = action]) + β·Σ_j π_j (log π_j)(1[i=j] - π_i)`
/// simplified to the standard closed forms below. Minimizing `L` ascends the
/// paper's objective `J(η)` (Eq. 11–12).
///
/// Panics if `action` is out of range or logits are empty.
#[must_use]
pub fn policy_gradient_loss(
    logits: &[f64],
    action: usize,
    advantage: f64,
    entropy_coeff: f64,
) -> PolicyGrad {
    assert!(!logits.is_empty(), "empty logits");
    assert!(action < logits.len(), "action index out of range");
    let probs = softmax(logits);
    let log_probs = log_softmax(logits);

    let entropy: f64 = -probs.iter().zip(&log_probs).map(|(p, lp)| p * lp).sum::<f64>();
    let loss = -advantage * log_probs[action] - entropy_coeff * entropy;

    // d(-A log p_a)/d logit_i = A (p_i - 1[i==a])
    // dH/d logit_i = -p_i (log p_i + H)  =>  d(-βH)/d logit_i = β p_i (log p_i + H)
    let grad_logits: Vec<f64> = probs
        .iter()
        .zip(&log_probs)
        .enumerate()
        .map(|(i, (&p, &lp))| {
            let pg = advantage * (p - if i == action { 1.0 } else { 0.0 });
            let ent = entropy_coeff * p * (lp + entropy);
            pg + ent
        })
        .collect();

    PolicyGrad { loss, grad_logits, entropy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[-1e9, 0.0, 1e9]);
        assert!((p[2] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.5, -1.0, 2.0];
        let ls = log_softmax(&logits);
        let p = softmax(&logits);
        for (l, pp) in ls.iter().zip(&p) {
            assert!((l - pp.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn policy_grad_pushes_toward_advantageous_action() {
        let logits = [0.0, 0.0, 0.0];
        let pg = policy_gradient_loss(&logits, 1, 1.0, 0.0);
        // Positive advantage: gradient descent on logits should RAISE the
        // chosen action's logit (negative gradient) and lower the others.
        assert!(pg.grad_logits[1] < 0.0);
        assert!(pg.grad_logits[0] > 0.0 && pg.grad_logits[2] > 0.0);
        // Negative advantage flips the direction.
        let pg_neg = policy_gradient_loss(&logits, 1, -1.0, 0.0);
        assert!(pg_neg.grad_logits[1] > 0.0);
    }

    #[test]
    fn policy_grad_sums_to_zero() {
        // Softmax gradients live on the simplex tangent: components sum to 0.
        let pg = policy_gradient_loss(&[0.3, -0.7, 1.2], 0, 2.5, 0.01);
        let sum: f64 = pg.grad_logits.iter().sum();
        assert!(sum.abs() < 1e-12, "sum {sum}");
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let pg = policy_gradient_loss(&[0.0, 0.0, 0.0], 0, 0.0, 1.0);
        assert!((pg.entropy - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_bonus_flattens_peaked_policies() {
        // With only the entropy term active, descent should flatten the
        // distribution: gradient positive on the peaked logit.
        let pg = policy_gradient_loss(&[5.0, 0.0, 0.0], 0, 0.0, 1.0);
        assert!(pg.grad_logits[0] > 0.0, "grad {:?}", pg.grad_logits);
        assert!(pg.grad_logits[1] < 0.0);
    }

    #[test]
    fn policy_grad_finite_difference() {
        let logits = [0.4, -0.2, 0.9, 0.0];
        let (action, advantage, beta) = (2usize, 1.7, 0.05);
        let pg = policy_gradient_loss(&logits, action, advantage, beta);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let lp = policy_gradient_loss(&plus, action, advantage, beta).loss;
            let lm = policy_gradient_loss(&minus, action, advantage, beta).loss;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (pg.grad_logits[i] - fd).abs() < 1e-6,
                "logit {i}: analytic {} vs fd {fd}",
                pg.grad_logits[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_action_panics() {
        let _ = policy_gradient_loss(&[0.0, 0.0], 5, 1.0, 0.0);
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(
            logits in proptest::collection::vec(-20.0f64..20.0, 1..10),
        ) {
            let p = softmax(&logits);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn entropy_is_bounded(
            logits in proptest::collection::vec(-10.0f64..10.0, 2..8),
        ) {
            let pg = policy_gradient_loss(&logits, 0, 0.0, 1.0);
            prop_assert!(pg.entropy >= -1e-12);
            prop_assert!(pg.entropy <= (logits.len() as f64).ln() + 1e-9);
        }

        #[test]
        fn policy_grad_components_sum_to_zero(
            logits in proptest::collection::vec(-5.0f64..5.0, 2..6),
            advantage in -3.0f64..3.0,
            beta in 0.0f64..0.2,
        ) {
            let pg = policy_gradient_loss(&logits, 0, advantage, beta);
            prop_assert!(pg.grad_logits.iter().sum::<f64>().abs() < 1e-9);
        }
    }
}
