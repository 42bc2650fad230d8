//! Baseline forecasters: naive, seasonal-naive, and EWMA.
//!
//! These are the standard yardsticks for the ARIMA error analysis (Fig. 4)
//! and double as cheap predictors for ablation experiments.

use crate::series::mean;
use crate::Forecaster;
use serde::{Deserialize, Serialize};

/// Repeats the last observed value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Naive;

impl Forecaster for Naive {
    fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        let last = history.last().copied().unwrap_or(0.0);
        vec![last; horizon]
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// Repeats the value observed one season (`period` steps) earlier; the
/// natural baseline for the weekly request cycles the paper describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeasonalNaive {
    /// Season length in steps (7 for weekly cycles on daily data). A zero
    /// period never completes a season, so it forecasts the history's mean.
    pub period: usize,
}

impl SeasonalNaive {
    /// Creates a seasonal-naive forecaster. Panics if `period == 0`.
    #[must_use]
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "season period must be positive");
        SeasonalNaive { period }
    }
}

impl Forecaster for SeasonalNaive {
    fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        // The last full season, if there is one. A zero period (a struct
        // literal or a deserialized value skips `new`'s check) has none.
        let season = history
            .len()
            .checked_sub(self.period)
            .and_then(|start| history.get(start..))
            .filter(|season| !season.is_empty());
        match season {
            Some(season) => season.iter().copied().cycle().take(horizon).collect(),
            None if history.is_empty() => vec![0.0; horizon],
            // Not a full season yet: fall back to the mean.
            None => vec![mean(history); horizon],
        }
    }

    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
}

/// Exponentially weighted moving average with smoothing factor `alpha`,
/// forecast flat at the final smoothed level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    /// Smoothing factor in `(0, 1]`; larger tracks recent values faster.
    pub alpha: f64,
}

impl Ewma {
    /// Creates an EWMA forecaster. Panics unless `0 < alpha <= 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha }
    }

    /// The smoothed level after consuming `history`.
    #[must_use]
    pub fn level(&self, history: &[f64]) -> f64 {
        let mut level = match history.first() {
            Some(&v) => v,
            None => return 0.0,
        };
        for &v in history.iter().skip(1) {
            level = self.alpha * v + (1.0 - self.alpha) * level;
        }
        level
    }
}

impl Forecaster for Ewma {
    fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        vec![self.level(history); horizon]
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_repeats_last() {
        assert_eq!(Naive.forecast(&[1.0, 2.0, 3.0], 3), vec![3.0, 3.0, 3.0]);
        assert_eq!(Naive.forecast(&[], 2), vec![0.0, 0.0]);
        assert_eq!(Naive.name(), "naive");
    }

    #[test]
    fn seasonal_naive_repeats_last_season() {
        let history = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let f = SeasonalNaive::new(3).forecast(&history, 5);
        assert_eq!(f, vec![10.0, 20.0, 30.0, 10.0, 20.0]);
    }

    #[test]
    fn seasonal_naive_short_history_falls_back_to_mean() {
        let f = SeasonalNaive::new(7).forecast(&[2.0, 4.0], 2);
        assert_eq!(f, vec![3.0, 3.0]);
        assert_eq!(SeasonalNaive::new(7).forecast(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn seasonal_naive_zero_period_panics() {
        let _ = SeasonalNaive::new(0);
    }

    #[test]
    fn seasonal_naive_zero_period_literal_forecasts_the_mean() {
        // The public field lets a literal skip `new`'s check; it must not
        // divide by zero.
        let zero = SeasonalNaive { period: 0 };
        assert_eq!(zero.forecast(&[2.0, 4.0], 3), vec![3.0; 3]);
        assert_eq!(zero.forecast(&[], 2), vec![0.0; 2]);
        assert_eq!(zero.forecast(&[5.0], 0), Vec::<f64>::new());
    }

    #[test]
    fn ewma_alpha_one_is_naive() {
        let history = vec![5.0, 9.0, 2.0];
        assert_eq!(Ewma::new(1.0).forecast(&history, 2), vec![2.0, 2.0]);
    }

    #[test]
    fn ewma_smooths_toward_recent() {
        let history = vec![0.0, 0.0, 0.0, 10.0];
        let level = Ewma::new(0.5).level(&history);
        assert_eq!(level, 5.0);
    }

    #[test]
    fn ewma_empty_history_is_zero() {
        assert_eq!(Ewma::new(0.3).forecast(&[], 3), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn names_are_distinct() {
        let names = [Naive.name(), SeasonalNaive::new(7).name(), Ewma::new(0.5).name()];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
