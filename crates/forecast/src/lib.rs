//! Time-series forecasting for request frequencies.
//!
//! The paper's §3.1 uses an ARIMA model to predict each file's daily request
//! frequency 7 days ahead from two months of history (Fig. 4 reports the
//! per-bucket prediction-error distribution). This crate implements
//! ARIMA(p, d, q) from scratch — differencing, AR fitting by conditional
//! least squares, MA fitting by the Hannan–Rissanen two-stage regression —
//! plus the naive/seasonal/EWMA baselines the error analysis compares
//! against.
//!
//! # Quick example
//!
//! ```
//! use forecast::{Arima, Forecaster};
//!
//! // A noiseless linear ramp: ARIMA(1,1,0) extrapolates the trend.
//! let history: Vec<f64> = (0..50).map(|t| 2.0 * t as f64).collect();
//! let forecast = Arima::new(1, 1, 0).forecast(&history, 3);
//! assert_eq!(forecast.len(), 3);
//! assert!((forecast[0] - 100.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
// Library code must surface failures as values; tests may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "tests may panic")
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod arima;
pub mod baselines;
pub mod error;
pub mod linalg;
pub mod series;

pub use arima::Arima;
pub use baselines::{Ewma, Naive, SeasonalNaive};
pub use error::{relative_error, ErrorSummary};

/// A forecaster maps a history to `horizon` future values.
///
/// Implementations are configuration objects; fitting happens inside
/// `forecast` on the given history (matching how the paper refits ARIMA per
/// file per decision period).
pub trait Forecaster {
    /// Predicts the next `horizon` values after `history`.
    ///
    /// Implementations must return exactly `horizon` values and handle
    /// degenerate histories (empty, constant) gracefully.
    fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64>;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}
