//! Synthetic Wikipedia-like request-frequency traces.
//!
//! The MiniCost paper (Wang et al., ICPP 2020) drives every experiment with a
//! two-month Wikipedia page-view trace (§3.1): ~4M articles, hourly views
//! re-binned to daily request frequencies, Poisson-distributed file sizes
//! with a 100 MB mean, and a characteristic mix of stationary and highly
//! non-stationary files (Fig. 2: 81.75% of files have a normalized daily
//! request-frequency standard deviation below 0.1, 0.63% above 0.8).
//!
//! The original trace is not redistributable here, so this crate generates a
//! **calibrated synthetic equivalent**: Zipf popularity, weekly seasonality
//! (the paper cites ~1-week request cycles), per-file multiplicative
//! log-normal variability whose magnitude is drawn to match the paper's
//! bucket mix, and Poisson file sizes. Every generator is seeded and
//! deterministic, so experiments are exactly reproducible.
//!
//! # Quick example
//!
//! ```
//! use tracegen::{TraceConfig, Trace};
//!
//! let cfg = TraceConfig { files: 100, days: 14, seed: 7, ..TraceConfig::default() };
//! let trace = Trace::generate(&cfg);
//! assert_eq!(trace.files.len(), 100);
//! let hist = tracegen::analysis::bucket_histogram(&trace);
//! assert_eq!(hist.counts.iter().sum::<usize>(), 100);
//! ```

#![warn(missing_docs)]
// Library code must surface failures as values, and must not truncate op
// counters, byte sizes or tick indices silently; tests may do both.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation,
        reason = "tests may panic and cast freely"
    )
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod analysis;
pub mod concurrency;
pub mod config;
pub mod file;
pub mod generate;
pub mod hourly;
pub mod io;
pub mod sampling;
pub mod workload;

pub use analysis::{BucketHistogram, CvBucket, CV_BUCKET_COUNT};
pub use concurrency::{CoRequestGroup, CoRequestModel};
pub use config::TraceConfig;
pub use file::{FileId, FileSeries};
pub use hourly::{DiurnalProfile, HOURS};
pub use workload::{Trace, TraceSplit};
