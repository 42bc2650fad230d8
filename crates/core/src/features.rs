//! State featurization.
//!
//! The paper's state (§4.2.1) is `s = (F_r, F_w, D, Γ)` — read frequencies,
//! write frequencies, data size, and current storage type. The network
//! consumes a fixed-width encoding of that state:
//!
//! * a `window`-day history of read frequencies, normalized by the file's
//!   own historical mean so the policy is scale-free across the Zipf
//!   popularity range (fed to the conv filters);
//! * scalar extras appended after the window (passed around the conv by
//!   [`nn::ConvBranch`]): log-scaled mean read rate, file size, write/read
//!   ratio, and a one-hot of the current tier.

use crate::fleet::{FeatureBlock, FleetView, History};
use pricing::{Tier, TIER_COUNT};
use serde::{Deserialize, Serialize};
use tracegen::FileSeries;

/// Number of scalar features appended after the history window.
pub const EXTRA_FEATURES: usize = 3 + TIER_COUNT;

/// Cap on normalized history values; a 10x-mean burst saturates the input
/// rather than blowing up activations.
const HISTORY_CAP: f64 = 10.0;

/// Featurization configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// History window length in days (conv input length). The paper uses a
    /// weekly decision rhythm, so 7 is the default.
    pub window: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { window: 7 }
    }
}

impl FeatureConfig {
    /// Number of history channels fed to the conv: channel 0 carries the
    /// absolute traffic level (`log1p(reads)/10`), channel 1 the shape
    /// (reads normalized by the file's observed mean). Without the level
    /// channel, a busy steady file and a quiet steady file present
    /// identical conv inputs and the policy cannot place the hot/cool
    /// breakeven.
    pub const CHANNELS: usize = 2;

    /// Total state width: `CHANNELS * window + EXTRA_FEATURES`, saturating
    /// so that a corrupt deserialized window reads as a mismatch, not an
    /// overflow.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        Self::CHANNELS.saturating_mul(self.window).saturating_add(EXTRA_FEATURES)
    }

    /// Builds the feature vector for `file` on the morning of `day`
    /// (observing only days `< day`), residing in `tier`.
    ///
    /// Days before the trace start are backfilled, so the encoder is
    /// total: any `day <= file.days()` is valid.
    #[must_use]
    pub fn encode(&self, file: &FileSeries, day: usize, tier: Tier) -> Vec<f64> {
        assert!(day <= file.reads.len(), "day beyond series");
        let history = History::observed(&file.reads[..day], &file.writes[..day], self.window);
        let mut out = vec![0.0; self.state_dim()];
        self.encode_slices(&mut out, history, day, file.size_gb, tier);
        out
    }

    /// Encodes one batch row per [`FleetView`] slot into `block` — the
    /// allocation-free batch featurization path (`tests/alloc_budget.rs`
    /// measures it): `block` is reshaped (reusing its backing buffer) and
    /// every row written in slot order, bit-identical to the per-file
    /// [`FeatureConfig::encode`] output.
    ///
    /// `current[slot]` is the tier batch entry `slot` currently occupies.
    pub fn encode_block(&self, view: &FleetView<'_>, current: &[Tier], block: &mut FeatureBlock) {
        assert_eq!(current.len(), view.len(), "one current tier per batch slot");
        block.reset(view.len(), self.state_dim());
        for (slot, &tier) in current.iter().enumerate() {
            self.encode_slices(
                block.row_mut(slot),
                view.history(slot, self.window),
                view.day(),
                view.size_gb(slot),
                tier,
            );
        }
    }

    /// The featurization kernel: writes the state for one file with
    /// `history` on the morning of `day` in `tier` into `out`, which must
    /// be exactly [`FeatureConfig::state_dim`] long. The means are the
    /// history's `u64` sums cast once, so any exact way of producing them
    /// encodes to bit-identical `f64` features, and every other encoder is
    /// a wrapper over this one floating-point evaluation order.
    pub fn encode_slices(
        &self,
        out: &mut [f64],
        history: History<'_>,
        day: usize,
        size_gb: f64,
        tier: Tier,
    ) {
        assert_eq!(out.len(), self.state_dim(), "output row width mismatch");

        // Means over the observed prefix (not the future!).
        let (mean, mean_writes) = if day == 0 {
            (0.0, 0.0)
        } else {
            (history.sum_reads as f64 / day as f64, history.sum_writes as f64 / day as f64)
        };
        let denom = mean + 1.0;

        // Days before the first observation are backfilled with the
        // observed mean ("assume the file has always run at its average"),
        // NOT with zeros: zero-padding is indistinguishable from genuine
        // idleness and teaches the policy to archive busy files during the
        // first week of deployment.
        let recent = history.recent;
        let past = |k: usize| {
            // `window - k` days before `day`; oldest first, yesterday last.
            let back = recent.len().checked_sub(self.window - k);
            back.and_then(|at| recent.get(at)).map_or(mean, |&reads| reads as f64)
        };

        // Channel 0: absolute level, log-compressed.
        let mut w = 0;
        for k in 0..self.window {
            out[w] = (1.0 + past(k)).ln() / 10.0;
            w += 1;
        }
        // Channel 1: shape, normalized by the file's own observed mean.
        for k in 0..self.window {
            out[w] = (past(k) / denom).min(HISTORY_CAP);
            w += 1;
        }

        // Scalar extras.
        out[w] = (mean + 1.0).ln() / 10.0; // log-scale popularity
        out[w + 1] = size_gb; // ~0.1 GB typical, already unit-scale
        out[w + 2] = mean_writes / denom; // write/read ratio
        w += 3;
        for t in Tier::all() {
            out[w] = if t == tier { 1.0 } else { 0.0 };
            w += 1;
        }
        debug_assert_eq!(w, self.state_dim());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::FileId;

    fn file(reads: Vec<u64>) -> FileSeries {
        let writes = reads.iter().map(|r| r / 10).collect();
        FileSeries { id: FileId(0), size_gb: 0.1, reads, writes }
    }

    #[test]
    fn state_dim_is_channels_window_plus_extras() {
        let cfg = FeatureConfig { window: 7 };
        assert_eq!(cfg.state_dim(), 2 * 7 + EXTRA_FEATURES);
        assert_eq!(EXTRA_FEATURES, 6);
        assert_eq!(FeatureConfig::CHANNELS, 2);
    }

    #[test]
    fn channels_are_chronological_and_scaled() {
        let f = file(vec![10, 20, 30, 40]);
        let cfg = FeatureConfig { window: 3 };
        let s = cfg.encode(&f, 3, Tier::Hot);
        // Channel 0 (level): log1p(reads)/10, oldest first.
        assert!((s[0] - (11.0f64).ln() / 10.0).abs() < 1e-12);
        assert!((s[1] - (21.0f64).ln() / 10.0).abs() < 1e-12);
        assert!((s[2] - (31.0f64).ln() / 10.0).abs() < 1e-12);
        // Channel 1 (shape): reads / (observed mean + 1).
        // Observed prefix = [10, 20, 30], mean = 20, denom = 21.
        assert!((s[3] - 10.0 / 21.0).abs() < 1e-12);
        assert!((s[4] - 20.0 / 21.0).abs() < 1e-12);
        assert!((s[5] - 30.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn early_days_are_backfilled_with_the_observed_mean() {
        let f = file(vec![5, 6, 7]);
        let cfg = FeatureConfig { window: 3 };
        let s = cfg.encode(&f, 1, Tier::Hot);
        // Only day 0 (reads = 5) observed; the two older slots carry the
        // observed mean (5), indistinguishable from a steady file — which
        // is the intended prior.
        assert_eq!(s[0], s[2]);
        assert_eq!(s[1], s[2]);
        assert!(s[2] > 0.0);
        assert_eq!(s[3], s[5]);
        assert_eq!(s[4], s[5]);
        assert!(s[5] > 0.0);
    }

    #[test]
    fn day_zero_is_all_padding() {
        let f = file(vec![5, 6, 7]);
        let cfg = FeatureConfig { window: 3 };
        let s = cfg.encode(&f, 0, Tier::Cool);
        assert_eq!(&s[..6], &[0.0; 6]);
    }

    #[test]
    fn tier_one_hot_is_exclusive() {
        let f = file(vec![1, 2, 3]);
        let cfg = FeatureConfig { window: 2 };
        for tier in Tier::all() {
            let s = cfg.encode(&f, 2, tier);
            let onehot = &s[s.len() - TIER_COUNT..];
            assert_eq!(onehot.iter().sum::<f64>(), 1.0);
            assert_eq!(onehot[tier.index()], 1.0);
        }
    }

    #[test]
    fn bursts_are_capped_in_shape_channel() {
        // Mean ~1 over prefix, then a 10000x burst yesterday.
        let f = file(vec![1, 1, 1, 10_000]);
        let cfg = FeatureConfig { window: 2 };
        let s = cfg.encode(&f, 4, Tier::Hot);
        // Shape channel occupies [window..2*window); yesterday is its last.
        assert!(s[3] <= HISTORY_CAP);
        // Level channel is log-compressed, bounded even without a cap.
        assert!(s[1] < 1.0);
    }

    #[test]
    fn level_channel_separates_traffic_scales() {
        // Two steady files at different traffic levels: the shape channel
        // is (by design) nearly identical, but the level channel differs —
        // this is what lets the policy place the hot/cool breakeven.
        let quiet = file(vec![10; 8]);
        let busy = file(vec![10_000; 8]);
        let cfg = FeatureConfig { window: 4 };
        let sq = cfg.encode(&quiet, 8, Tier::Hot);
        let sb = cfg.encode(&busy, 8, Tier::Hot);
        for k in 0..4 {
            assert!(sb[k] - sq[k] > 0.3, "level slot {k}: {} vs {}", sb[k], sq[k]);
            assert!((sb[4 + k] - sq[4 + k]).abs() < 0.15, "shape slot {k}");
        }
    }

    #[test]
    fn shape_channel_is_approximately_scale_invariant() {
        let small = file(vec![10, 20, 10, 20, 10, 20, 10]);
        let big = file(vec![1000, 2000, 1000, 2000, 1000, 2000, 1000]);
        let cfg = FeatureConfig { window: 4 };
        let s1 = cfg.encode(&small, 7, Tier::Hot);
        let s2 = cfg.encode(&big, 7, Tier::Hot);
        for k in 4..8 {
            // The +1 smoothing in the denominator makes invariance
            // approximate at low magnitudes; a 10% band is the contract.
            assert!((s1[k] - s2[k]).abs() < 0.15, "slot {k}: {} vs {}", s1[k], s2[k]);
        }
    }

    #[test]
    fn encode_is_pure() {
        let f = file(vec![3, 1, 4, 1, 5]);
        let cfg = FeatureConfig::default();
        assert_eq!(cfg.encode(&f, 5, Tier::Cool), cfg.encode(&f, 5, Tier::Cool));
    }

    #[test]
    #[should_panic(expected = "beyond series")]
    fn day_out_of_range_panics() {
        let f = file(vec![1, 2]);
        let _ = FeatureConfig::default().encode(&f, 3, Tier::Hot);
    }

    #[test]
    fn encode_block_matches_per_file_encode_bit_for_bit() {
        use crate::fleet::{FeatureBlock, FleetState};
        use tracegen::Trace;

        let files: Vec<FileSeries> =
            [vec![3, 1, 4, 1, 5, 9, 2], vec![2, 7, 1, 8, 2, 8, 1], vec![0, 0, 0, 0, 0, 0, 0]]
                .into_iter()
                .map(file)
                .collect();
        let trace = Trace { days: 7, files };
        let fleet = FleetState::from_trace(&trace);
        let cfg = FeatureConfig { window: 4 };
        let batch = [2usize, 0, 1];
        let current = [Tier::Archive, Tier::Hot, Tier::Cool];
        let mut block = FeatureBlock::new();
        // Dirty the block with a different shape first: reuse must not leak.
        block.reset(7, 2);
        block.row_mut(0).fill(9.0);
        for day in [0usize, 2, 6] {
            cfg.encode_block(&fleet.view(&batch, day), &current, &mut block);
            assert_eq!(block.rows(), batch.len());
            for (slot, &ix) in batch.iter().enumerate() {
                let expect = cfg.encode(&trace.files[ix], day, current[slot]);
                assert_eq!(block.matrix().row(slot), &expect[..], "slot {slot} day {day}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn encode_slices_rejects_wrong_width() {
        let f = file(vec![1, 2, 3]);
        let cfg = FeatureConfig { window: 2 };
        let mut out = vec![0.0; cfg.state_dim() + 1];
        let history = History::observed(&f.reads[..1], &f.writes[..1], cfg.window);
        cfg.encode_slices(&mut out, history, 1, f.size_gb, Tier::Hot);
    }
}
