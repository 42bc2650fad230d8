//! Fig. 2 — distribution of normalized daily request-frequency standard
//! deviations across files.
//!
//! The paper reports 81.75% / 9.93% / 5.39% / 2.3% / 0.63% of ~4M files in
//! the five buckets. Regenerates the histogram from the synthetic trace and
//! prints both the counts and the deviation from the paper's percentages.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;
use tracegen::analysis::{bucket_histogram, CV_BUCKET_LABELS};
use tracegen::config::PAPER_BUCKET_MIX;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files in the generated trace.
    pub files: usize,
    /// Trace length in days (the paper analyzed ~2 months).
    pub days: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 200_000),
            days: args.usize("days", 63),
            seed: args.u64("seed", 2020),
        }
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let hist = bucket_histogram(&trace);
    let fractions = hist.fractions();

    let mut report = Report::new(
        "fig2",
        "files per normalized-std bucket vs the paper's Wikipedia analysis",
        &["bucket", "files", "fraction", "paper", "delta"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));
    for (i, label) in CV_BUCKET_LABELS.iter().enumerate() {
        report.push_row(vec![
            (*label).to_owned(),
            hist.counts[i].to_string(),
            format!("{:.4}", fractions[i]),
            format!("{:.4}", PAPER_BUCKET_MIX[i]),
            format!("{:+.4}", fractions[i] - PAPER_BUCKET_MIX[i]),
        ]);
    }
    report.note(format!(
        "trace: {} files x {} days, seed {}",
        params.files, params.days, params.seed
    ));
    report.note("paper Fig. 2: heavy concentration in 0-0.1 with a thin >0.8 tail");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_paper_mix() {
        let report = run(&Params { files: 5_000, days: 35, seed: 7 });
        assert_eq!(report.rows.len(), 5);
        // Parse fractions back out and compare against the paper column.
        for row in &report.rows {
            let got: f64 = row[2].parse().unwrap();
            let paper: f64 = row[3].parse().unwrap();
            assert!((got - paper).abs() < 0.05, "{row:?}");
        }
    }

    #[test]
    fn params_parse_defaults() {
        let p = Params::from_args(&Args::from_list(Vec::<String>::new()));
        assert_eq!(p.files, 200_000);
        let p =
            Params::from_args(&Args::from_list(["--files", "10"].iter().map(|s| (*s).to_owned())));
        assert_eq!(p.files, 10);
    }
}
