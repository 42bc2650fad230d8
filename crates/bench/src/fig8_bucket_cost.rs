//! Fig. 8 — daily monetary cost per variability bucket for the five
//! policies.
//!
//! The paper's reading: costs rise with request-frequency variability for
//! the non-adaptive policies, and the per-bucket ordering matches Fig. 7
//! (`Cold > Hot > Greedy > MiniCost > Optimal`).

use crate::fig7_total_cost::{evaluate, Fig7Runs, Params};
use crate::{ConfigBlock, Report};
use minicost::prelude::*;
use tracegen::analysis::CV_BUCKET_LABELS;

/// Runs the experiment (shares Fig. 7's parameters and training run).
#[must_use]
pub fn run(params: &Params) -> Report {
    let Fig7Runs { runs, test } = evaluate(params);

    let mut report = Report::new(
        "fig8",
        "daily cost ($/day) per variability bucket and policy",
        &["bucket", "files", "hot", "cold", "greedy", "minicost", "optimal"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, params.workers));

    let members = tracegen::analysis::bucket_members(&test);
    let days = test.days as i64;
    let per_policy_buckets: Vec<[Money; 5]> =
        runs.iter().map(|r| bucket_costs(&test, &r.per_file)).collect();

    for (bucket, label) in CV_BUCKET_LABELS.iter().enumerate() {
        let mut row = vec![(*label).to_owned(), members[bucket].len().to_string()];
        for buckets in &per_policy_buckets {
            row.push(format!("{:.4}", (buckets[bucket] / days).as_dollars()));
        }
        report.push_row(row);
    }
    report.note("paper Fig. 8: per-bucket ordering Cold > Hot > Greedy > MiniCost > Optimal");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rows_cover_all_policies() {
        let report =
            run(&Params { files: 300, days: 14, seed: 3, updates: 200, width: 8, workers: 2 });
        assert_eq!(report.rows.len(), 5);
        assert_eq!(report.header.len(), 7);
        // Optimal never exceeds hot in any bucket.
        for row in &report.rows {
            let hot: f64 = row[2].parse().unwrap();
            let opt: f64 = row[6].parse().unwrap();
            assert!(opt <= hot + 1e-9, "{row:?}");
        }
    }
}
