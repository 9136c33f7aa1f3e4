//! Figure 14: recovery time after 2, 4 or 6 simultaneous permanent link failures.

use renaissance_bench::experiments::{recovery_after_failure, ExperimentScale, FailureKind};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 14: recovery time after 2, 4 or 6 simultaneous permanent link failures.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for count in [2usize, 4, 6] {
        let results =
            recovery_after_failure(&scale, 3, FailureKind::Links { count }, &mut pipeline);
        for r in &results {
            rows.push(Row::new(
                format!("{} ({} links)", r.network, count),
                vec![fmt2(r.measurement.median()), fmt2(r.measurement.mean())],
            ));
        }
        all.extend(results);
    }
    print_table(
        "Figure 14 — recovery time after multiple permanent link failures (simulated seconds)",
        &["median", "mean"],
        &rows,
    );
    pipeline.finish();
}
