//! Figure 11: recovery time after the fail-stop of 1 to 6 controllers (7 deployed).

use renaissance_bench::experiments::{recovery_after_failure, ExperimentScale, FailureKind};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let args = renaissance_bench::cli::parse(
        "Figure 11: recovery time after the fail-stop of 1 to 6 controllers (7 deployed).",
        &[],
    );
    // The figure's default network subset; an explicit --networks list still wins.
    let scale = ExperimentScale {
        networks: vec!["Telstra".into(), "AT&T".into(), "EBONE".into()],
        ..ExperimentScale::default()
    }
    .with_args(&args);
    let mut pipeline = MetricPipeline::from_args(&args);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for count in [1usize, 2, 4, 6] {
        let results =
            recovery_after_failure(&scale, 7, FailureKind::Controllers { count }, &mut pipeline);
        for r in &results {
            rows.push(Row::new(
                format!("{} ({} failed)", r.network, count),
                vec![fmt2(r.measurement.median()), fmt2(r.measurement.mean())],
            ));
        }
        all.extend(results);
    }
    print_table(
        "Figure 11 — recovery time after multiple controller fail-stops (simulated seconds)",
        &["median", "mean"],
        &rows,
    );
    pipeline.finish();
}
