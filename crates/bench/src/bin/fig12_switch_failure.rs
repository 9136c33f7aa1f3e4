//! Figure 12: recovery time after a permanent switch failure.

use renaissance_bench::experiments::{recovery_after_failure, ExperimentScale, FailureKind};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) =
        ExperimentScale::from_cli("Figure 12: recovery time after a permanent switch failure.");
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = recovery_after_failure(&scale, 3, FailureKind::Switch, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                r.network.clone(),
                vec![
                    fmt2(r.measurement.median()),
                    fmt2(r.measurement.mean()),
                    fmt2(r.measurement.max()),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 12 — recovery time after a switch fail-stop (simulated seconds)",
        &["median", "mean", "max"],
        &rows,
    );
    pipeline.finish();
}
