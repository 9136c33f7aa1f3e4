//! Figure 5: bootstrap time for the paper's networks using 3 controllers.

use renaissance_bench::experiments::{bootstrap_times, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 5: bootstrap time for the paper's networks using 3 controllers.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = bootstrap_times(&scale, 3, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                r.network.clone(),
                vec![
                    fmt2(r.measurement.median()),
                    fmt2(r.measurement.mean()),
                    fmt2(r.measurement.stddev()),
                    fmt2(r.measurement.p90()),
                    fmt2(r.measurement.min()),
                    fmt2(r.measurement.max()),
                    r.measurement.len().to_string(),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 5 — bootstrap time, 3 controllers (simulated seconds)",
        &["median", "mean", "stddev", "p90", "min", "max", "runs"],
        &rows,
    );
    pipeline.finish();
}
