//! Table 17: correlation of the average throughput with vs without recovery.

use renaissance_bench::experiments::{
    throughput_correlations, throughput_under_failure, ExperimentScale,
};
use renaissance_bench::report::{print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Table 17: correlation of the average throughput with vs without recovery. Plots one seeded trace (pick it with --seed); --runs is not used.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let with = throughput_under_failure(&scale, true, &mut pipeline);
    let without = throughput_under_failure(&scale, false, &mut pipeline);
    let correlations = throughput_correlations(&with, &without, &mut pipeline);
    let rows: Vec<Row> = correlations
        .iter()
        .map(|c| Row::new(c.network.clone(), vec![format!("{:.2}", c.correlation)]))
        .collect();
    print_table(
        "Table 17 — correlation of throughput with vs without recovery",
        &["correlation"],
        &rows,
    );
    pipeline.finish();
}
