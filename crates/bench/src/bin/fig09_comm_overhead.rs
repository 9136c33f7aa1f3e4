//! Figure 9: communication cost per node for the maximum-loaded controller.

use renaissance_bench::experiments::{communication_overhead, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 9: communication cost per node for the maximum-loaded controller.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = communication_overhead(&scale, 3, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                r.network.clone(),
                vec![
                    fmt2(r.messages_per_node_per_iteration.median()),
                    fmt2(r.messages_per_node_per_iteration.mean()),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 9 — messages per node per iteration (max-loaded controller)",
        &["median", "mean"],
        &rows,
    );
    pipeline.finish();
}
