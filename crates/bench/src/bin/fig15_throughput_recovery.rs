//! Figure 15: TCP throughput across a mid-path link failure, with tagged-update recovery.

use renaissance_bench::experiments::{throughput_under_failure, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 15: TCP throughput across a mid-path link failure, with tagged-update recovery. Plots one seeded trace (pick it with --seed); --runs is not used.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = throughput_under_failure(&scale, true, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                r.network.clone(),
                vec![
                    fmt2(r.run.mean_throughput()),
                    fmt2(r.run.min_throughput()),
                    fmt2(r.fct.map(|f| f.p50_s).unwrap_or_default()),
                    fmt2(r.fct.map(|f| f.p99_s).unwrap_or_default()),
                    r.failed_link.clone().unwrap_or_default(),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 15 — throughput with recovery (Mbit/s): mean, dip, background-flow FCT \
         p50/p99 (s), failed link",
        &["mean", "dip", "fct p50", "fct p99", "failed link"],
        &rows,
    );
    for r in &results {
        println!(
            "{} per-second Mbit/s: {:?}",
            r.network,
            r.run
                .throughput_mbps
                .iter()
                .map(|v| v.round())
                .collect::<Vec<_>>()
        );
    }
    pipeline.finish();
}
