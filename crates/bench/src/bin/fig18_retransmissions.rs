//! Figure 18: retransmission percentage per second around the link failure.

use renaissance_bench::experiments::{throughput_under_failure, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 18: retransmission percentage per second around the link failure. Plots one seeded trace (pick it with --seed); --runs is not used.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = throughput_under_failure(&scale, true, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            let peak = r.run.retransmission_pct.iter().copied().fold(0.0, f64::max);
            Row::new(r.network.clone(), vec![fmt2(peak)])
        })
        .collect();
    print_table(
        "Figure 18 — peak retransmission % (burst at the failure second)",
        &["peak %"],
        &rows,
    );
    for r in &results {
        println!(
            "{} per-second retransmission %: {:?}",
            r.network,
            r.run
                .retransmission_pct
                .iter()
                .map(|v| (v * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
    }
    pipeline.finish();
}
