//! Figure 7: bootstrap time as a function of the task delay (query interval), 7 controllers.

use renaissance_bench::experiments::{bootstrap_vs_task_delay, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;
use sdn_netsim::SimDuration;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Figure 7: bootstrap time as a function of the task delay (query interval), 7 controllers.",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let delays: Vec<SimDuration> = [1000u64, 700, 500, 300, 100, 60, 20, 5]
        .into_iter()
        .map(SimDuration::from_millis)
        .collect();
    let results = bootstrap_vs_task_delay(&scale, 7, &delays, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                format!("{} @ {:.3}s", r.network, r.task_delay_s),
                vec![fmt2(r.measurement.median()), fmt2(r.measurement.mean())],
            )
        })
        .collect();
    print_table(
        "Figure 7 — bootstrap time vs task delay, 7 controllers (simulated seconds)",
        &["median", "mean"],
        &rows,
    );
    pipeline.finish();
}
