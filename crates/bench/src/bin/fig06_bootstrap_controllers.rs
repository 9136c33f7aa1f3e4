//! Figure 6: bootstrap time for Telstra, AT&T and EBONE with 1 to 7 controllers.

use renaissance_bench::experiments::{bootstrap_vs_controllers, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let args = renaissance_bench::cli::parse(
        "Figure 6: bootstrap time for Telstra, AT&T and EBONE with 1 to 7 controllers.",
        &[],
    );
    // The figure's default network subset; an explicit --networks list still wins.
    let scale = ExperimentScale {
        networks: vec!["Telstra".into(), "AT&T".into(), "EBONE".into()],
        ..ExperimentScale::default()
    }
    .with_args(&args);
    let mut pipeline = MetricPipeline::from_args(&args);
    let counts = [1, 3, 5, 7];
    let results = bootstrap_vs_controllers(&scale, &counts, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                format!("{} ({} ctrl)", r.network, r.controllers),
                vec![
                    fmt2(r.measurement.median()),
                    fmt2(r.measurement.mean()),
                    fmt2(r.measurement.max()),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 6 — bootstrap time vs number of controllers (simulated seconds)",
        &["median", "mean", "max"],
        &rows,
    );
    pipeline.finish();
}
