//! Ablation: memory-adaptive main algorithm vs the Section 8.1 non-adaptive variant —
//! recovery time from arbitrary transient corruption and post-recovery memory use.

use renaissance_bench::experiments::{variant_ablation, ExperimentScale};
use renaissance_bench::report::{fmt2, print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    let (scale, args) = ExperimentScale::from_cli(
        "Ablation: memory-adaptive main algorithm vs the Section 8.1 non-adaptive variant",
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let results = variant_ablation(&scale, &mut pipeline);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                format!(
                    "{} ({})",
                    r.network,
                    if r.memory_adaptive {
                        "adaptive"
                    } else {
                        "non-adaptive"
                    }
                ),
                vec![
                    fmt2(r.transient_recovery.median()),
                    fmt2(r.transient_recovery.mean()),
                    fmt2(r.total_rules_after.mean()),
                ],
            )
        })
        .collect();
    print_table(
        "Ablation — transient-fault recovery (s) and rules after stabilization",
        &["median s", "mean s", "rules after"],
        &rows,
    );
    pipeline.finish();
}
