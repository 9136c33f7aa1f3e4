//! Table 8: the number of nodes and diameter of the studied networks.

use renaissance_bench::experiments::table8;
use renaissance_bench::report::{print_table, Row};
use renaissance_bench::MetricPipeline;

fn main() {
    // Table 8 is deterministic (no seeds or repetitions), but it still speaks the
    // shared CLI convention so `--help` and `--out`/`--format` work uniformly
    // across the binaries.
    let args = renaissance_bench::cli::parse(
        "Table 8: the number of nodes and diameter of the studied networks.",
        &[],
    );
    let mut pipeline = MetricPipeline::from_args(&args);
    let rows_data = table8(&mut pipeline);
    let rows: Vec<Row> = rows_data
        .iter()
        .map(|r| {
            Row::new(
                r.network.clone(),
                vec![r.nodes.to_string(), r.diameter.to_string()],
            )
        })
        .collect();
    print_table("Table 8 — studied networks", &["nodes", "diameter"], &rows);
    pipeline.finish();
}
