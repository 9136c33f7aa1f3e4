//! The figure registry behind `renaissance-fig`: every table and figure of the paper's
//! evaluation (Section 6) is one [`Figure`] entry — id, one-liner, default network
//! subset, and a runner that turns an [`experiments`](crate::experiments) result into a
//! [`Table`]. The binary's `--help`, the README table and the committed
//! `BENCH_figures.txt` golden are all read off [`FIGURES`], in its order.

use crate::cli::{die, CliArgs, Flag};
use crate::experiments::FailureKind::{self, Controllers, Links, Switch};
use crate::experiments::{
    bootstrap_times, bootstrap_vs_controllers, bootstrap_vs_task_delay, communication_overhead,
    recovery_after_failure, table8, throughput_correlations, throughput_under_failure,
    variant_ablation, AblationResult, BootstrapResult, CorrelationRow, ExperimentScale,
    Measurement, Table8Row,
};
use crate::report::{fmt2, Row, Table};
use sdn_metrics::Recorder;
use sdn_netsim::SimDuration;
use sdn_traffic::iperf::IperfRun;

/// One table or figure of the evaluation.
pub struct Figure {
    /// What the command line calls it.
    pub id: &'static str,
    /// The one-liner `--help` and the README print.
    pub about: &'static str,
    /// The networks the figure plots when `--networks` is not given; `None` means the
    /// five paper networks.
    pub default_networks: Option<&'static [&'static str]>,
    /// Runs the experiment at the given scale, streaming every sample through the
    /// recorder, and lays the result out for [`print_table`](crate::report::print_table).
    pub run: fn(&ExperimentScale, &mut dyn Recorder) -> Table,
}

impl Figure {
    /// The scale this figure runs at under `args`: its own network subset unless
    /// `--networks` names one, every other knob from the shared flags.
    pub fn scale(&self, args: &CliArgs) -> ExperimentScale {
        let mut scale = ExperimentScale::default();
        if let Some(networks) = self.default_networks {
            scale.networks = networks.iter().map(|s| s.to_string()).collect();
        }
        scale.with_args(args)
    }
}

/// The three ISP networks Figures 6 and 11 sweep.
const ISP_NETWORKS: &[&str] = &["Telstra", "AT&T", "EBONE"];

/// Every figure, in the order of the paper (and of `--all`).
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "table8",
        about: "Table 8: the number of nodes and diameter of the studied networks.",
        default_networks: None,
        run: run_table8,
    },
    Figure {
        id: "fig05",
        about: "Figure 5: bootstrap time for the paper's networks using 3 controllers.",
        default_networks: None,
        run: fig05,
    },
    Figure {
        id: "fig06",
        about: "Figure 6: bootstrap time for Telstra, AT&T and EBONE with 1 to 7 controllers.",
        default_networks: Some(ISP_NETWORKS),
        run: fig06,
    },
    Figure {
        id: "fig07",
        about: "Figure 7: bootstrap time vs the task delay (query interval), 7 controllers.",
        default_networks: None,
        run: fig07,
    },
    Figure {
        id: "fig09",
        about: "Figure 9: communication cost per node for the maximum-loaded controller.",
        default_networks: None,
        run: fig09,
    },
    Figure {
        id: "fig10",
        about: "Figure 10: recovery time after the fail-stop of one controller.",
        default_networks: None,
        run: fig10,
    },
    Figure {
        id: "fig11",
        about: "Figure 11: recovery time after the fail-stop of 1 to 6 controllers (7 deployed).",
        default_networks: Some(ISP_NETWORKS),
        run: fig11,
    },
    Figure {
        id: "fig12",
        about: "Figure 12: recovery time after a permanent switch failure.",
        default_networks: None,
        run: fig12,
    },
    Figure {
        id: "fig13",
        about: "Figure 13: recovery time after a single permanent link failure.",
        default_networks: None,
        run: fig13,
    },
    Figure {
        id: "fig14",
        about: "Figure 14: recovery time after 2, 4 or 6 simultaneous permanent link failures.",
        default_networks: None,
        run: fig14,
    },
    Figure {
        id: "fig15",
        about: "Figure 15: TCP throughput across a mid-path link failure, tagged-update recovery.",
        default_networks: None,
        run: fig15,
    },
    Figure {
        id: "fig16",
        about: "Figure 16: TCP throughput across a mid-path link failure, backup paths only.",
        default_networks: None,
        run: fig16,
    },
    Figure {
        id: "table17",
        about: "Table 17: correlation of the average throughput with vs without recovery.",
        default_networks: None,
        run: table17,
    },
    Figure {
        id: "fig18",
        about: "Figure 18: retransmission percentage per second around the link failure.",
        default_networks: None,
        run: fig18,
    },
    Figure {
        id: "fig19",
        about: "Figure 19: BAD TCP flag percentage per second around the link failure.",
        default_networks: None,
        run: fig19,
    },
    Figure {
        id: "fig20",
        about: "Figure 20: out-of-order packet percentage per second around the link failure.",
        default_networks: None,
        run: fig20,
    },
    Figure {
        id: "ablation",
        about: "Ablation: memory-adaptive main algorithm vs the Section 8.1 non-adaptive variant.",
        default_networks: None,
        run: ablation,
    },
];

/// What `renaissance-fig` accepts beside the shared flags.
pub const FLAGS: &[Flag] = &[
    Flag {
        name: "<id>...",
        value_name: None,
        help: "the figures to regenerate, printed in the order given",
    },
    Flag {
        name: "--all",
        value_name: None,
        help: "every figure, in the order listed above",
    },
];

/// The `--help` preamble: usage plus one line per registered figure.
pub fn about() -> String {
    let mut text = "Regenerates the tables and figures of the Renaissance evaluation \
                    (Section 6).\n\nUsage: renaissance-fig <id>... | --all  [options]\n\n"
        .to_string();
    for figure in FIGURES {
        text += &format!("  {:<9} {}", figure.id, figure.about);
        if let Some(networks) = figure.default_networks {
            text += &format!(" [default --networks {}]", networks.join(","));
        }
        text.push('\n');
    }
    text + "\nfig15, fig16, table17 and fig18-fig20 plot one seeded trace (pick it with --seed); \
            --runs is not used."
}

/// The figures a command line asks for: the positional ids in the order given, or
/// all of them under `--all`. Exits 2, listing the known ids, on anything else.
pub fn select(args: &CliArgs) -> Vec<&'static Figure> {
    let known = || FIGURES.iter().map(|f| f.id).collect::<Vec<_>>().join(", ");
    let by_id = |id: &String| {
        let found = FIGURES.iter().find(|f| f.id == id);
        found.unwrap_or_else(|| die(&format!("unknown figure '{id}' (known: {})", known())))
    };
    match (args.switch("--all"), args.positionals()) {
        (true, []) => FIGURES.iter().collect(),
        (false, ids @ [_, ..]) => ids.iter().map(by_id).collect(),
        _ => die(&format!("give figure ids or --all (known: {})", known())),
    }
}

/// A table column read straight off a row's digest: its header and its cell.
type Stat = (&'static str, fn(&Measurement) -> String);
const MEDIAN: Stat = ("median", |m| stat(m, Measurement::median));
const MEAN: Stat = ("mean", |m| stat(m, Measurement::mean));
const STDDEV: Stat = ("stddev", |m| stat(m, Measurement::stddev));
const P90: Stat = ("p90", |m| stat(m, Measurement::p90));
const MIN: Stat = ("min", |m| stat(m, Measurement::min));
const MAX: Stat = ("max", |m| stat(m, Measurement::max));
const RUNS: Stat = ("runs", |m| m.len().to_string());

/// The one cell formatter: two decimals, and `-` where there is nothing to show — an
/// absent value must not read as a measured 0.00.
fn cell(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), fmt2)
}

/// A digest statistic as a cell. When no run produced a sample (all of them timed
/// out) the digest's own answer is 0.0, which would read as an instant recovery.
fn stat(m: &Measurement, value: fn(&Measurement) -> f64) -> String {
    cell((!m.is_empty()).then(|| value(m)))
}

/// A table whose every column is a [`Stat`] of the row's one measurement.
fn digest_table(
    title: &str,
    stats: &[Stat],
    rows: impl IntoIterator<Item = (String, Measurement)>,
) -> Table {
    let row = |(label, m)| Row::new(label, stats.iter().map(|(_, cell)| cell(&m)).collect());
    Table {
        title: title.to_string(),
        headers: stats.iter().map(|(header, _)| *header).collect(),
        rows: rows.into_iter().map(row).collect(),
        trailer: Vec::new(),
    }
}

fn run_table8(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let row = |r: Table8Row| Row::new(r.network, vec![r.nodes.to_string(), r.diameter.to_string()]);
    Table {
        title: "Table 8 — studied networks".to_string(),
        headers: vec!["nodes", "diameter"],
        rows: table8(scale, rec).into_iter().map(row).collect(),
        trailer: Vec::new(),
    }
}

fn fig05(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 5 — bootstrap time, 3 controllers (simulated seconds)";
    let results = bootstrap_times(scale, 3, rec);
    let rows = results.into_iter().map(|r| (r.network, r.measurement));
    digest_table(title, &[MEDIAN, MEAN, STDDEV, P90, MIN, MAX, RUNS], rows)
}

fn fig06(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 6 — bootstrap time vs number of controllers (simulated seconds)";
    let results = bootstrap_vs_controllers(scale, &[1, 3, 5, 7], rec);
    let label = |r: &BootstrapResult| format!("{} ({} ctrl)", r.network, r.controllers);
    let rows = results.into_iter().map(|r| (label(&r), r.measurement));
    digest_table(title, &[MEDIAN, MEAN, MAX], rows)
}

fn fig07(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 7 — bootstrap time vs task delay, 7 controllers (simulated seconds)";
    let delays = [1000, 700, 500, 300, 100, 60, 20, 5].map(SimDuration::from_millis);
    let results = bootstrap_vs_task_delay(scale, 7, &delays, rec);
    let label = |r: &BootstrapResult| format!("{} @ {:.3}s", r.network, r.task_delay_s);
    let rows = results.into_iter().map(|r| (label(&r), r.measurement));
    digest_table(title, &[MEDIAN, MEAN], rows)
}

fn fig09(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 9 — messages per node per iteration (max-loaded controller)";
    let results = communication_overhead(scale, 3, rec);
    let rows = results
        .into_iter()
        .map(|r| (r.network, r.messages_per_node_per_iteration));
    digest_table(title, &[MEDIAN, MEAN], rows)
}

/// Figures 10–14: `controllers` deployed, one block of per-network rows per failure.
fn recovery_table(
    title: &str,
    stats: &[Stat],
    controllers: usize,
    failures: &[FailureKind],
    scale: &ExperimentScale,
    rec: &mut dyn Recorder,
) -> Table {
    let mut rows = Vec::new();
    for &failure in failures {
        // A figure that sweeps the failure count says which block a row belongs to.
        let block = match failure {
            Controllers { count } if failures.len() > 1 => format!(" ({count} failed)"),
            Links { count } if failures.len() > 1 => format!(" ({count} links)"),
            _ => String::new(),
        };
        for r in recovery_after_failure(scale, controllers, failure, rec) {
            rows.push((r.network + &block, r.measurement));
        }
    }
    digest_table(title, stats, rows)
}

fn fig10(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 10 — recovery time after one controller fail-stop (simulated seconds)";
    let failures = [Controllers { count: 1 }];
    recovery_table(title, &[MEDIAN, MEAN, MAX], 3, &failures, scale, rec)
}

fn fig11(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 11 — recovery time after multiple controller fail-stops \
                 (simulated seconds)";
    let failures = [1, 2, 4, 6].map(|count| Controllers { count });
    recovery_table(title, &[MEDIAN, MEAN], 7, &failures, scale, rec)
}

fn fig12(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 12 — recovery time after a switch fail-stop (simulated seconds)";
    recovery_table(title, &[MEDIAN, MEAN, MAX], 3, &[Switch], scale, rec)
}

fn fig13(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 13 — recovery time after a permanent link failure (simulated seconds)";
    let failures = [Links { count: 1 }];
    recovery_table(title, &[MEDIAN, MEAN, MAX], 3, &failures, scale, rec)
}

fn fig14(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 14 — recovery time after multiple permanent link failures \
                 (simulated seconds)";
    let failures = [2, 4, 6].map(|count| Links { count });
    recovery_table(title, &[MEDIAN, MEAN], 3, &failures, scale, rec)
}

/// One `<network> per-second <what>: [..]` trailer line, values rounded to
/// `1 / per_unit`.
fn series_line(network: &str, what: &str, series: &[f64], per_unit: f64) -> String {
    let round = |v: &f64| (v * per_unit).round() / per_unit;
    let rounded: Vec<f64> = series.iter().map(round).collect();
    format!("{network} per-second {what}: {rounded:?}")
}

/// Figures 15/16: mean and dip of the iperf flow plus the background population's
/// FCT, then the per-second throughput. The with-recovery figure also names the
/// removed link.
fn throughput_table(
    title: &str,
    recovery: bool,
    scale: &ExperimentScale,
    rec: &mut dyn Recorder,
) -> Table {
    let mut headers = vec!["mean", "dip", "fct p50", "fct p99"];
    headers.extend(recovery.then_some("failed link"));
    let (mut rows, mut trailer) = (Vec::new(), Vec::new());
    for r in throughput_under_failure(scale, recovery, rec) {
        let mut values = vec![
            fmt2(r.run.mean_throughput()),
            fmt2(r.run.min_throughput()),
            cell(r.fct.map(|f| f.p50_s)),
            cell(r.fct.map(|f| f.p99_s)),
        ];
        values.extend(recovery.then(|| r.failed_link.unwrap_or_default()));
        let line = series_line(&r.network, "Mbit/s", &r.run.throughput_mbps, 1.0);
        trailer.push(line);
        rows.push(Row::new(r.network, values));
    }
    Table {
        title: title.to_string(),
        headers,
        rows,
        trailer,
    }
}

fn fig15(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 15 — throughput with recovery (Mbit/s): mean, dip, background-flow FCT \
                 p50/p99 (s), failed link";
    throughput_table(title, true, scale, rec)
}

fn fig16(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 16 — throughput without recovery (Mbit/s): mean, dip, background-flow \
                 FCT p50/p99 (s)";
    throughput_table(title, false, scale, rec)
}

fn table17(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let with = throughput_under_failure(scale, true, rec);
    let without = throughput_under_failure(scale, false, rec);
    let row = |c: CorrelationRow| Row::new(c.network, vec![fmt2(c.correlation)]);
    Table {
        title: "Table 17 — correlation of throughput with vs without recovery".to_string(),
        headers: vec!["correlation"],
        rows: throughput_correlations(&with, &without, rec)
            .into_iter()
            .map(row)
            .collect(),
        trailer: Vec::new(),
    }
}

/// One per-second percentage series of an iperf run.
type Series = fn(&IperfRun) -> &Vec<f64>;

/// Figures 18–20: the peak of one series of the with-recovery run, then the series
/// itself rounded to `1 / per_unit`.
fn peak_table(
    title: &str,
    what: &str,
    series: Series,
    per_unit: f64,
    scale: &ExperimentScale,
    rec: &mut dyn Recorder,
) -> Table {
    let (mut rows, mut trailer) = (Vec::new(), Vec::new());
    for r in throughput_under_failure(scale, true, rec) {
        let peak = series(&r.run).iter().copied().fold(0.0, f64::max);
        trailer.push(series_line(&r.network, what, series(&r.run), per_unit));
        rows.push(Row::new(r.network, vec![fmt2(peak)]));
    }
    Table {
        title: title.to_string(),
        headers: vec!["peak %"],
        rows,
        trailer,
    }
}

fn fig18(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 18 — peak retransmission % (burst at the failure second)";
    let series: Series = |run| &run.retransmission_pct;
    peak_table(title, "retransmission %", series, 10.0, scale, rec)
}

fn fig19(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 19 — peak BAD-TCP % (burst at the failure second)";
    peak_table(title, "BAD TCP %", |run| &run.bad_tcp_pct, 10.0, scale, rec)
}

fn fig20(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 20 — peak out-of-order % (burst at the failure second)";
    let series: Series = |run| &run.out_of_order_pct;
    peak_table(title, "out-of-order %", series, 100.0, scale, rec)
}

fn ablation(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let row = |r: AblationResult| {
        let variant = if r.memory_adaptive { "" } else { "non-" };
        let values = vec![
            stat(&r.transient_recovery, Measurement::median),
            stat(&r.transient_recovery, Measurement::mean),
            stat(&r.total_rules_after, Measurement::mean),
        ];
        Row::new(format!("{} ({variant}adaptive)", r.network), values)
    };
    Table {
        title: "Ablation — transient-fault recovery (s) and rules after stabilization".to_string(),
        headers: vec!["median s", "mean s", "rules after"],
        rows: variant_ablation(scale, rec).into_iter().map(row).collect(),
        trailer: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_measurement_prints_a_dash_not_zero() {
        let empty = Measurement::default();
        for (header, cell) in [MEDIAN, MEAN, STDDEV, P90, MIN, MAX] {
            assert_eq!(cell(&empty), "-", "{header}");
        }
        // The run count is a count: zero runs recovered is exactly what it says.
        assert_eq!((RUNS.1)(&empty), "0");
        assert_eq!(cell(None), "-");
        assert_eq!(cell(Some(0.0)), "0.00");

        let mut m = Measurement::default();
        m.record(0.0);
        // A measured zero is still a zero.
        assert_eq!((MEDIAN.1)(&m), "0.00");
        m.record(3.0);
        assert_eq!((MEAN.1)(&m), "1.50");
        assert_eq!((MAX.1)(&m), "3.00");
        assert_eq!((RUNS.1)(&m), "2");
    }
}
