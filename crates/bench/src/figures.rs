//! The figure registry behind `renaissance-fig`: every table and figure of the paper's
//! evaluation (Section 6) is one [`Figure`] entry — id, one-liner, default network
//! subset, and a runner that builds the figure's scenarios on the shared
//! [`experiment`] skeleton, streams every per-run sample to the [`Recorder`] and lays
//! the [`ScenarioReport`](renaissance::scenario::ScenarioReport)s out as a [`Table`].
//! The binary's `--help`, the README table and the committed `BENCH_figures.txt`
//! golden are all read off [`FIGURES`], in its order.

use crate::cli::{die, CliArgs, Flag};
use crate::experiments::{
    experiment, ExperimentScale, BAD_TCP, CORRELATION, OUT_OF_ORDER, OVERHEAD,
};
use crate::report::{fmt2, Row, Table};
use renaissance::scenario::{
    ControlPlane, ControllerSelector, Endpoints, FaultEvent, LinkSelector, RunReport,
    SwitchSelector,
};
use renaissance::{ControllerConfig, SdnNetwork};
use sdn_metrics::{Digest, MetricKey, Namespace, Recorder};
use sdn_netsim::SimDuration;
use sdn_topology::{builders, paths};
use sdn_traffic::engine::{FlowEngineWorkload, FlowSetConfig};
use sdn_traffic::iperf::{IperfRun, IperfWorkload};
use sdn_traffic::throughput_correlation;
use Failure::{Controllers, Links, Switch};

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
        run: table8,
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
type Stat = (&'static str, fn(&Digest) -> String);
const MEDIAN: Stat = ("median", |m| stat(m, Digest::median));
const MEAN: Stat = ("mean", |m| stat(m, Digest::mean));
const STDDEV: Stat = ("stddev", |m| stat(m, Digest::stddev));
const P90: Stat = ("p90", |m| stat(m, Digest::p90));
const MIN: Stat = ("min", |m| stat(m, Digest::min));
const MAX: Stat = ("max", |m| stat(m, Digest::max));
const RUNS: Stat = ("runs", |m| m.len().to_string());

/// The one cell formatter: two decimals, and `-` where there is nothing to show — an
/// absent value must not read as a measured 0.00.
fn cell(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), fmt2)
}

/// A digest statistic as a cell. When no run produced a sample (all of them timed
/// out) the digest's own answer is 0.0, which would read as an instant recovery.
fn stat(m: &Digest, value: fn(&Digest) -> f64) -> String {
    cell((!m.is_empty()).then(|| value(m)))
}

/// A table whose every column is a [`Stat`] of the row's one digest.
fn digest_table(title: &str, stats: &[Stat], rows: Vec<(String, Digest)>) -> Table {
    let row = |(label, m)| Row::new(label, stats.iter().map(|(_, cell)| cell(&m)).collect());
    Table {
        title: title.to_string(),
        headers: stats.iter().map(|(header, _)| *header).collect(),
        rows: rows.into_iter().map(row).collect(),
        trailer: Vec::new(),
    }
}

/// Streams every sample to the recorder under `scope` and digests them: one row of a
/// [`digest_table`].
fn record_all(
    rec: &mut dyn Recorder,
    scope: &str,
    key: &MetricKey,
    samples: impl IntoIterator<Item = f64>,
) -> Digest {
    let mut digest = Digest::default();
    for value in samples {
        rec.record(scope, key, value);
        digest.record(value);
    }
    digest
}

fn table8(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let switches = MetricKey::custom(Namespace::Bench, "switches");
    let diameter = MetricKey::custom(Namespace::Bench, "diameter");
    let mut rows = Vec::new();
    for name in &scale.networks {
        let net = builders::by_name(name, 3);
        let (nodes, d) = (net.switch_count(), paths::diameter(&net.switch_graph));
        rec.record(name, &switches, nodes as f64);
        rec.record(name, &diameter, d as f64);
        let values = vec![nodes.to_string(), d.to_string()];
        rows.push(Row::new(name.clone(), values));
    }
    Table {
        title: "Table 8 — studied networks".to_string(),
        headers: vec!["nodes", "diameter"],
        rows,
        trailer: Vec::new(),
    }
}

/// Figures 5–7: bootstrap times of `controllers` controllers at `task_delay`, from the
/// empty configuration to the first legitimate state.
fn bootstrap(
    scale: &ExperimentScale,
    name: &str,
    controllers: usize,
    task_delay: SimDuration,
    rec: &mut dyn Recorder,
) -> Digest {
    let report = experiment(scale, "bootstrap", name, controllers, task_delay)
        .runs(scale.runs)
        .seeds_from(scale.seed_or(100))
        .run();
    let ms = task_delay.as_secs_f64() * 1e3;
    let scope = format!("{name}/c={controllers}/task={ms:.0}ms");
    let samples = report.runs.iter().filter_map(|run| run.bootstrap_s);
    record_all(rec, &scope, &MetricKey::BOOTSTRAP_TIME, samples)
}

fn fig05(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 5 — bootstrap time, 3 controllers (simulated seconds)";
    let mut rows = Vec::new();
    for name in &scale.networks {
        let digest = bootstrap(scale, name, 3, scale.task_delay, rec);
        rows.push((name.clone(), digest));
    }
    digest_table(title, &[MEDIAN, MEAN, STDDEV, P90, MIN, MAX, RUNS], rows)
}

fn fig06(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 6 — bootstrap time vs number of controllers (simulated seconds)";
    let mut rows = Vec::new();
    for name in &scale.networks {
        for controllers in [1, 3, 5, 7] {
            let digest = bootstrap(scale, name, controllers, scale.task_delay, rec);
            rows.push((format!("{name} ({controllers} ctrl)"), digest));
        }
    }
    digest_table(title, &[MEDIAN, MEAN, MAX], rows)
}

fn fig07(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 7 — bootstrap time vs task delay, 7 controllers (simulated seconds)";
    let mut rows = Vec::new();
    for name in &scale.networks {
        for delay in [1000, 700, 500, 300, 100, 60, 20, 5].map(SimDuration::from_millis) {
            let label = format!("{name} @ {:.3}s", delay.as_secs_f64());
            rows.push((label, bootstrap(scale, name, 7, delay, rec)));
        }
    }
    digest_table(title, &[MEDIAN, MEAN], rows)
}

/// The Figure 9 observable over a converged network: messages sent by the most loaded
/// controller, divided by the do-forever iterations it needed and by the node count.
fn overhead_per_node_per_iteration(net: &SdnNetwork) -> f64 {
    let nodes = net.topology().node_count() as f64;
    let live = net.live_controller_ids();
    let Some((max_ctrl, sent)) = net.metrics().max_sender_among(live.iter().copied()) else {
        return 0.0;
    };
    let iterations = net
        .controller(max_ctrl)
        .map(|c| c.stats().iterations.max(1))
        .unwrap_or(1) as f64;
    sent as f64 / iterations / nodes
}

fn fig09(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let title = "Figure 9 — messages per node per iteration (max-loaded controller)";
    let mut rows = Vec::new();
    for name in &scale.networks {
        let report = experiment(scale, "comm-overhead", name, 3, scale.task_delay)
            .runs(scale.runs)
            .seeds_from(scale.seed_or(300))
            .summary(OVERHEAD, overhead_per_node_per_iteration)
            .run();
        let converged = report.runs.iter().filter(|run| run.bootstrap_s.is_some());
        let samples = converged.filter_map(|run| run.metric(&OVERHEAD));
        let scope = format!("{name}/c=3");
        rows.push((name.clone(), record_all(rec, &scope, &OVERHEAD, samples)));
    }
    digest_table(title, &[MEDIAN, MEAN], rows)
}

/// The benign failures of Figures 10–14, injected into an already-legitimate network.
#[derive(Clone, Copy)]
enum Failure {
    /// Fail-stop of `count` random controllers (Figures 10 and 11).
    Controllers { count: usize },
    /// Fail-stop of one random switch (Figure 12).
    Switch,
    /// Permanent removal of `count` random links that keep the network connected
    /// (Figures 13 and 14).
    Links { count: usize },
}

impl Failure {
    fn event(self) -> FaultEvent {
        match self {
            Controllers { count } => {
                FaultEvent::FailController(ControllerSelector::Random { count })
            }
            Switch => FaultEvent::FailSwitch(SwitchSelector::Random),
            Links { count } => FaultEvent::RemoveLink(LinkSelector::RandomSafe { count }),
        }
    }

    /// The failure's part of the `--out` scope.
    fn scope(self) -> String {
        match self {
            Controllers { count } => format!("controllers({count})"),
            Switch => "switch".to_string(),
            Links { count } => format!("links({count})"),
        }
    }
}

/// Figures 10–14: `controllers` deployed, one block of per-network rows per failure.
fn recovery_table(
    title: &str,
    stats: &[Stat],
    controllers: usize,
    failures: &[Failure],
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
        for name in &scale.networks {
            let report = experiment(scale, "recovery", name, controllers, scale.task_delay)
                .runs(scale.runs)
                .seeds_from(scale.seed_or(700))
                .fault_at(SimDuration::ZERO, failure.event())
                .run();
            let scope = format!("{name}/c={controllers}/{}", failure.scope());
            let recoveries = report.runs.iter().flat_map(|run| &run.recoveries);
            let samples = recoveries.filter_map(|r| r.recovered_in_s);
            let digest = record_all(rec, &scope, &MetricKey::RECOVERY_TIME, samples);
            rows.push((format!("{name}{block}"), digest));
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

/// Flow-population size of the background flow engine the throughput figures run
/// beside the iperf flow. Small enough to keep the figures fast; large enough for
/// stable FCT quantiles.
const FIGURE_FLOW_PAIRS: u32 = 10_000;

/// The seed-42 throughput run behind fig15, fig16, table17 and fig18–fig20: per-second
/// TCP throughput with a mid-path link failure at second 10, with (`recovery = true`)
/// or without (`recovery = false`) controller-driven repair. Returns every network
/// that bootstrapped, with its iperf series and its run.
///
/// Beside the single mechanistic iperf flow, the heavy-traffic flow engine runs a
/// 10k-flow background population on the same agenda (both workloads tick at one
/// simulated second, and workloads observe the simulator without perturbing it — so
/// the iperf series are bit-identical to a run without the population). Every
/// per-second sample streams through the recorder, then the population's FCT
/// `fct_p50_s` / `fct_p99_s`.
pub(crate) fn throughput_runs<'a>(
    scale: &'a ExperimentScale,
    recovery: bool,
    rec: &mut dyn Recorder,
) -> Vec<(&'a str, IperfRun, RunReport)> {
    let mut out = Vec::new();
    for name in &scale.networks {
        let mut report = experiment(scale, "throughput", name, 3, scale.task_delay)
            .seeds_from(scale.seed_or(42))
            .workload(|| Box::new(IperfWorkload::farthest(30)))
            .workload(|| {
                Box::new(FlowEngineWorkload::new(
                    FlowSetConfig::stress(FIGURE_FLOW_PAIRS),
                    30,
                ))
            })
            .fault_at(
                SimDuration::from_secs(10),
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            )
            .control_plane(if recovery {
                ControlPlane::Live
            } else {
                ControlPlane::Frozen
            })
            .run();
        let run = report.runs.swap_remove(0);
        let iperf = run.workload("iperf").filter(|_| run.bootstrap_s.is_some());
        let Some(iperf) = iperf.and_then(IperfWorkload::run_from_report) else {
            continue;
        };
        let arm = if recovery { "with" } else { "no" };
        let scope = format!("{name}/{arm}-recovery");
        for (key, series) in [
            (&MetricKey::THROUGHPUT, &iperf.throughput_mbps),
            (&MetricKey::RETRANSMISSIONS, &iperf.retransmission_pct),
            (&BAD_TCP, &iperf.bad_tcp_pct),
            (&OUT_OF_ORDER, &iperf.out_of_order_pct),
        ] {
            for &value in series {
                rec.record(&scope, key, value);
            }
        }
        if let Some(fct) = fct(&run) {
            rec.record(&scope, &MetricKey::FCT_P50, fct.p50());
            rec.record(&scope, &MetricKey::FCT_P99, fct.p99());
        }
        out.push((name.as_str(), iperf, run));
    }
    out
}

/// The completion times of a run's flow-engine population, if it completed
/// any flow.
pub(crate) fn fct(run: &RunReport) -> Option<&Digest> {
    let engine = run.workload("flow_engine")?;
    engine.digest("fct_s").filter(|d| !d.is_empty())
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
    for (network, iperf, run) in throughput_runs(scale, recovery, rec) {
        let fct = fct(&run);
        let mut values = vec![
            fmt2(iperf.mean_throughput()),
            fmt2(iperf.min_throughput()),
            cell(fct.map(Digest::p50)),
            cell(fct.map(Digest::p99)),
        ];
        let failed_link = run.injected.first().map(|f| f.description.clone());
        values.extend(recovery.then(|| failed_link.unwrap_or_default()));
        trailer.push(series_line(network, "Mbit/s", &iperf.throughput_mbps, 1.0));
        rows.push(Row::new(network, values));
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
    let with = throughput_runs(scale, true, rec);
    let without = throughput_runs(scale, false, rec);
    let mut rows = Vec::new();
    for (network, live, _) in &with {
        let frozen = without.iter().find(|(n, ..)| n == network);
        if let Some(correlation) = frozen.and_then(|(_, f, _)| throughput_correlation(live, f)) {
            rec.record(network, &CORRELATION, correlation);
            rows.push(Row::new(*network, vec![fmt2(correlation)]));
        }
    }
    Table {
        title: "Table 17 — correlation of throughput with vs without recovery".to_string(),
        headers: vec!["correlation"],
        rows,
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
    for (network, iperf, _) in throughput_runs(scale, true, rec) {
        let peak = series(&iperf).iter().copied().fold(0.0, f64::max);
        trailer.push(series_line(network, what, series(&iperf), per_unit));
        rows.push(Row::new(network, vec![fmt2(peak)]));
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

/// The main memory-adaptive algorithm against the Section 8.1 non-adaptive variant:
/// recovery time from heavy transient corruption and the rules installed afterwards.
fn ablation(scale: &ExperimentScale, rec: &mut dyn Recorder) -> Table {
    let mut rows = Vec::new();
    for name in &scale.networks {
        for adaptive in [true, false] {
            let mut builder = experiment(scale, "variant-ablation", name, 3, scale.task_delay)
                .runs(scale.runs)
                .seeds_from(scale.seed_or(900))
                .fault_at(SimDuration::ZERO, FaultEvent::CorruptState)
                .summary(MetricKey::TOTAL_RULES, |net| net.total_rules() as f64);
            if !adaptive {
                builder = builder.tune_controllers(ControllerConfig::non_adaptive);
            }
            let report = builder.run();
            let variant = if adaptive { "adaptive" } else { "non-adaptive" };
            let scope = format!("{name}/{variant}");
            let (mut recovery, mut rules_after) = (Digest::default(), Digest::default());
            for run in &report.runs {
                if let Some(seconds) = run.first_recovery_s() {
                    rec.record(&scope, &MetricKey::RECOVERY_TIME, seconds);
                    recovery.record(seconds);
                    if let Some(rules) = run.metric(&MetricKey::TOTAL_RULES) {
                        rec.record(&scope, &MetricKey::TOTAL_RULES, rules);
                        rules_after.record(rules);
                    }
                }
            }
            let values = vec![
                stat(&recovery, Digest::median),
                stat(&recovery, Digest::mean),
                stat(&rules_after, Digest::mean),
            ];
            rows.push(Row::new(format!("{name} ({variant})"), values));
        }
    }
    Table {
        title: "Ablation — transient-fault recovery (s) and rules after stabilization".to_string(),
        headers: vec!["median s", "mean s", "rules after"],
        rows,
        trailer: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_measurement_prints_a_dash_not_zero() {
        let empty = Digest::default();
        for (header, cell) in [MEDIAN, MEAN, STDDEV, P90, MIN, MAX] {
            assert_eq!(cell(&empty), "-", "{header}");
        }
        // The run count is a count: zero runs recovered is exactly what it says.
        assert_eq!((RUNS.1)(&empty), "0");
        assert_eq!(cell(None), "-");
        assert_eq!(cell(Some(0.0)), "0.00");

        let mut m = Digest::default();
        m.record(0.0);
        // A measured zero is still a zero.
        assert_eq!((MEDIAN.1)(&m), "0.00");
        m.record(3.0);
        assert_eq!((MEAN.1)(&m), "1.50");
        assert_eq!((MAX.1)(&m), "3.00");
        assert_eq!((RUNS.1)(&m), "2");
    }
}
