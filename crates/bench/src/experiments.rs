//! What the figures and the scale campaign share: the [`ExperimentScale`] their flags
//! set, the [`experiment`] scenario skeleton both measure with, and the metric keys of
//! the figure-only observables.
//!
//! Each figure's scenario, the samples it streams to the [`Recorder`](sdn_metrics::Recorder)
//! and the table it prints live together in one runner of the [`crate::figures`]
//! registry. An experiment is a declarative [`Scenario`]: topology + fault schedule +
//! workloads + probes, executed by the event-driven scenario runner.

use crate::cli::die;
use renaissance::scenario::{Scenario, ScenarioBuilder};
use sdn_metrics::{MetricKey, Namespace, Unit};
use sdn_netsim::SimDuration;
use sdn_topology::builders;
use std::num::{NonZeroU64, NonZeroUsize};

/// The Figure 9 communication-overhead metric: messages per node per do-forever
/// iteration of the maximum-loaded controller.
pub const OVERHEAD: MetricKey = MetricKey::named(
    Namespace::Scenario,
    "overhead_msgs_per_node_per_iter",
    Unit::Count,
);

/// The per-second BAD-TCP flag percentage of the iperf workload (Figure 19).
pub const BAD_TCP: MetricKey = MetricKey::named(Namespace::Workload, "bad_tcp_pct", Unit::Percent);

/// The per-second out-of-order packet percentage of the iperf workload (Figure 20).
pub const OUT_OF_ORDER: MetricKey =
    MetricKey::named(Namespace::Workload, "out_of_order_pct", Unit::Percent);

/// The with/without-recovery throughput correlation of Table 17.
pub const CORRELATION: MetricKey =
    MetricKey::named(Namespace::Bench, "throughput_correlation", Unit::Ratio);

/// Global scale knobs shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// Repetitions per configuration (different seeds). The paper used 20.
    pub runs: usize,
    /// Which networks to include: paper names or generator names such as
    /// `fat_tree(8)`, `jellyfish(100, 4, 7)`, `grid(10, 12)`.
    pub networks: Vec<String>,
    /// Controller do-forever-loop delay (the paper's default is 500 ms).
    pub task_delay: SimDuration,
    /// Base-seed override; `None` keeps each experiment's documented default seed.
    pub seed: Option<u64>,
    /// Scenario-runner worker threads; `None` lets the runner use all cores.
    pub threads: Option<usize>,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            runs: 3,
            networks: builders::PAPER_NETWORK_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            task_delay: SimDuration::from_millis(500),
            seed: None,
            threads: None,
        }
    }
}

impl ExperimentScale {
    /// Applies parsed command-line arguments (see [`crate::cli`]) on top of this scale.
    ///
    /// Exits the process with `error: ...` (status 2) on a zero `--runs`, `--threads` or
    /// `--task-delay-ms` and on a `--networks` entry no builder knows, so a typo fails
    /// before the first run starts rather than minutes in.
    pub fn with_args(mut self, args: &crate::cli::CliArgs) -> Self {
        if let Some(runs) = args.parsed::<NonZeroUsize>("--runs") {
            self.runs = runs.get();
        }
        if let Some(seed) = args.parsed::<u64>("--seed") {
            self.seed = Some(seed);
        }
        if let Some(networks) = args.value("--networks") {
            self.networks = split_network_list(networks);
            if self.networks.is_empty() {
                die(&format!("invalid value '{networks}' for --networks"));
            }
            if let Some(name) = self.networks.iter().find(|n| builders::family(n).is_none()) {
                die(&format!(
                    "unknown network '{name}': expected one of {:?} or a generator name like \
                     {:?}",
                    builders::PAPER_NETWORK_NAMES,
                    builders::GENERATOR_FAMILY_NAMES
                ));
            }
        }
        if let Some(ms) = args.parsed::<NonZeroU64>("--task-delay-ms") {
            self.task_delay = SimDuration::from_millis(ms.get());
        }
        if let Some(threads) = args.parsed::<NonZeroUsize>("--threads") {
            self.threads = Some(threads.get());
        }
        self
    }

    /// The base seed to use: the `--seed` override if one was given, otherwise the
    /// experiment's documented default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// Splits a comma-separated network list, keeping commas inside parentheses: the
/// generator names (`jellyfish(100, 4, 7)`, `grid(10, 12)`) use commas for their own
/// arguments, so `"grid(4,4),B4"` is two entries, not three.
pub fn split_network_list(raw: &str) -> Vec<String> {
    let mut list = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in raw.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                list.push(std::mem::take(&mut current));
            }
            c => current.push(c),
        }
    }
    list.push(current);
    list.into_iter()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The shared scenario skeleton of every experiment: a network, the scale's task
/// delay and thread count, and the builder's default timeout and measurement
/// resolution.
/// Public so the scale campaign measures with exactly the same skeleton as the
/// figures.
pub fn experiment(
    scale: &ExperimentScale,
    name: &str,
    network: &str,
    controllers: usize,
    task_delay: SimDuration,
) -> ScenarioBuilder {
    let mut builder = Scenario::builder(name)
        .network(network)
        .controllers(controllers)
        .task_delay(task_delay);
    if let Some(threads) = scale.threads {
        builder = builder.threads(threads);
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{self, FIGURES};
    use renaissance::scenario::{Endpoints, FaultEvent, LinkSelector};
    use sdn_metrics::MemorySink;
    use sdn_traffic::iperf::IperfWorkload;

    #[test]
    fn table8_matches_paper() {
        let mut sink = MemorySink::default();
        let table8 = FIGURES.iter().find(|f| f.id == "table8").unwrap();
        let rows = (table8.run)(&ExperimentScale::default(), &mut sink).rows;
        // The typed pipeline saw every row.
        assert_eq!(
            sink.digest("B4", &MetricKey::custom(Namespace::Bench, "switches"))
                .unwrap()
                .mean(),
            12.0
        );
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].label, "B4");
        assert_eq!(rows[0].values, ["12", "5"]);
        assert_eq!(rows[4].label, "EBONE");
        assert_eq!(rows[4].values, ["208", "11"]);
    }

    #[test]
    fn network_list_splitting_respects_parentheses() {
        assert_eq!(
            split_network_list("grid(4,4),fat_tree(8), B4 ,jellyfish(20, 3, 1)"),
            vec!["grid(4,4)", "fat_tree(8)", "B4", "jellyfish(20, 3, 1)"]
        );
        assert_eq!(split_network_list("B4,Clos"), vec!["B4", "Clos"]);
        assert_eq!(split_network_list(" , "), Vec::<String>::new());
    }

    #[test]
    fn scale_defaults() {
        let scale = ExperimentScale::default();
        assert_eq!(scale.runs, 3);
        assert_eq!(scale.networks.len(), 5);
        assert_eq!(scale.task_delay, SimDuration::from_millis(500));
    }

    #[test]
    fn background_flow_engine_leaves_iperf_numbers_unchanged() {
        let scale = ExperimentScale {
            runs: 1,
            networks: vec!["B4".to_string()],
            task_delay: SimDuration::from_millis(200),
            ..ExperimentScale::default()
        };
        let mut sink = MemorySink::default();
        let with_flows = figures::throughput_runs(&scale, true, &mut sink);
        assert_eq!(with_flows.len(), 1);
        let (_, with_flows, report) = &with_flows[0];
        let fct = figures::fct(report).expect("the background population must complete flows");
        assert!(fct.count() > 0);
        assert!(fct.p50() > 0.0 && fct.p50() <= fct.p99());
        assert!(sink
            .digest("B4/with-recovery", &MetricKey::FCT_P50)
            .is_some());

        // The identical scenario minus the background population: the legacy iperf
        // series must be bit-for-bit what the figure's run reports, because workloads
        // observe the simulator without perturbing it.
        let report = experiment(&scale, "throughput", "B4", 3, scale.task_delay)
            .seeds_from(scale.seed_or(42))
            .workload(|| Box::new(IperfWorkload::farthest(30)))
            .fault_at(
                SimDuration::from_secs(10),
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            )
            .run();
        let iperf = report.runs[0].workload("iperf").expect("iperf report");
        let legacy = IperfWorkload::run_from_report(iperf).expect("typed run");
        assert_eq!(legacy.throughput_mbps, with_flows.throughput_mbps);
        assert_eq!(legacy.retransmission_pct, with_flows.retransmission_pct);
        assert_eq!(legacy.bad_tcp_pct, with_flows.bad_tcp_pct);
        assert_eq!(legacy.path_hops, with_flows.path_hops);
    }
}
