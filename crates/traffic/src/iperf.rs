//! The iperf-style throughput experiment of the paper's Section 6.4.3.
//!
//! Two hosts sit at maximal distance from each other (we attach them to the two
//! farthest-apart switches); a TCP Reno flow runs between them for 30 seconds; after 10
//! seconds a link as close to the middle of the primary path as possible fails. With
//! Renaissance running ("with recovery", Figure 15) the controllers repair the
//! kappa-fault-resilient flows using tagged updates; without recovery (Figure 16) only
//! the pre-installed backup paths carry the traffic. Either way the data plane fails
//! over locally, so the throughput only dips briefly.
//!
//! [`IperfWorkload`] exposes the model as a [`Workload`](renaissance::scenario::Workload)
//! for the declarative scenario API: the runner drives the ticks, the mid-path failure
//! is a [`FaultEvent`](renaissance::scenario::FaultEvent) on the schedule, and the
//! "without recovery" mode is the scenario's
//! [`ControlPlane::Frozen`](renaissance::scenario::ControlPlane::Frozen).

use crate::reno::{PathEvent, RenoConfig, RenoConnection, StepOutcome};
use renaissance::scenario::{Endpoints, Workload, WorkloadReport, WorkloadTick};
use renaissance::{legitimacy, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_topology::NodeId;

/// Result of one throughput run: per-second series, exactly the quantities the
/// paper plots in Figures 15, 16, 18, 19, and 20.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IperfRun {
    /// The two endpoints the flow ran between.
    pub endpoints: (NodeId, NodeId),
    /// Per-second goodput in Mbit/s.
    pub throughput_mbps: Vec<f64>,
    /// Per-second retransmission percentage.
    pub retransmission_pct: Vec<f64>,
    /// Per-second BAD-TCP percentage.
    pub bad_tcp_pct: Vec<f64>,
    /// Per-second out-of-order percentage.
    pub out_of_order_pct: Vec<f64>,
    /// Per-second hop count of the path in use (useful for debugging / the examples).
    pub path_hops: Vec<usize>,
}

impl IperfRun {
    /// Average goodput over the whole run.
    pub fn mean_throughput(&self) -> f64 {
        if self.throughput_mbps.is_empty() {
            return 0.0;
        }
        self.throughput_mbps.iter().sum::<f64>() / self.throughput_mbps.len() as f64
    }

    /// The lowest per-second goodput (the failure dip).
    pub fn min_throughput(&self) -> f64 {
        self.throughput_mbps
            .iter()
            .copied()
            .fold(f64::MAX, f64::min)
    }
}

/// The per-tick core of the iperf experiment: observes the in-band data-plane path,
/// steps the Reno model, and accumulates the per-second series.
#[derive(Clone, Debug)]
struct IperfFlow {
    reno: RenoConnection,
    previous_path: Option<Vec<NodeId>>,
    run: IperfRun,
}

impl IperfFlow {
    fn new(sdn: &SdnNetwork, src: NodeId, dst: NodeId) -> Self {
        IperfFlow {
            reno: RenoConnection::new(RenoConfig::default()),
            previous_path: current_path(sdn, src, dst),
            run: IperfRun {
                endpoints: (src, dst),
                ..IperfRun::default()
            },
        }
    }

    /// Observes one second of the flow against the current network state.
    fn observe_second(&mut self, sdn: &SdnNetwork) {
        let (src, dst) = self.run.endpoints;
        let path = current_path(sdn, src, dst);
        let event = match (&self.previous_path, &path) {
            (_, None) => PathEvent::Unavailable,
            (None, Some(_)) => PathEvent::Rerouted,
            (Some(old), Some(new)) if old != new => PathEvent::Rerouted,
            _ => PathEvent::Stable,
        };
        let hops = path
            .as_ref()
            .map(|p| p.len().saturating_sub(1))
            .unwrap_or(0);
        let outcome: StepOutcome = self.reno.step(1.0, hops.max(1), event);
        self.run.throughput_mbps.push(outcome.throughput_mbps);
        self.run
            .retransmission_pct
            .push(outcome.retransmission_pct());
        self.run.bad_tcp_pct.push(outcome.bad_tcp_pct());
        self.run.out_of_order_pct.push(outcome.out_of_order_pct());
        self.run.path_hops.push(hops);
        self.previous_path = path;
    }
}

/// The data-plane path currently taken by packets from `src` to `dst`, or `None`.
fn current_path(sdn: &SdnNetwork, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let operational = sdn.sim().operational_graph();
    legitimacy::route_in_band(sdn, operational, src, dst)
}

/// The iperf experiment as a scenario [`Workload`].
///
/// The workload only models the TCP flow; inject the paper's mid-path link failure via
/// the scenario's fault schedule, e.g.
/// `FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches))` at
/// second 10, and select Figure 16's "without recovery" mode with
/// [`ControlPlane::Frozen`](renaissance::scenario::ControlPlane::Frozen).
///
/// # Example
///
/// ```
/// use renaissance::scenario::{Endpoints, FaultEvent, LinkSelector, Scenario};
/// use sdn_netsim::SimDuration;
/// use sdn_traffic::iperf::IperfWorkload;
///
/// let report = Scenario::builder("throughput-under-failure")
///     .network("B4")
///     .task_delay(SimDuration::from_millis(200))
///     .workload(|| Box::new(IperfWorkload::farthest(12)))
///     .fault_at(
///         SimDuration::from_secs(5),
///         FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
///     )
///     .run();
/// let run = &report.runs[0];
/// let iperf = run.workload("iperf").expect("workload report");
/// assert_eq!(iperf.series("throughput_mbps").unwrap().len(), 12);
/// ```
#[derive(Debug)]
pub struct IperfWorkload {
    endpoints: Endpoints,
    duration_secs: u32,
    flow: Option<IperfFlow>,
}

impl IperfWorkload {
    /// A flow between the two farthest-apart switches, running for `duration_secs`.
    pub fn farthest(duration_secs: u32) -> Self {
        IperfWorkload {
            endpoints: Endpoints::FarthestSwitches,
            duration_secs,
            flow: None,
        }
    }

    /// A flow between two explicit switches, running for `duration_secs`.
    pub fn between(src: NodeId, dst: NodeId, duration_secs: u32) -> Self {
        IperfWorkload {
            endpoints: Endpoints::Nodes(src, dst),
            duration_secs,
            flow: None,
        }
    }

    /// Reconstructs a typed [`IperfRun`] from a workload report produced by this
    /// workload (the scenario report stores series generically).
    pub fn run_from_report(report: &WorkloadReport) -> Option<IperfRun> {
        let parse = |key: &str| -> Option<NodeId> {
            report.note(key)?.parse::<u32>().ok().map(NodeId::new)
        };
        Some(IperfRun {
            endpoints: (parse("src")?, parse("dst")?),
            throughput_mbps: report.series("throughput_mbps")?.to_vec(),
            retransmission_pct: report.series("retransmission_pct")?.to_vec(),
            bad_tcp_pct: report.series("bad_tcp_pct")?.to_vec(),
            out_of_order_pct: report.series("out_of_order_pct")?.to_vec(),
            path_hops: report
                .series("path_hops")?
                .iter()
                .map(|&h| h as usize)
                .collect(),
        })
    }
}

impl Workload for IperfWorkload {
    fn label(&self) -> String {
        "iperf".to_string()
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_secs as u64)
    }

    fn start(&mut self, net: &mut SdnNetwork) {
        let (src, dst) = self
            .endpoints
            .resolve(net)
            // stancheck: allow(unwrap-expect) — scenario configuration error: failing loudly at workload start beats silently simulating a run with no traffic
            .expect("iperf workload endpoints must resolve");
        self.flow = Some(IperfFlow::new(net, src, dst));
    }

    fn tick(&mut self, net: &mut SdnNetwork, _tick: WorkloadTick) {
        self.flow
            .as_mut()
            // stancheck: allow(unwrap-expect) — Workload trait contract: the ScenarioRunner always calls start() before the first tick()
            .expect("tick before start")
            .observe_second(net);
    }

    fn finish(&mut self, _net: &mut SdnNetwork) -> WorkloadReport {
        // stancheck: allow(unwrap-expect) — Workload trait contract: finish() only runs after start() on the same agenda
        let flow = self.flow.take().expect("finish before start");
        let run = flow.run;
        let mut report = WorkloadReport::new(self.label());
        report.push_note("src", run.endpoints.0.index().to_string());
        report.push_note("dst", run.endpoints.1.index().to_string());
        report.push_series("throughput_mbps", run.throughput_mbps);
        report.push_series("retransmission_pct", run.retransmission_pct);
        report.push_series("bad_tcp_pct", run.bad_tcp_pct);
        report.push_series("out_of_order_pct", run.out_of_order_pct);
        report.push_series(
            "path_hops",
            run.path_hops.iter().map(|&h| h as f64).collect(),
        );
        report
    }
}

/// Pearson correlation between the throughput curves of two runs, the statistic the
/// paper reports in Table 17 (values of 0.92–0.96 across networks).
pub fn throughput_correlation(
    with_recovery: &IperfRun,
    without_recovery: &IperfRun,
) -> Option<f64> {
    pearson_correlation(
        &with_recovery.throughput_mbps,
        &without_recovery.throughput_mbps,
    )
}

/// Pearson correlation coefficient of two equally long value sequences: `None` when
/// the sequences have different lengths, fewer than two points, or zero variance.
fn pearson_correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return None;
    }
    Some(cov / (var_a.sqrt() * var_b.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaissance::scenario::{ControlPlane, FaultEvent, LinkSelector, Scenario};

    fn throughput_scenario(mode: ControlPlane) -> Scenario {
        Scenario::builder("throughput")
            .network("B4")
            .task_delay(SimDuration::from_millis(200))
            .seeds_from(5)
            .workload(|| Box::new(IperfWorkload::farthest(16)))
            .fault_at(
                SimDuration::from_secs(6),
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            )
            .control_plane(mode)
            .build()
    }

    #[test]
    fn workload_reproduces_the_figure15_shape_through_the_scenario_api() {
        let report = throughput_scenario(ControlPlane::Live).run();
        let run = &report.runs[0];
        assert!(run
            .injected
            .iter()
            .any(|f| f.description.contains("remove link")));
        let iperf = run.workload("iperf").expect("iperf report");
        let typed = IperfWorkload::run_from_report(iperf).expect("typed run");
        assert_eq!(typed.throughput_mbps.len(), 16);
        let before = typed.throughput_mbps[5];
        let after = *typed.throughput_mbps.last().unwrap();
        assert!(before > 200.0, "pre-failure throughput {before}");
        assert!(after > before * 0.8, "after {after} vs before {before}");
        let burst = typed.retransmission_pct[6..=8]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(burst > 0.0, "failure must cause retransmissions");
    }

    #[test]
    fn frozen_control_plane_reproduces_the_figure16_mode() {
        let report = throughput_scenario(ControlPlane::Frozen).run();
        let run = &report.runs[0];
        let iperf = run.workload("iperf").expect("iperf report");
        let typed = IperfWorkload::run_from_report(iperf).expect("typed run");
        // The flow survives on pre-installed backup paths alone.
        let after = *typed.throughput_mbps.last().unwrap();
        assert!(
            after > 100.0,
            "backup paths must carry the flow, got {after}"
        );
        // And the control plane really did nothing: no recovery records.
        assert!(run.recoveries.is_empty());
    }

    #[test]
    fn correlation_of_similar_runs_is_high() {
        let run_with = |values: Vec<f64>| IperfRun {
            throughput_mbps: values,
            ..IperfRun::default()
        };
        let a = run_with(vec![500.0, 505.0, 480.0, 500.0, 502.0]);
        let b = run_with(vec![501.0, 506.0, 482.0, 499.0, 503.0]);
        let r = throughput_correlation(&a, &b).unwrap();
        assert!(r > 0.9, "correlation {r}");
    }

    #[test]
    fn correlation_edge_cases() {
        assert_eq!(pearson_correlation(&[1.0], &[1.0]), None);
        assert_eq!(pearson_correlation(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson_correlation(&[1.0, 1.0], &[1.0, 2.0]), None);
        let same = pearson_correlation(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((same - 1.0).abs() < 1e-9);
        let anti = pearson_correlation(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]).unwrap();
        assert!((anti + 1.0).abs() < 1e-9);
    }
}
