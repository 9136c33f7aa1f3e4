//! Result types produced by the [`ScenarioRunner`](super::ScenarioRunner): per-run
//! records and typed multi-seed aggregation into [`Digest`]s.

use super::probe::ProbeSeries;
use super::workload::WorkloadReport;
use sdn_metrics::{Digest, MetricKey};

/// One fault event as actually injected during a run (selectors resolved to concrete
/// victims).
#[derive(Clone, Debug, PartialEq)]
pub struct InjectedFault {
    /// Offset from the bootstrap instant, in simulated seconds.
    pub at_s: f64,
    /// Human-readable description of the resolved event, e.g. `"fail-stop controller 1"`.
    pub description: String,
}

/// Convergence measurement for one fault batch: how long the network took to return to
/// a legitimate state after the batch fired.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRecord {
    /// Offset of the fault batch from the bootstrap instant, in simulated seconds.
    pub fault_at_s: f64,
    /// Time from the batch to the next legitimate state, in simulated seconds — `None`
    /// when the scenario timeout expired (or another batch fired) first.
    pub recovered_in_s: Option<f64>,
}

/// Everything observed during one seeded execution of a scenario.
///
/// `PartialEq` is part of the public contract: the parallel runner's determinism test
/// compares whole reports for bit-identity across worker-thread counts.
#[derive(Debug, Default, PartialEq)]
pub struct RunReport {
    /// The harness seed this run used.
    pub seed: u64,
    /// Time from the initial (empty-configuration) state to the first legitimate state,
    /// in simulated seconds — `None` when the bootstrap timed out.
    pub bootstrap_s: Option<f64>,
    /// One record per fault batch, in schedule order.
    pub recoveries: Vec<RecoveryRecord>,
    /// The concrete faults injected (selectors resolved).
    pub injected: Vec<InjectedFault>,
    /// Sampled probe time series.
    pub probes: Vec<ProbeSeries>,
    /// Reports of the attached workloads, in attachment order.
    pub workloads: Vec<WorkloadReport>,
    /// End-of-run summary statistics, typed by [`MetricKey`], in attachment order.
    pub summaries: Vec<(MetricKey, f64)>,
    /// Whether the network was legitimate when the run ended.
    pub final_legitimate: bool,
    /// Total rules installed across all live switches at the end of the run.
    pub total_rules: usize,
    /// Largest per-switch rule count at the end of the run.
    pub max_rules_per_switch: usize,
    /// Total control-plane messages sent over the whole run.
    pub messages_sent: u64,
    /// Total simulator events processed over the whole run (deliveries, timers,
    /// observation refreshes) — the numerator of events-per-second throughput.
    pub events_processed: u64,
    /// Simulated clock at the end of the run, in seconds.
    pub sim_end_s: f64,
}

impl RunReport {
    /// The value of the end-of-run summary registered under `key`, if any.
    pub fn metric(&self, key: &MetricKey) -> Option<f64> {
        self.summaries
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The first recovery time of the run, if the first fault batch recovered.
    pub fn first_recovery_s(&self) -> Option<f64> {
        self.recoveries.first().and_then(|r| r.recovered_in_s)
    }

    /// The report of the workload with the given label.
    pub fn workload(&self, label: &str) -> Option<&WorkloadReport> {
        self.workloads.iter().find(|w| w.label == label)
    }

    /// The sampled series of the probe registered under `key`.
    pub fn probe(&self, key: &MetricKey) -> Option<&ProbeSeries> {
        self.probes.iter().find(|p| &p.key == key)
    }
}

/// The aggregated result of running a scenario over all its seeds.
#[derive(Debug, Default, PartialEq)]
pub struct ScenarioReport {
    /// The scenario name.
    pub scenario: String,
    /// The topology name the scenario ran on.
    pub network: String,
    /// One report per seed, in seed order.
    pub runs: Vec<RunReport>,
}

impl ScenarioReport {
    /// Bootstrap times across runs as a [`Digest`] (runs that timed out contribute no
    /// sample).
    pub fn bootstrap_digest(&self) -> Digest {
        let mut digest = Digest::default();
        for run in &self.runs {
            if let Some(s) = run.bootstrap_s {
                digest.record(s);
            }
        }
        digest
    }

    /// Recovery times of *every* fault batch across runs as a [`Digest`] (batches that
    /// never recovered contribute no sample).
    pub fn recovery_digest(&self) -> Digest {
        let mut digest = Digest::default();
        for run in &self.runs {
            for recovery in &run.recoveries {
                if let Some(s) = recovery.recovered_in_s {
                    digest.record(s);
                }
            }
        }
        digest
    }

    /// Values of the end-of-run summary registered under `key` across runs, as a
    /// [`Digest`].
    pub fn metric_digest(&self, key: &MetricKey) -> Digest {
        let mut digest = Digest::default();
        for run in &self.runs {
            if let Some(v) = run.metric(key) {
                digest.record(v);
            }
        }
        digest
    }

    /// Returns `true` when every run bootstrapped and every fault batch recovered.
    ///
    /// Note that [`RunReport::final_legitimate`] is deliberately not part of this
    /// check: the implementation's controllers re-discover the topology every round,
    /// so the *instantaneous* legitimacy predicate can dip mid-round even in a
    /// fault-free steady state. Convergence here means each disruption was followed by
    /// a legitimate state, exactly what the paper's recovery measurements report.
    pub fn all_converged(&self) -> bool {
        self.runs.iter().all(|run| {
            run.bootstrap_s.is_some() && run.recoveries.iter().all(|r| r.recovered_in_s.is_some())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_metrics::Namespace;

    #[test]
    fn report_aggregation_skips_failed_runs() {
        let report = ScenarioReport {
            scenario: "t".into(),
            network: "B4".into(),
            runs: vec![
                RunReport {
                    bootstrap_s: Some(1.0),
                    recoveries: vec![RecoveryRecord {
                        fault_at_s: 0.0,
                        recovered_in_s: Some(2.0),
                    }],
                    ..RunReport::default()
                },
                RunReport {
                    bootstrap_s: None,
                    ..RunReport::default()
                },
            ],
        };
        let bootstrap = report.bootstrap_digest();
        assert_eq!(bootstrap.len(), 1);
        assert_eq!(bootstrap.mean(), 1.0);
        assert_eq!(report.recovery_digest().mean(), 2.0);
        assert!(!report.all_converged());
    }

    #[test]
    fn run_report_lookups() {
        let key = MetricKey::custom(Namespace::Scenario, "overhead");
        let run = RunReport {
            summaries: vec![(key.clone(), 3.5)],
            ..RunReport::default()
        };
        assert_eq!(run.metric(&key), Some(3.5));
        assert_eq!(
            run.metric(&MetricKey::custom(Namespace::Scenario, "missing")),
            None
        );
        assert_eq!(run.first_recovery_s(), None);
        assert!(run.workload("iperf").is_none());
        assert!(run.probe(&MetricKey::LEGITIMACY).is_none());
    }
}
