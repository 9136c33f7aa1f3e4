//! Untraced measurement of the four simulation workloads through the public
//! scenario API, exactly as a campaign cell or a fig/table binary runs them.

use crate::fingerprint;
use crate::workloads::{SimPlan, TIMEOUT};
use renaissance::scenario::{RunReport, Scenario};
use std::time::Instant;

/// One sample: the plan's `K` seeds run back to back on one thread.
#[derive(Clone, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub events: u64,
    pub flows_completed: u64,
    /// One fingerprint per seeded run, in seed order.
    pub fingerprints: Vec<u64>,
    /// Why each failed seeded run failed; empty when all `K` passed.
    pub failures: Vec<String>,
}

/// What the timed samples of one invocation produced.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    pub setup_s: f64,
    pub wall_s: Vec<f64>,
    pub events_per_s: Vec<f64>,
    pub flows_per_s: Vec<f64>,
    /// Seeded runs executed, warm-up included.
    pub ops: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
}

/// Why a seeded run counts as failed, if it does: the bootstrap did not converge, or
/// a fault batch's recovery wait ran out the full timeout. A wait cut short by the
/// next scheduled batch is not a failure — a few percent of seeds need longer than
/// the 10 s partition window of `churn_ft8`, and the benchmark must hold for any
/// `--seed` — but it stays in the fingerprint, so it cannot change unnoticed.
pub fn run_failure(run: &RunReport) -> Option<String> {
    if run.bootstrap_s.is_none() {
        return Some(format!("seed {}: bootstrap did not converge", run.seed));
    }
    let timeout_s = TIMEOUT.as_secs_f64();
    let timed_out: Vec<String> = run
        .recoveries
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            let next_batch_in = run
                .recoveries
                .get(i + 1)
                .map_or(f64::INFINITY, |next| next.fault_at_s - r.fault_at_s);
            r.recovered_in_s.is_none() && next_batch_in >= timeout_s
        })
        .map(|(_, r)| format!("{}s", r.fault_at_s))
        .collect();
    if !timed_out.is_empty() {
        return Some(format!(
            "seed {}: no recovery within the timeout from the fault batches injected at {} after bootstrap",
            run.seed,
            timed_out.join(", ")
        ));
    }
    None
}

/// Completed flows of a run's flow-engine workload (0 without one).
pub fn flows_completed(run: &RunReport) -> u64 {
    run.workloads
        .iter()
        .filter_map(|wl| wl.note("completed")?.parse::<u64>().ok())
        .sum()
}

pub fn run_sample(scenario: &Scenario) -> Sample {
    let started = Instant::now();
    let report = scenario.run();
    let wall_s = started.elapsed().as_secs_f64();
    Sample {
        wall_s,
        events: report.runs.iter().map(|r| r.events_processed).sum(),
        flows_completed: report.runs.iter().map(flows_completed).sum(),
        fingerprints: report.runs.iter().map(fingerprint::of_run).collect(),
        failures: report.runs.iter().filter_map(run_failure).collect(),
    }
}

/// Failures of `sample` itself plus any same-seed fingerprint drift against
/// `reference` (the warm-up sample of the same seeds).
pub fn sample_failures(sample: &Sample, reference: &[u64]) -> Vec<String> {
    let mut failures = sample.failures.clone();
    for (i, (got, want)) in sample.fingerprints.iter().zip(reference).enumerate() {
        if got != want {
            failures.push(format!(
                "run {i} of the sample: sim fingerprint {got:016x} differs from the first repetition's {want:016x}"
            ));
        }
    }
    failures
}

/// One discarded warm-up sample, then `samples` timed ones. Sample `j` runs seeds
/// `seed + j*K ..`, so one invocation covers several seeds and its medians depend
/// less on any single one; sample 0 repeats the warm-up's seeds, which is the
/// same-seed-twice fingerprint check. `process_start` is when `main` began: set-up
/// covers argument parsing, scenario construction and the warm-up.
pub fn measure(plan: &SimPlan, seed: u64, samples: usize, process_start: Instant) -> Measured {
    let warmup = run_sample(&plan.scenario(seed));
    let mut out = Measured {
        setup_s: process_start.elapsed().as_secs_f64(),
        ops: warmup.fingerprints.len() as u64,
        failures: warmup.failures.clone(),
        ..Measured::default()
    };
    let mut fingerprints = Vec::new();
    for j in 0..samples {
        let base = seed + (j * plan.seeds_per_sample) as u64;
        let sample = run_sample(&plan.scenario(base));
        out.ops += sample.fingerprints.len() as u64;
        if j == 0 {
            out.failures
                .extend(sample_failures(&sample, &warmup.fingerprints));
        } else {
            out.failures.extend(sample.failures);
        }
        out.wall_s.push(sample.wall_s);
        out.events_per_s.push(sample.events as f64 / sample.wall_s);
        out.flows_per_s
            .push(sample.flows_completed as f64 / sample.wall_s);
        fingerprints.extend(sample.fingerprints);
    }
    out.fingerprint = fingerprint::combine(&fingerprints);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaissance::scenario::RecoveryRecord;

    fn run_with(recoveries: &[(f64, Option<f64>)]) -> RunReport {
        RunReport {
            seed: 1,
            bootstrap_s: Some(2.0),
            recoveries: recoveries
                .iter()
                .map(|&(fault_at_s, recovered_in_s)| RecoveryRecord {
                    fault_at_s,
                    recovered_in_s,
                })
                .collect(),
            ..RunReport::default()
        }
    }

    #[test]
    fn only_non_convergence_and_timeouts_fail_a_run() {
        assert!(run_failure(&run_with(&[(5.0, Some(0.5))])).is_none());
        // Cut short by the batch 10 s later: not a failure.
        assert!(run_failure(&run_with(&[(75.0, None), (85.0, Some(1.0))])).is_none());
        // The last batch can only end unrecovered by running out the timeout.
        let last = run_failure(&run_with(&[(75.0, Some(1.0)), (85.0, None)]));
        assert!(last.is_some_and(|why| why.contains("85s")));
        // So can an earlier one when the next batch is a full timeout away.
        assert!(run_failure(&run_with(&[(0.0, None), (1200.0, Some(1.0))])).is_some());
        let mut never = run_with(&[]);
        never.bootstrap_s = None;
        assert!(run_failure(&never).is_some());
    }
}
