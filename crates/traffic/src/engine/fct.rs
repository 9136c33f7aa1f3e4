//! Flow-completion-time telemetry.
//!
//! An [`FctCollector`] accumulates the completion time of every finished flow into a
//! deterministic streaming [`Digest`] (exact below the sketch threshold, merge-stable
//! above it), alongside the completed-flow count and the delivered-byte total. At the
//! end of a run it collapses into an [`FctSummary`] — the count / mean / p50 / p90 /
//! p99 / min / max tuple the campaign cells and figure binaries report.

use sdn_metrics::Digest;

/// Streaming accumulator of flow completion times and delivered bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FctCollector {
    digest: Digest,
    delivered_bytes: f64,
}

impl FctCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed flow's completion time in seconds. Delivered bytes are
    /// credited separately via [`FctCollector::credit_bytes`] so per-tick progress is
    /// never double-counted.
    pub fn record_completion(&mut self, fct_s: f64) {
        self.digest.record(fct_s);
    }

    /// Adds bytes delivered this tick (by completed and still-running flows alike);
    /// counts toward achieved throughput.
    pub fn credit_bytes(&mut self, bytes: f64) {
        self.delivered_bytes += bytes;
    }

    /// Number of completed flows recorded so far.
    pub fn completed(&self) -> u64 {
        self.digest.count()
    }

    /// Total bytes delivered so far (completed and partial).
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }

    /// The underlying completion-time digest.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// Achieved goodput in Mbit/s over a window of `secs` seconds.
    pub fn achieved_mbps(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered_bytes * 8.0 / secs / 1e6
    }

    /// Collapses the collected population into its summary statistics.
    pub fn summary(&self) -> FctSummary {
        FctSummary::from_digest(&self.digest)
    }
}

/// Summary statistics of a flow-completion-time population, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FctSummary {
    /// Number of completed flows.
    pub count: u64,
    /// Mean completion time.
    pub mean_s: f64,
    /// Median completion time.
    pub p50_s: f64,
    /// 90th-percentile completion time.
    pub p90_s: f64,
    /// 99th-percentile completion time (the tail the paper's recovery argument is
    /// about: stalled flows during repair land here).
    pub p99_s: f64,
    /// Fastest completion.
    pub min_s: f64,
    /// Slowest completion.
    pub max_s: f64,
}

impl FctSummary {
    /// Summarises a completion-time digest. An empty digest yields the all-zero
    /// summary.
    pub fn from_digest(digest: &Digest) -> Self {
        if digest.is_empty() {
            return FctSummary::default();
        }
        FctSummary {
            count: digest.count(),
            mean_s: digest.mean(),
            p50_s: digest.p50(),
            p90_s: digest.p90(),
            p99_s: digest.p99(),
            min_s: digest.min(),
            max_s: digest.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_tracks_completions_and_bytes() {
        let mut fct = FctCollector::new();
        fct.record_completion(1.0);
        fct.record_completion(3.0);
        fct.credit_bytes(3e6);
        fct.credit_bytes(5e5);
        assert_eq!(fct.completed(), 2);
        assert_eq!(fct.delivered_bytes(), 3.5e6);
        // 3.5e6 bytes over 4 s = 7 Mbit/s.
        assert!((fct.achieved_mbps(4.0) - 7.0).abs() < 1e-9);
        assert_eq!(fct.achieved_mbps(0.0), 0.0);
        let summary = fct.summary();
        assert_eq!(summary.count, 2);
        assert!((summary.mean_s - 2.0).abs() < 1e-9);
        assert_eq!(summary.min_s, 1.0);
        assert_eq!(summary.max_s, 3.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let summary = FctCollector::new().summary();
        assert_eq!(summary, FctSummary::default());
    }

    #[test]
    fn quantiles_follow_the_population() {
        let mut fct = FctCollector::new();
        for i in 1..=100 {
            fct.record_completion(i as f64);
        }
        let summary = fct.summary();
        assert_eq!(summary.count, 100);
        assert!(summary.p50_s >= 49.0 && summary.p50_s <= 52.0);
        assert!(summary.p99_s >= 98.0 && summary.p99_s <= 100.0);
        assert!(summary.p50_s <= summary.p90_s && summary.p90_s <= summary.p99_s);
    }
}
