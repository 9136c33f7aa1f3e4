//! Typed, namespaced metric identities.

use std::borrow::Cow;
use std::fmt;

/// The namespace a metric belongs to — the first path segment of its identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Namespace {
    /// Scenario-level observations made by the runner (bootstrap, recovery, summaries).
    Scenario,
    /// Periodically sampled probe observables.
    Probe,
    /// Traffic-workload observations (throughput, retransmissions, ...).
    Workload,
    /// Network-medium accounting (messages, bytes, losses).
    Network,
    /// Harness-level measurements of the benchmark process itself (wall clock, sizes).
    Bench,
}

impl Namespace {
    /// The lowercase path segment (`"scenario"`, `"probe"`, ...).
    pub const fn as_str(self) -> &'static str {
        match self {
            Namespace::Scenario => "scenario",
            Namespace::Probe => "probe",
            Namespace::Workload => "workload",
            Namespace::Network => "network",
            Namespace::Bench => "bench",
        }
    }
}

impl fmt::Display for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unit a metric's values are expressed in. Metadata only: two keys with the same
/// namespace and name are the same metric regardless of unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Simulated or wall-clock seconds.
    Seconds,
    /// Wall-clock milliseconds.
    Millis,
    /// Megabits per second.
    MbitPerSec,
    /// A percentage in `[0, 100]`.
    Percent,
    /// A dimensionless ratio (correlation coefficients, 0/1 predicates).
    Ratio,
    /// A plain count of discrete things.
    #[default]
    Count,
    /// Bytes.
    Bytes,
}

impl Unit {
    /// Short symbol for table headers and sink output (`"s"`, `"ms"`, ...).
    pub const fn symbol(self) -> &'static str {
        match self {
            Unit::Seconds => "s",
            Unit::Millis => "ms",
            Unit::MbitPerSec => "Mbit/s",
            Unit::Percent => "%",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::Bytes => "B",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A typed, namespaced metric identity.
///
/// Identity is the `(namespace, name)` pair: the [`Unit`] is metadata that the sinks
/// print beside each value, and it does not participate in equality, ordering, or
/// hashing. The well-known keys of the workspace are exposed as
/// associated constants ([`MetricKey::BOOTSTRAP_TIME`], ...); experiment-specific
/// metrics are built with [`MetricKey::named`] (const, `&'static str`) or
/// [`MetricKey::custom`] (owned name).
///
/// # Example
///
/// ```
/// use sdn_metrics::{MetricKey, Namespace, Unit};
///
/// const OVERHEAD: MetricKey = MetricKey::named(Namespace::Scenario, "overhead", Unit::Count);
/// assert_eq!(OVERHEAD.path(), "scenario/overhead");
/// assert_eq!(OVERHEAD, MetricKey::custom(Namespace::Scenario, "overhead"));
/// ```
#[derive(Clone, Debug)]
pub struct MetricKey {
    namespace: Namespace,
    name: Cow<'static, str>,
    unit: Unit,
}

impl MetricKey {
    /// Time from the empty configuration to the first legitimate state, in simulated
    /// seconds.
    pub const BOOTSTRAP_TIME: MetricKey =
        MetricKey::named(Namespace::Scenario, "bootstrap_s", Unit::Seconds);
    /// Time from a fault batch back to a legitimate state, in simulated seconds.
    pub const RECOVERY_TIME: MetricKey =
        MetricKey::named(Namespace::Scenario, "recovery_s", Unit::Seconds);
    /// Simulated clock at the end of a run, in seconds.
    pub const SIM_END: MetricKey =
        MetricKey::named(Namespace::Scenario, "sim_end_s", Unit::Seconds);
    /// The legitimacy predicate sampled as 0/1.
    pub const LEGITIMACY: MetricKey = MetricKey::named(Namespace::Probe, "legitimacy", Unit::Ratio);
    /// Total rules installed across all live switches.
    pub const TOTAL_RULES: MetricKey =
        MetricKey::named(Namespace::Probe, "total_rules", Unit::Count);
    /// Largest per-switch rule count.
    pub const MAX_RULES_PER_SWITCH: MetricKey =
        MetricKey::named(Namespace::Probe, "max_rules_per_switch", Unit::Count);
    /// Control-plane messages handed to the network.
    pub const MESSAGES_SENT: MetricKey =
        MetricKey::named(Namespace::Network, "messages_sent", Unit::Count);
    /// Fraction of a run's fault batches whose recovery reached a legitimate state
    /// before the scenario moved on — the survival observable of flapping-link cells.
    pub const FLAP_SURVIVAL: MetricKey =
        MetricKey::named(Namespace::Scenario, "flap_survival", Unit::Ratio);
    /// Control-plane messages sent while a partition was in force (between the cut
    /// batch and the heal batch), from the sampled messages probe.
    pub const PARTITION_MESSAGES: MetricKey =
        MetricKey::named(Namespace::Network, "partition_messages", Unit::Count);
    /// Per-second TCP goodput of a traffic workload.
    pub const THROUGHPUT: MetricKey =
        MetricKey::named(Namespace::Workload, "throughput_mbps", Unit::MbitPerSec);
    /// Per-second TCP retransmission percentage of a traffic workload.
    pub const RETRANSMISSIONS: MetricKey =
        MetricKey::named(Namespace::Workload, "retransmission_pct", Unit::Percent);
    /// Median flow completion time of a heavy-traffic run, in simulated seconds.
    pub const FCT_P50: MetricKey =
        MetricKey::named(Namespace::Workload, "fct_p50_s", Unit::Seconds);
    /// 99th-percentile flow completion time of a heavy-traffic run, in simulated
    /// seconds — the tail-latency observable of datacenter traffic studies.
    pub const FCT_P99: MetricKey =
        MetricKey::named(Namespace::Workload, "fct_p99_s", Unit::Seconds);
    /// Aggregate achieved goodput of the flow batch over one service interval.
    pub const ACHIEVED_THROUGHPUT: MetricKey =
        MetricKey::named(Namespace::Workload, "achieved_mbps", Unit::MbitPerSec);

    /// A key with a `'static` name — usable in `const` contexts.
    pub const fn named(namespace: Namespace, name: &'static str, unit: Unit) -> MetricKey {
        MetricKey {
            namespace,
            name: Cow::Borrowed(name),
            unit,
        }
    }

    /// A key with an owned name, default unit ([`Unit::Count`]).
    pub fn custom(namespace: Namespace, name: impl Into<String>) -> MetricKey {
        MetricKey {
            namespace,
            name: Cow::Owned(name.into()),
            unit: Unit::default(),
        }
    }

    /// The key's namespace.
    pub fn namespace(&self) -> Namespace {
        self.namespace
    }

    /// The key's name within its namespace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit values of this metric are expressed in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// The full `namespace/name` path, the stable serialized identity of the key.
    pub fn path(&self) -> String {
        format!("{}/{}", self.namespace, self.name)
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.namespace, self.name)
    }
}

// Identity is (namespace, name); the unit is metadata.
impl PartialEq for MetricKey {
    fn eq(&self, other: &Self) -> bool {
        self.namespace == other.namespace && self.name == other.name
    }
}
impl Eq for MetricKey {}

impl PartialOrd for MetricKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MetricKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.namespace, self.name.as_ref()).cmp(&(other.namespace, other.name.as_ref()))
    }
}

impl std::hash::Hash for MetricKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.namespace.hash(state);
        self.name.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_ignores_unit() {
        let a = MetricKey::named(Namespace::Scenario, "x", Unit::Seconds);
        let b = MetricKey::custom(Namespace::Scenario, "x");
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let c = MetricKey::custom(Namespace::Probe, "x");
        assert_ne!(a, c);
    }

    #[test]
    fn paths_and_metadata() {
        assert_eq!(MetricKey::BOOTSTRAP_TIME.path(), "scenario/bootstrap_s");
        assert_eq!(
            MetricKey::BOOTSTRAP_TIME.to_string(),
            "scenario/bootstrap_s"
        );
        assert_eq!(MetricKey::BOOTSTRAP_TIME.unit(), Unit::Seconds);
        assert_eq!(Unit::MbitPerSec.symbol(), "Mbit/s");
        let k = MetricKey::custom(Namespace::Bench, "nodes");
        assert_eq!(k.path(), "bench/nodes");
        assert_eq!(k.unit(), Unit::Count);
    }

    #[test]
    fn ordering_is_by_namespace_then_name() {
        let mut keys = [
            MetricKey::custom(Namespace::Probe, "b"),
            MetricKey::custom(Namespace::Scenario, "z"),
            MetricKey::custom(Namespace::Probe, "a"),
        ];
        keys.sort();
        let paths: Vec<String> = keys.iter().map(MetricKey::path).collect();
        assert_eq!(paths, vec!["scenario/z", "probe/a", "probe/b"]);
    }
}
