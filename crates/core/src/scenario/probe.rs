//! Pluggable observables sampled on a schedule while a scenario runs.
//!
//! A [`Probe`] turns the network state into one `f64` per sample; the runner collects
//! the values into a [`ProbeSeries`] per run. Each probe is identified by a typed
//! [`MetricKey`] — the built-in probes use the well-known keys
//! ([`MetricKey::LEGITIMACY`], ...); anything else can be expressed with
//! [`Probe::custom`] under its own key.

use crate::harness::SdnNetwork;
use sdn_metrics::MetricKey;

/// An observable sampled periodically over a running [`SdnNetwork`], keyed by a typed
/// [`MetricKey`].
#[derive(Clone)]
pub struct Probe {
    key: MetricKey,
    kind: ProbeKind,
}

#[derive(Clone, Copy)]
enum ProbeKind {
    /// 1.0 when the legitimacy predicate (Definition 1) holds, else 0.0.
    Legitimacy,
    /// Total rules installed across all live switches.
    TotalRules,
    /// Largest rule count of any single live switch.
    MaxRulesPerSwitch,
    /// Total control-plane messages sent since the start of the run.
    MessagesSent,
    /// A caller-provided pure observation function.
    Custom(fn(&SdnNetwork) -> f64),
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("key", &self.key).finish()
    }
}

impl Probe {
    /// Samples 1.0 while the network satisfies the legitimacy predicate, 0.0 otherwise.
    pub fn legitimacy() -> Self {
        Probe {
            key: MetricKey::LEGITIMACY,
            kind: ProbeKind::Legitimacy,
        }
    }

    /// Samples the total number of rules installed across all live switches (the
    /// memory-footprint observable of Lemma 1).
    pub fn total_rules() -> Self {
        Probe {
            key: MetricKey::TOTAL_RULES,
            kind: ProbeKind::TotalRules,
        }
    }

    /// Samples the largest rule count of any single live switch.
    pub fn max_rules_per_switch() -> Self {
        Probe {
            key: MetricKey::MAX_RULES_PER_SWITCH,
            kind: ProbeKind::MaxRulesPerSwitch,
        }
    }

    /// Samples the cumulative number of control-plane messages sent.
    pub fn messages_sent() -> Self {
        Probe {
            key: MetricKey::MESSAGES_SENT,
            kind: ProbeKind::MessagesSent,
        }
    }

    /// A probe evaluating an arbitrary pure function of the network state, registered
    /// under a typed key.
    ///
    /// The function pointer (rather than a closure) keeps scenarios freely reusable
    /// across repeated runs.
    pub fn custom(key: MetricKey, f: fn(&SdnNetwork) -> f64) -> Self {
        Probe {
            key,
            kind: ProbeKind::Custom(f),
        }
    }

    /// This probe's typed key (the key of its series in the run report).
    pub fn key(&self) -> &MetricKey {
        &self.key
    }

    /// Evaluates the probe against the current network state.
    pub fn sample(&self, net: &SdnNetwork) -> f64 {
        match self.kind {
            ProbeKind::Legitimacy => {
                if net.is_legitimate() {
                    1.0
                } else {
                    0.0
                }
            }
            ProbeKind::TotalRules => net.total_rules() as f64,
            ProbeKind::MaxRulesPerSwitch => net.max_rules_per_switch() as f64,
            ProbeKind::MessagesSent => net.metrics().total_sent() as f64,
            ProbeKind::Custom(f) => f(net),
        }
    }
}

/// The sampled time series of one probe over one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeSeries {
    /// The probe's typed key.
    pub key: MetricKey,
    /// Sample timestamps, in simulated seconds since the start of the run.
    pub times_s: Vec<f64>,
    /// Sampled values, parallel to `times_s`.
    pub values: Vec<f64>,
}

impl ProbeSeries {
    /// Creates an empty series for the given probe key.
    pub fn new(key: MetricKey) -> Self {
        ProbeSeries {
            key,
            times_s: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, time_s: f64, value: f64) {
        self.times_s.push(time_s);
        self.values.push(value);
    }

    /// The last sampled value, if any sample was taken.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_metrics::Namespace;
    use sdn_netsim::SimDuration;
    use sdn_topology::builders;

    #[test]
    fn builtin_probes_sample_sensible_values() {
        let topology = builders::ring(4, 1);
        let net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(1, 4),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        // Freshly built: not legitimate, no rules, no messages.
        assert_eq!(Probe::legitimacy().sample(&net), 0.0);
        assert_eq!(Probe::total_rules().sample(&net), 0.0);
        assert_eq!(Probe::max_rules_per_switch().sample(&net), 0.0);
        assert_eq!(Probe::messages_sent().sample(&net), 0.0);
        let custom = Probe::custom(MetricKey::custom(Namespace::Probe, "live_switches"), |n| {
            n.live_switch_ids().len() as f64
        });
        assert_eq!(custom.key().path(), "probe/live_switches");
        assert_eq!(custom.sample(&net), 4.0);
    }

    #[test]
    fn series_accumulates() {
        let mut s = ProbeSeries::new(MetricKey::custom(Namespace::Probe, "x"));
        assert_eq!(s.last(), None);
        s.push(0.0, 1.0);
        s.push(0.5, 2.0);
        assert_eq!(s.times_s, vec![0.0, 0.5]);
        assert_eq!(s.last(), Some(2.0));
    }
}
