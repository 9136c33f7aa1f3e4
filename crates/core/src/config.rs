//! Configuration of Renaissance controllers and of the simulation harness.

use sdn_netsim::SimDuration;

/// Which algorithmic variant a controller runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Variant {
    /// The paper's main algorithm (Algorithm 2): memory adaptive — controllers actively
    /// delete stale managers and rules of unreachable controllers, and perform C-resets
    /// when `replyDB` overflows. Recovery from transient faults takes `O(D^2 N)` frames
    /// but post-recovery memory depends on the *actual* number of controllers `nC`.
    #[default]
    MemoryAdaptive,
    /// The Section 8.1 variation: controllers never delete other controllers' state and
    /// never C-reset; stale information is flushed only by the switches' own
    /// least-recently-updated eviction. Recovery takes `Theta(D)` frames, but memory
    /// after stabilization can be `NC / nC` times larger.
    NonAdaptive,
}

/// Configuration shared by every controller of a deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerConfig {
    /// The number of controller identifiers in the deployment (`NC`); node identifiers
    /// below this value are controllers, the rest are switches.
    pub n_controllers: usize,
    /// Resilience target: flows must survive up to `kappa` link failures.
    pub kappa: usize,
    /// Maximum number of priority levels (`nprt`) per destination when generating rules.
    /// The paper requires `nprt >= kappa + 1`; `None` uses one level per neighbor
    /// (`nprt = Delta + 1`, the bound of Lemma 3).
    pub max_priorities: Option<usize>,
    /// `maxReplies`: capacity of the controller's `replyDB` before a C-reset
    /// (the paper requires at least `2 (NC + NS)`).
    pub max_replies: usize,
    /// Which algorithmic variant to run.
    pub variant: Variant,
}

impl ControllerConfig {
    /// A configuration suitable for a network with `n_controllers` controllers and
    /// `n_switches` switches, using the paper's defaults (`kappa = 1`, memory adaptive).
    pub fn for_network(n_controllers: usize, n_switches: usize) -> Self {
        ControllerConfig {
            n_controllers,
            kappa: 1,
            max_priorities: Some(3),
            // Three tag generations must fit at once: after a round completes, the
            // database still holds the finished round's replies plus the previous
            // round's (pruned only at the *next* iterate), while replies echoing the
            // new tag already stream in. At 2x, those early new-tag replies overflow
            // the database every other round and C-reset an otherwise healthy
            // controller — visible as periodic topology-view collapses that keep a
            // two-controller partition component from ever stabilizing.
            max_replies: 3 * (n_controllers + n_switches).max(1),
            variant: Variant::MemoryAdaptive,
        }
    }

    /// Switches to the non-memory-adaptive Theta(D) variant of Section 8.1.
    pub fn non_adaptive(mut self) -> Self {
        self.variant = Variant::NonAdaptive;
        self
    }
}

/// Configuration of the simulation harness wrapping controllers and switches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HarnessConfig {
    /// Delay between iterations of each controller's do-forever loop and between the
    /// switches' neighborhood-discovery refreshes — the paper's *task delay*
    /// (default 500 ms, Section 6.3).
    pub task_delay: SimDuration,
    /// Time-to-live of in-band control packets, in hops.
    pub packet_ttl: u16,
    /// Seed for the simulator's randomness.
    pub seed: u64,
    /// How long after a failure the neighbors' local discovery notices it
    /// (the Theta detector latency).
    pub detection_delay: SimDuration,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            task_delay: SimDuration::from_millis(500),
            packet_ttl: 2048,
            seed: 7,
            detection_delay: SimDuration::from_millis(100),
        }
    }
}

impl HarnessConfig {
    /// Overrides the task delay (the Figure 7 sweep parameter).
    pub fn with_task_delay(mut self, task_delay: SimDuration) -> Self {
        self.task_delay = task_delay;
        self
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_network_respects_paper_bounds() {
        let cfg = ControllerConfig::for_network(3, 20);
        assert_eq!(cfg.n_controllers, 3);
        // Room for three tag generations so round turnover cannot overflow the
        // database (see `for_network`).
        assert!(cfg.max_replies >= 3 * 23);
        assert_eq!(cfg.kappa, 1);
        assert_eq!(cfg.variant, Variant::MemoryAdaptive);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = ControllerConfig::for_network(2, 10).non_adaptive();
        assert_eq!(cfg.variant, Variant::NonAdaptive);
    }

    #[test]
    fn harness_defaults_match_paper_setup() {
        let h = HarnessConfig::default();
        assert_eq!(h.task_delay, SimDuration::from_millis(500));
        assert!(h.packet_ttl > 0);
        let h2 = h
            .with_task_delay(SimDuration::from_millis(100))
            .with_seed(9);
        assert_eq!(h2.task_delay, SimDuration::from_millis(100));
        assert_eq!(h2.seed, 9);
    }
}
