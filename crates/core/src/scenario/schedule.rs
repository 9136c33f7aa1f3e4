//! Typed, time-stamped fault schedules.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s at offsets relative to the moment
//! the network first reaches a legitimate state (the paper injects every fault into an
//! already-stabilized network). Events carry *selectors* rather than concrete victims,
//! so one declarative scenario covers the paper's randomized experiments: the runner
//! resolves selectors per seeded run, deterministically.

use crate::faults::{CorruptionPlan, FaultInjector};
use crate::harness::SdnNetwork;
use crate::legitimacy;
use sdn_netsim::{BurstLoss, LinkConfig, SimDuration};
use sdn_rng::Rng;
use sdn_topology::{paths, FatTreeLayout, NodeId};
use std::collections::BTreeMap;

/// How a fault event picks its controller victim(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerSelector {
    /// A concrete controller.
    Id(NodeId),
    /// The controller at this index of [`SdnNetwork::controller_ids`].
    Index(usize),
    /// `count` random live controllers — but never all of them, so the control-plane
    /// task stays solvable (the paper's Figures 10/11 always leave one controller).
    Random {
        /// How many controllers fail simultaneously.
        count: usize,
    },
}

/// How a fault event picks its switch victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchSelector {
    /// A concrete switch.
    Id(NodeId),
    /// A random live switch whose removal keeps the rest of the network connected
    /// (the paper's Figure 12 experiment also always stays connected).
    Random,
}

/// Endpoints of a data-plane path, used by [`LinkSelector::MidPath`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoints {
    /// Two concrete nodes.
    Nodes(NodeId, NodeId),
    /// The two switches at maximal distance in the switch graph — where the paper
    /// attaches its iperf hosts (Section 6.4.3).
    FarthestSwitches,
}

impl Endpoints {
    /// Resolves the endpoints against a concrete network.
    pub fn resolve(&self, net: &SdnNetwork) -> Option<(NodeId, NodeId)> {
        match *self {
            Endpoints::Nodes(a, b) => Some((a, b)),
            Endpoints::FarthestSwitches => {
                paths::farthest_pair(&net.topology().switch_graph).map(|(a, b, _)| (a, b))
            }
        }
    }
}

/// How a fault event picks the link(s) it acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkSelector {
    /// A concrete link.
    Between(NodeId, NodeId),
    /// `count` random links whose removal keeps the network in-band connected
    /// (Figures 13/14).
    RandomSafe {
        /// How many links are picked simultaneously.
        count: usize,
    },
    /// The link closest to the middle of the current in-band data-plane path between
    /// the endpoints, preferring links whose removal keeps the topology connected —
    /// the paper's Figures 15/16 mid-path failure.
    MidPath(Endpoints),
    /// Every in-pod uplink of one random rack (edge switch) of a fat-tree —
    /// a correlated top-of-rack failure domain. Resolves to nothing on
    /// topologies without fat-tree coordinates.
    SameRack,
    /// Every intra-pod link of one random fat-tree pod (the agg↔edge bipartite
    /// block) — a correlated pod-wide failure domain. Resolves to nothing on
    /// topologies without fat-tree coordinates.
    SamePod,
    /// The links degraded by the most recent `DegradeLink` event.
    LastDegraded,
}

/// How a link's quality degrades under a [`FaultEvent::DegradeLink`] — the gray
/// failure: the link stays part of `Gc` (no failure detector fires) but drops,
/// delays, or reorders traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeSpec {
    /// Flat per-packet loss probability (ignored when `burst` is set: the burst
    /// process then owns the loss decision).
    pub loss: f64,
    /// Optional two-state burst-loss process; bursty links draw from a dedicated
    /// per-link RNG stream in the simulator, keeping runs interleaving-independent.
    pub burst: Option<BurstLoss>,
    /// Degrade only the `a -> b` direction of each selected link, leaving the
    /// reverse direction clean — the asymmetric gray failure.
    pub asymmetric: bool,
}

impl DegradeSpec {
    /// Flat i.i.d. loss at probability `loss`, both directions.
    pub fn flat(loss: f64) -> Self {
        DegradeSpec {
            loss,
            burst: None,
            asymmetric: false,
        }
    }

    /// The canonical gray link of the issue: ~30% of packets dropped in bursts
    /// (Gilbert channel, mean burst ≈ 3 packets) in one direction only.
    pub fn gray() -> Self {
        DegradeSpec {
            loss: 0.0,
            burst: Some(BurstLoss::gilbert(0.15, 0.35, 1.0)),
            asymmetric: true,
        }
    }

    /// The concrete link configuration of a degraded link, derived from the
    /// network's default link behaviour.
    pub fn link_config(&self, base: LinkConfig) -> LinkConfig {
        match self.burst {
            Some(burst) => base.with_burst(burst),
            None => base.without_burst().with_loss(self.loss),
        }
    }

    /// Short human-readable summary for fault descriptions.
    pub fn describe(&self) -> String {
        let loss = match self.burst {
            Some(burst) => format!("bursty loss ~{:.0}%", burst.stationary_loss() * 100.0),
            None => format!("loss {:.0}%", self.loss * 100.0),
        };
        let dir = if self.asymmetric { ", one-way" } else { "" };
        format!("{loss}{dir}")
    }
}

/// How a [`FaultEvent::Partition`] splits the network.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSpec {
    /// Two connected halves grown around the first two live controllers by
    /// multi-source BFS (ties go to the first seed), so each side keeps a
    /// controller and can re-stabilize while partitioned. Resolves to nothing
    /// when fewer than two controllers are alive.
    Halves,
    /// Explicit node groups; every `Gc` link whose endpoints land in different
    /// groups is cut. Nodes listed in several groups keep their first assignment;
    /// unlisted nodes belong to no group and keep all their links.
    Groups(Vec<Vec<NodeId>>),
}

/// One typed fault, to be applied at a scheduled instant.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Fail-stop of one or more controllers (Figures 10/11).
    FailController(ControllerSelector),
    /// Fail-stop of a switch (Figure 12).
    FailSwitch(SwitchSelector),
    /// Permanent removal of link(s) from `Gc` (Figures 13/14).
    RemoveLink(LinkSelector),
    /// Temporary link failure — the link stays part of `Gc`.
    FailLink(LinkSelector),
    /// Restores a concrete temporarily-failed link.
    RestoreLink(NodeId, NodeId),
    /// Restores every link taken down by the most recent `FailLink` event.
    RestoreLastFailedLinks,
    /// Adds a brand-new link to `Gc`.
    AddLink(NodeId, NodeId),
    /// Revives a concrete controller with fresh (empty) state (Lemma 8).
    ReviveController(NodeId),
    /// Revives the controller taken down by the most recent `FailController` event.
    ReviveLastFailedController,
    /// Revives a concrete switch with empty configuration.
    ReviveSwitch(NodeId),
    /// Revives the switch taken down by the most recent `FailSwitch` event.
    ReviveLastFailedSwitch,
    /// Arbitrary transient state corruption (the Theorem 2 experiments).
    CorruptState(CorruptionPlan),
    /// Degrades link quality without failing the link (gray failure): the link
    /// stays in `Gc`, no failure detector fires, but packets drop/delay per the
    /// spec. Victims are recorded for [`LinkSelector::LastDegraded`].
    DegradeLink(LinkSelector, DegradeSpec),
    /// Removes the quality overrides from the selected links, returning them to
    /// the default behaviour.
    RestoreLinkQuality(LinkSelector),
    /// Cuts the network into groups by transiently failing every crossing link.
    /// With `heal_after` set, [`FaultEvent::phases`] schedules a matching
    /// [`FaultEvent::HealPartition`] that much later.
    Partition {
        /// How the groups are chosen.
        groups: PartitionSpec,
        /// Delay until the automatic heal, measured from the partition instant.
        heal_after: Option<SimDuration>,
    },
    /// Restores every link cut by the `Partition` events in force.
    HealPartition,
    /// A link that goes down and comes back `count` times, `period` apart (down
    /// for the first half of each period). Expanded by [`FaultEvent::phases`]
    /// into [`FaultEvent::FlapPhase`] pairs; the selector is resolved once, on
    /// the first down-phase, so every flap hits the same links.
    FlapLink {
        /// Which link(s) flap.
        selector: LinkSelector,
        /// Length of one down-then-up cycle.
        period: SimDuration,
        /// Number of cycles.
        count: u32,
    },
    /// One half-cycle of an expanded [`FaultEvent::FlapLink`]. Generated by
    /// [`FaultEvent::phases`]; schedule `FlapLink` instead of this directly.
    FlapPhase {
        /// Identifier tying the phases of one flapping link together.
        flap: u32,
        /// The original selector, resolved on the first down-phase.
        selector: LinkSelector,
        /// `true` for the down half-cycle, `false` for the up half-cycle.
        down: bool,
    },
    /// A rolling restart of the controller fleet: controllers at indices
    /// `0..count` fail-stop one at a time, `interval` apart, each reviving with
    /// fresh state after `down_for` (the rolling-upgrade drill). Expanded by
    /// [`FaultEvent::phases`] into fail/revive pairs.
    RollingControllerRestart {
        /// Gap between consecutive controller restarts.
        interval: SimDuration,
        /// How long each controller stays down.
        down_for: SimDuration,
        /// How many controllers restart (clamped to the fleet size at apply time).
        count: usize,
    },
    /// Revives the controller at this index of [`SdnNetwork::controller_ids`]
    /// with fresh state. Generated by the `RollingControllerRestart` expansion.
    ReviveControllerIndex(usize),
}

/// Why a [`FaultEvent`] is malformed whatever network it meets — the rules
/// [`FaultEvent::validate`] checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// `AddLink(n, n)`: a link needs two distinct endpoints.
    SelfLoop(NodeId),
    /// A partition into explicit groups names fewer than two.
    TooFewGroups,
    /// The named probability of a [`DegradeSpec`] is not finite or not in `[0, 1]`.
    NotAProbability(&'static str),
    /// A flap whose half-period is shorter than one quantum (carried): its
    /// down and up phases would land on the same instant.
    FlapTooFast(SimDuration),
    /// A rolling restart whose `down_for` is shorter than one quantum (carried)
    /// or not shorter than `interval`, so two controllers could be down at once.
    RestartOverlap(SimDuration),
    /// A flap or rolling restart with a count of zero.
    ZeroCount,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SelfLoop(node) => write!(f, "cannot add a self-loop at {node}"),
            Self::TooFewGroups => write!(f, "a partition needs at least two groups"),
            Self::NotAProbability(name) => write!(f, "`{name}` must be a probability in [0, 1]"),
            Self::FlapTooFast(q) => write!(f, "a flap needs a half-period of at least {q}"),
            Self::RestartOverlap(q) => {
                write!(f, "a restart's `down_for` must be in [{q}, `interval`)")
            }
            Self::ZeroCount => write!(f, "a flap or rolling restart needs a positive count"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultEvent {
    /// Checks the rules that hold whatever network the event meets: no
    /// self-loop, at least two partition groups, probabilities in `[0, 1]`,
    /// positive compound counts, a flap half-period and a restart's down time
    /// of at least one `quantum`, and a down time shorter than the restart
    /// interval. `quantum` is the finest instant the caller can tell apart: a
    /// service tick, or one microsecond for a [`FaultSchedule`]. Checks that need
    /// the live network (does the victim exist?) belong to the caller.
    pub fn validate(&self, quantum: SimDuration) -> Result<(), FaultError> {
        match self {
            FaultEvent::AddLink(a, b) if a == b => Err(FaultError::SelfLoop(*a)),
            FaultEvent::Partition {
                groups: PartitionSpec::Groups(groups),
                ..
            } if groups.len() < 2 => Err(FaultError::TooFewGroups),
            FaultEvent::DegradeLink(_, DegradeSpec { loss, burst, .. }) => {
                let burst = burst.iter().flat_map(|b| {
                    [
                        ("p_enter", b.p_enter),
                        ("p_exit", b.p_exit),
                        ("loss_good", b.loss_good),
                        ("loss_bad", b.loss_bad),
                    ]
                });
                let mut all = std::iter::once(("loss", *loss)).chain(burst);
                let bad = all.find(|(_, p)| !(0.0..=1.0).contains(p));
                bad.map_or(Ok(()), |(name, _)| Err(FaultError::NotAProbability(name)))
            }
            FaultEvent::FlapLink { count: 0, .. }
            | FaultEvent::RollingControllerRestart { count: 0, .. } => Err(FaultError::ZeroCount),
            FaultEvent::FlapLink { period, .. }
                if SimDuration::from_micros(period.as_micros() / 2) < quantum =>
            {
                Err(FaultError::FlapTooFast(quantum))
            }
            FaultEvent::RollingControllerRestart {
                interval, down_for, ..
            } if *down_for < quantum || down_for >= interval => {
                Err(FaultError::RestartOverlap(quantum))
            }
            _ => Ok(()),
        }
    }

    /// The timed phases this event expands into, at offsets from its own instant
    /// — the one place compound faults are expanded. `FlapLink` becomes
    /// `FlapPhase` pairs (down for the first half of each period, rounded down to
    /// the microsecond) tagged `flap`, so every phase reuses the victims its
    /// first down-phase resolved: `flap` must differ between the flaps one
    /// [`FaultContext`] applies. `Partition { heal_after: Some(..) }` gains a
    /// `HealPartition`, and `RollingControllerRestart` becomes staggered
    /// fail/revive pairs. Any other event is one phase at offset zero.
    pub fn phases(&self, flap: u32) -> Vec<(SimDuration, FaultEvent)> {
        let at = SimDuration::from_micros;
        match self {
            FaultEvent::FlapLink {
                selector,
                period,
                count,
            } => {
                let (p, selector) = (period.as_micros(), *selector);
                let phase = |down| FaultEvent::FlapPhase {
                    flap,
                    selector,
                    down,
                };
                (0..u64::from(*count))
                    .flat_map(|i| [(at(p * i), phase(true)), (at(p * i + p / 2), phase(false))])
                    .collect()
            }
            FaultEvent::Partition {
                heal_after: Some(delay),
                ..
            } => vec![
                (SimDuration::ZERO, self.clone()),
                (*delay, FaultEvent::HealPartition),
            ],
            FaultEvent::RollingControllerRestart {
                interval,
                down_for,
                count,
            } => (0..*count)
                .flat_map(|i| {
                    let fail_at = at(interval.as_micros() * i as u64);
                    let fail = FaultEvent::FailController(ControllerSelector::Index(i));
                    [
                        (fail_at, fail),
                        (fail_at + *down_for, FaultEvent::ReviveControllerIndex(i)),
                    ]
                })
                .collect(),
            other => vec![(SimDuration::ZERO, other.clone())],
        }
    }
}

/// A time-ordered list of fault events, offsets relative to the bootstrap instant.
///
/// # Example
///
/// ```
/// use renaissance::scenario::{ControllerSelector, FaultEvent, FaultSchedule, LinkSelector};
/// use sdn_netsim::SimDuration;
///
/// let schedule = FaultSchedule::new()
///     .at(SimDuration::from_secs(5), FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 2 }))
///     .at(SimDuration::from_secs(5), FaultEvent::FailController(ControllerSelector::Random { count: 1 }));
/// assert_eq!(schedule.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<(SimDuration, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds an event at `offset` after the bootstrap instant. Events at equal offsets
    /// form one *batch*: they are applied together and recovery is measured once for
    /// the whole batch.
    pub fn at(mut self, offset: SimDuration, event: FaultEvent) -> Self {
        self.events.push((offset, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The first event that fails [`FaultEvent::validate`] at the simulator's
    /// resolution of one microsecond, if any.
    pub fn validate(&self) -> Result<(), FaultError> {
        let quantum = SimDuration::from_micros(1);
        self.events
            .iter()
            .try_for_each(|(_, event)| event.validate(quantum))
    }

    /// The events grouped into batches by offset, sorted by offset (stable: insertion
    /// order is kept within a batch).
    ///
    /// Each event is expanded by [`FaultEvent::phases`], with its insertion index
    /// as the flap id, so the phases of one `FlapLink` share their resolved
    /// victims.
    pub fn batches(&self) -> Vec<(SimDuration, Vec<FaultEvent>)> {
        let mut expanded: Vec<(SimDuration, FaultEvent)> = Vec::new();
        for (idx, (offset, event)) in self.events.iter().enumerate() {
            let phases = event.phases(idx as u32).into_iter();
            expanded.extend(phases.map(|(at, phase)| (*offset + at, phase)));
        }
        expanded.sort_by_key(|&(offset, _)| offset);
        let mut batches: Vec<(SimDuration, Vec<FaultEvent>)> = Vec::new();
        for (offset, event) in expanded {
            match batches.last_mut() {
                Some((at, events)) if *at == offset => events.push(event),
                _ => batches.push((offset, vec![event])),
            }
        }
        batches
    }
}

/// Per-run state the fault executor threads through event applications: deterministic
/// randomness plus the victims of the most recent events (for the `*LastFailed*`
/// targets).
#[derive(Debug)]
pub struct FaultContext {
    rng: Rng,
    injector: FaultInjector,
    /// Links taken down by the most recent `FailLink` event.
    pub last_failed_links: Vec<(NodeId, NodeId)>,
    /// Controller taken down most recently.
    pub last_failed_controller: Option<NodeId>,
    /// Switch taken down most recently.
    pub last_failed_switch: Option<NodeId>,
    /// Links degraded by the most recent `DegradeLink` event.
    pub last_degraded_links: Vec<(NodeId, NodeId)>,
    /// Links cut by every `Partition` event since the last `HealPartition`, which
    /// restores them all.
    pub partitioned_links: Vec<(NodeId, NodeId)>,
    /// Victims of each flapping link, resolved on its first down-phase so every
    /// subsequent phase of the same flap hits the same links.
    flap_targets: BTreeMap<u32, Vec<(NodeId, NodeId)>>,
}

impl FaultContext {
    /// Creates a context for one seeded run. Equal seeds resolve selectors to equal
    /// victims.
    pub fn new(seed: u64) -> Self {
        FaultContext {
            rng: Rng::seed_from_u64(seed ^ 0x5CEA_A210),
            injector: FaultInjector::new(seed ^ 0xFA17),
            last_failed_links: Vec::new(),
            last_failed_controller: None,
            last_failed_switch: None,
            last_degraded_links: Vec::new(),
            partitioned_links: Vec::new(),
            flap_targets: BTreeMap::new(),
        }
    }

    /// Applies one event to `net`, resolving selectors, and returns a human-readable
    /// description of everything that was actually done — nothing for an event that
    /// changed nothing (no victim resolved, no link to remove, no override to clear,
    /// no link cut or healed), which is how `sdn-serve` tells a no-op request from
    /// an applied one.
    pub fn apply(&mut self, net: &mut SdnNetwork, event: &FaultEvent) -> Vec<String> {
        let mut done = Vec::new();
        match event {
            FaultEvent::FailController(selector) => {
                for victim in self.resolve_controllers(net, *selector) {
                    net.fail_controller(victim);
                    self.last_failed_controller = Some(victim);
                    done.push(format!("fail-stop controller {victim}"));
                }
            }
            FaultEvent::FailSwitch(selector) => {
                if let Some(victim) = self.resolve_switch(net, *selector) {
                    net.fail_switch(victim);
                    self.last_failed_switch = Some(victim);
                    done.push(format!("fail-stop switch {victim}"));
                }
            }
            FaultEvent::RemoveLink(selector) => {
                for (a, b) in self.resolve_links(net, *selector) {
                    if net.remove_link(a, b) {
                        done.push(format!("remove link {a}-{b}"));
                    }
                }
            }
            FaultEvent::FailLink(selector) => {
                let links = self.resolve_links(net, *selector);
                if !links.is_empty() {
                    self.last_failed_links = links.clone();
                }
                for (a, b) in links {
                    net.fail_link(a, b);
                    done.push(format!("fail link {a}-{b}"));
                }
            }
            FaultEvent::RestoreLink(a, b) => {
                let (a, b) = (*a, *b);
                net.restore_link(a, b);
                done.push(format!("restore link {a}-{b}"));
            }
            FaultEvent::RestoreLastFailedLinks => {
                for (a, b) in std::mem::take(&mut self.last_failed_links) {
                    net.restore_link(a, b);
                    done.push(format!("restore link {a}-{b}"));
                }
            }
            FaultEvent::AddLink(a, b) => {
                let (a, b) = (*a, *b);
                net.add_link(a, b);
                done.push(format!("add link {a}-{b}"));
            }
            FaultEvent::ReviveController(id) => {
                let id = *id;
                net.revive_controller(id);
                done.push(format!("revive controller {id}"));
            }
            FaultEvent::ReviveLastFailedController => {
                if let Some(id) = self.last_failed_controller.take() {
                    net.revive_controller(id);
                    done.push(format!("revive controller {id}"));
                }
            }
            FaultEvent::ReviveSwitch(id) => {
                let id = *id;
                net.revive_switch(id);
                done.push(format!("revive switch {id}"));
            }
            FaultEvent::ReviveLastFailedSwitch => {
                if let Some(id) = self.last_failed_switch.take() {
                    net.revive_switch(id);
                    done.push(format!("revive switch {id}"));
                }
            }
            FaultEvent::CorruptState(plan) => {
                let mutations = self.injector.corrupt(net, *plan);
                done.push(format!("corrupt state ({mutations} mutations)"));
            }
            FaultEvent::DegradeLink(selector, spec) => {
                let links = self.resolve_links(net, *selector);
                if !links.is_empty() {
                    self.last_degraded_links = links.clone();
                }
                let cfg = spec.link_config(net.default_link_config());
                let what = spec.describe();
                for (a, b) in links {
                    let known = if spec.asymmetric {
                        net.set_link_config_directed(a, b, cfg)
                    } else {
                        net.set_link_config(a, b, cfg)
                    };
                    let note = if known { "" } else { ", unknown link" };
                    done.push(format!("degrade link {a}-{b} ({what}{note})"));
                }
            }
            FaultEvent::RestoreLinkQuality(selector) => {
                for (a, b) in self.resolve_links(net, *selector) {
                    if net.clear_link_config(a, b) {
                        done.push(format!("restore link quality {a}-{b}"));
                    }
                }
            }
            FaultEvent::Partition { groups, .. } => {
                let cut = partition_cut(net, groups);
                let n_groups = match groups {
                    PartitionSpec::Halves => 2,
                    PartitionSpec::Groups(g) => g.len(),
                };
                if !cut.is_empty() {
                    done.push(format!(
                        "partition into {n_groups} groups ({} links cut)",
                        cut.len()
                    ));
                }
                // A partition applied while another is in force adds to the set the
                // next heal restores (a crossing link may be in both cuts).
                for (a, b) in cut {
                    net.fail_link(a, b);
                    if !self.partitioned_links.contains(&(a, b)) {
                        self.partitioned_links.push((a, b));
                    }
                }
            }
            FaultEvent::HealPartition => {
                let links = std::mem::take(&mut self.partitioned_links);
                if !links.is_empty() {
                    done.push(format!("heal partition ({} links restored)", links.len()));
                }
                for (a, b) in links {
                    net.restore_link(a, b);
                }
            }
            FaultEvent::FlapLink { .. } | FaultEvent::RollingControllerRestart { .. } => {
                // Compound event: `phases()` expands it. Applied directly (a
                // schedule handed around unexpanded) it does the phases due at
                // once — a flap's first down-phase, the first controller's
                // fail-stop — so the fault is at least visible.
                for (at, phase) in event.phases(u32::MAX) {
                    if at.is_zero() {
                        done.extend(self.apply(net, &phase));
                    }
                }
            }
            FaultEvent::FlapPhase {
                flap,
                selector,
                down,
            } => {
                let (flap, down) = (*flap, *down);
                let links = match self.flap_targets.get(&flap) {
                    Some(links) => links.clone(),
                    None => {
                        let links = self.resolve_links(net, *selector);
                        self.flap_targets.insert(flap, links.clone());
                        links
                    }
                };
                for (a, b) in links {
                    if down {
                        net.fail_link(a, b);
                        done.push(format!("flap link {a}-{b} down"));
                    } else {
                        net.restore_link(a, b);
                        done.push(format!("flap link {a}-{b} up"));
                    }
                }
            }
            FaultEvent::ReviveControllerIndex(i) => {
                if let Some(&id) = net.controller_ids().get(*i) {
                    net.revive_controller(id);
                    done.push(format!("revive controller {id} (rolling restart)"));
                }
            }
        }
        done
    }

    fn resolve_controllers(
        &mut self,
        net: &SdnNetwork,
        selector: ControllerSelector,
    ) -> Vec<NodeId> {
        match selector {
            ControllerSelector::Id(id) => vec![id],
            ControllerSelector::Index(i) => {
                let ids = net.controller_ids();
                ids.get(i).copied().into_iter().collect()
            }
            ControllerSelector::Random { count } => {
                let mut candidates = net.live_controller_ids();
                // Never kill every controller: the task needs at least one.
                let kill = count.min(candidates.len().saturating_sub(1));
                let mut victims = Vec::with_capacity(kill);
                for _ in 0..kill {
                    let idx = self.rng.gen_range(0..candidates.len());
                    victims.push(candidates.remove(idx));
                }
                victims
            }
        }
    }

    fn resolve_switch(&mut self, net: &SdnNetwork, selector: SwitchSelector) -> Option<NodeId> {
        match selector {
            SwitchSelector::Id(id) => Some(id),
            SwitchSelector::Random => {
                let switches = net.live_switch_ids();
                if switches.is_empty() {
                    return None;
                }
                let graph = net.sim().topology();
                let mut candidates: Vec<NodeId> = switches
                    .iter()
                    .copied()
                    .filter(|&s| {
                        let pruned = graph.without_nodes(&[s]);
                        paths::is_connected(&pruned)
                    })
                    .collect();
                if candidates.is_empty() {
                    candidates = switches;
                }
                Some(candidates[self.rng.gen_range(0..candidates.len())])
            }
        }
    }

    fn resolve_links(&mut self, net: &SdnNetwork, selector: LinkSelector) -> Vec<(NodeId, NodeId)> {
        match selector {
            LinkSelector::Between(a, b) => vec![(a, b)],
            LinkSelector::RandomSafe { count } => self.injector.random_safe_links(net, count),
            LinkSelector::MidPath(endpoints) => {
                let Some((src, dst)) = endpoints.resolve(net) else {
                    return Vec::new();
                };
                mid_path_link(net, src, dst).into_iter().collect()
            }
            LinkSelector::SameRack => {
                let Some(layout) = FatTreeLayout::detect(net.topology()) else {
                    return Vec::new();
                };
                let pod = self.rng.gen_range(0..layout.pod_count());
                let rack = self.rng.gen_range(0..layout.racks_per_pod());
                layout.rack_links(pod, rack)
            }
            LinkSelector::SamePod => {
                let Some(layout) = FatTreeLayout::detect(net.topology()) else {
                    return Vec::new();
                };
                let pod = self.rng.gen_range(0..layout.pod_count());
                layout.pod_links(pod)
            }
            LinkSelector::LastDegraded => std::mem::take(&mut self.last_degraded_links),
        }
    }
}

/// The set of `Gc` links to cut for a partition: every link whose endpoints are
/// assigned to different groups. `Halves` grows two connected regions around the
/// first two live controllers by multi-source BFS with ties to the first seed —
/// the lexicographic `(distance, seed)` assignment makes every region connected,
/// so each half keeps a working in-band control plane while partitioned.
fn partition_cut(net: &SdnNetwork, spec: &PartitionSpec) -> Vec<(NodeId, NodeId)> {
    let graph = net.sim().topology();
    let mut group: BTreeMap<NodeId, usize> = BTreeMap::new();
    match spec {
        PartitionSpec::Halves => {
            let controllers = net.live_controller_ids();
            if controllers.len() < 2 {
                return Vec::new();
            }
            let trees: Vec<paths::BfsTree> = controllers[..2]
                .iter()
                .map(|&seed| paths::BfsTree::compute(graph, seed))
                .collect();
            for node in graph.nodes() {
                let best = trees
                    .iter()
                    .enumerate()
                    .filter_map(|(i, tree)| tree.distance(node).map(|d| (d, i)))
                    .min();
                if let Some((_, i)) = best {
                    group.insert(node, i);
                }
            }
        }
        PartitionSpec::Groups(groups) => {
            for (i, members) in groups.iter().enumerate() {
                for &node in members {
                    group.entry(node).or_insert(i);
                }
            }
        }
    }
    graph
        .links()
        .filter_map(|link| {
            let (a, b) = (link.a, link.b);
            match (group.get(&a), group.get(&b)) {
                (Some(ga), Some(gb)) if ga != gb => Some((a, b)),
                _ => None,
            }
        })
        .collect()
}

/// The link closest to the middle of the current in-band path from `src` to `dst`,
/// preferring links whose removal keeps the topology connected (the paper chooses a
/// link "such that it enables a backup path").
pub fn mid_path_link(net: &SdnNetwork, src: NodeId, dst: NodeId) -> Option<(NodeId, NodeId)> {
    let operational = net.sim().operational_graph();
    let path = legitimacy::route_in_band(net, operational, src, dst)?;
    if path.len() < 2 {
        return None;
    }
    let mid = path.len() / 2;
    // Try the middle link first, then walk outwards until a safe link is found.
    let mut candidates: Vec<usize> = (0..path.len() - 1).collect();
    candidates.sort_by_key(|&i| i.abs_diff(mid.saturating_sub(1)));
    for i in candidates {
        let (a, b) = (path[i], path[i + 1]);
        let mut graph = net.sim().topology().clone();
        graph.remove_link(a, b);
        if paths::is_connected(&graph) {
            return Some((a, b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_topology::builders;

    fn bootstrapped() -> SdnNetwork {
        let topology = builders::ring(5, 2);
        let mut net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 5),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(3),
        );
        net.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        net
    }

    #[test]
    fn schedule_batches_group_equal_offsets_in_order() {
        let schedule = FaultSchedule::new()
            .at(
                SimDuration::from_secs(10),
                FaultEvent::RestoreLastFailedLinks,
            )
            .at(
                SimDuration::from_secs(5),
                FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
            )
            .at(
                SimDuration::from_secs(5),
                FaultEvent::FailController(ControllerSelector::Index(1)),
            );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, SimDuration::from_secs(5));
        assert_eq!(batches[0].1.len(), 2);
        assert!(matches!(batches[0].1[0], FaultEvent::FailLink(_)));
        assert_eq!(batches[1].0, SimDuration::from_secs(10));
        assert!(!schedule.is_empty());
        assert_eq!(schedule.len(), 3);
    }

    #[test]
    fn selectors_resolve_deterministically() {
        let net = bootstrapped();
        let mut a = FaultContext::new(9);
        let mut b = FaultContext::new(9);
        assert_eq!(
            a.resolve_controllers(&net, ControllerSelector::Random { count: 1 }),
            b.resolve_controllers(&net, ControllerSelector::Random { count: 1 }),
        );
        assert_eq!(
            a.resolve_switch(&net, SwitchSelector::Random),
            b.resolve_switch(&net, SwitchSelector::Random),
        );
        assert_eq!(
            a.resolve_links(&net, LinkSelector::RandomSafe { count: 2 }),
            b.resolve_links(&net, LinkSelector::RandomSafe { count: 2 }),
        );
    }

    #[test]
    fn random_controller_selector_never_kills_everyone() {
        let net = bootstrapped();
        let mut ctx = FaultContext::new(5);
        let victims = ctx.resolve_controllers(&net, ControllerSelector::Random { count: 99 });
        assert_eq!(victims.len(), net.controller_ids().len() - 1);
    }

    #[test]
    fn fail_and_restore_last_failed_links_round_trip() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(7);
        let done = ctx.apply(
            &mut net,
            &FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(ctx.last_failed_links.len(), 1);
        let (a, b) = ctx.last_failed_links[0];
        assert!(!net.sim().link_is_operational(a, b));
        let done = ctx.apply(&mut net, &FaultEvent::RestoreLastFailedLinks);
        assert_eq!(done.len(), 1);
        assert!(net.sim().link_is_operational(a, b));
        assert!(ctx.last_failed_links.is_empty());
    }

    #[test]
    fn mid_path_link_is_on_the_path_and_safe() {
        let net = bootstrapped();
        let (src, dst) = Endpoints::FarthestSwitches
            .resolve(&net)
            .expect("endpoints");
        let (a, b) = mid_path_link(&net, src, dst).expect("mid-path link");
        assert!(net.sim().topology().has_link(a, b));
        let mut graph = net.sim().topology().clone();
        graph.remove_link(a, b);
        assert!(paths::is_connected(&graph));
    }

    #[test]
    fn degrade_and_restore_quality_round_trip() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(13);
        let done = ctx.apply(
            &mut net,
            &FaultEvent::DegradeLink(LinkSelector::RandomSafe { count: 2 }, DegradeSpec::gray()),
        );
        assert_eq!(done.len(), 2);
        assert!(done[0].starts_with("degrade link"), "{:?}", done);
        assert!(done[0].contains("bursty loss"), "{:?}", done);
        assert_eq!(ctx.last_degraded_links.len(), 2);
        // Gray links stay operational: no failure detector fires.
        for &(a, b) in &ctx.last_degraded_links {
            assert!(net.sim().link_is_operational(a, b));
        }
        assert_eq!(net.link_config_warnings(), 0);
        let done = ctx.apply(
            &mut net,
            &FaultEvent::RestoreLinkQuality(LinkSelector::LastDegraded),
        );
        assert_eq!(done.len(), 2);
        assert!(done[0].starts_with("restore link quality"));
        assert!(ctx.last_degraded_links.is_empty());
    }

    #[test]
    fn partition_halves_cuts_and_heals() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(17);
        let done = ctx.apply(
            &mut net,
            &FaultEvent::Partition {
                groups: PartitionSpec::Halves,
                heal_after: None,
            },
        );
        assert_eq!(done.len(), 1);
        assert!(done[0].starts_with("partition into 2 groups"));
        assert!(!ctx.partitioned_links.is_empty());
        let cut = ctx.partitioned_links.clone();
        for &(a, b) in &cut {
            assert!(!net.sim().link_is_operational(a, b));
        }
        let done = ctx.apply(&mut net, &FaultEvent::HealPartition);
        assert!(done[0].starts_with("heal partition"));
        for &(a, b) in &cut {
            assert!(net.sim().link_is_operational(a, b));
        }
        assert!(ctx.partitioned_links.is_empty());
    }

    #[test]
    fn explicit_partition_groups_cut_only_crossing_links() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(19);
        // ring(5, 2): controllers 0-1, switches 2-6 in a ring with the controllers
        // attached. Split one switch off from everything else.
        let all: Vec<NodeId> = net.topology().graph.nodes().collect();
        let lone = net.topology().switches[0];
        let rest: Vec<NodeId> = all.iter().copied().filter(|&n| n != lone).collect();
        ctx.apply(
            &mut net,
            &FaultEvent::Partition {
                groups: PartitionSpec::Groups(vec![vec![lone], rest]),
                heal_after: None,
            },
        );
        assert_eq!(
            ctx.partitioned_links.len(),
            net.topology().graph.degree(lone)
        );
        for &(a, b) in &ctx.partitioned_links {
            assert!(a == lone || b == lone);
        }
    }

    #[test]
    fn overlapping_partitions_heal_every_cut_link() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(21);
        // Adjacent ring switches split off one after the other: the link between
        // them is in both cuts, and the second partition lands before the first heals.
        let all: Vec<NodeId> = net.topology().graph.nodes().collect();
        let split_off = |lone: NodeId| {
            let rest = all.iter().copied().filter(|&n| n != lone).collect();
            PartitionSpec::Groups(vec![vec![lone], rest])
        };
        let switches = net.topology().switches.clone();
        let schedule = FaultSchedule::new()
            .at(
                SimDuration::from_secs(1),
                FaultEvent::Partition {
                    groups: split_off(switches[0]),
                    heal_after: Some(SimDuration::from_secs(6)),
                },
            )
            .at(
                SimDuration::from_secs(3),
                FaultEvent::Partition {
                    groups: split_off(switches[1]),
                    heal_after: Some(SimDuration::from_secs(2)),
                },
            );
        let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
        for (_, events) in schedule.batches() {
            for event in &events {
                ctx.apply(&mut net, event);
                cut.extend(ctx.partitioned_links.iter().copied());
            }
        }
        cut.sort();
        cut.dedup();
        let degrees =
            net.topology().graph.degree(switches[0]) + net.topology().graph.degree(switches[1]);
        assert_eq!(cut.len(), degrees - 1, "the shared link is cut once");
        for &(a, b) in &cut {
            assert!(net.sim().link_is_operational(a, b), "{a}-{b} never healed");
        }
        assert!(ctx.partitioned_links.is_empty());
    }

    #[test]
    fn faults_that_change_nothing_describe_nothing() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(25);
        let (a, b) = (net.topology().switches[0], net.topology().switches[2]);
        assert!(!net.sim().topology().has_link(a, b));
        let between = LinkSelector::Between(a, b);
        assert!(ctx
            .apply(&mut net, &FaultEvent::RemoveLink(between))
            .is_empty());
        assert!(ctx
            .apply(&mut net, &FaultEvent::RestoreLinkQuality(between))
            .is_empty());
        // Likewise a partition that cuts nothing, and a heal with none in force.
        let apart = FaultEvent::Partition {
            groups: PartitionSpec::Groups(vec![vec![a], vec![b]]),
            heal_after: None,
        };
        assert!(ctx.apply(&mut net, &apart).is_empty());
        assert!(ctx.apply(&mut net, &FaultEvent::HealPartition).is_empty());
    }

    #[test]
    fn flap_link_expands_into_phase_batches() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(2),
            FaultEvent::FlapLink {
                selector: LinkSelector::RandomSafe { count: 1 },
                period: SimDuration::from_secs(4),
                count: 3,
            },
        );
        let batches = schedule.batches();
        // 3 flaps × (down + up) = 6 batches at 2, 4, 6, 8, 10, 12 s.
        assert_eq!(batches.len(), 6);
        for (i, (offset, events)) in batches.iter().enumerate() {
            assert_eq!(*offset, SimDuration::from_secs(2 + 2 * i as u64));
            assert_eq!(events.len(), 1);
            match &events[0] {
                FaultEvent::FlapPhase { flap, down, .. } => {
                    assert_eq!(*flap, 0);
                    assert_eq!(*down, i % 2 == 0);
                }
                other => panic!("expected FlapPhase, got {other:?}"),
            }
        }
    }

    #[test]
    fn flap_phases_hit_the_same_link_every_cycle() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(23);
        let selector = LinkSelector::RandomSafe { count: 1 };
        let down = |ctx: &mut FaultContext, net: &mut SdnNetwork| {
            ctx.apply(
                net,
                &FaultEvent::FlapPhase {
                    flap: 7,
                    selector,
                    down: true,
                },
            )
        };
        let first = down(&mut ctx, &mut net);
        ctx.apply(
            &mut net,
            &FaultEvent::FlapPhase {
                flap: 7,
                selector,
                down: false,
            },
        );
        let second = down(&mut ctx, &mut net);
        assert_eq!(first, second, "the same link must flap every cycle");
    }

    #[test]
    fn rolling_restart_expands_into_fail_revive_pairs() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(1),
            FaultEvent::RollingControllerRestart {
                interval: SimDuration::from_secs(10),
                down_for: SimDuration::from_secs(4),
                count: 2,
            },
        );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].0, SimDuration::from_secs(1));
        assert!(matches!(
            batches[0].1[0],
            FaultEvent::FailController(ControllerSelector::Index(0))
        ));
        assert_eq!(batches[1].0, SimDuration::from_secs(5));
        assert!(matches!(
            batches[1].1[0],
            FaultEvent::ReviveControllerIndex(0)
        ));
        assert_eq!(batches[2].0, SimDuration::from_secs(11));
        assert!(matches!(
            batches[2].1[0],
            FaultEvent::FailController(ControllerSelector::Index(1))
        ));
        assert_eq!(batches[3].0, SimDuration::from_secs(15));
    }

    #[test]
    fn validate_states_each_structural_rule_once() {
        let quantum = SimDuration::from_millis(500);
        let n = NodeId::new;
        let flap = |period_ms, count| FaultEvent::FlapLink {
            selector: LinkSelector::Between(n(3), n(4)),
            period: SimDuration::from_millis(period_ms),
            count,
        };
        let rolling = |interval_ms, down_ms, count| FaultEvent::RollingControllerRestart {
            interval: SimDuration::from_millis(interval_ms),
            down_for: SimDuration::from_millis(down_ms),
            count,
        };
        let groups = |g: Vec<Vec<NodeId>>| FaultEvent::Partition {
            groups: PartitionSpec::Groups(g),
            heal_after: None,
        };
        let loss = |spec| FaultEvent::DegradeLink(LinkSelector::RandomSafe { count: 1 }, spec);
        let lossy_good = DegradeSpec {
            burst: Some(BurstLoss {
                loss_good: f64::NAN,
                ..BurstLoss::gilbert(0.1, 0.2, 1.0)
            }),
            ..DegradeSpec::gray()
        };
        for (event, verdict) in [
            (
                FaultEvent::AddLink(n(3), n(3)),
                Err(FaultError::SelfLoop(n(3))),
            ),
            (FaultEvent::AddLink(n(3), n(4)), Ok(())),
            (groups(vec![vec![n(2)]]), Err(FaultError::TooFewGroups)),
            (groups(vec![vec![n(2)], vec![n(5)]]), Ok(())),
            (
                loss(DegradeSpec::flat(1.5)),
                Err(FaultError::NotAProbability("loss")),
            ),
            (
                loss(lossy_good),
                Err(FaultError::NotAProbability("loss_good")),
            ),
            (loss(DegradeSpec::gray()), Ok(())),
            (flap(999, 2), Err(FaultError::FlapTooFast(quantum))),
            (flap(1_000, 2), Ok(())),
            (flap(1_000, 0), Err(FaultError::ZeroCount)),
            (
                rolling(3_000, 400, 1),
                Err(FaultError::RestartOverlap(quantum)),
            ),
            (
                rolling(3_000, 3_000, 1),
                Err(FaultError::RestartOverlap(quantum)),
            ),
            (rolling(3_000, 1_500, 1), Ok(())),
            (rolling(3_000, 1_500, 0), Err(FaultError::ZeroCount)),
        ] {
            assert_eq!(event.validate(quantum), verdict, "{event:?}");
        }
    }

    #[test]
    fn build_refuses_schedules_the_validator_refuses() {
        use crate::scenario::Scenario;
        let secs = SimDuration::from_secs;
        for event in [
            FaultEvent::RollingControllerRestart {
                interval: secs(10),
                down_for: secs(10),
                count: 2,
            },
            FaultEvent::AddLink(NodeId::new(4), NodeId::new(4)),
            FaultEvent::Partition {
                groups: PartitionSpec::Groups(vec![vec![NodeId::new(2), NodeId::new(3)]]),
                heal_after: None,
            },
        ] {
            let build = || {
                Scenario::builder("malformed")
                    .network("B4")
                    .fault_at(secs(1), event.clone())
                    .build()
            };
            let panic = std::panic::catch_unwind(build)
                .err()
                .expect("build must panic");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(message.starts_with("invalid fault schedule"), "{message}");
        }
    }

    #[test]
    fn partition_heal_after_schedules_heal_batch() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(2),
            FaultEvent::Partition {
                groups: PartitionSpec::Halves,
                heal_after: Some(SimDuration::from_secs(8)),
            },
        );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 2);
        assert!(matches!(batches[0].1[0], FaultEvent::Partition { .. }));
        assert_eq!(batches[1].0, SimDuration::from_secs(10));
        assert!(matches!(batches[1].1[0], FaultEvent::HealPartition));
    }

    #[test]
    fn rack_and_pod_selectors_resolve_on_fat_trees_only() {
        let topology = builders::fat_tree(4, 2);
        let mut net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 20),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(4),
        );
        net.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        let mut ctx = FaultContext::new(29);
        let rack = ctx.resolve_links(&net, LinkSelector::SameRack);
        // One edge switch has k/2 = 2 in-pod uplinks.
        assert_eq!(rack.len(), 2);
        let common: Vec<NodeId> = rack.iter().map(|&(_, e)| e).collect();
        assert!(
            common.windows(2).all(|w| w[0] == w[1]),
            "one rack = one edge"
        );
        let pod = ctx.resolve_links(&net, LinkSelector::SamePod);
        assert_eq!(pod.len(), 4, "k/2 * k/2 intra-pod links");
        for (a, b) in pod {
            assert!(net.sim().topology().has_link(a, b));
        }
        // Determinism: equal seeds pick equal racks.
        let mut a = FaultContext::new(31);
        let mut b = FaultContext::new(31);
        assert_eq!(
            a.resolve_links(&net, LinkSelector::SameRack),
            b.resolve_links(&net, LinkSelector::SameRack)
        );
        // Non-fat-tree topologies resolve to nothing.
        let ring_net = bootstrapped();
        assert!(ctx
            .resolve_links(&ring_net, LinkSelector::SameRack)
            .is_empty());
        assert!(ctx
            .resolve_links(&ring_net, LinkSelector::SamePod)
            .is_empty());
    }

    #[test]
    fn corrupt_state_event_reports_mutations() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(11);
        let done = ctx.apply(
            &mut net,
            &FaultEvent::CorruptState(CorruptionPlan::default()),
        );
        assert_eq!(done.len(), 1);
        assert!(done[0].starts_with("corrupt state ("));
        assert!(!net.is_legitimate());
    }
}
