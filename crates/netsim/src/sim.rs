//! The discrete-event simulator that ties topology, links, faults, and nodes together.
//!
//! A [`Simulator`] owns the ground-truth connected topology `Gc`, the operational state
//! of every link and node, the event queue, and the node state machines. The harness in
//! the `renaissance` crate drives it: run for a while, inject faults, check the
//! legitimacy predicate, repeat.
//!
//! # Performance architecture
//!
//! The hot loop is pop-event → run-callback → push-effects, millions of times per
//! campaign cell, so every structure on that path is indexed by dense ids instead of
//! tree-ordered maps:
//!
//! - the agenda is a [`CalendarQueue`] (bucket queue over the simulated tick) holding
//!   lightweight [`EventRef`]s, not a `BinaryHeap` of whole events;
//! - event bodies live in a slab (`slots` + LIFO free list) so pushing and popping
//!   never moves payloads;
//! - deliveries on the same link at the same tick are batched into one contiguous
//!   buffer drawn from a per-run pool, so a controller's fan-out of command batches
//!   costs one agenda entry per (link, tick) instead of one per message, and a
//!   payload is only cloned when the medium duplicates it;
//! - node state machines, fail/start flags, and observed neighborhoods are dense
//!   `Vec`s indexed by the `u32` inside [`NodeId`] — the hot loop never touches a
//!   `NodeId`-keyed map.
//!
//! All of this is bit-identity-preserving: events still pop in exactly `(at, seq)`
//! order, every delivered message still draws the same RNG values in the same order,
//! and the metrics counters advance in the same sequence as the unbatched reference
//! semantics (the property tests in `tests/calendar_order.rs` and the BENCH baselines
//! both pin this down).

use crate::calendar::{CalendarQueue, EventRef};
use crate::link::{BurstState, LinkConfig, LinkStatus, TransmissionOutcome};
use crate::metrics::NetworkMetrics;
use crate::node::{Context, Node, Payload, TimerId};
use crate::time::{SimDuration, SimTime};
use sdn_rng::Rng;
use sdn_topology::ids::Link;
use sdn_topology::{Graph, NodeId};
use std::collections::BTreeMap;

/// One message scheduled inside a batched delivery event.
#[derive(Debug)]
struct BatchedMsg<M> {
    msg: M,
    bytes: usize,
    duplicate: bool,
}

/// Internal event kinds, stored out-of-line in the event slab.
#[derive(Debug)]
enum EventKind<M> {
    /// Every message crossing the link `from -> to` at one tick, in send order.
    Deliver {
        from: NodeId,
        to: NodeId,
        batch: Vec<BatchedMsg<M>>,
    },
    Timer {
        node: NodeId,
        timer: TimerId,
    },
    RefreshObservations,
}

/// Configuration of a [`Simulator`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link behaviour applied to every link unless overridden per link.
    pub default_link: LinkConfig,
    /// How long after a link/node failure (or repair) the neighbors' local topology
    /// discovery notices it. Models the paper's Theta failure detector threshold.
    pub detection_delay: SimDuration,
    /// Seed for all randomness (losses, jitter, per-callback random values).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            default_link: LinkConfig::default(),
            detection_delay: SimDuration::from_millis(50),
            seed: 0xC0FFEE,
        }
    }
}

/// A deterministic discrete-event network simulator.
///
/// Type parameters: `M` is the message type exchanged by nodes, `N` is the node state
/// machine type (usually an enum over controller / switch / host).
///
/// # Example
///
/// ```
/// use sdn_netsim::{SimConfig, Simulator};
/// use sdn_netsim::node::{Context, Node, TimerId};
/// use sdn_netsim::time::{SimDuration, SimTime};
/// use sdn_topology::{Graph, NodeId};
///
/// /// A node that forwards every received number to all its neighbors once.
/// struct Gossip { seen: bool }
/// impl Node<u64> for Gossip {
///     fn on_start(&mut self, ctx: &mut Context<u64>) {
///         if ctx.id() == NodeId::new(0) {
///             ctx.broadcast(1);
///         }
///     }
///     fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
///         if !self.seen {
///             self.seen = true;
///             ctx.broadcast(msg + 1);
///         }
///     }
/// }
///
/// let g = Graph::from_links([(NodeId::new(0), NodeId::new(1)), (NodeId::new(1), NodeId::new(2))]);
/// let mut sim = Simulator::new(&g, SimConfig::default());
/// for n in g.nodes() { sim.add_node(n, Gossip { seen: false }); }
/// sim.start();
/// sim.run_until(SimTime::from_secs(1));
/// assert!(sim.node(NodeId::new(2)).unwrap().seen);
/// ```
pub struct Simulator<M: Payload, N: Node<M>> {
    now: SimTime,
    seq: u64,
    /// The agenda: `(at, seq)`-ordered references into the event slab.
    events: CalendarQueue,
    /// Event slab: bodies stay put while their references travel the calendar.
    slots: Vec<Option<EventKind<M>>>,
    /// Free slab slots, reused LIFO (deterministic).
    free: Vec<u32>,
    /// Recycled batch buffers for delivery events.
    batch_pool: Vec<Vec<BatchedMsg<M>>>,
    /// The most recent open delivery batch: `(at, from, to, slot)`. A push that
    /// matches it appends to that batch; any other push or any pop closes it,
    /// which keeps batched messages contiguous in the original `(at, seq)` order.
    open_batch: Option<(SimTime, NodeId, NodeId, u32)>,
    /// Node state machines, dense by `NodeId` index; `None` = not registered.
    nodes: Vec<Option<N>>,
    started: Vec<bool>,
    failed: Vec<bool>,
    topology: Graph,
    /// The operational topology `Go`, maintained incrementally under every
    /// link/node status transition instead of being rebuilt per query.
    operational: Graph,
    /// Bumped whenever `Go` or the observed neighborhoods actually change;
    /// stable across no-op events. Consumers key caches on this.
    generation: u64,
    /// Total events processed by [`Simulator::step`] — the throughput numerator.
    /// Batched deliveries count one per message, like the unbatched reference.
    events_processed: u64,
    link_status: BTreeMap<Link, LinkStatus>,
    /// Link overrides per direction `(from, to)`, so a gray link can drop packets
    /// one way while staying clean the other way; absent directions use the default.
    link_overrides: BTreeMap<(NodeId, NodeId), LinkConfig>,
    /// Gilbert–Elliott state and dedicated RNG stream per burst-configured link
    /// direction. Seeded from `(config.seed, from, to, epoch)` when the override is
    /// installed, so a link's loss pattern is independent of global interleaving.
    burst_states: BTreeMap<(NodeId, NodeId), BurstState>,
    /// Bumped on every link-config change; mixed into burst-stream seeds so a link
    /// degraded, restored, and degraded again sees a fresh loss pattern.
    link_config_epoch: u64,
    /// Count of link-config calls that named a link absent from `Gc`.
    link_config_warnings: u64,
    /// Observed neighborhoods, dense by `NodeId` index; `observed_present`
    /// distinguishes "observes nothing" from "not a topology node".
    observed: Vec<Vec<NodeId>>,
    observed_present: Vec<bool>,
    /// Double buffer for [`Simulator::refresh_observations`].
    observed_scratch: Vec<Vec<NodeId>>,
    scratch_present: Vec<bool>,
    /// Reusable effect buffers lent to callbacks through [`Context`].
    outbox_buf: Vec<(NodeId, M)>,
    timers_buf: Vec<(SimDuration, TimerId)>,
    config: SimConfig,
    rng: Rng,
    metrics: NetworkMetrics,
}

impl<M: Payload, N: Node<M>> Simulator<M, N> {
    /// Creates a simulator over the connected topology `Gc`.
    pub fn new(topology: &Graph, config: SimConfig) -> Self {
        let rng = Rng::seed_from_u64(config.seed);
        let mut sim = Simulator {
            now: SimTime::ZERO,
            seq: 0,
            events: CalendarQueue::new(),
            slots: Vec::new(),
            free: Vec::new(),
            batch_pool: Vec::new(),
            open_batch: None,
            nodes: Vec::new(),
            started: Vec::new(),
            failed: Vec::new(),
            topology: topology.clone(),
            operational: topology.clone(),
            generation: 0,
            events_processed: 0,
            link_status: BTreeMap::new(),
            link_overrides: BTreeMap::new(),
            burst_states: BTreeMap::new(),
            link_config_epoch: 0,
            link_config_warnings: 0,
            observed: Vec::new(),
            observed_present: Vec::new(),
            observed_scratch: Vec::new(),
            scratch_present: Vec::new(),
            outbox_buf: Vec::new(),
            timers_buf: Vec::new(),
            config,
            rng,
            metrics: NetworkMetrics::default(),
        };
        sim.refresh_observations();
        sim
    }

    /// Grows the dense per-node vectors to cover index `i`.
    fn grow_node_tables(&mut self, i: usize) {
        if self.nodes.len() <= i {
            self.nodes.resize_with(i + 1, || None);
            self.started.resize(i + 1, false);
            self.failed.resize(i + 1, false);
        }
        if self.observed.len() <= i {
            self.observed.resize_with(i + 1, Vec::new);
            self.observed_present.resize(i + 1, false);
            self.observed_scratch.resize_with(i + 1, Vec::new);
            self.scratch_present.resize(i + 1, false);
        }
    }

    fn has_state_machine(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.as_usize())
            .is_some_and(|slot| slot.is_some())
    }

    /// Registers the state machine for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of the topology or already has a state machine.
    pub fn add_node(&mut self, id: NodeId, node: N) {
        assert!(
            self.topology.contains_node(id),
            "node {id} is not part of the topology"
        );
        let i = id.as_usize();
        self.grow_node_tables(i);
        assert!(self.nodes[i].is_none(), "node {id} registered twice");
        self.nodes[i] = Some(node);
    }

    /// Calls [`Node::on_start`] on every registered node that has not started yet.
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_some() && !self.started[i] {
                self.started[i] = true;
                // The dense index always fits: nodes are registered through NodeId.
                self.run_callback(NodeId::new(i as u32), |node, ctx| node.on_start(ctx));
            }
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ground-truth connected topology `Gc` (permanently removed links/nodes absent).
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The operational topology `Go`: `Gc` minus temporarily failed links and
    /// fail-stopped nodes.
    ///
    /// Maintained incrementally under status transitions — this accessor is O(1),
    /// not a rebuild. [`Simulator::rebuild_operational_graph`] is the from-scratch
    /// reference implementation the incremental graph is tested against.
    pub fn operational_graph(&self) -> &Graph {
        &self.operational
    }

    /// Rebuilds `Go` from scratch out of `Gc`, the link statuses, and the failed
    /// node set. Reference implementation for tests and benches; always equal to
    /// [`Simulator::operational_graph`].
    // stancheck: allow(test-only-api) — reference implementation a test compares against
    pub fn rebuild_operational_graph(&self) -> Graph {
        let mut g = Graph::new();
        for node in self.topology.nodes() {
            if !self.is_node_failed(node) {
                g.add_node(node);
            }
        }
        for link in self.topology.links() {
            if self.link_is_operational(link.a, link.b) {
                g.add_link(link.a, link.b);
            }
        }
        g
    }

    /// A counter that bumps exactly when the operational topology `Go` or the
    /// observed neighborhoods change, and stays stable across no-op events
    /// (failing an already-failed link, reviving a live node, ...). Consumers
    /// use it to dirty-track anything derived from the operational topology.
    pub fn topology_generation(&self) -> u64 {
        self.generation
    }

    /// Total number of events processed so far — deliveries, timers, and
    /// observation refreshes. The numerator of the `events_per_sec` throughput
    /// metric the bench campaign reports.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.as_usize()).and_then(Option::as_ref)
    }

    /// Mutable access to a node's state machine — this is how the harness injects
    /// *transient state corruption* (the paper's rare transient faults).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(id.as_usize()).and_then(Option::as_mut)
    }

    /// Iterates over all registered nodes in ascending identifier order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId::new(i as u32), n)))
    }

    /// The network-wide message metrics.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Resets the message metrics (e.g. at the start of a measured experiment phase).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Returns `true` when `id` has fail-stopped.
    pub fn is_node_failed(&self, id: NodeId) -> bool {
        self.failed.get(id.as_usize()).copied().unwrap_or(false)
    }

    /// Returns `true` when the link exists in `Gc`, is administratively up, and both
    /// endpoints are alive.
    pub fn link_is_operational(&self, a: NodeId, b: NodeId) -> bool {
        if !self.topology.has_link(a, b) {
            return false;
        }
        if self.is_node_failed(a) || self.is_node_failed(b) {
            return false;
        }
        self.link_status
            .get(&Link::new(a, b))
            .copied()
            .unwrap_or(LinkStatus::Up)
            .is_operational()
    }

    /// The neighbors node `id` currently *observes* through local topology discovery.
    pub fn observed(&self, id: NodeId) -> &[NodeId] {
        let i = id.as_usize();
        if self.observed_present.get(i).copied().unwrap_or(false) {
            &self.observed[i]
        } else {
            &[]
        }
    }

    /// Overrides the link behaviour of one specific link, symmetrically: both
    /// directions get `config`, replacing any per-direction override of the pair.
    /// Burst-configured overrides (re)seed the per-direction RNG streams.
    ///
    /// Returns `true` when the link exists in `Gc`. A call naming a nonexistent
    /// link still installs the override (it applies if the link is added later)
    /// but is counted in [`Simulator::link_config_warnings`].
    pub fn set_link_config(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> bool {
        self.link_config_epoch += 1;
        self.link_overrides.insert((a, b), config);
        self.link_overrides.insert((b, a), config);
        self.reseed_burst(a, b, &config);
        self.reseed_burst(b, a, &config);
        self.note_link_known(a, b)
    }

    /// Overrides the link behaviour of one *direction* only (`from -> to`),
    /// leaving the other direction as it was. This is the asymmetric gray-failure
    /// primitive: degrade one direction, leave the other clean. Returns `true` when
    /// the link exists in `Gc` (see [`Simulator::set_link_config`] for the
    /// nonexistent-link contract).
    pub fn set_link_config_directed(
        &mut self,
        from: NodeId,
        to: NodeId,
        config: LinkConfig,
    ) -> bool {
        self.link_config_epoch += 1;
        self.link_overrides.insert((from, to), config);
        self.reseed_burst(from, to, &config);
        self.note_link_known(from, to)
    }

    /// Removes the overrides of both directions of the pair, returning the link to
    /// the default behaviour. Returns `true` when at least one override was removed.
    pub fn clear_link_config(&mut self, a: NodeId, b: NodeId) -> bool {
        self.link_config_epoch += 1;
        let forward = self.link_overrides.remove(&(a, b)).is_some();
        let backward = self.link_overrides.remove(&(b, a)).is_some();
        self.burst_states.remove(&(a, b));
        self.burst_states.remove(&(b, a));
        forward || backward
    }

    /// How many link-config calls named a link absent from `Gc` so far.
    pub fn link_config_warnings(&self) -> u64 {
        self.link_config_warnings
    }

    fn note_link_known(&mut self, a: NodeId, b: NodeId) -> bool {
        let known = self.topology.has_link(a, b);
        if !known {
            self.link_config_warnings += 1;
        }
        known
    }

    /// Installs or removes the burst stream for one direction to match `config`.
    fn reseed_burst(&mut self, from: NodeId, to: NodeId, config: &LinkConfig) {
        if config.burst.is_some() {
            let seed = burst_stream_seed(self.config.seed, from, to, self.link_config_epoch);
            self.burst_states.insert((from, to), BurstState::new(seed));
        } else {
            self.burst_states.remove(&(from, to));
        }
    }

    /// The default link behaviour applied to links without an override.
    pub fn default_link_config(&self) -> LinkConfig {
        self.config.default_link
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Marks a link as temporarily failed (still part of `Gc`). Packets in flight keep
    /// their original delivery schedule; new packets are dropped.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.link_status.insert(Link::new(a, b), LinkStatus::Down);
        self.sync_operational_link(a, b);
        self.schedule_observation_refresh();
    }

    /// Restores a temporarily failed link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.link_status.insert(Link::new(a, b), LinkStatus::Up);
        self.sync_operational_link(a, b);
        self.schedule_observation_refresh();
    }

    /// Permanently removes a link from `Gc` (the paper's permanent link failure).
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> bool {
        let existed = self.topology.remove_link(a, b);
        self.link_status.remove(&Link::new(a, b));
        self.sync_operational_link(a, b);
        self.schedule_observation_refresh();
        existed
    }

    /// Adds a (new) link to `Gc`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        self.topology.add_link(a, b);
        self.link_status.insert(Link::new(a, b), LinkStatus::Up);
        // `Gc` may have gained brand-new endpoints; live ones join `Go` too.
        for node in [a, b] {
            self.grow_node_tables(node.as_usize());
            if !self.is_node_failed(node) && !self.operational.contains_node(node) {
                self.operational.add_node(node);
                self.generation += 1;
            }
        }
        self.sync_operational_link(a, b);
        self.schedule_observation_refresh();
    }

    /// Fail-stops a node: it no longer receives messages or timer callbacks, and its
    /// links become non-operational.
    pub fn fail_node(&mut self, id: NodeId) {
        let i = id.as_usize();
        self.grow_node_tables(i);
        let newly_failed = !self.failed[i];
        self.failed[i] = true;
        if newly_failed && self.operational.remove_node(id) {
            self.generation += 1;
        }
        self.schedule_observation_refresh();
    }

    /// Revives a previously fail-stopped node (its state machine is kept as-is; callers
    /// that want a fresh node should replace it via [`Simulator::replace_node`]).
    pub fn revive_node(&mut self, id: NodeId) {
        let i = id.as_usize();
        let was_failed = self.failed.get(i).copied().unwrap_or(false);
        if was_failed {
            self.failed[i] = false;
        }
        if was_failed && self.topology.contains_node(id) {
            self.operational.add_node(id);
            let peers: Vec<NodeId> = self.topology.neighbors(id).collect();
            for peer in peers {
                if self.link_is_operational(id, peer) {
                    self.operational.add_link(id, peer);
                }
            }
            self.generation += 1;
        }
        self.schedule_observation_refresh();
    }

    /// Replaces the state machine of `id` (e.g. reviving a controller with empty state),
    /// returning the previous one if it existed.
    ///
    /// Bumps the generation: a fresh state machine invalidates anything cached about
    /// the node even though `Go` itself is unchanged.
    pub fn replace_node(&mut self, id: NodeId, node: N) -> Option<N> {
        let i = id.as_usize();
        self.grow_node_tables(i);
        let prev = self.nodes[i].replace(node);
        self.started[i] = false;
        self.generation += 1;
        prev
    }

    /// Permanently removes a node and its links from the simulation.
    pub fn remove_node(&mut self, id: NodeId) {
        self.topology.remove_node(id);
        if self.operational.remove_node(id) {
            self.generation += 1;
        }
        let i = id.as_usize();
        if i < self.nodes.len() {
            self.nodes[i] = None;
            self.failed[i] = false;
            self.started[i] = false;
        }
        self.schedule_observation_refresh();
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Processes a single event, if any, and returns `true` if one was processed.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        // Popping closes the open batch: nothing may append to an event that is
        // being (or has been) delivered.
        self.open_batch = None;
        debug_assert!(ev.at >= self.now, "event from the past");
        self.now = ev.at.max(self.now);
        let Some(kind) = self.slots.get_mut(ev.slot as usize).and_then(Option::take) else {
            debug_assert!(false, "event reference to a vacant slot");
            return true;
        };
        self.free.push(ev.slot);
        match kind {
            EventKind::Deliver {
                from,
                to,
                mut batch,
            } => {
                for entry in batch.drain(..) {
                    self.events_processed += 1;
                    // The destination must still be alive; links that failed while
                    // the packet was in flight do not retroactively destroy it.
                    if self.is_node_failed(to) || !self.has_state_machine(to) {
                        // The in-flight message is lost: charged to its sender.
                        self.metrics.record_undeliverable(from);
                        continue;
                    }
                    self.metrics.record_delivery(to, entry.bytes);
                    if entry.duplicate {
                        self.metrics.record_duplicate(to);
                    }
                    let msg = entry.msg;
                    self.run_callback(to, |node, ctx| node.on_message(from, msg, ctx));
                }
                self.batch_pool.push(batch);
            }
            EventKind::Timer { node, timer } => {
                self.events_processed += 1;
                if self.is_node_failed(node) || !self.has_state_machine(node) {
                    return true;
                }
                self.run_callback(node, |n, ctx| n.on_timer(timer, ctx));
            }
            EventKind::RefreshObservations => {
                self.events_processed += 1;
                self.refresh_observations();
            }
        }
        true
    }

    /// Runs until the simulated clock reaches `deadline` (events scheduled after the
    /// deadline stay queued) and sets the clock to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.events.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn alloc_slot(&mut self, kind: EventKind<M>) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(kind);
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Some(kind));
            slot
        }
    }

    /// Pushes a non-delivery event; closes any open delivery batch so batched
    /// messages stay contiguous in the global `(at, seq)` order.
    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        self.open_batch = None;
        let slot = self.alloc_slot(kind);
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventRef { at, seq, slot });
    }

    /// Schedules one message for delivery, merging it into the open batch when it
    /// targets the same link at the same tick.
    ///
    /// Merged messages do not consume a sequence number; because the open batch is
    /// closed by any non-matching push and by any pop, the messages of one batch
    /// correspond to a gap-free run of the reference (unbatched) event order, so
    /// delivering them back-to-back is bit-identical to the old agenda.
    fn push_deliver(&mut self, at: SimTime, from: NodeId, to: NodeId, entry: BatchedMsg<M>) {
        if let Some((bat, bfrom, bto, slot)) = self.open_batch {
            if bat == at && bfrom == from && bto == to {
                if let Some(EventKind::Deliver { batch, .. }) =
                    self.slots.get_mut(slot as usize).and_then(Option::as_mut)
                {
                    batch.push(entry);
                    return;
                }
            }
        }
        let mut batch = self.batch_pool.pop().unwrap_or_default();
        batch.push(entry);
        let slot = self.alloc_slot(EventKind::Deliver { from, to, batch });
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventRef { at, seq, slot });
        self.open_batch = Some((at, from, to, slot));
    }

    /// Re-derives the operational status of the link `(a, b)` and applies the delta
    /// to the incrementally maintained `Go`, bumping the generation if it changed.
    fn sync_operational_link(&mut self, a: NodeId, b: NodeId) {
        let changed = if self.link_is_operational(a, b) {
            // Both endpoints are alive (otherwise the link is not operational), so
            // they are already nodes of `Go` and this adds only the edge.
            self.operational.add_link(a, b)
        } else {
            self.operational.remove_link(a, b)
        };
        if changed {
            self.generation += 1;
        }
    }

    fn schedule_observation_refresh(&mut self) {
        if self.config.detection_delay.is_zero() {
            self.refresh_observations();
        } else {
            let at = self.now + self.config.detection_delay;
            self.push_event(at, EventKind::RefreshObservations);
        }
    }

    fn refresh_observations(&mut self) {
        // Build the new neighborhoods into the scratch double buffer (reusing its
        // allocations), then swap only if anything actually changed: a refresh that
        // observes nothing new (e.g. scheduled by a no-op fault) must not
        // invalidate caches keyed on the generation.
        let mut scratch = std::mem::take(&mut self.observed_scratch);
        let mut scratch_present = std::mem::take(&mut self.scratch_present);
        scratch_present.iter_mut().for_each(|p| *p = false);
        let mut changed = false;
        for node in self.topology.nodes() {
            let i = node.as_usize();
            if scratch.len() <= i {
                scratch.resize_with(i + 1, Vec::new);
                scratch_present.resize(i + 1, false);
            }
            let buf = &mut scratch[i];
            buf.clear();
            buf.extend(
                self.topology
                    .neighbors(node)
                    .filter(|&peer| self.link_is_operational(node, peer)),
            );
            scratch_present[i] = true;
            if !self.observed_present.get(i).copied().unwrap_or(false) || self.observed[i] != *buf {
                changed = true;
            }
        }
        if !changed {
            // A node that vanished from the topology is also a change.
            changed = self
                .observed_present
                .iter()
                .enumerate()
                .any(|(i, &present)| present && !scratch_present.get(i).copied().unwrap_or(false));
        }
        if changed {
            if self.observed.len() < scratch.len() {
                self.observed.resize_with(scratch.len(), Vec::new);
                self.observed_present.resize(scratch_present.len(), false);
            }
            std::mem::swap(&mut self.observed, &mut scratch);
            std::mem::swap(&mut self.observed_present, &mut scratch_present);
            self.generation += 1;
        }
        self.observed_scratch = scratch;
        self.scratch_present = scratch_present;
    }

    fn link_config(&self, from: NodeId, to: NodeId) -> LinkConfig {
        let config = self.link_overrides.get(&(from, to));
        config.copied().unwrap_or(self.config.default_link)
    }

    fn run_callback<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<M>),
    {
        let i = id.as_usize();
        let Some(mut node) = self.nodes.get_mut(i).and_then(Option::take) else {
            return;
        };
        // Lend the observed-neighbor vector to the callback instead of cloning it:
        // nothing can touch `observed` while the callback runs (effects are applied
        // only after it returns), so the vector is moved out and moved back.
        let lent = self.observed_present.get(i).copied().unwrap_or(false);
        let neighbors = if lent {
            std::mem::take(&mut self.observed[i])
        } else {
            Vec::new()
        };
        let random = self.rng.next_u64();
        let outbox = std::mem::take(&mut self.outbox_buf);
        let timers = std::mem::take(&mut self.timers_buf);
        let mut ctx = Context::with_buffers(id, self.now, neighbors, random, outbox, timers);
        f(&mut node, &mut ctx);
        self.nodes[i] = Some(node);
        let Context {
            neighbors,
            mut outbox,
            mut timers,
            ..
        } = ctx;
        if lent {
            self.observed[i] = neighbors;
        }
        for (delay, timer) in timers.drain(..) {
            let at = self.now + delay;
            self.push_event(at, EventKind::Timer { node: id, timer });
        }
        self.timers_buf = timers;
        for (to, msg) in outbox.drain(..) {
            self.transmit(id, to, msg);
        }
        self.outbox_buf = outbox;
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_size();
        self.metrics.record_send(from, bytes);
        // The incrementally maintained `Go` answers the operational-link question in
        // one dense lookup; a live link implies both endpoints are alive, so the
        // only extra check is that the destination has a registered state machine.
        if from == to || !self.operational.has_link(from, to) || !self.has_state_machine(to) {
            self.metrics.record_undeliverable(from);
            return;
        }
        let config = self.link_config(from, to);
        // Burst-configured links draw every random decision from their dedicated
        // per-direction stream, so their loss pattern is a pure function of
        // (seed, link, packet index) — independent of what other links transmit.
        // Flat links keep the legacy shared-RNG draw order, bit-for-bit.
        let outcome = if config.burst.is_some() {
            let state = self.burst_states.entry((from, to)).or_insert_with(|| {
                BurstState::new(burst_stream_seed(self.config.seed, from, to, 0))
            });
            config.sample_bursty(state)
        } else {
            config.sample(&mut self.rng)
        };
        match outcome {
            TransmissionOutcome::Lost => {
                self.metrics.record_drop(from);
            }
            TransmissionOutcome::Delivered { copies, delay } => {
                let total_delay = delay + config.serialization_delay(bytes);
                let at = self.now + total_delay;
                // The common case is a single copy: move the message into the event.
                // Only medium-level duplication pays for clones, and the original
                // (non-duplicate first, duplicates after) event order is preserved.
                let mut copy = 0;
                while copy + 1 < copies {
                    self.push_deliver(
                        at,
                        from,
                        to,
                        BatchedMsg {
                            msg: msg.clone(),
                            bytes,
                            duplicate: copy > 0,
                        },
                    );
                    copy += 1;
                }
                self.push_deliver(
                    at,
                    from,
                    to,
                    BatchedMsg {
                        msg,
                        bytes,
                        duplicate: copy > 0,
                    },
                );
            }
        }
    }
}

/// Derives the seed of one link direction's burst RNG stream by mixing the run
/// seed, the directed endpoints, and the config epoch through a splitmix-style
/// finalizer. Deterministic across platforms — no hasher state involved.
fn burst_stream_seed(seed: u64, from: NodeId, to: NodeId, epoch: u64) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [from.as_usize() as u64, to.as_usize() as u64, epoch] {
        x ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 29;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo node: replies to every message with `value + 1`, and node 0 kicks things
    /// off from its start callback.
    struct Echo {
        received: Vec<(NodeId, u64)>,
        reply: bool,
    }

    impl Echo {
        fn new(reply: bool) -> Self {
            Echo {
                received: Vec::new(),
                reply,
            }
        }
    }

    impl Node<u64> for Echo {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if ctx.id() == NodeId::new(0) {
                ctx.broadcast(1);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            self.received.push((from, msg));
            // Only the very first message is answered, so exchanges stay finite.
            if self.reply && msg == 1 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<u64>) {
            // Timers are used by one test to trigger a delayed send.
            ctx.broadcast(100 + timer.0);
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn line3() -> Graph {
        Graph::from_links([(n(0), n(1)), (n(1), n(2))])
    }

    fn sim_with_echo(reply: bool) -> Simulator<u64, Echo> {
        let g = line3();
        let mut sim = Simulator::new(
            &g,
            SimConfig {
                detection_delay: SimDuration::ZERO,
                ..SimConfig::default()
            },
        );
        for node in g.nodes() {
            sim.add_node(node, Echo::new(reply));
        }
        sim
    }

    #[test]
    fn messages_flow_between_neighbors() {
        let mut sim = sim_with_echo(true);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        // 0 sent 1 to 1; 1 replied with 2.
        assert_eq!(sim.node(n(1)).unwrap().received, vec![(n(0), 1)]);
        assert_eq!(sim.node(n(0)).unwrap().received, vec![(n(1), 2)]);
        // 2 is not a neighbor of 0, so it got nothing.
        assert!(sim.node(n(2)).unwrap().received.is_empty());
        assert_eq!(sim.metrics().total_sent(), 2);
        assert_eq!(sim.metrics().total_received(), 2);
    }

    #[test]
    fn failed_link_blocks_delivery() {
        let mut sim = sim_with_echo(false);
        sim.fail_link(n(0), n(1));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        // With zero detection delay the failed link disappears from node 0's observed
        // neighborhood, so it never even tries to send.
        assert!(sim.node(n(1)).unwrap().received.is_empty());
        assert_eq!(sim.metrics().total_sent(), 0);
        assert!(!sim.link_is_operational(n(0), n(1)));
        assert!(sim.link_is_operational(n(1), n(2)));
        // Restoring the link lets later traffic through.
        sim.restore_link(n(0), n(1));
        assert!(sim.link_is_operational(n(0), n(1)));
    }

    #[test]
    fn send_to_non_neighbor_is_undeliverable() {
        /// Sends to a node two hops away, which the simulator must refuse to deliver:
        /// the control plane is in-band, multi-hop needs switch forwarding.
        struct Blind;
        impl Node<u64> for Blind {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if ctx.id() == n(0) {
                    ctx.send(n(2), 7);
                }
            }
            fn on_message(&mut self, _: NodeId, _: u64, _: &mut Context<u64>) {
                panic!("nothing should ever be delivered in this test");
            }
        }
        let g = line3();
        let mut sim: Simulator<u64, Blind> = Simulator::new(&g, SimConfig::default());
        for node in g.nodes() {
            sim.add_node(node, Blind);
        }
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().undeliverable(), 1);
        assert_eq!(sim.metrics().total_received(), 0);
    }

    #[test]
    fn failed_node_receives_nothing_and_links_go_down() {
        let mut sim = sim_with_echo(false);
        sim.fail_node(n(1));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.is_node_failed(n(1)));
        assert!(sim.node(n(1)).unwrap().received.is_empty());
        assert!(!sim.link_is_operational(n(0), n(1)));
        let go = sim.operational_graph();
        assert!(!go.contains_node(n(1)));
        assert_eq!(go.link_count(), 0);
        sim.revive_node(n(1));
        assert!(sim.link_is_operational(n(0), n(1)));
    }

    #[test]
    fn observed_neighbors_follow_detection_delay() {
        let g = line3();
        let mut sim: Simulator<u64, Echo> = Simulator::new(
            &g,
            SimConfig {
                detection_delay: SimDuration::from_millis(100),
                ..SimConfig::default()
            },
        );
        for node in g.nodes() {
            sim.add_node(node, Echo::new(false));
        }
        sim.start();
        assert_eq!(sim.observed(n(1)), [n(0), n(2)]);
        sim.fail_link(n(0), n(1));
        // Before the detection delay elapses the stale neighbor is still observed.
        assert_eq!(sim.observed(n(1)), [n(0), n(2)]);
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.observed(n(1)), [n(2)]);
    }

    #[test]
    fn permanent_removal_updates_topology() {
        let mut sim = sim_with_echo(false);
        assert!(sim.remove_link(n(1), n(2)));
        assert!(!sim.remove_link(n(1), n(2)));
        assert!(!sim.topology().has_link(n(1), n(2)));
        sim.add_link(n(0), n(2));
        assert!(sim.topology().has_link(n(0), n(2)));
        sim.remove_node(n(2));
        assert!(!sim.topology().contains_node(n(2)));
        assert!(sim.node(n(2)).is_none());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<u64> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if ctx.id() == n(0) {
                    ctx.schedule(SimDuration::from_millis(20), TimerId(2));
                    ctx.schedule(SimDuration::from_millis(10), TimerId(1));
                }
            }
            fn on_message(&mut self, _: NodeId, _: u64, _: &mut Context<u64>) {}
            fn on_timer(&mut self, timer: TimerId, _: &mut Context<u64>) {
                self.fired.push(timer.0);
            }
        }
        let g = Graph::from_links([(n(0), n(1))]);
        let mut tsim: Simulator<u64, TimerNode> = Simulator::new(&g, SimConfig::default());
        tsim.add_node(n(0), TimerNode { fired: vec![] });
        tsim.add_node(n(1), TimerNode { fired: vec![] });
        tsim.start();
        tsim.run_until(SimTime::from_secs(1));
        assert_eq!(tsim.node(n(0)).unwrap().fired, vec![1, 2]);
        assert!(tsim.node(n(1)).unwrap().fired.is_empty());
    }

    #[test]
    fn lossy_default_link_drops_packets() {
        let g = Graph::from_links([(n(0), n(1))]);
        let mut sim: Simulator<u64, Echo> = Simulator::new(
            &g,
            SimConfig {
                default_link: LinkConfig::default().with_loss(1.0),
                detection_delay: SimDuration::ZERO,
                seed: 1,
            },
        );
        sim.add_node(n(0), Echo::new(false));
        sim.add_node(n(1), Echo::new(false));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.node(n(1)).unwrap().received.is_empty());
        assert_eq!(sim.metrics().dropped(), 1);
    }

    #[test]
    fn duplicating_link_delivers_twice() {
        let g = Graph::from_links([(n(0), n(1))]);
        let mut sim: Simulator<u64, Echo> = Simulator::new(
            &g,
            SimConfig {
                default_link: LinkConfig {
                    duplication_probability: 1.0,
                    ..LinkConfig::default()
                },
                detection_delay: SimDuration::ZERO,
                seed: 1,
            },
        );
        sim.add_node(n(0), Echo::new(false));
        sim.add_node(n(1), Echo::new(false));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(n(1)).unwrap().received.len(), 2);
        assert_eq!(sim.metrics().duplicated(), 1);
    }

    #[test]
    fn run_for_advances_the_clock_exactly() {
        let mut sim = sim_with_echo(true);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let t = sim.now();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.now(), t + SimDuration::from_secs(5));
    }

    #[test]
    fn replace_node_resets_start_state() {
        let mut sim = sim_with_echo(false);
        sim.start();
        let prev = sim.replace_node(n(0), Echo::new(false));
        assert!(prev.is_some());
        // After replacement the node can be started again.
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(n(1)).unwrap().received.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not part of the topology")]
    fn add_node_outside_topology_panics() {
        let mut sim = sim_with_echo(false);
        sim.add_node(n(99), Echo::new(false));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn add_node_twice_panics() {
        let mut sim = sim_with_echo(false);
        sim.add_node(n(0), Echo::new(false));
    }

    #[test]
    fn a_new_link_brings_its_new_endpoint_into_the_topology() {
        let mut sim = sim_with_echo(false);
        sim.add_link(n(5), n(2));
        sim.add_node(n(5), Echo::new(false));
        assert!(sim.topology().has_link(n(2), n(5)));
        assert!(sim.node(n(5)).is_some());
        assert_eq!(sim.observed(n(5)), [n(2)]);
    }

    #[test]
    fn operational_graph_tracks_faults_incrementally() {
        let mut sim = sim_with_echo(false);
        assert_eq!(*sim.operational_graph(), sim.rebuild_operational_graph());
        sim.fail_link(n(0), n(1));
        assert!(!sim.operational_graph().has_link(n(0), n(1)));
        assert_eq!(*sim.operational_graph(), sim.rebuild_operational_graph());
        sim.fail_node(n(2));
        assert!(!sim.operational_graph().contains_node(n(2)));
        assert_eq!(*sim.operational_graph(), sim.rebuild_operational_graph());
        sim.restore_link(n(0), n(1));
        sim.revive_node(n(2));
        assert_eq!(*sim.operational_graph(), sim.rebuild_operational_graph());
        assert_eq!(*sim.operational_graph(), *sim.topology());
    }

    #[test]
    fn generation_is_stable_across_noop_events() {
        let mut sim = sim_with_echo(false);
        sim.run_until(SimTime::from_secs(1));
        let gen = sim.topology_generation();
        // Failing an already-missing link, reviving a live node, re-restoring an
        // up link: none of these change `Go` or the observations.
        sim.fail_link(n(0), n(2)); // not a topology link
        sim.revive_node(n(1)); // not failed
        sim.restore_link(n(0), n(1)); // already up
        sim.run_until(SimTime::from_secs(2)); // drain the scheduled refreshes
        assert_eq!(sim.topology_generation(), gen, "no-op events must not bump");
        // A real fault bumps.
        sim.fail_link(n(0), n(1));
        assert!(sim.topology_generation() > gen);
    }

    /// Deliveries that share a link and a tick are batched into one agenda entry;
    /// this must be invisible to nodes and metrics alike.
    #[test]
    fn batched_deliveries_preserve_message_order_and_counts() {
        struct Burst {
            received: Vec<u64>,
        }
        impl Node<u64> for Burst {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if ctx.id() == n(0) {
                    // Same destination, same payload size => same tick: one batch.
                    for v in 0..5 {
                        ctx.send(n(1), v);
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, msg: u64, _: &mut Context<u64>) {
                self.received.push(msg);
            }
        }
        let g = Graph::from_links([(n(0), n(1))]);
        let mut sim: Simulator<u64, Burst> = Simulator::new(&g, SimConfig::default());
        sim.add_node(n(0), Burst { received: vec![] });
        sim.add_node(n(1), Burst { received: vec![] });
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(n(1)).unwrap().received, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.metrics().total_received(), 5);
        // One message, one processed event — batching must not deflate the count.
        assert_eq!(sim.events_processed(), 5);
    }

    /// Randomized interleavings of every fault primitive: after each step the
    /// incrementally maintained `Go` must equal a from-scratch rebuild, and the
    /// generation must bump exactly when the rebuild differs from the previous one
    /// (modulo observation changes, which also legitimately bump).
    #[test]
    fn incremental_operational_graph_matches_rebuild_under_random_faults() {
        let nodes = 12u32;
        let g = Graph::from_links(
            (0..nodes).flat_map(|i| [(n(i), n((i + 1) % nodes)), (n(i), n((i + 3) % nodes))]),
        );
        for seed in 0..20u64 {
            let mut sim: Simulator<u64, Echo> = Simulator::new(
                &g,
                SimConfig {
                    detection_delay: SimDuration::from_millis(10),
                    seed,
                    ..SimConfig::default()
                },
            );
            for node in g.nodes() {
                sim.add_node(node, Echo::new(false));
            }
            let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD_BEEF);
            let mut next_id = nodes;
            for step in 0..120 {
                let a = n(rng.gen_range(0..nodes));
                let b = n(rng.gen_range(0..nodes));
                match rng.gen_range(0..8u32) {
                    0 => {
                        if a != b {
                            sim.fail_link(a, b);
                        }
                    }
                    1 => {
                        if a != b {
                            sim.restore_link(a, b);
                        }
                    }
                    2 => sim.fail_node(a),
                    3 => sim.revive_node(a),
                    4 => {
                        if a != b {
                            sim.remove_link(a, b);
                        }
                    }
                    5 => {
                        if a != b {
                            sim.add_link(a, b);
                        }
                    }
                    6 => {
                        let id = n(next_id);
                        next_id += 1;
                        sim.add_link(id, a);
                        sim.add_node(id, Echo::new(false));
                    }
                    _ => {
                        // Advance time so scheduled refreshes interleave with faults.
                        sim.run_for(SimDuration::from_millis(5));
                    }
                }
                let before = sim.topology_generation();
                assert_eq!(
                    *sim.operational_graph(),
                    sim.rebuild_operational_graph(),
                    "divergence at seed {seed} step {step}"
                );
                assert_eq!(
                    sim.topology_generation(),
                    before,
                    "reading the graph must not bump the generation"
                );
            }
            // Let every pending refresh drain and check once more.
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(*sim.operational_graph(), sim.rebuild_operational_graph());
        }
    }

    #[test]
    fn directed_override_degrades_one_direction_only() {
        let mut sim = sim_with_echo(true);
        // Kill only the reply direction 1 -> 0; requests 0 -> 1 stay clean.
        assert!(sim.set_link_config_directed(n(1), n(0), LinkConfig::default().with_loss(1.0)));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(n(1)).unwrap().received, vec![(n(0), 1)]);
        assert!(sim.node(n(0)).unwrap().received.is_empty());
        assert_eq!(sim.metrics().dropped(), 1);
        // The link never left `Gc` or `Go`: a gray link is not a failed link.
        assert!(sim.link_is_operational(n(0), n(1)));
    }

    #[test]
    fn link_config_on_unknown_link_is_counted() {
        let mut sim = sim_with_echo(false);
        assert_eq!(sim.link_config_warnings(), 0);
        assert!(sim.set_link_config(n(0), n(1), LinkConfig::default()));
        assert_eq!(sim.link_config_warnings(), 0);
        // (0, 2) is not a link of the line topology.
        assert!(!sim.set_link_config(n(0), n(2), LinkConfig::default()));
        assert!(!sim.set_link_config_directed(n(2), n(0), LinkConfig::default()));
        assert_eq!(sim.link_config_warnings(), 2);
        // Clearing reports whether anything was actually removed.
        assert!(sim.clear_link_config(n(0), n(1)));
        assert!(!sim.clear_link_config(n(0), n(1)));
        assert!(sim.clear_link_config(n(0), n(2)));
    }

    #[test]
    fn undirected_override_replaces_directed_ones() {
        let mut sim = sim_with_echo(true);
        assert!(sim.set_link_config_directed(n(1), n(0), LinkConfig::default().with_loss(1.0)));
        // The symmetric override wins over the earlier directed one: last call wins.
        assert!(sim.set_link_config(n(0), n(1), LinkConfig::default()));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(n(0)).unwrap().received, vec![(n(1), 2)]);
        assert_eq!(sim.metrics().dropped(), 0);
    }

    #[test]
    fn burst_override_drops_packets_without_leaving_gc() {
        struct Pump5;
        impl Node<u64> for Pump5 {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if ctx.id() == n(0) {
                    for v in 0..5 {
                        ctx.send(n(1), v);
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, _: u64, _: &mut Context<u64>) {
                panic!("the burst channel is pinned to the bad state: nothing arrives");
            }
        }
        let g = Graph::from_links([(n(0), n(1))]);
        let mut sim: Simulator<u64, Pump5> = Simulator::new(&g, SimConfig::default());
        sim.add_node(n(0), Pump5);
        sim.add_node(n(1), Pump5);
        // Enter the bad state before the first packet and never leave it.
        let cfg = LinkConfig::default().with_burst(crate::link::BurstLoss::gilbert(1.0, 0.0, 1.0));
        assert!(sim.set_link_config(n(0), n(1), cfg));
        let gen = sim.topology_generation();
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().dropped(), 5);
        assert!(sim.link_is_operational(n(0), n(1)));
        assert_eq!(sim.topology_generation(), gen, "gray loss must not bump Go");
    }

    /// The satellite property: a burst link's packet fates are a pure function of
    /// (seed, link, packet index). Unrelated traffic elsewhere in the network —
    /// which consumes the shared RNG through per-callback draws and flat-link
    /// sampling — must not shift a burst link's loss/jitter stream.
    #[test]
    fn burst_stream_is_independent_of_unrelated_traffic() {
        #[derive(Clone)]
        struct Pump {
            peer: Option<NodeId>,
            remaining: u32,
            received: Vec<(SimTime, u64)>,
        }
        impl Node<u64> for Pump {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if self.peer.is_some() {
                    ctx.schedule(SimDuration::from_millis(10), TimerId(0));
                }
            }
            fn on_message(&mut self, _: NodeId, msg: u64, ctx: &mut Context<u64>) {
                self.received.push((ctx.now(), msg));
            }
            fn on_timer(&mut self, _: TimerId, ctx: &mut Context<u64>) {
                let Some(peer) = self.peer else { return };
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(peer, self.remaining as u64);
                    ctx.schedule(SimDuration::from_millis(10), TimerId(0));
                }
            }
        }
        let run = |with_background: bool| -> Vec<(SimTime, u64)> {
            let g = Graph::from_links([(n(0), n(1)), (n(2), n(3))]);
            let mut sim: Simulator<u64, Pump> = Simulator::new(
                &g,
                SimConfig {
                    detection_delay: SimDuration::ZERO,
                    seed: 0xBEEF,
                    ..SimConfig::default()
                },
            );
            let idle = Pump {
                peer: None,
                remaining: 0,
                received: Vec::new(),
            };
            sim.add_node(
                n(0),
                Pump {
                    peer: Some(n(1)),
                    remaining: 200,
                    ..idle.clone()
                },
            );
            sim.add_node(n(1), idle.clone());
            sim.add_node(
                n(2),
                Pump {
                    peer: if with_background { Some(n(3)) } else { None },
                    remaining: 200,
                    ..idle.clone()
                },
            );
            sim.add_node(n(3), idle.clone());
            let gray = LinkConfig {
                jitter: SimDuration::from_micros(500),
                ..LinkConfig::default()
            }
            .with_burst(crate::link::BurstLoss::gilbert(0.1, 0.3, 0.9));
            assert!(sim.set_link_config(n(0), n(1), gray));
            // The background pair runs on a flat lossy link fed by the shared RNG.
            assert!(sim.set_link_config(n(2), n(3), LinkConfig::default().with_loss(0.5)));
            sim.start();
            sim.run_until(SimTime::from_secs(10));
            sim.node(n(1)).unwrap().received.clone()
        };
        let quiet = run(false);
        let noisy = run(true);
        assert!(!quiet.is_empty(), "some packets must survive the bursts");
        assert_eq!(
            quiet, noisy,
            "burst-link outcomes shifted with unrelated traffic"
        );
    }
}
