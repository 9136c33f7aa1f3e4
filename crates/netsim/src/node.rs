//! The node abstraction: everything that lives at a network location (a Renaissance
//! controller, an abstract switch, or a traffic host) implements [`Node`] and interacts
//! with the world only through its [`Context`] — one hop at a time, which is what makes
//! the control plane genuinely *in-band*.

use crate::time::{SimDuration, SimTime};
use sdn_topology::NodeId;
use std::fmt;

/// A message that can be carried by the simulated network.
///
/// The only requirement beyond `Clone + Debug` is a wire-size estimate, which feeds the
/// byte counters (paper, Lemma 3 discusses message sizes) and the bandwidth model.
pub trait Payload: Clone + fmt::Debug {
    /// Estimated size of this message on the wire, in bytes.
    fn wire_size(&self) -> usize {
        128
    }
}

impl Payload for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Payload for u64 {}
impl Payload for () {}

/// Identifier of a timer registered by a node; the meaning of the value is private to
/// the node that scheduled it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerId(pub u64);

/// The behaviour of a simulated node.
///
/// Each callback receives a [`Context`] through which the node can inspect local
/// information (its identifier, the simulated time, the neighbors its local topology
/// discovery currently reports) and produce effects (send a message to a *direct
/// neighbor*, arm a timer). Effects are applied by the simulator after the callback
/// returns, matching the paper's atomic-step execution model (Section 3.2).
pub trait Node<M: Payload> {
    /// Called once when the simulation starts (or when the node is added to a running
    /// simulation). Typically used to arm the first do-forever-loop timer.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from a direct neighbor is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);

    /// Called when a previously scheduled timer fires.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<M>) {}
}

/// The interface a node uses to observe and affect the network during a callback.
///
/// Sends are restricted to direct neighbors: the simulator refuses to deliver a message
/// to a node that is not adjacent in the current connected topology, so multi-hop
/// communication *must* go through switch forwarding — the in-band constraint at the
/// heart of the paper.
#[derive(Debug)]
pub struct Context<M: Payload> {
    node: NodeId,
    now: SimTime,
    /// Lent by the simulator for the duration of the callback and moved back
    /// afterwards (see `Simulator::run_callback`).
    pub(crate) neighbors: Vec<NodeId>,
    random: u64,
    pub(crate) outbox: Vec<(NodeId, M)>,
    pub(crate) timers: Vec<(SimDuration, TimerId)>,
}

impl<M: Payload> Context<M> {
    #[cfg(test)]
    pub(crate) fn new(node: NodeId, now: SimTime, neighbors: Vec<NodeId>, random: u64) -> Self {
        Context::with_buffers(node, now, neighbors, random, Vec::new(), Vec::new())
    }

    /// Like [`Context::new`], but the effect buffers are lent by the caller (the
    /// simulator recycles one outbox/timer pair across all callbacks of a run, so
    /// the hot loop allocates nothing per event).
    pub(crate) fn with_buffers(
        node: NodeId,
        now: SimTime,
        neighbors: Vec<NodeId>,
        random: u64,
        outbox: Vec<(NodeId, M)>,
        timers: Vec<(SimDuration, TimerId)>,
    ) -> Self {
        debug_assert!(outbox.is_empty() && timers.is_empty());
        Context {
            node,
            now,
            neighbors,
            random,
            outbox,
            timers,
        }
    }

    /// The identifier of the node this callback runs at.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The neighbors currently reported by the local topology-discovery mechanism
    /// (the paper's `Nc(i)` as observed through the Theta failure detector): failed
    /// links and fail-stopped neighbors disappear after the configured detection delay.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Returns `true` when `other` is currently observed as a direct neighbor.
    pub fn is_neighbor(&self, other: NodeId) -> bool {
        self.neighbors.contains(&other)
    }

    /// A pseudo-random value drawn by the simulator for this callback, usable for
    /// symmetry breaking without giving nodes access to a full RNG.
    pub fn random(&self) -> u64 {
        self.random
    }

    /// Sends `msg` to the direct neighbor `to`.
    ///
    /// The message is silently discarded (and counted as undeliverable) if `to` is not
    /// an operational direct neighbor when the send is processed.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends a copy of `msg` to every currently observed neighbor, in ascending
    /// identifier order — the borrow-friendly replacement for the old
    /// `for n in ctx.neighbors().to_vec() { ctx.send(n, msg.clone()) }` idiom.
    pub fn broadcast(&mut self, msg: M) {
        for i in 0..self.neighbors.len() {
            let to = self.neighbors[i];
            self.outbox.push((to, msg.clone()));
        }
    }

    /// Arms a timer that fires after `delay`; the timer identifier is passed back to
    /// [`Node::on_timer`].
    pub fn schedule(&mut self, delay: SimDuration, timer: TimerId) {
        self.timers.push((delay, timer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_default_sizes() {
        assert_eq!(42u64.wire_size(), 128);
        assert_eq!(().wire_size(), 128);
        assert_eq!("abcd".to_string().wire_size(), 4);
        assert_eq!(vec![0u8; 9].wire_size(), 9);
    }

    #[test]
    fn context_accessors_and_effects() {
        let mut ctx: Context<u64> = Context::new(
            NodeId::new(3),
            SimTime::from_secs(2),
            vec![NodeId::new(1), NodeId::new(2)],
            77,
        );
        assert_eq!(ctx.id(), NodeId::new(3));
        assert_eq!(ctx.now(), SimTime::from_secs(2));
        assert_eq!(ctx.neighbors().len(), 2);
        assert!(ctx.is_neighbor(NodeId::new(1)));
        assert!(!ctx.is_neighbor(NodeId::new(9)));
        assert_eq!(ctx.random(), 77);
        ctx.send(NodeId::new(1), 5);
        ctx.send(NodeId::new(2), 6);
        ctx.schedule(SimDuration::from_millis(10), TimerId(1));
        assert_eq!(ctx.outbox.len(), 2);
        assert_eq!(ctx.timers.len(), 1);
    }
}
