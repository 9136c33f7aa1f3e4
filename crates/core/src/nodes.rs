//! Simulation node wrappers: how controllers and switches live inside `sdn-netsim`.
//!
//! [`ControllerNode`] runs the do-forever loop on a timer (the paper's *task delay*) and
//! originates in-band packets; [`SwitchNode`] applies command batches addressed to it
//! and forwards everything else hop by hop according to its own rule table. Neither node
//! type can talk to anything but its direct neighbors — the simulator enforces it — so
//! the control plane is in-band by construction.

use crate::config::HarnessConfig;
use crate::controller::Controller;
use crate::packet::{ControlPacket, PacketBody};
use sdn_netsim::{Context, Node, SimDuration, TimerId};
use sdn_switch::AbstractSwitch;
use sdn_topology::NodeId;

/// Timer identifier of the controller's do-forever loop.
const TASK_TIMER: TimerId = TimerId(1);

/// A Renaissance controller attached to the simulated network.
#[derive(Clone, Debug)]
pub struct ControllerNode {
    /// The controller state machine (the algorithm itself).
    pub controller: Controller,
    task_delay: SimDuration,
    packet_ttl: u16,
    /// Number of packets this node dropped because it had no way to route them yet.
    pub unroutable_packets: u64,
}

impl ControllerNode {
    /// Wraps a controller with the harness parameters it needs to schedule itself.
    pub fn new(controller: Controller, harness: &HarnessConfig) -> Self {
        ControllerNode {
            controller,
            task_delay: harness.task_delay,
            packet_ttl: harness.packet_ttl,
            unroutable_packets: 0,
        }
    }

    fn send_packet(
        &mut self,
        ctx: &mut Context<ControlPacket>,
        mut packet: ControlPacket,
        hint: Option<NodeId>,
    ) {
        let dst = packet.dst;
        packet.arrive_at(ctx.id());
        // Prefer the flow plan's candidates, then a direct neighbor, then the hint
        // (typically the neighbor an incoming query arrived from).
        let neighbors = ctx.neighbors();
        let first_hop = self
            .controller
            .first_hop(dst, neighbors)
            .or_else(|| neighbors.contains(&dst).then_some(dst))
            .or_else(|| hint.filter(|h| neighbors.contains(h)));
        match first_hop {
            Some(hop) => ctx.send(hop, packet),
            None => self.unroutable_packets += 1,
        }
    }
}

impl Node<ControlPacket> for ControllerNode {
    fn on_start(&mut self, ctx: &mut Context<ControlPacket>) {
        // Stagger the first iteration a little per controller so that the controllers do
        // not operate in lockstep (the paper's model is fully asynchronous).
        let stagger = SimDuration::from_micros(
            (ctx.id().index() as u64 + 1) * self.task_delay.as_micros() / 8,
        );
        ctx.schedule(stagger, TASK_TIMER);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<ControlPacket>) {
        if timer != TASK_TIMER {
            return;
        }
        let batches = self.controller.iterate(ctx.neighbors());
        for (dst, batch) in batches {
            let packet = ControlPacket::new(
                self.controller.id(),
                dst,
                self.packet_ttl,
                PacketBody::Commands(batch),
            );
            self.send_packet(ctx, packet, None);
        }
        // Jitter the next iteration by up to +/-10% so controllers never run in lockstep
        // (the paper's execution model is fully asynchronous; a perfectly periodic
        // schedule is an artifact of the simulation, not of the algorithm).
        let base = self.task_delay.as_micros().max(1);
        let jitter = (ctx.random() % (base / 5 + 1)) as i64 - (base / 10) as i64;
        let next = SimDuration::from_micros((base as i64 + jitter).max(1) as u64);
        ctx.schedule(next, TASK_TIMER);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        packet: ControlPacket,
        ctx: &mut Context<ControlPacket>,
    ) {
        if packet.dst != self.controller.id() {
            // Controllers do not forward packets; the data plane must route around them.
            self.unroutable_packets += 1;
            return;
        }
        match packet.body {
            PacketBody::Reply(reply) => self.controller.on_reply(reply),
            PacketBody::Commands(batch) => {
                // Another controller's query (Algorithm 2 line 23).
                if let Some(tag) = batch.query_tag() {
                    let reply = self.controller.on_query(batch.from, tag, ctx.neighbors());
                    let packet = ControlPacket::new(
                        self.controller.id(),
                        batch.from,
                        self.packet_ttl,
                        PacketBody::Reply(reply),
                    );
                    self.send_packet(ctx, packet, Some(from));
                }
            }
        }
    }
}

/// An abstract switch attached to the simulated network.
#[derive(Clone, Debug)]
pub struct SwitchNode {
    /// The switch state machine (rule table, manager set, meta tags).
    pub switch: AbstractSwitch,
    packet_ttl: u16,
    /// Packets dropped because no applicable rule, fallback, or bounce-back existed.
    pub undeliverable_packets: u64,
}

impl SwitchNode {
    /// Wraps an abstract switch with the harness parameters it needs.
    pub fn new(switch: AbstractSwitch, harness: &HarnessConfig) -> Self {
        SwitchNode {
            switch,
            packet_ttl: harness.packet_ttl,
            undeliverable_packets: 0,
        }
    }

    /// Forwards a packet that is not addressed to this switch (or a freshly created
    /// reply) using the data-plane rules, falling back to bounce-back when stuck.
    fn forward(&mut self, ctx: &mut Context<ControlPacket>, mut packet: ControlPacket) {
        if !packet.consume_hop() {
            self.undeliverable_packets += 1;
            return;
        }
        packet.arrive_at(self.switch.id());
        let decision = self.switch.next_hop(
            packet.src,
            packet.dst,
            &packet.visited,
            ctx.neighbors(),
            |_| true,
        );
        match decision {
            Some(hop) => ctx.send(hop, packet),
            None => {
                // Bounce back along the DFS trail (data-plane depth-first search).
                match packet.bounce_back() {
                    Some(back) if ctx.is_neighbor(back) => ctx.send(back, packet),
                    _ => self.undeliverable_packets += 1,
                }
            }
        }
    }
}

impl Node<ControlPacket> for SwitchNode {
    fn on_message(
        &mut self,
        _from: NodeId,
        packet: ControlPacket,
        ctx: &mut Context<ControlPacket>,
    ) {
        if packet.dst != self.switch.id() {
            self.forward(ctx, packet);
            return;
        }
        match packet.body {
            PacketBody::Commands(ref batch) => {
                if let Some(reply) = self.switch.apply_batch(batch, ctx.neighbors()) {
                    let reply_packet = ControlPacket::new(
                        self.switch.id(),
                        batch.from,
                        self.packet_ttl,
                        PacketBody::Reply(reply),
                    );
                    self.forward(ctx, reply_packet);
                }
            }
            PacketBody::Reply(_) => {
                // Switches never consume replies; a reply addressed to a switch can only
                // be the product of a corrupted state and is dropped.
                self.undeliverable_packets += 1;
            }
        }
    }
}

/// A node of the simulated SDN: either a controller or a switch.
#[derive(Clone, Debug)]
pub enum SdnNode {
    /// A Renaissance controller.
    Controller(ControllerNode),
    /// An abstract switch.
    Switch(SwitchNode),
}

impl SdnNode {
    /// The controller state machine, if this node is a controller.
    pub fn as_controller(&self) -> Option<&Controller> {
        match self {
            SdnNode::Controller(c) => Some(&c.controller),
            SdnNode::Switch(_) => None,
        }
    }

    /// Mutable access to the controller state machine, if this node is a controller.
    pub fn as_controller_mut(&mut self) -> Option<&mut Controller> {
        match self {
            SdnNode::Controller(c) => Some(&mut c.controller),
            SdnNode::Switch(_) => None,
        }
    }

    /// The switch state machine, if this node is a switch.
    pub fn as_switch(&self) -> Option<&AbstractSwitch> {
        match self {
            SdnNode::Switch(s) => Some(&s.switch),
            SdnNode::Controller(_) => None,
        }
    }

    /// Mutable access to the switch state machine, if this node is a switch.
    pub fn as_switch_mut(&mut self) -> Option<&mut AbstractSwitch> {
        match self {
            SdnNode::Switch(s) => Some(&mut s.switch),
            SdnNode::Controller(_) => None,
        }
    }
}

impl Node<ControlPacket> for SdnNode {
    fn on_start(&mut self, ctx: &mut Context<ControlPacket>) {
        match self {
            SdnNode::Controller(c) => c.on_start(ctx),
            SdnNode::Switch(s) => s.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ControlPacket, ctx: &mut Context<ControlPacket>) {
        match self {
            SdnNode::Controller(c) => c.on_message(from, msg, ctx),
            SdnNode::Switch(s) => s.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<ControlPacket>) {
        match self {
            SdnNode::Controller(c) => c.on_timer(timer, ctx),
            SdnNode::Switch(s) => s.on_timer(timer, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;
    use sdn_switch::SwitchConfig;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sdn_node_accessors() {
        let harness = HarnessConfig::default();
        let controller = Controller::new(n(0), ControllerConfig::for_network(1, 2));
        let switch = AbstractSwitch::new(n(1), SwitchConfig::default());
        let mut cn = SdnNode::Controller(ControllerNode::new(controller, &harness));
        let mut sn = SdnNode::Switch(SwitchNode::new(switch, &harness));
        assert!(cn.as_controller().is_some());
        assert!(cn.as_switch().is_none());
        assert!(cn.as_controller_mut().is_some());
        assert!(sn.as_switch().is_some());
        assert!(sn.as_controller().is_none());
        assert!(sn.as_switch_mut().is_some());
    }
}
