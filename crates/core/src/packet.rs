//! The in-band control packet envelope.
//!
//! All control-plane traffic — command batches, queries, and query replies — travels
//! *through the data plane*: a packet is handed from switch to switch according to the
//! rules the controllers themselves installed. The envelope carries the source and
//! destination header fields the rules match on, a TTL, and the depth-first traversal
//! state (visited set and trail) used by the bounce-back failover of the paper's
//! building block \[6\].

use sdn_netsim::Payload;
use sdn_switch::{CommandBatch, QueryReply};
use sdn_topology::NodeId;

/// What a control packet carries.
#[derive(Clone, Debug, PartialEq)]
pub enum PacketBody {
    /// A controller-to-node command batch (switches apply it; controllers answer the
    /// trailing query and ignore the rest, per Algorithm 2 line 23).
    Commands(CommandBatch),
    /// A query reply travelling back to the querying controller.
    Reply(QueryReply),
}

impl PacketBody {
    /// Approximate payload size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            PacketBody::Commands(batch) => batch.wire_size(),
            PacketBody::Reply(reply) => reply.wire_size(),
        }
    }
}

/// An in-band control-plane packet.
///
/// # Example
///
/// ```
/// use renaissance::packet::{ControlPacket, PacketBody};
/// use sdn_switch::{CommandBatch, SwitchCommand};
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
///
/// let batch = CommandBatch::new(NodeId::new(0), vec![SwitchCommand::Query { tag: Tag::new(0, 1) }]);
/// let pkt = ControlPacket::new(NodeId::new(0), NodeId::new(7), 64, PacketBody::Commands(batch));
/// assert_eq!(pkt.src, NodeId::new(0));
/// assert_eq!(pkt.dst, NodeId::new(7));
/// assert_eq!(pkt.visited, vec![NodeId::new(0)]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ControlPacket {
    /// The node that originated the packet (matched by the rules' source field).
    pub src: NodeId,
    /// The node the packet is destined to.
    pub dst: NodeId,
    /// Remaining hops before the packet is dropped.
    pub ttl: u16,
    /// Every node the packet has visited (monotonically growing; DFS visited set).
    pub visited: Vec<NodeId>,
    /// The current DFS trail (stack); the last element is the packet's current holder,
    /// and bounce-backs pop it to return to the previous hop.
    pub trail: Vec<NodeId>,
    /// The payload.
    pub body: PacketBody,
}

impl ControlPacket {
    /// Creates a packet originating at `src` (which is recorded as already visited).
    pub fn new(src: NodeId, dst: NodeId, ttl: u16, body: PacketBody) -> Self {
        ControlPacket {
            src,
            dst,
            ttl,
            visited: vec![src],
            trail: vec![src],
            body,
        }
    }

    /// Records that the packet is now held by `node`, updating the visited set and the
    /// DFS trail. Idempotent when the node is already at the top of the trail.
    pub fn arrive_at(&mut self, node: NodeId) {
        if !self.visited.contains(&node) {
            self.visited.push(node);
        }
        if self.trail.last() != Some(&node) {
            self.trail.push(node);
        }
    }

    /// Pops the current holder off the trail and returns the node the packet should
    /// bounce back to, if any.
    pub fn bounce_back(&mut self) -> Option<NodeId> {
        self.trail.pop();
        self.trail.last().copied()
    }

    /// Decrements the TTL; returns `false` when the packet must be dropped.
    pub fn consume_hop(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        true
    }
}

impl Payload for ControlPacket {
    fn wire_size(&self) -> usize {
        // Envelope header + DFS state + payload.
        24 + self.visited.len() * 4 + self.trail.len() * 4 + self.body.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_switch::SwitchCommand;
    use sdn_tags::Tag;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn query_packet(src: u32, dst: u32, ttl: u16) -> ControlPacket {
        let batch = CommandBatch::new(
            n(src),
            vec![SwitchCommand::Query {
                tag: Tag::new(src, 1),
            }],
        );
        ControlPacket::new(n(src), n(dst), ttl, PacketBody::Commands(batch))
    }

    #[test]
    fn new_packet_starts_with_source_visited() {
        let p = query_packet(0, 5, 8);
        assert_eq!(p.visited, vec![n(0)]);
        assert_eq!(p.trail, vec![n(0)]);
        assert_eq!(p.ttl, 8);
    }

    #[test]
    fn arrival_updates_visited_and_trail_once() {
        let mut p = query_packet(0, 5, 8);
        p.arrive_at(n(3));
        p.arrive_at(n(3));
        assert_eq!(p.visited, vec![n(0), n(3)]);
        assert_eq!(p.trail, vec![n(0), n(3)]);
        p.arrive_at(n(4));
        assert_eq!(p.trail, vec![n(0), n(3), n(4)]);
    }

    #[test]
    fn bounce_back_walks_the_trail() {
        let mut p = query_packet(0, 5, 8);
        p.arrive_at(n(3));
        p.arrive_at(n(4));
        assert_eq!(p.bounce_back(), Some(n(3)));
        assert_eq!(p.bounce_back(), Some(n(0)));
        assert_eq!(p.bounce_back(), None);
    }

    #[test]
    fn ttl_consumption() {
        let mut p = query_packet(0, 5, 2);
        assert!(p.consume_hop());
        assert!(p.consume_hop());
        assert!(!p.consume_hop());
        assert_eq!(p.ttl, 0);
    }

    /// A packet copy (a duplicating link, a retransmission) carries the same rule set,
    /// not a second one.
    #[test]
    fn cloning_a_packet_shares_its_rule_set() {
        use sdn_switch::{RuleBody, RuleSet};
        let rules = |p: &ControlPacket| match &p.body {
            PacketBody::Commands(batch) => match &batch.commands[0] {
                SwitchCommand::UpdateRules { rules, .. } => rules.clone(),
                other => panic!("unexpected command {other:?}"),
            },
            PacketBody::Reply(_) => panic!("a command packet"),
        };
        let set: RuleSet = (1..=3)
            .map(|dst| RuleBody {
                dst: n(dst),
                src: None,
                prt: 255,
                fwd: n(4),
            })
            .collect();
        let update = SwitchCommand::UpdateRules {
            tag: Tag::new(0, 1),
            rules: set.clone(),
            keep_tags: vec![],
        };
        let batch = CommandBatch::new(n(0), vec![update]);
        let packet = ControlPacket::new(n(0), n(5), 8, PacketBody::Commands(batch));
        let copy = packet.clone();
        assert_eq!(copy, packet);
        assert!(RuleSet::ptr_eq(&rules(&packet), &set));
        assert!(RuleSet::ptr_eq(&rules(&copy), &set));
        assert_eq!(copy.wire_size(), packet.wire_size());
    }

    #[test]
    fn wire_size_includes_body_and_state() {
        let p = query_packet(0, 5, 8);
        let small = p.wire_size();
        let mut big = p.clone();
        big.arrive_at(n(1));
        big.arrive_at(n(2));
        assert!(big.wire_size() > small);
        let reply = ControlPacket::new(
            n(5),
            n(0),
            8,
            PacketBody::Reply(QueryReply::from_controller(
                n(5),
                vec![n(1)],
                Tag::new(0, 1),
            )),
        );
        assert!(reply.wire_size() > 24);
    }
}
