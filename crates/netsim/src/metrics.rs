//! Message and byte accounting used by the communication-overhead experiments
//! (paper, Figure 9) and by the throughput experiments (Figures 15–20).

use sdn_topology::NodeId;
use std::collections::BTreeMap;

/// Per-node send/receive/failure counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages handed to the network by this node.
    pub sent: u64,
    /// Messages delivered to this node.
    pub received: u64,
    /// Bytes handed to the network by this node.
    pub bytes_sent: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// Messages this node sent that the medium lost (omission failures).
    pub dropped: u64,
    /// Extra copies delivered to this node (duplication failures).
    pub duplicated: u64,
    /// Messages this node sent that had no operational link or live destination.
    pub undeliverable: u64,
}

/// Global counters plus a per-node breakdown, maintained by the simulator.
///
/// # Example
///
/// ```
/// use sdn_netsim::metrics::NetworkMetrics;
/// use sdn_topology::NodeId;
/// let mut m = NetworkMetrics::default();
/// m.record_send(NodeId::new(0), 100);
/// m.record_delivery(NodeId::new(1), 100);
/// assert_eq!(m.total_sent(), 1);
/// assert_eq!(m.node(NodeId::new(1)).received, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkMetrics {
    per_node: BTreeMap<NodeId, NodeCounters>,
}

impl NetworkMetrics {
    /// Records a message of `bytes` bytes sent by `node`.
    pub fn record_send(&mut self, node: NodeId, bytes: usize) {
        let c = self.per_node.entry(node).or_default();
        c.sent += 1;
        c.bytes_sent += bytes as u64;
    }

    /// Records a message of `bytes` bytes delivered to `node`.
    pub fn record_delivery(&mut self, node: NodeId, bytes: usize) {
        let c = self.per_node.entry(node).or_default();
        c.received += 1;
        c.bytes_received += bytes as u64;
    }

    /// Records a message sent by `sender` and lost by the medium (omission failure).
    pub fn record_drop(&mut self, sender: NodeId) {
        self.per_node.entry(sender).or_default().dropped += 1;
    }

    /// Records an extra copy delivered to `receiver` by the medium (duplication
    /// failure).
    pub fn record_duplicate(&mut self, receiver: NodeId) {
        self.per_node.entry(receiver).or_default().duplicated += 1;
    }

    /// Records a message sent by `sender` that could not be delivered at all (no
    /// operational link to the destination, or the destination has fail-stopped).
    pub fn record_undeliverable(&mut self, sender: NodeId) {
        self.per_node.entry(sender).or_default().undeliverable += 1;
    }

    /// The counters for one node (zeroes if the node never sent or received anything).
    pub fn node(&self, node: NodeId) -> NodeCounters {
        self.per_node.get(&node).copied().unwrap_or_default()
    }

    /// Iterates over all nodes with non-zero counters.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeCounters)> + '_ {
        self.per_node.iter().map(|(&n, c)| (n, c))
    }

    /// Total messages sent by all nodes.
    pub fn total_sent(&self) -> u64 {
        self.per_node.values().map(|c| c.sent).sum()
    }

    /// Total messages delivered to all nodes.
    pub fn total_received(&self) -> u64 {
        self.per_node.values().map(|c| c.received).sum()
    }

    /// Total bytes sent by all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.values().map(|c| c.bytes_sent).sum()
    }

    /// Messages lost to omission failures, summed over all sending nodes.
    pub fn dropped(&self) -> u64 {
        self.per_node.values().map(|c| c.dropped).sum()
    }

    /// Extra copies delivered due to duplication failures, summed over all receiving
    /// nodes.
    pub fn duplicated(&self) -> u64 {
        self.per_node.values().map(|c| c.duplicated).sum()
    }

    /// Messages that had no operational link or live destination, summed over all
    /// sending nodes.
    pub fn undeliverable(&self) -> u64 {
        self.per_node.values().map(|c| c.undeliverable).sum()
    }

    /// The node that sent the most messages, with its count — the "maximum loaded
    /// controller" of the paper's Figure 9 — restricted to the given candidate set.
    pub fn max_sender_among<I>(&self, candidates: I) -> Option<(NodeId, u64)>
    where
        I: IntoIterator<Item = NodeId>,
    {
        candidates
            .into_iter()
            .map(|n| (n, self.node(n).sent))
            .max_by_key(|&(n, sent)| (sent, std::cmp::Reverse(n)))
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.per_node.clear();
    }

    /// Snapshot difference: counters in `self` minus counters in `earlier`
    /// (used to measure a single experiment phase).
    pub fn since(&self, earlier: &NetworkMetrics) -> NetworkMetrics {
        let mut out = self.clone();
        for (node, before) in earlier.per_node.iter() {
            let after = out.per_node.entry(*node).or_default();
            after.sent = after.sent.saturating_sub(before.sent);
            after.received = after.received.saturating_sub(before.received);
            after.bytes_sent = after.bytes_sent.saturating_sub(before.bytes_sent);
            after.bytes_received = after.bytes_received.saturating_sub(before.bytes_received);
            after.dropped = after.dropped.saturating_sub(before.dropped);
            after.duplicated = after.duplicated.saturating_sub(before.duplicated);
            after.undeliverable = after.undeliverable.saturating_sub(before.undeliverable);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn counters_accumulate() {
        let mut m = NetworkMetrics::default();
        m.record_send(n(0), 10);
        m.record_send(n(0), 20);
        m.record_delivery(n(1), 10);
        m.record_drop(n(0));
        m.record_duplicate(n(1));
        m.record_undeliverable(n(2));
        assert_eq!(m.total_sent(), 2);
        assert_eq!(m.total_received(), 1);
        assert_eq!(m.total_bytes_sent(), 30);
        assert_eq!(m.node(n(0)).sent, 2);
        assert_eq!(m.node(n(1)).received, 1);
        assert_eq!(m.node(n(9)), NodeCounters::default());
        // Failures are attributed to the affected node; totals are derived sums.
        assert_eq!(m.node(n(0)).dropped, 1);
        assert_eq!(m.node(n(1)).duplicated, 1);
        assert_eq!(m.node(n(2)).undeliverable, 1);
        assert_eq!(m.node(n(1)).dropped, 0);
        assert_eq!(m.dropped(), 1);
        assert_eq!(m.duplicated(), 1);
        assert_eq!(m.undeliverable(), 1);
        assert_eq!(m.iter().count(), 3);
    }

    #[test]
    fn max_sender_among_candidates() {
        let mut m = NetworkMetrics::default();
        m.record_send(n(0), 1);
        m.record_send(n(1), 1);
        m.record_send(n(1), 1);
        m.record_send(n(5), 1);
        m.record_send(n(5), 1);
        m.record_send(n(5), 1);
        // Restricting to controllers {0, 1} ignores the busier node 5.
        assert_eq!(m.max_sender_among([n(0), n(1)]), Some((n(1), 2)));
        assert_eq!(m.max_sender_among([]), None);
    }

    #[test]
    fn since_computes_phase_difference() {
        let mut m = NetworkMetrics::default();
        m.record_send(n(0), 10);
        m.record_drop(n(0));
        let snapshot = m.clone();
        m.record_send(n(0), 10);
        m.record_send(n(2), 5);
        m.record_drop(n(0));
        let phase = m.since(&snapshot);
        assert_eq!(phase.node(n(0)).sent, 1);
        assert_eq!(phase.node(n(2)).sent, 1);
        assert_eq!(phase.node(n(0)).dropped, 1);
        assert_eq!(phase.dropped(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = NetworkMetrics::default();
        m.record_send(n(0), 10);
        m.record_drop(n(0));
        m.reset();
        assert_eq!(m.total_sent(), 0);
        assert_eq!(m.dropped(), 0);
    }
}
