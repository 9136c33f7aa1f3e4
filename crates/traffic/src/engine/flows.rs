//! Struct-of-arrays flow batches grouped into path classes.
//!
//! A [`FlowBatch`] holds every flow of a heavy-traffic run in two parallel arrays —
//! path class and bytes remaining, 12 B per flow. A *path class* is one distinct
//! (source, destination) pair; the batch keeps their ascending table and reads each
//! flow's endpoints through it, so the engine routes and charges load once per class.
//! There is no per-flow object and no per-flow allocation.
//!
//! Flows are stored sorted by start tick, and an epoch bucket table maps each service
//! tick to the contiguous range of flows that activate on it ([`FlowBatch::activating`]),
//! so activation is a range append instead of a scan over the whole population. The
//! same table is the only record of a flow's start tick ([`FlowBatch::start_tick`]).

use sdn_topology::NodeId;

/// One flow handed to [`FlowBatch::from_specs`], before batching.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FlowSpec {
    /// Source endpoint (a switch the sending host attaches to).
    pub src: NodeId,
    /// Destination endpoint (a switch the receiving host attaches to).
    pub dst: NodeId,
    /// Transfer size in bytes.
    pub bytes: f64,
    /// Service tick at which the flow becomes active (0 = start of the workload).
    pub start_tick: u32,
}

/// The struct-of-arrays batch of every flow in a heavy-traffic run.
///
/// # Example
///
/// ```
/// use sdn_topology::NodeId;
/// use sdn_traffic::engine::{generate, Arrival, FlowSetConfig};
///
/// let endpoints = [NodeId::new(3), NodeId::new(4), NodeId::new(5)];
/// let config = FlowSetConfig {
///     arrival: Arrival::Uniform { over_ticks: 2 },
///     ..FlowSetConfig::stress(10)
/// };
/// let batch = generate(&endpoints, &config, 7);
/// assert_eq!(batch.len(), 10);
/// // Flows are ordered by start tick; epoch buckets address them by tick.
/// let (first, second) = (batch.activating(0), batch.activating(1));
/// assert_eq!((first.start, first.end), (0, second.start));
/// assert_eq!(second.end, 10);
/// assert_eq!(batch.activating(7), 10..10);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowBatch {
    /// Path class per flow: an index into `classes`.
    class: Vec<u32>,
    /// Bytes still to deliver per flow (the transfer size until the flow activates).
    remaining: Vec<f64>,
    /// Distinct (source, destination slot) pairs, ascending by destination, source.
    classes: Vec<(NodeId, u32)>,
    /// Distinct destination endpoints, ascending; a class's slot indexes this.
    destinations: Vec<NodeId>,
    /// Epoch buckets: `buckets[t]..buckets[t + 1]` is the flow range activating at
    /// tick `t`. Length `last_tick + 2`.
    buckets: Vec<u32>,
}

impl FlowBatch {
    /// Batches a set of flows: sorts them by start tick (stable, so list order breaks
    /// ties deterministically), groups them into path classes, and builds the epoch
    /// bucket table.
    #[cfg(test)]
    pub(crate) fn from_specs(specs: Vec<FlowSpec>) -> Self {
        let endpoints: Vec<NodeId> = specs.iter().flat_map(|f| [f.src, f.dst]).collect();
        let mut batch = BatchBuilder::new(&endpoints, specs.len());
        for (k, f) in specs.iter().enumerate() {
            batch.push(2 * k, 2 * k + 1, f.bytes, f.start_tick);
        }
        batch.finish()
    }

    /// Number of flows in the batch.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Returns `true` when the batch holds no flows.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// The distinct destination endpoints, ascending. The engine runs one route
    /// search per entry.
    pub fn destinations(&self) -> &[NodeId] {
        &self.destinations
    }

    /// The path classes: distinct (source, destination slot) pairs, ascending by
    /// destination, then source. The engine resolves and charges one path per entry.
    pub fn classes(&self) -> &[(NodeId, u32)] {
        &self.classes
    }

    /// The contiguous range of flow indices that activate at `tick` (empty past the
    /// last bucket).
    pub fn activating(&self, tick: u32) -> std::ops::Range<usize> {
        let t = tick as usize;
        if t + 1 >= self.buckets.len() {
            return self.len()..self.len();
        }
        self.buckets[t] as usize..self.buckets[t + 1] as usize
    }

    /// Path class of flow `i` (index into [`FlowBatch::classes`]).
    pub fn class(&self, i: usize) -> u32 {
        self.class[i]
    }

    /// Source endpoint of flow `i`.
    #[cfg(test)]
    pub(crate) fn src(&self, i: usize) -> NodeId {
        self.classes[self.class[i] as usize].0
    }

    /// Destination endpoint of flow `i`.
    #[cfg(test)]
    pub(crate) fn dst(&self, i: usize) -> NodeId {
        self.destinations[self.dst_slot(i) as usize]
    }

    /// Destination slot of flow `i` (index into [`FlowBatch::destinations`]).
    #[cfg(test)]
    pub(crate) fn dst_slot(&self, i: usize) -> u32 {
        self.classes[self.class[i] as usize].1
    }

    /// Bytes flow `i` still has to deliver.
    pub fn remaining(&self, i: usize) -> f64 {
        self.remaining[i]
    }

    /// Decrements flow `i`'s remaining bytes by `delivered`, returning the bytes that
    /// actually counted (never below zero).
    pub fn deliver(&mut self, i: usize, delivered: f64) -> f64 {
        let counted = delivered.min(self.remaining[i]);
        self.remaining[i] -= counted;
        counted
    }

    /// Activation tick of flow `i`: the epoch bucket whose range holds `i`.
    pub fn start_tick(&self, i: usize) -> u32 {
        (self.buckets.partition_point(|&b| b as usize <= i) - 1) as u32
    }
}

/// Lays flows pushed in generation order out as a [`FlowBatch`]: the one
/// construction path behind [`super::generate`].
pub(super) struct BatchBuilder {
    /// Distinct endpoints, ascending.
    nodes: Vec<NodeId>,
    /// Per entry of the caller's endpoint list: its position in `nodes`.
    rank: Vec<u32>,
    /// Per (destination rank, source rank) pair: `u32::MAX` while no flow uses it.
    /// Quadratic in the distinct endpoints (4 MB at 1 024 of them).
    pair_class: Vec<u32>,
    /// Per pushed flow: its index into `pair_class`, then its path class.
    pair: Vec<u32>,
    bytes: Vec<f64>,
    /// Per pushed flow: its start tick, then its position in the batch.
    start_tick: Vec<u32>,
}

impl BatchBuilder {
    /// A builder over `endpoints` (duplicates allowed) with room for `flows` flows.
    pub(super) fn new(endpoints: &[NodeId], flows: usize) -> Self {
        let mut nodes = endpoints.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let rank = endpoints
            .iter()
            .map(|e| nodes.partition_point(|n| n < e) as u32)
            .collect();
        BatchBuilder {
            pair_class: vec![u32::MAX; nodes.len() * nodes.len()],
            nodes,
            rank,
            pair: Vec::with_capacity(flows),
            bytes: Vec::with_capacity(flows),
            start_tick: Vec::with_capacity(flows),
        }
    }

    /// Appends a flow from `endpoints[src]` to `endpoints[dst]`.
    pub(super) fn push(&mut self, src: usize, dst: usize, bytes: f64, start_tick: u32) {
        let pair = self.rank[dst] as usize * self.nodes.len() + self.rank[src] as usize;
        self.pair_class[pair] = 0;
        self.pair.push(pair as u32);
        self.bytes.push(bytes);
        self.start_tick.push(start_tick);
    }

    /// Numbers the used pairs in ascending (destination, source) order, then turns
    /// each flow's start tick into its position under a stable counting sort (push
    /// order breaks ties) and permutes the arrays in place by following that
    /// permutation's cycles. Sorted input is the identity and swaps nothing.
    pub(super) fn finish(mut self) -> FlowBatch {
        let n = self.nodes.len();
        let mut classes = Vec::new();
        let mut destinations = Vec::new();
        for (pair, class) in self.pair_class.iter_mut().enumerate() {
            if *class == u32::MAX {
                continue;
            }
            let dst = self.nodes[pair / n];
            if destinations.last() != Some(&dst) {
                destinations.push(dst);
            }
            *class = classes.len() as u32;
            classes.push((self.nodes[pair % n], destinations.len() as u32 - 1));
        }
        let last_tick = self.start_tick.iter().copied().max().unwrap_or(0);
        let mut buckets = vec![0u32; last_tick as usize + 2];
        for &t in &self.start_tick {
            buckets[t as usize + 1] += 1;
        }
        for t in 1..buckets.len() {
            buckets[t] += buckets[t - 1];
        }
        let mut next = buckets.clone();
        for (pair, at) in self.pair.iter_mut().zip(&mut self.start_tick) {
            *pair = self.pair_class[*pair as usize];
            let t = *at as usize;
            (*at, next[t]) = (next[t], next[t] + 1);
        }
        for i in 0..self.start_tick.len() {
            while self.start_tick[i] as usize != i {
                let j = self.start_tick[i] as usize;
                self.pair.swap(i, j);
                self.bytes.swap(i, j);
                self.start_tick.swap(i, j);
            }
        }
        FlowBatch {
            class: self.pair,
            remaining: self.bytes,
            classes,
            destinations,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::generators::push_flows;
    use super::super::{generate, Arrival, FanOut, FlowSetConfig};
    use super::*;

    fn spec(src: u32, dst: u32, bytes: f64, tick: u32) -> FlowSpec {
        FlowSpec {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            bytes,
            start_tick: tick,
        }
    }

    #[test]
    fn batching_sorts_by_tick_and_buckets_are_contiguous() {
        let batch = FlowBatch::from_specs(vec![
            spec(1, 2, 10.0, 3),
            spec(2, 3, 20.0, 0),
            spec(3, 4, 30.0, 3),
            spec(4, 2, 40.0, 1),
        ]);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.activating(0), 0..1);
        assert_eq!(batch.activating(1), 1..2);
        assert_eq!(batch.activating(2), 2..2);
        assert_eq!(batch.activating(3), 2..4);
        assert_eq!(batch.activating(4), 4..4);
        // Ticks ascend across the reordered arrays.
        for i in 1..batch.len() {
            assert!(batch.start_tick(i - 1) <= batch.start_tick(i));
        }
        // Ties at tick 3 keep generation order (stable sort).
        assert_eq!(batch.src(2), NodeId::new(1));
        assert_eq!(batch.src(3), NodeId::new(3));
        assert_eq!(batch.remaining(3), 30.0);
    }

    #[test]
    fn destination_slots_index_the_distinct_sorted_destinations() {
        let batch = FlowBatch::from_specs(vec![
            spec(1, 9, 1.0, 0),
            spec(2, 4, 1.0, 0),
            spec(3, 9, 1.0, 0),
            spec(1, 9, 1.0, 0),
        ]);
        assert_eq!(batch.destinations(), &[NodeId::new(4), NodeId::new(9)]);
        // One class per distinct pair, ascending by destination, then source.
        assert_eq!(
            batch.classes(),
            &[
                (NodeId::new(2), 0),
                (NodeId::new(1), 1),
                (NodeId::new(3), 1)
            ]
        );
        assert_eq!(batch.class(0), batch.class(3));
        for i in 0..batch.len() {
            assert_eq!(
                batch.destinations()[batch.dst_slot(i) as usize],
                batch.dst(i)
            );
        }
        assert_eq!(batch.src(1), NodeId::new(2));
        assert_eq!(batch.dst(2), NodeId::new(9));
    }

    #[test]
    fn delivery_clamps_at_zero_and_reports_counted_bytes() {
        let mut batch = FlowBatch::from_specs(vec![spec(1, 2, 100.0, 0)]);
        assert_eq!(batch.remaining(0), 100.0);
        assert_eq!(batch.deliver(0, 60.0), 60.0);
        assert_eq!(batch.remaining(0), 40.0);
        assert_eq!(batch.deliver(0, 60.0), 40.0);
        assert_eq!(batch.remaining(0), 0.0);
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let batch = FlowBatch::from_specs(Vec::new());
        assert!(batch.is_empty());
        assert!(batch.destinations().is_empty());
        assert!(batch.classes().is_empty());
        assert_eq!(batch.activating(0), 0..0);
    }

    /// The copying layout `finish` replaced, kept as its reference: the same class
    /// numbering and buckets, and a counting sort that writes every flow into fresh
    /// arrays. Returns the batch and each placed flow's start tick.
    fn finish_by_copy(mut builder: BatchBuilder) -> (FlowBatch, Vec<u32>) {
        let n = builder.nodes.len();
        let mut classes = Vec::new();
        let mut destinations = Vec::new();
        for (pair, class) in builder.pair_class.iter_mut().enumerate() {
            if *class == u32::MAX {
                continue;
            }
            let dst = builder.nodes[pair / n];
            if destinations.last() != Some(&dst) {
                destinations.push(dst);
            }
            *class = classes.len() as u32;
            classes.push((builder.nodes[pair % n], destinations.len() as u32 - 1));
        }
        let last_tick = builder.start_tick.iter().copied().max().unwrap_or(0);
        let mut buckets = vec![0u32; last_tick as usize + 2];
        for &t in &builder.start_tick {
            buckets[t as usize + 1] += 1;
        }
        for t in 1..buckets.len() {
            buckets[t] += buckets[t - 1];
        }
        let mut next = buckets.clone();
        let mut start_tick = vec![0; builder.pair.len()];
        let mut batch = FlowBatch {
            class: vec![0; builder.pair.len()],
            remaining: vec![0.0; builder.pair.len()],
            classes,
            destinations,
            buckets,
        };
        for (i, &t) in builder.start_tick.iter().enumerate() {
            let at = next[t as usize] as usize;
            next[t as usize] += 1;
            batch.class[at] = builder.pair_class[builder.pair[i] as usize];
            batch.remaining[at] = builder.bytes[i];
            start_tick[at] = t;
        }
        (batch, start_tick)
    }

    /// Lays the builder `build` returns out both ways and holds the in-place batch
    /// to the copy.
    fn assert_lays_out_like_the_copy(build: impl Fn() -> BatchBuilder, case: &str) {
        let (expected, ticks) = finish_by_copy(build());
        let batch = build().finish();
        assert_eq!(batch.len(), expected.len(), "{case}");
        for (i, &tick) in ticks.iter().enumerate() {
            assert_eq!(batch.class(i), expected.class(i), "{case}: flow {i}");
            assert_eq!(
                batch.remaining(i),
                expected.remaining(i),
                "{case}: flow {i}"
            );
            assert_eq!(batch.start_tick(i), tick, "{case}: flow {i}");
        }
        let last = ticks.last().copied().unwrap_or(0);
        for t in 0..=last + 1 {
            assert_eq!(
                batch.activating(t),
                expected.activating(t),
                "{case}: tick {t}"
            );
        }
        assert_eq!(batch, expected, "{case}");
    }

    #[test]
    fn in_place_layout_matches_the_copying_reference() {
        let endpoints: Vec<NodeId> = (0..12).map(NodeId::new).collect();
        let arrivals = [
            Arrival::UpFront,
            Arrival::Uniform { over_ticks: 9 },
            Arrival::Poisson {
                rate_per_tick: 30.0,
            },
        ];
        let fan_outs = [
            None,
            Some(FanOut {
                width: 3,
                request_bytes: 1e3,
            }),
        ];
        for arrival in arrivals {
            for fan_out in fan_outs {
                let config = FlowSetConfig {
                    arrival,
                    fan_out,
                    ..FlowSetConfig::stress(500)
                };
                let build = || push_flows(&endpoints, &config, 11);
                let ticks = build().start_tick;
                let sorted = ticks.windows(2).all(|w| w[0] <= w[1]);
                // Only uniform arrivals push ticks out of order: the cycles are walked.
                let uniform = matches!(arrival, Arrival::Uniform { .. });
                assert_eq!(sorted, !uniform, "{arrival:?}");
                assert_lays_out_like_the_copy(build, &format!("{arrival:?} {fan_out:?}"));
            }
        }
        assert_lays_out_like_the_copy(|| BatchBuilder::new(&endpoints, 0), "empty");
        let one = || {
            let mut one = BatchBuilder::new(&endpoints, 1);
            one.push(4, 7, 5e3, 3);
            one
        };
        assert_lays_out_like_the_copy(one, "one flow");
    }

    #[test]
    fn a_generated_batch_holds_each_flow_once() {
        // 12 B per flow and no slack: two per-flow vectors beside the three tables, and
        // each exactly as long as the batch. A new field or a grown vector fails this.
        assert_eq!(size_of::<FlowBatch>(), 5 * size_of::<Vec<u32>>());
        let endpoints: Vec<NodeId> = (0..12).map(NodeId::new).collect();
        for fan_out in [
            None,
            Some(FanOut {
                width: 2,
                request_bytes: 1e3,
            }),
        ] {
            let config = FlowSetConfig {
                arrival: Arrival::Uniform { over_ticks: 5 },
                fan_out,
                ..FlowSetConfig::stress(1_000)
            };
            let batch = generate(&endpoints, &config, 3);
            assert_eq!(batch.len() as u64, config.flow_count());
            assert_eq!(batch.class.capacity(), batch.len());
            assert_eq!(batch.remaining.capacity(), batch.len());
        }
    }
}
