//! Bounded ring-buffer retention for JSON-lines streams.
//!
//! A long-running service cannot keep an unbounded [`JsonLinesSink`](crate::JsonLinesSink)
//! file growing forever, but it still wants the *recent* samples queryable — the idiom
//! of canic's paged log helpers. [`RingSink`] keeps the last `capacity` rendered lines
//! in memory, stamps each with a monotonically increasing sequence number, counts what
//! it evicts, and serves paged reads over whatever survives.

use crate::key::MetricKey;
use crate::recorder::{observation_json, Recorder};
use std::collections::VecDeque;

/// A bounded in-memory ring of rendered JSON lines with drop-count accounting.
///
/// Lines enter either through the [`Recorder`] impl (rendered exactly like
/// [`JsonLinesSink`](crate::JsonLinesSink): `{"scope":...,"metric":...,"unit":...,
/// "value":...}`) or pre-rendered through [`RingSink::push_line`]. Every line gets
/// the next sequence number; once `capacity` lines are retained, each push evicts
/// the oldest line and increments [`RingSink::dropped`]. [`RingSink::page`] serves
/// bounded reads by sequence number — the backing store of a paged `/log` endpoint.
///
/// # Example
///
/// ```
/// use sdn_metrics::{MetricKey, Recorder, RingSink};
///
/// let mut ring = RingSink::new(2);
/// for value in [1.0, 2.0, 3.0] {
///     ring.record("B4", &MetricKey::BOOTSTRAP_TIME, value);
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// let page = ring.page(0, 10);
/// assert_eq!(page.first_seq, Some(1)); // line 0 was evicted
/// assert_eq!(page.lines.len(), 2);
/// assert_eq!(page.next, 3);
/// ```
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    /// Retained `(sequence, line)` pairs, oldest first. Sequences are contiguous.
    lines: VecDeque<(u64, String)>,
    next_seq: u64,
    dropped: u64,
}

/// One paged read out of a [`RingSink`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingPage {
    /// The `(sequence, line)` pairs satisfying the request, oldest first.
    pub lines: Vec<(u64, String)>,
    /// Sequence number of the oldest retained line at read time (`None` when empty).
    pub first_seq: Option<u64>,
    /// The sequence the *next* pushed line will get — pass back as `from` to poll.
    pub next: u64,
    /// Lines evicted so far over the ring's whole lifetime.
    pub dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            lines: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends one pre-rendered line (without trailing newline), evicting the oldest
    /// retained line when full. Returns the sequence number the line was stamped with.
    pub fn push_line(&mut self, line: impl Into<String>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
            self.dropped += 1;
        }
        self.lines.push_back((seq, line.into()));
        seq
    }

    /// Lines currently retained.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The configured retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total lines evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sequence number the next pushed line will receive (also the total number
    /// of lines ever pushed).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the oldest retained line, if any.
    pub fn first_seq(&self) -> Option<u64> {
        self.lines.front().map(|(seq, _)| *seq)
    }

    /// Serves at most `limit` retained lines with sequence `>= from`, oldest first.
    /// A `from` older than retention simply starts at the oldest survivor — the
    /// page's `dropped`/`first_seq` fields let the caller detect the gap.
    pub fn page(&self, from: u64, limit: usize) -> RingPage {
        let lines = self
            .lines
            .iter()
            .skip_while(|(seq, _)| *seq < from)
            .take(limit)
            .cloned()
            .collect();
        RingPage {
            lines,
            first_seq: self.first_seq(),
            next: self.next_seq,
            dropped: self.dropped,
        }
    }
}

impl Recorder for RingSink {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
        self.push_line(observation_json(scope, key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_newest_capacity_lines_and_counts_drops() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for i in 0..10 {
            assert_eq!(ring.push_line(format!("line {i}")), i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.next_seq(), 10);
        assert_eq!(ring.first_seq(), Some(7));
    }

    #[test]
    fn pages_by_sequence_with_limit() {
        let mut ring = RingSink::new(5);
        for i in 0..8 {
            ring.push_line(format!("l{i}"));
        }
        // Retained: 3..8. A stale `from` starts at the oldest survivor.
        let page = ring.page(0, 2);
        assert_eq!(
            page.lines,
            vec![(3, "l3".to_string()), (4, "l4".to_string())]
        );
        assert_eq!(page.first_seq, Some(3));
        assert_eq!(page.next, 8);
        assert_eq!(page.dropped, 3);
        // Resuming from the middle.
        let page = ring.page(6, 10);
        assert_eq!(
            page.lines,
            vec![(6, "l6".to_string()), (7, "l7".to_string())]
        );
        // A `from` at the head returns an empty page whose `next` is the poll cursor.
        let page = ring.page(8, 10);
        assert!(page.lines.is_empty());
        assert_eq!(page.next, 8);
    }

    #[test]
    fn recorder_impl_renders_json_lines() {
        let mut ring = RingSink::new(4);
        ring.record("fat_tree(8)", &MetricKey::BOOTSTRAP_TIME, 1.5);
        ring.record("say \"hi\"", &MetricKey::BOOTSTRAP_TIME, f64::NAN);
        let page = ring.page(0, 10);
        assert_eq!(
            page.lines[0].1,
            "{\"scope\":\"fat_tree(8)\",\"metric\":\"scenario/bootstrap_s\",\"unit\":\"s\",\"value\":1.5}"
        );
        assert_eq!(
            page.lines[1].1,
            "{\"scope\":\"say \\\"hi\\\"\",\"metric\":\"scenario/bootstrap_s\",\"unit\":\"s\",\"value\":null}"
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = RingSink::new(0);
        ring.push_line("a");
        ring.push_line("b");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.page(0, 10).lines, vec![(1, "b".to_string())]);
    }
}
