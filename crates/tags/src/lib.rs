//! Self-stabilizing round-synchronization tags for the Renaissance control plane.
//!
//! Every Renaissance controller accesses the switches in *synchronization rounds*, each
//! identified by a tag that is unique system-wide during legal executions (paper,
//! Section 4.2). The paper assumes a self-stabilizing tag algorithm in the style of
//! Alon et al. \[20\]; this crate provides:
//!
//! * [`Tag`] — an owner-qualified, totally ordered tag value,
//! * [`TagGenerator`] — a practically-self-stabilizing `nextTag()` implementation: the
//!   next tag is strictly larger than every tag the controller has *observed* anywhere
//!   in the system, so even if a transient fault plants arbitrary tags in switches,
//!   channels, or the generator itself, one observation pass is enough to jump past
//!   them (the counter space of `2^64` values makes wrap-around practically
//!   unreachable, the standard "practically stabilizing" argument — but a corrupted
//!   tag *at* `u64::MAX` saturates it, a known wedge pinned by an ignored test in
//!   `tests/self_stabilization.rs`),
//! * [`bounded`] — a genuinely bounded-domain variant with explicit epoch recycling,
//!   showing how the unbounded counter can be avoided at the cost of the
//!   `Delta_synch` recovery rounds the paper accounts for; not yet used by the
//!   controller, and the candidate fix for that wedge,
//! * [`RoundTracker`] — the `currTag` / `prevTag` bookkeeping of Algorithm 2. The
//!   evaluation prototype's retention of the previous round's rules (Section 6.2) needs
//!   no third slot: the controller names `prevTag` in every `updateRule`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;

use std::fmt;

/// Number of synchronization rounds the round-synchronization machinery may need to
/// recover after a transient fault (the paper's `Delta_synch`). For this tag scheme a
/// single full observation round suffices, but we keep the constant explicit because the
/// analysis (Theorem 2) is parameterized by it.
pub const DELTA_SYNCH: usize = 1;

/// A synchronization-round tag: unique per owner during legal executions.
///
/// Tags are ordered by `(value, owner)` so that "strictly newer than anything observed"
/// is well defined across owners.
///
/// # Example
///
/// ```
/// use sdn_tags::Tag;
/// let a = Tag::new(3, 10);
/// let b = Tag::new(5, 11);
/// assert!(b > a);
/// assert_eq!(a.owner(), 3);
/// assert_eq!(a.value(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag {
    value: u64,
    owner: u32,
}

impl Tag {
    /// A tag that precedes every tag any generator will ever produce.
    pub const ZERO: Tag = Tag { value: 0, owner: 0 };

    /// Creates a tag owned by controller `owner` with the given counter value.
    pub const fn new(owner: u32, value: u64) -> Self {
        Tag { value, owner }
    }

    /// The controller that generated this tag.
    pub const fn owner(self) -> u32 {
        self.owner
    }

    /// The counter component of this tag.
    pub const fn value(self) -> u64 {
        self.value
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@c{}", self.value, self.owner)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@c{}", self.value, self.owner)
    }
}

/// Practically-self-stabilizing `nextTag()` generator.
///
/// The generator remembers the largest counter value it has produced *or observed*; the
/// next tag uses that value plus one. Feeding every tag seen in query replies back via
/// [`TagGenerator::observe`] guarantees that, one round after the last transient fault,
/// freshly generated tags are unique in the system.
///
/// # Example
///
/// ```
/// use sdn_tags::{Tag, TagGenerator};
/// let mut gen = TagGenerator::new(2);
/// let t1 = gen.next_tag();
/// gen.observe(Tag::new(9, 100)); // a (possibly corrupted) tag seen in a reply
/// let t2 = gen.next_tag();
/// assert!(t2 > t1);
/// assert!(t2.value() > 100);
/// assert_eq!(t2.owner(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagGenerator {
    owner: u32,
    last_value: u64,
}

impl TagGenerator {
    /// Creates a generator for controller `owner`.
    pub fn new(owner: u32) -> Self {
        TagGenerator {
            owner,
            last_value: 0,
        }
    }

    /// The controller this generator belongs to.
    pub fn owner(&self) -> u32 {
        self.owner
    }

    /// Incorporates a tag observed anywhere in the system (query replies, switch rules,
    /// channel contents). Future tags will be strictly larger.
    pub fn observe(&mut self, tag: Tag) {
        self.last_value = self.last_value.max(tag.value());
    }

    /// Generates the next tag: strictly larger than everything generated or observed.
    pub fn next_tag(&mut self) -> Tag {
        self.last_value = self.last_value.saturating_add(1);
        Tag::new(self.owner, self.last_value)
    }

    /// Simulates a transient fault by overwriting the internal counter (test helper).
    pub fn corrupt(&mut self, value: u64) {
        self.last_value = value;
    }
}

/// The `currTag` / `prevTag` bookkeeping of Algorithm 2.
///
/// The controller starts a new round by calling [`RoundTracker::start_round`] with a
/// fresh tag; the tracker shifts the current tag into the previous slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundTracker {
    curr: Tag,
    prev: Tag,
}

impl RoundTracker {
    /// Creates a tracker whose current and previous tags are both `initial`.
    pub fn new(initial: Tag) -> Self {
        RoundTracker {
            curr: initial,
            prev: initial,
        }
    }

    /// The current round's tag (`currTag`).
    pub fn curr(&self) -> Tag {
        self.curr
    }

    /// The previous round's tag (`prevTag`).
    pub fn prev(&self) -> Tag {
        self.prev
    }

    /// Starts a new round with `new_tag`: `prevTag <- currTag`, `currTag <- new_tag`.
    pub fn start_round(&mut self, new_tag: Tag) {
        self.prev = self.curr;
        self.curr = new_tag;
    }

    /// Simulates a transient fault corrupting the tracker (test helper).
    pub fn corrupt(&mut self, curr: Tag, prev: Tag) {
        self.curr = curr;
        self.prev = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_order_by_value_then_owner() {
        assert!(Tag::new(0, 2) > Tag::new(9, 1));
        assert!(Tag::new(2, 5) > Tag::new(1, 5));
        assert_eq!(Tag::new(1, 5), Tag::new(1, 5));
        assert_eq!(Tag::ZERO.value(), 0);
        assert_eq!(format!("{}", Tag::new(3, 7)), "t7@c3");
        assert_eq!(format!("{:?}", Tag::new(3, 7)), "t7@c3");
    }

    #[test]
    fn generator_produces_strictly_increasing_tags() {
        let mut gen = TagGenerator::new(4);
        assert_eq!(gen.owner(), 4);
        let mut last = Tag::ZERO;
        for _ in 0..100 {
            let t = gen.next_tag();
            assert!(t > last);
            assert_eq!(t.owner(), 4);
            last = t;
        }
    }

    #[test]
    fn observation_jumps_past_corrupted_tags() {
        let mut gen = TagGenerator::new(1);
        for tag in [Tag::new(2, 50), Tag::new(3, 10_000), Tag::new(1, 7)] {
            gen.observe(tag);
        }
        let t = gen.next_tag();
        assert_eq!(t.value(), 10_001);
        // Observing something older never moves the counter backwards.
        gen.observe(Tag::new(9, 3));
        assert_eq!(gen.next_tag().value(), 10_002);
    }

    #[test]
    fn generator_recovers_after_corruption() {
        let mut gen = TagGenerator::new(1);
        gen.corrupt(u64::MAX - 1);
        let t = gen.next_tag();
        assert_eq!(t.value(), u64::MAX);
        // Saturating add keeps producing the maximum rather than wrapping to stale values.
        assert_eq!(gen.next_tag().value(), u64::MAX);
    }

    #[test]
    fn two_generators_never_collide() {
        let mut a = TagGenerator::new(1);
        let mut b = TagGenerator::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            assert!(seen.insert(a.next_tag()));
            assert!(seen.insert(b.next_tag()));
        }
    }

    #[test]
    fn round_tracker_two_tag_rotation() {
        let mut gen = TagGenerator::new(0);
        let t0 = gen.next_tag();
        let mut tracker = RoundTracker::new(t0);
        assert_eq!(tracker.curr(), t0);
        assert_eq!(tracker.prev(), t0);
        let t1 = gen.next_tag();
        tracker.start_round(t1);
        assert_eq!(tracker.curr(), t1);
        assert_eq!(tracker.prev(), t0);
        let t2 = gen.next_tag();
        tracker.start_round(t2);
        assert_eq!(
            (tracker.curr(), tracker.prev()),
            (t2, t1),
            "t0 is forgotten"
        );
    }

    #[test]
    fn corrupted_tracker_can_be_overwritten() {
        let mut tracker = RoundTracker::new(Tag::new(0, 1));
        tracker.corrupt(Tag::new(5, 99), Tag::new(5, 98));
        assert_eq!(tracker.curr(), Tag::new(5, 99));
        tracker.start_round(Tag::new(0, 200));
        assert_eq!(tracker.prev(), Tag::new(5, 99));
        assert_eq!(tracker.curr(), Tag::new(0, 200));
    }
}
