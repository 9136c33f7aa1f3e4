//! Self-stabilizing round-synchronization tags for the Renaissance control plane.
//!
//! Every Renaissance controller accesses the switches in *synchronization rounds*, each
//! identified by a tag that is unique system-wide during legal executions (paper,
//! Section 4.2). The paper assumes a self-stabilizing tag algorithm in the style of
//! Alon et al. \[20\]; this crate provides:
//!
//! * [`Tag`] — an owner-qualified, totally ordered tag value,
//! * [`TagGenerator`] — a practically-self-stabilizing `nextTag()` implementation: a
//!   wrapping 64-bit counter whose next tag is larger than every tag the controller has
//!   *observed* anywhere in the system, so even if a transient fault plants arbitrary
//!   tags in switches, channels, or the generator itself, one observation pass is
//!   enough to jump past them,
//! * [`RoundTracker`] — the `currTag` / `prevTag` bookkeeping of Algorithm 2. The
//!   evaluation prototype's retention of the previous round's rules (Section 6.2) needs
//!   no third slot: the controller names `prevTag` in every `updateRule`.
//!
//! # Why a wrapping counter is enough
//!
//! The paper's bounded labeling scheme \[20\] is replaced by a 64-bit counter that
//! wraps: the successor of `u64::MAX` is 0. Tag *order* matters in one place only, the
//! generator's running maximum ([`TagGenerator::observe`], fed the largest tag in the
//! controller's replies and the rule summaries they carry). Every other use
//! compares tags for equality: a reply echoing a stale tag is ignored, a finished
//! round's replies are dropped, and a switch keeps the rules whose tag `updateRule`
//! names. So a wrapped tag costs at most a few rounds. While a tag at `u64::MAX` is
//! still in the system, observing it pulls the counter back to the top and the next
//! tag wraps again. That stops once the last such tag has left the system, which takes
//! bounded time: rules of a dead or bogus owner are deleted at the next new round, a
//! live owner's own rules are dropped once their tag is neither `currTag` nor
//! `prevTag`, stored replies are pruned, and messages in flight are delivered or lost.
//! Without a planted tag near the top, the counter would need `2^64` rounds to wrap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdn_rng::Rng;
use std::fmt;

/// The node identifiers a transient fault may write where a node is named: the
/// topology's `0..n` and the eight past it, which name no node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdRange(pub u32);

impl IdRange {
    /// One identifier of the range.
    pub fn draw(self, rng: &mut Rng) -> u32 {
        rng.gen_range(0..self.0.saturating_add(8))
    }
}

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
/// assert_eq!(a.value(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag {
    value: u64,
    owner: u32,
}

impl Tag {
    /// Creates a tag owned by controller `owner` with the given counter value.
    pub const fn new(owner: u32, value: u64) -> Self {
        Tag { value, owner }
    }

    /// The counter component of this tag.
    pub const fn value(self) -> u64 {
        self.value
    }

    /// A tag as a transient fault may leave it: any value, owned by any of `ids`.
    pub fn scrambled(rng: &mut Rng, ids: IdRange) -> Tag {
        Tag::new(ids.draw(rng), rng.next_u64())
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
/// next tag uses that value plus one, wrapping from `u64::MAX` to 0. Feeding every tag
/// seen in query replies back via [`TagGenerator::observe`] guarantees that, one round
/// after the last transient fault, freshly generated tags are unique in the system; a
/// few rounds if the fault planted a tag at `u64::MAX` (see the crate docs).
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
/// assert_eq!(t2, Tag::new(2, 101));
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

    /// Incorporates a tag observed anywhere in the system (query replies, switch rules,
    /// channel contents). Future tags will be strictly larger.
    pub fn observe(&mut self, tag: Tag) {
        self.last_value = self.last_value.max(tag.value());
    }

    /// Generates the next tag: strictly larger than everything generated or observed,
    /// except that the successor of `u64::MAX` wraps to 0.
    pub fn next_tag(&mut self) -> Tag {
        self.last_value = self.last_value.wrapping_add(1);
        Tag::new(self.owner, self.last_value)
    }

    /// Overwrites the counter with any value, as a transient fault may.
    pub fn scramble(&mut self, rng: &mut Rng) {
        let TagGenerator {
            owner: _, // whose tags these are: the controller's identity, not memory
            last_value,
        } = self;
        *last_value = rng.next_u64();
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

    /// Overwrites either tag, both or neither with any tag of `ids`.
    pub fn scramble(&mut self, rng: &mut Rng, ids: IdRange) {
        let RoundTracker { curr, prev } = self;
        for tag in [curr, prev] {
            if rng.gen_bool(0.5) {
                *tag = Tag::scrambled(rng, ids);
            }
        }
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
        assert_eq!(format!("{}", Tag::new(3, 7)), "t7@c3");
        assert_eq!(format!("{:?}", Tag::new(3, 7)), "t7@c3");
    }

    #[test]
    fn generator_produces_strictly_increasing_tags() {
        let mut gen = TagGenerator::new(4);
        let mut last = Tag::new(0, 0);
        for _ in 0..100 {
            let t = gen.next_tag();
            assert!(t > last);
            assert_eq!(t, Tag::new(4, t.value()));
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
        gen.observe(Tag::new(7, u64::MAX - 1));
        assert_eq!(gen.next_tag(), Tag::new(1, u64::MAX));
        // The counter wraps rather than saturating: successive rounds still get
        // distinct tags, so `currTag != prevTag` even at the top of the range.
        assert_eq!(gen.next_tag(), Tag::new(1, 0));
        assert_eq!(gen.next_tag(), Tag::new(1, 1));
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
