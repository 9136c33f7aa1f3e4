//! A genuinely bounded-domain tag generator with explicit recycling.
//!
//! The main [`crate::TagGenerator`] relies on a 64-bit counter that is "practically"
//! never exhausted. This module shows how to obtain the same interface from a *bounded*
//! tag domain, in the spirit of Alon et al. \[20\]: tags take values in
//! `0..domain_size`, and when the generator is about to run out of fresh values (which
//! after a transient fault can happen immediately, e.g. if the counter was corrupted to
//! the maximum), it *recycles* by picking the smallest value that it has not observed in
//! the system during the last observation round. As long as the number of tags that can
//! simultaneously exist in the system (switch meta-rules, replies in `replyDB`, messages
//! in transit) is smaller than the domain, a fresh value always exists.
//!
//! The price is exactly the paper's `Delta_synch`: after a corruption, one full round of
//! observations may be needed before the recycled values are safe to reuse.

use crate::Tag;
use std::collections::BTreeSet;

/// Bounded-domain `nextTag()` generator with recycling.
///
/// # Example
///
/// ```
/// use sdn_tags::bounded::BoundedTagGenerator;
/// use sdn_tags::Tag;
/// let mut gen = BoundedTagGenerator::new(1, 8);
/// let t = gen.next_tag();
/// assert!(t.value() < 8);
/// // Tell the generator which tags are still present in the system:
/// gen.begin_observation_round();
/// gen.observe(t);
/// gen.end_observation_round();
/// let t2 = gen.next_tag();
/// assert_ne!(t2, t);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundedTagGenerator {
    owner: u32,
    domain_size: u64,
    next_candidate: u64,
    /// Tags observed during the current (incomplete) observation round.
    observing: BTreeSet<u64>,
    /// Tags known to exist in the system after the last completed observation round.
    in_use: BTreeSet<u64>,
}

impl BoundedTagGenerator {
    /// Creates a bounded generator for controller `owner` over `0..domain_size`.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size < 2`.
    pub fn new(owner: u32, domain_size: u64) -> Self {
        assert!(domain_size >= 2, "tag domain must have at least two values");
        BoundedTagGenerator {
            owner,
            domain_size,
            next_candidate: 1,
            observing: BTreeSet::new(),
            in_use: BTreeSet::new(),
        }
    }

    /// The controller this generator belongs to.
    pub fn owner(&self) -> u32 {
        self.owner
    }

    /// The size of the tag domain.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Starts a new observation round; observations accumulate until
    /// [`BoundedTagGenerator::end_observation_round`].
    // stancheck: allow(test-only-api) — awaits a ROADMAP decision: item 3 keeps or deletes `bounded`
    pub fn begin_observation_round(&mut self) {
        self.observing.clear();
    }

    /// Records a tag observed in the system during the current observation round.
    /// Tags of other owners are ignored: uniqueness only needs to hold per owner.
    pub fn observe(&mut self, tag: Tag) {
        if tag.owner() == self.owner {
            self.observing.insert(tag.value() % self.domain_size);
        }
    }

    /// Completes the observation round: the observed set becomes the authoritative
    /// "still in use" set for recycling decisions.
    // stancheck: allow(test-only-api) — awaits a ROADMAP decision: item 3 keeps or deletes `bounded`
    pub fn end_observation_round(&mut self) {
        self.in_use = std::mem::take(&mut self.observing);
    }

    /// Produces the next tag: the smallest domain value, starting from the last
    /// candidate, that is not known to be in use.
    ///
    /// If every value appears to be in use (only possible transiently, when corrupted
    /// observations claim the whole domain), the candidate counter advances anyway;
    /// uniqueness is then restored after the next observation round, which is the
    /// `Delta_synch` cost the paper accounts for.
    pub fn next_tag(&mut self) -> Tag {
        for _ in 0..self.domain_size {
            let candidate = self.next_candidate % self.domain_size;
            self.next_candidate = (self.next_candidate + 1) % self.domain_size;
            if !self.in_use.contains(&candidate) {
                self.in_use.insert(candidate);
                return Tag::new(self.owner, candidate);
            }
        }
        // Degenerate, transiently-corrupted case: all values claimed.
        let candidate = self.next_candidate % self.domain_size;
        self.next_candidate = (self.next_candidate + 1) % self.domain_size;
        Tag::new(self.owner, candidate)
    }

    /// Simulates a transient fault by overwriting internal state (test helper).
    pub fn corrupt(&mut self, next_candidate: u64, in_use: impl IntoIterator<Item = u64>) {
        self.next_candidate = next_candidate;
        self.in_use = in_use.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_values_within_domain() {
        let mut gen = BoundedTagGenerator::new(3, 5);
        assert_eq!(gen.owner(), 3);
        assert_eq!(gen.domain_size(), 5);
        for _ in 0..20 {
            let t = gen.next_tag();
            assert!(t.value() < 5);
            assert_eq!(t.owner(), 3);
        }
    }

    #[test]
    fn fresh_tags_avoid_observed_values() {
        let mut gen = BoundedTagGenerator::new(0, 16);
        gen.begin_observation_round();
        for v in [1u64, 2, 3, 4] {
            gen.observe(Tag::new(0, v));
        }
        gen.end_observation_round();
        let t = gen.next_tag();
        assert!(![1, 2, 3, 4].contains(&t.value()), "got {t}");
    }

    #[test]
    fn observations_of_other_owners_are_ignored() {
        let mut gen = BoundedTagGenerator::new(0, 4);
        gen.begin_observation_round();
        for v in 0..4u64 {
            gen.observe(Tag::new(7, v)); // different owner
        }
        gen.end_observation_round();
        // All values are still considered free for owner 0.
        let t = gen.next_tag();
        assert_eq!(t.owner(), 0);
    }

    #[test]
    fn recycles_after_wraparound() {
        let mut gen = BoundedTagGenerator::new(0, 4);
        let mut produced = Vec::new();
        for _ in 0..3 {
            produced.push(gen.next_tag().value());
        }
        // Simulate the system now only holding the most recent tag.
        gen.begin_observation_round();
        gen.observe(Tag::new(0, *produced.last().unwrap()));
        gen.end_observation_round();
        let next = gen.next_tag();
        assert_ne!(next.value(), *produced.last().unwrap());
    }

    #[test]
    fn corrupted_state_recovers_after_one_observation_round() {
        let mut gen = BoundedTagGenerator::new(0, 8);
        // Transient fault: generator believes every value is in use.
        gen.corrupt(5, 0..8);
        let _ = gen.next_tag(); // degenerate output allowed here
                                // One observation round later, reality (only tag 2 in use) is restored.
        gen.begin_observation_round();
        gen.observe(Tag::new(0, 2));
        gen.end_observation_round();
        let t = gen.next_tag();
        assert_ne!(t.value(), 2);
        assert!(t.value() < 8);
    }

    #[test]
    #[should_panic(expected = "at least two values")]
    fn tiny_domain_rejected() {
        let _ = BoundedTagGenerator::new(0, 1);
    }
}
