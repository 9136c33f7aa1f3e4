//! The controller-to-switch command interface of the abstract switch (paper, Figure 4).
//!
//! Controllers talk to switches in *command batches*: a `newRound` header, a number of
//! update commands, and a trailing `query`. The switch answers queries with a
//! [`QueryReply`] describing its identifier, neighborhood, manager set, and a
//! summary of its rule set.
//!
//! Rules travel in neither direction as copies: an `updateRule` carries a shared
//! [`RuleSet`] (cloning a batch — a duplicating link, a retransmission — bumps a
//! reference count) and a reply carries a [`RuleSummary`]. Both are charged on the
//! wire as if every rule were spelled out, [`Rule::WIRE_SIZE`] bytes apiece.

use crate::rules::{Rule, RuleSet, RuleSummary};
use sdn_tags::Tag;
use sdn_topology::NodeId;

/// A single command addressed to an abstract switch's control module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchCommand {
    /// `<'newRound', t_metaRule>`: updates the controller's meta-rule tag at the switch.
    NewRound {
        /// The new synchronization-round tag.
        tag: Tag,
    },
    /// `<'delMngr', k>`: removes controller `k` from the switch's manager set.
    DelManager {
        /// The controller to remove.
        controller: NodeId,
    },
    /// `<'addMngr', k>`: adds controller `k` to the switch's manager set.
    AddManager {
        /// The controller to add.
        controller: NodeId,
    },
    /// `<'delAllRules', k>`: deletes every rule installed by controller `k`.
    DelAllRules {
        /// The controller whose rules are purged.
        controller: NodeId,
    },
    /// `<'updateRule', newRules>`: replaces the sender's rules with `rules`, keeping any
    /// existing rules whose tag appears in `keep_tags` (empty for plain Algorithm 2;
    /// the previous round's tag for the Section 6.2 evaluation variant). The rules'
    /// `cID` is the batch's sender — a batch cannot name rules under another
    /// controller's id — and their tag is `tag`.
    UpdateRules {
        /// The synchronization-round tag every rule of the command carries.
        tag: Tag,
        /// The new rule set of the sending controller at this switch.
        rules: RuleSet,
        /// Tags of existing rules of the sending controller that must survive.
        keep_tags: Vec<Tag>,
    },
    /// `<'query', t_query>`: asks the switch for its configuration.
    Query {
        /// The round tag to echo in the reply.
        tag: Tag,
    },
}

impl SwitchCommand {
    /// Approximate encoded size in bytes, used for the message-size accounting of the
    /// paper's Lemma 3 and for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        match self {
            SwitchCommand::NewRound { .. } | SwitchCommand::Query { .. } => 16,
            SwitchCommand::DelManager { .. }
            | SwitchCommand::AddManager { .. }
            | SwitchCommand::DelAllRules { .. } => 8,
            SwitchCommand::UpdateRules {
                rules, keep_tags, ..
            } => 8 + rules.len() * Rule::WIRE_SIZE + keep_tags.len() * 12,
        }
    }
}

/// A sequence of commands sent by one controller to one switch in a single message
/// (the paper aggregates all per-destination commands into one message, line 19).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandBatch {
    /// The controller that issued the batch.
    pub from: NodeId,
    /// The commands, in execution order.
    pub commands: Vec<SwitchCommand>,
}

impl CommandBatch {
    /// Creates a batch from a controller.
    pub fn new(from: NodeId, commands: Vec<SwitchCommand>) -> Self {
        CommandBatch { from, commands }
    }

    /// The query tag carried by the trailing query command, if any.
    pub fn query_tag(&self) -> Option<Tag> {
        self.commands.iter().rev().find_map(|c| match c {
            SwitchCommand::Query { tag } => Some(*tag),
            _ => None,
        })
    }

    /// Approximate encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self
            .commands
            .iter()
            .map(SwitchCommand::wire_size)
            .sum::<usize>()
    }
}

/// The switch's (or, degenerately, a controller's) answer to a query command:
/// `<j, Nc(j), manager(j), rules(j)>` plus the echoed round tag.
///
/// `rules(j)` travels as a [`RuleSummary`], not as a copy of the table, because that
/// is all Algorithm 2 reads out of it: the controllers that still own rules at `j`
/// (line 15, the stale-state cleanup — [`RuleSummary::owners`]), every tag in
/// circulation (line 8, so `nextTag()` stays ahead of them — [`RuleSummary::tags`]),
/// and the number of rules (the message size of Lemma 3 —
/// [`RuleSummary::rule_count`], which [`QueryReply::wire_size`] charges at
/// [`Rule::WIRE_SIZE`] apiece, exactly as if the rules themselves were on the wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// The responding node.
    pub responder: NodeId,
    /// The responder's currently observed neighborhood `Nc(j)`.
    pub neighbors: Vec<NodeId>,
    /// The responder's manager set (empty for controllers).
    pub managers: Vec<NodeId>,
    /// Summary of the responder's installed rules (empty for controllers).
    pub rules: RuleSummary,
    /// The tag of the query this reply answers (the meta-rule tag of the paper).
    pub echo_tag: Tag,
}

impl QueryReply {
    /// Creates a controller's reply: controllers have no managers and no rules
    /// (paper, Algorithm 2 line 23).
    pub fn from_controller(responder: NodeId, neighbors: Vec<NodeId>, echo_tag: Tag) -> Self {
        QueryReply {
            responder,
            neighbors,
            managers: Vec::new(),
            rules: RuleSummary::default(),
            echo_tag,
        }
    }

    /// Approximate encoded size in bytes: the reply is charged for every rule it
    /// summarizes.
    pub fn wire_size(&self) -> usize {
        16 + self.neighbors.len() * 4
            + self.managers.len() * 4
            + self.rules.rule_count() * Rule::WIRE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleBody;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample_rule() -> Rule {
        Rule {
            cid: n(0),
            src: Some(n(0)),
            dst: n(4),
            prt: 1,
            fwd: n(4),
            tag: Tag::new(0, 1),
        }
    }

    /// `len` rules towards distinct destinations.
    fn sample_set(len: u32) -> RuleSet {
        let body = sample_rule().body();
        (0..len)
            .map(|dst| RuleBody {
                dst: n(dst),
                ..body
            })
            .collect()
    }

    #[test]
    fn batch_query_tag_finds_trailing_query() {
        let batch = CommandBatch::new(
            n(0),
            vec![
                SwitchCommand::NewRound {
                    tag: Tag::new(0, 5),
                },
                SwitchCommand::AddManager { controller: n(0) },
                SwitchCommand::Query {
                    tag: Tag::new(0, 5),
                },
            ],
        );
        assert_eq!(batch.query_tag(), Some(Tag::new(0, 5)));
        let no_query =
            CommandBatch::new(n(0), vec![SwitchCommand::AddManager { controller: n(0) }]);
        assert_eq!(no_query.query_tag(), None);
    }

    #[test]
    fn wire_sizes_grow_with_content() {
        let small = SwitchCommand::DelManager { controller: n(1) };
        let update = SwitchCommand::UpdateRules {
            tag: Tag::new(0, 2),
            rules: sample_set(10),
            keep_tags: vec![Tag::new(0, 1)],
        };
        assert!(update.wire_size() > small.wire_size());
        let batch = CommandBatch::new(n(0), vec![small, update]);
        assert!(batch.wire_size() > 8);

        let reply = QueryReply {
            responder: n(3),
            neighbors: vec![n(1), n(2)],
            managers: vec![n(0)],
            rules: RuleSummary::from_rules(&[sample_rule(); 5]),
            echo_tag: Tag::new(0, 1),
        };
        let empty_reply = QueryReply::from_controller(n(1), vec![n(2)], Tag::new(0, 1));
        assert!(reply.wire_size() > empty_reply.wire_size());
    }

    /// Message-size invariance: an `updateRule` is charged for every rule of the set
    /// it references, as when the rules themselves travelled, and a batch is the sum
    /// of its commands.
    #[test]
    fn update_wire_size_counts_every_rule_and_keep_tag() {
        let tag = Tag::new(0, 9);
        for (n_rules, n_keep) in [(0u32, 0u64), (1, 0), (7, 1), (906, 2)] {
            let update = SwitchCommand::UpdateRules {
                tag,
                rules: sample_set(n_rules),
                keep_tags: (0..n_keep).map(|v| Tag::new(0, v)).collect(),
            };
            let expected = 8 + 24 * n_rules as usize + 12 * n_keep as usize;
            assert_eq!(update.wire_size(), expected);
            let batch = CommandBatch::new(
                n(0),
                vec![
                    SwitchCommand::NewRound { tag },
                    SwitchCommand::DelManager { controller: n(1) },
                    SwitchCommand::DelAllRules { controller: n(1) },
                    SwitchCommand::AddManager { controller: n(0) },
                    update,
                    SwitchCommand::Query { tag },
                ],
            );
            assert_eq!(batch.wire_size(), 8 + 16 + 8 + 8 + 8 + expected + 16);
        }
    }

    #[test]
    fn controller_reply_has_no_configuration() {
        let r = QueryReply::from_controller(n(1), vec![n(5), n(6)], Tag::new(1, 3));
        assert_eq!(r.responder, n(1));
        assert!(r.managers.is_empty());
        assert_eq!(r.rules.rule_count(), 0);
        assert_eq!(r.echo_tag, Tag::new(1, 3));
        assert_eq!(r.neighbors, vec![n(5), n(6)]);
    }
}
